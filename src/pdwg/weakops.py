"""Discrete weak gradient operator and the local bilinear forms.

The weak gradient of a local weak function {v_0, v_b} on a triangle T is
the unique vector polynomial G in [P_{k-1}(T)]^2 with

    (G, psi)_T = -(v_0, div psi)_T + <v_b, psi . n>_{dT}

for every vector test polynomial psi.  The stabilizer penalizes the gap
between the interior trace and the edge unknowns,
s_T(v, v) = h_T^{-1} sum_e int_e (v_0 - v_b)^2, and the diffusion form is
b_T(u, v) = (a grad_w u, grad_w v)_T.
"""

from __future__ import annotations

import numpy as np

from .fespace import (
    DofMap,
    edge_basis,
    edge_quad,
    element_basis,
    gram,
    quadrature_for_degree,
    tri_quad,
)

__all__ = [
    "Diffusion",
    "IDENTITY",
    "LocalOperators",
]


class Diffusion:
    """Diffusion coefficient a(x, y), read everywhere as a symmetric
    positive definite 2x2 tensor field: value is a positive scalar c
    (a = c I), a constant symmetric positive definite 2x2 matrix, or a
    callable positive scalar field a(x, y) (a = a(x, y) I).

    grad is an optional callable returning the gradient (npts, 2) of a
    callable coefficient; residual norms need it, through divergence,
    whenever the coefficient is not constant.
    """

    def __init__(self, value=1.0, grad=None):
        self.grad, self._value = grad, value
        if callable(value):
            return
        arr = np.asarray(value, dtype=float)
        if arr.ndim == 0:
            if arr <= 0:
                raise ValueError("scalar diffusion coefficient must be positive")
            arr = arr * np.eye(2)
        elif arr.shape == (2, 2):
            if not np.allclose(arr, arr.T, rtol=1e-12, atol=0.0):
                raise ValueError("matrix diffusion coefficient must be symmetric")
            if np.any(np.linalg.eigvalsh(arr) <= 0):
                raise ValueError("matrix diffusion coefficient must be positive definite")
        else:
            raise ValueError("diffusion value must be a scalar or a 2x2 matrix")
        self._value = 0.5 * (arr + arr.T)

    @property
    def constant(self):
        """True unless a is a callable field."""
        return not callable(self._value)

    def tensor(self, x, y):
        """a at the points, shape (npts, 2, 2): a broadcast view for a
        constant; ValueError where a callable is not positive."""
        if not callable(self._value):
            return np.broadcast_to(self._value, (np.size(x), 2, 2))
        vals = np.broadcast_to(self._value(x, y), np.shape(x))
        if np.any(vals <= 0):
            raise ValueError("diffusion coefficient not positive at a quadrature point")
        return vals.reshape(-1, 1, 1) * np.eye(2)

    def divergence(self, x, y):
        """Row divergence sum_i d_i a_ij at the points, shape (npts, 2):
        zero for a constant, grad a for a callable."""
        if not callable(self._value):
            return np.broadcast_to(0.0, (np.size(x), 2))
        if self.grad is None:
            raise ValueError("nonconstant scalar coefficient needs an analytic gradient helper")
        return np.asarray(self.grad(x, y), dtype=float).reshape(-1, 2)

    def flux(self, x, y, vec):
        """a times a vector field sampled at points; vec has shape (npts, 2)."""
        return np.einsum("nij,nj->ni", self.tensor(x, y), vec)


IDENTITY = Diffusion(1.0)


# The kernels below keep the operation order of a per-triangle loop (3-operand
# einsums, one Gram product per local edge, summed in edge order), so every
# local matrix is bit-identical to the one computed triangle by triangle.  The
# diffusion form stacks the Gram products of the tensor entries a00, a01, a11
# into one batched call, which keeps each entry's bits.
# This matters beyond taste: at k=3 the gauge-singular cases t3-t5 leave one
# multiplier kernel direction to roundoff, and their results move with the
# last bit of the matrix.


def _grad_maps(ops):
    """Weak-gradient maps (T, 2 dim_r, nloc) from the defining equations
    (G, psi)_T = -(v_0, div psi)_T + <v_b, psi . n>_{dT}, one per component;
    both components' right-hand sides side by side, so that each mass
    matrix is factored once."""
    nt, dimk, dimr, dime = len(ops.h), ops.vk.shape[-1], ops.vr.shape[-1], ops.beta.shape[-1]
    rhs = np.empty((nt, dimr, 2, dimk + 3 * dime))
    for c in range(2):
        # interior columns: -(v_0, div psi)_T
        rhs[:, :, c, :dimk] = -np.einsum("tn,tnj,tni->tji", ops.tri_wts, ops.gr[..., c], ops.vk)
    # edge columns: <v_b, psi . n>_{dT} with the outward normal
    block = np.einsum("tln,tlnj,nm->tljm", ops.edge_wts, ops.edge_vr, ops.beta)
    for loc in range(3):
        cols = slice(dimk + loc * dime, dimk + (loc + 1) * dime)
        for c in range(2):
            rhs[:, :, c, cols] = ops.normals[:, loc, c, None, None] * block[:, loc]
    maps = np.linalg.solve(ops.mass_r, rhs.reshape(nt, dimr, -1)).reshape(rhs.shape)
    return maps.swapaxes(1, 2).reshape(nt, 2 * dimr, -1)


def _stabilizers(ops):
    """Matrices (T, nloc, nloc) of h_T^{-1} sum_e int_e (v_0 - v_b)^2."""
    nt, _, mq, dimk = ops.edge_vk.shape
    dime = ops.beta.shape[-1]
    z = np.zeros((nt, 3, mq, dimk + 3 * dime))
    z[..., :dimk] = ops.edge_vk
    for loc in range(3):
        z[:, loc, :, dimk + loc * dime : dimk + (loc + 1) * dime] = -ops.beta
    mat = gram(z[:, 0], ops.edge_wts[:, 0])
    for loc in (1, 2):
        mat += gram(z[:, loc], ops.edge_wts[:, loc])
    mat /= ops.h[:, None, None]
    return 0.5 * (mat + mat.swapaxes(1, 2))


def _diffusion_forms(ops):
    """Matrices (T, nloc, nloc) of b_T(u, v) = (a grad_w u, grad_w v)_T."""
    gmaps, nt, dimr = ops.grad_maps, len(ops.h), ops.vr.shape[-1]
    # the distinct entries a00, a01, a11 as weights (T, 3, nq)
    entries = ops.a.tensor(*ops.tri_pts.reshape(-1, 2).T).reshape(nt, -1, 4)[..., [0, 1, 3]]
    blocks = gram(ops.vr[:, None], ops.tri_wts[:, None] * entries.swapaxes(1, 2))
    # the (2 dimr)^2 matrix of blocks [[m00, m01], [m01, m11]]
    mass2 = blocks[:, [0, 1, 1, 2]].reshape(nt, 2, 2, dimr, dimr).swapaxes(2, 3)
    form = gmaps.swapaxes(1, 2) @ mass2.reshape(nt, 2 * dimr, 2 * dimr) @ gmaps
    return 0.5 * (form + form.swapaxes(1, 2))


class LocalOperators:
    """Discretization context of one level (mesh, k, a): the level's single
    DofMap, the rule quadrature_for_degree(k), and the quadrature and basis
    tables and local matrices of every triangle, batched along a leading
    triangle axis T:

    tri_pts (T, nq, 2), tri_wts (T, nq)   physical triangle rule
    edge_pts (T, 3, mq, 2), edge_wts (T, 3, mq)
                                          local edge l = (v_l, v_{l+1}), points
                                          in the global edge orientation
    normals (T, 3, 2)                     outward unit normals of the local edges
    vk, vr (T, nq, dim)                   P_k and P_{k-1} values
    gr (T, nq, dim_r, 2)                  P_{k-1} gradients
    edge_vk, edge_vr (T, 3, mq, dim)      P_k and P_{k-1} traces on the local edges
    beta (mq, k+1)                        edge basis
    mass_k, mass_r (T, dim, dim)          P_k and P_{k-1} mass matrices
    grad_maps (T, 2 dim_r, nloc)          weak-gradient maps: the local dof vector
                                          [interior | edge0 | edge1 | edge2] to the
                                          stacked (x-part, y-part) coefficients
    stabilizers, diffusion_forms (T, nloc, nloc)
                                          s_T and b_T on the local dofs
    classes (T,)                          congruence class of each triangle
                                          that the local matrices honour: the
                                          mesh's tri_classes for a constant a,
                                          one class per triangle for a callable
    class_members (C, T / C)              the triangles of each class, in index
                                          order; the first is its representative

    Triangle t's matrices are the rows grad_maps[t], stabilizers[t] and
    diffusion_forms[t]; those of one class agree up to roundoff.
    assemble, solve and error_report all read the same instance.
    """

    def __init__(self, mesh, k, a=IDENTITY):
        self.dofmap = DofMap(mesh, k)
        self.cell_dofs = self.dofmap.cell_dof_array
        self.mesh, self.k, self.a = mesh, k, a
        self.rule = rule = quadrature_for_degree(k)
        self.h = mesh.h_tri
        center, scale = mesh.tri_centroids[:, None, :], self.h[:, None]
        kbasis, rdim = element_basis(k), element_basis(k - 1).dim
        self.tri_pts, self.tri_wts = tri_quad(mesh, np.arange(mesh.n_triangles), rule)
        self.edge_pts, self.edge_wts, _ = edge_quad(mesh, mesh.tri_edges, rule)
        self.normals = mesh.tri_edge_signs[..., None] * mesh.edge_normals[mesh.tri_edges]
        # the graded P_{k-1} basis is the leading part of the P_k basis
        self.vk = kbasis.eval(self.tri_pts, center, scale)
        self.vr = self.vk[..., :rdim]
        self.gr = element_basis(k - 1).grad(self.tri_pts, center, scale)
        self.edge_vk = kbasis.eval(self.edge_pts, center[:, None], scale[:, None])
        self.edge_vr = self.edge_vk[..., :rdim]
        self.beta = edge_basis(k).eval(rule.edge_points)
        self.mass_k = gram(self.vk, self.tri_wts)
        self.mass_r = gram(self.vr, self.tri_wts)
        self.grad_maps = _grad_maps(self)
        self.stabilizers = _stabilizers(self)
        self.diffusion_forms = _diffusion_forms(self)
        self.classes = mesh.tri_classes if a.constant else np.arange(mesh.n_triangles)
        self.class_members = np.argsort(self.classes, kind="stable").reshape(
            self.classes.max() + 1, -1)

    def edge_rule(self, e):
        """Points (..., mq, 2) and ds-weights (..., mq) of the edges e (an
        index, index array or slice), read from the tables of each edge's
        first triangle (mesh.edge_slots); the points follow the global edge
        orientation, so either side's agree."""
        slot = self.mesh.edge_slots[e, 0]
        return (self.edge_pts.reshape(-1, *self.edge_pts.shape[2:])[slot],
                self.edge_wts.reshape(-1, self.edge_wts.shape[-1])[slot])

    def check(self, v):
        """Raise ValueError unless the weak function v lives on this
        context's mesh object and has its degree."""
        for what, same in (("mesh", v.mesh is self.mesh), ("degree", v.k == self.k)):
            if not same:
                raise ValueError(f"weak function of another {what} than its discretization context")

    def check_config(self, config):
        """Raise ValueError unless the boundary configuration belongs to
        this context's mesh object."""
        if config.mesh is not self.mesh:
            raise ValueError("boundary configuration belongs to another mesh than the context")

    def gradient_coefficients(self, v):
        """Weak-gradient coefficients of every triangle, shape (T, 2, dimr)."""
        local = v.coeffs[self.cell_dofs]
        flat = np.einsum("tij,tj->ti", self.grad_maps, local)
        return flat.reshape(self.mesh.n_triangles, 2, -1)

    def stabilizer_value(self, u, v=None):
        """Global stabilizer form s(u, v) (s(u, u) when v is omitted)."""
        xu = u.coeffs[self.cell_dofs]
        xv = xu if v is None else v.coeffs[self.cell_dofs]
        # keep this summation order: the reference values of the t3-t5 k=3
        # levels store its roundoff.  Summing the same products as the
        # contraction of xu with the batched products S xv instead moved
        # t5, k=3, n=1's resid_lambda from 7.88 to 4.24, and t3, k=3, n=8's
        # by 21 tolerances
        return float(np.einsum("ti,tij,tj->", xu, self.stabilizers, xv))
