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
# last bit of the matrix.  The kernels read only their array arguments, one
# row per triangle, so LocalOperators runs them on one triangle of each group
# of byte-equal inputs (_equal_rows) and keeps the group rows: on a uniform mesh
# of dyadic n the groups are few (72 of 2048 triangles at k=1, n=32; 50 of
# 512 at k=2, n=16).  Most of _grad_maps' time is its three-operand einsums,
# which numpy runs as a generic loop; on the groups they cost a tenth.


def _grad_maps(tri_wts, vk, gr, edge_wts, edge_vr, beta, normals, mass_r):
    """Weak-gradient maps (T, 2 dim_r, nloc) from the defining equations
    (G, psi)_T = -(v_0, div psi)_T + <v_b, psi . n>_{dT}, one per component;
    both components' right-hand sides side by side, so that each mass
    matrix is factored once."""
    nt, dimk, dimr, dime = len(tri_wts), vk.shape[-1], gr.shape[-2], beta.shape[-1]
    rhs = np.empty((nt, dimr, 2, dimk + 3 * dime))
    for c in range(2):
        # interior columns: -(v_0, div psi)_T
        rhs[:, :, c, :dimk] = -np.einsum("tn,tnj,tni->tji", tri_wts, gr[..., c], vk)
    # edge columns: <v_b, psi . n>_{dT} with the outward normal
    block = np.einsum("tln,tlnj,nm->tljm", edge_wts, edge_vr, beta)
    for loc in range(3):
        cols = slice(dimk + loc * dime, dimk + (loc + 1) * dime)
        for c in range(2):
            rhs[:, :, c, cols] = normals[:, loc, c, None, None] * block[:, loc]
    maps = np.linalg.solve(mass_r, rhs.reshape(nt, dimr, -1)).reshape(rhs.shape)
    return maps.swapaxes(1, 2).reshape(nt, 2 * dimr, -1)


def _stabilizers(edge_vk, edge_wts, beta, h):
    """Matrices (T, nloc, nloc) of h_T^{-1} sum_e int_e (v_0 - v_b)^2."""
    nt, _, mq, dimk = edge_vk.shape
    dime = beta.shape[-1]
    z = np.zeros((nt, 3, mq, dimk + 3 * dime))
    z[..., :dimk] = edge_vk
    for loc in range(3):
        z[:, loc, :, dimk + loc * dime : dimk + (loc + 1) * dime] = -beta
    mat = gram(z[:, 0], edge_wts[:, 0])
    for loc in (1, 2):
        mat += gram(z[:, loc], edge_wts[:, loc])
    mat /= h[:, None, None]
    return 0.5 * (mat + mat.swapaxes(1, 2))


def _diffusion_forms(grad_maps, vr, tri_wts, tensor):
    """Matrices (T, nloc, nloc) of b_T(u, v) = (a grad_w u, grad_w v)_T,
    tensor (T, nq, 2, 2) being a at the triangle points."""
    nt, dimr = len(tri_wts), vr.shape[-1]
    # the distinct entries a00, a01, a11 as weights (T, 3, nq)
    entries = tensor.reshape(nt, -1, 4)[..., [0, 1, 3]]
    blocks = gram(vr[:, None], tri_wts[:, None] * entries.swapaxes(1, 2))
    # the (2 dimr)^2 matrix of blocks [[m00, m01], [m01, m11]]
    mass2 = blocks[:, [0, 1, 1, 2]].reshape(nt, 2, 2, dimr, dimr).swapaxes(2, 3)
    form = grad_maps.swapaxes(1, 2) @ mass2.reshape(nt, 2 * dimr, 2 * dimr) @ grad_maps
    return 0.5 * (form + form.swapaxes(1, 2))


def _equal_rows(*arrays):
    """Representatives (G,) and group (T,) of the rows of the arrays (each
    with leading axis T) that agree byte for byte in every array: groups
    numbered in order of first appearance, each represented by its first
    row.  An array broadcast along T (stride 0) has equal rows and is
    skipped.  Each row's bytes key a dict, whose hash only shortlists: a
    row joins a group only if its bytes equal the representative's."""
    rows = np.concatenate([arr.reshape(len(arr), -1).view(np.uint64)
                           for arr in arrays if arr.strides[0]], axis=1)
    first = {}
    owner = [first.setdefault(row.tobytes(), t) for t, row in enumerate(rows)]
    # the dict keeps its groups in order of first appearance
    reps = np.fromiter(first.values(), dtype=np.intp, count=len(first))
    group = np.empty(len(rows), dtype=np.intp)
    group[reps] = np.arange(len(reps))
    return reps, group[owner]


class LocalOperators:
    """Discretization context of one level (mesh, k, a): the level's single
    DofMap, the rule quadrature_for_degree(k), the quadrature tables of
    every triangle and of every edge, batched along a leading triangle
    axis T or edge axis E, and the basis tables and local matrices of
    every group of triangles whose kernel inputs agree byte for byte,
    batched along a leading group axis G:

    tri_pts (T, nq, 2), tri_wts (T, nq)   physical triangle rule
    edge_pts (E, mq, 2), edge_wts (E, mq) physical edge rule of every edge,
                                          points in the global edge orientation;
                                          local edge l = (v_l, v_{l+1}) of
                                          triangle t is edge mesh.tri_edges[t, l]
    normals (T, 3, 2)                     outward unit normals of the local edges
    input_groups (T,), input_reps (G,)    group of each triangle whose kernel
                                          inputs (scaled points, weights,
                                          normals, h, a at the points) equal
                                          another's byte for byte, numbered in
                                          order of first appearance, and the
                                          first triangle of each group
    group_vk, group_vr (G, nq, dim)       P_k and P_{k-1} values
    group_gr (G, nq, dim_r, 2)            P_{k-1} gradients
    group_edge_vk, group_edge_vr (G, 3, mq, dim)
                                          P_k and P_{k-1} traces on the local edges
    beta (mq, k+1)                        edge basis
    group_mass_k, group_mass_r (G, dim, dim)
                                          P_k and P_{k-1} mass matrices
    group_grad_maps (G, 2 dim_r, nloc)    weak-gradient maps: the local dof vector
                                          [interior | edge0 | edge1 | edge2] to the
                                          stacked (x-part, y-part) coefficients
    group_stabilizers, group_diffusion_forms (G, nloc, nloc)
                                          s_T and b_T on the local dofs
    classes (T,)                          congruence class of each triangle
                                          that the local matrices honour: the
                                          mesh's tri_classes for a constant a,
                                          one class per triangle for a callable
    class_members (C, T / C)              the triangles of each class, in index
                                          order; the first is its representative

    Triangle t's matrices are the rows group_grad_maps[g],
    group_stabilizers[g] and group_diffusion_forms[g] of its group
    g = input_groups[t], bit for bit those that the kernels compute on t;
    those of one class agree up to roundoff.  No table is kept per
    triangle, and no edge table per local edge: a call whose arithmetic is
    batched per triangle gathers the rows it reads (table[input_groups],
    edge_wts[mesh.tri_edges]) and drops them on return.
    assemble, solve and error_report all read the same instance.
    """

    def __init__(self, mesh, k, a=IDENTITY):
        self.dofmap = DofMap(mesh, k)
        self.cell_dofs = self.dofmap.cell_dof_array
        self.mesh, self.k, self.a = mesh, k, a
        self.rule = rule = quadrature_for_degree(k)
        self.h = h = mesh.h_tri
        center, scale = mesh.tri_centroids[:, None, :], h[:, None, None]
        kbasis, rdim = element_basis(k), element_basis(k - 1).dim
        self.tri_pts, self.tri_wts = tri_quad(mesh, np.arange(mesh.n_triangles), rule)
        self.edge_pts, self.edge_wts, _ = edge_quad(mesh, np.arange(mesh.n_edges), rule)
        self.normals = mesh.tri_edge_signs[..., None] * mesh.edge_normals[mesh.tri_edges]
        self.beta = edge_basis(k).eval(rule.edge_points)
        # everything the kernels read, one row per triangle; the edge rule
        # gathered to the local edges only for this call
        edge_wts = self.edge_wts[mesh.tri_edges]
        tri_scaled = (self.tri_pts - center) / scale
        edge_scaled = (self.edge_pts[mesh.tri_edges] - center[:, None]) / scale[:, None]
        tensor = a.tensor(*self.tri_pts.reshape(-1, 2).T).reshape(len(h), -1, 2, 2)
        self.input_reps, self.input_groups = _equal_rows(
            tri_scaled, edge_scaled, self.tri_wts, edge_wts, self.normals, h, tensor)
        reps = self.input_reps
        tri_wts = self.tri_wts[reps]
        # the graded P_{k-1} basis is the leading part of the P_k basis
        self.group_vk = vk = kbasis.eval(tri_scaled[reps])
        self.group_gr = element_basis(k - 1).grad(tri_scaled[reps], h[reps, None])
        self.group_edge_vk = kbasis.eval(edge_scaled[reps])
        self.group_vr, self.group_edge_vr = vk[..., :rdim], self.group_edge_vk[..., :rdim]
        self.group_mass_k = gram(vk, tri_wts)
        self.group_mass_r = gram(self.group_vr, tri_wts)
        self.group_grad_maps = _grad_maps(tri_wts, vk, self.group_gr, edge_wts[reps],
                                          self.group_edge_vr, self.beta, self.normals[reps],
                                          self.group_mass_r)
        self.group_stabilizers = _stabilizers(self.group_edge_vk, edge_wts[reps],
                                              self.beta, h[reps])
        self.group_diffusion_forms = _diffusion_forms(self.group_grad_maps, self.group_vr,
                                                      tri_wts, tensor[reps])
        self.classes = mesh.tri_classes if a.constant else np.arange(mesh.n_triangles)
        self.class_members = np.argsort(self.classes, kind="stable").reshape(
            self.classes.max() + 1, -1)

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
        flat = np.einsum("tij,tj->ti", self.group_grad_maps[self.input_groups], local)
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
        return float(np.einsum("ti,tij,tj->", xu, self.group_stabilizers[self.input_groups], xv))
