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
    """Diffusion coefficient a(x, y): a positive scalar, constant or
    callable, or a constant symmetric positive definite 2x2 matrix.

    grad is an optional callable returning the gradient (npts, 2) of a
    callable coefficient; residual norms need it whenever the coefficient
    is not constant.
    """

    def __init__(self, value=1.0, grad=None):
        self.grad = grad
        if callable(value):
            self.fn = value
            self.const = None
            self.is_matrix = False
            self.is_constant = False
        else:
            arr = np.asarray(value, dtype=float)
            if arr.ndim == 0:
                if arr <= 0:
                    raise ValueError("scalar diffusion coefficient must be positive")
                self.const = float(arr)
                self.is_matrix = False
            elif arr.shape == (2, 2):
                if not np.allclose(arr, arr.T, rtol=1e-12, atol=0.0):
                    raise ValueError("matrix diffusion coefficient must be symmetric")
                if np.any(np.linalg.eigvalsh(arr) <= 0):
                    raise ValueError("matrix diffusion coefficient must be positive definite")
                self.const = arr
                self.is_matrix = True
            else:
                raise ValueError("diffusion value must be a scalar or a 2x2 matrix")
            self.fn = None
            self.is_constant = True

    def scalar_values(self, x, y):
        if self.is_matrix:
            raise ValueError("matrix coefficient queried as a scalar")
        if self.is_constant:
            return np.full(np.shape(x), self.const)
        vals = np.asarray(self.fn(x, y), dtype=float)
        if vals.ndim == 0:
            vals = np.full(np.shape(x), float(vals))
        return vals

    def grad_values(self, x, y):
        """Gradient of a scalar coefficient; zero for constants."""
        if self.is_matrix:
            raise ValueError("gradient helper is defined for scalar coefficients only")
        if self.is_constant:
            return np.zeros((np.size(x), 2))
        if self.grad is None:
            raise ValueError(
                "nonconstant scalar coefficient needs an analytic gradient helper"
            )
        return np.asarray(self.grad(x, y), dtype=float).reshape(np.size(x), 2)

    def flux(self, x, y, vec):
        """a times a vector field sampled at points; vec has shape (npts, 2)."""
        vec = np.asarray(vec, dtype=float)
        if self.is_matrix:
            return vec @ self.const.T
        return self.scalar_values(x, y)[:, None] * vec


IDENTITY = Diffusion(1.0)


# The kernels below keep the operation order of a per-triangle loop (3-operand
# einsums, one Gram product per local edge, summed in edge order), so every
# local matrix is bit-identical to the one computed triangle by triangle.
# This matters beyond taste: at k=3 the gauge-singular cases t3-t5 leave one
# multiplier kernel direction to roundoff, and their results move with the
# last bit of the matrix.


def _grad_maps(ops):
    """Weak-gradient maps (T, 2 dim_r, nloc) from the defining equations
    (G, psi)_T = -(v_0, div psi)_T + <v_b, psi . n>_{dT}, one per component."""
    nt, dimk, dimr, dime = len(ops.h), ops.vk.shape[-1], ops.vr.shape[-1], ops.beta.shape[-1]
    rhs = np.empty((nt, 2, dimr, dimk + 3 * dime))
    for c in range(2):
        # interior columns: -(v_0, div psi)_T
        rhs[:, c, :, :dimk] = -np.einsum("tn,tnj,tni->tji", ops.tri_wts, ops.gr[..., c], ops.vk)
    # edge columns: <v_b, psi . n>_{dT} with the outward normal
    block = np.einsum("tln,tlnj,nm->tljm", ops.edge_wts, ops.edge_vr, ops.beta)
    for loc in range(3):
        cols = slice(dimk + loc * dime, dimk + (loc + 1) * dime)
        for c in range(2):
            rhs[:, c, :, cols] = ops.normals[:, loc, c, None, None] * block[:, loc]
    return np.linalg.solve(ops.mass_r[:, None], rhs).reshape(nt, 2 * dimr, -1)


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
    a, gmaps = ops.a, ops.grad_maps
    nt, dimr = len(ops.h), ops.vr.shape[-1]
    mass2 = np.zeros((nt, 2, dimr, 2, dimr))
    if a.is_matrix:
        for i in range(2):
            for j in range(2):
                mass2[:, i, :, j] = gram(ops.vr, ops.tri_wts * a.const[i, j])
    else:
        pts = ops.tri_pts.reshape(-1, 2)
        avals = a.scalar_values(pts[:, 0], pts[:, 1]).reshape(ops.tri_wts.shape)
        if np.any(avals <= 0):
            raise ValueError("diffusion coefficient not positive at a quadrature point")
        mass2[:, 0, :, 0] = mass2[:, 1, :, 1] = gram(ops.vr, ops.tri_wts * avals)
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

    Triangle t's matrices are the rows grad_maps[t], stabilizers[t] and
    diffusion_forms[t].  assemble, solve and error_report all read the
    same instance.
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

    def check(self, v):
        """Raise ValueError unless the weak function v lives on this
        context's mesh object and has its degree."""
        for what, same in (("mesh", v.mesh is self.mesh), ("degree", v.k == self.k)):
            if not same:
                raise ValueError(f"weak function of another {what} than its discretization context")

    def gradient_coefficients(self, v):
        """Weak-gradient coefficients of every triangle, shape (T, 2, dimr)."""
        local = v.coeffs[self.cell_dofs]
        flat = np.einsum("tij,tj->ti", self.grad_maps, local)
        return flat.reshape(self.mesh.n_triangles, 2, -1)

    def stabilizer_value(self, u, v=None):
        """Global stabilizer form s(u, v) (s(u, u) when v is omitted)."""
        xu = u.coeffs[self.cell_dofs]
        xv = xu if v is None else v.coeffs[self.cell_dofs]
        return float(np.einsum("ti,tij,tj->", xu, self.stabilizers, xv))
