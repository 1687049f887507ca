"""Error functionals: L2 and broken-H1 norms of the interior error and
the mesh-weighted residual norms.

A residual norm squares three pieces: elementwise divergence of the flux,
h_T^2 * ||div(a G)||_T^2; flux jumps across a designated edge set,
w_e * ||[a G . n]||_e^2 with w_e the max diameter of the adjacent
triangles; and the stabilizer s(v, v).  The primal variant sums jumps
over interior edges plus Gamma_n, the multiplier variant over interior
edges plus the boundary minus Gamma_d.  G is the weak gradient; the
strong variants use the interior gradient instead.  On boundary edges
the "jump" is the one-sided trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fespace import gradient_coefficient_maps, l2_project_weak
from .weakops import LocalOperators

__all__ = [
    "ErrorReport",
    "InteriorField",
    "error_fields",
    "broken_h1",
    "stabilizer_seminorm",
    "residual_norm_primal",
    "residual_terms_primal",
    "residual_norm_multiplier",
    "residual_terms_multiplier",
    "strong_residual_norms",
    "error_report",
]


@dataclass
class ErrorReport:
    """Error functionals of one solve against a manufactured solution."""

    l2_e0: float
    h1_e0: float
    resid_u: float
    resid_lambda: float
    stab_u: float


class InteriorField:
    """Evaluation view of the interior component of a weak function."""

    def __init__(self, wf):
        self.wf = wf
        self.mesh = wf.mesh
        self.k = wf.k

    def value(self, t, pts):
        return self.wf.interior_value(t, pts)

    def l2_norm(self, ops=None):
        """L2 norm of v_0 with the P_k mass matrices of the level's context."""
        mass = LocalOperators.of(ops, self.mesh, self.k).mass_k
        c = self.wf.interior_coeffs(np.arange(self.mesh.n_triangles))
        return float(np.sqrt(max(np.einsum("ti,tij,tj->", c, mass, c), 0.0)))


# Every functional below takes the level's LocalOperators as ops and builds
# it when not given; a context of another mesh, degree or coefficient, or a
# weak function of another mesh or degree, raises ValueError.  The
# coefficient a defaults to the context's (the identity when there is none).


def error_fields(u_h, u_exact, mesh, k=None, ops=None):
    """Difference to the projected exact solution: e_h = u_h - Q_h u,
    returned with the evaluator of its interior part e_0."""
    ops = LocalOperators.of(ops, mesh, _check_level(u_h, mesh, k))
    e_h = u_h - l2_project_weak(u_exact, mesh, ops.k, ops=ops)
    return e_h, InteriorField(e_h)


def broken_h1(e0, mesh, ops=None):
    """Elementwise L2 norm of the interior gradient, summed over the mesh."""
    mass = LocalOperators.of(ops, mesh, _check_level(e0, mesh, None)).mass_r
    gamma = _interior_gradient_coefficients(e0.wf, mesh, e0.k)
    return float(np.sqrt(max(np.einsum("tci,tij,tcj->", gamma, mass, gamma), 0.0)))


def stabilizer_seminorm(v, mesh, k=None, ops=None):
    """sqrt(s(v, v))."""
    ops = LocalOperators.of(ops, mesh, _check_level(v, mesh, k))
    return float(np.sqrt(max(ops.stabilizer_value(v), 0.0)))


def _interior_gradient_coefficients(v, mesh, k):
    """Coefficients (T, 2, dim P_{k-1}) of the gradient of v_0."""
    dx, dy = gradient_coefficient_maps(k, 1.0)
    c = v.interior_coeffs(np.arange(mesh.n_triangles))
    return np.stack([c @ dx.T, c @ dy.T], axis=1) / mesh.h_tri[:, None, None]


def _divergence_term(gamma, ops):
    """sum_T h_T^2 ||div(a G)||_T^2 for the per-triangle coefficient
    array gamma of G, using the product rule grad(a).G + a div(G)."""
    a = ops.a
    # field values (T, nq, 2) and derivatives d_i G_j as (T, nq, i, j)
    gamma_t = gamma.swapaxes(1, 2)
    gvals = ops.vr @ gamma_t
    gder = ops.gr.swapaxes(2, 3) @ gamma_t[:, None]
    x, y = ops.tri_pts[..., 0].ravel(), ops.tri_pts[..., 1].ravel()
    if a.is_matrix:
        div = np.einsum("ij,tnij->tn", a.const, gder)
    else:
        div = a.scalar_values(x, y).reshape(ops.tri_wts.shape) * (gder[..., 0, 0] + gder[..., 1, 1])
        if not a.is_constant:
            div += np.einsum("tni,tni->tn", a.grad_values(x, y).reshape(gvals.shape), gvals)
    return float(ops.h**2 @ np.einsum("tn,tn->t", ops.tri_wts, div**2))


def _jump_term(gamma, ops, include_boundary):
    """sum over interior edges and flagged boundary edges of
    w_e ||[a G . n]||_e^2 against the fixed global edge normal."""
    mesh = ops.mesh
    edges = np.flatnonzero(~mesh.is_boundary_edge | include_boundary)
    # (triangle, local edge) slots of both sides; one slot twice on boundary edges
    slots = mesh.edge_slots[edges]
    tris = slots // 3
    mq = ops.edge_wts.shape[-1]
    pts = ops.edge_pts.reshape(-1, mq, 2)[slots[:, 0]]
    wts = ops.edge_wts.reshape(-1, mq)[slots[:, 0]]
    x, y = pts[..., 0].ravel(), pts[..., 1].ravel()
    vals = ops.edge_vr.reshape(-1, mq, ops.edge_vr.shape[-1])
    normal = mesh.edge_normals[edges]
    traces = []
    for side in (0, 1):
        gvals = np.einsum("enm,ejm->enj", vals[slots[:, side]], gamma[tris[:, side]])
        flux = ops.a.flux(x, y, gvals.reshape(-1, 2)).reshape(pts.shape)
        traces.append(np.einsum("enj,ej->en", flux, normal))
    jump = traces[0] - np.where((slots[:, 0] != slots[:, 1])[:, None], traces[1], 0.0)
    weight = mesh.h_tri[tris].max(axis=1)
    return float(weight @ np.einsum("en,en->e", wts, jump**2))


def _residual_terms(v, ops, weak, include_boundary):
    """The squared pieces (divergence, jump, stabilizer) of v's residual
    norm, from the weak gradient when weak is set, else the interior one."""
    if weak:
        gamma = ops.gradient_coefficients(v)
    else:
        gamma = _interior_gradient_coefficients(v, ops.mesh, ops.k)
    return (_divergence_term(gamma, ops), _jump_term(gamma, ops, include_boundary),
            ops.stabilizer_value(v))


def _norm(terms):
    return float(np.sqrt(max(sum(terms), 0.0)))


def _check_level(v, mesh, k):
    """v's degree, after checking that v lives on this mesh object and,
    when k is given, has degree k."""
    if v.mesh is not mesh:
        raise ValueError("mesh does not match the weak function")
    k = v.k if k is None else k
    if k != v.k:
        raise ValueError("degree does not match the weak function")
    return k


def residual_terms_primal(v, mesh, config, a=None, k=None, ops=None):
    """Squared pieces (divergence, jump, stabilizer) of the primal
    residual norm; the jump set is interior edges plus Gamma_n."""
    ops = LocalOperators.of(ops, mesh, _check_level(v, mesh, k), a)
    return _residual_terms(v, ops, True, config.in_gamma_n)


def residual_norm_primal(v, mesh, config, a=None, k=None, ops=None):
    """Scaled residual norm of a primal-field weak function."""
    return _norm(residual_terms_primal(v, mesh, config, a, k, ops))


def residual_terms_multiplier(v, mesh, config, a=None, k=None, ops=None):
    """Squared pieces of the multiplier residual norm; the jump set is
    interior edges plus the boundary minus Gamma_d."""
    ops = LocalOperators.of(ops, mesh, _check_level(v, mesh, k), a)
    return _residual_terms(v, ops, True, mesh.is_boundary_edge & ~config.in_gamma_d)


def residual_norm_multiplier(v, mesh, config, a=None, k=None, ops=None):
    """Scaled residual norm of a multiplier-field weak function."""
    return _norm(residual_terms_multiplier(v, mesh, config, a, k, ops))


def strong_residual_norms(v, mesh, config, a=None, k=None, ops=None):
    """The pair of residual norms built from the interior gradient of v
    instead of the weak gradient: (primal edge set, multiplier edge set)."""
    ops = LocalOperators.of(ops, mesh, _check_level(v, mesh, k), a)
    return tuple(_norm(_residual_terms(v, ops, False, include))
                 for include in (config.in_gamma_n, mesh.is_boundary_edge & ~config.in_gamma_d))


def error_report(u_h, lam_h, u_exact, mesh, config, a=None, k=None, ops=None):
    """Collect every error functional of one solve.  The multiplier error
    is lam_h itself (its exact counterpart vanishes)."""
    ops = LocalOperators.of(ops, mesh, _check_level(u_h, mesh, k), a)
    e_h, e0 = error_fields(u_h, u_exact, mesh, ops=ops)
    return ErrorReport(
        l2_e0=e0.l2_norm(ops),
        h1_e0=broken_h1(e0, mesh, ops),
        resid_u=residual_norm_primal(e_h, mesh, config, ops=ops),
        resid_lambda=residual_norm_multiplier(lam_h, mesh, config, ops=ops),
        stab_u=stabilizer_seminorm(e_h, mesh, ops=ops),
    )
