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

__all__ = [
    "ErrorReport",
    "error_fields",
    "interior_l2_norm",
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


# Every functional below reads mesh, degree and coefficient from ops, the
# level's LocalOperators; a weak function of another mesh object or degree,
# or a boundary configuration of another mesh object, raises ValueError.


def error_fields(u_h, u_exact, ops):
    """Difference to the projected exact solution, e_h = u_h - Q_h u; its
    interior part is e_0."""
    ops.check(u_h)
    return u_h - l2_project_weak(u_exact, ops)


def interior_l2_norm(v, ops):
    """L2 norm of v_0 with the P_k mass matrices of the level's context."""
    ops.check(v)
    c = v.interior_coeffs(np.arange(ops.mesh.n_triangles))
    return float(np.sqrt(max(np.einsum("ti,tij,tj->", c, ops.mass_k, c), 0.0)))


def broken_h1(v, ops):
    """Elementwise L2 norm of the gradient of v_0, summed over the mesh."""
    ops.check(v)
    gamma = _interior_gradient_coefficients(v, ops)
    return float(np.sqrt(max(np.einsum("tci,tij,tcj->", gamma, ops.mass_r, gamma), 0.0)))


def stabilizer_seminorm(v, ops):
    """sqrt(s(v, v))."""
    ops.check(v)
    return float(np.sqrt(max(ops.stabilizer_value(v), 0.0)))


def _interior_gradient_coefficients(v, ops):
    """Coefficients (T, 2, dim P_{k-1}) of the gradient of v_0."""
    dx, dy = gradient_coefficient_maps(ops.k, 1.0)
    c = v.interior_coeffs(np.arange(ops.mesh.n_triangles))
    return np.stack([c @ dx.T, c @ dy.T], axis=1) / ops.h[:, None, None]


def _divergence_term(gamma, ops):
    """sum_T h_T^2 ||div(a G)||_T^2 for the per-triangle coefficient
    array gamma of G, using the product rule
    div(a G) = sum_ij a_ij d_i G_j + sum_j (sum_i d_i a_ij) G_j."""
    # field values (T, nq, 2) and derivatives d_i G_j as (T, nq, i, j)
    gamma_t = gamma.swapaxes(1, 2)
    gvals = ops.vr @ gamma_t
    gder = ops.gr.swapaxes(2, 3) @ gamma_t[:, None]
    x, y = ops.tri_pts[..., 0].ravel(), ops.tri_pts[..., 1].ravel()
    div = np.einsum("tnij,tnij->tn", ops.a.tensor(x, y).reshape(gder.shape), gder)
    div += np.einsum("tnj,tnj->tn", ops.a.divergence(x, y).reshape(gvals.shape), gvals)
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
        gamma = _interior_gradient_coefficients(v, ops)
    return (_divergence_term(gamma, ops), _jump_term(gamma, ops, include_boundary),
            ops.stabilizer_value(v))


def _norm(terms):
    return float(np.sqrt(max(sum(terms), 0.0)))


def residual_terms_primal(v, config, ops):
    """Squared pieces (divergence, jump, stabilizer) of the primal
    residual norm; the jump set is interior edges plus Gamma_n."""
    ops.check(v)
    ops.check_config(config)
    return _residual_terms(v, ops, True, config.in_gamma_n)


def residual_norm_primal(v, config, ops):
    """Scaled residual norm of a primal-field weak function."""
    return _norm(residual_terms_primal(v, config, ops))


def residual_terms_multiplier(v, config, ops):
    """Squared pieces of the multiplier residual norm; the jump set is
    interior edges plus the boundary minus Gamma_d."""
    ops.check(v)
    ops.check_config(config)
    return _residual_terms(v, ops, True, ops.mesh.is_boundary_edge & ~config.in_gamma_d)


def residual_norm_multiplier(v, config, ops):
    """Scaled residual norm of a multiplier-field weak function."""
    return _norm(residual_terms_multiplier(v, config, ops))


def strong_residual_norms(v, config, ops):
    """The pair of residual norms built from the interior gradient of v
    instead of the weak gradient: (primal edge set, multiplier edge set)."""
    ops.check(v)
    ops.check_config(config)
    multiplier_set = ops.mesh.is_boundary_edge & ~config.in_gamma_d
    return tuple(_norm(_residual_terms(v, ops, False, include))
                 for include in (config.in_gamma_n, multiplier_set))


def error_report(u_h, lam_h, u_exact, config, ops):
    """Collect every error functional of one solve.  The multiplier error
    is lam_h itself (its exact counterpart vanishes); stab_u is the root of
    the stabilizer piece of resid_u."""
    e_h = error_fields(u_h, u_exact, ops)
    terms = residual_terms_primal(e_h, config, ops)
    return ErrorReport(
        l2_e0=interior_l2_norm(e_h, ops),
        h1_e0=broken_h1(e_h, ops),
        resid_u=_norm(terms),
        resid_lambda=residual_norm_multiplier(lam_h, config, ops),
        stab_u=_norm(terms[2:]),
    )
