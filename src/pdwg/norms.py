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
    mass = ops.group_mass_k[ops.input_groups]
    return float(np.sqrt(max(np.einsum("ti,tij,tj->", c, mass, c), 0.0)))


def broken_h1(v, ops):
    """Elementwise L2 norm of the gradient of v_0, summed over the mesh."""
    ops.check(v)
    gamma = _interior_gradient_coefficients(v, ops)
    mass = ops.group_mass_r[ops.input_groups]
    return float(np.sqrt(max(np.einsum("tci,tij,tcj->", gamma, mass, gamma), 0.0)))


def stabilizer_seminorm(v, ops):
    """sqrt(s(v, v))."""
    ops.check(v)
    return float(np.sqrt(max(ops.stabilizer_value(v), 0.0)))


def _interior_gradient_coefficients(v, ops):
    """Coefficients (T, 2, dim P_{k-1}) of the gradient of v_0."""
    dx, dy = gradient_coefficient_maps(ops.k, 1.0)
    c = v.interior_coeffs(np.arange(ops.mesh.n_triangles))
    return np.stack([c @ dx.T, c @ dy.T], axis=1) / ops.h[:, None, None]


def _flux_maps(ops):
    """Linear maps from a field's gradient coefficients gamma (T, 2 dim_r),
    x-part then y-part, to the pointwise pieces of its residual norm.
    _residual_terms builds them once for all the fields it measures, so
    a.tensor and a.divergence are sampled, and the edge slots gathered,
    once per level in error_report:

    div (T, nq, 2 dim_r)          div(a G) at the triangle points, by the
                                  product rule div(a G) = sum_ij a_ij d_i G_j
                                  + sum_j (sum_i d_i a_ij) G_j; the first sum
                                  computed on one triangle per group of
                                  byte-equal kernel inputs (ops.input_reps),
                                  which include a at the points, and gathered;
                                  the second, zero for a constant a, added
                                  per triangle
    trace (E, 2, mq, 2 dim_r)     (a G) . n_e at the points of every edge
                                  (ops.edge_pts) from the triangle of either
                                  side (mesh.edge_slots), against the fixed
                                  global edge normal n_e
    """
    mesh = ops.mesh
    nt, nq = ops.tri_wts.shape
    x, y = ops.tri_pts.reshape(-1, 2).T
    tensor, gr = ops.a.tensor(x, y).reshape(nt, nq, 2, 2)[ops.input_reps], ops.group_gr
    # sum_i a_ij d_i phi_m, as the sum of its two products
    div = tensor[:, :, 0, :, None] * gr[:, :, None, :, 0]
    div += tensor[:, :, 1, :, None] * gr[:, :, None, :, 1]
    div = div[ops.input_groups]
    if not ops.a.constant:
        vr = ops.group_vr[ops.input_groups, :, None, :]
        div += ops.a.divergence(x, y).reshape(nt, nq, 2, 1) * vr
    x, y = ops.edge_pts.reshape(-1, 2).T
    tensor = ops.a.tensor(x, y).reshape(*ops.edge_wts.shape, 2, 2)
    normal = mesh.edge_normals[:, None, :, None]
    normal_a = normal[:, :, 0] * tensor[:, :, 0] + normal[:, :, 1] * tensor[:, :, 1]
    slots = mesh.edge_slots
    edge_vr = ops.group_edge_vr[ops.input_groups[slots // 3], slots % 3]
    trace = normal_a[:, None, :, :, None] * edge_vr[:, :, :, None]
    return div.reshape(nt, nq, -1), trace.reshape(*trace.shape[:3], -1)


def _residual_terms(ops, fields, edge_flags, weak=True):
    """The squared pieces (divergence, jump, stabilizer) of the residual
    norm of each field, from the weak gradient when weak is set, else the
    interior one.  The divergence piece is sum_T h_T^2 ||div(a G)||_T^2;
    the jump piece sums w_e ||[a G . n]||_e^2 over the interior edges and
    the boundary edges flagged in the field's entry of edge_flags, w_e the
    larger diameter of the adjacent triangles; on a boundary edge the jump
    is the one-sided trace."""
    mesh, nt = ops.mesh, ops.mesh.n_triangles
    div_map, trace_map = _flux_maps(ops)
    # the fields' coefficients side by side, (T, 2 dim_r, fields)
    gamma = np.stack([(ops.gradient_coefficients(v) if weak
                       else _interior_gradient_coefficients(v, ops)).reshape(nt, -1)
                      for v in fields], axis=-1)
    div = div_map @ gamma
    slots = mesh.edge_slots
    tris = slots // 3
    traces = trace_map @ gamma[tris]
    jump = traces[:, 0] - np.where((slots[:, 0] != slots[:, 1])[:, None, None], traces[:, 1], 0.0)
    weight = mesh.h_tri[tris].max(axis=1)
    wts = ops.edge_wts
    terms = []
    for f, (v, flags) in enumerate(zip(fields, edge_flags)):
        edges = ~mesh.is_boundary_edge | flags
        terms.append((float(ops.h**2 @ np.einsum("tn,tn->t", ops.tri_wts, div[..., f]**2)),
                      float(weight[edges] @ np.einsum("en,en->e", wts[edges], jump[edges, :, f]**2)),
                      ops.stabilizer_value(v)))
    return terms


def _norm(terms):
    return float(np.sqrt(max(sum(terms), 0.0)))


def _multiplier_flags(config, ops):
    """The boundary edges of the multiplier's jump set: the boundary minus
    Gamma_d."""
    return ops.mesh.is_boundary_edge & ~config.in_gamma_d


def residual_terms_primal(v, config, ops):
    """Squared pieces (divergence, jump, stabilizer) of the primal
    residual norm; the jump set is interior edges plus Gamma_n."""
    ops.check(v)
    ops.check_config(config)
    return _residual_terms(ops, [v], [config.in_gamma_n])[0]


def residual_norm_primal(v, config, ops):
    """Scaled residual norm of a primal-field weak function."""
    return _norm(residual_terms_primal(v, config, ops))


def residual_terms_multiplier(v, config, ops):
    """Squared pieces of the multiplier residual norm; the jump set is
    interior edges plus the boundary minus Gamma_d."""
    ops.check(v)
    ops.check_config(config)
    return _residual_terms(ops, [v], [_multiplier_flags(config, ops)])[0]


def residual_norm_multiplier(v, config, ops):
    """Scaled residual norm of a multiplier-field weak function."""
    return _norm(residual_terms_multiplier(v, config, ops))


def strong_residual_norms(v, config, ops):
    """The pair of residual norms built from the interior gradient of v
    instead of the weak gradient: (primal edge set, multiplier edge set)."""
    ops.check(v)
    ops.check_config(config)
    flags = (config.in_gamma_n, _multiplier_flags(config, ops))
    return tuple(_norm(terms) for terms in _residual_terms(ops, [v, v], flags, weak=False))


def error_report(u_h, lam_h, u_exact, config, ops):
    """Collect every error functional of one solve.  The multiplier error
    is lam_h itself (its exact counterpart vanishes); stab_u is the root of
    the stabilizer piece of resid_u."""
    e_h = error_fields(u_h, u_exact, ops)
    ops.check(lam_h)
    ops.check_config(config)
    # both residuals from one set of flux maps
    terms, lam_terms = _residual_terms(ops, [e_h, lam_h],
                                       [config.in_gamma_n, _multiplier_flags(config, ops)])
    return ErrorReport(
        l2_e0=interior_l2_norm(e_h, ops),
        h1_e0=broken_h1(e_h, ops),
        resid_u=_norm(terms),
        resid_lambda=_norm(lam_terms),
        stab_u=_norm(terms[2:]),
    )
