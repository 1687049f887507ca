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

from .fespace import gradient_coefficient_maps, l2_project_weak, quadrature_for_degree, tri_mass
from .weakops import IDENTITY, LocalOperators

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
    strong_u: float | None = None
    strong_lambda: float | None = None


class InteriorField:
    """Evaluation view of the interior component of a weak function."""

    def __init__(self, wf):
        self.wf = wf
        self.mesh = wf.mesh
        self.k = wf.k

    def coeffs(self, t):
        return self.wf.interior_coeffs(t)

    def value(self, t, pts):
        return self.wf.interior_value(t, pts)

    def l2_norm(self, rule=None, ops=None):
        """L2 norm of v_0; the P_k mass matrices come from ops when given."""
        t = np.arange(self.mesh.n_triangles)
        c = self.wf.interior_coeffs(t)
        mass = tri_mass(self.mesh, t, self.k, rule) if ops is None else ops.mass_k
        return float(np.sqrt(max(np.einsum("ti,tij,tj->", c, mass, c), 0.0)))


def error_fields(u_h, u_exact, mesh, k=None, rule=None, ops=None):
    """Difference to the projected exact solution: e_h = u_h - Q_h u,
    returned with the evaluator of its interior part e_0.  Q_h u reuses
    the tables of ops when given."""
    k = u_h.k if k is None else k
    if k != u_h.k:
        raise ValueError("degree does not match the weak function")
    e_h = u_h - l2_project_weak(u_exact, mesh, k, rule, ops)
    return e_h, InteriorField(e_h)


def broken_h1(e0, mesh, rule=None, ops=None):
    """Elementwise L2 norm of the interior gradient, summed over the mesh;
    the P_{k-1} mass matrices come from ops when given."""
    k = e0.k
    gamma = _interior_gradient_coefficients(e0.wf, mesh, k)
    if ops is None:
        mass = tri_mass(mesh, np.arange(mesh.n_triangles), k - 1, rule or quadrature_for_degree(k))
    else:
        mass = ops.mass_r
    return float(np.sqrt(max(np.einsum("tci,tij,tcj->", gamma, mass, gamma), 0.0)))


def stabilizer_seminorm(v, mesh, k=None, rule=None, ops=None):
    """sqrt(s(v, v))."""
    k = v.k if k is None else k
    if ops is None:
        ops = LocalOperators(mesh, k, rule=rule)
    return float(np.sqrt(max(ops.stabilizer_value(v), 0.0)))


def _interior_gradient_coefficients(v, mesh, k):
    """Coefficients (T, 2, dim P_{k-1}) of the gradient of v_0."""
    dx, dy = gradient_coefficient_maps(k, 1.0)
    c = v.interior_coeffs(np.arange(mesh.n_triangles))
    return np.stack([c @ dx.T, c @ dy.T], axis=1) / mesh.h_tri[:, None, None]


def _divergence_term(gamma, ops, a):
    """sum_T h_T^2 ||div(a G)||_T^2 for the per-triangle coefficient
    array gamma of G, using the product rule grad(a).G + a div(G)."""
    # field values (T, nq, 2) and derivatives d_i G_j as (T, nq, i, j)
    gvals = np.einsum("tnm,tjm->tnj", ops.vr, gamma)
    gder = np.einsum("tjm,tnmi->tnij", gamma, ops.gr)
    x, y = ops.tri_pts[..., 0].ravel(), ops.tri_pts[..., 1].ravel()
    if a.is_matrix:
        div = np.einsum("ij,tnij->tn", a.const, gder)
    else:
        div = a.scalar_values(x, y).reshape(ops.tri_wts.shape) * (gder[..., 0, 0] + gder[..., 1, 1])
        if not a.is_constant:
            div += np.einsum("tni,tni->tn", a.grad_values(x, y).reshape(gvals.shape), gvals)
    return float(ops.h**2 @ np.einsum("tn,tn->t", ops.tri_wts, div**2))


def _jump_term(gamma, ops, a, include_boundary):
    """sum over interior edges and flagged boundary edges of
    w_e ||[a G . n]||_e^2 against the fixed global edge normal."""
    mesh = ops.mesh
    edges = np.flatnonzero(~mesh.is_boundary_edge | include_boundary)
    # (triangle, local edge) slots of both sides; one slot twice on boundary edges
    slots = ops.edge_slots[edges]
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
        flux = a.flux(x, y, gvals.reshape(-1, 2)).reshape(pts.shape)
        traces.append(np.einsum("enj,ej->en", flux, normal))
    jump = traces[0] - np.where((slots[:, 0] != slots[:, 1])[:, None], traces[1], 0.0)
    weight = mesh.h_tri[tris].max(axis=1)
    return float(weight @ np.einsum("en,en->e", wts, jump**2))


def _residual_terms(v, mesh, config, a, k, rule, ops, grad_mode, include_boundary):
    if ops is None:
        ops = LocalOperators(mesh, k, a, rule)
    if grad_mode == "weak":
        gamma = ops.gradient_coefficients(v)
    else:
        gamma = _interior_gradient_coefficients(v, mesh, k)
    div = _divergence_term(gamma, ops, a)
    jump = _jump_term(gamma, ops, a, include_boundary)
    stab = ops.stabilizer_value(v)
    return div, jump, stab


def _check_degree(v, k):
    k = v.k if k is None else k
    if k != v.k:
        raise ValueError("degree does not match the weak function")
    return k


def residual_terms_primal(v, mesh, config, a=IDENTITY, k=None, rule=None, ops=None):
    """Squared pieces (divergence, jump, stabilizer) of the primal
    residual norm; the jump set is interior edges plus Gamma_n."""
    k = _check_degree(v, k)
    return _residual_terms(v, mesh, config, a, k, rule, ops, "weak", config.in_gamma_n)


def residual_norm_primal(v, mesh, config, a=IDENTITY, k=None, rule=None, ops=None):
    """Scaled residual norm of a primal-field weak function."""
    terms = residual_terms_primal(v, mesh, config, a, k, rule, ops)
    return float(np.sqrt(max(sum(terms), 0.0)))


def residual_terms_multiplier(v, mesh, config, a=IDENTITY, k=None, rule=None, ops=None):
    """Squared pieces of the multiplier residual norm; the jump set is
    interior edges plus the boundary minus Gamma_d."""
    k = _check_degree(v, k)
    include = mesh.is_boundary_edge & ~config.in_gamma_d
    return _residual_terms(v, mesh, config, a, k, rule, ops, "weak", include)


def residual_norm_multiplier(v, mesh, config, a=IDENTITY, k=None, rule=None, ops=None):
    """Scaled residual norm of a multiplier-field weak function."""
    terms = residual_terms_multiplier(v, mesh, config, a, k, rule, ops)
    return float(np.sqrt(max(sum(terms), 0.0)))


def strong_residual_norms(v, mesh, config, a=IDENTITY, k=None, rule=None, ops=None):
    """The pair of residual norms built from the interior gradient of v
    instead of the weak gradient: (primal edge set, multiplier edge set)."""
    k = _check_degree(v, k)
    primal = _residual_terms(v, mesh, config, a, k, rule, ops, "strong", config.in_gamma_n)
    include = mesh.is_boundary_edge & ~config.in_gamma_d
    multiplier = _residual_terms(v, mesh, config, a, k, rule, ops, "strong", include)
    return (
        float(np.sqrt(max(sum(primal), 0.0))),
        float(np.sqrt(max(sum(multiplier), 0.0))),
    )


def error_report(u_h, lam_h, u_exact, mesh, config, a=IDENTITY, k=None, rule=None,
                 ops=None, with_strong=False):
    """Collect every error functional of one solve.  The multiplier error
    is lam_h itself (its exact counterpart vanishes)."""
    k = _check_degree(u_h, k)
    if ops is None:
        ops = LocalOperators(mesh, k, a, rule)
    rule = ops.rule
    e_h, e0 = error_fields(u_h, u_exact, mesh, k, rule, ops)
    stab = stabilizer_seminorm(e_h, mesh, k, rule, ops)
    report = ErrorReport(
        l2_e0=e0.l2_norm(rule, ops),
        h1_e0=broken_h1(e0, mesh, rule, ops),
        resid_u=residual_norm_primal(e_h, mesh, config, a, k, rule, ops),
        resid_lambda=residual_norm_multiplier(lam_h, mesh, config, a, k, rule, ops),
        stab_u=stab,
    )
    if with_strong:
        report.strong_u, _ = strong_residual_norms(e_h, mesh, config, a, k, rule, ops)
        _, report.strong_lambda = strong_residual_norms(lam_h, mesh, config, a, k, rule, ops)
    return report
