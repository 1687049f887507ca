import math

import numpy as np
import pytest

from pdwg import norms
from pdwg.cases import get_case
from pdwg.fespace import (
    WeakFunction,
    dim_pk,
    edge_quad,
    element_basis,
    l2_project_weak,
    tri_quad,
)
from pdwg.mesh import build_uniform_mesh, classify_boundary, edge_weight
from pdwg.norms import (
    InteriorField,
    broken_h1,
    error_fields,
    error_report,
    residual_norm_multiplier,
    residual_norm_primal,
    residual_terms_multiplier,
    residual_terms_primal,
    stabilizer_seminorm,
    strong_residual_norms,
)
from pdwg.system import assemble, solve
from pdwg.weakops import IDENTITY, Diffusion, LocalOperators


def constant_weak_function(mesh, k, value=1.0):
    wf = WeakFunction(mesh, k)
    for t in range(mesh.n_triangles):
        wf.coeffs[wf.dofmap.interior_block(t)[0]] = value
    for e in range(mesh.n_edges):
        wf.coeffs[wf.dofmap.edge_block(e)[0]] = value
    return wf


def conforming_linear(mesh, a, b, c):
    """Continuous piecewise linear a*x + b*y + c as a weak function."""
    u = lambda x, y: a * x + b * y + c
    return l2_project_weak(u, mesh, 1)


def test_error_fields_zero_for_projection():
    mesh = build_uniform_mesh(2)
    u = lambda x, y: np.cos(x) * np.cos(y)
    wf = l2_project_weak(u, mesh, 1)
    e_h, e0 = error_fields(wf, u, mesh, 1)
    assert np.max(np.abs(e_h.coeffs)) <= 1e-13
    assert e0.l2_norm() <= 1e-13


def test_error_fields_lipschitz_in_coefficients():
    # perturbing one coefficient moves the norms at most proportionally
    mesh = build_uniform_mesh(2)
    u = lambda x, y: np.cos(x) * np.cos(y)
    wf = l2_project_weak(u, mesh, 1)
    _, base = error_fields(wf, u, mesh, 1)
    base_l2 = base.l2_norm()
    for delta in (1e-3, 1e-6):
        bumped = wf.copy()
        bumped.coeffs[0] += delta
        _, e0 = error_fields(bumped, u, mesh, 1)
        # the interior block carries basis functions of unit scale
        assert abs(e0.l2_norm() - base_l2) <= 2.0 * delta


def test_residual_norms_vanish_on_constants():
    mesh = build_uniform_mesh(2)
    config = classify_boundary(mesh, {"bottom"}, {"bottom"})
    wf = constant_weak_function(mesh, 1, 3.7)
    assert residual_norm_primal(wf, mesh, config) <= 1e-12
    assert residual_norm_multiplier(wf, mesh, config) <= 1e-12
    strong = strong_residual_norms(wf, mesh, config)
    assert max(strong) <= 1e-12


def test_divergence_term_vanishes_for_lowest_order():
    # k=1, constant coefficient: the weak gradient is piecewise constant
    mesh = build_uniform_mesh(2)
    config = classify_boundary(mesh, {"bottom"}, {"bottom"})
    rng = np.random.default_rng(11)
    wf = WeakFunction(mesh, 1, rng.standard_normal(WeakFunction(mesh, 1).dofmap.n_dofs))
    div_term, _, _ = residual_terms_primal(wf, mesh, config)
    assert abs(div_term) <= 1e-20


def test_divergence_term_nonzero_for_higher_order():
    mesh = build_uniform_mesh(2)
    config = classify_boundary(mesh, {"bottom"}, {"bottom"})
    rng = np.random.default_rng(12)
    wf = WeakFunction(mesh, 2, rng.standard_normal(WeakFunction(mesh, 2).dofmap.n_dofs))
    div_term, _, _ = residual_terms_primal(wf, mesh, config)
    assert div_term > 0.0


def test_decomposability_of_residual_norm():
    mesh = build_uniform_mesh(4)
    config = classify_boundary(mesh, {"bottom", "left"}, {"right", "top"})
    rng = np.random.default_rng(13)
    wf = WeakFunction(mesh, 1, rng.standard_normal(WeakFunction(mesh, 1).dofmap.n_dofs))
    terms = residual_terms_primal(wf, mesh, config)
    total = residual_norm_primal(wf, mesh, config)
    assert total**2 == pytest.approx(sum(terms), rel=1e-12)
    terms_m = residual_terms_multiplier(wf, mesh, config)
    assert residual_norm_multiplier(wf, mesh, config) ** 2 == pytest.approx(sum(terms_m), rel=1e-12)


def test_norm_scaling_homogeneity():
    mesh = build_uniform_mesh(2)
    config = classify_boundary(mesh, {"bottom"}, {"bottom"})
    rng = np.random.default_rng(14)
    wf = WeakFunction(mesh, 1, rng.standard_normal(WeakFunction(mesh, 1).dofmap.n_dofs))
    base = residual_norm_primal(wf, mesh, config)
    for c in (-3.0, 0.5, 7.25):
        scaled = residual_norm_primal(c * wf, mesh, config)
        assert scaled == pytest.approx(abs(c) * base, rel=1e-13)
    s_base = stabilizer_seminorm(wf, mesh)
    assert stabilizer_seminorm(-2.0 * wf, mesh) == pytest.approx(2 * s_base, rel=1e-13)


def test_jump_edge_sets_differ_between_fields():
    # the primal norm sums interior + Gamma_n edges, the multiplier norm
    # interior + (boundary minus Gamma_d): pick a config where they differ
    mesh = build_uniform_mesh(2)
    config = classify_boundary(mesh, {"bottom", "right", "left"}, {"bottom", "right", "top"})
    rng = np.random.default_rng(15)
    wf = WeakFunction(mesh, 1, rng.standard_normal(WeakFunction(mesh, 1).dofmap.n_dofs))
    _, jump_primal, _ = residual_terms_primal(wf, mesh, config)
    _, jump_mult, _ = residual_terms_multiplier(wf, mesh, config)
    assert jump_primal != pytest.approx(jump_mult, rel=1e-6)


def test_strong_equals_weak_for_conforming_linears():
    # for a continuous piecewise linear the weak gradient equals the
    # interior gradient, so strong and weak residual norms coincide
    mesh = build_uniform_mesh(2)
    config = classify_boundary(mesh, {"bottom"}, {"bottom"})
    wf = conforming_linear(mesh, 2.0, -1.0, 0.5)
    weak_p = residual_norm_primal(wf, mesh, config)
    weak_m = residual_norm_multiplier(wf, mesh, config)
    strong_p, strong_m = strong_residual_norms(wf, mesh, config)
    assert abs(weak_p - strong_p) <= 1e-12
    assert abs(weak_m - strong_m) <= 1e-12


def test_interior_field_evaluation():
    mesh = build_uniform_mesh(2)
    u = lambda x, y: 0.5 - x + 3 * y
    wf = l2_project_weak(u, mesh, 1)
    e0 = InteriorField(wf)
    for t in (1, 6):
        pts = mesh.tri_centroids[t][None, :]
        assert np.allclose(e0.value(t, pts), u(pts[:, 0], pts[:, 1]), atol=1e-12)
    # closed form: int (0.5 - x + 3y)^2 over the unit square = 37/12
    assert e0.l2_norm() == pytest.approx(math.sqrt(37 / 12), rel=1e-12)


def test_broken_h1_zero_for_piecewise_constant():
    mesh = build_uniform_mesh(2)
    wf = constant_weak_function(mesh, 1, 4.0)
    e0 = InteriorField(wf)
    assert broken_h1(e0, mesh) <= 1e-13


def test_broken_h1_linear_exact_value():
    # grad(2x - y) has norm sqrt(5) over the unit square
    mesh = build_uniform_mesh(3)
    wf = l2_project_weak(lambda x, y: 2 * x - y, mesh, 1)
    e0 = InteriorField(wf)
    assert broken_h1(e0, mesh) == pytest.approx(math.sqrt(5.0), rel=1e-12)


def test_stab_is_summand_of_residual():
    mesh = build_uniform_mesh(2)
    config = classify_boundary(mesh, {"bottom"}, {"bottom"})
    rng = np.random.default_rng(16)
    wf = WeakFunction(mesh, 1, rng.standard_normal(WeakFunction(mesh, 1).dofmap.n_dofs))
    resid = residual_norm_primal(wf, mesh, config)
    stab = stabilizer_seminorm(wf, mesh)
    assert resid**2 >= stab**2 - 1e-14


def test_norm_axioms_on_constrained_space():
    # the strong norm is definite on the subspace with zero edge values
    # on Gamma_d: the quadratic form over free dofs has trivial kernel
    for n in (1, 2):
        mesh = build_uniform_mesh(n)
        config = classify_boundary(mesh, {"bottom", "right", "left"}, {"bottom", "right", "top"})
        ops = LocalOperators(mesh, 1)
        wf = WeakFunction(mesh, 1)
        dm = wf.dofmap
        free = np.nonzero(~np.array([
            config.in_gamma_d[e] if d >= dm.n_interior else False
            for d, e in _dof_to_edge(dm)
        ]))[0]
        dim = len(free)
        gram = np.zeros((dim, dim))

        def norm2(vec):
            w = WeakFunction(mesh, 1, vec)
            return residual_norm_primal(w, mesh, config, ops=ops) ** 2

        for i in range(dim):
            for j in range(i, dim):
                ei = np.zeros(dm.n_dofs)
                ej = np.zeros(dm.n_dofs)
                ei[free[i]] = 1.0
                ej[free[j]] = 1.0
                val = 0.25 * (norm2(ei + ej) - norm2(ei - ej))
                gram[i, j] = gram[j, i] = val
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() > 1e-10


def _dof_to_edge(dm):
    """(dof index, owning edge) pairs; interior dofs get edge -1."""
    out = []
    for d in range(dm.n_interior):
        out.append((d, -1))
    for e in range(dm.mesh.n_edges):
        for d in dm.edge_block(e):
            out.append((d, e))
    out.sort()
    return out


def test_norm_equivalence_ratio_quick():
    # strong vs weak multiplier norm stays within a fixed band on random
    # multiplier-space fields (full check lives in the acceptance suite)
    case = get_case("t3")
    rng = np.random.default_rng(17)
    ratios = []
    for n in (2, 4, 8):
        mesh = build_uniform_mesh(n)
        config = classify_boundary(mesh, case.dirichlet_sides, case.neumann_sides)
        ops = LocalOperators(mesh, 1)
        dm = ops.dofmap
        for _ in range(5):
            coeffs = rng.standard_normal(dm.n_dofs)
            wf = WeakFunction(mesh, 1, coeffs)
            for e in config.gamma_n_complement_edges:
                wf.coeffs[dm.edge_block(e)] = 0.0
            weak = residual_norm_multiplier(wf, mesh, config, ops=ops)
            _, strong = strong_residual_norms(wf, mesh, config, ops=ops)
            ratios.append(strong / weak)
    assert 0.05 <= min(ratios) and max(ratios) <= 20.0


def loop_residual_pieces(v, mesh, a, ops, include_boundary):
    """Per-triangle and per-edge reference for the divergence and jump
    pieces: h_T^2 ||div(a G)||_T^2 summed over triangles, and
    w_e ||[a G . n]||_e^2 over interior and flagged boundary edges."""
    k, rule = v.k, ops.rule
    gamma = ops.gradient_coefficients(v)
    rbasis = element_basis(k - 1)
    div_total = 0.0
    for t in range(mesh.n_triangles):
        pts, wts = tri_quad(mesh, t, rule)
        vals = rbasis.eval(pts, mesh.tri_centroids[t], mesh.h_tri[t])
        grads = rbasis.grad(pts, mesh.tri_centroids[t], mesh.h_tri[t])
        gvals = vals @ gamma[t].T
        gder = np.einsum("jm,nmi->nij", gamma[t], grads)
        if a.is_matrix:
            div = np.einsum("ij,nij->n", a.const, gder)
        else:
            div = a.scalar_values(pts[:, 0], pts[:, 1]) * (gder[:, 0, 0] + gder[:, 1, 1])
            div += np.einsum("ni,ni->n", a.grad_values(pts[:, 0], pts[:, 1]), gvals)
        div_total += mesh.h_tri[t] ** 2 * float(wts @ div**2)
    jump_total = 0.0
    for e in range(mesh.n_edges):
        adj = mesh.edge_tris[e]
        if len(adj) == 1 and not include_boundary[e]:
            continue
        pts, wts, _ = edge_quad(mesh, e, rule)
        traces = []
        for t in adj:
            vals = rbasis.eval(pts, mesh.tri_centroids[t], mesh.h_tri[t])
            flux = a.flux(pts[:, 0], pts[:, 1], vals @ gamma[t].T)
            traces.append(flux @ mesh.edge_normals[e])
        jump = traces[0] if len(traces) == 1 else traces[0] - traces[1]
        jump_total += edge_weight(mesh, e) * float(wts @ jump**2)
    return div_total, jump_total


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("coefficient", ["identity", "variable", "matrix"])
def test_residual_pieces_match_loop_reference(k, coefficient):
    a = {
        "identity": IDENTITY,
        "variable": Diffusion(lambda x, y: 1.0 + x * y,
                              grad=lambda x, y: np.column_stack([y, x])),
        "matrix": Diffusion([[2.0, 0.5], [0.5, 1.0]]),
    }[coefficient]
    mesh = build_uniform_mesh(3)
    config = classify_boundary(mesh, {"bottom", "left"}, {"bottom", "top"})
    ops = LocalOperators(mesh, k, a)
    rng = np.random.default_rng(11)
    wf = WeakFunction(mesh, k, rng.standard_normal(ops.dofmap.n_dofs))
    multiplier_set = mesh.is_boundary_edge & ~config.in_gamma_d
    for terms, include in (
        (residual_terms_primal(wf, mesh, config, a, ops=ops), config.in_gamma_n),
        (residual_terms_multiplier(wf, mesh, config, a, ops=ops), multiplier_set),
    ):
        div, jump = loop_residual_pieces(wf, mesh, a, ops, include)
        assert terms[0] == pytest.approx(div, rel=1e-12)
        assert terms[1] == pytest.approx(jump, rel=1e-12)


def test_error_report_fields_consistent(monkeypatch):
    case = get_case("t6")
    mesh = build_uniform_mesh(4)
    config = classify_boundary(mesh, case.dirichlet_sides, case.neumann_sides)
    ops = LocalOperators(mesh, 1, case.a)
    u_h, lam_h = solve(assemble(mesh, config, case, 1, ops=ops))
    jump_calls = []
    jump_term = norms._jump_term

    def counted_jump_term(*args):
        jump_calls.append(args)
        return jump_term(*args)

    monkeypatch.setattr(norms, "_jump_term", counted_jump_term)
    report = error_report(u_h, lam_h, case.u, mesh, config, case.a, ops=ops)
    # the two weak residual norms, nothing computed and thrown away
    assert len(jump_calls) == 2
    assert report.l2_e0 >= 0 and report.h1_e0 >= 0
    assert report.resid_u**2 >= report.stab_u**2 - 1e-14
    e_h, e0 = error_fields(u_h, case.u, mesh, 1)
    assert report.l2_e0 == pytest.approx(e0.l2_norm(), rel=1e-12)
    assert report.resid_u == pytest.approx(
        residual_norm_primal(e_h, mesh, config, case.a, ops=ops), rel=1e-12
    )
    # the strong norms come from strong_residual_norms alone
    strong_u = strong_residual_norms(e_h, mesh, config, ops=ops)[0]
    strong_lambda = strong_residual_norms(lam_h, mesh, config, ops=ops)[1]
    assert 0 < strong_u < math.inf and 0 < strong_lambda < math.inf


def test_degree_mismatch_rejected():
    mesh = build_uniform_mesh(1)
    config = classify_boundary(mesh, {"bottom"}, {"bottom"})
    wf = WeakFunction(mesh, 1)
    with pytest.raises(ValueError):
        residual_norm_primal(wf, mesh, config, IDENTITY, k=2)
    # a weak function of another mesh object is refused, not read through this one
    other = WeakFunction(build_uniform_mesh(1), 1)
    for functional in (
        lambda v: residual_norm_primal(v, mesh, config),
        lambda v: residual_norm_multiplier(v, mesh, config),
        lambda v: strong_residual_norms(v, mesh, config),
        lambda v: stabilizer_seminorm(v, mesh),
        lambda v: error_fields(v, lambda x, y: x, mesh),
        lambda v: broken_h1(InteriorField(v), mesh),
        lambda v: error_report(v, wf, lambda x, y: x, mesh, config),
        lambda v: error_report(wf, v, lambda x, y: x, mesh, config),
    ):
        with pytest.raises(ValueError, match="mesh"):
            functional(other)
