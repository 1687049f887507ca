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
from pdwg.mesh import build_uniform_mesh, classify_boundary
from pdwg.norms import (
    broken_h1,
    error_fields,
    error_report,
    interior_l2_norm,
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
    return l2_project_weak(u, LocalOperators(mesh, 1))


def test_error_fields_zero_for_projection():
    mesh = build_uniform_mesh(2)
    ops = LocalOperators(mesh, 1)
    u = lambda x, y: np.cos(x) * np.cos(y)
    wf = l2_project_weak(u, ops)
    e_h = error_fields(wf, u, ops)
    assert np.max(np.abs(e_h.coeffs)) <= 1e-13
    assert interior_l2_norm(e_h, ops) <= 1e-13


def test_error_fields_lipschitz_in_coefficients():
    # perturbing one coefficient moves the norms at most proportionally
    mesh = build_uniform_mesh(2)
    ops = LocalOperators(mesh, 1)
    u = lambda x, y: np.cos(x) * np.cos(y)
    wf = l2_project_weak(u, ops)
    base_l2 = interior_l2_norm(error_fields(wf, u, ops), ops)
    for delta in (1e-3, 1e-6):
        bumped = wf.copy()
        bumped.coeffs[0] += delta
        e_h = error_fields(bumped, u, ops)
        # the interior block carries basis functions of unit scale
        assert abs(interior_l2_norm(e_h, ops) - base_l2) <= 2.0 * delta


def test_residual_norms_vanish_on_constants():
    mesh = build_uniform_mesh(2)
    config = classify_boundary(mesh, {"bottom"}, {"bottom"})
    ops = LocalOperators(mesh, 1)
    wf = constant_weak_function(mesh, 1, 3.7)
    assert residual_norm_primal(wf, config, ops) <= 1e-12
    assert residual_norm_multiplier(wf, config, ops) <= 1e-12
    strong = strong_residual_norms(wf, config, ops)
    assert max(strong) <= 1e-12


def test_divergence_term_vanishes_for_lowest_order():
    # k=1, constant coefficient: the weak gradient is piecewise constant
    mesh = build_uniform_mesh(2)
    config = classify_boundary(mesh, {"bottom"}, {"bottom"})
    rng = np.random.default_rng(11)
    wf = WeakFunction(mesh, 1, rng.standard_normal(WeakFunction(mesh, 1).dofmap.n_dofs))
    div_term, _, _ = residual_terms_primal(wf, config, LocalOperators(mesh, 1))
    assert abs(div_term) <= 1e-20


def test_divergence_term_nonzero_for_higher_order():
    mesh = build_uniform_mesh(2)
    config = classify_boundary(mesh, {"bottom"}, {"bottom"})
    rng = np.random.default_rng(12)
    wf = WeakFunction(mesh, 2, rng.standard_normal(WeakFunction(mesh, 2).dofmap.n_dofs))
    div_term, _, _ = residual_terms_primal(wf, config, LocalOperators(mesh, 2))
    assert div_term > 0.0


def test_decomposability_of_residual_norm():
    mesh = build_uniform_mesh(4)
    config = classify_boundary(mesh, {"bottom", "left"}, {"right", "top"})
    rng = np.random.default_rng(13)
    wf = WeakFunction(mesh, 1, rng.standard_normal(WeakFunction(mesh, 1).dofmap.n_dofs))
    ops = LocalOperators(mesh, 1)
    terms = residual_terms_primal(wf, config, ops)
    total = residual_norm_primal(wf, config, ops)
    assert total**2 == pytest.approx(sum(terms), rel=1e-12)
    terms_m = residual_terms_multiplier(wf, config, ops)
    assert residual_norm_multiplier(wf, config, ops) ** 2 == pytest.approx(sum(terms_m), rel=1e-12)


def test_norm_scaling_homogeneity():
    mesh = build_uniform_mesh(2)
    config = classify_boundary(mesh, {"bottom"}, {"bottom"})
    rng = np.random.default_rng(14)
    wf = WeakFunction(mesh, 1, rng.standard_normal(WeakFunction(mesh, 1).dofmap.n_dofs))
    ops = LocalOperators(mesh, 1)
    base = residual_norm_primal(wf, config, ops)
    for c in (-3.0, 0.5, 7.25):
        scaled = residual_norm_primal(c * wf, config, ops)
        assert scaled == pytest.approx(abs(c) * base, rel=1e-13)
    s_base = stabilizer_seminorm(wf, ops)
    assert stabilizer_seminorm(-2.0 * wf, ops) == pytest.approx(2 * s_base, rel=1e-13)


def test_jump_edge_sets_differ_between_fields():
    # the primal norm sums interior + Gamma_n edges, the multiplier norm
    # interior + (boundary minus Gamma_d): pick a config where they differ
    mesh = build_uniform_mesh(2)
    config = classify_boundary(mesh, {"bottom", "right", "left"}, {"bottom", "right", "top"})
    rng = np.random.default_rng(15)
    wf = WeakFunction(mesh, 1, rng.standard_normal(WeakFunction(mesh, 1).dofmap.n_dofs))
    ops = LocalOperators(mesh, 1)
    _, jump_primal, _ = residual_terms_primal(wf, config, ops)
    _, jump_mult, _ = residual_terms_multiplier(wf, config, ops)
    assert jump_primal != pytest.approx(jump_mult, rel=1e-6)


def test_strong_equals_weak_for_conforming_linears():
    # for a continuous piecewise linear the weak gradient equals the
    # interior gradient, so strong and weak residual norms coincide
    mesh = build_uniform_mesh(2)
    config = classify_boundary(mesh, {"bottom"}, {"bottom"})
    ops = LocalOperators(mesh, 1)
    wf = conforming_linear(mesh, 2.0, -1.0, 0.5)
    weak_p = residual_norm_primal(wf, config, ops)
    weak_m = residual_norm_multiplier(wf, config, ops)
    strong_p, strong_m = strong_residual_norms(wf, config, ops)
    assert abs(weak_p - strong_p) <= 1e-12
    assert abs(weak_m - strong_m) <= 1e-12


def test_interior_field_evaluation():
    mesh = build_uniform_mesh(2)
    ops = LocalOperators(mesh, 1)
    u = lambda x, y: 0.5 - x + 3 * y
    wf = l2_project_weak(u, ops)
    for t in (1, 6):
        pts = mesh.tri_centroids[t][None, :]
        vals = element_basis(1).eval((pts - mesh.tri_centroids[t]) / mesh.h_tri[t])
        assert np.allclose(vals @ wf.interior_coeffs(t), u(pts[:, 0], pts[:, 1]), atol=1e-12)
    # closed form: int (0.5 - x + 3y)^2 over the unit square = 37/12
    assert interior_l2_norm(wf, ops) == pytest.approx(math.sqrt(37 / 12), rel=1e-12)


def test_broken_h1_zero_for_piecewise_constant():
    mesh = build_uniform_mesh(2)
    wf = constant_weak_function(mesh, 1, 4.0)
    assert broken_h1(wf, LocalOperators(mesh, 1)) <= 1e-13


def test_broken_h1_linear_exact_value():
    # grad(2x - y) has norm sqrt(5) over the unit square
    mesh = build_uniform_mesh(3)
    ops = LocalOperators(mesh, 1)
    wf = l2_project_weak(lambda x, y: 2 * x - y, ops)
    assert broken_h1(wf, ops) == pytest.approx(math.sqrt(5.0), rel=1e-12)


def test_stab_is_summand_of_residual():
    mesh = build_uniform_mesh(2)
    config = classify_boundary(mesh, {"bottom"}, {"bottom"})
    rng = np.random.default_rng(16)
    wf = WeakFunction(mesh, 1, rng.standard_normal(WeakFunction(mesh, 1).dofmap.n_dofs))
    ops = LocalOperators(mesh, 1)
    resid = residual_norm_primal(wf, config, ops)
    stab = stabilizer_seminorm(wf, ops)
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
            return residual_norm_primal(w, config, ops) ** 2

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
            for e in np.flatnonzero(mesh.is_boundary_edge & ~config.in_gamma_n):
                wf.coeffs[dm.edge_block(e)] = 0.0
            weak = residual_norm_multiplier(wf, config, ops)
            _, strong = strong_residual_norms(wf, config, ops)
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
        vals = rbasis.eval((pts - mesh.tri_centroids[t]) / mesh.h_tri[t])
        grads = rbasis.grad((pts - mesh.tri_centroids[t]) / mesh.h_tri[t], mesh.h_tri[t])
        gvals = vals @ gamma[t].T
        gder = np.einsum("jm,nmi->nij", gamma[t], grads)
        div = np.einsum("nij,nij->n", a.tensor(pts[:, 0], pts[:, 1]), gder)
        div += np.einsum("nj,nj->n", a.divergence(pts[:, 0], pts[:, 1]), gvals)
        div_total += mesh.h_tri[t] ** 2 * float(wts @ div**2)
    jump_total = 0.0
    for e in range(mesh.n_edges):
        adj = np.unique(mesh.edge_slots[e] // 3)
        if len(adj) == 1 and not include_boundary[e]:
            continue
        pts, wts, _ = edge_quad(mesh, e, rule)
        traces = []
        for t in adj:
            vals = rbasis.eval((pts - mesh.tri_centroids[t]) / mesh.h_tri[t])
            flux = a.flux(pts[:, 0], pts[:, 1], vals @ gamma[t].T)
            traces.append(flux @ mesh.edge_normals[e])
        jump = traces[0] if len(traces) == 1 else traces[0] - traces[1]
        jump_total += mesh.h_tri[adj].max() * float(wts @ jump**2)
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
        (residual_terms_primal(wf, config, ops), config.in_gamma_n),
        (residual_terms_multiplier(wf, config, ops), multiplier_set),
    ):
        div, jump = loop_residual_pieces(wf, mesh, a, ops, include)
        assert terms[0] == pytest.approx(div, rel=1e-12)
        assert terms[1] == pytest.approx(jump, rel=1e-12)


FLUX_COEFFICIENTS = {
    "identity": IDENTITY,
    "matrix": Diffusion([[2.0, 0.5], [0.5, 1.0]]),
    "variable": Diffusion(lambda x, y: 1.0 + x * y, grad=lambda x, y: np.column_stack([y, x])),
    # a = I everywhere with a divergence that varies: triangles of equal
    # kernel inputs then differ in the divergence samples alone
    "divergence only": Diffusion(lambda x, y: np.ones_like(x),
                                 grad=lambda x, y: np.column_stack([x, y])),
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("coefficient", sorted(FLUX_COEFFICIENTS))
def test_flux_divergence_map_is_the_all_triangle_map_bit_for_bit(k, coefficient):
    # _flux_maps computes the a . grad part of the divergence map on one
    # triangle per group of byte-equal kernel inputs, gathers it, and adds
    # the divergence samples of a callable coefficient per triangle
    ops = LocalOperators(build_uniform_mesh(8), k, FLUX_COEFFICIENTS[coefficient])
    nt, nq = ops.tri_wts.shape
    x, y = ops.tri_pts.reshape(-1, 2).T
    tensor = ops.a.tensor(x, y).reshape(nt, nq, 2, 2)
    gr, vr = ops.group_gr[ops.input_groups], ops.group_vr[ops.input_groups]
    want = tensor[:, :, 0, :, None] * gr[:, :, None, :, 0]
    want += tensor[:, :, 1, :, None] * gr[:, :, None, :, 1]
    want += ops.a.divergence(x, y).reshape(nt, nq, 2, 1) * vr[:, :, None, :]
    div = norms._flux_maps(ops)[0]
    assert div.tobytes() == want.reshape(nt, nq, -1).tobytes()


def test_error_report_fields_consistent(monkeypatch):
    case = get_case("t6")
    mesh = build_uniform_mesh(4)
    config = classify_boundary(mesh, case.dirichlet_sides, case.neumann_sides)
    ops = LocalOperators(mesh, 1, case.a)
    u_h, lam_h = solve(assemble(config, case, ops))
    map_calls, stab_calls = [], []
    flux_maps = norms._flux_maps

    def counted_flux_maps(*args):
        map_calls.append(args)
        return flux_maps(*args)

    stabilizer_value = LocalOperators.stabilizer_value

    def counted_stabilizer_value(*args):
        stab_calls.append(args)
        return stabilizer_value(*args)

    monkeypatch.setattr(norms, "_flux_maps", counted_flux_maps)
    monkeypatch.setattr(LocalOperators, "stabilizer_value", counted_stabilizer_value)
    report = error_report(u_h, lam_h, case.u, config, ops)
    # the two weak residual norms, nothing computed and thrown away: both
    # read one set of flux maps, and stab_u is the root of resid_u's
    # stabilizer piece, s(e_h, e_h) read once
    assert len(map_calls) == 1 and len(stab_calls) == 2
    assert report.l2_e0 >= 0 and report.h1_e0 >= 0
    assert report.resid_u**2 >= report.stab_u**2 - 1e-14
    e_h = error_fields(u_h, case.u, ops)
    # bit for bit the root of the piece, and so stabilizer_seminorm's value
    stab_piece = residual_terms_primal(e_h, config, ops)[2]
    assert report.stab_u == math.sqrt(stab_piece) == stabilizer_seminorm(e_h, ops)
    assert report.l2_e0 == pytest.approx(interior_l2_norm(e_h, ops), rel=1e-12)
    assert report.resid_u == pytest.approx(residual_norm_primal(e_h, config, ops), rel=1e-12)
    # the strong norms come from strong_residual_norms alone
    strong_u = strong_residual_norms(e_h, config, ops)[0]
    strong_lambda = strong_residual_norms(lam_h, config, ops)[1]
    assert 0 < strong_u < math.inf and 0 < strong_lambda < math.inf


def test_degree_mismatch_rejected():
    # a weak function of another degree or of another mesh object is
    # refused, not read through this level's context
    mesh = build_uniform_mesh(1)
    config = classify_boundary(mesh, {"bottom"}, {"bottom"})
    ops = LocalOperators(mesh, 1)
    wf = WeakFunction(mesh, 1)
    exact = lambda x, y: x
    functionals = (
        lambda v: error_fields(v, exact, ops),
        lambda v: interior_l2_norm(v, ops),
        lambda v: broken_h1(v, ops),
        lambda v: stabilizer_seminorm(v, ops),
        lambda v: residual_terms_primal(v, config, ops),
        lambda v: residual_norm_primal(v, config, ops),
        lambda v: residual_terms_multiplier(v, config, ops),
        lambda v: residual_norm_multiplier(v, config, ops),
        lambda v: strong_residual_norms(v, config, ops),
        lambda v: error_report(v, wf, exact, config, ops),
        lambda v: error_report(wf, v, exact, config, ops),
    )
    for functional in functionals:
        functional(wf)
    for other, what in ((WeakFunction(mesh, 2), "degree"),
                        (WeakFunction(build_uniform_mesh(1), 1), "mesh")):
        for functional in functionals:
            with pytest.raises(ValueError, match=what):
                functional(other)


def test_config_of_another_mesh_rejected():
    # a boundary configuration is read through the context's mesh: one of
    # another mesh object is refused by name, whether that mesh has the
    # context's size (its flags would be read silently) or another one
    # (its flags would not broadcast)
    mesh = build_uniform_mesh(2)
    ops = LocalOperators(mesh, 1)
    wf = l2_project_weak(lambda x, y: x * y, ops)
    exact = lambda x, y: x
    functionals = (
        lambda c: residual_terms_primal(wf, c, ops),
        lambda c: residual_norm_primal(wf, c, ops),
        lambda c: residual_terms_multiplier(wf, c, ops),
        lambda c: residual_norm_multiplier(wf, c, ops),
        lambda c: strong_residual_norms(wf, c, ops),
        lambda c: error_report(wf, wf, exact, c, ops),
    )
    for functional in functionals:
        functional(classify_boundary(mesh, {"left"}, {"left"}))
    for n in (2, 4):
        other = classify_boundary(build_uniform_mesh(n), {"left"}, {"left"})
        for functional in functionals:
            with pytest.raises(ValueError, match="another mesh"):
                functional(other)
