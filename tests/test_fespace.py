import math

import numpy as np
import pytest

from pdwg.fespace import (
    DofMap,
    EdgeBasis,
    ElementBasis,
    WeakFunction,
    dim_pk,
    edge_basis,
    edge_quad,
    element_basis,
    gram,
    gradient_coefficient_maps,
    l2_project_edge,
    l2_project_element,
    l2_project_vector,
    l2_project_weak,
    quadrature_for_degree,
    tri_quad,
)
from pdwg.mesh import build_uniform_mesh, classify_boundary
from pdwg.weakops import LocalOperators


def reference_tri_integral(p, q):
    # closed form: int_T xi^p eta^q = p! q! / (p+q+2)!
    return math.factorial(p) * math.factorial(q) / math.factorial(p + q + 2)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_triangle_quadrature_exactness(k):
    rule = quadrature_for_degree(k)
    assert rule.tri_degree >= 2 * k + 4
    assert np.all(rule.tri_weights > 0)
    assert abs(rule.tri_weights.sum() - 0.5) < 1e-14
    xi = rule.tri_points[:, 0]
    eta = rule.tri_points[:, 1]
    for p in range(rule.tri_degree + 1):
        for q in range(rule.tri_degree + 1 - p):
            num = rule.tri_weights @ (xi**p * eta**q)
            exact = reference_tri_integral(p, q)
            assert abs(num - exact) <= 1e-13 * abs(exact)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_edge_quadrature_exactness(k):
    rule = quadrature_for_degree(k)
    assert rule.edge_degree >= 2 * k + 5
    assert np.all(rule.edge_weights > 0)
    for m in range(rule.edge_degree + 1):
        num = rule.edge_weights @ rule.edge_points**m
        exact = (0.5 ** (m + 1) - (-0.5) ** (m + 1)) / (m + 1)
        if exact == 0.0:
            assert abs(num) < 1e-15
        else:
            assert abs(num - exact) <= 1e-13 * abs(exact)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_local_mass_spd_and_uniformly_conditioned(k):
    conds = []
    for n in (1, 4, 16):
        mesh = build_uniform_mesh(n)
        mass = LocalOperators(mesh, k).mass_k[0]
        np.linalg.cholesky(mass)  # SPD
        conds.append(np.linalg.cond(mass))
    # scaled monomials: congruent triangles give the same condition number
    assert max(conds) <= 1.01 * min(conds)


def test_edge_mass_spd():
    mesh = build_uniform_mesh(2)
    for e in (0, 3):
        _, wts, tc = edge_quad(mesh, e, quadrature_for_degree(2))
        np.linalg.cholesky(gram(edge_basis(2).eval(tc), wts))


def test_project_element_identity_on_subspace():
    mesh = build_uniform_mesh(2)
    basis = element_basis(1)
    t = 3
    target = np.array([0.7, -1.3, 2.1])

    def f(x, y):
        pts = np.column_stack([x, y])
        return basis.eval(pts, mesh.tri_centroids[t], mesh.h_tri[t]) @ target

    coeffs = l2_project_element(f, LocalOperators(mesh, 1), t)
    assert np.max(np.abs(coeffs - target)) <= 1e-12


def test_project_element_linear_exactness_everywhere():
    # u = 1+x+y is reproduced exactly on every triangle
    mesh = build_uniform_mesh(3)
    ops, rule = LocalOperators(mesh, 1), quadrature_for_degree(1)
    for t in range(mesh.n_triangles):
        coeffs = l2_project_element(lambda x, y: 1 + x + y, ops, t)
        pts, _ = tri_quad(mesh, t, rule)
        vals = element_basis(1).eval(pts, mesh.tri_centroids[t], mesh.h_tri[t]) @ coeffs
        assert np.max(np.abs(vals - (1 + pts[:, 0] + pts[:, 1]))) <= 1e-12


def projection_l2_error(u, mesh, k, rule):
    err2 = 0.0
    basis, ops = element_basis(k), LocalOperators(mesh, k)
    for t in range(mesh.n_triangles):
        coeffs = l2_project_element(u, ops, t)
        pts, wts = tri_quad(mesh, t, rule)
        vals = basis.eval(pts, mesh.tri_centroids[t], mesh.h_tri[t]) @ coeffs
        err2 += wts @ (vals - u(pts[:, 0], pts[:, 1])) ** 2
    return math.sqrt(err2)


def test_project_element_second_order_rate():
    # halving h quarters the L2 projection error of a smooth function
    u = lambda x, y: np.cos(x) * np.cos(y)
    rule = quadrature_for_degree(1)
    errs = [projection_l2_error(u, build_uniform_mesh(n), 1, rule) for n in (4, 8, 16)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.5 <= coarse / fine <= 4.5


def test_project_edge_linear_exact():
    mesh = build_uniform_mesh(2)
    ops, rule = LocalOperators(mesh, 1), quadrature_for_degree(1)
    for e in range(mesh.n_edges):
        coeffs = l2_project_edge(lambda x, y: 2 - x + 3 * y, ops, e)
        pts, _, tc = edge_quad(mesh, e, rule)
        vals = edge_basis(1).eval(tc) @ coeffs
        assert np.max(np.abs(vals - (2 - pts[:, 0] + 3 * pts[:, 1]))) <= 1e-12


def test_project_edge_orthogonality_bottom_edge():
    # residual of sin(pi x) on a bottom edge is orthogonal to the edge space
    mesh = build_uniform_mesh(4)
    ops, rule = LocalOperators(mesh, 1), quadrature_for_degree(1)
    bottom = [e for e in mesh.boundary_edges if abs(mesh.edge_midpoints[e][1]) < 1e-12]
    f = lambda x, y: np.sin(np.pi * x)
    for e in bottom:
        coeffs = l2_project_edge(f, ops, e)
        pts, wts, tc = edge_quad(mesh, e, rule)
        resid = f(pts[:, 0], pts[:, 1]) - edge_basis(1).eval(tc) @ coeffs
        for m in range(2):
            assert abs(wts @ (resid * tc**m)) <= 1e-12


def test_orthogonality_property_element():
    # (f - Q_0 f, p)_T = 0 for all basis p, for a generic smooth f
    mesh = build_uniform_mesh(2)
    ops, rule = LocalOperators(mesh, 2), quadrature_for_degree(2)
    f = lambda x, y: np.exp(x) * np.sin(1 + y)
    for t in (0, 5):
        coeffs = l2_project_element(f, ops, t)
        pts, wts = tri_quad(mesh, t, rule)
        vals = element_basis(2).eval(pts, mesh.tri_centroids[t], mesh.h_tri[t])
        resid = f(pts[:, 0], pts[:, 1]) - vals @ coeffs
        fnorm = math.sqrt(wts @ f(pts[:, 0], pts[:, 1]) ** 2)
        for m in range(vals.shape[1]):
            pnorm = math.sqrt(wts @ vals[:, m] ** 2)
            assert abs(wts @ (resid * vals[:, m])) <= 1e-11 * fnorm * pnorm


@pytest.mark.parametrize("k", [1, 2])
def test_projection_idempotence(k):
    mesh = build_uniform_mesh(2)
    ops = LocalOperators(mesh, k)
    f = lambda x, y: np.cos(2 * x) + y**2
    for t in (1, 4):
        once = l2_project_element(f, ops, t)

        def via_coeffs(x, y, t=t, c=once):
            pts = np.column_stack([x, y])
            return element_basis(k).eval(pts, mesh.tri_centroids[t], mesh.h_tri[t]) @ c

        twice = l2_project_element(via_coeffs, ops, t)
        assert np.max(np.abs(twice - once)) <= 1e-13 * max(1.0, np.max(np.abs(once)))
    for e in (0, 7):
        once = l2_project_edge(f, ops, e)

        def via_edge(x, y, e=e, c=once):
            lo, hi = mesh.edges[e]
            d = mesh.vertices[hi] - mesh.vertices[lo]
            t_coord = ((np.column_stack([x, y]) - mesh.edge_midpoints[e]) @ d) / (
                mesh.edge_lengths[e] ** 2
            )
            return edge_basis(k).eval(t_coord) @ c

        twice = l2_project_edge(via_edge, ops, e)
        assert np.max(np.abs(twice - once)) <= 1e-13 * max(1.0, np.max(np.abs(once)))


def test_project_weak_constant():
    mesh = build_uniform_mesh(2)
    wf = l2_project_weak(lambda x, y: np.ones_like(x), LocalOperators(mesh, 1))
    for t in range(mesh.n_triangles):
        assert np.allclose(wf.interior_coeffs(t), [1.0, 0.0, 0.0], atol=1e-13)
    for e in range(mesh.n_edges):
        assert np.allclose(wf.edge_coeffs(e), [1.0, 0.0], atol=1e-13)


def test_project_weak_interior_matches_elementwise():
    # each block of Q_h u against its own projection: the rule's points on
    # one triangle or edge at a time, the basis there and one Gram solve
    mesh = build_uniform_mesh(2)
    u = lambda x, y: 30 * x * y * (1 - x) * (1 - y)
    for k in (1, 2, 3):
        rule = quadrature_for_degree(k)
        wf = l2_project_weak(u, LocalOperators(mesh, k))
        for t in range(mesh.n_triangles):
            pts, wts = tri_quad(mesh, t, rule)
            vals = element_basis(k).eval(pts, mesh.tri_centroids[t], mesh.h_tri[t])
            want = np.linalg.solve(gram(vals, wts), vals.T @ (wts * u(pts[:, 0], pts[:, 1])))
            assert np.allclose(wf.interior_coeffs(t), want, rtol=0.0, atol=1e-13)
        for e in range(mesh.n_edges):
            pts, wts, tc = edge_quad(mesh, e, rule)
            vals = edge_basis(k).eval(tc)
            want = np.linalg.solve(gram(vals, wts), vals.T @ (wts * u(pts[:, 0], pts[:, 1])))
            assert np.allclose(wf.edge_coeffs(e), want, rtol=0.0, atol=1e-13)


def test_project_vector_constant_exact():
    mesh = build_uniform_mesh(2)
    out = l2_project_vector(lambda x, y: (np.full_like(x, 2.0), np.full_like(x, -3.0)),
                            LocalOperators(mesh, 1))
    assert out.shape == (8, 2, 1)
    assert np.allclose(out[:, 0, 0], 2.0, atol=1e-13)
    assert np.allclose(out[:, 1, 0], -3.0, atol=1e-13)


def test_project_vector_constant_gradient_exact():
    # gradient of 1+x+y projects exactly for any k
    mesh = build_uniform_mesh(2)
    for k in (1, 2):
        out = l2_project_vector(lambda x, y: (np.ones_like(x), np.ones_like(x)),
                                LocalOperators(mesh, k))
        assert np.allclose(out[:, :, 0], 1.0, atol=1e-13)
        if out.shape[2] > 1:
            assert np.max(np.abs(out[:, :, 1:])) <= 1e-13


def vector_projection_error(q, mesh, k, rule):
    err2 = 0.0
    basis = element_basis(k - 1)
    coeffs = l2_project_vector(q, LocalOperators(mesh, k))
    for t in range(mesh.n_triangles):
        pts, wts = tri_quad(mesh, t, rule)
        vals = basis.eval(pts, mesh.tri_centroids[t], mesh.h_tri[t])
        qx, qy = q(pts[:, 0], pts[:, 1])
        err2 += wts @ ((vals @ coeffs[t, 0] - qx) ** 2 + (vals @ coeffs[t, 1] - qy) ** 2)
    return math.sqrt(err2)


def test_project_vector_first_order_rate():
    # q = grad(cos x cos y), k=1: error decays like h
    q = lambda x, y: (-np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y))
    rule = quadrature_for_degree(1)
    errs = [vector_projection_error(q, build_uniform_mesh(n), 1, rule) for n in (4, 8, 16)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 1.8 <= coarse / fine <= 2.2


@pytest.mark.parametrize("k", [1, 2, 3])
def test_dofmap_blocks_disjoint_and_cover(k):
    mesh = build_uniform_mesh(2)
    dm = DofMap(mesh, k)
    seen = np.zeros(dm.n_dofs, dtype=int)
    for t in range(mesh.n_triangles):
        seen[dm.interior_block(t)] += 1
    for e in range(mesh.n_edges):
        seen[dm.edge_block(e)] += 1
    assert np.all(seen == 1)
    assert dm.n_dofs == mesh.n_triangles * dim_pk(k) + mesh.n_edges * (k + 1)


def test_dofmap_fixed_status():
    mesh = build_uniform_mesh(2)
    config = classify_boundary(mesh, {"bottom"}, {"bottom"})
    dm = DofMap(mesh, 1)
    u_fixed, lam_fixed = dm.fixed_masks(config)
    # interior (v_0) dofs are never fixed
    assert not np.any(u_fixed[: dm.n_interior])
    assert not np.any(lam_fixed[: dm.n_interior])
    for e in range(mesh.n_edges):
        blk = dm.edge_block(e)
        assert np.all(u_fixed[blk] == config.in_gamma_d[e])
        expected_lam = bool(mesh.is_boundary_edge[e] and not config.in_gamma_n[e])
        assert np.all(lam_fixed[blk] == expected_lam)
    assert not u_fixed.flags.writeable and not lam_fixed.flags.writeable


def test_dofmap_rejects_unsupported_degree():
    mesh = build_uniform_mesh(1)
    with pytest.raises(ValueError):
        DofMap(mesh, 4)


@pytest.mark.parametrize("basis", [ElementBasis, EdgeBasis])
def test_basis_rejects_negative_degree(basis):
    with pytest.raises(ValueError, match="nonnegative"):
        basis(-1)


def test_weak_function_layout_and_arithmetic():
    mesh = build_uniform_mesh(2)
    wf = WeakFunction(mesh, 1)
    assert wf.coeffs.shape == (wf.dofmap.n_dofs,)
    with pytest.raises(ValueError):
        WeakFunction(mesh, 1, np.zeros(3))
    rng = np.random.default_rng(0)
    a = WeakFunction(mesh, 1, rng.standard_normal(wf.dofmap.n_dofs))
    b = WeakFunction(mesh, 1, rng.standard_normal(wf.dofmap.n_dofs))
    assert np.allclose((a - b).coeffs, a.coeffs - b.coeffs)
    assert np.allclose((a + b).coeffs, a.coeffs + b.coeffs)
    for other in (WeakFunction(mesh, 2), WeakFunction(build_uniform_mesh(2), 1)):
        with pytest.raises(ValueError, match="incompatible"):
            a + other
    assert np.allclose((2.0 * a).coeffs, 2.0 * a.coeffs)
    loc = a.local_coeffs(3)
    assert loc.shape == (3 + 3 * 2,)
    assert np.allclose(loc[:3], a.interior_coeffs(3))


def test_weak_function_evaluation_views():
    # interior and edge views reproduce the projected function pointwise
    mesh = build_uniform_mesh(2)
    u = lambda x, y: 1 + 2 * x - y
    wf = l2_project_weak(u, LocalOperators(mesh, 1))
    for t in (0, 5):
        pts = mesh.tri_centroids[t] + np.array([[0.0, 0.0], [0.02, -0.01]])
        vals = element_basis(1).eval(pts, mesh.tri_centroids[t], mesh.h_tri[t])
        assert np.allclose(vals @ wf.interior_coeffs(t), u(pts[:, 0], pts[:, 1]), atol=1e-12)
    for e in (0, 4):
        tc = np.array([-0.3, 0.0, 0.25])
        lo, hi = mesh.edges[e]
        pts = mesh.edge_midpoints[e] + np.outer(tc, mesh.vertices[hi] - mesh.vertices[lo])
        vals = edge_basis(1).eval(tc)
        assert np.allclose(vals @ wf.edge_coeffs(e), u(pts[:, 0], pts[:, 1]), atol=1e-12)


def test_gradient_coefficient_maps_against_finite_differences():
    mesh = build_uniform_mesh(2)
    t = 2
    scale = mesh.h_tri[t]
    center = mesh.tri_centroids[t]
    rng = np.random.default_rng(1)
    c = rng.standard_normal(dim_pk(2))
    dx, dy = gradient_coefficient_maps(2, scale)
    pts = mesh.tri_centroids[t] + rng.uniform(-0.05, 0.05, (5, 2))
    h = 1e-6
    b2 = element_basis(2)
    b1 = element_basis(1)
    fd_x = (b2.eval(pts + [h, 0], center, scale) - b2.eval(pts - [h, 0], center, scale)) @ c / (2 * h)
    fd_y = (b2.eval(pts + [0, h], center, scale) - b2.eval(pts - [0, h], center, scale)) @ c / (2 * h)
    assert np.max(np.abs(b1.eval(pts, center, scale) @ (dx @ c) - fd_x)) < 1e-8
    assert np.max(np.abs(b1.eval(pts, center, scale) @ (dy @ c) - fd_y)) < 1e-8


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("kind", ["uniform", "jittered"])
def test_basis_table_is_the_all_pow_table_bit_for_bit(k, kind):
    # ElementBasis.eval takes Z^1 = Z and libm's pow for the higher powers,
    # which is the table Z**P with the exponents P = 1..k, bit for bit, at
    # the triangle and edge points of a level and at a single point.  At
    # k = 2 numpy squares a broadcast exponent 2 instead, and the square
    # differs from pow in the last bit at some of these points
    from test_weakops import jittered_mesh

    mesh = build_uniform_mesh(8) if kind == "uniform" else jittered_mesh()
    rule = quadrature_for_degree(k)
    basis = element_basis(k)
    center, scale = mesh.tri_centroids[:, None, :], mesh.h_tri[:, None]
    tri_pts, _ = tri_quad(mesh, np.arange(mesh.n_triangles), rule)
    edge_pts, _, _ = edge_quad(mesh, mesh.tri_edges, rule)
    for pts, c, s in ((tri_pts, center, scale), (edge_pts, center[:, None], scale[:, None])):
        X, Y = ((pts[..., i] - c[..., i]) / s for i in (0, 1))
        xp, yp = (np.concatenate([np.ones(Z.shape + (1,)), Z[..., None] ** np.arange(1, k + 1)],
                                 axis=-1) for Z in (X, Y))
        want = xp[..., basis.exponents[:, 0]] * yp[..., basis.exponents[:, 1]]
        assert basis.eval(pts, c, s).tobytes() == want.tobytes()
        # the first point, of triangle 0, alone
        one = basis.eval(pts.reshape(-1, 2)[0], center[0, 0], scale[0, 0])
        assert one.tobytes() == want.reshape(-1, basis.dim)[:1].tobytes()
        if k == 2:
            assert np.any(X**2 != xp[..., 2])
