import dataclasses
import math

import numpy as np
import pytest

from pdwg.cases import get_case
from pdwg import weakops
from pdwg.fespace import (
    DofMap,
    WeakFunction,
    dim_pk,
    edge_basis,
    edge_quad,
    element_basis,
    gram,
    l2_project_vector,
    l2_project_weak,
    tri_quad,
)
from pdwg.mesh import Mesh, build_uniform_mesh, classify_boundary
from pdwg.system import assemble
from pdwg.weakops import IDENTITY, Diffusion, LocalOperators


def local_gradient(ops, t, local_dofs):
    """Weak-gradient coefficients (2, dim P_{k-1}) of a local dof vector on
    triangle t, read from its group's row of the context's grad maps."""
    return (ops.group_grad_maps[ops.input_groups[t]] @ local_dofs).reshape(2, -1)


def lstsq_weak_gradient_oracle(mesh, t, k, local_dofs):
    """Independent dense least-squares assembly of the defining Galerkin
    conditions, with its own quadrature (plain Gauss product, no reuse of
    the production rule)."""
    m = 12
    x01, w01 = np.polynomial.legendre.leggauss(m)
    x01 = 0.5 * (x01 + 1.0)
    w01 = 0.5 * w01
    # collapsed product rule on the triangle
    a, b, c = mesh.vertices[mesh.triangles[t]]
    xi = np.outer(x01, 1.0 - x01).ravel()
    eta = np.tile(x01, m)
    wts = np.outer(w01, w01 * (1.0 - x01)).ravel() * 2.0 * mesh.tri_areas[t]
    pts = a + np.outer(xi, b - a) + np.outer(eta, c - a)

    center = mesh.tri_centroids[t]
    scale = mesh.h_tri[t]
    rbasis = element_basis(k - 1)
    kbasis = element_basis(k)
    ebasis = edge_basis(k)
    dimr = rbasis.dim
    v0 = local_dofs[: kbasis.dim]

    rows = []
    rhs = []
    # scalar conditions for each vector test function (chi_j, 0) and (0, chi_j)
    vr = rbasis.eval((pts - center) / scale)
    gr = rbasis.grad((pts - center) / scale, scale)
    vk = kbasis.eval((pts - center) / scale)
    for comp in range(2):
        for j in range(dimr):
            row = np.zeros(2 * dimr)
            for i in range(dimr):
                row[comp * dimr + i] = wts @ (vr[:, i] * vr[:, j])
            val = -(wts @ ((vk @ v0) * gr[:, j, comp]))
            for loc in range(3):
                e = mesh.tri_edges[t, loc]
                sign = mesh.tri_edge_signs[t, loc]
                n_out = sign * mesh.edge_normals[e]
                lo, hi = mesh.edges[e]
                s = np.polynomial.legendre.leggauss(m)[0] * 0.5
                ws = np.polynomial.legendre.leggauss(m)[1] * 0.5 * mesh.edge_lengths[e]
                epts = mesh.edge_midpoints[e] + np.outer(s, mesh.vertices[hi] - mesh.vertices[lo])
                vb = ebasis.eval(s) @ local_dofs[
                    kbasis.dim + loc * ebasis.dim : kbasis.dim + (loc + 1) * ebasis.dim
                ]
                chi_j = rbasis.eval((epts - center) / scale)[:, j]
                val += n_out[comp] * (ws @ (vb * chi_j))
            rows.append(row)
            rhs.append(val)
    sol, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    return sol.reshape(2, dimr)


def test_constant_edge_value_gives_zero_gradient():
    # divergence theorem: the integral of a constant normal field vanishes
    mesh = build_uniform_mesh(2)
    k = 1
    ops = LocalOperators(mesh, k)
    for t in (0, 5):
        local = np.zeros(dim_pk(k) + 3 * (k + 1))
        local[0] = 0.37  # interior part is irrelevant for k=1
        for loc in range(3):
            local[dim_pk(k) + loc * (k + 1)] = 1.0
        grad = local_gradient(ops, t, local)
        assert np.max(np.abs(grad)) <= 1e-13


@pytest.mark.parametrize("k", [1, 2, 3])
def test_constant_weak_function_in_kernel(k):
    # the full constant pair {c, c}: interior and edge parts both constant
    mesh = build_uniform_mesh(2)
    ops = LocalOperators(mesh, k)
    for t in (0, 5):
        local = np.zeros(dim_pk(k) + 3 * (k + 1))
        local[0] = 2.5
        for loc in range(3):
            local[dim_pk(k) + loc * (k + 1)] = 2.5
        grad = local_gradient(ops, t, local)
        assert np.max(np.abs(grad)) <= 1e-11


def test_commutativity_linear_gradient():
    # project u = 1+x+y into the weak space: weak gradient is (1,1) everywhere
    mesh = build_uniform_mesh(2)
    ops = LocalOperators(mesh, 1)
    wf = l2_project_weak(lambda x, y: 1 + x + y, ops)
    for t in range(mesh.n_triangles):
        grad = local_gradient(ops, t, wf.local_coeffs(t))
        assert np.allclose(grad[:, 0], 1.0, atol=1e-12)


# frozen from the closed form G = |T|^{-1} * n_hyp * int_hyp s ds with
# s the arclength from the lower-index endpoint: G = (sqrt(2), sqrt(2))
HYPOTENUSE_ARC_GRADIENT = (1.4142135623730951, 1.4142135623730951)


def test_unit_triangle_hypotenuse_arclength_example():
    mesh = Mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    k = 1
    hyp = [e for e in range(3) if {*mesh.edges[e]} == {1, 2}][0]
    local = np.zeros(dim_pk(k) + 3 * (k + 1))
    loc = int(np.nonzero(mesh.tri_edges[0] == hyp)[0][0])
    length = mesh.edge_lengths[hyp]
    # v_b = arclength from the lower-index endpoint = len*(t_hat + 1/2)
    local[dim_pk(k) + loc * (k + 1)] = length / 2
    local[dim_pk(k) + loc * (k + 1) + 1] = length
    grad = local_gradient(LocalOperators(mesh, k), 0, local)
    assert grad[0, 0] == pytest.approx(HYPOTENUSE_ARC_GRADIENT[0], abs=1e-12)
    assert grad[1, 0] == pytest.approx(HYPOTENUSE_ARC_GRADIENT[1], abs=1e-12)
    oracle = lstsq_weak_gradient_oracle(mesh, 0, k, local)
    assert np.max(np.abs(grad - oracle)) <= 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_weak_gradient_oracle_equivalence(k):
    # production operator vs independent dense least-squares assembly
    mesh = build_uniform_mesh(2)
    ops = LocalOperators(mesh, k)
    rng = np.random.default_rng(42)
    nloc = dim_pk(k) + 3 * (k + 1)
    for trial in range(100):
        t = int(rng.integers(mesh.n_triangles))
        local = rng.uniform(-1, 1, nloc)
        grad = local_gradient(ops, t, local)
        oracle = lstsq_weak_gradient_oracle(mesh, t, k, local)
        assert np.max(np.abs(grad - oracle)) <= 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_integration_by_parts_identity(k):
    # (grad_w v, psi)_T = (grad v_0, psi)_T - <v_0 - v_b, psi.n>_{dT}
    mesh = build_uniform_mesh(2)
    ops = LocalOperators(mesh, k)
    rule = ops.rule
    rng = np.random.default_rng(3)
    rbasis = element_basis(k - 1)
    kbasis = element_basis(k)
    ebasis = edge_basis(k)
    from pdwg.fespace import gradient_coefficient_maps

    for trial in range(10):
        t = int(rng.integers(mesh.n_triangles))
        center = mesh.tri_centroids[t]
        scale = mesh.h_tri[t]
        local = rng.uniform(-1, 1, dim_pk(k) + 3 * (k + 1))
        grad = local_gradient(ops, t, local)
        pts, wts = tri_quad(mesh, t, rule)
        vr = rbasis.eval((pts - center) / scale)
        dx, dy = gradient_coefficient_maps(k, scale)
        g0 = np.column_stack([vr @ (dx @ local[: kbasis.dim]), vr @ (dy @ local[: kbasis.dim])])
        for comp in range(2):
            for j in range(rbasis.dim):
                lhs = wts @ ((vr @ grad[comp]) * vr[:, j])
                rhs = wts @ (g0[:, comp] * vr[:, j])
                for loc in range(3):
                    e = mesh.tri_edges[t, loc]
                    sign = mesh.tri_edge_signs[t, loc]
                    n_out = sign * mesh.edge_normals[e]
                    epts, ewts, tc = edge_quad(mesh, e, rule)
                    v0_tr = kbasis.eval((epts - center) / scale) @ local[: kbasis.dim]
                    vb = ebasis.eval(tc) @ local[
                        kbasis.dim + loc * ebasis.dim : kbasis.dim + (loc + 1) * ebasis.dim
                    ]
                    chi_j = rbasis.eval((epts - center) / scale)[:, j]
                    rhs -= n_out[comp] * (ewts @ ((v0_tr - vb) * chi_j))
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("k", [1, 2])
def test_commutativity_property_polynomials(k):
    # weak gradient of the projection equals the projected gradient,
    # for polynomial u of degree <= k+1, per element, to 1e-11
    mesh = build_uniform_mesh(2)
    ops = LocalOperators(mesh, k)
    polys = {
        1: [
            (lambda x, y: x * y, lambda x, y: (y, x)),
            (lambda x, y: x**2 - y**2, lambda x, y: (2 * x, -2 * y)),
        ],
        2: [
            (lambda x, y: x**3 + x * y**2, lambda x, y: (3 * x**2 + y**2, 2 * x * y)),
        ],
    }[k]
    for u, grad_u in polys:
        wf = l2_project_weak(u, ops)
        projected = l2_project_vector(grad_u, ops)
        for t in range(mesh.n_triangles):
            grad = local_gradient(ops, t, wf.local_coeffs(t))
            assert np.max(np.abs(grad - projected[t])) <= 1e-11


@pytest.mark.parametrize("k", [1, 2])
def test_commutativity_property_smooth(k):
    # same identity with quadrature-consistent projections of cos(x)cos(y)
    mesh = build_uniform_mesh(4)
    ops = LocalOperators(mesh, k)
    u = lambda x, y: np.cos(x) * np.cos(y)
    grad_u = lambda x, y: (-np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y))
    wf = l2_project_weak(u, ops)
    projected = l2_project_vector(grad_u, ops)
    for t in range(mesh.n_triangles):
        grad = local_gradient(ops, t, wf.local_coeffs(t))
        assert np.max(np.abs(grad - projected[t])) <= 1e-10


def test_stabilizer_kernel_is_conforming_trace():
    # v_b equal to the trace of v_0 on all edges gives s_T(v, v) = 0
    mesh = build_uniform_mesh(2)
    k = 1
    kbasis = element_basis(k)
    ops = LocalOperators(mesh, k)
    rng = np.random.default_rng(5)
    for t in (0, 6):
        c0 = rng.standard_normal(dim_pk(k))
        local = np.zeros(dim_pk(k) + 3 * (k + 1))
        local[: dim_pk(k)] = c0
        for loc in range(3):
            e = mesh.tri_edges[t, loc]
            lo, hi = mesh.edges[e]
            # trace of v_0 along the edge, expressed in the edge basis
            mid = mesh.edge_midpoints[e]
            d = mesh.vertices[hi] - mesh.vertices[lo]
            pts = np.array([mid - 0.5 * d, mid + 0.5 * d])
            vals = kbasis.eval((pts - mesh.tri_centroids[t]) / mesh.h_tri[t]) @ c0
            # linear on the edge: value at midpoint and slope in t
            local[dim_pk(k) + loc * (k + 1)] = 0.5 * (vals[0] + vals[1])
            local[dim_pk(k) + loc * (k + 1) + 1] = vals[1] - vals[0]
        s = ops.group_stabilizers[ops.input_groups[t]]
        assert abs(local @ s @ local) <= 1e-13


def test_stabilizer_single_edge_value():
    # v_0 = 0, v_b = 1 on one edge of length l: s_T(v,v) = l / h_T
    mesh = Mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    k = 1
    s = LocalOperators(mesh, k).group_stabilizers[0]
    for loc in range(3):
        e = mesh.tri_edges[0, loc]
        local = np.zeros(dim_pk(k) + 3 * (k + 1))
        local[dim_pk(k) + loc * (k + 1)] = 1.0
        expected = mesh.edge_lengths[e] / mesh.h_tri[0]
        assert local @ s @ local == pytest.approx(expected, rel=1e-13)


def test_stabilizer_positive_semidefinite():
    mesh = build_uniform_mesh(2)
    for k in (1, 2):
        ops = LocalOperators(mesh, k)
        s = ops.group_stabilizers[ops.input_groups[1]]
        assert np.max(np.abs(s - s.T)) <= 1e-14
        assert np.min(np.linalg.eigvalsh(s)) >= -1e-12


@pytest.mark.parametrize("k,ns", [(1, (4, 8, 16)), (2, (2, 4, 8))])
def test_stabilizer_projection_decay_rate(k, ns):
    # s(Q_h u, Q_h u) = O(h^{2k}) for smooth u
    u = lambda x, y: np.cos(x) * np.cos(y)
    values = []
    for n in ns:
        mesh = build_uniform_mesh(n)
        ops = LocalOperators(mesh, k)
        wf = l2_project_weak(u, ops)
        values.append(ops.stabilizer_value(wf))
    for coarse, fine in zip(values, values[1:]):
        rate = math.log2(coarse / fine)
        assert 2 * k - 0.3 <= rate <= 2 * k + 0.3


def test_diffusion_form_constant_kernel():
    mesh = build_uniform_mesh(2)
    k = 1
    # constant weak function {1, 1}: the first basis function on the
    # element and on each edge is the constant 1
    local = np.zeros(dim_pk(k) + 3 * (k + 1))
    local[0] = 1.0
    for loc in range(3):
        local[dim_pk(k) + loc * (k + 1)] = 1.0
    ops = LocalOperators(mesh, k)
    b = ops.group_diffusion_forms[ops.input_groups[4]]
    assert abs(local @ b @ local) <= 1e-13


def test_diffusion_form_linear_energy():
    # v = Q_h(1+x+y), a = 1: b_T(v, v) = |grad|^2 |T| = 2 |T|
    mesh = build_uniform_mesh(2)
    ops = LocalOperators(mesh, 1)
    wf = l2_project_weak(lambda x, y: 1 + x + y, ops)
    for t in (0, 3):
        b = ops.group_diffusion_forms[ops.input_groups[t]]
        local = wf.local_coeffs(t)
        assert local @ b @ local == pytest.approx(2.0 * mesh.tri_areas[t], rel=1e-12)


def test_diffusion_form_symmetric_on_random_dofs():
    mesh = build_uniform_mesh(2)
    rng = np.random.default_rng(9)
    for k in (1, 2):
        ops = LocalOperators(mesh, k)
        b = ops.group_diffusion_forms[ops.input_groups[2]]
        assert np.max(np.abs(b - b.T)) <= 1e-13
        x = rng.standard_normal(b.shape[0])
        assert x @ b @ x >= -1e-12


def test_diffusion_matrix_coefficient_matches_scalar():
    mesh = build_uniform_mesh(2)
    scalar = Diffusion(2.5)
    matrix = Diffusion(2.5 * np.eye(2))
    ops_s, ops_m = LocalOperators(mesh, 1, scalar), LocalOperators(mesh, 1, matrix)
    bs = ops_s.group_diffusion_forms[ops_s.input_groups[1]]
    bm = ops_m.group_diffusion_forms[ops_m.input_groups[1]]
    assert np.max(np.abs(bs - bm)) <= 1e-13


def test_diffusion_rejects_nonpositive():
    with pytest.raises(ValueError):
        Diffusion(-1.0)
    with pytest.raises(ValueError):
        Diffusion(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    mesh = build_uniform_mesh(1)
    sign_flip = Diffusion(lambda x, y: x - y)  # negative at quadrature points
    with pytest.raises(ValueError):
        LocalOperators(mesh, 1, sign_flip)


@pytest.mark.parametrize("value,match", [
    (np.ones(3), "scalar or a 2x2"),
    ([[1.0, 0.5], [0.4, 1.0]], "symmetric"),
])
def test_diffusion_rejects_malformed_values(value, match):
    with pytest.raises(ValueError, match=match):
        Diffusion(value)


def test_diffusion_reads_every_kind_as_a_tensor():
    x, y = np.array([0.1, 0.5, 0.9]), np.array([0.2, 0.3, 0.7])
    matrix = np.array([[2.0, 0.5], [0.5, 1.0]])
    variable = Diffusion(lambda x, y: 1.0 + x * y, grad=lambda x, y: np.column_stack([y, x]))
    for a, want in ((Diffusion(2.5), 2.5 * np.eye(2)), (Diffusion(matrix), matrix)):
        tensor = a.tensor(x, y)
        assert tensor.shape == (3, 2, 2) and np.all(tensor == want)
        assert not tensor.flags.writeable  # a broadcast view, not a copy
        assert np.all(a.divergence(x, y) == 0.0) and a.divergence(x, y).shape == (3, 2)
    assert np.all(variable.tensor(x, y) == (1.0 + x * y)[:, None, None] * np.eye(2))
    assert np.all(variable.divergence(x, y) == np.column_stack([y, x]))
    vec = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert np.allclose(Diffusion(matrix).flux(x, y, vec), vec @ matrix, rtol=1e-15)
    with pytest.raises(ValueError, match="gradient"):
        Diffusion(lambda x, y: 1.0 + x).divergence(x, y)


def jittered_mesh(n=4, seed=8):
    """build_uniform_mesh(n) with every interior vertex moved by up to h/4
    in each coordinate, so that no two triangles share a shape."""
    base = build_uniform_mesh(n)
    verts = base.vertices.copy()
    interior = np.all((verts > 0.0) & (verts < 1.0), axis=1)
    rng = np.random.default_rng(seed)
    verts[interior] += rng.uniform(-0.25, 0.25, (int(interior.sum()), 2)) / n
    return Mesh(verts, base.triangles)


def loop_local_matrices(mesh, t, k, a, rule):
    """Per-triangle reference for the weak-gradient map, the stabilizer and
    the diffusion form, written from the defining formulas one triangle and
    one local edge at a time."""
    center, scale = mesh.tri_centroids[t], mesh.h_tri[t]
    kbasis, rbasis, ebasis = element_basis(k), element_basis(k - 1), edge_basis(k)
    dk, dr, de = kbasis.dim, rbasis.dim, ebasis.dim
    nloc = dk + 3 * de
    pts, wts = tri_quad(mesh, t, rule)
    vk = kbasis.eval((pts - center) / scale)
    vr = rbasis.eval((pts - center) / scale)
    gr = rbasis.grad((pts - center) / scale, scale)
    mass_r = vr.T @ (wts[:, None] * vr)
    rhs = np.zeros((2 * dr, nloc))
    stab = np.zeros((nloc, nloc))
    for c in range(2):
        rhs[c * dr : (c + 1) * dr, :dk] = -np.einsum("n,nj,ni->ji", wts, gr[:, :, c], vk)
    for loc in range(3):
        e = mesh.tri_edges[t, loc]
        n_out = mesh.tri_edge_signs[t, loc] * mesh.edge_normals[e]
        epts, ewts, tc = edge_quad(mesh, e, rule)
        cols = slice(dk + loc * de, dk + (loc + 1) * de)
        block = np.einsum("n,nj,nm->jm", ewts, rbasis.eval((epts - center) / scale),
                          ebasis.eval(tc))
        rhs[:dr, cols] = n_out[0] * block
        rhs[dr:, cols] = n_out[1] * block
        z = np.zeros((len(ewts), nloc))
        z[:, :dk] = kbasis.eval((epts - center) / scale)
        z[:, cols] = -ebasis.eval(tc)
        stab += z.T @ (ewts[:, None] * z)
    gmap = np.vstack([np.linalg.solve(mass_r, rhs[:dr]), np.linalg.solve(mass_r, rhs[dr:])])
    mass2 = np.zeros((2 * dr, 2 * dr))
    tensor = a.tensor(pts[:, 0], pts[:, 1])
    for i in range(2):
        for j in range(2):
            aij = tensor[:, i, j]
            mass2[i * dr : (i + 1) * dr, j * dr : (j + 1) * dr] = vr.T @ ((wts * aij)[:, None] * vr)
    return gmap, stab / scale, gmap.T @ mass2 @ gmap


def loop_project(u, mesh, k, rule):
    """Q_h u triangle by triangle and edge by edge."""
    wf = WeakFunction(mesh, k)
    for t in range(mesh.n_triangles):
        pts, wts = tri_quad(mesh, t, rule)
        vals = element_basis(k).eval((pts - mesh.tri_centroids[t]) / mesh.h_tri[t])
        wf.coeffs[wf.dofmap.interior_block(t)] = np.linalg.solve(
            vals.T @ (wts[:, None] * vals), vals.T @ (wts * u(pts[:, 0], pts[:, 1])))
    for e in range(mesh.n_edges):
        pts, wts, tc = edge_quad(mesh, e, rule)
        vals = edge_basis(k).eval(tc)
        wf.coeffs[wf.dofmap.edge_block(e)] = np.linalg.solve(
            vals.T @ (wts[:, None] * vals), vals.T @ (wts * u(pts[:, 0], pts[:, 1])))
    return wf


def loop_assemble(mesh, config, case, k, rule):
    """Dense free-dof matrix, right-hand side and Dirichlet lift built from
    the per-triangle reference, with the load, the Gamma_n flux and the
    projected g1 integrated one triangle or edge at a time."""
    dm = DofMap(mesh, k)
    stab = np.zeros((dm.n_dofs, dm.n_dofs))
    diff = np.zeros_like(stab)
    load = np.zeros(dm.n_dofs)
    for t in range(mesh.n_triangles):
        _, s_t, b_t = loop_local_matrices(mesh, t, k, case.a, rule)
        dofs = np.concatenate([dm.interior_block(t)] + [dm.edge_block(e) for e in mesh.tri_edges[t]])
        stab[np.ix_(dofs, dofs)] += s_t
        diff[np.ix_(dofs, dofs)] += b_t
        pts, wts = tri_quad(mesh, t, rule)
        vals = element_basis(k).eval((pts - mesh.tri_centroids[t]) / mesh.h_tri[t])
        load[dm.interior_block(t)] += vals.T @ (wts * case.f(pts[:, 0], pts[:, 1]))
    for e in config.gamma_n_edges:
        pts, wts, tc = edge_quad(mesh, e, rule)
        t, loc = divmod(mesh.edge_slots[e, 0], 3)
        g2 = case.g2(pts[:, 0], pts[:, 1], mesh.tri_edge_signs[t, loc] * mesh.edge_normals[e])
        load[dm.edge_block(e)] += edge_basis(k).eval(tc).T @ (wts * g2)
    lift = np.zeros(dm.n_dofs)
    projected = loop_project(case.g1, mesh, k, rule)
    for e in config.gamma_d_edges:
        lift[dm.edge_block(e)] = projected.edge_coeffs(e)
    u_fixed, lam_fixed = dm.fixed_masks(config)
    uf, lf, up = np.flatnonzero(~u_fixed), np.flatnonzero(~lam_fixed), np.flatnonzero(u_fixed)
    matrix = np.block([[-stab[np.ix_(uf, uf)], diff[np.ix_(uf, lf)]],
                       [diff[np.ix_(uf, lf)].T, stab[np.ix_(lf, lf)]]])
    rhs = np.concatenate([stab[np.ix_(uf, up)] @ lift[up],
                          load[lf] - diff[np.ix_(lf, up)] @ lift[up]])
    return matrix, rhs, lift


def assert_close(batched, reference):
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(np.asarray(batched) - reference)) <= 1e-12 * scale


COEFFICIENTS = {
    "identity": IDENTITY,
    "variable": Diffusion(lambda x, y: 1.0 + x * y, grad=lambda x, y: np.column_stack([y, x])),
    "matrix": Diffusion([[2.0, 0.5], [0.5, 1.0]]),
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("coefficient", sorted(COEFFICIENTS))
def test_batched_context_matches_loop_on_jittered_mesh(k, coefficient):
    a = COEFFICIENTS[coefficient]
    mesh = jittered_mesh()
    ops = LocalOperators(mesh, k, a)
    for t, g in enumerate(ops.input_groups):
        gmap, stab, diff = loop_local_matrices(mesh, t, k, a, ops.rule)
        assert_close(ops.group_grad_maps[g], gmap)
        assert_close(ops.group_stabilizers[g], stab)
        assert_close(ops.group_diffusion_forms[g], diff)

    # Cauchy data on the bottom, Dirichlet on the left, flux on the right
    case = dataclasses.replace(get_case("t6"), a=a, dirichlet_sides=("bottom", "left"),
                               neumann_sides=("bottom", "right"))
    config = classify_boundary(mesh, case.dirichlet_sides, case.neumann_sides)
    system = assemble(config, case, ops)
    matrix, rhs, lift = loop_assemble(mesh, config, case, k, ops.rule)
    assert_close(system.matrix.toarray(), matrix)
    assert_close(system.rhs, rhs)
    assert_close(system.u_fixed_values, lift)

    projected = loop_project(case.u, mesh, k, ops.rule).coeffs
    assert_close(l2_project_weak(case.u, ops).coeffs, projected)


@pytest.mark.parametrize("n", [1, 4, 64])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("coefficient", ["identity", "matrix"])
def test_local_matrices_of_a_class_match_its_representative(coefficient, k, n):
    # a constant coefficient keeps the mesh's congruence classes: every
    # member's stabilizer, diffusion form and area-scaled mass matrix
    # equal its representative's up to roundoff in the vertex coordinates.
    # Measured, relative to the representative's largest entry, at n=64,
    # k=3: 1.7e-15, 6.4e-15 and 2.4e-15 (identity); the matrix
    # coefficient's diffusion form 8.1e-15.  The bound keeps 2.4x
    ops = LocalOperators(build_uniform_mesh(n), k, COEFFICIENTS[coefficient])
    assert np.array_equal(ops.classes, ops.mesh.tri_classes)
    assert np.array_equal(ops.class_members, [[0], [1]] + 2 * np.arange(n * n))
    reps = ops.class_members[:, 0]
    groups = ops.input_groups
    mass = ops.group_mass_k[groups] / ops.mesh.tri_areas[:, None, None]
    for tables in (ops.group_stabilizers[groups], ops.group_diffusion_forms[groups], mass):
        scale = np.abs(tables[reps]).max(axis=(1, 2))[ops.classes]
        spread = np.abs(tables - tables[reps][ops.classes]).max(axis=(1, 2))
        assert np.all(spread <= 2e-14 * scale)


def test_callable_coefficient_gives_one_class_per_triangle():
    mesh = build_uniform_mesh(4)
    ops = LocalOperators(mesh, 1, COEFFICIENTS["variable"])
    assert np.array_equal(ops.classes, np.arange(mesh.n_triangles))
    assert np.array_equal(ops.class_members, np.arange(mesh.n_triangles)[:, None])


TABLES = ("vk", "gr", "edge_vk", "mass_k", "mass_r", "grad_maps", "stabilizers",
          "diffusion_forms")


def all_triangle_tables(ops):
    """The tables of ops as the kernels compute them on every triangle at
    once, with no grouping of triangles of equal inputs."""
    mesh, k = ops.mesh, ops.k
    center, scale = mesh.tri_centroids[:, None, :], mesh.h_tri[:, None, None]
    edge_pts, edge_wts = ops.edge_pts[mesh.tri_edges], ops.edge_wts[mesh.tri_edges]
    tri_scaled = (ops.tri_pts - center) / scale
    edge_scaled = (edge_pts - center[:, None]) / scale[:, None]
    tensor = ops.a.tensor(*ops.tri_pts.reshape(-1, 2).T).reshape(mesh.n_triangles, -1, 2, 2)
    rdim = element_basis(k - 1).dim
    vk = element_basis(k).eval(tri_scaled)
    gr = element_basis(k - 1).grad(tri_scaled, mesh.h_tri[:, None])
    edge_vk = element_basis(k).eval(edge_scaled)
    mass_r = gram(vk[..., :rdim], ops.tri_wts)
    grad_maps = weakops._grad_maps(ops.tri_wts, vk, gr, edge_wts, edge_vk[..., :rdim],
                                   ops.beta, ops.normals, mass_r)
    return dict(
        vk=vk, gr=gr, edge_vk=edge_vk, mass_k=gram(vk, ops.tri_wts), mass_r=mass_r,
        grad_maps=grad_maps,
        stabilizers=weakops._stabilizers(edge_vk, edge_wts, ops.beta, mesh.h_tri),
        diffusion_forms=weakops._diffusion_forms(grad_maps, vk[..., :rdim], ops.tri_wts, tensor))


def assert_tables_are_all_triangle_tables(ops):
    # a group table gathered to the triangles is the all-triangle table
    reference = all_triangle_tables(ops)
    for name in TABLES:
        table = getattr(ops, "group_" + name)
        assert len(table) == len(ops.input_reps), name
        table = table[ops.input_groups]
        assert table.shape == reference[name].shape, name
        assert table.tobytes() == reference[name].tobytes(), name
    # every group is represented by its first triangle, in order of first appearance
    reps, groups = ops.input_reps, ops.input_groups
    assert np.all(np.diff(reps) > 0)
    assert np.array_equal(np.unique(groups, return_index=True)[1], reps)


@pytest.mark.parametrize("coefficient", sorted(COEFFICIENTS))
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 16, "jittered"])
def test_tables_are_the_all_triangle_tables_bit_for_bit(n, k, coefficient):
    # each table is computed on one triangle per group of byte-equal kernel
    # inputs; gathered, it must be the all-triangle batch byte for byte
    mesh = jittered_mesh() if n == "jittered" else build_uniform_mesh(n)
    assert_tables_are_all_triangle_tables(LocalOperators(mesh, k, COEFFICIENTS[coefficient]))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [3, "jittered"])
def test_edge_rule_is_kept_once_per_edge_bit_for_bit(n, k):
    # row e of the edge rule is edge e's own rule, and gathered to the local
    # edges it is the rule computed per local edge: both triangles of an
    # edge read the same points and weights
    mesh = jittered_mesh() if n == "jittered" else build_uniform_mesh(n)
    ops = LocalOperators(mesh, k)
    assert len(ops.edge_pts) == len(ops.edge_wts) == mesh.n_edges
    for e in range(mesh.n_edges):
        pts, wts, _ = edge_quad(mesh, e, ops.rule)
        assert ops.edge_pts[e].tobytes() == pts.tobytes()
        assert ops.edge_wts[e].tobytes() == wts.tobytes()
    pts, wts, _ = edge_quad(mesh, mesh.tri_edges, ops.rule)
    assert ops.edge_pts[mesh.tri_edges].tobytes() == pts.tobytes()
    assert ops.edge_wts[mesh.tri_edges].tobytes() == wts.tobytes()


@pytest.mark.parametrize("k,n,most", [(1, 32, 100), (2, 16, 64)])
def test_dyadic_uniform_meshes_share_their_tables(k, n, most):
    # measured: 72 groups of 2048 triangles at k=1, n=32, and 50 of 512 at
    # k=2, n=16; a key that splits byte-equal inputs would lose the gain
    ops = LocalOperators(build_uniform_mesh(n), k)
    assert len(ops.input_reps) <= most


def test_local_tables_hold_one_row_per_group():
    # no local table is kept per triangle, and the old per-triangle names
    # are gone, so code that indexes a table by triangle fails loudly
    ops = LocalOperators(build_uniform_mesh(8), 2, get_case("t6").a)
    assert len(ops.input_reps) < ops.mesh.n_triangles
    for name in TABLES + ("vr", "edge_vr"):
        assert len(getattr(ops, "group_" + name)) == len(ops.input_reps), name
        assert not hasattr(ops, name), name


def test_non_dyadic_and_callable_levels_share_nothing():
    for ops in (LocalOperators(build_uniform_mesh(3), 2),
                LocalOperators(build_uniform_mesh(4), 1, COEFFICIENTS["variable"])):
        assert np.array_equal(ops.input_reps, np.arange(ops.mesh.n_triangles))


def test_groups_are_the_byte_equal_classes():
    # rows equal as floats but not as bytes (+0.0 and -0.0), or one ulp
    # apart, fall in different groups; an array broadcast along T is skipped
    x = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [0.0, np.nextafter(1.0, 2.0)], [-0.0, 1.0]])
    reps, groups = weakops._equal_rows(x, np.full(5, 2.0), np.broadcast_to(3.0, (5, 4)))
    assert reps.tolist() == [0, 1, 3]
    assert groups.tolist() == [0, 1, 0, 2, 1]
    # on a level: each triangle's representative is the first triangle whose
    # kernel inputs equal its own byte for byte, as sorting whole rows finds it
    ops = LocalOperators(build_uniform_mesh(8), 2)
    mesh = ops.mesh
    center, scale = mesh.tri_centroids[:, None, :], mesh.h_tri[:, None, None]
    edge_pts, edge_wts = ops.edge_pts[mesh.tri_edges], ops.edge_wts[mesh.tri_edges]
    inputs = ((ops.tri_pts - center) / scale, (edge_pts - center[:, None]) / scale[:, None],
              ops.tri_wts, edge_wts, ops.normals, mesh.h_tri)
    rows = np.concatenate([arr.reshape(len(arr), -1).view(np.uint64) for arr in inputs], axis=1)
    _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    assert np.array_equal(ops.input_reps[ops.input_groups], first[inverse.reshape(-1)])


@pytest.mark.parametrize("name", ["h_tri", "tri_areas", "tri_centroids", "edge_normals",
                                  "edge_lengths", "edge_midpoints"])
def test_one_ulp_apart_is_another_group(name):
    # move the kernel inputs made from one mesh quantity of triangle 9, or
    # of its first edge, by one ulp: the triangles moved leave their groups
    mesh = build_uniform_mesh(8)
    before = LocalOperators(mesh, 2).input_groups
    on_edge = name.startswith("edge_")
    row = mesh.tri_edges[9, 0] if on_edge else 9
    arr = getattr(mesh, name).copy()
    arr[row] = np.nextafter(arr[row], np.inf)
    setattr(mesh, name, arr)
    ops = LocalOperators(mesh, 2)
    assert_tables_are_all_triangle_tables(ops)
    moved = np.unique(mesh.edge_slots[row] // 3) if on_edge else [9]
    for t in moved:
        members = np.flatnonzero(ops.input_groups == ops.input_groups[t])
        assert set(members) <= set(moved)
        assert np.sum(before == before[t]) > 1  # it had twins before the move


def test_one_dofmap_per_context(monkeypatch):
    builds = []
    init = DofMap.__init__

    def counting(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DofMap, "__init__", counting)
    for k in (1, 2, 3):
        LocalOperators(build_uniform_mesh(4), k)
    assert len(builds) == 3
