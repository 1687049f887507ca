import copy
import dataclasses
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import pdwg.system
from pdwg.cases import CaseSpec, case_ids, get_case
from pdwg.fespace import DofMap, l2_project_weak
from pdwg.mesh import BoundaryConfig, Mesh, build_uniform_mesh, classify_boundary
from pdwg.norms import (error_fields, error_report, interior_l2_norm, residual_norm_multiplier,
                        residual_norm_primal)
from pdwg.system import (
    SingularSystemError,
    _bordered,
    _Condensation,
    _coupled,
    _decide_kernel,
    _inverse,
    _local_column_sums,
    _local_product,
    _null_direction,
    _one_norm,
    _ORDERED_LU,
    _positions,
    _project_out,
    _sparse_sum,
    assemble,
    condition_estimate,
    matrix_to_coordinate_text,
    solve,
)
from pdwg.weakops import IDENTITY, Diffusion, LocalOperators
from test_weakops import COEFFICIENTS, jittered_mesh


def zero_data_case(d_sides, n_sides):
    return CaseSpec(
        case_id="zero",
        description="homogeneous data",
        u=lambda x, y: np.zeros_like(x),
        grad_u=lambda x, y: (np.zeros_like(x), np.zeros_like(x)),
        f=lambda x, y: np.zeros_like(x),
        dirichlet_sides=d_sides,
        neumann_sides=n_sides,
    )


def test_system_dimension_n1_cauchy_bottom():
    # counts derived from the dof map itself: V=4, T=2, E=5; one bottom
    # edge fixed for u, the three other boundary edges fixed for lambda
    mesh = build_uniform_mesh(1)
    config = classify_boundary(mesh, {"bottom"}, {"bottom"})
    case = get_case("t1")
    system = assemble(config, case, LocalOperators(mesh, 1, case.a))
    dm = DofMap(mesh, 1)
    u_fixed, lam_fixed = dm.fixed_masks(config)
    n_u_free = dm.n_dofs - 2 * len(config.gamma_d_edges)
    n_lam_free = dm.n_dofs - 2 * np.count_nonzero(mesh.is_boundary_edge & ~config.in_gamma_n)
    assert int((~u_fixed).sum()) == len(system.u_free) == n_u_free == 2 * 3 + (5 - 1) * 2
    assert int((~lam_fixed).sum()) == len(system.lam_free) == n_lam_free == 2 * 3 + (5 - 3) * 2
    assert system.matrix.shape == (24, 24)
    assert system.rhs.shape == (24,)


@pytest.mark.parametrize("case_id", ["t3", "t6", "t11"])
def test_assembled_matrix_symmetry(case_id):
    case = get_case(case_id)
    mesh = build_uniform_mesh(4)
    config = classify_boundary(mesh, case.dirichlet_sides, case.neumann_sides)
    system = assemble(config, case, LocalOperators(mesh, 1, case.a))
    diff = (system.matrix - system.matrix.T).tocoo()
    scale = np.max(np.abs(system.matrix.data))
    max_asym = np.max(np.abs(diff.data)) if diff.nnz else 0.0
    assert max_asym <= 1e-12 * scale


def test_zero_data_gives_zero_solution():
    # the homogeneous problem has only the trivial solution
    case = zero_data_case(("bottom",), ("bottom",))
    mesh = build_uniform_mesh(4)
    config = classify_boundary(mesh, case.dirichlet_sides, case.neumann_sides)
    system = assemble(config, case, LocalOperators(mesh, 1, case.a))
    assert np.max(np.abs(system.rhs)) == 0.0
    u_h, lam_h = solve(system)
    assert np.max(np.abs(u_h.coeffs)) <= 1e-10
    assert np.max(np.abs(lam_h.coeffs)) <= 1e-10


@pytest.mark.parametrize("case_id,n", [("t1", 1), ("t1", 2), ("t1", 4), ("t2", 2)])
def test_linear_solution_machine_precision(case_id, n):
    case = get_case(case_id)
    mesh = build_uniform_mesh(n)
    config = classify_boundary(mesh, case.dirichlet_sides, case.neumann_sides)
    ops = LocalOperators(mesh, 1, case.a)
    system = assemble(config, case, ops)
    u_h, lam_h = solve(system)
    e_h = error_fields(u_h, case.u, ops)
    assert interior_l2_norm(e_h, ops) <= 1e-10
    assert residual_norm_primal(e_h, config, ops) <= 1e-10
    assert residual_norm_multiplier(lam_h, config, ops) <= 1e-10


@pytest.mark.parametrize("k", [1, 2])
def test_consistency_polynomial_solution(k):
    # exact polynomial solutions of degree <= k: the discrete solution is
    # the projection and the multiplier vanishes, up to solver roundoff
    if k == 1:
        case = get_case("t1")
    else:
        case = CaseSpec(
            case_id="quad",
            description="u = x^2 + x y",
            u=lambda x, y: x**2 + x * y,
            grad_u=lambda x, y: (2 * x + y, x),
            f=lambda x, y: np.full_like(x, -2.0),
            dirichlet_sides=("bottom",),
            neumann_sides=("bottom",),
        )
    mesh = build_uniform_mesh(2)
    config = classify_boundary(mesh, case.dirichlet_sides, case.neumann_sides)
    ops = LocalOperators(mesh, k, case.a)
    u_h, lam_h = solve(assemble(config, case, ops))
    projected = l2_project_weak(case.u, ops)
    assert np.max(np.abs(u_h.coeffs - projected.coeffs)) <= 1e-9
    assert np.max(np.abs(lam_h.coeffs)) <= 1e-9


@pytest.mark.parametrize("case_id", ["t1", "t3", "t6", "t9", "t11", "t13", "t14b"])
def test_uniqueness_all_catalog_configurations(case_id):
    # factorization succeeds with no zero pivot on every experiment config
    case = get_case(case_id)
    for n in (1, 2, 4):
        mesh = build_uniform_mesh(n)
        config = classify_boundary(mesh, case.dirichlet_sides, case.neumann_sides)
        u_h, lam_h = solve(assemble(config, case, LocalOperators(mesh, 1, case.a)))
        assert np.all(np.isfinite(u_h.coeffs))


@pytest.mark.parametrize("k,min_order", [(2, 2.5), (3, 3.4)])
def test_higher_degree_convergence(k, min_order):
    # L2 error decays like h^{k+1} on the well-posed mixed case
    case = get_case("t6")
    errors = []
    for n in (2, 4):
        mesh = build_uniform_mesh(n)
        config = classify_boundary(mesh, case.dirichlet_sides, case.neumann_sides)
        ops = LocalOperators(mesh, k, case.a)
        u_h, lam_h = solve(assemble(config, case, ops))
        errors.append(interior_l2_norm(error_fields(u_h, case.u, ops), ops))
    assert math.log2(errors[0] / errors[1]) >= min_order


def no_boundary_data_system():
    # all flags false with pure-interior data: gauge freedom in the primal
    # field
    case = CaseSpec(
        case_id="interior",
        description="interior load, no boundary data",
        u=lambda x, y: np.zeros_like(x),
        grad_u=lambda x, y: (np.zeros_like(x), np.zeros_like(x)),
        f=lambda x, y: np.ones_like(x),
        dirichlet_sides=(),
        neumann_sides=(),
    )
    mesh = build_uniform_mesh(2)
    empty = BoundaryConfig(
        mesh,
        np.zeros(mesh.n_edges, dtype=bool),
        np.zeros(mesh.n_edges, dtype=bool),
    )
    return assemble(empty, case, LocalOperators(mesh, 1, case.a))


def test_no_boundary_data_reports_singular():
    # the primal non-uniqueness is surfaced as a diagnostic
    with pytest.raises(SingularSystemError):
        solve(no_boundary_data_system())


def test_whole_boundary_union_keeps_primal_unique():
    # t3 leaves a pure multiplier gauge, lam = x: it vanishes on the left
    # side (outside Gamma_n) and is flux-free on top (outside Gamma_d).
    # Covering the boundary with Gamma_d and Gamma_n is not enough for a
    # kernel (t6 covers it and has none).  The primal solve proceeds and
    # stays accurate
    case = get_case("t3")
    mesh = build_uniform_mesh(2)
    config = classify_boundary(mesh, case.dirichlet_sides, case.neumann_sides)
    ops = LocalOperators(mesh, 1, case.a)
    u_h, lam_h = solve(assemble(config, case, ops))
    assert interior_l2_norm(error_fields(u_h, case.u, ops), ops) < 0.05
    # deterministic representative: a second solve reproduces it exactly
    u2, lam2 = solve(assemble(config, case, ops))
    assert np.array_equal(u_h.coeffs, u2.coeffs)
    assert np.array_equal(lam_h.coeffs, lam2.coeffs)


def test_mismatched_config_rejected():
    case = get_case("t1")
    mesh_a = build_uniform_mesh(2)
    mesh_b = build_uniform_mesh(2)
    config = classify_boundary(mesh_a, {"bottom"}, {"bottom"})
    with pytest.raises(ValueError):
        assemble(config, case, LocalOperators(mesh_b, 1, case.a))


def test_context_of_another_level_is_refused():
    # assemble reads mesh, degree and coefficient from its context; a
    # context of another mesh object than the boundary configuration, or of
    # another coefficient object than the case, must raise, not silently
    # stand in for this level
    variable = Diffusion(lambda x, y: 1.0 + x * y, grad=lambda x, y: np.column_stack([y, x]))
    case = dataclasses.replace(get_case("t6"), a=variable)
    mesh = build_uniform_mesh(2)
    config = classify_boundary(mesh, case.dirichlet_sides, case.neumann_sides)
    for other, what in ((LocalOperators(build_uniform_mesh(2), 2, variable), "mesh"),
                        (LocalOperators(mesh, 2, IDENTITY), "coefficient")):
        with pytest.raises(ValueError, match=what):
            assemble(config, case, other)


def test_missing_flux_data_rejected():
    case = CaseSpec(
        case_id="nograd",
        description="no gradient available",
        u=lambda x, y: np.zeros_like(x),
        grad_u=None,
        f=lambda x, y: np.zeros_like(x),
        dirichlet_sides=("bottom",),
        neumann_sides=("bottom",),
    )
    mesh = build_uniform_mesh(1)
    config = classify_boundary(mesh, {"bottom"}, {"bottom"})
    with pytest.raises(ValueError):
        assemble(config, case, LocalOperators(mesh, 1, case.a))


def test_condition_estimate_is_the_dense_condition_number():
    # the oracle: ||A||_1 ||A^-1||_1 from numpy's dense inverse, on every
    # regular catalog level at n <= 4 inside the dense limit, where the
    # estimate applies the condensed inverse to every unit vector.  Largest
    # relative difference measured 8.9e-12 (t14c, k=3, n=2)
    checked = 0
    for case_id in case_ids():
        if catalog_kernel(case_id, 1) != (0, 0):
            continue
        for k in (1, 2, 3):
            for n in (1, 2, 4):
                system = catalog_system(case_id, k, n)
                if system.n_free > pdwg.system._DENSE_COND_LIMIT:
                    continue
                matrix = system.matrix.toarray()
                want = np.linalg.norm(matrix, 1) * np.linalg.norm(np.linalg.inv(matrix), 1)
                assert condition_estimate(system) == pytest.approx(want, rel=1e-10), (case_id, k, n)
                checked += 1
    assert checked == 13 * 8


@pytest.mark.parametrize("case_id", ["t3", "t4", "t5"])
def test_condition_estimate_of_a_gauge_system_is_that_on_the_complement_of_its_kernel(case_id):
    # the oracle: ||A||_1 ||P A^+ P||_1, P = I - v v^T, v the eigenvector
    # of A's eigenvalue of least modulus and A^+ numpy's pseudo-inverse: the
    # condition number of the system solve solves, whatever dof roundoff
    # makes largest in v.  Largest relative difference measured 3.0e-10
    # (t5, k=2, n=4)
    for k in (1, 2):
        for n in (1, 2, 4):
            system = catalog_system(case_id, k, n)
            matrix = system.matrix.toarray()
            w, vecs = np.linalg.eigh(matrix)
            v = vecs[:, np.argmin(np.abs(w))]
            proj = np.eye(len(v)) - np.outer(v, v)
            want = np.linalg.norm(matrix, 1) * np.linalg.norm(proj @ np.linalg.pinv(matrix) @ proj, 1)
            assert condition_estimate(system) == pytest.approx(want, rel=3e-9), (k, n)


def test_condition_estimate_growth_under_refinement():
    case = get_case("t3")
    estimates = []
    for n in (2, 4):
        mesh = build_uniform_mesh(n)
        config = classify_boundary(mesh, case.dirichlet_sides, case.neumann_sides)
        system = assemble(config, case, LocalOperators(mesh, 1, case.a))
        estimates.append(condition_estimate(system))
    assert estimates[1] > estimates[0] > 1.0


def test_condition_estimate_gauge_quotient_is_finite_and_repeatable():
    # t3's multiplier gauge is projected out of the inverse, not inverted
    case = get_case("t3")
    mesh = build_uniform_mesh(2)
    config = classify_boundary(mesh, case.dirichlet_sides, case.neumann_sides)
    system = assemble(config, case, LocalOperators(mesh, 1, case.a))
    first = condition_estimate(system)
    assert 1.0 < first < 1e8
    assert condition_estimate(system) == first


def test_condition_estimate_ignores_and_keeps_the_global_random_state():
    # above the dense limit the 1-norm estimator draws random start
    # vectors; from numpy's global state, t9 at k=2, n=8 (2688 dofs) read
    # 9.37e5 to 1.10e6 over seeds 0-7
    system = catalog_system("t9", 2, 8)
    assert system.n_free > pdwg.system._DENSE_COND_LIMIT
    estimates = []
    for seed in (0, 5):
        np.random.seed(seed)
        before = np.random.get_state()
        estimates.append(condition_estimate(system))
        after = np.random.get_state()
        assert all(np.array_equal(b, a) for b, a in zip(before, after))
    assert estimates[0] == estimates[1]


def test_condition_estimate_primal_non_uniqueness_is_infinite():
    assert condition_estimate(no_boundary_data_system()) == math.inf


def test_condition_estimate_singular_sentinel(monkeypatch):
    # a Schur factorization that fails reads +inf, not an exception
    def splu(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    system = catalog_system("t6", 1, 2)
    monkeypatch.setattr(pdwg.system.spla, "splu", splu)
    assert condition_estimate(system) == math.inf


def test_matrix_coordinate_export_sorted():
    import scipy.sparse as sp

    matrix = sp.csr_matrix(np.array([[0.0, 2.5], [1.0, 0.0]]))
    text = matrix_to_coordinate_text(matrix)
    assert text == "0 1 2.5\n1 0 1\n"
    entries = [line.split() for line in text.strip().splitlines()]
    keys = [(int(r), int(c)) for r, c, _ in entries]
    assert keys == sorted(keys)


def test_solver_residual_is_small():
    case = get_case("t6")
    mesh = build_uniform_mesh(8)
    config = classify_boundary(mesh, case.dirichlet_sides, case.neumann_sides)
    system = assemble(config, case, LocalOperators(mesh, 1, case.a))
    u_h, lam_h = solve(system)
    x = np.concatenate([
        u_h.coeffs[system.u_free],
        lam_h.coeffs[system.lam_free],
    ])
    resid = np.linalg.norm(system.matrix @ x - system.rhs)
    import scipy.sparse.linalg as spla

    scale = np.linalg.norm(system.rhs) + spla.norm(system.matrix, np.inf) * np.linalg.norm(x)
    assert resid <= 1e-9 * scale


def catalog_system(case_id, k, n, a=None):
    """The catalog case's system, with the coefficient a in its place when
    one is given."""
    case = get_case(case_id)
    if a is not None:
        case = dataclasses.replace(case, a=a)
    mesh = build_uniform_mesh(n)
    config = classify_boundary(mesh, case.dirichlet_sides, case.neumann_sides)
    return assemble(config, case, LocalOperators(mesh, k, case.a))


def kernel_dims(case_id, k, n, a=None):
    """_Condensation.kernel_dims of the catalog case's system, the
    dimensions (primal, multiplier) that solve decides its path by; a
    replaces the case's coefficient."""
    system = catalog_system(case_id, k, n, a)
    return _Condensation(system).kernel_dims()


def catalog_kernel(case_id, k):
    """The kernel dimensions of the catalog: only t3-t5 leave the
    multiplier a kernel, lam = x, and at k=3 a second direction,
    lam = x (y-1)^2 - x^3/3; no case leaves one to the primal field."""
    return (0, (2 if k == 3 else 1) if case_id in ("t3", "t4", "t5") else 0)


def rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def polynomial_exact(case_id, k):
    """u is linear, or xy (in P_k for k >= 2): the multiplier is pure
    roundoff."""
    return case_id in ("t1", "t2") or (case_id == "t11" and k >= 2)


def solve_path(system):
    """The free-dof solution and gauge kernel vector (None without one) of
    the path solve takes: the kernel step (_decide_kernel), then the
    function of _inverse, which factors the Schur matrix's ordered LU up to
    one gauge direction and the bordered natural matrix with two or more."""
    inverse, v = _inverse(system, *_decide_kernel(system))
    return inverse(system.rhs), v


def full_lu_solve(matrix, rhs, gauge_dim):
    """The oracle for the condensed solve: solution and gauge kernel vector
    (None without one) from an LU of the full free-dof matrix with
    SuperLU's defaults, for a gauge kernel of dimension gauge_dim.  One
    direction is projected out of the data and the result, as solve does on
    the Schur LU; two or more take the steps of solve's own branch, the
    bordered matrix of that LU's null direction, so they agree bit for bit."""
    lu = spla.splu(matrix)
    if not gauge_dim:
        return lu.solve(rhs), None
    v = _null_direction(lu)
    if gauge_dim == 1:
        return _project_out(lu.solve(_project_out(rhs, v)), v), v
    return spla.splu(_bordered(matrix, v)).solve(np.append(rhs, 0.0))[:len(v)], v


def test_kernel_cutoff_keeps_a_hundredfold_margin_on_both_sides(monkeypatch):
    # the cutoff sits between the singular value ratios of kernel_dims's
    # stacked matrix that belong to kernel directions and those that do
    # not.  Measured: kernel ones at most 2.3e-16 over the catalog at
    # n <= 8 (t3, k=3, n=8) and 2.9e-16 on t3, k=3, n=32; the others at
    # least 1.4e-5 over the catalog at n <= 8 (t1, k=3, n=1) and 2.0e-5 on
    # t1, k=3, n=32.  A cutoff 100x higher or lower must decide every one
    # of these levels alike
    levels = [(case_id, k, n) for case_id in case_ids() for k in (1, 2, 3)
              for n in (1, 2, 4, 8)] + [("t1", 3, 32), ("t3", 3, 32)]
    cutoff = pdwg.system._KERNEL_CUTOFF
    for case_id, k, n in levels:
        system = catalog_system(case_id, k, n)
        reduced = _Condensation(system)
        for factor in (100.0, 0.01):
            monkeypatch.setattr(pdwg.system, "_KERNEL_CUTOFF", factor * cutoff)
            assert reduced.kernel_dims() == catalog_kernel(case_id, k), (case_id, k, n)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_kernel_dimensions_match_the_singular_values_of_the_schur_matrix(k):
    # the oracle: the singular values of the dense Schur matrix below
    # 1e-13 sigma_max count its kernel, and the rank of their right
    # singular vectors' primal rows gives the primal part of it.  Measured
    # over the catalog at n <= 4: kernel singular values at most 4.4e-16
    # sigma_max (t3, k=2, n=4), the others at least 6.6e-9 sigma_max (t3,
    # k=3, n=4), and the kernel's primal rows have no singular value above
    # 5.4e-12
    for case_id in case_ids():
        for n in (1, 2, 4):
            system = catalog_system(case_id, k, n)
            reduced = _Condensation(system)
            _, sv, vt = np.linalg.svd(reduced.matrix.toarray())
            kernel = vt[sv < 1e-13 * sv[0]]
            primal = np.linalg.matrix_rank(kernel[:, reduced.primal], tol=1e-6)
            want = (primal, len(kernel) - primal)
            assert reduced.kernel_dims() == want == catalog_kernel(case_id, k), (case_id, n)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gauge_kernel_of_a_variable_coefficient(k):
    # on t3's sides, lam = x is a kernel candidate for a = 1 + y too:
    # div(a grad x) = d_x (1 + y) = 0, and a grad_w Q_h x = (1 + y) e_1 lies
    # in [P_{k-1}]^2 exactly when k >= 2.  So the multiplier keeps the one
    # kernel direction Q_h x at k = 2, 3 and none at k = 1.  Measured at
    # n = 2, 4, 8: 1 - |cos| between its multiplier part and Q_h x at most
    # 3.3e-9 (k=3, n=8); at n=2 the Schur matrix's smallest singular value
    # ratio 3.1e-18 (k=2) and 2.4e-18 (k=3), the next one 2.3e-6 and 3.3e-10
    a = Diffusion(lambda x, y: 1.0 + y)
    for n in (2, 4, 8):
        system = catalog_system("t3", k, n, a)
        solve(system)
        _, v = solve_path(system)
        assert kernel_dims("t3", k, n, a) == (0, int(k > 1))
        if k == 1:
            assert v is None
            continue
        nf = len(system.u_free)
        q = l2_project_weak(lambda x, y: x, system.ops).coeffs[system.lam_free]
        cos = abs(v[nf:] @ q) / (np.linalg.norm(v[nf:]) * np.linalg.norm(q))
        assert cos >= 1.0 - 3e-8
    if k > 1:
        schur = _Condensation(catalog_system("t3", k, 2, a)).matrix.toarray()
        sv = np.linalg.svd(schur, compute_uv=False)
        assert sv[-1] <= 1e-16 * sv[0] and sv[-2] >= 1e-12 * sv[0]


NO_CANDIDATE = (Diffusion(lambda x, y: 1.0 + x), Diffusion(lambda x, y: np.exp(y)))


def test_variable_coefficients_without_a_candidate_leave_no_kernel():
    # with a = 1 + x, div(a grad x) != 0, and with a = exp(y), a grad x is
    # not in [P_{k-1}]^2: t3's sides leave no kernel.  The smallest singular
    # value ratio of kernel_dims's stacked matrix reads at least 7.2e-6
    # (1 + x) and 1.3e-8 (exp(y)), both at k=3, n=8
    assert not [(a, k, n) for a in NO_CANDIDATE for k in (1, 2, 3) for n in (2, 4, 8)
                if kernel_dims("t3", k, n, a) != (0, 0)]


@pytest.mark.parametrize("n,ratio", [(16, 8.3e-10), (32, 5.3e-11)])
def test_near_kernel_of_exp_y_keeps_a_tenfold_margin_above_the_cutoff(monkeypatch, n, ratio):
    # on t3's sides a = exp(y) leaves the multiplier a near kernel, which
    # closes in on the cutoff as h^(k+1): the smallest singular value ratio
    # of kernel_dims's stacked matrix reads 8.3e-10 at k=3, n=16 and
    # 5.3e-11 at n=32 (the _KERNEL_CUTOFF comment), the next one 3.2e-5 and
    # 8.7e-6.  No kernel is counted, also at 10x the cutoff; and the ratio
    # lies within 2x of the comment's figure: a cutoff of half of it counts
    # no direction, one of twice it counts that one
    reduced = _Condensation(catalog_system("t3", 3, n, NO_CANDIDATE[1]))
    cutoff = pdwg.system._KERNEL_CUTOFF
    assert reduced.kernel_dims() == (0, 0)
    for value, dims in ((10 * cutoff, (0, 0)), (ratio / 2, (0, 0)), (2 * ratio, (0, 1))):
        monkeypatch.setattr(pdwg.system, "_KERNEL_CUTOFF", value)
        assert reduced.kernel_dims() == dims, value


@pytest.mark.parametrize("a", NO_CANDIDATE, ids=["1+x", "exp(y)"])
def test_near_kernel_of_a_variable_coefficient_is_not_projected_out(a):
    # at k=3, n=8 the Schur matrix's smallest singular value ratio is
    # 9.0e-16 (1 + x) and 1.5e-16 (exp(y)), the ill-posed problem's
    # near-kernel, not a kernel: solve must return the LU's solution, not
    # one with a direction projected out.  t3's data do not fit these
    # coefficients, so lam_h is large (|lam| 2.5e12 and 1.3e13) and two
    # LUs agree only loosely.  Measured against an LU of the free-dof
    # matrix: u 9.1e-4 and 2.2e-3, lam 7.8e-4 and 1.5e-3 relative (a
    # projected solve: 0.98 to 1.0), and relative residuals 5.9e-17 and
    # 4.5e-17 on the full matrix (projected: 1.2e-14 and 4.8e-15)
    system = catalog_system("t3", 3, 8, a)
    assert _Condensation(system).kernel_dims() == (0, 0)
    nf = len(system.u_free)
    u_h, lam_h = solve(system)
    got = np.concatenate([u_h.coeffs[system.u_free], lam_h.coeffs[system.lam_free]])
    want = spla.splu(system.matrix).solve(system.rhs)
    assert rel(got[:nf], want[:nf]) <= 0.2 and rel(got[nf:], want[nf:]) <= 0.2
    scale = np.linalg.norm(system.rhs) + _one_norm(system.matrix) * np.linalg.norm(got)
    assert np.linalg.norm(system.matrix @ got - system.rhs) <= 1e-15 * scale


@pytest.mark.parametrize("n", [1, 2, 4, 8])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("case_id", ["t3", "t4", "t5"])
def test_projected_gauge_solve_matches_the_bordered_solve(case_id, k, n):
    # the oracle: the bordered matrix [[A, v], [v^T, 0]], factored here
    # with the kernel vector v that solve projects out (at k=2 recovered
    # from the Schur matrix's), returns the representative with v.x = 0,
    # the one solve's projection picks from the singular LU.  Largest
    # relative differences measured, all at t3, k=2, n=8 (where the exact
    # multiplier is 0 and the discrete one is small): 5.7e-12 on u, 2.4e-7
    # on lam and 9.9e-13 for v.x against |lam|; the bounds keep 170x, 8x
    # and 10x
    system = catalog_system(case_id, k, n)
    matrix, nf, n_free = system.matrix, len(system.u_free), system.n_free
    _, v = solve_path(system)
    col = sp.csc_matrix(v.reshape(-1, 1))
    bordered = sp.bmat([[matrix, col], [col.T, None]], format="csc")
    want = spla.splu(bordered).solve(np.append(system.rhs, 0.0))[:n_free]
    u_h, lam_h = solve(system)
    got_u, got_lam = u_h.coeffs[system.u_free], lam_h.coeffs[system.lam_free]
    assert rel(got_u, want[:nf]) <= 1e-9
    assert rel(got_lam, want[nf:]) <= 2e-6
    assert abs(v[nf:] @ got_lam) <= 1e-11 * np.linalg.norm(got_lam)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("case_id", case_ids())
def test_condensed_solve_matches_the_full_path(case_id, k):
    # the full path, an LU of the whole free-dof matrix (full_lu_solve), is
    # the reference for static condensation.  Largest relative differences
    # measured over n = 1, 2, 4: u 3.0e-14 at k=1 (t14c, n=4), 1.2e-11 at
    # k=2 (t3, n=2) and 4.5e-10 at k=3 (t2, n=4); lam 3.7e-13 at k=1 (t13,
    # n=4), 3.8e-9 at k=2 (t3, n=4) and 2.5e-7 at k=3 (t6, n=4), leaving out
    # the polynomial-exact cases, whose multiplier is pure roundoff.
    # Relative residuals on the full matrix (kernel image projected out)
    # reach 9.1e-17 at k=1 (t3, n=4) and 7.1e-15 at k >= 2 (t3, k=2, n=4),
    # condensed, and 1.2e-15 on the full path.  Every bound keeps at least
    # 10x.  t3-t5 at k=3 have a two-dimensional gauge kernel, where solve
    # factors the natural and the bordered matrix as the oracle does, bit
    # for bit
    exact = polynomial_exact(case_id, k)
    for n in (1, 2, 4):
        system = catalog_system(case_id, k, n)
        nf, norm = len(system.u_free), _one_norm(system.matrix)
        u_h, lam_h = solve(system)
        got = np.concatenate([u_h.coeffs[system.u_free], lam_h.coeffs[system.lam_free]])
        want, v = full_lu_solve(system.matrix, system.rhs, catalog_kernel(case_id, k)[1])
        if case_id in ("t3", "t4", "t5") and k == 3:
            assert np.array_equal(got, want)
            continue
        assert rel(got[:nf], want[:nf]) <= {1: 3e-13, 2: 5e-10, 3: 5e-9}[k]
        if not exact:
            assert rel(got[nf:], want[nf:]) <= {1: 5e-12, 2: 1e-7, 3: 5e-6}[k]
        for x in (got, want):
            residual = system.matrix @ x - system.rhs
            if v is not None:
                residual = residual - (residual @ v) * v
            scale = np.linalg.norm(system.rhs) + norm * np.linalg.norm(x)
            assert np.linalg.norm(residual) <= 1e-13 * scale


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("case_id", ["t6", "t3"])
def test_inverse_of_a_block_is_that_of_its_columns(case_id, k):
    # _inverse's function applied to an (n, 8) block at once and to its
    # columns one at a time.  A block goes through the class products, the
    # gauge projection and SuperLU's triangular solves as a matrix, and the
    # BLAS kernel decides the order in which those sum, so the two agree to
    # roundoff.  Measured max |block - columns| / max |columns| over n = 1,
    # 2, 4 under the default kernel, OPENBLAS_CORETYPE=Haswell, Prescott and
    # Sandybridge, and numpy's AVX-512 dispatch off: at most 2.5e-15 on the
    # regular path (t6), 2.2e-14 along one gauge direction (t3, k <= 2), and
    # 1.3e-10 along two (t3, k=3), whose bordered LU of the natural matrix
    # leaves the second direction to roundoff.  The bounds keep 10x, 11x
    # and 7.7x
    bounds = {0: 2.5e-14, 1: 2.5e-13, 2: 1e-9}
    rng = np.random.default_rng(k)
    for n in (1, 2, 4):
        system = catalog_system(case_id, k, n)
        reduced, gauge_dim = _decide_kernel(system)
        inverse = _inverse(system, reduced, gauge_dim)[0]
        b = rng.standard_normal((system.n_free, 8))
        block = inverse(b)
        columns = np.column_stack([inverse(col) for col in b.T])
        assert block.shape == b.shape
        assert np.abs(block - columns).max() <= bounds[gauge_dim] * np.abs(columns).max(), n


@pytest.mark.parametrize("case_id,k,factors", [("t6", 1, 1), ("t3", 2, 1), ("t3", 3, 2)])
def test_all_factoring_happens_inside_inverse(monkeypatch, case_id, k, factors):
    # the kernel step factors nothing, and drops the condensation where
    # two gauge directions (t3 at k=3) send the solve to the natural
    # matrix.  _inverse factors the Schur matrix once, or there the natural
    # and the bordered matrix; its function, applied to an (n, 8) block and
    # then to the 8 columns one at a time, factors nothing more
    calls = record_factorizations(monkeypatch)
    system = catalog_system(case_id, k, 4)
    reduced, gauge_dim = _decide_kernel(system)
    assert calls == [] and (reduced is None) == (gauge_dim > 1) == (k == 3)
    inverse, _ = _inverse(system, reduced, gauge_dim)
    assert len(calls) == factors
    b = np.random.default_rng(k).standard_normal((system.n_free, 8))
    inverse(b)
    for col in b.T:
        inverse(col)
    assert len(calls) == factors


@pytest.mark.parametrize("k", [1, 2, 3])
def test_condensation_per_class_matches_per_triangle(k):
    # Mesh(m.vertices, m.triangles) is the uniform mesh as a general mesh:
    # the same local matrices, but one congruence class per triangle, so
    # it is condensed triangle by triangle.  Measured over the catalog at
    # n <= 4: the Schur matrices differ by at most 8.9e-16 of their largest
    # entry (t1, k=3, n=2); u by 2.3e-14, 1.6e-12 and 1.7e-10, lam by
    # 1.3e-13, 5.0e-9 and 2.2e-9 relative at k = 1, 2, 3, leaving out the
    # polynomial-exact cases' multiplier, which is pure roundoff.  Every
    # bound keeps at least 10x.  t3-t5 at k=3 solve on the full matrix,
    # which reads the per-triangle tables, so there they agree bit for bit
    for case_id in case_ids():
        case = get_case(case_id)
        exact = polynomial_exact(case_id, k)
        for n in (1, 2, 4):
            uniform = build_uniform_mesh(n)
            results = []
            for mesh, n_classes in ((uniform, 2), (Mesh(uniform.vertices, uniform.triangles),
                                                   uniform.n_triangles)):
                config = classify_boundary(mesh, case.dirichlet_sides, case.neumann_sides)
                system = assemble(config, case, LocalOperators(mesh, k, case.a))
                condensed = _Condensation(system)
                assert len(condensed.coupling) == len(condensed.inverse) == n_classes
                u_h, lam_h = solve(system)
                results.append((condensed.matrix.toarray(), u_h.coeffs, lam_h.coeffs))
            (schur, u, lam), (want_schur, want_u, want_lam) = results
            assert np.abs(schur - want_schur).max() <= 1e-14 * np.abs(want_schur).max()
            if case_id in ("t3", "t4", "t5") and k == 3:
                assert np.array_equal(u, want_u) and np.array_equal(lam, want_lam)
                continue
            assert rel(u, want_u) <= {1: 3e-13, 2: 2e-11, 3: 2e-9}[k], (case_id, n)
            if not exact:
                assert rel(lam, want_lam) <= {1: 2e-12, 2: 5e-8, 3: 3e-8}[k], (case_id, n)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_condensation_eliminates_in_an_orthonormal_interior_basis(k):
    # R = L^-T with L L^T = mass_k / area makes each triangle's interior
    # basis orthonormal (up to the area), which takes the interior block's
    # condition number from 37 (k=1), 2.5e4 (k=2) and 3.9e6 (k=3) to 2.1,
    # 6.1 and 16.3.  The basis is one per congruence class, taken from the
    # class's representative, and must be orthonormal for every member.
    # The inverse kept in the original coordinates is M_II^-1 of each
    # class: max |M_II M_II^-1 - I| measured 4.4e-16, 7.4e-14 and 1.8e-12
    # at k = 1, 2, 3; the bounds keep 10x
    system = catalog_system("t6", k, 4)
    condensed = _Condensation(system)
    ops, dim = system.ops, system.ops.dofmap.interior_dim
    reps = ops.class_members[:, 0]
    groups = ops.input_groups[reps]
    chol = np.linalg.cholesky(ops.group_mass_k[groups] / ops.mesh.tri_areas[reps, None, None])
    r = np.linalg.inv(chol).swapaxes(1, 2)
    assert r.shape == (2, dim, dim)
    mass = ops.group_mass_k[ops.input_groups] / ops.mesh.tri_areas[:, None, None]
    member_r = r[ops.classes]
    assert np.allclose(member_r.swapaxes(1, 2) @ mass @ member_r, np.eye(dim), rtol=0.0, atol=1e-12)
    # the interior block, both fields, has in that basis the condition
    # number above
    local = _coupled(ops.group_stabilizers[groups], ops.group_diffusion_forms[groups])
    interior = np.arange(local.shape[-1]).reshape(2, -1)[:, :dim].ravel()
    m_ii = local[:, interior[:, None], interior]
    basis = np.zeros((2, 2 * dim, 2 * dim))
    basis[:, :dim, :dim] = basis[:, dim:, dim:] = r
    assert np.linalg.cond(basis.swapaxes(1, 2) @ m_ii @ basis).max() <= 100
    error = np.abs(m_ii @ condensed.inverse - np.eye(2 * dim)).max(axis=(1, 2))
    assert np.all(error <= {1: 5e-15, 2: 1e-12, 3: 2e-11}[k])


def test_primal_non_uniqueness_is_reported_before_factoring(monkeypatch):
    calls = record_factorizations(monkeypatch)
    with pytest.raises(SingularSystemError, match="primal field is not unique"):
        solve(no_boundary_data_system())
    assert calls == []


@pytest.mark.parametrize("change,message", [
    pytest.param(lambda x, rng: np.full_like(x, np.nan),
                 "direct solver produced a non-finite solution", id="non-finite"),
    pytest.param(lambda x, rng: x + 1e-6 * np.linalg.norm(x) * rng.standard_normal(len(x)),
                 r"solver residual \S+ exceeds 1e-09 \* \S+$", id="residual"),
])
def test_solve_rejects_a_solution_that_fails_its_check(monkeypatch, change, message):
    # the factorization and solve succeed, but the solution they hand back
    # is changed: a non-finite entry, or a relative residual of about 1e-6,
    # far above _RESIDUAL_TOL, raises with its own message
    rng = np.random.default_rng(0)
    real_solve = _Condensation.solve
    monkeypatch.setattr(_Condensation, "solve",
                        lambda self, lu, rhs: change(real_solve(self, lu, rhs), rng))
    with pytest.raises(SingularSystemError, match=message):
        solve(catalog_system("t6", 1, 2))


@pytest.mark.parametrize("case_id", ["t3", "t4", "t5"])
def test_bordered_matrix_is_the_bmat_one_bit_for_bit(case_id):
    # the fallback of a two-dimensional gauge kernel borders the natural
    # matrix with its LU's null direction; built in place, the bordered
    # matrix has the indptr, indices and data of sp.bmat's CSC result,
    # which leaves the exact zeros of the column unstored
    matrix = catalog_system(case_id, 3, 2).matrix
    v = _null_direction(spla.splu(matrix))
    for col in (v, np.where(np.arange(len(v)) % 3 == 0, 0.0, v)):
        sparse = sp.csc_matrix(col.reshape(-1, 1))
        want = sp.bmat([[matrix, sparse], [sparse.T, None]], format="csc")
        got = _bordered(matrix, col)
        assert got.format == "csc" and got.shape == want.shape
        for part in ("indptr", "indices", "data"):
            assert getattr(got, part).dtype == getattr(want, part).dtype
            assert getattr(got, part).tobytes() == getattr(want, part).tobytes()


class NoFactorCopies:
    """Stands in for a SuperLU object; building the L or U copy fails."""

    def __init__(self, lu):
        self._lu = lu

    def __getattr__(self, name):
        if name in ("L", "U"):
            raise AssertionError(f"the factorization's {name} was copied")
        return getattr(self._lu, name)


@pytest.mark.parametrize("case_id,k,solve_calls,estimate_calls", [
    pytest.param("t6", 1, 1, 1, id="t6-1"),
    pytest.param("t3", 1, 1, 1, id="t3-2"),
    pytest.param("t3", 3, 2, 0, id="t3-k3"),
])
def test_one_factorization_alive_and_no_factor_copies(monkeypatch, case_id, k, solve_calls,
                                                      estimate_calls):
    # solve and condition_estimate never read L or U, and free each
    # factorization before the next one starts.  solve factors once at k=1,
    # t3's gauge included; at k=3 t3's two gauge directions send it to the
    # full and the bordered LU, the first freed before the second, and the
    # condensation is never factored.  condition_estimate factors the Schur
    # matrix once at k=1, as solve does; at k=3 the two directions make the
    # estimate +inf unfactored
    real_splu = spla.splu
    made = []

    def splu(*args, **kwargs):
        assert all(ref() is None for ref in made), "an earlier factorization is alive"
        lu = NoFactorCopies(real_splu(*args, **kwargs))
        made.append(weakref.ref(lu))
        return lu

    monkeypatch.setattr(pdwg.system.spla, "splu", splu)
    system = catalog_system(case_id, k, 8)
    assert system.n_free > pdwg.system._DENSE_COND_LIMIT
    solve(system)
    assert len(made) == solve_calls
    assert math.isfinite(condition_estimate(system)) == (k == 1)
    assert len(made) == solve_calls + estimate_calls


@pytest.mark.parametrize("case_id,k", [("t6", 1), ("t3", 2)])
def test_solve_frees_its_lu_before_the_check_and_its_condensation_on_return(monkeypatch,
                                                                            case_id, k):
    # the Schur LU goes before the residual check, the condensation only on
    # return: freed earlier, its pages go back to the system and the next
    # level faults them in again.  t6 has no gauge kernel, t3 at k=2 one
    real_splu, real_product = spla.splu, pdwg.system._local_product
    made, built, checks = [], [], []

    def splu(*args, **kwargs):
        lu = NoFactorCopies(real_splu(*args, **kwargs))
        made.append(weakref.ref(lu))
        return lu

    class RecordingCondensation(_Condensation):
        def __init__(self, system):
            super().__init__(system)
            built.append(weakref.ref(self))

    def local_product(*args):
        assert made and all(ref() is None for ref in made), "an LU is alive in the check"
        assert len(built) == 1 and built[0]() is not None, "the condensation is gone"
        checks.append(1)
        return real_product(*args)

    monkeypatch.setattr(pdwg.system.spla, "splu", splu)
    monkeypatch.setattr(pdwg.system, "_Condensation", RecordingCondensation)
    monkeypatch.setattr(pdwg.system, "_local_product", local_product)
    solve(catalog_system(case_id, k, 4))
    assert len(checks) == 1
    assert built[0]() is None


def record_factorizations(monkeypatch):
    """Route pdwg.system's splu through a recorder: one (number of
    positional arguments, keyword arguments, LU fill, order) per call."""
    real_splu = spla.splu
    calls = []

    def splu(*args, **kwargs):
        lu = real_splu(*args, **kwargs)
        calls.append((len(args), kwargs, lu.nnz, lu.shape[0]))
        return lu

    monkeypatch.setattr(pdwg.system.spla, "splu", splu)
    return calls


@pytest.mark.parametrize("k", [1, 2, 3])
def test_ordered_lu_for_schur_matrices_and_defaults_for_full_ones(monkeypatch, k):
    # the Schur matrix, numbered in the mesh's nested-dissection order, is
    # factored in that order in symmetric mode at every degree, by solve and
    # condition_estimate alike; the natural free-dof matrix (the fallback of
    # t3's two-dimensional gauge kernel at k=3, and its bordered extension)
    # keeps SuperLU's defaults.  The gauge (t3) factorizations included
    calls = record_factorizations(monkeypatch)
    ordered = dict(permc_spec="NATURAL", diag_pivot_thresh=0.1,
                   options=dict(SymmetricMode=True))
    for case_id in ("t6", "t3"):
        system = catalog_system(case_id, k, 4)
        start = len(calls)
        solve(system)
        condition_estimate(system)
        schur = system.n_free - 2 * system.ops.dofmap.n_interior
        for n_args, kwargs, _, order in calls[start:]:
            assert n_args == 1
            assert order in {schur, system.n_free, system.n_free + 1}
            assert kwargs == (ordered if order == schur else {})
    # t6: 1 + 1; t3: 1 + 1, and 2 + 0 at k=3, where solve factors the full
    # and the bordered matrix and condition_estimate returns +inf unfactored
    assert len(calls) == 4


@pytest.mark.parametrize("k,n", [(1, 16), (2, 8)])
def test_gauge_solve_factors_once(monkeypatch, k, n):
    # a one-dimensional gauge kernel is projected out of the solve on the
    # LU that found it, that of the Schur matrix on the free edge dofs: no
    # second, bordered factorization
    calls = record_factorizations(monkeypatch)
    system = catalog_system("t3", k, n)
    solve(system)
    assert len(calls) == 1
    assert calls[0][3] == system.n_free - 2 * system.ops.dofmap.n_interior


@pytest.mark.parametrize("case_id,k,builds", [
    pytest.param("t6", 1, 0, id="t6-k1"),
    pytest.param("t3", 1, 0, id="t3-k1"),
    pytest.param("t6", 2, 0, id="t6-k2"),
    pytest.param("t3", 2, 0, id="t3-k2"),
    pytest.param("t6", 3, 0, id="t6-k3"),
    pytest.param("t3", 3, 1, id="t3-k3"),
])
def test_full_matrix_built_only_where_solve_factors_it(monkeypatch, case_id, k, builds):
    # assemble builds no free-dof matrix; solve builds it only for the
    # fallback of a two-dimensional gauge kernel (t3 at k=3, natural order),
    # without keeping it on the system, and otherwise factors the Schur
    # matrix and checks its residual from the local matrices.
    # condition_estimate builds it nowhere
    real_sparse_sum = pdwg.system._sparse_sum
    shapes = []

    def sparse_sum(rows, cols, vals, shape):
        shapes.append(shape)
        return real_sparse_sum(rows, cols, vals, shape)

    monkeypatch.setattr(pdwg.system, "_sparse_sum", sparse_sum)
    system = catalog_system(case_id, k, 4)
    full = (system.n_free, system.n_free)
    assert full not in shapes
    condition_estimate(system)
    assert full not in shapes
    solve(system)
    assert shapes.count(full) == builds
    assert "matrix" not in vars(system)


@pytest.mark.parametrize("case_id,k", [("t3", 2), ("t1", 3), ("t6", 3)])
def test_schur_numbering_is_one_sort_key(case_id, k):
    # the free edge unknowns are numbered by the key (unpaired, nested-
    # dissection rank of the edge, field, slot in the edge block), an
    # unknown being unpaired when the other field of its edge dof is fixed,
    # and each triangle's edge_pos reads that numbering off the free-dof
    # positions.  All three fix u edge dofs and lam edge dofs; t6 fixes both
    # on the same edges, so it has no unpaired unknown and its order is the
    # (rank, field, slot) one
    system = catalog_system(case_id, k, 4)
    reduced = _Condensation(system)
    ops, nf, n = system.ops, len(system.u_free), system.n_free
    dofmap = ops.dofmap
    n_int, edim = dofmap.n_interior, dofmap.edge_dim
    assert nf < dofmap.n_dofs and n - nf < dofmap.n_dofs
    assert np.array_equal(np.sort(reduced.numbered), np.r_[n_int:nf, nf + n_int:n])
    rank = np.argsort(ops.mesh.nested_dissection)
    dofs = np.concatenate([system.u_free, system.lam_free])[reduced.numbered] - n_int
    unpaired = ~np.isin(dofs, system.u_free - n_int) | ~np.isin(dofs, system.lam_free - n_int)
    # increasing keys put every unpaired unknown after every paired one
    keys = list(zip(unpaired, rank[dofs // edim], reduced.numbered >= nf, dofs % edim))
    assert all(a < b for a, b in zip(keys, keys[1:]))
    if case_id == "t6":
        assert not unpaired.any()
    else:
        assert 0 < unpaired.sum() < len(unpaired)
    cols = np.arange(system.positions.shape[1]).reshape(2, -1)[:, dofmap.interior_dim:].ravel()
    natural = system.positions[:, cols]
    free = natural >= 0
    assert np.array_equal(reduced.edge_pos >= 0, free)
    assert np.array_equal(reduced.numbered[reduced.edge_pos[free]], natural[free])


@pytest.mark.parametrize("case_id,k,before", [("t1", 3, 275120), ("t3", 2, 134982),
                                              ("t13", 3, 247756), ("t6", 3, 148096)])
def test_unpaired_last_cuts_the_schur_lu_fill(case_id, k, before):
    # numbering the unpaired unknowns last keeps SuperLU's pivots in the
    # nested-dissection structure.  SuperLU.nnz of the Schur LU at n=8,
    # measured with the (rank, field, slot) order that numbered them among
    # the paired ones, and with them last: t1, k=3 275,120 -> 200,896;
    # t3, k=2 134,982 -> 105,198; t13, k=3 247,756 -> 182,432.  t6 has no
    # unpaired unknown, so its order and its LU (148,096) are the same
    reduced = _Condensation(catalog_system(case_id, k, 8))
    nnz = spla.splu(reduced.matrix, **_ORDERED_LU).nnz
    if case_id == "t6":
        assert nnz == before
    else:
        assert nnz < before


@pytest.mark.parametrize("k", [1, 2])
def test_halves_before_the_top_separator_do_not_couple(k):
    # t6 at n=8 is first cut at the vertical grid line x = 1/2.  In the
    # Schur matrix that solve factors the unknowns of the edges left of it
    # come first, then those right of it, then those on it, and no entry
    # couples the two halves
    system = catalog_system("t6", k, 8)
    reduced = _Condensation(system)
    mesh, dofmap = system.ops.mesh, system.ops.dofmap
    dofs = np.concatenate([system.u_free, system.lam_free])[reduced.numbered]
    x = mesh.edge_midpoints[(dofs - dofmap.n_interior) // dofmap.edge_dim, 0]
    part = np.select([x < 0.5, x > 0.5], [0, 1], 2)
    assert np.all(np.diff(part) >= 0)
    left, right = np.searchsorted(part, [1, 2])
    assert 0 < left < right < len(part)
    assert reduced.matrix[:left, left:right].nnz == 0
    assert reduced.matrix[:left, right:].nnz > 0 and reduced.matrix[left:right, right:].nnz > 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_ordered_solve_matches_the_default_lu_on_a_jittered_mesh(k):
    # on the jittered mesh no grid line separates the nodes exactly, so the
    # order is only a permutation: solve agrees with an LU of the same
    # matrix under SuperLU's defaults to roundoff.  Largest relative
    # differences measured, the unpaired unknowns numbered last: u 9.7e-15,
    # 4.2e-13, 9.5e-12 and lam 2.1e-13, 6.5e-11, 3.7e-9 at k = 1, 2, 3;
    # every bound keeps at least 10x
    mesh = jittered_mesh()
    for a in COEFFICIENTS.values():
        case = dataclasses.replace(get_case("t6"), a=a, dirichlet_sides=("bottom", "left"),
                                   neumann_sides=("bottom", "right"))
        config = classify_boundary(mesh, case.dirichlet_sides, case.neumann_sides)
        system = assemble(config, case, LocalOperators(mesh, k, case.a))
        nf = len(system.u_free)
        u_h, lam_h = solve(system)
        got = np.concatenate([u_h.coeffs[system.u_free], lam_h.coeffs[system.lam_free]])
        reduced = _Condensation(system)
        want = reduced.solve(spla.splu(reduced.matrix), system.rhs)
        assert rel(got[:nf], want[:nf]) <= {1: 2e-13, 2: 5e-12, 3: 2e-10}[k]
        assert rel(got[nf:], want[nf:]) <= {1: 1e-11, 2: 1e-9, 3: 1e-7}[k]


def local_systems(k):
    """The catalog at n <= 4, and the jittered mesh with every coefficient
    and Cauchy data on the bottom, Dirichlet data on the left and flux data
    on the right."""
    for case_id in case_ids():
        for n in (1, 2, 4):
            yield catalog_system(case_id, k, n)
    mesh = jittered_mesh()
    for a in COEFFICIENTS.values():
        case = dataclasses.replace(get_case("t6"), a=a, dirichlet_sides=("bottom", "left"),
                                   neumann_sides=("bottom", "right"))
        config = classify_boundary(mesh, case.dirichlet_sides, case.neumann_sides)
        yield assemble(config, case, LocalOperators(mesh, k, case.a))


def one_group_per_triangle(ops):
    """A copy of the context ops with one input group per triangle, each
    group table gathered to the triangles, so that a test can set every
    triangle's local matrices on their own."""
    ops = copy.copy(ops)
    for name in [name for name in vars(ops) if name.startswith("group_")]:
        setattr(ops, name, getattr(ops, name)[ops.input_groups])
    ops.input_reps = ops.input_groups = np.arange(ops.mesh.n_triangles)
    return ops


def with_random_local_matrices(system, rng):
    """system with random local matrices in place of s_T and b_T, whose
    signs, unlike those of s_T and b_T, cancel in the entries that the two
    triangles of an interior edge sum."""
    ops = one_group_per_triangle(system.ops)
    shape = (2,) + ops.group_stabilizers.shape
    ops.group_stabilizers, ops.group_diffusion_forms = rng.standard_normal(shape)
    return dataclasses.replace(system, ops=ops)


def coo_matrix_of(rows, cols, vals, shape):
    """The COO matrix of stacked local matrices vals at row positions rows
    and column positions cols, -1 positions dropped: scipy's conversions of
    it are what _sparse_sum must give bit for bit."""
    r = np.repeat(rows, cols.shape[1], axis=1).ravel()
    c = np.tile(cols, (1, rows.shape[1])).ravel()
    keep = (r >= 0) & (c >= 0)
    return sp.coo_matrix((vals.ravel()[keep], (r[keep], c[keep])), shape=shape)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sparse_assembly_is_scipys_coo_conversion_bit_for_bit(monkeypatch, k):
    # the Dirichlet lift, the Schur matrix and the free-dof matrix of the
    # catalog at n <= 4 and of the jittered mesh, and the free-dof matrix of
    # local matrices in {-1, 0, 1}, whose sums cancel: each has the indptr,
    # indices and data of scipy's COO to CSC conversion, explicit zeros
    # included, and so has its CSR form
    calls = []

    def recorded(build):
        def record(*args):
            out = build(*args)
            calls.append((args, out))
            return out
        return record

    monkeypatch.setattr(pdwg.system, "_sparse_sum", recorded(pdwg.system._sparse_sum))
    rng = np.random.default_rng(k)
    n_systems = 0
    for system in local_systems(k):
        _Condensation(system)
        ops = one_group_per_triangle(system.ops)
        shape = (2,) + ops.group_stabilizers.shape
        ops.group_stabilizers, ops.group_diffusion_forms = rng.integers(-1, 2, shape).astype(float)
        for built in (system, dataclasses.replace(system, ops=ops)):
            assert built.matrix.shape == (built.n_free, built.n_free)
        n_systems += 1
    explicit_zeros = 0
    for args, got in calls:
        coo = coo_matrix_of(*args)
        for mine, want in ((got.tocsc(), coo.tocsc()), (got.tocsr(), coo.tocsr())):
            assert mine.format == want.format and mine.shape == want.shape
            for part in ("indptr", "indices", "data"):
                assert getattr(mine, part).dtype == getattr(want, part).dtype
                assert getattr(mine, part).tobytes() == getattr(want, part).tobytes()
        explicit_zeros += np.count_nonzero(got.data == 0.0)
    # per system: the lift, the Schur matrix and two free-dof matrices
    assert len(calls) == 4 * n_systems
    assert explicit_zeros > 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_local_residual_and_norm_match_the_matrix(k):
    # the residual check of solve applies the local matrices and takes the
    # 1-norm from them; both agree with the assembled matrix to roundoff,
    # column by column, the entries two triangles sum included
    rng = np.random.default_rng(k)
    for assembled in local_systems(k):
        for system in (assembled, with_random_local_matrices(assembled, rng)):
            matrix = system.matrix
            want = np.asarray(abs(matrix).sum(axis=0)).ravel()
            sums = _local_column_sums(system)
            assert np.all(np.abs(sums - want) <= 1e-14 * want)
            # the largest sum is the matrix's 1-norm to 4 ulp (3 measured)
            norm = _one_norm(matrix)
            assert abs(sums.max() - norm) <= 4 * np.spacing(norm)
            x = rng.standard_normal(system.n_free)
            bound = abs(matrix) @ np.abs(x)
            assert np.all(np.abs(_local_product(system, x) - matrix @ x) <= 1e-13 * bound)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("mesh_name", ["uniform", "jittered"])
def test_lift_from_the_dirichlet_triangles_is_the_all_triangle_lift(mesh_name, k):
    # assemble builds the lift columns from the triangles that hold a fixed
    # u dof only; the rhs is byte for byte the one that the lift columns of
    # all triangles give, with the load and flux data of the same case
    # without Dirichlet values, whose rhs holds no lift
    mesh = build_uniform_mesh(8) if mesh_name == "uniform" else jittered_mesh()
    case = dataclasses.replace(get_case("t6"), dirichlet_sides=("bottom", "left"),
                               neumann_sides=("bottom", "right"))
    config = classify_boundary(mesh, case.dirichlet_sides, case.neumann_sides)
    ops = LocalOperators(mesh, k, case.a)
    system = assemble(config, case, ops)
    unlifted = assemble(config, dataclasses.replace(case, u=lambda x, y: np.zeros_like(x)),
                        ops).rhs
    up = np.flatnonzero(ops.dofmap.fixed_masks(config)[0])
    pp, groups = _positions(ops, up), ops.input_groups
    assert np.any(np.all(pp < 0, axis=1))
    lift = _sparse_sum(system.positions, pp,
                       np.concatenate([ops.group_stabilizers[groups],
                                       ops.group_diffusion_forms[groups]], axis=1),
                       (system.n_free, len(up))).tocsr() @ system.u_fixed_values[up]
    nf = len(system.u_free)
    assert not np.any(unlifted[:nf])
    want = np.concatenate([lift[:nf], unlifted[nf:] - lift[nf:]])
    assert system.rhs.tobytes() == want.tobytes()


# what a context keeps per triangle: its quadrature and the kernel inputs
# made from it, the dof layout, the input groups and the congruence classes;
# the edge rule is kept per edge
PER_TRIANGLE = {"tri_pts", "tri_wts", "normals", "h", "cell_dofs", "input_groups", "classes"}


def test_no_per_triangle_table_outlives_the_call_that_reads_it():
    # solve and error_report gather the table rows of each triangle inside
    # the call that reads them; nothing gathered stays on the context
    case = get_case("t6")
    mesh = build_uniform_mesh(8)
    config = classify_boundary(mesh, case.dirichlet_sides, case.neumann_sides)
    ops = LocalOperators(mesh, 2, case.a)
    u_h, lam_h = solve(assemble(config, case, ops))
    error_report(u_h, lam_h, case.u, config, ops)
    per_triangle = {name for name, value in vars(ops).items()
                    if isinstance(value, np.ndarray) and value.ndim
                    and len(value) == mesh.n_triangles}
    assert per_triangle == PER_TRIANGLE
