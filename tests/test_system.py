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
from pdwg.mesh import BoundaryConfig, build_uniform_mesh, classify_boundary
from pdwg.norms import (error_fields, interior_l2_norm, residual_norm_multiplier,
                        residual_norm_primal)
from pdwg.system import (
    SingularSystemError,
    _Condensation,
    _factor,
    _gauge_kernel,
    _local_column_sums,
    _local_product,
    _one_norm,
    _solve_condensed,
    _solve_full,
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
    n_lam_free = dm.n_dofs - 2 * len(config.gamma_n_complement_edges)
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


def test_condition_estimate_identity_and_scaled():
    import scipy.sparse as sp

    class Tiny:
        pass

    system = Tiny()
    system.matrix = sp.csr_matrix(np.array([[2.0]]))
    assert condition_estimate(system) == pytest.approx(1.0, rel=1e-12)


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
    # t3's multiplier gauge is factored out rather than inverted
    case = get_case("t3")
    mesh = build_uniform_mesh(2)
    config = classify_boundary(mesh, case.dirichlet_sides, case.neumann_sides)
    system = assemble(config, case, LocalOperators(mesh, 1, case.a))
    first = condition_estimate(system)
    assert 1.0 < first < 1e8
    assert condition_estimate(system) == first


def test_condition_estimate_primal_non_uniqueness_is_infinite():
    assert condition_estimate(no_boundary_data_system()) == math.inf


def test_condition_estimate_singular_sentinel():
    import scipy.sparse as sp

    class Tiny:
        pass

    system = Tiny()
    system.matrix = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
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


def catalog_system(case_id, k, n):
    case = get_case(case_id)
    mesh = build_uniform_mesh(n)
    config = classify_boundary(mesh, case.dirichlet_sides, case.neumann_sides)
    return assemble(config, case, LocalOperators(mesh, k, case.a))


def kernel_test(case_id, k, n, second=False):
    """_gauge_kernel on the factorization that solve makes first: of the
    full free-dof matrix at k=1, of the Schur matrix on the free edge dofs
    at k >= 2.  With second, the projected probe for a second direction,
    as solve runs it once a first one is found (None without a first one)."""
    system = catalog_system(case_id, k, n)
    if k == 1:
        matrix, n_primal = system.matrix, len(system.u_free)
    else:
        condensed = _Condensation(system)
        matrix, n_primal = condensed.matrix, condensed.n_primal
    norm = _one_norm(matrix)
    lu = _factor(matrix, system.ops.k)
    found = _gauge_kernel(lu, matrix, n_primal, norm)
    if not second or found is None:
        return found
    return _gauge_kernel(lu, matrix, n_primal, norm, found=found)


def rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def solve_path(system):
    """The free-dof solution and gauge kernel vector (None without one) of
    the path solve takes: condensed at k >= 2 unless the gauge kernel is
    two-dimensional, full otherwise."""
    solution = _solve_condensed(system) if system.ops.k >= 2 else None
    if solution is None:
        solution = _solve_full(system.matrix, system.rhs, system.ops.k, len(system.u_free),
                               _one_norm(system.matrix))
    return solution


def test_kernel_tolerance_keeps_a_decade_on_both_sides(monkeypatch):
    # the kernel test cuts between the relative probe residuals of regular
    # and gauge-singular systems: the smallest regular one at n <= 16 (t1,
    # k=3, n=16: 2.1e-10 on the Schur matrix; the full matrix reads 4.8e-11)
    # and the largest gauge one at n <= 32 (t3, k=1, n=32, full matrix:
    # 2.9e-16) must both stay a factor 10 clear of the cutoff.  (t1 at k=3,
    # n=32 reads 2.8e-12, also a decade clear, but takes 6 s)
    tol = pdwg.system._KERNEL_TOL
    monkeypatch.setattr(pdwg.system, "_KERNEL_TOL", 10 * tol)
    assert kernel_test("t1", 3, 16) is None
    monkeypatch.setattr(pdwg.system, "_KERNEL_TOL", tol / 10)
    assert kernel_test("t3", 1, 32) is not None


def test_kernel_test_flags_exactly_the_gauge_cases():
    # only t3-t5 leave the multiplier a kernel (lam = x, and a second
    # direction at k=3).  On the matrix solve factors first, gauge levels
    # read at most 2.4e-16 at k >= 2 (t3, k=3, n=32) and regular ones at
    # least 2.1e-10 (t1, k=3, n=16)
    flagged = {
        (case_id, k, n)
        for case_id in case_ids() for k in (1, 2, 3) for n in (1, 2, 4)
        if kernel_test(case_id, k, n) is not None
    }
    assert flagged == {
        (case_id, k, n) for case_id in ("t3", "t4", "t5") for k in (1, 2, 3) for n in (1, 2, 4)
    }


def test_second_probe_flags_exactly_the_two_dimensional_kernels():
    # with the first kernel direction projected out, a second probe finds
    # one only where the gauge kernel is two-dimensional: t3-t5 at k=3
    # (lam = x (y-1)^2 - x^3/3).  On the Schur matrix its relative residual
    # reads at most 3.5e-16 at k=3 (n = 1..8; 4.6e-16 at n=32), 20x under
    # the cutoff, and at least 1.4e-8 at k=2 (t3-t5, n=16; 7.6e-11 at
    # n=32); on the full matrix at k=1 at least 2.5e-6 (n=32)
    flagged = {
        (case_id, k, n)
        for case_id in case_ids() for k in (1, 2, 3) for n in (1, 2, 4)
        if kernel_test(case_id, k, n, second=True) is not None
    }
    assert flagged == {(case_id, 3, n) for case_id in ("t3", "t4", "t5") for n in (1, 2, 4)}


@pytest.mark.parametrize("n", [1, 2, 4, 8])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("case_id", ["t3", "t4", "t5"])
def test_projected_gauge_solve_matches_the_bordered_solve(case_id, k, n):
    # the oracle: the bordered matrix [[A, v], [v^T, 0]], factored here
    # with the kernel vector v that solve projects out (at k=2 recovered
    # from the Schur matrix's), returns the representative with v.x = 0,
    # the one solve's projection picks from the singular LU.  Largest
    # relative differences measured: 3.0e-11 on u (t5, k=2, n=4), 1.9e-7 on
    # lam (t3, k=2, n=8, where the exact multiplier is 0 and the discrete
    # one is small), and 2.7e-13 for v.x against |lam| (t3, k=2, n=4); the
    # bounds keep 33x, 10x and 36x
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


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("case_id", case_ids())
def test_condensed_solve_matches_the_full_path(case_id, k):
    # the full path, an LU of the whole free-dof matrix, is the reference
    # for static condensation.  Largest relative differences measured over
    # n = 1, 2, 4: u 3.0e-11 at k=2 (t5, n=4) and 4.1e-10 at k=3 (t2,
    # n=4); lam 5.3e-9 at k=2 (t3, n=4) and 2.5e-7 at k=3 (t6, n=4), leaving
    # out the polynomial-exact cases, whose multiplier is pure roundoff.
    # Relative residuals on the full matrix (kernel image projected out)
    # reach 6.3e-15 (t3, k=2, n=4, condensed), 1.2e-15 on the full path.
    # Every bound keeps at least 10x.
    # t3-t5 at k=3 have a two-dimensional gauge kernel and take the full
    # path itself, bit for bit
    exact = case_id in ("t1", "t2", "t11")  # u is linear or xy, in P_k for k >= 2
    for n in (1, 2, 4):
        system = catalog_system(case_id, k, n)
        nf, norm = len(system.u_free), _one_norm(system.matrix)
        u_h, lam_h = solve(system)
        got = np.concatenate([u_h.coeffs[system.u_free], lam_h.coeffs[system.lam_free]])
        want, v = _solve_full(system.matrix, system.rhs, k, nf, norm)
        if case_id in ("t3", "t4", "t5") and k == 3:
            assert np.array_equal(got, want)
            continue
        assert rel(got[:nf], want[:nf]) <= {2: 5e-10, 3: 5e-9}[k]
        if not exact:
            assert rel(got[nf:], want[nf:]) <= {2: 1e-7, 3: 5e-6}[k]
        for x in (got, want):
            residual = system.matrix @ x - system.rhs
            if v is not None:
                residual = residual - (residual @ v) * v
            scale = np.linalg.norm(system.rhs) + norm * np.linalg.norm(x)
            assert np.linalg.norm(residual) <= 1e-13 * scale


@pytest.mark.parametrize("k", [2, 3])
def test_condensation_eliminates_in_an_orthonormal_interior_basis(k):
    # R = L^-T with L L^T = mass_k / area makes each triangle's interior
    # basis orthonormal (up to the area), which takes the interior block's
    # condition number from 2.5e4 (k=2) and 3.9e6 (k=3) to 6.1 and 16.3
    system = catalog_system("t6", k, 4)
    condensed = _Condensation(system)
    dim = system.ops.dofmap.interior_dim
    r = condensed.basis[:, :dim, :dim]
    mass = system.ops.mass_k / system.ops.mesh.tri_areas[:, None, None]
    assert np.allclose(r.swapaxes(1, 2) @ mass @ r, np.eye(dim), rtol=0.0, atol=1e-12)
    assert np.linalg.cond(condensed.inner).max() <= 100


def test_primal_non_uniqueness_reports_the_probe_residual():
    with pytest.raises(SingularSystemError, match="kernel probe residual"):
        solve(no_boundary_data_system())


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
    pytest.param("t3", 1, 1, 2, id="t3-2"),
    pytest.param("t3", 3, 3, 2, id="t3-k3"),
])
def test_one_factorization_alive_and_no_factor_copies(monkeypatch, case_id, k, solve_calls,
                                                      estimate_calls):
    # solve and condition_estimate never read L or U, and free each
    # factorization before the next one starts.  solve factors once at k=1,
    # t3's gauge included; at k=3 it factors t3's Schur matrix, finds the
    # second gauge direction, and must free that LU and the condensation
    # before the full and the bordered LU.  condition_estimate factors t3
    # twice, once to find the gauge and once for the quotient matrix, whose
    # second direction at k=3 makes the estimate +inf
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
def test_symmetric_ordering_at_k1_only(monkeypatch, k):
    # the matrix is symmetric, and at k=1 its interior diagonal pivots
    # pass a 0.1 threshold, so minimum degree on A+A^T in symmetric mode
    # applies; at k >= 2 they do not and the fill grows 5-9x, so those
    # degrees keep SuperLU's defaults.  Every factorization takes the same
    # options, the gauge (t3) ones included
    calls = record_factorizations(monkeypatch)
    for case_id in ("t6", "t3"):
        system = catalog_system(case_id, k, 4)
        solve(system)
        condition_estimate(system)
    # t6: 1 + 1; t3: 1 + 2, and 3 + 2 at k=3, where solve factors the
    # Schur matrix, finds the second kernel direction, and then factors
    # the full and the bordered matrix
    assert len(calls) == (7 if k == 3 else 5)
    symmetric = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                     options=dict(SymmetricMode=True))
    assert all(n_args == 1 and kwargs == (symmetric if k == 1 else {})
               for n_args, kwargs, _, _ in calls)


@pytest.mark.parametrize("k,n", [(1, 16), (2, 8)])
def test_gauge_solve_factors_once(monkeypatch, k, n):
    # a one-dimensional gauge kernel is projected out of the solve on the
    # LU that found it: no second, bordered factorization.  At k >= 2 that
    # LU is of the Schur matrix on the free edge dofs
    calls = record_factorizations(monkeypatch)
    system = catalog_system("t3", k, n)
    solve(system)
    assert len(calls) == 1
    interior = 2 * system.ops.dofmap.n_interior if k >= 2 else 0
    assert calls[0][3] == system.n_free - interior


@pytest.mark.parametrize("case_id,k,builds", [
    pytest.param("t6", 1, 1, id="t6-k1"),
    pytest.param("t3", 1, 1, id="t3-k1"),
    pytest.param("t6", 2, 0, id="t6-k2"),
    pytest.param("t3", 2, 0, id="t3-k2"),
    pytest.param("t6", 3, 0, id="t6-k3"),
    pytest.param("t3", 3, 1, id="t3-k3"),
])
def test_full_matrix_built_only_where_solve_factors_it(monkeypatch, case_id, k, builds):
    # assemble builds no free-dof matrix; solve builds it for the paths
    # that factor it, the LU at k=1 and the fallback of a two-dimensional
    # gauge kernel (t3 at k=3), and otherwise factors the Schur matrix and
    # checks its residual from the local matrices
    real_coo = pdwg.system._coo
    shapes = []

    def coo(blocks, shape):
        shapes.append(shape)
        return real_coo(blocks, shape)

    monkeypatch.setattr(pdwg.system, "_coo", coo)
    system = catalog_system(case_id, k, 4)
    full = (system.n_free, system.n_free)
    assert full not in shapes
    solve(system)
    assert shapes.count(full) == builds


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


def with_random_local_matrices(system, rng):
    """system with random local matrices in place of s_T and b_T, whose
    signs, unlike those of s_T and b_T, cancel in the entries that the two
    triangles of an interior edge sum."""
    ops = copy.copy(system.ops)
    ops.stabilizers, ops.diffusion_forms = rng.standard_normal((2,) + ops.stabilizers.shape)
    return dataclasses.replace(system, ops=ops)


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
            assert sums.max() == pytest.approx(_one_norm(matrix), rel=1e-14)
            x = rng.standard_normal(system.n_free)
            bound = abs(matrix) @ np.abs(x)
            assert np.all(np.abs(_local_product(system, x) - matrix @ x) <= 1e-13 * bound)
