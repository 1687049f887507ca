import dataclasses

import numpy as np
import pytest

from pdwg.cases import (
    CaseSpec,
    CaseValidationError,
    case_ids,
    catalog,
    get_case,
    validate_case,
)
from pdwg.mesh import SIDE_NORMALS


EXPECTED_IDS = (
    "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8",
    "t9", "t10", "t11", "t12", "t13", "t14a", "t14b", "t14c",
)


def test_catalog_complete():
    assert case_ids() == EXPECTED_IDS
    assert [c.case_id for c in catalog()] == list(EXPECTED_IDS)


def test_unknown_case_rejected():
    with pytest.raises(KeyError):
        get_case("t99")


def test_every_case_validates():
    for case in catalog():
        diag = validate_case(case)
        assert diag.max_pde_residual <= 1e-5 * 61
        assert diag.max_gradient_residual <= 1e-5


def test_t1_data_by_hand():
    # u = 1+x+y: f = 0 exactly; on the bottom side the outward normal is
    # (0,-1) so g2 = -du/dy = -1
    case = get_case("t1")
    x = np.linspace(0.05, 0.95, 7)
    assert np.max(np.abs(case.f(x, x))) == 0.0
    assert np.allclose(case.g1(x, np.zeros_like(x)), 1 + x)
    g2 = case.g2(x, np.zeros_like(x), SIDE_NORMALS["bottom"])
    assert np.allclose(g2, -1.0, atol=1e-14)
    diag = validate_case(case)
    assert diag.max_pde_residual <= 1e-10


def test_t3_load_closed_form():
    case = get_case("t3")
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, 10)
    y = rng.uniform(0, 1, 10)
    assert np.allclose(case.f(x, y), 2 * np.cos(x) * np.cos(y), rtol=1e-14)


def test_t4_load_closed_form():
    case = get_case("t4")
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, 10)
    y = rng.uniform(0, 1, 10)
    assert np.allclose(case.f(x, y), 60 * (x - x**2 + y - y**2), rtol=1e-13)
    validate_case(case)


def test_t5_load_closed_form():
    case = get_case("t5")
    x = np.array([0.3, 0.71])
    y = np.array([0.11, 0.62])
    expected = 2 * np.pi**2 * np.sin(np.pi * x) * np.cos(np.pi * y)
    assert np.allclose(case.f(x, y), expected, rtol=1e-14)


def test_corrupted_load_rejected():
    base = get_case("t3")
    bad = CaseSpec(
        case_id="bad",
        description="one percent off",
        u=base.u,
        grad_u=base.grad_u,
        f=lambda x, y: 1.01 * base.f(x, y),
        dirichlet_sides=base.dirichlet_sides,
        neumann_sides=base.neumann_sides,
    )
    with pytest.raises(CaseValidationError):
        validate_case(bad)


def test_corrupted_gradient_rejected():
    base = get_case("t6")
    bad = CaseSpec(
        case_id="badgrad",
        description="flipped gradient sign",
        u=base.u,
        grad_u=lambda x, y: tuple(-g for g in base.grad_u(x, y)),
        f=base.f,
        dirichlet_sides=base.dirichlet_sides,
        neumann_sides=base.neumann_sides,
    )
    with pytest.raises(CaseValidationError):
        validate_case(bad)


@dataclasses.dataclass(frozen=True)
class ShiftedTrace(CaseSpec):
    """A case whose Cauchy trace named by shifted, g1 or g2, is off by 1e-3."""

    shifted: str = "g1"

    def g1(self, x, y):
        return super().g1(x, y) + 1e-3 * (self.shifted == "g1")

    def g2(self, x, y, normal):
        return super().g2(x, y, normal) + 1e-3 * (self.shifted == "g2")


@pytest.mark.parametrize("trace,match", [("g1", "g1 != u"), ("g2", "g2 mismatch")])
def test_corrupted_trace_rejected(trace, match):
    bad = ShiftedTrace(**vars(get_case("t6")), shifted=trace)
    with pytest.raises(CaseValidationError, match=match):
        validate_case(bad)


def test_flux_data_needs_a_gradient():
    case = dataclasses.replace(get_case("t6"), grad_u=None)
    x = np.linspace(0.1, 0.9, 3)
    with pytest.raises(ValueError, match="no gradient"):
        case.g2(x, np.zeros_like(x), SIDE_NORMALS["bottom"])


def test_validation_needs_a_gradient():
    # the cross-check reads grad_u first: without one it names the case
    # rather than calling None
    case = dataclasses.replace(get_case("t6"), grad_u=None)
    with pytest.raises(CaseValidationError, match="case t6: no gradient"):
        validate_case(case)


def test_boundary_side_sets_match_tables():
    assert set(get_case("t3").dirichlet_sides) == {"bottom", "right", "left"}
    assert set(get_case("t3").neumann_sides) == {"bottom", "right", "top"}
    assert set(get_case("t6").dirichlet_sides) == {"bottom", "left"}
    assert set(get_case("t6").neumann_sides) == {"right", "top"}
    assert set(get_case("t9").dirichlet_sides) == {"bottom", "top"}
    assert set(get_case("t9").neumann_sides) == {"bottom", "top"}
    assert set(get_case("t11").dirichlet_sides) == {"left", "right"}
    assert set(get_case("t13").dirichlet_sides) == {"bottom", "top"}
    assert set(get_case("t13").neumann_sides) == {"bottom"}
    for cid in ("t14a", "t14b", "t14c"):
        assert set(get_case(cid).dirichlet_sides) == {"bottom"}
        assert set(get_case(cid).neumann_sides) == {"bottom"}


def test_g2_uses_outward_normal_convention():
    # cos(x)cos(y): du/dn on the top side (normal (0,1)) is -cos(x)sin(1)
    case = get_case("t3")
    x = np.linspace(0.1, 0.9, 5)
    top = case.g2(x, np.ones_like(x), SIDE_NORMALS["top"])
    assert np.allclose(top, -np.cos(x) * np.sin(1.0), rtol=1e-13)
    right = case.g2(np.ones_like(x), x, SIDE_NORMALS["right"])
    assert np.allclose(right, -np.sin(1.0) * np.cos(x), rtol=1e-13)


def test_g1_is_exact_trace():
    for case in catalog():
        x = np.linspace(0, 1, 5)
        assert np.allclose(case.g1(x, np.zeros_like(x)), case.u(x, np.zeros_like(x)))
