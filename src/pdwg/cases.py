"""Manufactured-solution catalog for the unit-square experiments.

Every case stores the exact solution, its gradient, the closed-form load
f = -div(a grad u), and the boundary side sets carrying Dirichlet and
Neumann data.  The Cauchy data g1, g2 are traces of the exact solution,
with g2 always taken against the outward normal of the square
(bottom (0,-1), right (1,0), top (0,1), left (-1,0)); getting that sign
wrong is the classic failure mode of Cauchy-data experiments, so
validate_case cross-checks everything by finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import SIDE_NORMALS
from .weakops import Diffusion, IDENTITY

__all__ = [
    "CaseSpec",
    "CaseDiagnostics",
    "CaseValidationError",
    "catalog",
    "case_ids",
    "get_case",
    "validate_case",
]

_FD_STEP = 1e-4
_FD_TOL = 1e-5


class CaseValidationError(ValueError):
    """A case's closed-form data is inconsistent with its exact solution."""


@dataclass(frozen=True)
class CaseSpec:
    """One manufactured experiment: exact solution, derived data, and the
    boundary configuration of the matching error table."""

    case_id: str
    description: str
    u: callable
    grad_u: callable
    f: callable
    dirichlet_sides: tuple
    neumann_sides: tuple
    a: Diffusion = field(default=IDENTITY)

    def g1(self, x, y):
        """Dirichlet trace on Gamma_d."""
        return self.u(x, y)

    def g2(self, x, y, normal):
        """Conormal flux a grad(u) . n on Gamma_n for the outward unit
        normal of the square: one normal (2,) or one per point (npts, 2)."""
        if self.grad_u is None:
            raise ValueError(f"case {self.case_id} carries no gradient, g2 unavailable")
        gx, gy = self.grad_u(x, y)
        shape = np.shape(x)
        vec = np.column_stack([
            np.broadcast_to(np.asarray(gx, dtype=float), shape),
            np.broadcast_to(np.asarray(gy, dtype=float), shape),
        ])
        flux = self.a.flux(x, y, vec)
        return np.sum(flux * np.asarray(normal, dtype=float), axis=-1)


@dataclass(frozen=True)
class CaseDiagnostics:
    """Maximal deviations found by validate_case."""

    case_id: str
    max_pde_residual: float
    max_gradient_residual: float
    max_trace_residual: float
    n_points: int


# exact solution families: u, grad u, and the load -laplace(u) for a = 1
def _u_linear(x, y):
    return 1.0 + x + y


def _grad_linear(x, y):
    one = np.ones_like(np.asarray(x, dtype=float))
    return one, one


def _u_coscos(x, y):
    return np.cos(x) * np.cos(y)


def _grad_coscos(x, y):
    return -np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)


def _f_coscos(x, y):
    return 2.0 * np.cos(x) * np.cos(y)


def _u_bubble(x, y):
    return 30.0 * x * y * (1.0 - x) * (1.0 - y)


def _grad_bubble(x, y):
    return 30.0 * y * (1.0 - y) * (1.0 - 2.0 * x), 30.0 * x * (1.0 - x) * (1.0 - 2.0 * y)


def _f_bubble(x, y):
    return 60.0 * (x - x**2 + y - y**2)


def _u_sincos_pi(x, y):
    return np.sin(np.pi * x) * np.cos(np.pi * y)


def _grad_sincos_pi(x, y):
    return (
        np.pi * np.cos(np.pi * x) * np.cos(np.pi * y),
        -np.pi * np.sin(np.pi * x) * np.sin(np.pi * y),
    )


def _f_sincos_pi(x, y):
    return 2.0 * np.pi**2 * np.sin(np.pi * x) * np.cos(np.pi * y)


def _u_sinsin(x, y):
    return np.sin(x) * np.sin(y)


def _grad_sinsin(x, y):
    return np.cos(x) * np.sin(y), np.sin(x) * np.cos(y)


def _f_sinsin(x, y):
    return 2.0 * np.sin(x) * np.sin(y)


def _u_xy(x, y):
    return x * y


def _grad_xy(x, y):
    return np.asarray(y, dtype=float), np.asarray(x, dtype=float)


def _u_cossin(x, y):
    return np.cos(x) * np.sin(y)


def _grad_cossin(x, y):
    return -np.sin(x) * np.sin(y), np.cos(x) * np.cos(y)


def _f_cossin(x, y):
    return 2.0 * np.cos(x) * np.sin(y)


def _zero(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


_LINEAR = (_u_linear, _grad_linear, _zero, "u = 1 + x + y")
_COSCOS = (_u_coscos, _grad_coscos, _f_coscos, "u = cos(x) cos(y)")
_BUBBLE = (_u_bubble, _grad_bubble, _f_bubble, "u = 30 x y (1-x)(1-y)")
_SINCOS_PI = (_u_sincos_pi, _grad_sincos_pi, _f_sincos_pi, "u = sin(pi x) cos(pi y)")
_SINSIN = (_u_sinsin, _grad_sinsin, _f_sinsin, "u = sin(x) sin(y)")
_XY = (_u_xy, _grad_xy, _zero, "u = x y")
_COSSIN = (_u_cossin, _grad_cossin, _f_cossin, "u = cos(x) sin(y)")

_CATALOG_TABLE = [
    ("t1", _LINEAR, ("bottom",), ("bottom",), "Cauchy data on the bottom side"),
    ("t2", _LINEAR, ("left",), ("left",), "Cauchy data on the left side"),
    ("t3", _COSCOS, ("bottom", "right", "left"), ("bottom", "right", "top"),
     "Cauchy on bottom and right, Dirichlet on left, Neumann on top"),
    ("t4", _BUBBLE, ("bottom", "right", "left"), ("bottom", "right", "top"),
     "Cauchy on bottom and right, Dirichlet on left, Neumann on top"),
    ("t5", _SINCOS_PI, ("bottom", "right", "left"), ("bottom", "right", "top"),
     "Cauchy on bottom and right, Dirichlet on left, Neumann on top"),
    ("t6", _COSCOS, ("bottom", "left"), ("right", "top"),
     "mixed problem: Dirichlet on bottom and left, Neumann on right and top"),
    ("t7", _SINSIN, ("bottom", "left"), ("right", "top"),
     "mixed problem: Dirichlet on bottom and left, Neumann on right and top"),
    ("t8", _BUBBLE, ("bottom", "left"), ("right", "top"),
     "mixed problem: Dirichlet on bottom and left, Neumann on right and top"),
    ("t9", _COSCOS, ("bottom", "top"), ("bottom", "top"),
     "Cauchy data on bottom and top"),
    ("t10", _BUBBLE, ("bottom", "top"), ("bottom", "top"),
     "Cauchy data on bottom and top"),
    ("t11", _XY, ("left", "right"), ("left", "right"),
     "Cauchy data on left and right"),
    ("t12", _COSSIN, ("left", "right"), ("left", "right"),
     "Cauchy data on left and right"),
    ("t13", _COSCOS, ("bottom", "top"), ("bottom",),
     "Cauchy on bottom, Dirichlet only on top"),
    ("t14a", _SINSIN, ("bottom",), ("bottom",), "Cauchy data on the bottom side only"),
    ("t14b", _COSCOS, ("bottom",), ("bottom",), "Cauchy data on the bottom side only"),
    ("t14c", _COSSIN, ("bottom",), ("bottom",), "Cauchy data on the bottom side only"),
]


def _build_catalog():
    cases = {}
    for case_id, (u, grad, f, label), d_sides, n_sides, where in _CATALOG_TABLE:
        cases[case_id] = CaseSpec(
            case_id=case_id,
            description=f"{label}; {where}",
            u=u,
            grad_u=grad,
            f=f,
            dirichlet_sides=d_sides,
            neumann_sides=n_sides,
        )
    return cases


_CASES = _build_catalog()


def catalog():
    """All manufactured cases, in table order."""
    return list(_CASES.values())


def case_ids():
    return tuple(_CASES.keys())


def get_case(case_id):
    try:
        return _CASES[case_id]
    except KeyError:
        raise KeyError(
            f"unknown case {case_id!r}; known cases: {', '.join(_CASES)}"
        ) from None


def _fd_gradient(fn, x, y, step=_FD_STEP):
    gx = (fn(x + step, y) - fn(x - step, y)) / (2.0 * step)
    gy = (fn(x, y + step) - fn(x, y - step)) / (2.0 * step)
    return gx, gy


def validate_case(case, n_points=20, seed=0):
    """Cross-check the closed forms of a case by finite differences.

    Checks -div(a grad u) = f at random interior points, the analytic
    gradient against a finite-difference gradient, and the boundary
    traces g1, g2 on their sides.  Raises CaseValidationError at the
    first offending point.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.05, 0.95, n_points)
    y = rng.uniform(0.05, 0.95, n_points)

    gx_fd, gy_fd = _fd_gradient(case.u, x, y)
    gx, gy = case.grad_u(x, y)
    grad_res = np.hypot(np.asarray(gx, float) - gx_fd, np.asarray(gy, float) - gy_fd)
    if np.any(grad_res > _FD_TOL):
        i = int(np.argmax(grad_res))
        raise CaseValidationError(
            f"case {case.case_id}: analytic gradient off by {grad_res[i]:.2e} "
            f"at ({x[i]:.4f}, {y[i]:.4f})"
        )

    def flux(px, py):
        fx, fy = case.grad_u(px, py)
        vec = np.column_stack([np.asarray(fx, float), np.asarray(fy, float)])
        return case.a.flux(px, py, vec)

    div_flux = (
        (flux(x + _FD_STEP, y)[:, 0] - flux(x - _FD_STEP, y)[:, 0])
        + (flux(x, y + _FD_STEP)[:, 1] - flux(x, y - _FD_STEP)[:, 1])
    ) / (2.0 * _FD_STEP)
    fvals = np.asarray(case.f(x, y), dtype=float)
    pde_res = np.abs(-div_flux - fvals)
    tol = _FD_TOL * np.maximum(1.0, np.abs(fvals))
    if np.any(pde_res > tol):
        i = int(np.argmax(pde_res - tol))
        raise CaseValidationError(
            f"case {case.case_id}: -div(a grad u) - f = {pde_res[i]:.2e} "
            f"at ({x[i]:.4f}, {y[i]:.4f})"
        )

    side_points = {
        "bottom": (rng.uniform(0, 1, n_points), np.zeros(n_points)),
        "right": (np.ones(n_points), rng.uniform(0, 1, n_points)),
        "top": (rng.uniform(0, 1, n_points), np.ones(n_points)),
        "left": (np.zeros(n_points), rng.uniform(0, 1, n_points)),
    }
    trace_res = 0.0
    for side in case.dirichlet_sides:
        bx, by = side_points[side]
        res = np.max(np.abs(case.g1(bx, by) - case.u(bx, by)))
        trace_res = max(trace_res, float(res))
        if res > _FD_TOL:
            raise CaseValidationError(f"case {case.case_id}: g1 != u on {side}")
    for side in case.neumann_sides:
        bx, by = side_points[side]
        normal = SIDE_NORMALS[side]
        gx_fd, gy_fd = _fd_gradient(case.u, bx, by)
        vec = np.column_stack([gx_fd, gy_fd])
        expected = case.a.flux(bx, by, vec) @ normal
        res = np.max(np.abs(case.g2(bx, by, normal) - expected))
        trace_res = max(trace_res, float(res))
        if res > _FD_TOL:
            i = int(np.argmax(np.abs(case.g2(bx, by, normal) - expected)))
            raise CaseValidationError(
                f"case {case.case_id}: g2 mismatch {res:.2e} on {side} "
                f"at ({bx[i]:.4f}, {by[i]:.4f})"
            )

    return CaseDiagnostics(
        case_id=case.case_id,
        max_pde_residual=float(np.max(pde_res)),
        max_gradient_residual=float(np.max(grad_res)),
        max_trace_residual=trace_res,
        n_points=n_points,
    )
