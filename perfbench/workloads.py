"""Workload definitions and the reference check shared by the benchmark's
processes.

A study is one ``pdwg.run_study`` call: (case id, degree k, ladder).  This
module imports no numerical package, so a worker can start its set-up clock
before the first ``import pdwg``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# the catalog in table order, fixed here so that the sweep stays the same
# workload when cases are added, and so that set-up can pick its study
# before pdwg is imported
CATALOG_IDS = (
    "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8",
    "t9", "t10", "t11", "t12", "t13", "t14a", "t14b", "t14c",
)

_STUDIES = {
    # the large regular solve: factorization, local operators and error
    # functionals share the time; no gauge kernel.  The ladder stops at
    # n=32 so that a run times its finest level about ten times: one n=64
    # level takes 13 s, too long to time often enough on a noisy machine
    "regular-k1-n32": [("t6", 1, (4, 8, 16, 32))],
    # gauge-singular: Gamma_d and Gamma_n cover the boundary, so solve
    # factors twice per level and the bordered LU dominates
    "gauge-k2-n16": [("t3", 2, (2, 4, 8, 16))],
    # 192 small levels: per-element Python loops, DofMap rebuilds and case
    # evaluation dominate; factorization is small
    "catalog-sweep": [
        (case_id, k, (1, 2, 4, 8)) for case_id in CATALOG_IDS for k in (1, 2, 3)
    ],
}

WORKLOADS = tuple(_STUDIES)

# the error functionals compared against the committed reference
COLUMNS = ("l2_e0", "h1_e0", "resid_u", "resid_lambda", "stab_u")
REL_TOL = 1e-6
ABS_TOL = 1e-10
# The polynomial-exact cases solve exactly, so their errors are pure
# roundoff, which any change of summation order moves.  At k=3 the local
# bases are ill-conditioned and that roundoff reaches 1.3e-8 at n=8, so the
# absolute tolerance of a (k, n, column) is also at least this many times
# the largest error the exact cases show there.
ROUNDOFF_MARGIN = 10.0


def polynomial_exact(case_id, k):
    """u is linear in t1 and t2 and u = xy in t11, which P_k holds for k >= 2."""
    return case_id in ("t1", "t2") or (case_id == "t11" and k >= 2)


def studies(workload, seed):
    """The workload's studies in run order.  The seed only shuffles the
    catalog sweep; the single-study workloads ignore it."""
    out = list(_STUDIES[workload])
    random.Random(seed).shuffle(out)
    return out


def setup_study(workload):
    """(case id, k) of the n=1 level that set-up runs: the workload's first
    study in table order, the same for every seed."""
    case_id, k, _ = _STUDIES[workload][0]
    return case_id, k


def level_key(case_id, k, n):
    return f"{case_id}:k{k}:n{n}"


class Reference:
    """The committed error functionals of every level, and the absolute
    tolerance per (k, n, column) that they imply."""

    def __init__(self, rows):
        self.values = {(r["case"], r["k"], r["n"]): r for r in rows}
        self.abs_tol = {}
        for r in rows:
            if polynomial_exact(r["case"], r["k"]):
                for column in COLUMNS:
                    slot = (r["k"], r["n"], column)
                    self.abs_tol[slot] = max(self.abs_tol.get(slot, ABS_TOL),
                                             ROUNDOFF_MARGIN * r[column])

    def check_level(self, case_id, k, level):
        """None when the level solved and matches the reference, otherwise
        a one-line reason.  ``level`` is a ``pdwg.cli.LevelResult``."""
        key = level_key(case_id, k, level.n)
        if level.failed:
            return f"{key}: solve failed: {level.message}"
        expected = self.values.get((case_id, k, level.n))
        if expected is None:
            return f"{key}: no reference value"
        for column in COLUMNS:
            got = getattr(level.report, column)
            want = expected[column]
            tol = REL_TOL * abs(want) + self.abs_tol.get((k, level.n, column), ABS_TOL)
            if not abs(got - want) <= tol:
                return f"{key}: {column} = {got!r}, reference {want!r}, tolerance {tol:.1e}"
        return None


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return Reference(json.load(fh))
