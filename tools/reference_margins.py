"""Margins of every benchmark level against its committed reference values.

    python3 tools/reference_margins.py [--workload NAME]

Runs each distinct level of the benchmark's workloads once, as the
benchmark does (``pdwg.run_study``, one BLAS thread), and prints one line
per level and error functional: |value - reference| / tolerance, the
tolerance being the one the benchmark's reference check applies
(``perfbench/workloads.py``), largest margin first.  A margin of 1 or more
fails that check; a level that fails to solve prints an infinite margin and
its message.  Exits with 1 when any margin is 1 or more, else with 0, so a
change that moves solution bits can gate on it; a reader that closes the
output early (``| head``) leaves that status as it is.  ``--workload``
runs that workload's levels only.  Reads ``perfbench/reference.json`` and
``perfbench/workloads.py`` and changes neither.
"""

import argparse
import math
import os
import sys
from pathlib import Path

# before numpy is imported: a threaded BLAS may sum in a different order
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from pdwg import run_study  # noqa: E402


def tolerance(reference, k, n, column, want):
    """The absolute tolerance that Reference.check_level allows around the
    reference value want."""
    return workloads.REL_TOL * abs(want) + reference.abs_tol.get((k, n, column), workloads.ABS_TOL)


def level_margins(reference, case_id, k, n):
    """(margin, column, value, reference value, tolerance) of each error
    functional of one level; one row of infinite margin, its column the
    solver's message, when the level fails to solve."""
    level = run_study(case_id, [n], k=k).levels[0]
    if level.failed:
        return [(math.inf, level.message, math.nan, math.nan, math.nan)]
    expected = reference.values[(case_id, k, n)]
    rows = []
    for column in workloads.COLUMNS:
        got, want = getattr(level.report, column), expected[column]
        tol = tolerance(reference, k, n, column, want)
        rows.append((abs(got - want) / tol, column, got, want, tol))
    return rows


def write(lines):
    """Print lines.  A reader that closes the pipe early (as `| head` does)
    drops the rest without a traceback: stdout then goes to devnull, so the
    flush at exit does not fail again."""
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None):
    """Print the margins; returns the exit status, 1 when any margin is 1
    or more."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="run this workload's levels only")
    args = parser.parse_args(argv)
    reference = workloads.load_reference()
    levels = sorted({(case_id, k, n)
                     for workload in ([args.workload] if args.workload else workloads.WORKLOADS)
                     for case_id, k, ladder in workloads.studies(workload, 0) for n in ladder})
    rows = [(margin, workloads.level_key(*level), *rest)
            for level in levels for margin, *rest in level_margins(reference, *level)]
    # largest margin first, ties in key order
    rows.sort(key=lambda row: -row[0])
    write([f"{'margin':>9s}  {'level':14s} {'column':13s} {'value':>24s} {'reference':>24s} "
           f"{'tolerance':>9s}"]
          + [f"{margin:9.3g}  {key:14s} {column:13s} {got!r:>24s} {want!r:>24s} {tol:9.2e}"
             for margin, key, column, got, want, tol in rows])
    return int(not all(row[0] < 1.0 for row in rows))


if __name__ == "__main__":
    sys.exit(main())
