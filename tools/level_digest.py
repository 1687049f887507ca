"""Digests of every benchmark level, for checking that a change keeps the
solutions and local matrices bit for bit.

    python3 tools/level_digest.py [--levels] [--workload NAME]

Runs each distinct level of the benchmark's workloads once, in the order
``perfbench/workloads.py`` gives them (read through ``studies``), and
prints one sha256 per workload plus one for the twelve t3-t5 k=3 levels,
whose stored reference values are roundoff.  With ``--levels`` it prints
one line per level instead, its key and digest in key order, so that a
diff of two outputs names the levels that changed.  ``--workload`` runs
that workload's levels only.  A level's digest covers its key, the free
and fixed coefficients of u_h and lam_h, the five values of its error
report, and the local weak-gradient maps, stabilizers and diffusion forms.  Every array is +0.0-normalized first, so
the sign of an exact zero does not count.  Compare the output of two trees
on the same machine: BLAS is held to one thread, but its kernels still
differ between builds.  A reader that closes the output early (``| head``)
gets no traceback, and the exit status stays 0.
"""

import argparse
import dataclasses
import hashlib
import os
import sys
from pathlib import Path

# before numpy is imported: a threaded BLAS may sum in a different order
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from pdwg import (LocalOperators, SingularSystemError, assemble, build_uniform_mesh,  # noqa: E402
                  classify_boundary, error_report, get_case, solve)

# the levels whose reference values store roundoff: gauge-singular with a
# two-dimensional multiplier kernel
FROZEN = "t3-t5 k=3"


def level_digest(case_id, k, n):
    """sha256 of one level's solution, error report and local matrices."""
    case = get_case(case_id)
    mesh = build_uniform_mesh(n)
    config = classify_boundary(mesh, case.dirichlet_sides, case.neumann_sides)
    ops = LocalOperators(mesh, k, case.a)
    digest = hashlib.sha256(workloads.level_key(case_id, k, n).encode())
    try:
        u_h, lam_h = solve(assemble(config, case, ops))
    except SingularSystemError as exc:
        digest.update(str(exc).encode())
        fields = []
    else:
        report = error_report(u_h, lam_h, case.u, config, ops)
        fields = [u_h.coeffs, lam_h.coeffs, np.array(dataclasses.astuple(report))]
    # each triangle's local matrices, gathered from its group's rows
    tables = [ops.group_grad_maps, ops.group_stabilizers, ops.group_diffusion_forms]
    for arr in fields + [table[ops.input_groups] for table in tables]:
        digest.update(np.ascontiguousarray(arr + 0.0).tobytes())
    return digest.hexdigest()


def combined(digests):
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def write(lines):
    """Print lines.  A reader that closes the pipe early (as `| head` does)
    drops the rest without a traceback: stdout then goes to devnull, so the
    flush at exit does not fail again."""
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--levels", action="store_true",
                        help="print one digest per level instead of the sums")
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="run this workload's levels only")
    args = parser.parse_args(argv)
    done = {}
    groups = {}
    for workload in [args.workload] if args.workload else workloads.WORKLOADS:
        keys = [(case_id, k, n) for case_id, k, ladder in workloads.studies(workload, 0)
                for n in ladder]
        groups[workload] = sorted(keys)
        for key in keys:
            if key not in done:
                done[key] = level_digest(*key)
    if args.levels:
        write([f"{workloads.level_key(*key):16s} {done[key]}" for key in sorted(done)])
        return
    frozen = sorted(key for key in done if key[0] in ("t3", "t4", "t5") and key[1] == 3)
    if frozen:
        groups[FROZEN] = frozen
    groups["distinct"] = sorted(done)
    write([f"{name:16s} {len(keys):4d} levels  {combined(done[key] for key in keys)}"
           for name, keys in groups.items()])


if __name__ == "__main__":
    main()
