"""Convergence-study driver: run a manufactured case over a refinement
ladder, compute errors and observed orders, and emit publication-style tables
in csv or markdown.

Exit codes: 0 on success, 2 when any refinement level failed to solve,
1 on usage errors, among them an output path that cannot be written
(found before the study runs, after the case and the ladder are checked,
so that no other usage error leaves an empty output file).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .cases import case_ids, get_case
from .fespace import SUPPORTED_DEGREES
from .mesh import build_uniform_mesh, classify_boundary
from .norms import ErrorReport, error_report
from .system import SingularSystemError, assemble, matrix_to_coordinate_text, solve
from .weakops import LocalOperators

__all__ = [
    "ORDER_FLOOR",
    "LevelResult",
    "ConvergenceReport",
    "run_study",
    "emit",
    "main",
    "entry",
]

# below this error magnitude the log2 ratio is machine noise, no order reported
ORDER_FLOOR = 1e-12

DEFAULT_LEVELS = (1, 2, 4, 8, 16, 32)

CSV_HEADER = (
    "case,k,n,h,l2_e0,order_l2,h1_e0,order_h1,"
    "resid_u,order_resid,resid_lambda,stab_u,wall_ms"
)


@dataclass
class LevelResult:
    n: int
    h: float
    wall_ms: float
    report: ErrorReport | None = None
    message: str = ""

    @property
    def failed(self):
        return self.report is None


@dataclass
class ConvergenceReport:
    case_id: str
    k: int
    levels: list[LevelResult] = field(default_factory=list)

    def orders(self, column):
        """Observed orders log2(err(n)/err(2n)) for one error column,
        aligned with the levels; None where undefined (first level,
        failed level, non-doubling step, or error below the floor)."""
        values = [
            getattr(lvl.report, column) if lvl.report is not None else None
            for lvl in self.levels
        ]
        orders: list[float | None] = [None]
        for i in range(1, len(self.levels)):
            coarse, fine = values[i - 1], values[i]
            if (
                coarse is None
                or fine is None
                or self.levels[i].n != 2 * self.levels[i - 1].n
                or coarse < ORDER_FLOOR
                or fine < ORDER_FLOOR
            ):
                orders.append(None)
            else:
                orders.append(math.log2(coarse / fine))
        return orders


def _ladder(levels):
    """The refinement levels as a list of ints; ValueError unless they are
    integers, positive and strictly increasing, at least one of them."""
    levels = list(levels)
    if any(isinstance(n, bool) or not isinstance(n, (int, np.integer)) for n in levels):
        raise ValueError("refinement levels must be integers")
    levels = [int(n) for n in levels]
    if not levels:
        raise ValueError("refinement ladder must not be empty")
    if any(n < 1 for n in levels):
        raise ValueError("refinement levels must be positive")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("refinement levels must be strictly increasing")
    return levels


def run_study(case_id, levels, k=1, dump_matrix=None):
    """Build, solve and measure one case on every refinement level.

    A singular level is recorded as failed and the study continues.
    """
    case = get_case(case_id)
    levels = _ladder(levels)

    out = ConvergenceReport(case_id=case_id, k=k)
    last_system = None
    for n in levels:
        start = time.perf_counter()
        mesh = build_uniform_mesh(n)
        config = classify_boundary(mesh, case.dirichlet_sides, case.neumann_sides)
        ops = LocalOperators(mesh, k, case.a)
        system = assemble(config, case, ops)
        last_system = system
        try:
            u_h, lam_h = solve(system)
            report = error_report(u_h, lam_h, case.u, config, ops)
            message = ""
        except SingularSystemError as exc:
            report = None
            message = str(exc)
        wall_ms = 1e3 * (time.perf_counter() - start)
        out.levels.append(LevelResult(n=n, h=mesh.h, wall_ms=wall_ms,
                                      report=report, message=message))

    if dump_matrix is not None and last_system is not None:
        with open(dump_matrix, "w") as fh:
            fh.write(matrix_to_coordinate_text(last_system.matrix))
    return out


def _sci(value):
    return "" if value is None else f"{value:.3e}"


def _emit_csv(report):
    lines = [CSV_HEADER]
    order_l2 = report.orders("l2_e0")
    order_h1 = report.orders("h1_e0")
    order_resid = report.orders("resid_u")
    for i, lvl in enumerate(report.levels):
        r = lvl.report
        fields = [
            report.case_id,
            str(report.k),
            str(lvl.n),
            _sci(lvl.h),
            _sci(r.l2_e0 if r else None),
            _sci(order_l2[i]),
            _sci(r.h1_e0 if r else None),
            _sci(order_h1[i]),
            _sci(r.resid_u if r else None),
            _sci(order_resid[i]),
            _sci(r.resid_lambda if r else None),
            _sci(r.stab_u if r else None),
            _sci(lvl.wall_ms),
        ]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def _g4(value):
    return "-" if value is None else f"{value:.4g}"


def _emit_markdown(report):
    lines = [
        f"Case {report.case_id} (k={report.k})",
        "",
        "| 1/h | grad_e0_L2 | order | e0_L2 | order | resid_u | order |",
        "| ---: | ---: | ---: | ---: | ---: | ---: | ---: |",
    ]
    order_l2 = report.orders("l2_e0")
    order_h1 = report.orders("h1_e0")
    order_resid = report.orders("resid_u")
    for i, lvl in enumerate(report.levels):
        r = lvl.report
        if r is None:
            lines.append(f"| {lvl.n} | failed | - | failed | - | failed | - |")
            continue
        lines.append(
            f"| {lvl.n} | {_g4(r.h1_e0)} | {_g4(order_h1[i])} "
            f"| {_g4(r.l2_e0)} | {_g4(order_l2[i])} "
            f"| {_g4(r.resid_u)} | {_g4(order_resid[i])} |"
        )
    return "\n".join(lines) + "\n"


def emit(report, fmt="csv"):
    """Serialize a convergence report; fmt is 'csv' or 'markdown'."""
    if fmt == "csv":
        return _emit_csv(report)
    if fmt == "markdown":
        return _emit_markdown(report)
    raise ValueError(f"unknown output format {fmt!r}")


class _Parser(argparse.ArgumentParser):
    # usage errors exit with code 1, leaving 2 for failed levels
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(
        prog="pdwg",
        description=(
            "Convergence study for the primal-dual weak Galerkin solver of "
            "second-order elliptic Cauchy problems on the unit square."
        ),
    )
    parser.add_argument("--case", help="case identifier (see --list-cases)")
    parser.add_argument(
        "--levels",
        default=",".join(str(n) for n in DEFAULT_LEVELS),
        help="comma-separated refinement ladder (default %(default)s)",
    )
    parser.add_argument("--degree", type=int, choices=SUPPORTED_DEGREES, default=1,
                        help="polynomial degree k (default 1)")
    parser.add_argument("--format", choices=("csv", "markdown"), default="csv")
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument(
        "--dump-matrix",
        help="write the free-dof matrix of the last assembled level in "
        "coordinate text format to this path",
    )
    parser.add_argument("--list-cases", action="store_true", help="list case ids and exit")
    return parser


def _write_stdout(text):
    """Write text to stdout, and to devnull once a reader closed the pipe."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_cases:
        _write_stdout("".join(f"{cid:5s} {get_case(cid).description}\n" for cid in case_ids()))
        return 0
    if not args.case:
        parser.error("--case is required (or use --list-cases)")

    try:
        levels = [int(tok) for tok in args.levels.split(",") if tok.strip()]
    except ValueError:
        parser.error(f"cannot parse --levels {args.levels!r}")
    # the case and the ladder are checked before the output paths are
    # probed, so that a usage error leaves no empty file behind
    try:
        get_case(args.case)
        _ladder(levels)
    except (KeyError, ValueError) as exc:
        # str() of a KeyError is the repr of its message
        parser.error(exc.args[0])
    for flag, path in (("--out", args.out), ("--dump-matrix", args.dump_matrix)):
        if path:
            try:
                open(path, "a").close()
            except OSError as exc:
                parser.exit(1, f"pdwg: error: cannot write {flag} {path!r}: {exc.strerror}\n")

    report = run_study(args.case, levels, k=args.degree, dump_matrix=args.dump_matrix)
    text = emit(report, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        _write_stdout(text)

    for lvl in report.levels:
        if lvl.failed:
            print(f"level n={lvl.n} failed: {lvl.message}", file=sys.stderr)
    return 2 if any(lvl.failed for lvl in report.levels) else 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
