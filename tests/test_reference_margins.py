"""tools/reference_margins.py reads the library and the benchmark's
reference check from outside; a rename in either must not break it
silently, and its tolerance must stay the check's."""

import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from pdwg.cli import ConvergenceReport, LevelResult
from pdwg.norms import ErrorReport

TOOL = Path(__file__).resolve().parents[1] / "tools" / "reference_margins.py"
GAUGE_LEVELS = ["t3:k2:n2", "t3:k2:n4", "t3:k2:n8", "t3:k2:n16"]
# the levels checked under two BLAS kernels: the gauge workload's top
# margin, and a polynomial-exact Cauchy level whose errors are roundoff
KERNEL_LEVELS = [("t3", 2, 16), ("t1", 3, 8)]
# prints [level, column, margin] for each row of level_margins; loading the
# tool holds BLAS to one thread before numpy is imported
MARGINS_SCRIPT = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("reference_margins", sys.argv[1])
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)
reference = tool.workloads.load_reference()
print(json.dumps([[tool.workloads.level_key(*level), column, margin]
                  for level in json.loads(sys.argv[2])
                  for margin, column, *_ in tool.level_margins(reference, *level)]))
"""


def load_tool():
    spec = importlib.util.spec_from_file_location("reference_margins", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_margins_of_the_gauge_workload_are_sorted_and_pass(capsys):
    # one row per level and error functional, largest margin first; every
    # level passes the benchmark's check, so every margin is below 1 and
    # the exit status is 0
    tool = load_tool()
    assert tool.main(["--workload", "gauge-k2-n16"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert sorted((row[1], row[2]) for row in rows) == sorted(
        (key, column) for key in GAUGE_LEVELS for column in tool.workloads.COLUMNS)
    margins = [float(row[0]) for row in rows]
    assert margins == sorted(margins, reverse=True)
    assert 0.0 <= margins[-1] and margins[0] < 1.0
    for margin, _, _, got, want, tol in rows:
        assert float(margin) == pytest.approx(abs(float(got) - float(want)) / float(tol),
                                              rel=1e-2, abs=1e-6)


@pytest.mark.parametrize("column", ["l2_e0", "resid_u"])
def test_tolerance_is_the_reference_checks(column):
    # a value off its reference by just under the tool's tolerance passes
    # the benchmark's check; just over it fails there
    tool = load_tool()
    reference = tool.workloads.load_reference()
    case_id, k, n = "t3", 2, 16
    want = reference.values[(case_id, k, n)]
    tol = tool.tolerance(reference, k, n, column, want[column])
    exact = {name: want[name] for name in tool.workloads.COLUMNS}
    for factor, passes in ((0.99, True), (1.01, False)):
        report = ErrorReport(**{**exact, column: want[column] + factor * tol})
        level = LevelResult(n=n, h=1.0 / n, wall_ms=0.0, report=report)
        reason = reference.check_level(case_id, k, level)
        assert (reason is None) == passes
        assert passes or column in reason


def test_a_margin_of_one_or_more_exits_with_1(monkeypatch, capsys):
    # the loaded reference moved by twice its tolerance on one value: that
    # row leads with a margin of about 2, and the exit status is 1
    tool = load_tool()
    reference = tool.workloads.load_reference()
    want = reference.values[("t3", 2, 4)]
    want["resid_u"] += 2 * tool.tolerance(reference, 2, 4, "resid_u", want["resid_u"])
    monkeypatch.setattr(tool.workloads, "load_reference", lambda: reference)
    assert tool.main(["--workload", "gauge-k2-n16"]) == 1
    top = capsys.readouterr().out.splitlines()[1].split()
    assert top[1:3] == ["t3:k2:n4", "resid_u"] and float(top[0]) == pytest.approx(2.0, rel=1e-3)


def test_a_level_that_fails_to_solve_exits_with_1(monkeypatch, capsys):
    # a level without a report leads with an infinite margin and its
    # message, and the exit status is 1
    tool = load_tool()
    real_run_study = tool.run_study

    def run_study(case_id, ladder, k):
        if ladder == [8]:
            failed = LevelResult(n=8, h=0.125, wall_ms=0.0, message="singular")
            return ConvergenceReport(case_id=case_id, k=k, levels=[failed])
        return real_run_study(case_id, ladder, k=k)

    monkeypatch.setattr(tool, "run_study", run_study)
    assert tool.main(["--workload", "gauge-k2-n16"]) == 1
    top = capsys.readouterr().out.splitlines()[1].split()
    assert top[:3] == ["inf", "t3:k2:n8", "singular"]


def run_into_a_closed_pipe(tool, *args):
    """Exit status and stderr of the tool run as a script with its stdout a
    pipe whose reader closed before the tool writes, as `| head` does."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, str(tool), *args], stdout=write,
                              stderr=subprocess.PIPE)
    finally:
        os.close(write)
    return proc.returncode, proc.stderr.decode()


def test_a_closed_pipe_keeps_the_margin_status_without_a_traceback():
    # every margin of the gauge workload is below 1, so the status is 0
    assert run_into_a_closed_pipe(TOOL, "--workload", "gauge-k2-n16") == (0, "")


def test_a_closed_pipe_keeps_the_status_of_a_failing_margin(monkeypatch):
    # the reference moved by twice its tolerance on one value, as above:
    # the table cannot be written, and the status is still 1
    tool = load_tool()
    reference = tool.workloads.load_reference()
    want = reference.values[("t3", 2, 4)]
    want["resid_u"] += 2 * tool.tolerance(reference, 2, 4, "resid_u", want["resid_u"])
    monkeypatch.setattr(tool.workloads, "load_reference", lambda: reference)
    read, write = os.pipe()
    os.close(read)
    with os.fdopen(write, "w") as out:
        monkeypatch.setattr(sys, "stdout", out)
        assert tool.main(["--workload", "gauge-k2-n16"]) == 1


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE=Prescott names an x86-64 kernel")
def test_margins_hold_under_the_default_and_the_prescott_blas_kernel():
    # the same levels in two processes, one under the BLAS kernel that
    # OpenBLAS picks for the CPU, one under its Prescott kernel, which any
    # x86-64 CPU runs and which sums in another order.  Top margins measured
    # on an AVX-512 CPU: t3:k2:n16 0.192 (default) and 0.185 (Prescott;
    # 0.409 under Haswell), t1:k3:n8 0.056 and 0.057.  Every margin stays
    # below 1
    columns = load_tool().workloads.COLUMNS
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    for setting in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
        proc = subprocess.run([sys.executable, "-c", MARGINS_SCRIPT, str(TOOL),
                               json.dumps(KERNEL_LEVELS)], env={**env, **setting},
                              capture_output=True, text=True, check=True)
        rows = json.loads(proc.stdout)
        assert len(rows) == len(columns) * len(KERNEL_LEVELS), setting
        assert all(margin < 1.0 for _, _, margin in rows), (setting, rows)
