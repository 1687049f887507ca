import os
import subprocess
import sys

import numpy as np
import pytest

from pdwg import cli
from pdwg.cases import case_ids
from pdwg.cli import (
    CSV_HEADER,
    ConvergenceReport,
    LevelResult,
    emit,
    main,
    run_study,
)
from pdwg.norms import ErrorReport


def make_report(values, case_id="t1", ns=None):
    ns = ns or [2**i for i in range(len(values))]
    report = ConvergenceReport(case_id=case_id, k=1)
    for n, val in zip(ns, values):
        rep = None
        if val is not None:
            rep = ErrorReport(l2_e0=val, h1_e0=val, resid_u=val, resid_lambda=val, stab_u=val)
        report.levels.append(
            LevelResult(n=n, h=np.sqrt(2) / n, wall_ms=1.0, report=rep)
        )
    return report


def test_csv_header_exact():
    assert CSV_HEADER == (
        "case,k,n,h,l2_e0,order_l2,h1_e0,order_h1,"
        "resid_u,order_resid,resid_lambda,stab_u,wall_ms"
    )
    text = emit(make_report([1.0]), "csv")
    assert text.splitlines()[0] == CSV_HEADER


def test_emit_empty_report_header_only():
    report = ConvergenceReport(case_id="t1", k=1)
    assert emit(report, "csv") == CSV_HEADER + "\n"


def test_emit_single_level_no_orders():
    text = emit(make_report([0.5]), "csv")
    row = text.splitlines()[1].split(",")
    assert row[5] == "" and row[7] == "" and row[9] == ""


def test_orders_log2_rule():
    report = make_report([0.4, 0.1, 0.025])
    orders = report.orders("l2_e0")
    assert orders[0] is None
    assert orders[1] == pytest.approx(2.0)
    assert orders[2] == pytest.approx(2.0)


def test_order_floor_suppresses_machine_noise():
    report = make_report([1e-14, 2e-15])
    assert report.orders("l2_e0") == [None, None]


def test_orders_skip_non_doubling_steps():
    report = make_report([0.4, 0.1], ns=[2, 6])
    assert report.orders("l2_e0") == [None, None]


def test_orders_skip_failed_levels():
    report = make_report([0.4, None, 0.025], ns=[2, 4, 8])
    assert report.orders("l2_e0") == [None, None, None]


def test_scientific_formatting_four_digits():
    text = emit(make_report([0.123456]), "csv")
    row = text.splitlines()[1].split(",")
    assert row[4] == "1.235e-01"


def test_markdown_emit_table_layout():
    text = emit(make_report([0.4, 0.1]), "markdown")
    lines = text.splitlines()
    assert lines[2].startswith("| 1/h |")
    assert "| 2 |" in lines[5]
    assert "| 2 |" in text  # order column populated on the finer row


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit(make_report([1.0]), "xml")


def test_run_study_validations():
    with pytest.raises(KeyError):
        run_study("bogus", [1, 2])
    with pytest.raises(ValueError):
        run_study("t1", [])
    with pytest.raises(ValueError):
        run_study("t1", [2, 1])
    with pytest.raises(ValueError):
        run_study("t1", [0, 1])
    # levels that are not integers are rejected up front, not truncated
    for levels in ([1.5, 2.9], [1, 2.0], [True, 2]):
        with pytest.raises(ValueError, match="refinement levels must be integers"):
            run_study("t6", levels)
    # a degree that is not an integer is rejected by the dof map's gate
    for k in (2.0, True):
        with pytest.raises(ValueError, match="not supported"):
            run_study("t6", [1, 2], k=k)
    assert [lvl.n for lvl in run_study("t6", [np.int64(1), 2], k=np.int64(1)).levels] == [1, 2]


def test_run_study_t1_machine_precision():
    report = run_study("t1", [1, 2], k=1)
    assert [lvl.n for lvl in report.levels] == [1, 2]
    for lvl in report.levels:
        assert not lvl.failed
        assert lvl.report.l2_e0 <= 1e-10
    # machine-precision saturation: no orders reported
    assert report.orders("l2_e0") == [None, None]


def test_cli_list_cases(capsys):
    assert main(["--list-cases"]) == 0
    out = capsys.readouterr().out
    assert "t1 " in out and "t14c" in out


def test_module_entry_point_lists_every_case():
    # python -m pdwg runs __main__.py, which no in-process test imports
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "pdwg", "--list-cases"], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    listed = [line.split()[0] for line in proc.stdout.splitlines()]
    assert listed == list(case_ids()) and len(listed) == 16


def test_cli_requires_case():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_cli_usage_errors_exit_1(capsys):
    for argv in (
        ["--case", "nope", "--levels", "1,2"],
        ["--case", "t1", "--levels", "abc"],
        ["--case", "t1", "--levels", "4,2"],
        ["--case", "t1", "--degree", "7"],
        ["--case", "t1", "--format", "xml"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
        if argv[1] == "nope":
            # the message itself, not the repr that str() of a KeyError gives
            known = ", ".join(case_ids())
            assert capsys.readouterr().err.splitlines()[-1] == (
                f"pdwg: error: unknown case 'nope'; known cases: {known}")


def test_cli_success_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    matrix_path = tmp_path / "system.mtx"
    code = main([
        "--case", "t1", "--levels", "1,2", "--out", str(out_path),
        "--dump-matrix", str(matrix_path),
    ])
    assert code == 0
    text = out_path.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert len(text.splitlines()) == 3
    # coordinate export: 0-based sorted triplets
    entries = [line.split() for line in matrix_path.read_text().splitlines()]
    keys = [(int(r), int(c)) for r, c, _ in entries]
    assert keys == sorted(keys)
    assert len({(r, c) for r, c in keys}) == len(keys)


def test_cli_stdout_default(capsys):
    code = main(["--case", "t1", "--levels", "1", "--format", "markdown"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("Case t1")


def test_cli_failed_level_exit_2(monkeypatch, capsys):
    from pdwg.system import SingularSystemError

    calls = {"n": 0}

    def failing_solve(system):
        calls["n"] += 1
        raise SingularSystemError("synthetic failure")

    monkeypatch.setattr(cli, "solve", failing_solve)
    code = main(["--case", "t1", "--levels", "1,2"])
    assert code == 2
    assert calls["n"] == 2
    err = capsys.readouterr().err
    assert "failed" in err


@pytest.mark.parametrize("flag", ["--out", "--dump-matrix"])
@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_cli_unwritable_output_path_is_a_usage_error(monkeypatch, capsys, tmp_path, flag, where):
    # the path is opened before the study runs: one line on stderr, exit 1
    monkeypatch.setattr(cli, "run_study", lambda *args, **kwargs: pytest.fail("the study ran"))
    path = str(tmp_path / "missing" / "out.txt" if where == "missing-directory" else tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["--case", "t6", "--levels", "1", flag, path])
    assert exc.value.code == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"pdwg: error: cannot write {flag} {path!r}: ")


@pytest.mark.parametrize("flag", ["--out", "--dump-matrix"])
@pytest.mark.parametrize("argv", [
    pytest.param(["--case", "nope", "--levels", "1"], id="unknown-case"),
    pytest.param(["--case", "t6", "--levels", "0"], id="level-0"),
    pytest.param(["--case", "t6", "--levels", "4,2"], id="decreasing"),
    pytest.param(["--case", "t6", "--levels", ","], id="empty-ladder"),
])
def test_a_usage_error_leaves_no_output_file(tmp_path, capsys, flag, argv):
    # the case and the ladder are checked before the output path is opened
    path = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, str(path)])
    assert exc.value.code == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith("pdwg: error: ")
    assert not path.exists()


def run_into_a_closed_pipe(*args):
    """Exit status and stderr of `python *args`, pdwg importable, with its
    stdout a pipe whose reader closed before it writes, as `| head -c 0`
    does."""
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, *args], stdout=write, stderr=subprocess.PIPE,
                              env=dict(os.environ, PYTHONPATH=path), timeout=120)
    finally:
        os.close(write)
    return proc.returncode, proc.stderr.decode()


# pdwg with every level failing, its exit status 2
FAILING_PDWG = """
import sys
from pdwg import cli
from pdwg.system import SingularSystemError

def solve(system):
    raise SingularSystemError("synthetic failure")

cli.solve = solve
sys.exit(cli.main(sys.argv[1:]))
"""


def test_a_closed_pipe_keeps_the_exit_status_without_a_traceback():
    assert run_into_a_closed_pipe("-m", "pdwg", "--case", "t6", "--levels", "1") == (0, "")
    assert run_into_a_closed_pipe("-m", "pdwg", "--list-cases") == (0, "")
    assert run_into_a_closed_pipe("-c", FAILING_PDWG, "--case", "t6", "--levels", "1") == (
        2, "level n=1 failed: synthetic failure\n")


def test_csv_determinism_modulo_wall_time():
    def strip_wall(text):
        return "\n".join(",".join(line.split(",")[:-1]) for line in text.splitlines())

    # t6 exercises the regular path, t3 the projected multiplier-gauge path
    for case_id in ("t6", "t3"):
        first = emit(run_study(case_id, [1, 2, 4]), "csv")
        second = emit(run_study(case_id, [1, 2, 4]), "csv")
        assert strip_wall(first) == strip_wall(second)


GOLDEN_T6_ROWS = [
    "t6,1,1,1.414e+00,3.944e-02,,8.547e-02,,1.197e-01,,7.137e-01,1.100e-01",
    "t6,1,2,7.071e-01,8.827e-03,2.160e+00,3.028e-02,1.497e+00,9.071e-02,4.001e-01,3.499e-01,5.121e-02",
]


def test_csv_golden_t6():
    # frozen 4-significant-digit values; regression guard for the whole
    # mesh/assembly/solve/norms pipeline
    text = emit(run_study("t6", [1, 2]), "csv")
    rows = ["," .join(line.split(",")[:-1]) for line in text.splitlines()[1:]]
    assert rows == GOLDEN_T6_ROWS


def test_every_catalog_case_solves():
    from pdwg.cases import case_ids

    for cid in case_ids():
        report = run_study(cid, [1, 2])
        for lvl in report.levels:
            assert not lvl.failed, (cid, lvl.n, lvl.message)
            assert np.isfinite(lvl.report.l2_e0)
            assert np.isfinite(lvl.report.resid_lambda)


def test_cli_degree_two_runs():
    report = run_study("t6", [1, 2], k=2)
    assert all(not lvl.failed for lvl in report.levels)
    errs = [lvl.report.l2_e0 for lvl in report.levels]
    assert errs[1] < errs[0]


def test_markdown_failed_level_row():
    report = make_report([0.4, None], ns=[2, 4])
    text = emit(report, "markdown")
    assert "failed" in text


def test_one_dofmap_and_a_fixed_number_of_case_calls_per_level(monkeypatch):
    # every layer of a level reads the one LocalOperators context, and the
    # case's closed forms are called on whole point sets, not per element
    import dataclasses
    from collections import Counter

    from pdwg import fespace

    builds = []
    real_init = fespace.DofMap.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        real_init(self, *args, **kwargs)

    calls = Counter()
    real_get_case = cli.get_case

    def counting(name, fn):
        def wrapped(x, y):
            calls[name] += 1
            return fn(x, y)
        return wrapped

    def counting_get_case(case_id):
        case = real_get_case(case_id)
        return dataclasses.replace(case, **{name: counting(name, getattr(case, name))
                                            for name in ("u", "grad_u", "f")})

    monkeypatch.setattr(fespace.DofMap, "__init__", counting_init)
    monkeypatch.setattr(cli, "get_case", counting_get_case)
    per_level = {}
    for n in (2, 8):
        builds.clear()
        calls.clear()
        run_study("t6", [n], k=2)
        assert len(builds) == 1
        per_level[n] = dict(calls)
    assert per_level[2] == per_level[8]
    builds.clear()
    run_study("t3", [1, 2, 4])
    assert len(builds) == 3
