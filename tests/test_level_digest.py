"""tools/level_digest.py reads the library and the benchmark's workloads
from outside; a rename in either must not break it silently."""

import importlib.util
from pathlib import Path

import numpy as np
from test_reference_margins import run_into_a_closed_pipe

TOOL = Path(__file__).resolve().parents[1] / "tools" / "level_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("level_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_level_digest_is_repeatable_and_tells_levels_apart():
    # t3 at k=3 takes the solve path of a two-dimensional gauge kernel,
    # t6 at k=1 the regular one
    tool = load_tool()
    gauge = tool.level_digest("t3", 3, 1)
    assert gauge == tool.level_digest("t3", 3, 1)
    assert len(gauge) == 64 and gauge != tool.level_digest("t6", 1, 1)
    assert tool.combined([gauge]) != gauge


def test_level_digest_covers_the_error_report(monkeypatch):
    # the same level, its solution and local matrices unchanged, with one
    # error functional one ulp off: the digest moves
    tool = load_tool()
    before = tool.level_digest("t6", 1, 2)
    real = tool.error_report

    def nudged(*args):
        report = real(*args)
        report.stab_u = np.nextafter(report.stab_u, np.inf)
        return report

    monkeypatch.setattr(tool, "error_report", nudged)
    assert tool.level_digest("t6", 1, 2) != before


def test_per_level_digests_name_each_level_and_make_up_the_sum(capsys):
    # --levels prints one line per level, its key and its digest, in key
    # order; combined in that order they give the workload's line
    tool = load_tool()
    tool.main(["--levels", "--workload", "gauge-k2-n16"])
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [key for key, _ in lines] == ["t3:k2:n2", "t3:k2:n4", "t3:k2:n8", "t3:k2:n16"]
    assert lines[-1][1] == tool.level_digest("t3", 2, 16)
    tool.main(["--workload", "gauge-k2-n16"])
    sums = capsys.readouterr().out.splitlines()
    assert sums[0].split() == ["gauge-k2-n16", "4", "levels",
                               tool.combined(digest for _, digest in lines)]


def test_a_closed_pipe_exits_with_0_without_a_traceback():
    assert run_into_a_closed_pipe(TOOL, "--workload", "gauge-k2-n16") == (0, "")
    assert run_into_a_closed_pipe(TOOL, "--levels", "--workload", "gauge-k2-n16") == (0, "")
