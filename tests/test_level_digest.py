"""tools/level_digest.py reads the library and the benchmark's workloads
from outside; a rename in either must not break it silently."""

import importlib.util
from pathlib import Path

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
