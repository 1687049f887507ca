"""The benchmark's tracer wraps library names from outside; a rename in
pdwg must not silently drop one of its per-layer metrics."""

import importlib.util
from pathlib import Path

import pdwg.cli as cli
import pdwg.fespace as fespace
import pdwg.system as system

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_find_every_target_and_restore():
    tracer = load_tracer()
    names = ("build_uniform_mesh", "classify_boundary", "LocalOperators",
             "assemble", "solve", "error_report", "get_case")
    before = [getattr(cli, name) for name in names]
    before += [system.spla, fespace.DofMap.__init__]
    hooks = tracer.Hooks(tracer.SpanRecorder())
    try:
        assert hooks.missing_metrics() == []
    finally:
        hooks.restore()
    after = [getattr(cli, name) for name in names] + [system.spla, fespace.DofMap.__init__]
    assert all(a is b for a, b in zip(before, after))
