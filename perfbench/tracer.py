"""In-memory span recorder and the hooks that feed it.

The hooks wrap, from outside the library, the names that ``pdwg.cli`` calls
for each level, ``splu`` as ``pdwg.system`` reaches it, ``DofMap.__init__``
and the closed forms of the case that ``pdwg.cli.get_case`` returns.  Every
wrapper is removed again by ``Hooks.restore``.  A hook whose target is gone
is skipped, and the metrics that need it are reported as missing.
"""

from __future__ import annotations

import dataclasses
import statistics
from time import perf_counter

SPAN_FIELDS = ("id", "parent", "trace", "name", "start", "end", "attrs")

# metric -> hooks it needs; a metric whose hooks did not all install is
# missing from the result rather than reported as zero
_CLI_HOOKS = (
    "cli.build_uniform_mesh", "cli.classify_boundary", "cli.LocalOperators",
    "cli.assemble", "cli.solve", "cli.error_report", "cli.get_case",
)
METRIC_HOOKS = {
    "mesh.build_s": ("cli.build_uniform_mesh", "cli.classify_boundary"),
    "weakops.local_ops_s": ("cli.LocalOperators",),
    "system.assemble_s": ("cli.assemble", "cli.get_case"),
    "system.factor_s": ("system.spla.splu",),
    "system.solve_s": ("cli.solve", "system.spla.splu"),
    "norms.error_report_s": ("cli.error_report", "cli.get_case"),
    "cli.run_study_self_s": _CLI_HOOKS + ("system.spla.splu",),
    "cases.eval_s": ("cli.get_case",),
    "cases.calls": ("cli.get_case",),
    "fespace.dofmap_builds_per_level": ("fespace.DofMap.__init__",),
    "system.factorizations_per_solve": ("cli.solve", "system.spla.splu"),
    "system.n_free": ("cli.solve",),
    "system.matrix_nnz": ("cli.solve",),
    "system.lu_nnz": ("cli.solve", "system.spla.splu"),
}
# counts that must repeat exactly from one traced pass to the next
EXACT_COUNTS = (
    "cases.calls", "fespace.dofmap_builds_per_level",
    "system.factorizations_per_solve", "system.n_free",
    "system.matrix_nnz", "system.lu_nnz",
)


class SpanRecorder:
    """Spans of one traced pass, kept as lists in the order they opened:
    [id, parent id, trace id, name, start, end, attrs].  The trace id is
    the id of the root span, one per run_study call."""

    def __init__(self):
        self.spans = []
        self.dofmap_builds = 0
        self._stack = []

    def call(self, name, fn, args, kwargs, attrs=None):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        trace = sid if parent is None else self.spans[parent][2]
        rec = [sid, parent, trace, name, perf_counter(), None, attrs]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[5] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def current_attrs(self):
        """The attrs dict of the innermost open span, None outside any."""
        if not self._stack:
            return None
        rec = self.spans[self._stack[-1]]
        if rec[6] is None:
            rec[6] = {}
        return rec[6]


class _SplaProxy:
    """Stands in for ``scipy.sparse.linalg`` inside ``pdwg.system`` with a
    traced ``splu``; every other name goes to the real module."""

    def __init__(self, real, splu):
        self._real = real
        self.splu = splu

    def __getattr__(self, name):
        return getattr(self._real, name)


class Hooks:
    """Installs the wrappers around one recorder; ``restore`` removes them.
    ``installed`` names the hooks that found their target."""

    def __init__(self, rec):
        import pdwg.cli as cli
        import pdwg.fespace as fespace
        import pdwg.system as system

        self.installed = set()
        self._undo = []

        for attr, name in (
            ("build_uniform_mesh", "mesh.build_uniform_mesh"),
            ("classify_boundary", "mesh.classify_boundary"),
            ("LocalOperators", "weakops.LocalOperators"),
            ("assemble", "system.assemble"),
            ("error_report", "norms.error_report"),
        ):
            if hasattr(cli, attr):
                self._patch(cli, attr, rec.wrap(name, getattr(cli, attr)), f"cli.{attr}")

        if hasattr(cli, "solve"):
            real_solve = cli.solve

            def solve(system_, *args, **kwargs):
                attrs = {"n_free": int(system_.matrix.shape[0]),
                         "matrix_nnz": int(system_.matrix.nnz), "lu_nnz": 0}
                return rec.call("system.solve", real_solve, (system_,) + args, kwargs, attrs)

            self._patch(cli, "solve", solve, "cli.solve")

        if hasattr(cli, "get_case"):
            real_get_case = cli.get_case

            def get_case(case_id):
                case = real_get_case(case_id)
                fields = {f: getattr(case, f) for f in ("u", "grad_u", "f")
                          if callable(getattr(case, f, None))}
                return dataclasses.replace(
                    case, **{f: rec.wrap("cases.eval", fn) for f, fn in fields.items()})

            self._patch(cli, "get_case", get_case, "cli.get_case")

        spla = getattr(system, "spla", None)
        if spla is not None and hasattr(spla, "splu"):
            real_splu = spla.splu

            def splu(*args, **kwargs):
                lu = rec.call("system.factor", real_splu, args, kwargs)
                # SuperLU.nnz counts L and U without building either copy;
                # the fill of every factorization in one solve adds up
                solve_attrs = rec.current_attrs()
                if solve_attrs is not None:
                    solve_attrs["lu_nnz"] = solve_attrs.get("lu_nnz", 0) + int(lu.nnz)
                return lu

            self._patch(system, "spla", _SplaProxy(spla, splu), "system.spla.splu")

        dofmap = getattr(fespace, "DofMap", None)
        if dofmap is not None and "__init__" in vars(dofmap):
            real_init = dofmap.__init__

            def init(self_, *args, **kwargs):
                rec.dofmap_builds += 1
                real_init(self_, *args, **kwargs)

            self._patch(dofmap, "__init__", init, "fespace.DofMap.__init__")

    def _patch(self, owner, attr, value, hook):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)
        self.installed.add(hook)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def missing_metrics(self):
        return sorted(m for m, needs in METRIC_HOOKS.items()
                      if not self.installed.issuperset(needs))


def self_times(spans):
    """Duration minus the time covered by direct children, per span id.
    Spans of one thread nest, so children never overlap."""
    out = [s[5] - s[4] for s in spans]
    for s in spans:
        if s[1] is not None:
            out[s[1]] -= s[5] - s[4]
    return out


def layer_metrics(recorder, n_levels):
    """Per-layer numbers of one traced pass."""
    spans = recorder.spans
    own = self_times(spans)
    by_name = {}
    for s, t in zip(spans, own):
        by_name.setdefault(s[3], []).append((s, t))

    def self_sum(*names):
        return sum(t for name in names for _, t in by_name.get(name, ()))

    solves = [s for s, _ in by_name.get("system.solve", ())]
    n_factor = len(by_name.get("system.factor", ()))
    # the last solve under each run_study root is that study's finest level
    finest = {}
    for s in solves:
        finest[s[2]] = s[6]
    return {
        "mesh.build_s": self_sum("mesh.build_uniform_mesh", "mesh.classify_boundary"),
        "weakops.local_ops_s": self_sum("weakops.LocalOperators"),
        "system.assemble_s": self_sum("system.assemble"),
        "system.factor_s": self_sum("system.factor"),
        "system.solve_s": self_sum("system.solve"),
        "norms.error_report_s": self_sum("norms.error_report"),
        "cli.run_study_self_s": self_sum("cli.run_study"),
        "cases.eval_s": self_sum("cases.eval"),
        "cases.calls": len(by_name.get("cases.eval", ())),
        "fespace.dofmap_builds_per_level": recorder.dofmap_builds / n_levels,
        "system.factorizations_per_solve": n_factor / len(solves) if solves else None,
        "system.n_free": sum(a["n_free"] for a in finest.values()),
        "system.matrix_nnz": sum(a["matrix_nnz"] for a in finest.values()),
        "system.lu_nnz": sum(a["lu_nnz"] for a in finest.values()),
    }


def median_metrics(passes):
    """Median of each timing over traced passes; the exact counts are taken
    from the first pass (the caller checks that they repeat)."""
    return {name: passes[0][name] if name in EXACT_COUNTS
            else statistics.median(p[name] for p in passes)
            for name in passes[0]}
