"""One benchmark process: set-up, then untraced or traced passes.

Started by run.py in a fresh interpreter for every measurement, so that the
set-up time includes the first ``import pdwg`` and the peak RSS belongs to
one workload.  Prints one JSON object as its last line of output.

    python3 perfbench/worker.py --mode setup|measure|trace \
        --workload NAME --seed N --seconds S
"""

import argparse
import json
import statistics
import sys
import time

import workloads

# one untraced pass of the catalog sweep can take 20 s on a slow machine,
# so a run may measure a single pass; a traced run takes two pairs, so that
# the exact counts can be compared between passes
MIN_PASSES = 1
MIN_TRACED_PAIRS = 2
SETUP_YARDSTICK_RUNS = 3


def scaled_time(levels, keys):
    """Sum over ``keys`` of the median, over passes, of the level's wall
    time scaled by the yardstick timed around its study."""
    import yardstick

    return sum(statistics.median(yardstick.scale(wall, local) for wall, local in levels[key])
               for key in keys)


def _time_left(start, seconds, passes, minimum):
    """Whether the run takes another pass: it takes at least ``minimum``,
    and then another one only if, as long as the last, it ends in time."""
    return len(passes) < minimum or (
        time.perf_counter() + passes[-1] - start <= seconds)


def _parse():
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans-out")
    return parser.parse_args()


def _setup(workload):
    """Import pdwg and run one n=1 level: the lazy quadrature and basis
    caches every process pays once.  The time is scaled by the median of a
    few yardstick timings taken right after it."""
    start = time.perf_counter()
    import pdwg

    case_id, k = workloads.setup_study(workload)
    report = pdwg.run_study(case_id, [1], k=k)
    elapsed = time.perf_counter() - start
    if report.levels[0].failed:
        raise SystemExit(f"set-up level {case_id} k={k} n=1 failed: {report.levels[0].message}")
    import yardstick

    local = statistics.median(yardstick.time_once() for _ in range(SETUP_YARDSTICK_RUNS))
    return {"setup_s": yardstick.scale(elapsed, local), "setup_raw_s": elapsed,
            "setup_yardstick_s": local}


class _Pass:
    """Runs every study of the workload once and checks each level."""

    def __init__(self, workload, seed):
        self.studies = workloads.studies(workload, seed)
        self.reference = workloads.load_reference()
        self.attempted = 0
        self.failures = []
        self._yardstick_s = None

    @property
    def n_levels(self):
        return sum(len(ladder) for _, _, ladder in self.studies)

    @property
    def finest_keys(self):
        return [workloads.level_key(case_id, k, ladder[-1])
                for case_id, k, ladder in self.studies]

    def run(self, run_study, levels=None):
        """Wall time of the pass.  With ``levels`` given, also times the
        yardstick before and after every study, outside the pass's wall
        time, and appends to ``levels[key]`` the pair (wall time of the
        level, mean of the two yardstick times around its study)."""
        import yardstick

        wall = 0.0
        for case_id, k, ladder in self.studies:
            if levels is not None and self._yardstick_s is None:
                self._yardstick_s = yardstick.time_once()
            start = time.perf_counter()
            report = run_study(case_id, ladder, k=k)
            wall += time.perf_counter() - start
            if levels is not None:
                before, self._yardstick_s = self._yardstick_s, yardstick.time_once()
                local = (before + self._yardstick_s) / 2
                for level in report.levels:
                    key = workloads.level_key(case_id, k, level.n)
                    levels.setdefault(key, []).append((level.wall_ms / 1e3, local))
            self._check(case_id, k, report)
        return wall

    def _check(self, case_id, k, report):
        for level in report.levels:
            self.attempted += 1
            reason = self.reference.check_level(case_id, k, level)
            if reason is not None:
                self.failures.append(reason)


def _measure(args, setup):
    import resource

    import pdwg

    bench = _Pass(args.workload, args.seed)
    passes, levels = [], {}
    start = time.perf_counter()
    while _time_left(start, args.seconds, passes, MIN_PASSES):
        passes.append(bench.run(pdwg.run_study, levels))
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(passes)
    finest = bench.finest_keys
    return {
        "setup": setup,
        "ladder_s": scaled_time(levels, levels),
        "finest_level_s": scaled_time(levels, finest),
        "pass_s": passes,
        "pass_finest_s": [sum(levels[key][i][0] for key in finest) for i in range(n)],
        "levels": levels,
        "peak_rss_mb": peak,
        "attempted": bench.attempted,
        "failures": bench.failures,
        "env": _environment(),
    }


def _trace(args, setup):
    """Untraced and traced passes in the order U T T U U T ..., so that a
    steady drift of the machine's speed cancels out of the overhead.  Each
    traced pass installs the hooks on a fresh recorder and removes them
    afterwards."""
    import pdwg

    import tracer

    bench = _Pass(args.workload, args.seed)
    untraced, traced, layers, spans = [], [], [], []
    missing = []

    def traced_pass():
        nonlocal missing
        rec = tracer.SpanRecorder()
        hooks = tracer.Hooks(rec)
        try:
            def run_study(case_id, ladder, k):
                return rec.call("cli.run_study", pdwg.run_study, (case_id, ladder), {"k": k})

            traced.append(bench.run(run_study))
        finally:
            hooks.restore()
        missing = hooks.missing_metrics()
        layers.append(tracer.layer_metrics(rec, bench.n_levels))
        spans.append(rec.spans)

    def untraced_pass():
        untraced.append(bench.run(pdwg.run_study))

    pairs = []
    start = time.perf_counter()
    while _time_left(start, args.seconds, pairs, MIN_TRACED_PAIRS):
        pair_start = time.perf_counter()
        pair = (untraced_pass, traced_pass) if len(traced) % 2 == 0 else (traced_pass, untraced_pass)
        for run_pass in pair:
            run_pass()
        pairs.append(time.perf_counter() - pair_start)

    layers = [{name: v for name, v in p.items() if name not in missing} for p in layers]
    mismatched = [name for name in tracer.EXACT_COUNTS
                  if name in layers[0] and len({p[name] for p in layers}) != 1]
    metrics = tracer.median_metrics(layers)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    if args.spans_out:
        with open(args.spans_out, "w") as fh:
            json.dump({"fields": tracer.SPAN_FIELDS, "passes": spans}, fh)
    return {
        "setup": setup,
        "layers": metrics,
        "passes": layers,
        "untraced_ladder_s": untraced,
        "traced_ladder_s": traced,
        "missing": missing,
        "count_mismatch": mismatched,
        "attempted": bench.attempted,
        "failures": bench.failures,
        "env": _environment(),
    }


def _blas(config):
    try:
        blas = config.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def _environment():
    import os
    import platform

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy.__config__),
        "scipy_blas": _blas(scipy.__config__),
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main():
    args = _parse()
    setup = _setup(args.workload)
    if args.mode == "setup":
        result = {"setup": setup}
    elif args.mode == "measure":
        result = _measure(args, setup)
    else:
        result = _trace(args, setup)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
