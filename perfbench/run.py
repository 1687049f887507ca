"""pdwg benchmark: refinement-ladder workloads timed end to end, with a
separate traced run for the per-layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src.  Every
measurement runs in a fresh worker process with single-threaded BLAS.  With
--trace 0 the last line of output is a JSON object holding the end-to-end
metrics, whose timings are scaled by the yardstick (yardstick.py) timed next
to them; with --trace 1 it holds the per-layer metrics.  The line before it
holds the details: every sample, the environment and any failed level.
The exit code is 0 only when every worker finished; a level that fails or
misses its reference is reported through "failed" and "correct".
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# set-up is timed in fresh processes before and after the measuring one
# (which times its own set-up too), so that the samples span the run
SETUP_SAMPLES_EACH_SIDE = 3
WORKER_TIMEOUT_S = 170
SPANS_DIR = HERE / "results"


def _declared_units(root):
    """metric name -> unit, for the end-to-end and per-layer lists that
    BENCHMARK.json declares."""
    with open(root / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class BenchmarkError(RuntimeError):
    pass


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _worker(mode, args, root, extra=()):
    """Run worker.py in a fresh interpreter; return its JSON result."""
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), *extra,
    ]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        # subprocess.run has already killed and reaped the worker
        raise BenchmarkError(f"{mode} worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{mode} worker printed no result:\n{proc.stderr}")
    return json.loads(lines[-1])


def summarize(samples):
    """Median, and the highest of the p90/p95/p99/p99.9 nearest-rank
    percentiles that leaves at least ten samples above it (None when there
    are too few samples for any), with the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n, "percentile": None, "value": None}
    for p in (99.9, 99.0, 95.0, 90.0):
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            out["percentile"] = f"p{p:g}"
            out["value"] = ordered[rank - 1]
            break
    return out


def _untraced(args, root):
    setup = [_worker("setup", args, root)["setup"] for _ in range(SETUP_SAMPLES_EACH_SIDE)]
    result = _worker("measure", args, root)
    setup.append(result["setup"])
    setup += [_worker("setup", args, root)["setup"] for _ in range(SETUP_SAMPLES_EACH_SIDE)]
    samples = {name: [s[name] for s in setup]
               for name in ("setup_s", "setup_raw_s", "setup_yardstick_s")}
    samples.update((name, result[name]) for name in ("pass_s", "pass_finest_s"))
    timings = {name: summarize(values) for name, values in samples.items()}
    metrics = {
        "setup_s": timings["setup_s"]["median"],
        "ladder_s": result["ladder_s"],
        "finest_level_s": result["finest_level_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    detail = {"timings": timings, "samples": samples, "levels": result["levels"]}
    return result, metrics, detail


def _traced(args, root):
    SPANS_DIR.mkdir(exist_ok=True)
    spans_out = SPANS_DIR / f"spans-{args.workload}.json"
    result = _worker("trace", args, root, ("--spans-out", str(spans_out)))
    detail = {
        "passes": result["passes"],
        "untraced_ladder_s": result["untraced_ladder_s"],
        "traced_ladder_s": result["traced_ladder_s"],
        "missing": result["missing"],
        "count_mismatch": result["count_mismatch"],
        "spans": str(spans_out.relative_to(root)),
    }
    return result, result["layers"], detail


def main(argv=None):
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "pdwg" / "__init__.py").is_file():
        print("run from the repository root: src/pdwg not found", file=sys.stderr)
        return 1
    end_to_end, per_layer = _declared_units(root)
    units = per_layer if args.trace else end_to_end
    try:
        measure = _traced if args.trace else _untraced
        result, metrics, detail = measure(args, root)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    undeclared = set(metrics) - set(units)
    if undeclared:
        print(f"metrics not declared in BENCHMARK.json: {sorted(undeclared)}", file=sys.stderr)
        return 1

    failures = result["failures"]
    attempted = result["attempted"]
    # a level counts once per pass it ran in
    failed = len(failures)
    mismatch = result.get("count_mismatch", [])
    if mismatch:
        print("self-check failed: counts differ between traced passes: "
              + ", ".join(mismatch), file=sys.stderr)
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fail_ratio": {"value": failed / attempted, "unit": "ratio"},
        "failures": failures[:20],
        "env": result["env"],
    })
    for reason in failures[:20]:
        print(f"check failed: {reason}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failures and not mismatch,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
