"""robsat benchmark: three seeded closed-loop workloads, one caller each.

    python3 perfbench/run.py --workload grid-decide --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root.  Each workload run happens in a fresh worker
process (worker.py).  With --trace 0 the result carries the end-to-end
metrics; with --trace 1 an untraced half-run and a traced run of the same ops
give the per-layer metrics and the tracing overhead.  Times are scaled to a
reference machine speed (see speed.py); the raw medians are printed too.  An
op that raises, exits outside {0, 3} or gives a wrong answer counts as
failed, and fail_ratio is printed per workload.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exits non-zero without a result when robsat's sources are not there, a
worker fails, or a traced layer records no call on a workload it measures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import speed  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9  # set-ups per run; setup_s is their median
TAIL_BEYOND = 10  # op_s.tail leaves this many ops above it
WORKER_TIMEOUT = 170

UNITS = {"op_s.p50": "s", "op_s.tail": "s", "ops_per_s": "1/s", "setup_s": "s",
         "peak_rss_mb": "MB"}


# per-layer metric name, or else its last part -> unit; the rest are ratios
LAYER_UNITS = {"trace.ops": "count", "trace.overhead_s": "s", "trace.op_s": "s/op",
               "calls": "1/op", "s": "s/op", "self_s": "s/op", "overhead_s": "s/op",
               "simplices_in": "count", "simplices_out": "count", "rows": "count",
               "cols": "count", "nonzeros": "count"}


class BenchError(Exception):
    pass


def worker(workload: str, seed: int, mode: str, seconds: float = 0.0,
           max_ops: int | None = None, timeout: float | None = WORKER_TIMEOUT
           ) -> tuple[dict, float]:
    """Run one worker to completion; returns (its result, spawn time)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    if max_ops is not None:
        cmd += ["--max-ops", str(max_ops)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} worker ran past {timeout} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} {mode} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def tail(times: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops
    above it, or None when the run has too few ops for it to lie above the
    median."""
    n = len(times)
    if n < 2 * TAIL_BEYOND:
        return None
    return sorted(times)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def scaled_times(res: dict) -> list[float]:
    factors = speed.scale_each(res["times"], res["starts"], res["kernel"], res["kernel_at"])
    return [t * f for t, f in zip(res["times"], factors)]


def untraced(workload: str, seed: int, seconds: float) -> tuple[dict, int, int, dict]:
    setups, setup_kernel = [], []
    for _ in range(SETUP_SAMPLES - 1):
        res, spawned = worker(workload, seed, "setup")
        setups.append(res["ready"] - spawned)
        setup_kernel += res["kernel"]
    res, spawned = worker(workload, seed, "untraced", seconds)
    setups.append(res["ready"] - spawned)
    if not res["times"]:
        raise BenchError(f"{workload}: no op completed")
    # Times count only the ops of complete passes over the workload's
    # templates, so that every run weighs the same mix of templates however
    # fast the machine was; all ops, when those are too few for op_s.tail.
    times = scaled_times(res)
    whole = len(times) - len(times) % res["pass_ops"]
    if whole >= 2 * TAIL_BEYOND:
        times = times[:whole]
    metrics = {
        "op_s.p50": statistics.median(times),
        "ops_per_s": len(times) / sum(times),
        "setup_s": statistics.median(setups) * speed.scale(setup_kernel),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    info = {"ops": len(res["times"]), "ops_timed": len(times),
            "raw_op_s.p50": round(statistics.median(res["times"][:len(times)]), 6),
            "raw_setup_s": round(statistics.median(setups), 6),
            "speed_scale": round(speed.scale(res["kernel"]), 4)}
    t = tail(times)
    if t is not None:
        metrics["op_s.tail"] = t[0]
        info["tail_percentile"] = round(t[1], 1)
    metrics = {name: {"value": metrics[name], "unit": UNITS[name]}
               for name in UNITS if name in metrics}
    return metrics, len(res["times"]), len(res["failures"]), info


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, int, int, dict]:
    base, _ = worker(workload, seed, "untraced", seconds / 2)
    k = len(base["times"])
    if k == 0:
        raise BenchError(f"{workload}: no op completed")
    res, _ = worker(workload, seed, "traced", 3 * seconds, max_ops=k)
    k = len(res["times"])
    values = dict(res["layers"])
    untraced_p50 = statistics.median(scaled_times(base)[:k])
    values["trace.overhead_s"] = statistics.median(scaled_times(res)) - untraced_p50
    values["trace.overhead_share"] = values["trace.overhead_s"] / untraced_p50
    values["trace.ops"] = k
    missing = [layer for layer, entry in layers.LAYERS.items()
               if workload in entry["workloads"] and values[f"{layer}.calls"] == 0]
    if missing:
        raise BenchError(f"{workload}: traced layers recorded no call: {', '.join(missing)}")
    metrics = {name: {"value": val, "unit": layer_unit(name)}
               for name, val in sorted(values.items())}
    failed = len(base["failures"]) + len(res["failures"])
    return metrics, len(base["times"]) + k, failed, {"ops": k}


def layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name) or LAYER_UNITS.get(name.rsplit(".", 1)[1], "ratio")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "robsat", "__init__.py")):
        print("perfbench: robsat sources not found under src/robsat", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, seed {args.seed}, "
          f"{args.seconds:g} s per run, trace {args.trace}")
    run_one = traced if args.trace else untraced
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            metrics, attempted, failed, info = run_one(name, args.seed, args.seconds)
            extra = ", ".join(f"{k} {v}" for k, v in info.items())
            print(f"{name}: {extra}, fail_ratio {failed / attempted:.4f} ({failed}/{attempted})")
            for metric, m in metrics.items():
                print(f"  {metric} = {m['value']:.6g} {m['unit']}")
            total["attempted"] += attempted
            total["failed"] += failed
            prefix = "" if len(names) == 1 else f"{name}:"
            total["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    total["correct"] = total["failed"] == 0
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
