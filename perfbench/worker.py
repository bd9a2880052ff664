"""One workload run in a fresh process, so robsat's cache and the peak RSS
start cold.  Started by run.py; prints one JSON result line on stdout.

    python3 perfbench/worker.py --workload W --seed N --mode untraced \\
        --seconds S [--max-ops K]

Mode `setup` stops after set-up and reports when it was ready; `traced` wraps
the layers (see layers.py) and writes its spans under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pkgutil
import resource
import shutil
import sys
import time
import traceback

OUT_DIR = ".perfbench_out"
SETUP_KERNELS = 4  # kernel samples a set-up-only worker takes, for its speed scale


def _import_robsat():
    sys.path.insert(0, "src")
    import robsat

    for info in pkgutil.iter_modules(robsat.__path__):
        importlib.import_module(f"robsat.{info.name}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _cache_counts():
    cached = getattr(importlib.import_module("robsat.pl_map"), "_min_value_cached", None)
    if cached is None:
        return 0, 0
    info = cached.cache_info()
    return info.hits, info.misses


def run(args) -> dict:
    import speed
    from workloads import REFERENCE, WORKLOADS

    scratch = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh).get(args.workload)
        wl = WORKLOADS[args.workload](args.seed, scratch, reference)
        ready = time.monotonic()
        if args.mode == "setup":
            return {"ready": ready, "kernel": [speed.kernel_time() for _ in range(SETUP_KERNELS)]}
        out = timed_ops(args, wl)
        out["ready"] = ready
        return out
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def timed_ops(args, wl) -> dict:
    """The closed loop: ops one after another until --seconds or --max-ops,
    with a kernel sample whenever one is due between ops."""
    import layers
    import speed

    tracer = layers.Tracer() if args.mode == "traced" else None
    if tracer is not None:
        tracer.install()
    hits0, misses0 = _cache_counts()
    times, failures = [], []
    peak_rss_mb = None
    kernel = [speed.kernel_time()]
    loop_start = last_kernel = time.perf_counter()
    kernel_at, starts = [0.0], []
    k = 0
    while k < args.max_ops and time.perf_counter() - loop_start < args.seconds:
        due = int((time.perf_counter() - last_kernel) / speed.INTERVAL_S)
        for _ in range(due):
            kernel_at.append(time.perf_counter() - loop_start)
            kernel.append(speed.kernel_time())
        if due:
            last_kernel = time.perf_counter()
        wl.input(k)
        result = error = None
        if tracer is not None:
            tracer.op_id = k
            sid = tracer.begin("op")
        t0 = time.perf_counter()
        starts.append(t0 - loop_start)
        try:
            result = wl.run(k)
        except Exception:  # an op that raises is a failed op, not a crash
            error = traceback.format_exc()
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end(sid)
        times.append(t1 - t0)
        if error is None:
            try:
                _, error = wl.answer(k, result)
            except Exception:  # a check that cannot read the answer fails the op
                error = traceback.format_exc()
        if error is not None:
            failures.append([k, error])
            if len(failures) <= 3:
                print(f"{args.workload} op {k} failed: {error}", file=sys.stderr)
        k += 1
        if k == wl.pass_ops:
            peak_rss_mb = _peak_rss_mb()
    hits1, misses1 = _cache_counts()
    kernel_at.append(time.perf_counter() - loop_start)
    kernel.append(speed.kernel_time())
    out = {
        "times": times, "starts": starts, "pass_ops": wl.pass_ops,
        "kernel": kernel, "kernel_at": kernel_at,
        "failures": failures,
        # after a fixed amount of work, one pass over the templates: the
        # cache grows with every op, and a run's op count moves with speed
        "peak_rss_mb": peak_rss_mb or _peak_rss_mb(),
    }
    if tracer is not None:
        tracer.uninstall()
        summary = layers.summarize(tracer.spans, len(times),
                                   cli_op=args.workload == "small-corpus")
        lookups = (hits1 - hits0) + (misses1 - misses0)
        summary["pl_map.simplex_min_value.hit_ratio"] = (
            (hits1 - hits0) / lookups if lookups else 0.0)
        out["layers"] = summary
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        self_s = layers.self_times(tracer.spans)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["id", "name", "start", "end", "parent", "op", "attrs",
                                   "self_s"],
                       "spans": [row + [t] for row, t in zip(tracer.spans, self_s)]}, fh)
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "untraced", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--max-ops", type=int, default=10**9)
    args = parser.parse_args()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    _import_robsat()
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
