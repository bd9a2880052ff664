"""In-process A/B timing of this tree against another checkout.

Run from the repository root:

    PYTHONPATH=src python3 tests/ab_timing.py PARENT_DIR [--workload NAME] [--ops N]

PARENT_DIR is a checkout of another commit (for example the parent, made
with `git archive`).  Its `src/robsat` is copied to a temporary directory
under the package name `robsat_parent`; robsat imports only relatively, so
both trees load in one process, each with its own caches.  For each
workload (grid-decide and robustness-sweep, or the one named) the inputs
of ops 0 .. N-1 (default 72, four passes over the templates) are built on
both trees by perfbench/workloads.py, which this script only imports.  Op
k runs on both trees, in an order that alternates from run to run, 3 times
each; before every run the op's input is rebuilt (so vertex-norm tables are
cold) and `pl_map._simplex_min`'s cache is cleared, and the least of the 3
times is kept.  The two trees' answers must be equal, or the script exits 1.

It prints, per workload, the median over ops of this tree's time divided by
the parent's, the ratio of the summed times, and how many ops each side
won.  This is a readout, not a gate: the perfbench runs and their bounds are
the gates.  A tree against a copy of itself should read within about 2% of
1.00.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import os
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS_PY = os.path.join(ROOT, "perfbench", "workloads.py")
NAMES = ("grid-decide", "robustness-sweep")
REPEAT = 3


def load_workloads(module_name: str, package: str):
    """perfbench/workloads.py loaded as `module_name`, reading robsat from
    `package`."""
    spec = importlib.util.spec_from_file_location(module_name, WORKLOADS_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    mod._mod = lambda name: importlib.import_module(f"{package}.{name}")
    return mod


class Side:
    """One tree: its workload object and its `_simplex_min`."""

    def __init__(self, workloads, package: str, name: str, scratch: str):
        self.wl = workloads.WORKLOADS[name](0, scratch, None)
        self.simplex_min = importlib.import_module(f"{package}.pl_map")._simplex_min

    def time_op(self, k: int) -> tuple[float, tuple]:
        self.wl.inputs.pop(k, None)
        self.wl.input(k)
        self.simplex_min.cache_clear()
        gc.collect()
        start = time.perf_counter()
        result = self.wl.run(k)
        elapsed = time.perf_counter() - start
        return elapsed, self.wl.answer(k, result)


def compare(name: str, ops: int, new_wl, old_wl, scratch: str) -> bool:
    new = Side(new_wl, "robsat", name, scratch)
    old = Side(old_wl, "robsat_parent", name, scratch)
    ratios, new_total, old_total, same = [], 0.0, 0.0, True
    for k in range(ops):
        best = {}
        for rep in range(REPEAT):
            order = (new, old) if (k + rep) % 2 == 0 else (old, new)
            for side in order:
                t, answer = side.time_op(k)
                prev = best.get(side)
                best[side] = (min(t, prev[0]) if prev else t, answer)
        (t_new, a_new), (t_old, a_old) = best[new], best[old]
        if a_new != a_old:
            print(f"{name} op {k}: answers differ: {a_new} != {a_old}")
            same = False
        ratios.append(t_new / t_old)
        new_total += t_new
        old_total += t_old
    wins = sum(r < 1 for r in ratios)
    print(f"{name}: {ops} ops, median ratio {statistics.median(ratios):.3f}, "
          f"sum ratio {new_total / old_total:.3f} ({new_total:.3f} s / {old_total:.3f} s), "
          f"this tree faster in {wins}, parent faster in {ops - wins}")
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--ops", type=int, default=72)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    with tempfile.TemporaryDirectory() as scratch:
        shutil.copytree(os.path.join(args.parent_dir, "src", "robsat"),
                        os.path.join(scratch, "robsat_parent"))
        sys.path.insert(0, scratch)
        new_wl = load_workloads("workloads_this", "robsat")
        old_wl = load_workloads("workloads_parent", "robsat_parent")
        names = NAMES if args.workload == "all" else (args.workload,)
        same = all([compare(name, args.ops, new_wl, old_wl, scratch) for name in names])
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
