"""Record reference answers in perfbench/reference.json.

    python3 perfbench/make_reference.py

Run from the repository root on a commit whose answers are trusted.  Every
workload decides fixed templates under seeded power-of-two scales that keep
the answer, so one answer per template (and alpha) holds on any seed; recording
several passes checks that too.  Workers count every answer that differs
from the recorded one as failed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import worker
from workloads import DEFAULT_SEED, REFERENCE, WORKLOADS

# Ops run per workload: three passes over the templates.
RECORDED_OPS = {"grid-decide": 54, "robustness-sweep": 54, "small-corpus": 250}


def record(name: str, n_ops: int, scratch: str) -> dict:
    wl = WORKLOADS[name](DEFAULT_SEED, scratch, None)
    out = {}
    for k in range(n_ops):
        answer, error = wl.answer(k, wl.run(k))
        if error is not None:
            raise SystemExit(f"{name} op {k}: {error}; nothing written")
        key = wl.reference_key(k)
        if out.setdefault(key, answer) != answer:
            raise SystemExit(f"{name} op {k}: {answer!r} differs from {out[key]!r} "
                             f"for {key}; nothing written")
    return out


def main() -> int:
    worker._import_robsat()
    scratch = os.path.join(worker.OUT_DIR, "reference")
    os.makedirs(scratch, exist_ok=True)
    try:
        reference = {}
        for name, n_ops in RECORDED_OPS.items():
            reference[name] = record(name, n_ops, scratch)
            print(f"{name}: {n_ops} ops, {len(reference[name])} answers", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
