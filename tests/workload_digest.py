"""Answer digests of one pass of each benchmark workload.

Run from the repository root:

    PYTHONPATH=src python3 tests/workload_digest.py

For every op of one pass over each workload's templates, at the workloads'
default seed, it prints the workload, the op index and two sha256 digests
over the op's answer:

* grid-decide: verdict, reason, witness values and the extension
  certificate (w, vertex_extension);
* robustness-sweep: the robustness tag and value (and interval ends);
* small-corpus: the CLI's exit code, its JSON document without "timings",
  and stderr.

The first digest covers all of it; the second leaves out the extension
certificates (every "w", "u" and "vertex_extension" entry), so it stays the
same when only the certificate changes.  Each digest also covers the
workload's own answer check (its answer text and the reason it gives for a
wrong answer, if any).  The last line of a workload gives a sha256 over each
column of op digests.  Two checkouts that print the same lines gave the same
answers.  The workloads come from perfbench/workloads.py, which
this script only imports.  pytest does not collect this file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from enum import Enum
from fractions import Fraction

sys.path.insert(0, "perfbench")

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

from robsat.pl_map import PLMap  # noqa: E402


def canon(obj):
    """A JSON-able form of an op result that two checkouts print alike."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, PLMap):
        return {"n": obj.n, "values": canon(obj.values)}
    if dataclasses.is_dataclass(obj):
        return {f.name: canon(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        pairs = [[canon(k), canon(v)] for k, v in obj.items()]
        return sorted(pairs, key=lambda kv: json.dumps(kv[0], sort_keys=True))
    if isinstance(obj, (list, tuple)):
        return [canon(x) for x in obj]
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def op_payload(name: str, result):
    if name == "small-corpus":
        code, out, err = result
        doc = json.loads(out) if out.strip() else None
        if isinstance(doc, dict):
            doc.pop("timings", None)
        return {"code": code, "doc": doc, "stderr": err}
    return canon(result)


CERTIFICATE_KEYS = ("w", "u", "vertex_extension")


def without_certificates(obj):
    """The canonical payload with every certificate entry dropped."""
    if isinstance(obj, dict):
        return {k: without_certificates(v) for k, v in obj.items() if k not in CERTIFICATE_KEYS}
    if isinstance(obj, list):
        return [without_certificates(x) for x in obj]
    return obj


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_workload(name: str, seed: int) -> list[tuple[str, str]]:
    """(full digest, certificate-free digest) of each op."""
    with tempfile.TemporaryDirectory() as scratch:
        wl = WORKLOADS[name](seed, scratch, None)
        lines = []
        for k in range(wl.pass_ops):
            result = wl.run(k)
            answer, error = wl.answer(k, result)
            payload = op_payload(name, result)
            lines.append((digest({"op": payload, "answer": answer, "error": error}),
                          digest({"op": without_certificates(payload),
                                  "answer": answer, "error": error})))
    return lines


def main() -> int:
    for name in WORKLOADS:
        lines = run_workload(name, DEFAULT_SEED)
        for k, (full, answers) in enumerate(lines):
            print(f"{name} {k} {full} {answers}")
        full, answers = zip(*lines)
        print(f"{name} all({len(lines)}) {digest(list(full))} {digest(list(answers))}")
    return 0

if __name__ == "__main__":
    sys.exit(main())
