"""Per-layer tracing from outside robsat.

The traced run replaces each layer's public function, in every robsat module
that binds it, with a wrapper that records a span (name, start, end, parent,
op id) in memory.  A call made while a span of the same layer is open is not
recorded again, so nested calls count once.  Self time is a span's duration
minus the time its child spans cover.

layer_map.json maps each layer to the end-to-end metric it should move and
the workloads it is meant to measure; the traced run fails if one of those
workloads records no call of it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# layer -> {"moves": end-to-end metric it should move, "workloads": [...]}
with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "layer_map.json"),
          encoding="utf-8") as _fh:
    LAYERS = json.load(_fh)["layers"]

# Calls the CLI counts as "the decision"; the rest of cli.main is overhead.
DECISION_LAYERS = ("robustness.decide_robsat", "robustness.decide_with_inequalities",
                   "oracles.perturbation_witness")


def _simplices(cx) -> int:
    return len(cx.simplices)


def _smith_shape(args, result):
    system = args[0]
    rows, cols = system.shape
    return {"rows": rows, "cols": cols,
            "nonzeros": sum(1 for row in system.matrix for x in row if x)}


# layer -> (attribute names, function(args, result) giving them for one call).
# Attributes are computed after the span has ended and reported as per-call
# means.
ATTRIBUTES = {
    "reduction.vertexwise_extremal_subdivision": (
        ("simplices_in", "simplices_out"),
        lambda args, res: {"simplices_in": _simplices(args[0].complex),
                           "simplices_out": _simplices(res.complex)}),
    "reduction.split_level": (
        ("simplices_out",), lambda args, res: {"simplices_out": _simplices(res.f.complex)}),
    "homotopy.smith_solve": (("rows", "cols", "nonzeros"), _smith_shape),
    "oracles.perturbation_witness": (
        ("found_ratio",), lambda args, res: {"found_ratio": int(res is not None)}),
}


class Tracer:
    """Records spans in memory; `spans` rows are
    [id, name, start, end, parent id, op id, attributes]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.open_layers: dict[str, int] = {}
        self.op_id = -1
        self._restore: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([sid, name, 0.0, 0.0, parent, self.op_id, None])
        self.stack.append(sid)
        self.spans[sid][2] = time.perf_counter()
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self.stack.pop()

    def wrap(self, layer: str, fn):
        attrs = ATTRIBUTES.get(layer, ((), None))[1]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer in tracer.open_layers:
                return fn(*args, **kwargs)
            sid = tracer.begin(layer)
            tracer.open_layers[layer] = sid
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
                del tracer.open_layers[layer]
            if attrs is not None:
                tracer.spans[sid][6] = attrs(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer in every loaded robsat module that binds it."""
        for layer in LAYERS:
            module_name, func_name = layer.rsplit(".", 1)
            home = importlib.import_module(f"robsat.{module_name}")
            original = getattr(home, func_name)
            wrapper = self.wrap(layer, original)
            bound = 0
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "robsat" or mod_name.startswith("robsat.")):
                    continue
                if getattr(mod, func_name, None) is original:
                    self._restore.append((mod, func_name, original))
                    setattr(mod, func_name, wrapper)
                    bound += 1
            if bound == 0:
                raise RuntimeError(f"layer {layer} is bound by no robsat module")

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._restore):
            setattr(mod, name, original)
        self._restore.clear()


def _child_time(spans: list[list], names=None) -> list[float]:
    """Per span, the time covered by its direct children (only those named
    in `names`, when given)."""
    covered = [0.0] * len(spans)
    for _sid, name, start, end, parent, _op, _attrs in spans:
        if parent >= 0 and (names is None or name in names):
            covered[parent] += end - start
    return covered


def self_times(spans: list[list]) -> list[float]:
    return [end - start - c for (_, _, start, end, *_), c in zip(spans, _child_time(spans))]


def summarize(spans: list[list], n_ops: int, cli_op: bool) -> dict:
    """Per-layer calls, inclusive and self seconds per op, per-call attribute
    means, the mean traced op time, the share of op time no layer span covers and, when the op is
    cli.main, the CLI's own time per op."""
    children_time = _child_time(spans)
    decision_time = _child_time(spans, DECISION_LAYERS)
    per = {layer: {"calls": 0, "s": 0.0, "self_s": 0.0, "attrs": {}} for layer in LAYERS}
    op_total = op_uncovered = cli_overhead = 0.0
    for sid, name, start, end, _parent, _op, attrs in spans:
        dur = end - start
        if name == "op":
            op_total += dur
            op_uncovered += dur - children_time[sid]
            cli_overhead += dur - decision_time[sid]
            continue
        rec = per[name]
        rec["calls"] += 1
        rec["s"] += dur
        rec["self_s"] += dur - children_time[sid]
        for key, val in (attrs or {}).items():
            rec["attrs"][key] = rec["attrs"].get(key, 0) + val
    out = {}
    for layer, rec in per.items():
        out[f"{layer}.calls"] = rec["calls"] / n_ops
        out[f"{layer}.s"] = rec["s"] / n_ops
        out[f"{layer}.self_s"] = rec["self_s"] / n_ops
        for key in ATTRIBUTES.get(layer, ((), None))[0]:
            out[f"{layer}.{key}"] = rec["attrs"].get(key, 0) / rec["calls"] if rec["calls"] else 0.0
    out["cli.overhead_s"] = cli_overhead / n_ops if cli_op else 0.0
    out["trace.op_s"] = op_total / n_ops  # so a layer's share of op time is <layer>.s / this
    out["trace.uncovered_share"] = op_uncovered / op_total if op_total else 0.0
    return out
