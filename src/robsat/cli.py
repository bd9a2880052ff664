"""Command-line interface.

Every subcommand reads one instance (or expression set), prints exactly one
JSON document on stdout and exits with 0 when the question was decided either
way, 3 on Unknown, 64 on usage errors, 65 on unparseable input and 70 on an
internal error (a failed exact self-check, or a bug).  An error prints one
JSON document {"error": "usage" | "parse" | "internal", ...} on stderr
instead, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import instance_io
from .complex_core import IntCochain, Simplex, permutation_parity
from .fixtures import fixture_from_extension
from .homotopy import ExtendTag, decide_extension, degree
from .instance_io import Instance, ParseError, _integer, format_critical_value, parse_rational
from .oracles import WitnessSearchConfig, perturbation_witness
from .pl_map import CriticalValue, Norm, critical_values
from .robustness import (
    RobTag,
    RobustnessTag,
    decide_robsat,
    decide_with_inequalities,
    locate_components,
    robustness,
)
from .sampling import SampledTag, decide_sampled

EXIT_DECIDED = 0
EXIT_UNKNOWN = 3
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_INTERNAL = 70


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load(path: str) -> Instance:
    try:
        return instance_io.load_file(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _alpha_from(args, instance: Instance) -> CriticalValue:
    if getattr(args, "alpha", None) is not None:
        return instance_io.parse_critical_value(args.alpha)
    if instance.alpha is None:
        raise UsageError("no alpha: pass --alpha or store it in the instance")
    return instance.alpha


def _witness_json(witness):
    if witness is None:
        return None
    return {str(v): [instance_io.format_rational(x) for x in witness.value(v)]
            for v in witness.complex.vertices}


def _certificate_json(ev):
    if ev is None:
        return None
    out = {"tag": ev.tag.value, "reason": ev.reason}
    if ev.w is not None:
        out["w"] = {str(list(s.vertices)): v for s, v in ev.w.values.items()}
    if ev.vertex_extension is not None:
        out["vertex_extension"] = {str(k): v for k, v in ev.vertex_extension.items()}
    return out


def _require_f(instance: Instance):
    if instance.f is None:
        raise ParseError("instance has no map values (field 'f')")
    return instance.f


def cmd_decide(args) -> tuple[dict, int]:
    instance = _load(args.input)
    f = _require_f(instance)
    alpha = _alpha_from(args, instance)
    cfg = None
    if args.witness:
        cfg = WitnessSearchConfig(trials=args.trials, seed=args.seed,
                                  step=parse_rational(args.step))
    if instance.g is not None:
        verdict = decide_with_inequalities(f, instance.g, alpha, instance.norm,
                                           assume_hopf=args.assume_hopf)
        if verdict.tag is RobTag.ROBUST_NO and cfg is not None and verdict.witness is None:
            verdict.witness = perturbation_witness(f, alpha, cfg, instance.norm)
    else:
        verdict = decide_robsat(f, alpha, instance.norm,
                                assume_hopf=args.assume_hopf, witness_config=cfg)
    doc = {
        "verdict": verdict.tag.value,
        "reason": verdict.reason,
        "alpha": format_critical_value(alpha),
        "norm": instance.norm.value,
        "witness": _witness_json(verdict.witness),
        "certificate": _certificate_json(verdict.extend),
    }
    return doc, EXIT_UNKNOWN if verdict.tag is RobTag.UNKNOWN else EXIT_DECIDED


def cmd_robustness(args) -> tuple[dict, int]:
    instance = _load(args.input)
    f = _require_f(instance)
    result = robustness(f, instance.norm, assume_hopf=args.assume_hopf)
    doc: dict = {"result": result.tag.value, "norm": instance.norm.value}
    code = EXIT_DECIDED
    if result.tag is RobustnessTag.VALUE:
        doc["value"] = format_critical_value(result.value)
    elif result.tag is RobustnessTag.INTERVAL:
        doc["lo"] = format_critical_value(result.lo)
        doc["hi"] = format_critical_value(result.hi)
        code = EXIT_UNKNOWN
    return doc, code


def cmd_extend(args) -> tuple[dict, int]:
    instance = _load(args.input)
    if instance.a_complex is None or instance.sphere_map is None:
        raise ParseError("extension instances need 'a_simplices' and 'sphere_map'")
    verdict = decide_extension(instance.complex, instance.a_complex,
                               instance.sphere_map, instance.n,
                               assume_hopf=args.assume_hopf)
    doc = {
        "verdict": verdict.tag.value,
        "reason": verdict.reason,
        "certificate": _certificate_json(verdict),
    }
    return doc, EXIT_UNKNOWN if verdict.tag is ExtendTag.UNKNOWN else EXIT_DECIDED


def _parse_cycle(raw: str, dim: int) -> IntCochain:
    """An integer chain from a JSON list of [vertex-id list, coefficient]
    pairs.  A vertex list in another order than sorted carries the sign of
    its permutation, and repeated simplices add up."""
    try:
        entries = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad --cycle: {exc}") from exc
    if not isinstance(entries, list) or not all(
            isinstance(e, list) and len(e) == 2 and isinstance(e[0], list) for e in entries):
        raise ParseError("bad --cycle: expected a list of [vertex-id list, coefficient] pairs")
    chain: dict[Simplex, int] = {}
    try:
        for verts, coeff in entries:
            verts = [_integer(v, "a vertex id") for v in verts]
            s = Simplex.of(verts)
            chain[s] = chain.get(s, 0) + permutation_parity(verts) * _integer(coeff, "a coefficient")
        return IntCochain(dim, chain)
    except ValueError as exc:
        raise ParseError(f"bad --cycle: {exc}") from exc


def cmd_degree(args) -> tuple[dict, int]:
    instance = _load(args.input)
    if instance.sphere_map is None:
        raise ParseError("degree needs 'a_simplices' and 'sphere_map'")
    raw = args.cycle
    if raw.startswith("@"):
        try:
            with open(raw[1:], "r", encoding="utf-8") as fh:
                raw = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read {raw[1:]}: {exc}") from exc
    cycle = _parse_cycle(raw, instance.n - 1)
    try:
        deg = degree(cycle, instance.sphere_map)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return {"degree": deg}, EXIT_DECIDED


def cmd_critical_values(args) -> tuple[dict, int]:
    instance = _load(args.input)
    f = _require_f(instance)
    cvs = critical_values(f, instance.norm)
    return {"critical_values": [format_critical_value(cv) for cv in cvs],
            "norm": instance.norm.value}, EXIT_DECIDED


def cmd_components(args) -> tuple[dict, int]:
    instance = _load(args.input)
    f = _require_f(instance)
    alpha = _alpha_from(args, instance)
    comps = locate_components(f, alpha, instance.norm, assume_hopf=args.assume_hopf)
    return {
        "alpha": format_critical_value(alpha),
        "components": [
            {"vertices": list(vs), "verdict": v.tag.value, "reason": v.reason}
            for vs, v in comps
        ],
    }, EXIT_DECIDED


def cmd_sample_grid(args) -> tuple[dict, int]:
    var_names = [v.strip() for v in args.vars.split(",") if v.strip()]
    if len(args.box) != len(var_names):
        raise UsageError("need one --box lo:hi per variable")
    bounds = []
    for box_arg in args.box:
        try:
            lo, hi = box_arg.split(":")
        except ValueError as exc:
            raise UsageError(f"bad --box {box_arg!r}, expected lo:hi") from exc
        bounds.append((parse_rational(lo), parse_rational(hi)))
    if not args.expr:
        raise UsageError("need at least one --expr")
    decision = decide_sampled(args.expr, bounds, args.resolution,
                              parse_rational(args.alpha), parse_rational(args.epsilon),
                              var_names=var_names, norm=Norm(args.norm),
                              assume_hopf=args.assume_hopf)
    doc = {
        "decision": decision.tag.value,
        "reason": decision.reason,
        "resolution": decision.resolution,
        "gap": instance_io.format_rational(decision.gap),
        "tested_alpha": instance_io.format_rational(decision.tested_alpha),
    }
    code = EXIT_UNKNOWN if decision.tag is SampledTag.UNKNOWN else EXIT_DECIDED
    return doc, code


def cmd_gen_fixture(args) -> tuple[dict, int]:
    instance = _load(args.input)
    if instance.a_complex is None or instance.sphere_map is None:
        raise ParseError("fixture generation needs 'a_simplices' and 'sphere_map'")
    norm = Norm(args.norm) if args.norm else instance.norm
    f = fixture_from_extension(instance.complex, instance.a_complex,
                               instance.sphere_map, norm)
    out = Instance(f.complex, f.n, norm, f=f, alpha=CriticalValue.rat(Fraction(99, 100)))
    if args.output:
        try:
            instance_io.save_file(out, args.output)
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc}") from exc
        return {"written": args.output,
                "vertices": len(f.complex.vertices),
                "simplices": len(f.complex.simplices)}, EXIT_DECIDED
    return {"instance": instance_io.emit_instance(out)}, EXIT_DECIDED


def build_parser() -> _Parser:
    parser = _Parser(prog="robsat",
                     description="robust satisfiability of PL equation systems")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, alpha=False):
        p.add_argument("-i", "--input", required=True, help="instance file")
        if alpha:
            p.add_argument("--alpha", help="override the instance alpha (p/q)")
        p.add_argument("--no-assume-hopf", dest="assume_hopf", action="store_false",
                       help="report Unknown instead of using the equal-dimension "
                            "extension theorem for n >= 3")
        p.set_defaults(assume_hopf=True)

    p = sub.add_parser("decide", help="decide whether every alpha-perturbation has a root")
    common(p, alpha=True)
    p.add_argument("--witness", action="store_true",
                   help="search for a rootless perturbation on RobustNo")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", default="1/4", help="witness lattice step (p/q)")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("robustness", help="exact robustness of the root")
    common(p)
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("extend", help="raw extendability of the instance's sphere map")
    common(p)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("degree", help="pair a cycle with the pulled-back cocycle")
    common(p)
    p.add_argument("--cycle", required=True,
                   help='JSON [[vertices, coeff], ...] or @file')
    p.set_defaults(func=cmd_degree)

    p = sub.add_parser("critical-values", help="sorted distinct per-simplex minima of |f|")
    common(p)
    p.set_defaults(func=cmd_critical_values)

    p = sub.add_parser("components", help="components in which a root is unavoidable")
    common(p, alpha=True)
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("sample-grid", help="decide a polynomial system on a box")
    p.add_argument("--vars", required=True, help="comma-separated variable names")
    p.add_argument("--expr", action="append", default=[],
                   help="polynomial component (repeatable)")
    p.add_argument("--box", action="append", default=[],
                   help="per-variable interval lo:hi (repeatable)")
    p.add_argument("--resolution", type=int, default=4)
    p.add_argument("--alpha", required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--norm", default="linf", choices=[n.value for n in Norm])
    p.add_argument("--no-assume-hopf", dest="assume_hopf", action="store_false")
    p.set_defaults(assume_hopf=True, func=cmd_sample_grid)

    p = sub.add_parser("gen-fixture", help="PL instance from an extension instance")
    common(p)
    p.add_argument("--norm", choices=[n.value for n in Norm])
    p.add_argument("-o", "--output", help="write the instance here instead of stdout")
    p.set_defaults(func=cmd_gen_fixture)
    return parser


# Built once per process: parse_args leaves the parser unchanged, and each
# call starts from a fresh namespace of the defaults.
_PARSER = build_parser()


def main(argv=None) -> int:
    start = time.perf_counter()
    try:
        args = _PARSER.parse_args(argv)
        doc, code = args.func(args)
    except UsageError as exc:
        print(json.dumps({"error": "usage", "message": str(exc)}), file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(json.dumps({"error": "parse", "message": str(exc)}), file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        # semantic misuse (alpha <= 0, wrong norm for inequalities, ...)
        print(json.dumps({"error": "usage", "message": str(exc)}), file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(json.dumps({"error": "internal", "type": type(exc).__name__,
                          "message": str(exc)}), file=sys.stderr)
        return EXIT_INTERNAL
    doc["timings"] = {"total_s": round(time.perf_counter() - start, 6)}
    print(json.dumps(doc, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
