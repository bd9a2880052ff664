"""The JSON instance format.

Rationals are strings "p" or "p/q" (float literals are rejected), vertices
carry the map values, simplices are vertex-id lists, and extension instances
add `a_simplices` plus a vertexwise `sphere_map` of signed indices.  Emission
is canonical (sorted vertices, sorted simplices, maximal simplices only), so
parse/emit round-trips are identity on documents produced here.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .complex_core import Complex, Simplex, closure
from .pl_map import CriticalValue, Norm, PLMap
from .reduction import SphereMap

FORMAT_VERSION = 1

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class ParseError(ValueError):
    pass


def parse_rational(text) -> Fraction:
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ParseError(f"not an exact rational: {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:  # "1/0", or too many digits
        raise ParseError(f"not an exact rational: {text!r}") from exc


def _rational_list(data, what: str) -> tuple[Fraction, ...]:
    if not isinstance(data, list):
        raise ParseError(f"{what} must be a list of rationals, got {data!r}")
    return tuple(parse_rational(x) for x in data)


def _integer(data, what: str) -> int:
    if isinstance(data, bool) or not isinstance(data, int):
        raise ParseError(f"{what} must be an integer, got {data!r}")
    return data


def _simplex_list(data, what: str) -> Complex:
    """The closure of a list of vertex-id lists."""
    if not isinstance(data, list) or not all(isinstance(s, list) for s in data):
        raise ParseError(f"{what} must be a list of vertex-id lists, got {data!r}")
    try:
        return closure([Simplex.of(_integer(v, "a vertex id") for v in s) for s in data])
    except ValueError as exc:  # an empty simplex or a repeated vertex
        raise ParseError(f"bad {what}: {exc}") from exc


def format_rational(q: Fraction) -> str:
    return str(Fraction(q))


def parse_critical_value(data) -> CriticalValue:
    if isinstance(data, dict):
        if set(data) != {"sqrt"}:
            raise ParseError(f"bad value object {data!r}")
        return CriticalValue.sqrt_of(parse_rational(data["sqrt"]))
    return CriticalValue.rat(parse_rational(data))


def format_critical_value(cv: CriticalValue):
    if cv.is_sqrt:
        return {"sqrt": format_rational(cv.q)}
    return format_rational(cv.q)


@dataclass
class Instance:
    complex: Complex
    n: int
    norm: Norm
    f: PLMap | None = None
    g: PLMap | None = None
    alpha: CriticalValue | None = None
    a_complex: Complex | None = None
    sphere_map: SphereMap | None = None
    chi: dict | None = None


def parse_instance(data: dict) -> Instance:
    if not isinstance(data, dict):
        raise ParseError("instance must be a JSON object")
    if data.get("version", FORMAT_VERSION) != FORMAT_VERSION:
        raise ParseError(f"unsupported version {data.get('version')!r}")
    try:
        n = _integer(data["n"], "n")
        norm = Norm(data.get("norm", "linf"))
        raw_simplices = data["simplices"]
        raw_vertices = data["vertices"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"missing or bad field: {exc}") from exc
    if n < 0:
        raise ParseError("n must be nonnegative")
    if not isinstance(raw_vertices, list):
        raise ParseError("vertices must be a list of vertex records")
    cx = _simplex_list(raw_simplices, "simplices")
    f_values = {}
    g_values = {}
    chi = {}
    seen = set()
    for rec in raw_vertices:
        try:
            vid = _integer(rec["id"], "a vertex id")
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad vertex record {rec!r}") from exc
        if vid in seen:
            raise ParseError(f"duplicate vertex id {vid}")
        seen.add(vid)
        if "f" in rec:
            f_values[vid] = _rational_list(rec["f"], f"vertex {vid}: f")
            if len(f_values[vid]) != n:
                raise ParseError(f"vertex {vid}: expected {n} components")
        if "g" in rec:
            g_values[vid] = _rational_list(rec["g"], f"vertex {vid}: g")
        if "chi" in rec and rec["chi"] is not None:
            chi[vid] = parse_rational(rec["chi"])
    if seen != set(cx.vertices):
        raise ParseError("vertex records do not match the simplices")
    f = None
    if f_values:
        if set(f_values) != set(cx.vertices):
            raise ParseError("f values must cover every vertex or none")
        f = PLMap(cx, n, f_values)
    g = None
    if g_values:
        if set(g_values) != set(cx.vertices):
            raise ParseError("g values must cover every vertex or none")
        ks = {len(v) for v in g_values.values()}
        if len(ks) != 1:
            raise ParseError("g values must share one length")
        g = PLMap(cx, ks.pop(), g_values)
    try:
        alpha = parse_critical_value(data["alpha"]) if "alpha" in data else None
    except ValueError as exc:  # a negative value
        raise ParseError(f"bad alpha: {exc}") from exc
    a_complex = None
    if "a_simplices" in data:
        a_complex = _simplex_list(data["a_simplices"], "a_simplices")
        if not a_complex.simplices <= cx.simplices:
            raise ParseError("a_simplices is not a subcomplex")
    sphere_map = None
    if "sphere_map" in data:
        if a_complex is None:
            raise ParseError("sphere_map requires a_simplices")
        if not isinstance(data["sphere_map"], dict):
            raise ParseError("sphere_map must be an object {vertex: signed index}")
        try:
            assignment = {int(k): _integer(v, "a sphere vertex")
                          for k, v in data["sphere_map"].items()}
        except ValueError as exc:
            raise ParseError(f"bad sphere_map: {exc}") from exc
        for v, lab in assignment.items():
            if not 1 <= abs(lab) <= n:
                raise ParseError(f"sphere vertex {lab} out of range for n={n}")
        try:  # every A-vertex labelled, no antipodal A-edge
            sphere_map = SphereMap(a_complex, n, {v: assignment[v] for v in a_complex.vertices
                                                  if v in assignment})
        except ValueError as exc:
            raise ParseError(f"bad sphere_map: {exc}") from exc
    return Instance(cx, n, norm, f=f, g=g, alpha=alpha,
                    a_complex=a_complex, sphere_map=sphere_map,
                    chi=chi or None)


def emit_instance(instance: Instance) -> dict:
    cx = instance.complex
    out: dict = {
        "version": FORMAT_VERSION,
        "n": instance.n,
        "norm": instance.norm.value,
    }
    vertices = []
    for v in cx.vertices:
        rec: dict = {"id": v}
        if instance.f is not None:
            rec["f"] = [format_rational(x) for x in instance.f.value(v)]
        if instance.g is not None:
            rec["g"] = [format_rational(x) for x in instance.g.value(v)]
        if instance.chi and v in instance.chi:
            rec["chi"] = format_rational(instance.chi[v])
        vertices.append(rec)
    out["vertices"] = vertices
    out["simplices"] = [list(s.vertices) for s in cx.maximal_simplices()]
    if instance.alpha is not None:
        out["alpha"] = format_critical_value(instance.alpha)
    if instance.a_complex is not None:
        out["a_simplices"] = [list(s.vertices) for s in instance.a_complex.maximal_simplices()]
    if instance.sphere_map is not None:
        out["sphere_map"] = {str(v): instance.sphere_map.image(v)
                             for v in instance.a_complex.vertices}
    return out


def loads(text: str) -> Instance:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return parse_instance(data)


def dumps(instance: Instance) -> str:
    return json.dumps(emit_instance(instance), indent=2, sort_keys=True)


def load_file(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def save_file(instance: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(instance) + "\n")
