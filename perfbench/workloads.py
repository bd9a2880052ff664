"""The three benchmark workloads: seeded inputs, the timed public call, and
the answer checks.

Every op is one public call a user waits for.  Each op decides one of a
fixed set of templates with every value multiplied by a power of two, drawn
from the seed and the op index, which keeps the answer (up to the scale) and
changes every value.  So
the same seed gives the same inputs, every run decides the same mix (op
times span decades, and a mix that moved with the seed would move the median
by more than any useful bound), answers can be checked against
reference.json on any seed, and no op repeats another op's input: robsat's
cache serves an op only what a user deciding one instance at several alphas
would also get.  robsat functions are looked up on their modules at call
time, so the wrappers that the traced run installs are the ones that run.
"""

from __future__ import annotations

import contextlib
import glob
import importlib
import io
import json
import os
import random
from fractions import Fraction
from math import isqrt

import checks

GRID_RESOLUTION = 2
GRID_BOX = ((-1, 1), (-1, 1))
GRID_ALPHAS = (Fraction(1, 8), Fraction(3, 2))
POOL = 24  # inputs made during set-up; later ops make theirs on demand
SYSTEM_TEMPLATES = 18  # two Latin squares of roots
DEFAULT_SEED = 0  # the seed run.py uses when given none
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def _mod(name: str):
    # `import robsat.robustness` would give the function that robsat/__init__
    # rebinds over the submodule name.
    return importlib.import_module(f"robsat.{name}")


def _fmt(q: Fraction) -> str:
    return str(Fraction(q))


# --- polynomial systems on the box -----------------------------------------

def latin_square_roots(rng: random.Random) -> list[tuple[Fraction, Fraction]]:
    """Nine roots on the lattice (1/8)Z^2 in [-1/2, 1/2]^2 that use every
    lattice column once and every lattice row once."""
    cols, rows = list(range(9)), list(range(9))
    rng.shuffle(cols)
    rng.shuffle(rows)
    return [(Fraction(c - 4, 8), Fraction(r - 4, 8)) for c, r in zip(cols, rows)]


def quadratic_system(rng: random.Random, x0: Fraction, y0: Fraction):
    """Two quadratics on [-1,1]^2 with a transversal root at (x0, y0):
    f1 = a1 X^2 + b1 Y + c1 X and f2 = a2 Y^2 + b2 X + c2 Y, where X = x - x0,
    Y = y - y0 and the Jacobian [[c1, b1], [b2, c2]] is nonsingular; the
    coefficients are seeded.  Returned as exponent -> coefficient dicts."""
    while True:
        c1, b1, b2, c2 = (Fraction(rng.choice((-2, -1, 1, 2))) for _ in range(4))
        if c1 * c2 != b1 * b2:
            break
    a1, a2 = (Fraction(rng.choice((-1, 1)), rng.choice((1, 2))) for _ in range(2))
    p1 = {(2, 0): a1, (1, 0): c1 - 2 * a1 * x0, (0, 1): b1,
          (0, 0): a1 * x0 * x0 - c1 * x0 - b1 * y0}
    p2 = {(0, 2): a2, (0, 1): c2 - 2 * a2 * y0, (1, 0): b2,
          (0, 0): a2 * y0 * y0 - b2 * x0 - c2 * y0}
    return [p1, p2]


def template_systems(name: str, keep=lambda dicts: True) -> list[list[dict]]:
    """SYSTEM_TEMPLATES systems drawn once from a fixed seed, with roots in
    Latin squares (an op's cost depends mostly on where the root sits on the
    grid); `keep` rejects a draw and redraws the coefficients."""
    out = []
    for t in range(SYSTEM_TEMPLATES):
        if t % 9 == 0:
            roots = latin_square_roots(random.Random(f"{name}:template-round:{t // 9}"))
        rng = random.Random(f"{name}:template:{t}")
        for _ in range(1000):
            dicts = quadratic_system(rng, *roots[t % 9])
            if keep(dicts):
                break
        else:
            raise RuntimeError(f"{name}: no template system kept at {roots[t % 9]}")
        out.append(dicts)
    return out


def scaled_polys(dicts: list[dict], scale: Fraction) -> list[dict]:
    return [{e: scale * c for e, c in p.items()} for p in dicts]


def eval_poly(p: dict, point) -> Fraction:
    total = Fraction(0)
    for exps, c in p.items():
        term = c
        for x, e in zip(point, exps):
            term *= x ** e
        total += term
    return total


def grid_points(resolution: int):
    """Vertex id -> point of the Freudenthal grid on GRID_BOX, numbered as
    robsat.grid numbers them (row-major, last axis fastest)."""
    (xlo, xhi), (ylo, yhi) = GRID_BOX
    pts = {}
    for i in range(resolution + 1):
        for j in range(resolution + 1):
            pts[i * (resolution + 1) + j] = (
                xlo + Fraction(i * (xhi - xlo), resolution),
                ylo + Fraction(j * (yhi - ylo), resolution))
    return pts


def grid_triangles(resolution: int):
    r1 = resolution + 1
    out = []
    for i in range(resolution):
        for j in range(resolution):
            v00, v10, v01, v11 = i * r1 + j, (i + 1) * r1 + j, i * r1 + j + 1, (i + 1) * r1 + j + 1
            out.append((v00, v10, v11))
            out.append((v00, v01, v11))
    return out


# --- instance files for the CLI ----------------------------------------------

def vertex_norms_sq(values: dict, norm: str) -> list[Fraction]:
    return sorted({checks.norm_square(v, norm) for v in values.values()} - {Fraction(0)})


def _sqrt_if_rational(q: Fraction) -> Fraction | None:
    p, d = isqrt(q.numerator), isqrt(q.denominator)
    return Fraction(p, d) if p * p == q.numerator and d * d == q.denominator else None


def _rational_between_sq(lo_sq: Fraction, hi_sq: Fraction) -> Fraction:
    """A rational r with lo_sq < r^2 < hi_sq."""
    den = 1
    while True:
        cand = Fraction(isqrt(lo_sq.numerator * den * den // lo_sq.denominator) + 1, den)
        if lo_sq < cand * cand < hi_sq:
            return cand
        den *= 2


def corpus_alphas(values: dict, norm: str) -> list[Fraction]:
    """The instance's positive vertex norms and the midpoints between
    consecutive ones, ascending.  The CLI takes rational alphas only, so an
    irrational l2 norm is skipped and its midpoints are rationals between the
    neighbouring norms."""
    sq = vertex_norms_sq(values, norm)
    out = []
    for i, s in enumerate(sq):
        root = _sqrt_if_rational(s)
        if root is not None:
            out.append(root)
        if i + 1 < len(sq):
            nxt = _sqrt_if_rational(sq[i + 1])
            if root is not None and nxt is not None:
                out.append((root + nxt) / 2)
            else:
                out.append(_rational_between_sq(s, sq[i + 1]))
    return out


def _f_values(doc: dict) -> dict:
    return {int(r["id"]): tuple(Fraction(x) for x in r["f"]) for r in doc["vertices"]}


def _maximal(simplices):
    sets = [frozenset(s) for s in simplices]
    return [tuple(sorted(s)) for s in set(sets) if not any(s < t for t in sets)]


def spread_pick(values: list, k: int) -> list:
    """k entries of a sorted list, from first to last and evenly spaced."""
    if len(values) <= k:
        return values
    return [values[round(i * (len(values) - 1) / (k - 1))] for i in range(k)]


# Round of tiny instances (the tier-1 monotonicity family), each decided at
# TINY_ALPHAS of its alphas.  Triangles with n = 3 take the Hopf path under
# the default flags and give Unknown under --no-assume-hopf.  Tetrahedra with
# n = 3 are left out: one takes up to 2.5 s on a 2-core VM, and a handful of
# them would set a whole run's timing.
TINY_ROUND = (
    ("path", 1, "linf", ()),
    ("triangles", 2, "linf", ()),
    ("path", 2, "l1", ()),
    ("triangles", 1, "linf", ()),
    ("triangles", 3, "linf", ()),
    ("triangles", 2, "l2", ()),
    ("path", 3, "linf", ()),
    ("tetrahedron", 1, "linf", ()),
    ("triangles", 3, "linf", ("--no-assume-hopf",)),
    ("tetrahedron", 2, "linf", ()),
)
TINY_ROUNDS = 2
TINY_ALPHAS = 3  # the smallest, the middle and the largest
WITNESS_STEP = Fraction(1, 4)  # the CLI's default witness lattice step


def tiny_instance(rng: random.Random, kind: str, n: int, norm: str) -> dict:
    if kind == "path":
        simplices = [[i, i + 1] for i in range(rng.randint(1, 3))]
    elif kind == "triangles":
        tris = {tuple(sorted(rng.sample(range(5), 3))) for _ in range(rng.randint(1, 2))}
        simplices = [list(t) for t in sorted(tris)]
    else:
        simplices = [[0, 1, 2, 3]]
    verts = sorted({v for s in simplices for v in s})
    return {
        "version": 1, "n": n, "norm": norm, "simplices": simplices,
        "vertices": [{"id": v, "f": [_fmt(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                                     for _ in range(n)]} for v in verts],
    }


def scaled_instance(doc: dict, scale: Fraction) -> dict:
    """The instance with f and g multiplied by a positive scale, which every
    supported norm carries over, so the verdict at scale * alpha equals the
    original verdict at alpha."""
    out = {k: v for k, v in doc.items() if k not in ("vertices", "alpha")}
    out["vertices"] = []
    for rec in doc["vertices"]:
        new = {"id": rec["id"], "f": [_fmt(scale * Fraction(x)) for x in rec["f"]]}
        if "g" in rec:
            new["g"] = [_fmt(scale * Fraction(x)) for x in rec["g"]]
        out["vertices"].append(new)
    return out


class Template:
    """A corpus instance before the seeded transform."""

    def __init__(self, label: str, doc: dict, path: str | None, extra_args=(), max_alphas=None):
        self.label = label
        self.doc = doc
        self.path = path  # the shipped file, decided as it is in the first pass
        self.extra_args = list(extra_args)
        self.alphas = corpus_alphas(_f_values(doc), doc.get("norm", "linf"))
        if max_alphas is not None:
            self.alphas = spread_pick(self.alphas, max_alphas)


class CorpusInstance:
    def __init__(self, template: Template, doc: dict, path: str, scale: Fraction):
        self.template = template
        self.path = path
        self.scale = scale
        self.norm = doc.get("norm", "linf")
        self.f = _f_values(doc)
        self.maximal = _maximal(doc["simplices"])
        self.alphas = [scale * a for a in template.alphas]
        self.verdicts: list[str] = []  # at the alphas decided so far, ascending


# --- workloads -----------------------------------------------------------------

class Workload:
    name = ""

    def __init__(self, seed: int, scratch: str, reference: dict | None):
        """`reference` maps reference keys to recorded answers (None: no check)."""
        self.seed = seed
        self.scratch = scratch
        self.reference = reference

    def reference_error(self, k: int, answer: str) -> str | None:
        want = (self.reference or {}).get(self.reference_key(k))
        if want is not None and answer != want:
            return f"answered {answer!r}, reference {want!r}"
        return None


class SystemWorkload(Workload):
    """Ops over the template systems: op k decides template k mod
    SYSTEM_TEMPLATES scaled by 2^(+-e), with a seeded sign and e growing with
    the pass over the templates, so no two ops share values while every run
    decides the same mix of systems.  Drawing fresh coefficients per seed
    would move the median op by more than a useful bound."""

    def __init__(self, seed: int, scratch: str, reference, keep=lambda dicts: True):
        super().__init__(seed, scratch, reference)
        self.triangles = grid_triangles(GRID_RESOLUTION)
        self.points = grid_points(GRID_RESOLUTION)
        self.templates = template_systems(self.name, keep)
        self.inputs = {}
        for k in range(POOL):
            self.input(k)

    @property
    def pass_ops(self) -> int:
        """Ops in one pass over the templates."""
        return SYSTEM_TEMPLATES

    def scale(self, k: int) -> Fraction:
        p, t = divmod(k, SYSTEM_TEMPLATES)
        rng = random.Random(f"{self.name}:{self.seed}:pass{p}:{t}")
        return Fraction(2) ** ((p + 1) * rng.choice((-1, 1)))

    def reference_key(self, k: int) -> str:
        return str(k % SYSTEM_TEMPLATES)

    def sampled(self, dicts: list[dict]) -> dict:
        return {v: tuple(eval_poly(p, pt) for p in dicts) for v, pt in self.points.items()}


class GridDecide(SystemWorkload):
    """Cold sample_polynomial + decide_robsat (linf) on a shared grid; alpha
    alternates between a thin tube around the root and most of the box."""

    name = "grid-decide"

    def __init__(self, seed: int, scratch: str, reference=None):
        self.norm = _mod("pl_map").Norm.LINF
        self.grid = _mod("grid").freudenthal_grid(GRID_BOX, GRID_RESOLUTION)
        super().__init__(seed, scratch, reference)

    def input(self, k: int):
        if k not in self.inputs:
            scale = self.scale(k)
            dicts = scaled_polys(self.templates[k % SYSTEM_TEMPLATES], scale)
            poly = _mod("polynomials").Polynomial
            self.inputs[k] = (dicts, [poly.from_dict(2, d) for d in dicts],
                              scale * GRID_ALPHAS[k % 2])
        return self.inputs[k]

    def run(self, k: int):
        _, polys, alpha = self.input(k)
        f, _ = _mod("sampling").sample_polynomial(polys, self.grid, self.norm)
        return _mod("robustness").decide_robsat(f, alpha, self.norm)

    def answer(self, k: int, verdict) -> tuple[str, str | None]:
        """(the op's answer, why it is wrong or None)."""
        dicts, _, alpha = self.input(k)
        tag = verdict.tag.value
        if tag not in ("RobustYes", "RobustNo"):
            return tag, f"n = 2 is decidable, got {tag}"
        if verdict.witness is not None:
            f = self.sampled(dicts)
            g = {v: tuple(verdict.witness.value(v)) for v in self.points}
            if not checks.within_alpha(f, g, alpha * alpha, "linf"):
                return tag, "witness farther than alpha"
            if not checks.certified_witness(self.triangles, g, f):
                return tag, "witness lacks a strictly signed coordinate on some triangle"
        return tag, self.reference_error(k, tag)


class RobustnessSweep(SystemWorkload):
    """robustness(f, l2) on sampled systems whose PL map has a root."""

    name = "robustness-sweep"

    def __init__(self, seed: int, scratch: str, reference=None):
        self.norm = _mod("pl_map").Norm.L2
        self.cx = _mod("grid").freudenthal_grid(GRID_BOX, GRID_RESOLUTION).complex
        super().__init__(seed, scratch, reference,
                         keep=lambda dicts: checks.has_root(self.triangles, self.sampled(dicts)))

    def input(self, k: int):
        if k not in self.inputs:
            scale = self.scale(k)
            values = self.sampled(scaled_polys(self.templates[k % SYSTEM_TEMPLATES], scale))
            self.inputs[k] = (values, scale, _mod("pl_map").PLMap(self.cx, 2, values))
        return self.inputs[k]

    def run(self, k: int):
        return _mod("robustness").robustness(self.input(k)[2], self.norm)

    def answer(self, k: int, result) -> tuple[str, str | None]:
        """The answer is the robustness value divided by the op's scale."""
        values, scale, _ = self.input(k)
        tag = result.tag.value
        if tag != "Value":
            return tag, f"a PL map with a root and n = 2 has a value, got {tag}"
        value = result.value
        sq = value.q if value.is_sqrt else value.q * value.q
        text = f"sqrt({value.q / scale ** 2})" if value.is_sqrt else str(value.q / scale)
        if not 0 <= sq <= max(checks.norm_square(v, "l2") for v in values.values()):
            return text, "robustness outside [0, max vertex norm]"
        return text, self.reference_error(k, text)


class SmallCorpus(Workload):
    """In-process `robsat decide -i FILE --alpha A --witness` over the shipped
    instances that carry f and the tiny ones, each instance's alphas in
    ascending order.

    The tiny instances are drawn once, from a fixed seed; the run seed picks,
    for every pass over the corpus, a power-of-two scale of each instance's
    values.  Every op thus gets values no earlier op saw, while every run decides the same mix of instances: the
    corpus's op times span three decades, so a mix that varied with the seed
    would move the median by more than any useful bound.  The scale keeps
    every verdict, so verdicts are checked against reference.json on any seed.
    The first pass decides the shipped files themselves."""

    name = "small-corpus"

    def __init__(self, seed: int, scratch: str, reference=None):
        super().__init__(seed, scratch, reference)
        self.templates: list[Template] = []
        for path in sorted(glob.glob(os.path.join("instances", "*.json"))):
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            if isinstance(doc.get("vertices"), list) and doc["vertices"] \
                    and "f" in doc["vertices"][0]:
                self.templates.append(Template(os.path.basename(path), doc, path))
        if not self.templates:
            raise RuntimeError("no shipped instances with f under instances/")
        for i in range(TINY_ROUNDS * len(TINY_ROUND)):
            kind, n, norm, extra = TINY_ROUND[i % len(TINY_ROUND)]
            doc = tiny_instance(random.Random(f"{self.name}:template:{i}"), kind, n, norm)
            label = f"tiny{i}-{kind}-n{n}-{norm}" + "".join(extra)
            self.templates.append(Template(label, doc, None, extra, TINY_ALPHAS))
        self.ops: list[tuple[CorpusInstance, int]] = []
        self.passes = 0
        self._add_pass()
        self.pass_ops = len(self.ops)  # ops in one pass over the templates
        while len(self.ops) < 4 * POOL:
            self._add_pass()

    def _add_pass(self) -> None:
        p = self.passes
        self.passes += 1
        for t, tpl in enumerate(self.templates):
            if p == 0 and tpl.path is not None:
                inst = CorpusInstance(tpl, tpl.doc, tpl.path, Fraction(1))
            else:
                rng = random.Random(f"{self.name}:{self.seed}:pass{p}:{t}")
                # |exponent| grows with the pass, so no two passes share values
                exponent = (p + 1 if tpl.path is None else p) * rng.choice((-1, 1))
                scale = Fraction(2) ** exponent
                doc = scaled_instance(tpl.doc, scale)
                path = os.path.join(self.scratch, f"pass{p}-{t}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
                inst = CorpusInstance(tpl, doc, path, scale)
            self.ops.extend((inst, j) for j in range(len(inst.alphas)))

    def input(self, k: int):
        while k >= len(self.ops):
            self._add_pass()
        return self.ops[k]

    def reference_key(self, k: int) -> str:
        inst, j = self.input(k)
        return f"{inst.template.label}@{j}"

    def run(self, k: int):
        inst, j = self.input(k)
        out, err = io.StringIO(), io.StringIO()
        argv = ["decide", "-i", inst.path, "--alpha", _fmt(inst.alphas[j]), "--witness",
                "--step", _fmt(inst.scale * WITNESS_STEP)] + inst.template.extra_args
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = _mod("cli").main(argv)
        return code, out.getvalue(), err.getvalue()

    def answer(self, k: int, result) -> tuple[str, str | None]:
        inst, j = self.input(k)
        alpha = inst.alphas[j]
        code, out, err = result
        if code not in (0, 3):
            return f"exit {code}", f"exit code {code}: {err.strip()[:200]}"
        doc = json.loads(out)
        tag = doc["verdict"]
        if (tag == "Unknown") != (code == 3):
            return tag, f"verdict {tag} with exit code {code}"
        if tag == "RobustYes" and "RobustNo" in inst.verdicts:
            return tag, f"RobustYes at alpha {alpha} above a RobustNo"
        inst.verdicts.append(tag)
        witness = doc.get("witness")
        if witness is not None:
            if tag != "RobustNo":
                return tag, f"witness with verdict {tag}"
            g = {int(v): tuple(Fraction(x) for x in vals) for v, vals in witness.items()}
            if not checks.within_alpha(inst.f, g, alpha * alpha, inst.norm):
                return tag, "witness farther than alpha"
            if not checks.certified_witness(inst.maximal, g, inst.f):
                return tag, "witness lacks a strictly signed coordinate on some simplex"
        return tag, self.reference_error(k, tag)


WORKLOADS = {w.name: w for w in (GridDecide, RobustnessSweep, SmallCorpus)}
