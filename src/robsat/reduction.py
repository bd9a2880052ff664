"""From a PL map and a level alpha to a simplicial pair and a sphere map.

The pipeline has four stages, each an exact subdivision or relabelling:

1. make |f| attain its per-simplex minimum at a vertex (derived subdivision
   starring interior argmins, largest dimension first; the maximum is at a
   vertex automatically, |f| being convex on each simplex);
2. classify vertices by comparing |f(v)| with alpha (the chi labels 0, 1/2, 1);
3. split every 0-1 edge at its chi-midpoint so that the sublevel and level
   sets become full subcomplexes (X and A);
4. star sign-changing edges of A so that every coordinate of f is weakly
   signed on every simplex of A, at which point the vertexwise rule
   v -> sign * e_index is a simplicial approximation into the boundary of the
   cross polytope.

Everything is validated by exact rational checks rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complex_core import BaryPoint, Complex, Simplex, VertexId, full_subcomplex, star_vertices
from .pl_map import (
    EQ,
    LT,
    CriticalValue,
    Norm,
    PLMap,
    norm_compare,
    simplex_min,
    simplex_min_value,
    star_with_values,
    vector_norm,
)


class ReductionError(Exception):
    """An exact invariant of the pipeline failed; indicates an upstream bug."""


@dataclass(frozen=True)
class SphereModel:
    """Boundary of the cross polytope: vertices are the signed unit vectors,
    simplices the antipodal-free subsets.  Vertex +i stands for +e_i, -i for
    -e_i.  The distinguished oriented top simplex is (1, 2, ..., n)."""

    n: int

    def vertices(self) -> list[int]:
        return [s * i for i in range(1, self.n + 1) for s in (+1, -1)]

    def is_simplex(self, labels) -> bool:
        labels = list(labels)
        if not 1 <= len(set(labels)) == len(labels) <= self.n:
            return False
        return not any(-x in labels for x in labels)

    def top_simplex(self) -> tuple[int, ...]:
        return tuple(range(1, self.n + 1))

    def coordinates(self, label: int) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * self.n
        out[abs(label) - 1] = Fraction(1 if label > 0 else -1)
        return tuple(out)


class SphereMap:
    """Simplicial map from a complex into the cross-polytope sphere, stored as
    a vertexwise signed-index assignment."""

    __slots__ = ("domain", "n", "assignment")

    def __init__(self, domain: Complex, n: int, assignment: dict[VertexId, int]):
        self.domain = domain
        self.n = n
        self.assignment = dict(assignment)
        model = SphereModel(n)
        for v in domain.vertices:
            if v not in self.assignment:
                raise ValueError(f"vertex {v} has no sphere image")
            if not model.is_simplex([self.assignment[v]]):
                raise ValueError(f"bad sphere vertex {self.assignment[v]}")

    def image(self, v: VertexId) -> int:
        return self.assignment[v]

    def is_simplicial(self) -> bool:
        """Image vertex sets are antipodal-free (collapses are allowed)."""
        model = SphereModel(self.n)
        for s in self.domain.simplices:
            labels = {self.assignment[v] for v in s.vertices}
            if not model.is_simplex(labels):
                return False
        return True

    def compose_automorphism(self, signed_perm: dict[int, int]) -> "SphereMap":
        """Relabel through a signed permutation of the sphere vertices,
        given as {i: +/-j} on positive indices."""
        out = {}
        for v, lab in self.assignment.items():
            target = signed_perm[abs(lab)]
            out[v] = target if lab > 0 else -target
        return SphereMap(self.domain, self.n, out)


@dataclass
class LevelPair:
    """The combinatorial stand-in for (|f|^-1 [0, alpha], |f|^-1 {alpha}).

    `f` lives on the ambient (subdivided) complex; X and A are the full
    subcomplexes on the chi <= 1/2 and chi = 1/2 vertices.
    """

    f: PLMap
    x: Complex
    a: Complex
    alpha: CriticalValue
    chi: dict[VertexId, Fraction]
    norm: Norm

    def validate(self) -> None:
        half = Fraction(1, 2)
        for e in self.f.complex.k_simplices(1):
            u, w = e.vertices
            if {self.chi[u], self.chi[w]} == {Fraction(0), Fraction(1)}:
                raise ReductionError(f"0-1 edge survived: {e}")
        if not self.a.simplices <= self.x.simplices:
            raise ReductionError("A is not a subcomplex of X")
        for v in self.x.vertices:
            if self.chi[v] > half:
                raise ReductionError(f"X vertex {v} has chi > 1/2")
        for v in self.a.vertices:
            if self.chi[v] != half:
                raise ReductionError(f"A vertex {v} has chi != 1/2")
        for s in self.a.simplices:
            ys = [self.f.value(v) for v in s.vertices]
            # A coordinate strictly signed on s rules out a root exactly.
            if any(all(y[i] > 0 for y in ys) or all(y[i] < 0 for y in ys)
                   for i in range(self.f.n)):
                continue
            if simplex_min_value(self.f, s, self.norm).is_zero():
                raise ReductionError(f"f has a root on the A-simplex {s}")


def _interior_argmin(f: PLMap, s: Simplex, norm: Norm):
    vertex_best = min(vector_norm(f.value(v), norm) for v in s.vertices)
    if not (simplex_min_value(f, s, norm) < vertex_best):
        return None  # a vertex already attains the minimum
    point, _ = simplex_min(f, s, norm)
    if len(point.support) == len(s.vertices):
        return point
    return None


def _vertex_extremal_violations(f: PLMap, norm: Norm) -> list[Simplex]:
    out = []
    for s in f.complex.simplices:
        if s.dim == 0:
            continue
        cv = simplex_min_value(f, s, norm)
        if cv < min(vector_norm(f.value(v), norm) for v in s.vertices):
            out.append(s)
    return out


def _derived_pass(f: PLMap, norm: Norm) -> PLMap:
    picks = []
    for s in sorted(f.complex.simplices, key=lambda x: (-x.dim, x.vertices)):
        if s.dim == 0:
            continue
        p = _interior_argmin(f, s, norm)
        if p is not None:
            picks.append((s, p))
    out = f
    for s, p in picks:
        out, _ = star_with_values(out, s, p)
    return out


def vertexwise_extremal_subdivision(f: PLMap, norm: Norm) -> PLMap:
    """Subdivide until every simplex attains min |f| at one of its vertices.

    One derived pass starring interior argmins suffices (each new simplex is
    spanned along a chain of starred simplices, whose deepest argmin vertex
    realizes the minimum); the property is re-verified exactly, with a second
    pass as a safety net.
    """
    out = _derived_pass(f, norm)
    if _vertex_extremal_violations(out, norm):
        out = _derived_pass(out, norm)
        bad = _vertex_extremal_violations(out, norm)
        if bad:
            raise ReductionError(f"vertex-extremality failed after two passes: {bad[:3]}")
    return out


def build_chi(f: PLMap, alpha: CriticalValue, norm: Norm):
    """chi(v) = 0, 1/2, 1 as |f(v)| compares below, equal, above alpha.

    Returns (chi, eq_vertices) where eq_vertices lists the exact hits.
    """
    chi: dict[VertexId, Fraction] = {}
    eq_vertices: set[VertexId] = set()
    for v in f.complex.vertices:
        cmp = norm_compare(f.value(v), norm, alpha)
        if cmp == LT:
            chi[v] = Fraction(0)
        elif cmp == EQ:
            chi[v] = Fraction(1, 2)
            eq_vertices.add(v)
        else:
            chi[v] = Fraction(1)
    return chi, eq_vertices


def _find_01_edge(f: PLMap, chi) -> Simplex | None:
    zero_one = {Fraction(0), Fraction(1)}
    for e in f.complex.k_simplices(1):
        u, w = e.vertices
        if {chi[u], chi[w]} == zero_one:
            return e
    return None


def split_level(f: PLMap, chi: dict[VertexId, Fraction], alpha: CriticalValue,
                norm: Norm) -> LevelPair:
    """Star each 0-1 edge at its chi-midpoint until none remain, then take X
    and A as the full subcomplexes on the chi <= 1/2 and chi = 1/2 vertices.

    The new vertex of a starring gets chi = 1/2 (the interpolated value of the
    piecewise-linear chi at the midpoint), so every starring removes exactly
    one 0-1 edge and creates none: termination is a strict count decrease.
    """
    chi = dict(chi)
    half = Fraction(1, 2)
    while True:
        e = _find_01_edge(f, chi)
        if e is None:
            break
        u, w = e.vertices
        mid = BaryPoint.from_dict({u: half, w: half})
        f, vid = star_with_values(f, e, mid)
        chi[vid] = half
    x = full_subcomplex(f.complex, lambda v: chi[v] <= half)
    a = full_subcomplex(f.complex, lambda v: chi[v] == half)
    pair = LevelPair(f, x, a, alpha, chi, norm)
    pair.validate()
    return pair


def _rebuild_pair(pair: LevelPair, f: PLMap, chi) -> LevelPair:
    half = Fraction(1, 2)
    x = full_subcomplex(f.complex, lambda v: chi[v] <= half)
    a = full_subcomplex(f.complex, lambda v: chi[v] == half)
    return LevelPair(f, x, a, pair.alpha, chi, pair.norm)


def _find_sign_change_edge(f: PLMap, a: Complex, i: int) -> Simplex | None:
    for e in a.k_simplices(1):
        u, w = e.vertices
        if f.value(u)[i] * f.value(w)[i] < 0:
            return e
    return None


def sign_refinement(pair: LevelPair) -> LevelPair:
    """Star A-edges with strict per-coordinate sign changes at the zero point.

    Coordinates are processed in order.  Pass i terminates because each
    starring zeroes the new vertex's i-th value, so no strict i-sign-change
    edge is created while one is destroyed.  Later passes star only edges that
    pass i left weakly signed, and a convex combination of weakly-signed
    values keeps the weak sign, so pass i's postcondition persists; the final
    state is re-verified exactly below.
    """
    f = pair.f
    chi = dict(pair.chi)
    a = pair.a
    half = Fraction(1, 2)
    for i in range(f.n):
        while True:
            e = _find_sign_change_edge(f, a, i)
            if e is None:
                break
            u, w = e.vertices
            fu, fw = f.value(u)[i], f.value(w)[i]
            t = fu / (fu - fw)
            f, vid = star_with_values(f, e, BaryPoint.from_dict({u: 1 - t, w: t}))
            if all(x == 0 for x in f.value(vid)):
                raise ReductionError(f"root of f at a sign-refinement vertex {vid}")
            chi[vid] = half
            a = full_subcomplex(f.complex, lambda v: chi[v] == half)
    out = _rebuild_pair(pair, f, chi)
    for s in out.a.simplices:
        for i in range(f.n):
            vals = [f.value(v)[i] for v in s.vertices]
            if any(x > 0 for x in vals) and any(x < 0 for x in vals):
                raise ReductionError(f"A-simplex {s} not weakly signed in coordinate {i}")
    out.validate()
    return out


def simplicial_approximation(pair: LevelPair) -> SphereMap:
    """Send each A-vertex to sign * e_index for its largest-magnitude
    coordinate (smallest index on ties).  The sign-refined pair makes this
    simplicial, and the open-star condition is checked exactly: for every
    A-vertex v and every vertex w of star(v, A), s_v * f_{i_v}(w) >= 0 with
    strict inequality at v itself."""
    f = pair.f
    assignment: dict[VertexId, int] = {}
    for v in pair.a.vertices:
        val = f.value(v)
        if all(x == 0 for x in val):
            raise ReductionError(f"f vanishes at A-vertex {v}")
        best = max(range(f.n), key=lambda i: (abs(val[i]), -i))
        assignment[v] = (best + 1) if val[best] > 0 else -(best + 1)
    fmap = SphereMap(pair.a, f.n, assignment)
    if not fmap.is_simplicial():
        raise ReductionError("sphere image of an A-simplex contains antipodal vertices")
    for v in pair.a.vertices:
        lab = assignment[v]
        i = abs(lab) - 1
        sign = 1 if lab > 0 else -1
        for w in star_vertices(pair.a, v):
            val = sign * f.value(w)[i]
            if val < 0 or (w == v and val == 0):
                raise ReductionError(f"open-star condition fails at {v} (witness {w})")
    return fmap
