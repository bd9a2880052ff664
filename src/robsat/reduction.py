"""From a PL map and a level alpha to a simplicial pair and a sphere map.

The pipeline has three stages, each an exact subdivision or relabelling:

1. make |f| attain its per-simplex minimum at a vertex (derived subdivision
   starring interior argmins, largest dimension first; the maximum is at a
   vertex automatically, |f| being convex on each simplex);
2. classify vertices by comparing |f(v)| with alpha (the chi labels 0, 1/2, 1);
3. star every edge on which a vertexwise function h changes sign strictly,
   at the zero of h (`star_crossings`): first h = chi - 1/2, so that the
   sublevel and level sets become full subcomplexes (X and A), then each
   coordinate of f on A, so that every coordinate is weakly signed on every
   simplex of A, at which point the vertexwise rule v -> sign * e_index is a
   simplicial approximation into the boundary of the cross polytope.

Each subdivision is one batched `star_at_point` call per pass (one for the
derived pass, one per crossing pass), and everything is validated by exact
rational checks rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .complex_core import BaryPoint, Complex, Simplex, VertexId, full_subcomplex, star_vertices
from .pl_map import (
    EQ,
    LT,
    CriticalValue,
    Norm,
    PLMap,
    min_below_vertices,
    norm_compare,
    simplex_min,
    simplex_min_value,
    star_with_values,
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
    if not min_below_vertices(f, s, norm):
        return None  # a vertex already attains the minimum
    point, _ = simplex_min(f, s, norm)
    if len(point.support) == len(s.vertices):
        return point
    return None


def _vertex_extremal_violations(f: PLMap, norm: Norm) -> list[Simplex]:
    return [s for s in f.complex.simplices if min_below_vertices(f, s, norm)]


def derived_subdivision(f: PLMap, pick) -> PLMap:
    """Star every simplex of f's complex that `pick(f, s)` assigns a
    carrier-local interior point (None for no starring), largest dimension
    first, interpolating f at each new vertex.  All picks are made on f
    before the first starring."""
    chosen = [(s, p) for s in sorted(f.complex.simplices, key=lambda x: (-x.dim, x.vertices))
              if (p := pick(f, s)) is not None]
    return star_with_values(f, chosen)[0]


class _VertexExtremal(PLMap):
    """A map that `vertexwise_extremal_subdivision` made vertex-extremal for
    `norm`."""

    __slots__ = ("norm",)

    def __init__(self, f: PLMap, norm: Norm):
        super().__init__(f.complex, f.n, f.values)
        self.norm = norm


def vertexwise_extremal_subdivision(f: PLMap, norm: Norm) -> PLMap:
    """Subdivide until every simplex attains min |f| at one of its vertices.

    Each pass is a derived pass starring interior argmins.  One pass need not
    suffice: a simplex whose lexicographic argmin lies on a proper face is not
    starred itself, and the cones that starring its other faces creates can
    have their minimum below every vertex again.  So passes repeat while the
    exact check `_vertex_extremal_violations` finds such a simplex.  Some pass
    always has a starring to make (a smallest face attaining a simplex's
    minimum has it in its interior), so a pass that stars nothing while
    violations remain raises `ReductionError`.  The result remembers the norm,
    and subdividing it again for that norm returns it unchanged, so a map
    decided at several alphas is subdivided once.
    """
    if isinstance(f, _VertexExtremal) and f.norm == norm:
        return f
    pick = partial(_interior_argmin, norm=norm)
    out = derived_subdivision(f, pick)
    while bad := _vertex_extremal_violations(out, norm):
        nxt = derived_subdivision(out, pick)
        if nxt is out:
            raise ReductionError(f"vertex-extremality failed, nothing to star: {bad[:3]}")
        out = nxt
    return _VertexExtremal(out, norm)


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


def star_crossings(f: PLMap, h: dict[VertexId, Fraction]) -> tuple[PLMap, list[VertexId]]:
    """Star every edge (u, w) with h(u) * h(w) < 0 at the zero of the linear
    extension of h, t = h(u) / (h(u) - h(w)) along u -> w.

    One scan in sorted edge order finds them all: a starring removes no other
    edge, and h vanishes at the new vertex, so no new edge crosses.  Returns
    the subdivided map and the new vertex ids in starring order.
    """
    stars = []
    for e in f.complex.k_simplices(1):
        u, w = e.vertices
        if h[u] * h[w] < 0:
            t = h[u] / (h[u] - h[w])
            stars.append((e, BaryPoint.from_dict({u: 1 - t, w: t})))
    return star_with_values(f, stars)


def _level_pair(f: PLMap, chi: dict[VertexId, Fraction], alpha: CriticalValue,
                norm: Norm) -> LevelPair:
    """X and A as the full subcomplexes on the chi <= 1/2 and chi = 1/2
    vertices, validated."""
    half = Fraction(1, 2)
    x = full_subcomplex(f.complex, lambda v: chi[v] <= half)
    a = full_subcomplex(f.complex, lambda v: chi[v] == half)
    pair = LevelPair(f, x, a, alpha, chi, norm)
    pair.validate()
    return pair


def split_level(f: PLMap, chi: dict[VertexId, Fraction], alpha: CriticalValue,
                norm: Norm) -> LevelPair:
    """Star each 0-1 edge at its chi-midpoint (the crossings of chi - 1/2),
    then take X and A as the full subcomplexes on the chi <= 1/2 and
    chi = 1/2 vertices.

    The new vertex of a starring gets chi = 1/2, the interpolated value of
    the piecewise-linear chi at the midpoint.
    """
    half = Fraction(1, 2)
    f, new = star_crossings(f, {v: chi[v] - half for v in f.complex.vertices})
    return _level_pair(f, {**chi, **dict.fromkeys(new, half)}, alpha, norm)


def sign_refinement(pair: LevelPair) -> LevelPair:
    """Star A-edges with strict per-coordinate sign changes at the zero point.

    Coordinates are processed in order; pass i stars the crossings of f_i on
    A (h = f_i on A-vertices, 0 elsewhere), and its new vertices join A.
    Later passes star only edges that pass i left weakly signed, and a convex
    combination of weakly-signed values keeps the weak sign, so pass i's
    postcondition persists; the final state is re-verified exactly below.
    """
    f = pair.f
    chi = dict(pair.chi)
    half = Fraction(1, 2)
    for i in range(f.n):
        f, new = star_crossings(f, {v: f.value(v)[i] if chi[v] == half else 0
                                    for v in f.complex.vertices})
        for vid in new:
            if all(x == 0 for x in f.value(vid)):
                raise ReductionError(f"root of f at a sign-refinement vertex {vid}")
            chi[vid] = half
    out = _level_pair(f, chi, pair.alpha, pair.norm)
    for s in out.a.simplices:
        for i in range(f.n):
            vals = [f.value(v)[i] for v in s.vertices]
            if any(x > 0 for x in vals) and any(x < 0 for x in vals):
                raise ReductionError(f"A-simplex {s} not weakly signed in coordinate {i}")
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
