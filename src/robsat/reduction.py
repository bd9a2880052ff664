"""From a PL map and a level alpha to a simplicial pair and a sphere map.

The pipeline has three stages, each an exact subdivision or relabelling:

1. make |f| attain its per-simplex minimum at a vertex (derived subdivision
   starring interior argmins, largest dimension first; the maximum is at a
   vertex automatically, |f| being convex on each simplex);
2. classify vertices by comparing |f(v)| with alpha (the chi labels 0, 1/2, 1);
3. star every edge on which a pass h, a vertexwise function, changes sign
   strictly, at the zero of h, with one `star_crossings` call per stage that
   runs the stage's passes in order: first h = chi - 1/2, so that the
   sublevel and level sets become full subcomplexes (X and A), then each
   coordinate of f on A, so that every coordinate is weakly signed on every
   simplex of A, at which point the vertexwise rule v -> sign * e_index is a
   simplicial approximation into the boundary of the cross polytope.

X, and the region U = {g <= -alpha} of a system with inequalities, are
`sublevel` cuts: a stage's crossings starred, re-checked by `crossings`,
and cut where every pass is <= 0.  The level pair (`LevelPair`) lives on X,
A is cut from it once, and the pair is validated once, after sign
refinement.  Each pass stars in one batched `star_with_values` call, and
everything is validated by exact rational checks rather than trusted.

A starring is a carrier and f's value at the new vertex.  Only the extremal
stage has a point, `simplex_min`'s argmin, and interpolates f there; a
crossing's value, f at the zero of h, is computed from the two endpoint
pairs in integers.  The checks on the level pair are edge-local and
norm-free: they read f only at the vertices and edges of A (see
`LevelPair.validate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .complex_core import Complex, Simplex, VertexId, full_subcomplex
from .pl_map import (
    CriticalValue,
    Norm,
    PLMap,
    _exact_map,
    _interpolate,
    _reduced,
    simplex_min,
    star_with_values,
    vector_norm,
)

HALF = Fraction(1, 2)


class ReductionError(Exception):
    """An exact invariant of the pipeline failed; indicates an upstream bug."""


class SphereMap:
    """Simplicial map from a complex into the boundary of the cross polytope,
    whose vertices are the signed unit vectors (label +i stands for +e_i, -i
    for -e_i, 1 <= i <= n) and whose simplices are the antipodal-free label
    sets; stored as a vertexwise label assignment.  The distinguished
    oriented top simplex is (1, 2, ..., n).

    The constructor raises ValueError unless every vertex of the domain has
    a label in range and no edge has antipodal labels, so a map that exists
    is simplicial: a simplex holds an antipodal label pair iff one of its
    edges does (collapses are allowed)."""

    __slots__ = ("domain", "n", "assignment")

    def __init__(self, domain: Complex, n: int, assignment: dict[VertexId, int]):
        self.domain = domain
        self.n = n
        self.assignment = dict(assignment)
        for v in domain.vertices:
            if v not in self.assignment:
                raise ValueError(f"vertex {v} has no sphere image")
            if not 1 <= abs(self.assignment[v]) <= n:
                raise ValueError(f"bad sphere vertex {self.assignment[v]}")
        for e in domain.k_simplices(1):
            u, w = e.vertices
            if self.assignment[u] == -self.assignment[w]:
                raise ValueError(f"edge {list(e.vertices)} has antipodal images")

    def image(self, v: VertexId) -> int:
        return self.assignment[v]


@dataclass
class LevelPair:
    """The combinatorial stand-in for (|f|^-1 [0, alpha], |f|^-1 {alpha}).

    The pair lives on X: `f` and chi are defined on X, and A, the full
    subcomplex on the chi = 1/2 vertices, is cut from X on first use.  The
    0-1 edge check runs in `sublevel`, before the cut.  `first_id` is the
    id of the next starred vertex (None: one past X's largest).
    """

    f: PLMap
    chi: dict[VertexId, Fraction]
    first_id: VertexId | None = None

    @property
    def x(self) -> Complex:
        return self.f.complex

    @cached_property
    def a(self) -> Complex:
        return full_subcomplex(self.f.complex, {v for v, c in self.chi.items() if c == HALF})

    def validate(self) -> None:
        """Every A-simplex is weakly signed in every coordinate of f, and f
        has no root on A.

        Both are checked exactly on the edges and vertices of A: a
        simplex has a strict sign change in coordinate i iff one of its edges
        does; and if a weakly signed simplex has f(p) = sum_v lambda_v f(v) = 0,
        the terms of each coordinate share a sign, so each term is 0 and every
        vertex of p's support is a root.
        """
        pairs = self.f._pairs  # a sign is the sign of a numerator
        for e in self.a.k_simplices(1):
            (yu, _), (yw, _) = (pairs[v] for v in e.vertices)
            for i, (a, b) in enumerate(zip(yu, yw)):
                if a * b < 0:
                    raise ReductionError(f"A-edge {e} not weakly signed in coordinate {i}")
        for v in self.a.vertices:
            if not any(pairs[v][0]):
                raise ReductionError(f"f has a root at the A-vertex {v}")


def _new_cones(c: Complex, first_new: VertexId) -> list[Simplex]:
    """The simplices of c of dimension >= 1 with a vertex numbered first_new
    or later, in pick order.  A pass numbers its new vertices on from the
    largest old one, so these are the cones the last pass created."""
    return sorted((s for s in c.simplices if len(s) > 1 and s[-1] >= first_new),
                  key=lambda s: (-len(s), s))


class _VertexExtremal(PLMap):
    """A map that `vertexwise_extremal_subdivision` made vertex-extremal for
    `norm`."""

    __slots__ = ("norm",)

    def __init__(self, f: PLMap, norm: Norm):
        self.complex, self.n, self._pairs, self._norms = f.complex, f.n, f._pairs, f._norms
        self.norm = norm


def vertexwise_extremal_subdivision(f: PLMap, norm: Norm) -> PLMap:
    """Subdivide until every simplex attains min |f| at one of its vertices.

    Each pass examines simplices in order of decreasing dimension: a simplex
    passes when `simplex_min` returns no argmin, that is when its minimum is
    not below every vertex value.  A simplex that fails is starred at its
    argmin if that is interior (every weight positive); all picks are made
    before the pass stars them, as one batch.  The vertex norm table of each
    pass's map is the previous one extended with the pass's new vertices, so
    each vertex norm is computed once.

    Pass 1 examines every simplex of dimension >= 1, and pass k+1 only the
    cones on pass k's new vertices: a simplex that survives a pass unchanged
    is vertex-extremal.  By induction, suppose the survivors of pass k-1
    are.  A simplex s examined in pass k with its minimum below every vertex
    value has a lexicographic argmin p in the interior of some face F, and p
    is also F's lexicographic argmin, below every vertex value of F.  So F
    is no survivor of pass k-1: it was examined in pass k and picked, and
    starring F replaces s.  One pass need not suffice, since the cones that
    starring F creates can again have their minimum below every vertex;
    passes repeat until one stars nothing.

    The postcondition is exact over the result: every simplex of dimension
    >= 1 must have been examined in this call and passed, or
    `ReductionError` is raised.  The result keeps the norm and its vertex
    norm table, and subdividing it again for that norm returns it unchanged,
    so a map decided at several alphas is subdivided once.
    """
    if isinstance(f, _VertexExtremal) and f.norm == norm:
        return f
    norms = f.vertex_norms(norm)
    extremal: set[Simplex] = set()
    out, new = f, f.complex.vertices
    while new:
        picks = []
        for s in _new_cones(out.complex, new[0]):
            lam, _ = simplex_min(out, s, norm)
            if lam is None:
                extremal.add(s)
            elif all(lam):
                picks.append((s, _interpolate(out._pairs, s, lam, out.n)))
        out, new = star_with_values(out, picks)
        if new:
            pairs = out._pairs
            norms = out._norms[norm] = {**norms, **{v: vector_norm(pairs[v][0], norm, pairs[v][1])
                                                    for v in new}}
    bad = sorted(s for s in out.complex.simplices if s.dim and s not in extremal)
    if bad:
        raise ReductionError(f"vertex-extremality failed, not certified: {bad[:3]}")
    return _VertexExtremal(out, norm)


def build_chi(f: PLMap, alpha: CriticalValue, norm: Norm) -> dict[VertexId, Fraction]:
    """chi(v) = 0, 1/2, 1 as |f(v)| compares below, equal, above alpha."""
    zero, one = Fraction(0), Fraction(1)
    return {v: HALF if cv == alpha else zero if cv < alpha else one
            for v, cv in f.vertex_norms(norm).items()}


def crossings(f: PLMap, h) -> list[tuple[Simplex, tuple[tuple[int, ...], int]]]:
    """The edges (u, w) of f's complex on which the pass h has strictly
    opposite signs, in sorted order, each with the reduced pair of f at the
    zero of the linear extension of h.  h maps a vertex and its reduced pair
    to a pair (num, den) with den > 0, so its sign is the sign of num.

    With h(u) = a / da and h(w) = b / db, p = |a| db and q = |b| da are
    positive and the zero is (q f(u) + p f(w)) / (p + q); over du dw, the
    vertex values' denominators, its denominator (p + q) du dw is positive,
    as a reduced pair's must be."""
    pairs = f._pairs
    hv = {v: h(v, y) for v, y in pairs.items()}
    out = []
    for e in f.complex.k_simplices(1):
        u, w = e.vertices
        (a, da), (b, db) = hv[u], hv[w]
        if a * b < 0:
            p, q = abs(a) * db, abs(b) * da
            (yu, du), (yw, dw) = pairs[u], pairs[w]
            out.append((e, _reduced([q * dw * x + p * du * z for x, z in zip(yu, yw)],
                                    (p + q) * du * dw)))
    return out


def star_crossings(f: PLMap, passes, first_id: VertexId | None = None
                   ) -> tuple[PLMap, list[VertexId]]:
    """Run a stage's passes in order, each starring its `crossings` in one
    batch; a later pass reads the pairs that earlier ones stored.  One
    scan per pass suffices: a starring removes no other edge, and h vanishes
    at the new vertex, so no new edge crosses.  Returns the map and the new
    ids in starring order, numbered on from first_id across the passes."""
    new: list[VertexId] = []
    for h in passes:
        f, ids = star_with_values(f, crossings(f, h), new[-1] + 1 if new else first_id)
        new += ids
    return f, new


def sublevel(f: PLMap, passes) -> tuple[PLMap, VertexId | None]:
    """Star the crossings of a stage's passes in one `star_crossings` call,
    re-run each pass's `crossings` as the check, and cut the full subcomplex
    on the vertices where every pass is <= 0: every simplex is then weakly
    signed in each pass, so that is the sublevel set exactly.  Returns its
    map and the next free id, one past the starred complex's largest vertex,
    cut or not (None if that complex is empty)."""
    f, _ = star_crossings(f, passes)
    for h in passes:
        if left := crossings(f, h):
            raise ReductionError(f"a level split left the crossing edge {left[0][0]}")
    pairs = f._pairs
    cut = full_subcomplex(f.complex, {v for v, y in pairs.items()
                                      if all(h(v, y)[0] <= 0 for h in passes)})
    return (_exact_map(cut, f.n, {v: pairs[v] for v in cut.vertices}),
            f.complex.vertices[-1] + 1 if f.complex.vertices else None)


def split_level(f: PLMap, chi: dict[VertexId, Fraction]) -> LevelPair:
    """X, the `sublevel` of chi - 1/2: each 0-1 edge is starred at its
    chi-midpoint, and only the chi <= 1/2 part is kept, since the extension
    problem reads nothing outside it.  A vertex the split adds has chi = 1/2,
    the value of the piecewise-linear chi at the midpoint.  Later starrings
    number on from `sublevel`'s next id.  `sign_refinement`, which every
    decision runs next, validates the pair.
    """
    def level(v, _):
        c = chi.get(v, HALF)
        return 2 * c.numerator - c.denominator, 2 * c.denominator

    f_x, first_id = sublevel(f, [level])
    return LevelPair(f_x, {v: chi.get(v, HALF) for v in f_x.complex.vertices}, first_id)


def sign_refinement(pair: LevelPair) -> LevelPair:
    """Star A-edges with strict per-coordinate sign changes at the zero point,
    and validate the result.

    One `star_crossings` call runs pass i = f_i, 0 off A, for each
    coordinate in order: it crosses on A-edges only (A is full in X), so
    every new vertex lies on A.  Later passes star only edges that pass i
    left weakly signed, and a convex combination of weakly-signed values
    keeps the weak sign, so pass i's postcondition persists;
    `LevelPair.validate` re-checks it exactly.
    """
    off = {v for v, c in pair.chi.items() if c != HALF}
    f, new = star_crossings(pair.f, [lambda v, y, i=i: (0, 1) if v in off else (y[0][i], y[1])
                                     for i in range(pair.f.n)], pair.first_id)
    out = LevelPair(f, {**pair.chi, **dict.fromkeys(new, HALF)},
                    new[-1] + 1 if new else pair.first_id)
    out.validate()
    return out


def simplicial_approximation(pair: LevelPair) -> SphereMap:
    """Send each A-vertex v to s_v * e_{i_v}, where i_v is its
    largest-magnitude coordinate (smallest index on ties) and s_v its sign.

    The sign-refined pair makes this simplicial, and the open-star condition
    is checked exactly on a validated pair: s_v * f_{i_v}(w) >= 0 for every
    vertex w of star(v, A), strictly at v itself.  That star's vertices are v
    and its A-neighbours, and s_v * f_{i_v}(v) = max_j |f_j(v)| > 0 since
    `LevelPair.validate` found no root on A, so the check reads both ends of
    every A-edge.  A map that passes is simplicial: labels +i at v and -i at
    w on one A-simplex sit on its A-edge (v, w), where s_v * f_i(w) < 0."""
    n, pairs = pair.f.n, pair.f._pairs  # one denominator per vertex: numerators compare
    assignment: dict[VertexId, int] = {}
    for v in pair.a.vertices:
        val = pairs[v][0]
        best = max(range(n), key=lambda i: (abs(val[i]), -i))
        assignment[v] = (best + 1) if val[best] > 0 else -(best + 1)
    for e in pair.a.k_simplices(1):
        for v, w in (e.vertices, e.vertices[::-1]):
            lab = assignment[v]
            if (1 if lab > 0 else -1) * pairs[w][0][abs(lab) - 1] < 0:
                raise ReductionError(f"open-star condition fails at {v} (witness {w})")
    return SphereMap(pair.a, n, assignment)
