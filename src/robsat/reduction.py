"""From a PL map and a level alpha to a simplicial pair and a sphere map.

The pipeline has three stages, each an exact subdivision or relabelling:

1. make |f| attain its per-simplex minimum at a vertex (derived subdivision
   starring interior argmins, largest dimension first; the maximum is at a
   vertex automatically, |f| being convex on each simplex);
2. classify vertices by comparing |f(v)| with alpha (the chi labels 0, 1/2, 1);
3. star every edge on which a pass h, a vertexwise function, changes sign
   strictly, at the zero of h, with one `star_crossings` call per stage that
   runs the stage's passes in order on one simplex set and pair table,
   edited in place: first h = chi - 1/2, so that the sublevel and level
   sets become full subcomplexes (X and A), then each coordinate of f,
   scanning only the edges of A, so that every coordinate is weakly signed
   on every simplex of A, at which point the vertexwise rule
   v -> sign * e_index is a simplicial approximation into the boundary of
   the cross polytope.

X, and the region U = {g <= -alpha} of a system with inequalities, are
`sublevel` cuts: each pass evaluated once per vertex, the simplices far
from the cut dropped, the stage's crossings starred, every edge left
re-checked, and the simplices kept where every pass is <= 0.  The sign
refinement goes on from X's simplex set, so a level pair (`LevelPair`)
builds X once and A once, from that set, and is validated once.  The
extremal stage stars in batched `star_with_values` calls, and everything
is validated by exact rational checks rather than trusted.

The drop keeps every starring and every id.  `sublevel` drops a simplex
when every pass is strictly positive at each of its vertices.  Such a
simplex holds no crossing edge, since a crossing edge has an end where a
pass is negative, and is no coface of a carrier: a carrier crosses, so one
of its ends is an input vertex where a pass is negative, which no dropped
simplex holds, or a new vertex, which only simplices made by the starrings
hold.  A starring reads nothing but its carrier's cofaces
(`complex_core.star_in_place`), so on the kept simplices the passes find
the same crossing edges, star them in the same order and number them from
one past the whole complex's largest vertex; and no dropped simplex lies in
the cut, where every pass is <= 0.

A starring is a carrier and f's value at the new vertex.  Only the extremal
stage has a point, `simplex_min`'s argmin, and interpolates f there; a
crossing's value, f at the zero of h, is computed from the two endpoint
pairs in integers.  The checks on the level pair are edge-local and
norm-free: they read f only at the vertices and edges of A (see
`LevelPair.validate`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .complex_core import Complex, Simplex, VertexId, coface_index, star_in_place
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


class LevelPair:
    """The combinatorial stand-in for (|f|^-1 [0, alpha], |f|^-1 {alpha}).

    The pair lives on X: `f` and chi are defined on X, A is the full
    subcomplex on the chi = 1/2 vertices, and `first_id` is the id of the
    next starred vertex (None: one past X's largest).  The level stages
    hand X on as a simplex set with f's pairs on its vertices (`_on_set`),
    and each stage edits a copy of its input's set; X (`f`'s complex) and A
    are built from the set once each, on first read.  The 0-1 edge check
    runs in `sublevel`, before the cut.
    """

    def __init__(self, f: PLMap, chi: dict[VertexId, Fraction],
                 first_id: VertexId | None = None):
        self.f, self.chi, self.first_id = f, chi, first_id
        self._simplices, self.n, self._pairs = f.complex.simplices, f.n, f._pairs

    @classmethod
    def _on_set(cls, simplices, n: int, pairs, chi, first_id) -> "LevelPair":
        pair = cls.__new__(cls)
        pair._simplices, pair.n, pair._pairs = simplices, n, pairs
        pair.chi, pair.first_id = chi, first_id
        return pair

    @cached_property
    def f(self) -> PLMap:
        return _exact_map(Complex(self._simplices), self.n, self._pairs)

    @property
    def x(self) -> Complex:
        return self.f.complex

    @cached_property
    def _half(self) -> set[VertexId]:
        """The A-vertices, chi = 1/2; `split_level` and `sign_refinement` hand theirs on."""
        return {v for v, c in self.chi.items() if c == HALF}

    @cached_property
    def a(self) -> Complex:
        half = self._half
        return Complex(s for s in self._simplices if half.issuperset(s))

    def validate(self) -> None:
        """Every A-simplex is weakly signed in every coordinate of f, and f
        has no root on A.

        Both are checked exactly on the edges and vertices of A: a
        simplex has a strict sign change in coordinate i iff one of its edges
        does; and if a weakly signed simplex has f(p) = sum_v lambda_v f(v) = 0,
        the terms of each coordinate share a sign, so each term is 0 and every
        vertex of p's support is a root.
        """
        pairs = self._pairs  # a sign is the sign of a numerator
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


def star_crossings(simplices: set[Simplex], pairs: dict, passes, values: list[dict],
                   first_id: VertexId) -> list[VertexId]:
    """Run a stage's passes in order on one simplex set and pair table,
    both edited in place.  values[k] holds pass k's value at each vertex
    of the scan (the same vertices in every table), and the passes scan the
    edges with both ends there.  Each pass stars the scanned edges on which
    it has strictly opposite signs, in sorted order and one `star_in_place`
    batch, each at the zero of its linear extension; the cofaces index is
    built once, when a first pass crosses.  A new vertex joins the scan,
    with its value computed once by each later pass.  One scan per pass
    suffices: a starring removes no other edge, and h vanishes at the new
    vertex, so no new edge crosses.  Returns the new ids in starring
    order, numbered on from first_id across the passes.

    A pass h maps a vertex and its reduced pair to a pair (num, den) with
    den > 0, so its sign is the sign of num.  With h(u) = a / da and
    h(w) = b / db, p = |a| db and q = |b| da are positive and the zero is
    (q f(u) + p f(w)) / (p + q); over du dw, the vertex values'
    denominators, its denominator (p + q) du dw is positive, as a reduced
    pair's must be."""
    scan = set(values[0]) if values else set()
    edges = {e for e in simplices if len(e) == 2 and e[0] in scan and e[1] in scan}
    cofaces = None
    new: list[VertexId] = []
    for h, hv in zip(passes, values):
        for v in new:
            hv[v] = h(v, pairs[v])
        stars = []
        for e in sorted(e for e in edges if hv[e[0]][0] * hv[e[1]][0] < 0):
            u, w = e
            (a, da), (b, db) = hv[u], hv[w]
            p, q = abs(a) * db, abs(b) * da
            (yu, du), (yw, dw) = pairs[u], pairs[w]
            stars.append((e, _reduced([q * dw * x + p * du * z for x, z in zip(yu, yw)],
                                      (p + q) * du * dw)))
        if stars:
            if cofaces is None:
                cofaces = coface_index(simplices)
            carriers = [e for e, _ in stars]
            ids = star_in_place(simplices, cofaces, carriers, new[-1] + 1 if new else first_id)
            pairs.update(zip(ids, (y for _, y in stars)))
            scan.update(ids)
            # of the scanned edges, a starring removes its carrier and adds
            # the edges on its new vertex
            edges.difference_update(carriers)
            edges.update(t for v in ids for t in cofaces[v]
                         if len(t) == 2 and t[0] in scan and t[1] in scan)
            new += ids
    return new


def sublevel(f: PLMap, passes) -> tuple[set[Simplex], dict, VertexId | None]:
    """The sublevel set where every pass is <= 0, cut as a simplex set.

    Each pass is evaluated once per vertex.  The simplices on which every
    pass is positive at every vertex are dropped, which changes no starring
    and no id (see the module docstring); `star_crossings` stars the rest,
    every edge left is re-checked for a crossing, and the cut keeps the
    simplices on vertices where every pass is <= 0: every simplex is then
    weakly signed in each pass, so that is the sublevel set exactly.
    Returns the cut, f's pairs on its vertices, and the next free id, one
    past the starred complex's largest vertex, cut or not (None if f's
    complex is empty)."""
    values = [{v: h(v, y) for v, y in f._pairs.items()} for h in passes]
    positive = set(f._pairs)
    for hv in values:
        positive = {v for v in positive if hv[v][0] > 0}
    simplices = ({s for s in f.complex.simplices if not positive.issuperset(s)} if positive
                 else set(f.complex.simplices))
    pairs = dict(f._pairs)
    first_id = f.complex.vertices[-1] + 1 if f.complex.vertices else None
    new = star_crossings(simplices, pairs, passes, values, first_id)
    edges = [e for e in simplices if len(e) == 2]
    keep = set(pairs)
    for h, hv in zip(passes, values):
        for v in new:
            if v not in hv:
                hv[v] = h(v, pairs[v])
        if left := [e for e in edges if hv[e[0]][0] * hv[e[1]][0] < 0]:
            raise ReductionError(f"a level split left the crossing edge {min(left)}")
        keep = {v for v in keep if hv[v][0] <= 0}
    return ({s for s in simplices if keep.issuperset(s)}, {v: pairs[v] for v in keep},
            first_id + len(new) if first_id is not None else None)


def split_level(f: PLMap, chi: dict[VertexId, Fraction]) -> LevelPair:
    """X, the `sublevel` of chi - 1/2: each 0-1 edge is starred at its
    chi-midpoint, and only the chi <= 1/2 part is kept, since the extension
    problem reads nothing outside it.  A vertex the split adds has chi = 1/2,
    the value of the piecewise-linear chi at the midpoint.  The pair holds
    X as the cut simplex set, which `sign_refinement`, run next by every
    decision, edits further and validates; later starrings number on from
    `sublevel`'s next id.  The pair is handed the A-vertices: those where
    the pass, evaluated once per vertex, is zero.
    """
    half = set()

    def level(v, _):
        c = chi.get(v, HALF)
        if not (h := 2 * c.numerator - c.denominator):
            half.add(v)
        return h, 2 * c.denominator

    x, pairs, first_id = sublevel(f, [level])
    pair = LevelPair._on_set(x, f.n, pairs, {v: chi.get(v, HALF) for v in pairs}, first_id)
    pair._half = half
    return pair


def sign_refinement(pair: LevelPair) -> LevelPair:
    """Star A-edges with strict per-coordinate sign changes at the zero point,
    and validate the result.

    One `star_crossings` call on a copy of X's simplex set runs pass i =
    f_i for each coordinate in order, scanning only edges with both ends
    in A, so every new vertex lies on A.  Later passes star only edges that
    pass i left weakly signed, and a convex combination of weakly-signed
    values keeps the weak sign, so pass i's postcondition persists;
    `LevelPair.validate` re-checks it exactly, building A.
    """
    x, pairs = set(pair._simplices), dict(pair._pairs)
    passes = [lambda v, y, i=i: (y[0][i], y[1]) for i in range(pair.n)]
    on_a = pair._half
    first = pair.first_id if pair.first_id is not None else max(pairs, default=-1) + 1
    new = star_crossings(x, pairs, passes, [{v: h(v, pairs[v]) for v in on_a} for h in passes],
                         first)
    out = LevelPair._on_set(x, pair.n, pairs, {**pair.chi, **dict.fromkeys(new, HALF)},
                            new[-1] + 1 if new else pair.first_id)
    out._half = on_a.union(new)
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
    n, pairs = pair.n, pair._pairs  # one denominator per vertex: numerators compare
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
