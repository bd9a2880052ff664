"""Piecewise-linear maps with rational vertex values, and exact |f| analysis.

Minima of |f| over a simplex are computed exactly.  On an edge they have a
closed form in integers (`_edge_min`).  On a larger simplex they are an
epigraph LP for the l1/max norms, started at the basis of the least-norm
vertex (a feasible point, so no phase 1 runs), and face enumeration with
equality-constrained least squares (`_min_l2`: closed forms on vertices and
edges, KKT systems on larger faces, the origin's barycentric coordinates on
a d = n simplex) for the Euclidean norm, whose minimum is the square root
of a rational.  Both solvers run on fraction-free integer tableaus (see
`exactlinalg`), and the LP pivots follow Bland's rule exactly as the
rational simplex would.  Argmin points are the lexicographically smallest
in barycentric coordinates: on an edge the one with the largest weight on
its second vertex, on a larger simplex by the refinement that
`linprog.solve_lp` runs from the optimal basis of the same solve.

Each map holds its vertex norms |f(v)|, one table per norm, computed once
(`PLMap.vertex_norms`).  `simplex_min` is the one routine that computes a
minimum: when a subgradient of the norm at a least-norm vertex value proves
that vertex value minimal (a few exact dot products, `_vertex_attains_min`),
the minimum is that vertex norm and no LP or KKT system runs; otherwise it
runs the closed form or the solve, which refines the argmin only when the
minimum lies below every vertex value.  Solves are cached on the vertex
values, so the decisions of one map at several alphas, and its critical
values, share them; the cache is bounded by about the working set of one
such computation.

A map stores each vertex value as one reduced integer pair (nums, den): a
tuple of ints and one positive int with gcd(den, *nums) = 1, the value being
nums / den.  The exact kernels read the pairs: vertex norms, the vertex test
(cross-multiplied by the positive denominators), the solves (one integer
matrix per simplex, over the lcm of its vertex denominators) and the
interpolation at the extremal stage's picks, which one gcd keeps reduced.
A sign, or a comparison of two coordinates of one vertex, reads the
numerators alone.  A starring stores no point, only the new vertex's
pair: `reduction`'s stages compute it (`_interpolate` at an extremal pick,
integers at a crossing), edit their own pair tables and simplex sets in
place through `complex_core.star_at_point`, and wrap the result in a map
(`_exact_map`).  `PLMap.value` builds the Fraction view of one vertex on
demand.

A minimum, a vertex norm or an alpha is a `CriticalValue`, the reduced
integer pair of its square for every norm, which the norms and solves build
from their integer results with one gcd; each comparison of two values is
one cross-multiplication.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, isqrt, lcm

from . import exactlinalg
from .complex_core import Complex, Simplex, VertexId
from .linprog import solve_lp


class Norm(str, Enum):
    L1 = "l1"
    L2 = "l2"
    LINF = "linf"


def _is_square(x: int) -> bool:
    return isqrt(x) ** 2 == x


class CriticalValue(tuple):
    """A nonnegative value that is either rational or the square root of a
    rational (`is_sqrt`, and `q` the value or its square), held as the
    reduced integer pair (num, den) of its square.  It equals and hashes as
    that pair, so a square root that is rational equals the rational, and
    values are ordered as their squares, by one cross-multiplication."""

    __slots__ = ()

    def __new__(cls, is_sqrt: bool, q):
        q = Fraction(q)
        if q < 0:
            raise ValueError("critical values are nonnegative")
        num, den = q.numerator, q.denominator
        if is_sqrt and _is_square(num) and _is_square(den):
            raise ValueError("use CriticalValue.sqrt_of for canonicalization")
        return tuple.__new__(cls, (num, den) if is_sqrt else (num * num, den * den))

    @classmethod
    def rat(cls, q) -> "CriticalValue":
        return cls(False, q)

    @classmethod
    def sqrt_of(cls, q) -> "CriticalValue":
        q = Fraction(q)
        if q < 0:
            raise ValueError("critical values are nonnegative")
        return _from_square(q.numerator, q.denominator)

    def __getnewargs__(self):
        return self.is_sqrt, self.q

    @property
    def is_sqrt(self) -> bool:
        return not (_is_square(self[0]) and _is_square(self[1]))

    @property
    def q(self) -> Fraction:
        num, den = self
        if self.is_sqrt:
            return Fraction(num, den)
        return Fraction(isqrt(num), isqrt(den))

    def square(self) -> Fraction:
        return Fraction(*self)

    def __lt__(self, other: "CriticalValue") -> bool:
        return self[0] * other[1] < other[0] * self[1]

    def __le__(self, other: "CriticalValue") -> bool:
        return self[0] * other[1] <= other[0] * self[1]

    def __gt__(self, other: "CriticalValue") -> bool:
        return self[0] * other[1] > other[0] * self[1]

    def __ge__(self, other: "CriticalValue") -> bool:
        return self[0] * other[1] >= other[0] * self[1]

    def is_zero(self) -> bool:
        return self[0] == 0

    def __str__(self) -> str:
        return f"sqrt({self.q})" if self.is_sqrt else str(self.q)

    def __repr__(self) -> str:
        return f"CriticalValue(is_sqrt={self.is_sqrt!r}, q={self.q!r})"


def _from_square(num: int, den: int) -> CriticalValue:
    """The value whose square is num / den, for integers num >= 0 and
    den > 0: one gcd reduces the pair."""
    g = gcd(num, den)
    return tuple.__new__(CriticalValue, (num // g, den // g))


def vector_norm(y, norm: Norm, den: int = 1) -> CriticalValue:
    """Exact |y| / den as a CriticalValue, for rational (or integer) entries y
    and a positive integer den."""
    if norm == Norm.L2:
        sq = sum(v * v for v in y)
    else:
        sq = (sum(map(abs, y)) if norm == Norm.L1 else max(map(abs, y), default=0)) ** 2
    return _from_square(sq.numerator, sq.denominator * den * den)


def _pair(vec) -> tuple[tuple[int, ...], int]:
    """The reduced pair (nums, den) of a rational vector: den is the lcm of
    the entries' reduced denominators, so gcd(den, *nums) = 1."""
    qs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in vec]
    den = lcm(*[q.denominator for q in qs])
    return tuple(q.numerator * (den // q.denominator) for q in qs), den


class PLMap:
    """A map |K| -> Q^n determined by rational values on the vertices, each
    stored as a reduced pair (nums, den)."""

    __slots__ = ("complex", "n", "_pairs", "_norms")

    def __init__(self, complex_: Complex, n: int, values):
        self.complex = complex_
        self.n = n
        pairs = {}
        for v in complex_.vertices:
            if v not in values:
                raise ValueError(f"vertex {v} has no value")
            vec = values[v]
            if len(vec) != n:
                raise ValueError(f"value at vertex {v} has length {len(vec)}, expected {n}")
            pairs[v] = _pair(vec)
        self._pairs = pairs
        self._norms = {}

    def value(self, v: VertexId) -> tuple[Fraction, ...]:
        nums, den = self._pairs[v]
        return tuple(Fraction(a, den) for a in nums)

    def vertex_norms(self, norm: Norm) -> dict[VertexId, CriticalValue]:
        """|f(v)| for every vertex v, computed once per map and norm."""
        table = self._norms.get(norm)
        if table is None:
            table = self._norms[norm] = {v: vector_norm(nums, norm, den)
                                         for v, (nums, den) in self._pairs.items()}
        return table

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PLMap)
            and self.n == other.n
            and self.complex == other.complex
            and self._pairs == other._pairs
        )

    def __repr__(self) -> str:
        return f"PLMap(n={self.n}, {self.complex!r})"


def _exact_map(complex_: Complex, n: int, pairs: dict) -> PLMap:
    """A PLMap on reduced pairs, one per vertex of complex_, as given."""
    f = object.__new__(PLMap)
    f.complex, f.n, f._pairs, f._norms = complex_, n, pairs, {}
    return f


def _norm_lp(ys, scale, n, norm: Norm):
    """The epigraph LP of min |sum lam_j y_j / scale| over the standard
    simplex, for integer vectors y_j and a positive integer scale, as
    (rows, rhs, cost, start).  Variable order: lam (d+1), t (1 or n), slacks
    (2n).  Each row is scale * t -+ y.lam - s = 0, so t is the true value and
    the slacks are scaled by `scale`.

    `start` is the `solve_lp` start basis at lam = e_j, for the least-norm
    vertex j (smallest index on ties): t = |y_j| / scale for linf, t_i =
    |y_j,i| / scale for l1, which is feasible.  Its basic columns are every
    slack but one per zero row (for linf the row of the first coordinate
    attaining |y_j|, for l1 one row per coordinate, the upper one where
    y_j,i >= 0, the slack there being 0), then lam_j and the t columns.
    Each pivots on its own row (a slack: only a row negation), the simplex
    row (lam_j) or its zero row (t), a triangular system with 1 and `scale`
    on the diagonal, so the basis is nonsingular."""
    d1 = len(ys)
    ts = 1 if norm == Norm.LINF else n
    width = d1 + ts + 2 * n
    rows = [[1] * d1 + [0] * (width - d1)]
    for i in range(n):
        t_col = d1 if norm == Norm.LINF else d1 + i
        for up in (1, 0):  # scale t - y.lam - s_up = 0, then scale t + y.lam - s_lo = 0
            row = [-y[i] if up else y[i] for y in ys] + [0] * (width - d1)
            row[t_col] = scale
            row[d1 + ts + 2 * i + 1 - up] = -1
            rows.append(row)
    size = max if norm == Norm.LINF else sum
    j = min(range(d1), key=lambda k: size(map(abs, ys[k])))
    y = ys[j]
    if norm == Norm.LINF:
        i = max(range(n), key=lambda k: (abs(y[k]), -k))
        zero = [(1 if y[i] >= 0 else 2) + 2 * i]
    else:
        zero = [(1 if x >= 0 else 2) + 2 * i for i, x in enumerate(y)]
    start = [d1 + ts + r - 1 for r in range(1, 2 * n + 1) if r not in zero]
    start += [j, *range(d1, d1 + ts)]
    return rows, [1] + [0] * (2 * n), [0] * d1 + [1] * ts + [0] * (2 * n), start


def _edge_min(a, b, norm: Norm):
    """(m, den, t) for integer vectors a and b: m / den (den > 0) the
    minimum of |a + t (b - a)| over t in [0, 1] (its square for l2), and t,
    a Fraction, the largest t attaining it, which makes (1 - t, t) the
    lexicographically smallest minimizer in barycentric coordinates.

    For l2, t is -a.d / |d|^2 clamped to [0, 1], with d = b - a, and 1 when
    d = 0.  For l1 and linf, |a + t d| is convex and piecewise linear, so
    its minimizers form an interval whose ends are 0, 1 or breakpoints: zeros
    of a coordinate and, for linf, the points where two coordinates' absolute
    values meet.  Every candidate t = p / q (q > 0) is evaluated exactly as
    |q a + p d| / q, and the candidates are compared by cross-multiplication.
    """
    d = [z - x for x, z in zip(a, b)]
    if norm == Norm.L2:
        p, q = -sum(x * z for x, z in zip(a, d)), sum(z * z for z in d)
        ts = [(min(max(p, 0), q), q) if q else (1, 1)]
    else:
        cuts = [(-x, z) for x, z in zip(a, d)]
        if norm == Norm.LINF:
            for (x, z), (u, w) in combinations(zip(a, d), 2):
                cuts += [(u - x, z - w), (-u - x, z + w)]
        ts = [(0, 1), (1, 1)]
        for p, q in cuts:
            if q < 0:
                p, q = -p, -q
            if q and 0 <= p <= q:
                ts.append((p, q))
    best = None
    for p, q in ts:
        y = [q * x + p * z for x, z in zip(a, d)]
        if norm == Norm.L2:
            m, den = sum(v * v for v in y), q * q
        elif norm == Norm.L1:
            m, den = sum(map(abs, y)), q
        else:
            m, den = max(map(abs, y)), q
        if best is not None:  # keep the least m / den, on a tie the larger p / q
            lhs, rhs = m * best[1], best[0] * den
            if lhs > rhs or (lhs == rhs and p * best[3] <= best[2] * q):
                continue
        best = m, den, p, q
    m, den, p, q = best
    return m, den, Fraction(p, q)


def _min_l2(ys, n):
    """(m, den, y, unique) for integer vectors ys: m / den the exact min of
    |sum lam y|_2^2 over the standard simplex, y the value vector attaining
    it (unique: |.|^2 is strictly convex), and whether d = n with unique
    origin coordinates lam(0), which makes the weights attaining y unique.

    With d = n the minimum is 0 if lam(0) >= 0.  Else a minimizer p != 0
    has a zero weight where lam_j(0) < 0, or p + s (0 - p), s > 0 small,
    would be a nearer point of the simplex: only faces missing such a j are
    examined.  A face's candidate is its affine hull's minimizer if its
    weights are unique and nonnegative: closed forms on vertices and edges,
    else a KKT system on G = 2 (y_a . y_b) with multiplier mu = lam^T G lam,
    twice the squared minimum.  A singular system means affinely dependent
    values: by Caratheodory an affinely independent subface holds the minimizer.
    """
    d1 = len(ys)
    hidden = None
    if d1 == n + 1:
        lam, unique = exactlinalg.solve([[1] * d1] + [list(c) for c in zip(*ys)], [1] + [0] * n)
        if unique and not (hidden := {j for j, x in enumerate(lam) if x < 0}):
            return 0, 1, [0] * n, True
    top = d1 - (d1 == n + 1)  # with d = n the whole simplex is decided above
    gram = [[2 * sum(x * z for x, z in zip(a, b)) for b in ys] for a in ys] if top > 2 else None
    best = None
    for k in range(1, top + 1):
        for face in combinations(range(d1), k):
            if hidden and hidden.issubset(face):
                continue
            if k == 1:
                lam, m, den = (1,), sum(x * x for x in ys[face[0]]), 1
            elif k == 2:
                m, den, t = _edge_min(ys[face[0]], ys[face[1]], Norm.L2)
                lam = (1 - t, t)
            else:
                rows = [[gram[a][b] for b in face] + [-1] for a in face]
                sol, ok = exactlinalg.solve(rows + [[1] * k + [0]], [0] * k + [1])
                if sol is None:
                    raise exactlinalg.ExactnessError(
                        "KKT system of a bounded-below QP is inconsistent")
                lam, mu = (sol[:k] if ok else None), sol[k]
                m, den = mu.numerator, 2 * mu.denominator
            if lam is not None and min(lam) >= 0 and (best is None or m * best[1] < best[0] * den):
                best = m, den, face, lam
    m, den, face, lam = best
    y = [sum(w * ys[j][i] for w, j in zip(lam, face)) for i in range(n)]
    return m, den, y, hidden is not None


@lru_cache(maxsize=1 << 10)
def _simplex_min(ys, n, norm: Norm, below: CriticalValue):
    """(min |f|, its lexicographically smallest minimizer in barycentric
    coordinates) over the simplex with vertex values ys, reduced pairs, the
    minimizer only when the minimum lies below `below`, else None.  Cached,
    so the decisions of one map and its critical values share their solves.

    The solves read one integer matrix: the vertex values times the lcm of
    their denominators.  An edge takes the closed form `_edge_min`, whose
    largest minimizing t gives the lexicographically smallest weights
    (1 - t, t): the first weight is minimized first.  A larger simplex runs
    `_min_l2` and an argmin LP (l2) or the epigraph LP (l1, linf), which
    starts from the feasible basis at its least-norm vertex (`_norm_lp`).
    The l2 argmin LP starts with every column basic when `_min_l2` finds
    the weights unique (one feasible point), else runs phase 1.  A start
    changes neither the minimum nor the refined minimizer, both unique.

    The cache holds 1,024 solves: one robustness computation on G(32) makes
    401, and its hits are on solves of the same computation.  A larger cache
    only keeps dead maps' vertex values alive, and each full garbage
    collection then walks them all, so its pauses grow with every solve.
    """
    d1 = len(ys)
    scale = lcm(*[den for _, den in ys])
    ys = [[a * (scale // den) for a in nums] for nums, den in ys]
    if d1 == 2:
        m, den, t = _edge_min(*ys, norm)
        if norm != Norm.L2:
            m, den = m * m, den * den
        cv = _from_square(m, den * scale * scale)
        return cv, ((1 - t, t) if cv < below else None)
    if norm == Norm.L2:
        m, den, best_y, unique = _min_l2(ys, n)
        cv = _from_square(m, den * scale * scale)
        if not cv < below:
            return cv, None
        # The minimizers are the points of the simplex that hit best_y.
        rows = [[1] * d1] + [[y[i] for y in ys] for i in range(n)]
        _, lam = solve_lp(rows, [1] + best_y, [0] * d1, lex=d1,
                          start=range(d1) if unique else None)
        return cv, tuple(lam)
    rows, rhs, cost, start = _norm_lp(ys, scale, n, norm)
    m, x = solve_lp(rows, rhs, cost, lex=d1, lex_below=below.q, start=start)
    cv = _from_square(m.numerator ** 2, m.denominator ** 2)
    return cv, (tuple(x[:d1]) if cv < below else None)


def _vertex_attains_min(ys, y0, norm: Norm) -> bool:
    """Whether one subgradient g of the norm at the vertex value y0 has
    g.y >= |y0| at every vertex value y.  Then |y| >= g.y >= |y0| on the
    whole simplex (by convexity; Rockafellar, Convex Analysis, Thm. 27.4),
    so y0 attains the minimum.  For l2 (g = y0/|y0|) this is also necessary:
    it is the optimality test of Wolfe's min-norm-point method.  For l1 the
    test uses g = sign(y0), sign 0 on zero coordinates; for linf,
    g = sign(y0_i) e_i for some coordinate i attaining |y0|.  Each g has
    g.y0 = |y0|, so y0 itself (the object in ys) is not tested.

    The values are reduced pairs; with y0 = a / da and y = b / db, each
    inequality is multiplied by the positive denominators: g.b da >= |a| db
    for l1 and linf, a.b da >= |a|^2 db for l2."""
    a, da = y0
    if not any(a):
        return True
    ys = [y for y in ys if y is not y0]
    if norm == Norm.L2:
        sq = sum(x * x for x in a)
        return all(sum(x * z for x, z in zip(a, b)) * da >= sq * db for b, db in ys)
    if norm == Norm.L1:
        m = sum(map(abs, a))
        return all(sum(z if x > 0 else -z for x, z in zip(a, b) if x) * da >= m * db
                   for b, db in ys)
    m = max(map(abs, a))
    return any(all((b[i] if x > 0 else -b[i]) * da >= m * db for b, db in ys)
               for i, x in enumerate(a) if abs(x) == m)


def simplex_min_value(f: PLMap, s: Simplex, norm: Norm) -> CriticalValue:
    """Exact minimum of |f| over a simplex of f's complex."""
    return simplex_min(f, s, norm)[1]


def simplex_min(f: PLMap, s: Simplex,
                norm: Norm) -> tuple[tuple[Fraction, ...] | None, CriticalValue]:
    """(argmin weights or None, minimum) of |f| over a simplex of f's complex.

    No LP or KKT system is solved when a least-norm vertex value y0 passes
    `_vertex_attains_min`: the minimum is then |y0| and the weights None.
    Otherwise the solve runs, and the weights are the lexicographically
    smallest minimizer's barycentric coordinates, one per vertex of s in
    order (zero off its support), when the minimum lies below every vertex
    value, else None.
    """
    if s not in f.complex:
        raise ValueError(f"simplex {s} not in complex")
    values, norms = f._pairs, f.vertex_norms(norm)
    v0 = min(s.vertices, key=norms.__getitem__)
    ys = tuple(values[v] for v in s.vertices)
    if _vertex_attains_min(ys, values[v0], norm):
        return None, norms[v0]
    cv, lam = _simplex_min(ys, f.n, norm, norms[v0])
    return lam, cv


def critical_values(f: PLMap, norm: Norm) -> list[CriticalValue]:
    """Sorted distinct minima of |f| over the simplices of the complex."""
    seen: set[CriticalValue] = set()
    for s in f.complex.simplices:
        seen.add(simplex_min_value(f, s, norm))
    return sorted(seen)


def global_min(f: PLMap, norm: Norm) -> CriticalValue:
    best = None
    for s in f.complex.maximal_simplices():
        cv = simplex_min_value(f, s, norm)
        if best is None or cv < best:
            best = cv
    if best is None:
        raise ValueError("empty complex has no minimum")
    return best


def max_vertex_norm(f: PLMap, norm: Norm) -> CriticalValue:
    """max over vertices of |f(v)|; equals max over |K| since |f| is convex
    per simplex."""
    return max(f.vertex_norms(norm).values(), default=CriticalValue.rat(0))


def map_distance(f: PLMap, g: PLMap, norm: Norm) -> CriticalValue:
    """Exact sup-distance of two maps on the same complex: the vertexwise max
    of |f(v)-g(v)|, valid because |f-g| is convex on every simplex."""
    if f.complex is not g.complex and f.complex != g.complex:
        raise ValueError("maps live on different complexes")
    best = CriticalValue.rat(0)
    for v in f.complex.vertices:
        (a, da), (b, db) = f._pairs[v], g._pairs[v]
        cv = vector_norm([x * db - z * da for x, z in zip(a, b)], norm, da * db)
        if best < cv:
            best = cv
    return best


def _interpolate(pairs, s: Simplex, lam, n: int) -> tuple[tuple[int, ...], int]:
    """The reduced pair of sum_v w_v f(v), the weights lam aligned with the
    vertices of s: f's value at an extremal pick.  The terms w_v nums_v /
    den_v are brought to the lcm of their denominators, and one gcd reduces
    the sum."""
    terms = [(w.numerator, w.denominator * pairs[v][1], pairs[v][0]) for v, w in zip(s, lam)]
    den = lcm(*[q for _, q, _ in terms])
    acc = [0] * n
    for p, q, nums in terms:
        k = p * (den // q)
        acc = [x + k * y for x, y in zip(acc, nums)]
    return _reduced(acc, den)


def _reduced(nums, den) -> tuple[tuple[int, ...], int]:
    """The pair (nums, den) divided by gcd(den, *nums)."""
    g = gcd(den, *nums)
    return tuple(x // g for x in nums), den // g
