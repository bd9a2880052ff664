"""Piecewise-linear maps with rational vertex values, and exact |f| analysis.

Minima of |f| over a simplex are computed exactly: an epigraph LP for the
l1/max norms, and face enumeration with equality-constrained least squares
(KKT systems solved by `exactlinalg.solve`) for the Euclidean norm, whose
minimum is the square root of a rational, stored squared.  Both solvers run
on fraction-free integer tableaus (see `exactlinalg`), and the LP pivots
follow Bland's rule exactly as the rational simplex would.  Argmin points are
made deterministic by lexicographic refinement over barycentric coordinates,
which `linprog.solve_lp` runs from the optimal basis of the same solve.  The
value, and the argmin when it lies below every vertex value, are cached per
simplex, so the extremal subdivision never solves a simplex twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache, total_ordering
from itertools import combinations
from math import isqrt

from . import exactlinalg
from .complex_core import BaryPoint, Complex, Simplex, VertexId, star_at_point
from .linprog import feasible_point, solve_lp

LT, EQ, GT = -1, 0, 1


class Norm(str, Enum):
    L1 = "l1"
    L2 = "l2"
    LINF = "linf"


def _is_perfect_square(q: Fraction) -> bool:
    return isqrt(q.numerator) ** 2 == q.numerator and isqrt(q.denominator) ** 2 == q.denominator


def _exact_sqrt(q: Fraction) -> Fraction:
    return Fraction(isqrt(q.numerator), isqrt(q.denominator))


@total_ordering
@dataclass(frozen=True)
class CriticalValue:
    """A nonnegative value that is either rational or the square root of a
    rational (stored squared).  Square roots that happen to be rational are
    canonicalized to the rational form, so cross-kind equality never occurs
    and the ordering is the plain ordering of squares."""

    is_sqrt: bool
    q: Fraction

    def __post_init__(self):
        if self.q < 0:
            raise ValueError("critical values are nonnegative")
        if self.is_sqrt and _is_perfect_square(self.q):
            raise ValueError("use CriticalValue.sqrt_of for canonicalization")

    @classmethod
    def rat(cls, q) -> "CriticalValue":
        return cls(False, Fraction(q))

    @classmethod
    def sqrt_of(cls, q) -> "CriticalValue":
        q = Fraction(q)
        if _is_perfect_square(q):
            return cls(False, _exact_sqrt(q))
        return cls(True, q)

    def square(self) -> Fraction:
        return self.q if self.is_sqrt else self.q * self.q

    def __lt__(self, other: "CriticalValue") -> bool:
        return self.square() < other.square()

    def is_zero(self) -> bool:
        return self.q == 0

    def scaled(self, c) -> "CriticalValue":
        c = Fraction(c)
        if c < 0:
            raise ValueError("scale factor must be nonnegative")
        if self.is_sqrt:
            return CriticalValue.sqrt_of(c * c * self.q)
        return CriticalValue.rat(c * self.q)

    def __float__(self) -> float:
        return float(self.q) ** 0.5 if self.is_sqrt else float(self.q)

    def __str__(self) -> str:
        return f"sqrt({self.q})" if self.is_sqrt else str(self.q)


def vector_norm(y, norm: Norm) -> CriticalValue:
    """Exact |y| as a CriticalValue."""
    ys = [Fraction(v) for v in y]
    if norm == Norm.L1:
        return CriticalValue.rat(sum(abs(v) for v in ys))
    if norm == Norm.LINF:
        return CriticalValue.rat(max((abs(v) for v in ys), default=Fraction(0)))
    return CriticalValue.sqrt_of(sum(v * v for v in ys))


def norm_compare(y, norm: Norm, a: CriticalValue) -> int:
    """Exact trichotomy |y| vs a: one of LT, EQ, GT."""
    v = vector_norm(y, norm)
    if v == a:
        return EQ
    return LT if v < a else GT


class PLMap:
    """A map |K| -> Q^n determined by rational values on the vertices."""

    __slots__ = ("complex", "n", "_values")

    def __init__(self, complex_: Complex, n: int, values):
        self.complex = complex_
        self.n = n
        vals = {}
        for v in complex_.vertices:
            if v not in values:
                raise ValueError(f"vertex {v} has no value")
            vec = tuple(Fraction(x) for x in values[v])
            if len(vec) != n:
                raise ValueError(f"value at vertex {v} has length {len(vec)}, expected {n}")
            vals[v] = vec
        self._values = vals

    def value(self, v: VertexId) -> tuple[Fraction, ...]:
        return self._values[v]

    @property
    def values(self) -> dict[VertexId, tuple[Fraction, ...]]:
        return dict(self._values)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PLMap)
            and self.n == other.n
            and self.complex == other.complex
            and self._values == other._values
        )

    def __repr__(self) -> str:
        return f"PLMap(n={self.n}, {self.complex!r})"


def evaluate(f: PLMap, p: BaryPoint) -> tuple[Fraction, ...]:
    """Value of f at a point.

    If p's support spans a simplex of f's complex the interpolation is direct;
    otherwise p is treated as a point in original coordinates and located.
    """
    support = p.support
    direct = None
    if all(v in f.complex.coords for v in support):
        try:
            s = Simplex.of(support)
        except ValueError:
            s = None
        if s is not None and s in f.complex:
            direct = p.as_dict()
    if direct is None:
        hit = f.complex.locate(p)
        if hit is None:
            raise ValueError("point not supported in the complex")
        _, direct = hit
    acc = [Fraction(0)] * f.n
    for v, w in direct.items():
        val = f.value(v)
        for i in range(f.n):
            acc[i] += w * val[i]
    return tuple(acc)


def _norm_lp(ys, n, norm: Norm):
    """The epigraph LP of min |sum lam_j y_j| over the standard simplex, as
    (rows, rhs, cost).  Variable order: lam (d+1), t (1 or n), slacks (2n)."""
    d1 = len(ys)
    ts = 1 if norm == Norm.LINF else n
    width = d1 + ts + 2 * n
    rows = [[1] * d1 + [0] * (width - d1)]
    for i in range(n):
        t_col = d1 if norm == Norm.LINF else d1 + i
        for up in (1, 0):  # t - y.lam - s_up = 0, then t + y.lam - s_lo = 0
            row = [-y[i] if up else y[i] for y in ys] + [0] * (width - d1)
            row[t_col] = 1
            row[d1 + ts + 2 * i + 1 - up] = -1
            rows.append(row)
    return rows, [1] + [0] * (2 * n), [0] * d1 + [1] * ts + [0] * (2 * n)


def _min_l2(ys, n):
    """Exact min of |sum lam y|_2^2 over the standard simplex, and the value
    vector sum lam y attaining it (unique, by strict convexity).

    Minimizers over the affine hull of each face solve a rational KKT system;
    faces whose solutions are all infeasible are covered by their subfaces.
    """
    best_sq = best_y = None
    for k in range(1, len(ys) + 1):
        for face in combinations(range(len(ys)), k):
            ys_f = [ys[j] for j in face]
            rows = [[2 * sum(a[i] * b[i] for i in range(n)) for b in ys_f] + [-1] for a in ys_f]
            rows.append([1] * k + [0])
            rhs = [0] * k + [1]
            sol, unique = exactlinalg.solve(rows, rhs)
            if sol is None:
                raise exactlinalg.ExactnessError(
                    "KKT system of a bounded-below QP is inconsistent")
            lam = sol[:k]
            if any(x < 0 for x in lam):
                if unique:
                    continue
                # Singular KKT: look for a feasible solution with an LP
                # (mu free, split into two nonnegative parts).
                split = [row + [int(a < k)] for a, row in enumerate(rows)]
                point = feasible_point(split, rhs, k + 2)
                if point is None:
                    continue
                lam = point[:k]
            yv = [sum(w * y[i] for w, y in zip(lam, ys_f)) for i in range(n)]
            sq = sum(v * v for v in yv)
            if best_sq is None or sq < best_sq:
                best_sq, best_y = sq, yv
    return best_sq, best_y


def _simplex_min(ys, n, norm: Norm, refine_below=None):
    """(min |f|, its lexicographically smallest minimizer in barycentric
    coordinates) over the simplex with vertex values ys.  Given refine_below,
    the minimizer is computed only when the minimum lies below it, else None.
    """
    d1 = len(ys)

    def refined(cv):
        return refine_below is None or cv < refine_below

    if d1 == 1:
        cv = vector_norm(ys[0], norm)
        return cv, ((Fraction(1),) if refined(cv) else None)
    if norm == Norm.L2:
        sq, best_y = _min_l2(ys, n)
        cv = CriticalValue.sqrt_of(sq)
        if not refined(cv):
            return cv, None
        # The minimizers are the points of the simplex that hit best_y.
        rows = [[1] * d1] + [[y[i] for y in ys] for i in range(n)]
        _, lam = solve_lp(rows, [1] + best_y, [0] * d1, lex=d1)
        return cv, tuple(lam)
    rows, rhs, cost = _norm_lp(ys, n, norm)
    bound = None if refine_below is None else refine_below.q
    m, x = solve_lp(rows, rhs, cost, lex=d1, lex_below=bound)
    cv = CriticalValue.rat(m)
    return cv, (tuple(x[:d1]) if refined(cv) else None)


@lru_cache(maxsize=1 << 16)
def _min_value_cached(ys: tuple, n: int, norm: Norm):
    """(min, minimizer or None) of |f| over a simplex with vertex values ys.
    The minimizer is refined only when the minimum lies below every vertex
    value, the one case in which the extremal subdivision stars it."""
    return _simplex_min(ys, n, norm, min(vector_norm(y, norm) for y in ys))


def simplex_min_value(f: PLMap, s: Simplex, norm: Norm) -> CriticalValue:
    """Exact minimum of |f| over a simplex.

    Results are cached on the vertex-value tuple, which recurs heavily across
    the alpha sweep of a robustness computation."""
    if s not in f.complex:
        raise ValueError(f"simplex {s} not in complex")
    return _min_value_cached(tuple(f.value(v) for v in s.vertices), f.n, norm)[0]


def min_below_vertices(f: PLMap, s: Simplex, norm: Norm) -> bool:
    """Whether min |f| over a simplex lies strictly below |f| at each of its
    vertices: the cached minimizer is refined exactly then, so this reads
    that bit with no vertex norms recomputed on a cache hit."""
    if s not in f.complex:
        raise ValueError(f"simplex {s} not in complex")
    return _min_value_cached(tuple(f.value(v) for v in s.vertices), f.n, norm)[1] is not None


def simplex_min(f: PLMap, s: Simplex, norm: Norm) -> tuple[BaryPoint, CriticalValue]:
    """Exact minimizer and minimum of |f| over a simplex of f's complex.

    The returned point is in carrier-local barycentric coordinates and is the
    lexicographically smallest minimizer, so repeated runs agree.  A minimizer
    below every vertex value comes from the cache, with no second solve.
    """
    if s not in f.complex:
        raise ValueError(f"simplex {s} not in complex")
    ys = tuple(f.value(v) for v in s.vertices)
    cv, lam = _min_value_cached(ys, f.n, norm)
    if lam is None:
        cv, lam = _simplex_min(ys, f.n, norm)
    return BaryPoint.from_dict({v: w for v, w in zip(s.vertices, lam) if w != 0}), cv


def critical_values(f: PLMap, norm: Norm) -> list[CriticalValue]:
    """Sorted distinct minima of |f| over the simplices of the complex."""
    seen: set[CriticalValue] = set()
    for s in sorted(f.complex.simplices):
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


def has_root(f: PLMap, norm: Norm) -> bool:
    return global_min(f, norm).is_zero()


def max_vertex_norm(f: PLMap, norm: Norm) -> CriticalValue:
    """max over vertices of |f(v)|; equals max over |K| since |f| is convex
    per simplex."""
    best = CriticalValue.rat(0)
    for v in f.complex.vertices:
        cv = vector_norm(f.value(v), norm)
        if best < cv:
            best = cv
    return best


def map_distance(f: PLMap, g: PLMap, norm: Norm) -> CriticalValue:
    """Exact sup-distance of two maps on the same complex: the vertexwise max
    of |f(v)-g(v)|, valid because |f-g| is convex on every simplex."""
    if f.complex is not g.complex and f.complex != g.complex:
        raise ValueError("maps live on different complexes")
    best = CriticalValue.rat(0)
    for v in f.complex.vertices:
        diff = tuple(a - b for a, b in zip(f.value(v), g.value(v)))
        cv = vector_norm(diff, norm)
        if best < cv:
            best = cv
    return best


def star_with_values(f: PLMap,
                     stars: list[tuple[Simplex, BaryPoint]]) -> tuple[PLMap, list[VertexId]]:
    """`complex_core.star_at_point` on f's complex, with f interpolated at
    each new vertex.  Returns (new PLMap, new vertex ids in starring order);
    an empty batch returns f itself."""
    if not stars:
        return f, []
    c2, new_ids = star_at_point(f.complex, stars)
    values = f.values
    for (_, point), vid in zip(stars, new_ids):
        values[vid] = tuple(sum(w * values[v][i] for v, w in point.weights)
                            for i in range(f.n))
    return PLMap(c2, f.n, values), new_ids
