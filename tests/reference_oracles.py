"""Brute-force references that the tests compare robsat's exact deciders with.

They are deliberately independent of the main code paths: the winding oracle
walks boundary cycles, the grid check samples simplices densely, the
Diophantine check enumerates a box, the n = 1 rule reads the labels of each
component, and point location solves for barycentric coordinates directly.
The n = 1 rule is the one the cocycle system replaced.  The extremal subdivision that re-examines every
simplex in every derived pass, and the Euclidean simplex minimum with its LP
fallback on singular KKT faces, are the versions robsat's faster paths
replaced, and so are the Fraction kernels that integer vertex values
replaced: the vertex test, the epigraph LP, the simplex minimum and the
witness search on rational vertex values, and the polynomial sampler that
evaluates vertex values and interval gap bounds in Fractions.  The per-simplex simplicity check
of a sphere map is the one that `SphereMap`'s edge check replaced.  The
map-level crossing routine, which evaluated each pass at every vertex and
scanned every edge of the whole complex, and starred through a complex
build per pass, is the one that the in-place `reduction.star_crossings`
replaced.  The dataclass critical value, which compared through
Fractions, is the one that the reduced integer pair of `CriticalValue`
replaced.  The starring kernel that scanned every face of every removed
coface is the one that `complex_core.star_in_place`'s direct cones
replaced.  None of them is on a path robsat runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from itertools import combinations, product
from math import isqrt

from robsat import exactlinalg
from robsat.complex_core import Complex, Simplex, VertexId, _sorted_simplex, connected_components
from robsat.grid import FreudenthalGrid
from robsat.homotopy import pullback_cocycle
from robsat.linprog import LPInfeasible, solve_lp
from robsat.oracles import WitnessSearchConfig, _lattice_bound, _shift_magnitudes
from robsat.pl_map import (
    CriticalValue,
    Norm,
    PLMap,
    global_min,
    _reduced,
    simplex_min,
    star_with_values,
    vector_norm,
)
from robsat.polynomials import Polynomial, PolynomialError
from robsat.reduction import ReductionError, SphereMap
from robsat.sampling import _combine_component_bounds

from helpers import BaryPoint, Interval, as_dict, origin, point_stars, weight


# -- point location and evaluation --------------------------------------------

def local_coordinates(s: Simplex, target: BaryPoint, lineage=None):
    """Barycentric coordinates of `target` (original coords) within simplex s,
    whose vertices `lineage` expands over the original ones (identity when
    None; see `helpers.extend_lineage`).

    Returns the weight dict over s's vertices, or None when target is not
    in the closed hull of s.
    """
    ids = sorted({v for vert in s.vertices for v in origin(lineage, vert).support}
                 | set(target.support))
    rows = []
    rhs = []
    for oid in ids:
        rows.append([weight(origin(lineage, vert), oid) for vert in s.vertices])
        rhs.append(weight(target, oid))
    rows.append([Fraction(1)] * len(s.vertices))
    rhs.append(Fraction(1))
    sol, _ = exactlinalg.solve(rows, rhs)
    if sol is None or any(x < 0 for x in sol):
        return None
    return {vert: x for vert, x in zip(s.vertices, sol) if x != 0}


def locate(c: Complex, target: BaryPoint, lineage=None):
    """Find a simplex whose hull contains `target` (original coordinates),
    with c's vertices expanded by `lineage`.

    Returns (simplex, local weight dict) or None. Deterministic: maximal
    simplices are scanned in sorted order.
    """
    support = set(target.support)
    for s in c.maximal_simplices():
        carrier = {v for vert in s.vertices for v in origin(lineage, vert).support}
        if not support <= carrier:
            continue
        local = local_coordinates(s, target, lineage)
        if local is not None:
            return s, local
    return None


def grid_locate(grid: FreudenthalGrid, point):
    """Containing simplex and barycentric weights of a point in the box."""
    m = grid.m
    cell = []
    frac = []
    for i, x in enumerate(point):
        lo, hi = grid.bounds[i]
        x = Fraction(x)
        if x < lo or x > hi:
            raise ValueError(f"coordinate {i} out of bounds")
        s = (x - lo) * grid.resolution[i] / (hi - lo)
        c = min(int(s), grid.resolution[i] - 1)
        cell.append(c)
        frac.append(s - c)
    order = sorted(range(m), key=lambda i: (-frac[i], i))
    chain = [tuple(cell)]
    cur = list(cell)
    for i in order:
        cur[i] += 1
        chain.append(tuple(cur))
    weights: dict[VertexId, Fraction] = {}
    lam0 = 1 - frac[order[0]] if m else Fraction(1)
    lams = [lam0]
    for j in range(1, m):
        lams.append(frac[order[j - 1]] - frac[order[j]])
    lams.append(frac[order[m - 1]] if m else Fraction(0))
    for idx, lam in zip(chain, lams[: m + 1]):
        if lam != 0:
            vid = grid.vertex_at(idx)
            weights[vid] = weights.get(vid, Fraction(0)) + lam
    simplex = Simplex.of(grid.vertex_at(idx) for idx in chain)
    return simplex, weights


def evaluate(f: PLMap, p: BaryPoint, lineage=None) -> tuple[Fraction, ...]:
    """Value of f at a point.

    If p's support spans a simplex of f's complex the interpolation is direct;
    otherwise p is treated as a point in original coordinates and located,
    with the vertices of f's complex expanded by `lineage`.
    """
    if Simplex(p.support) in f.complex:
        direct = as_dict(p)
    else:
        hit = locate(f.complex, p, lineage)
        if hit is None:
            raise ValueError("point not supported in the complex")
        _, direct = hit
    acc = [Fraction(0)] * f.n
    for v, w in direct.items():
        val = f.value(v)
        for i in range(f.n):
            acc[i] += w * val[i]
    return tuple(acc)


def has_root(f: PLMap, norm: Norm) -> bool:
    return global_min(f, norm).is_zero()


# -- winding, grid minimum, bounded Diophantine search --------------------------

def _walk_cycle(a: Complex, component: set[int]) -> list[tuple[int, int]]:
    adjacency: dict[int, list[int]] = {v: [] for v in component}
    for e in a.k_simplices(1):
        u, v = e.vertices
        if u in component:
            adjacency[u].append(v)
            adjacency[v].append(u)
    for v, nb in adjacency.items():
        if len(nb) != 2:
            raise ValueError(f"component is not a simple cycle at vertex {v}")
    start = min(component)
    nxt = min(adjacency[start])
    walk = [(start, nxt)]
    prev, cur = start, nxt
    while cur != start:
        a_, b_ = adjacency[cur]
        step = b_ if a_ == prev else a_
        walk.append((cur, step))
        prev, cur = cur, step
    return walk


def winding_oracle(a: Complex, fmap: SphereMap) -> list[int]:
    """Winding of the pulled-back cocycle along each cycle component of a,
    walked deterministically from its smallest vertex toward its smaller
    neighbor.  Components are ordered by smallest vertex."""
    z = pullback_cocycle(fmap)
    out = []
    for comp in connected_components(a):
        total = 0
        for u, v in _walk_cycle(a, comp):
            s = Simplex.of([u, v])
            total += z(s) if u < v else -z(s)
        out.append(total)
    return out


def ref_decide_s0(x: Complex, a: Complex, fmap: SphereMap) -> dict | None:
    """The n = 1 rule that robsat decided apart from the cocycle system: a map
    A -> S^0 extends iff it is constant on the A-vertices of each component
    of X.  Returns a vertex map of X that extends it (label +1 on components
    without A-vertices), or None when there is none."""
    assignment = {}
    a_vertices = set(a.vertices)
    for comp in connected_components(x):
        labels = {fmap.image(v) for v in comp if v in a_vertices}
        if len(labels) > 1:
            return None
        lab = labels.pop() if labels else 1
        for v in comp:
            assignment[v] = lab
    return assignment


def ref_is_simplicial(domain: Complex, assignment: dict[VertexId, int]) -> bool:
    """Every simplex of the domain has an antipodal-free image label set
    (collapses are allowed)."""
    for s in domain.simplices:
        labels = {assignment[v] for v in s.vertices}
        if any(-x in labels for x in labels):
            return False
    return True


def grid_min_check(f: PLMap, s: Simplex, norm: Norm, resolution: int) -> CriticalValue:
    """Minimum of |f| over the barycentric grid of denominator `resolution`
    on s: an upper bound for the exact simplex minimum."""
    d1 = len(s.vertices)
    best = None
    for ks in _compositions(resolution, d1):
        point = {v: Fraction(k, resolution) for v, k in zip(s.vertices, ks) if k}
        val = [Fraction(0)] * f.n
        for v, w in point.items():
            fv = f.value(v)
            for i in range(f.n):
                val[i] += w * fv[i]
        cv = vector_norm(val, norm)
        if best is None or cv < best:
            best = cv
    return best


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def brute_diophantine(matrix, rhs, bound: int) -> list[int] | None:
    """Exhaustive integer solution search for M x = b with |x_i| <= bound,
    implemented as a meet-in-the-middle scan of the box.  None means no
    solution exists inside the box (the system may still be solvable)."""
    m = len(matrix)
    n = len(matrix[0]) if matrix else 0
    if n == 0:
        return [] if all(v == 0 for v in rhs) else None
    half = n // 2
    rng = range(-bound, bound + 1)
    left_cols = list(range(half))
    right_cols = list(range(half, n))

    left: dict[tuple[int, ...], tuple[int, ...]] = {}
    for xs in product(rng, repeat=len(left_cols)):
        key = tuple(sum(matrix[i][j] * x for j, x in zip(left_cols, xs)) for i in range(m))
        if key not in left:
            left[key] = xs
    for xs in product(rng, repeat=len(right_cols)):
        partial = tuple(sum(matrix[i][j] * x for j, x in zip(right_cols, xs)) for i in range(m))
        key = tuple(b - p for b, p in zip(rhs, partial))
        hit = left.get(key)
        if hit is not None:
            return list(hit) + list(xs)
    return None


# -- the extremal subdivision and the l2 minimum, as they were -----------------

def derived_subdivision(f: PLMap, pick) -> PLMap:
    """Star every simplex of f's complex that `pick(f, s)` assigns a
    carrier-local interior point (None for no starring), largest dimension
    first, interpolating f at each new vertex.  All picks are made on f
    before the first starring."""
    chosen = [(s, p) for s in sorted(f.complex.simplices, key=lambda x: (-x.dim, x.vertices))
              if (p := pick(f, s)) is not None]
    return star_with_values(f, point_stars(f, chosen))[0]


def min_below_vertices(f: PLMap, s: Simplex, norm: Norm) -> bool:
    """Whether min |f| over s lies strictly below |f| at each of its vertices."""
    return simplex_min(f, s, norm)[0] is not None


def interior_argmin(f: PLMap, s: Simplex, norm: Norm):
    if not min_below_vertices(f, s, norm):
        return None  # a vertex already attains the minimum
    lam, _ = simplex_min(f, s, norm)
    if all(lam):
        return BaryPoint.from_dict(dict(zip(s.vertices, lam)))
    return None


def ref_vertexwise_extremal_subdivision(f: PLMap, norm: Norm) -> PLMap:
    """Derived passes over every simplex until one stars nothing, then a
    re-check of every simplex's minimum."""
    out = f
    while (nxt := derived_subdivision(out, lambda g, s: interior_argmin(g, s, norm))) is not out:
        out = nxt
    bad = [s for s in out.complex.simplices if min_below_vertices(out, s, norm)]
    if bad:
        raise ReductionError(f"vertex-extremality failed, nothing to star: {bad[:3]}")
    return out


# -- the face-scan starring kernel ---------------------------------------------

def ref_star_in_place(simplices: set[Simplex], cofaces: dict[VertexId, set[Simplex]],
                      carriers, first_id: VertexId) -> list[VertexId]:
    """`complex_core.star_in_place` as a scan over every face of every
    removed coface, keeping those that miss a carrier vertex, deduplicated
    in a set."""
    new_ids = []
    for new_id, carrier in enumerate(carriers, first_id):
        if carrier not in simplices:
            raise ValueError(f"carrier {carrier} not in complex")
        carrier_set = set(carrier)
        removed = set.intersection(*(cofaces[v] for v in carrier))
        # cones over the faces of the removed simplices that miss a carrier
        # vertex: sorted faces, then new_id, which exceeds every vertex
        added = {_sorted_simplex(face + (new_id,)) for t in removed
                 for k in range(1, len(t) + 1)
                 for face in combinations(t, k) if not carrier_set.issubset(face)}
        added.add(_sorted_simplex((new_id,)))
        for t in removed:
            for v in t:
                cofaces[v].discard(t)
        for t in added:
            for v in t:
                cofaces[v].add(t)
        simplices -= removed
        simplices |= added
        new_ids.append(new_id)
    return new_ids


# -- the map-level crossing routine -------------------------------------------

def ref_crossings(f: PLMap, h) -> list[tuple[Simplex, tuple[tuple[int, ...], int]]]:
    """The edges (u, w) of f's complex on which the pass h has strictly
    opposite signs, in sorted order, each with the reduced pair of f at the
    zero of the linear extension of h."""
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


def ref_star_crossings(f: PLMap, passes, first_id: VertexId | None = None
                       ) -> tuple[PLMap, list[VertexId]]:
    """Each pass's `ref_crossings`, starred in one `star_with_values` batch;
    the new ids in starring order, numbered on from first_id."""
    new: list[VertexId] = []
    for h in passes:
        f, ids = star_with_values(f, ref_crossings(f, h), new[-1] + 1 if new else first_id)
        new += ids
    return f, new


def ref_min_l2(ys, n):
    """Exact min of |sum lam y|_2^2 over the standard simplex and the value
    vector attaining it, by the KKT system of every face; a face with a
    singular KKT system and an infeasible solution gets an LP feasibility
    solve (mu free, split into two nonnegative parts)."""
    gram = [[2 * sum(a[i] * b[i] for i in range(n)) for b in ys] for a in ys]
    best_sq = best_y = None
    for k in range(1, len(ys) + 1):
        for face in combinations(range(len(ys)), k):
            ys_f = [ys[j] for j in face]
            rows = [[gram[a][b] for b in face] + [-1] for a in face]
            rows.append([1] * k + [0])
            rhs = [0] * k + [1]
            sol, unique = exactlinalg.solve(rows, rhs)
            lam = sol[:k]
            if any(x < 0 for x in lam):
                if unique:
                    continue
                split = [row + [int(a < k)] for a, row in enumerate(rows)]
                try:
                    _, point = solve_lp(split, rhs, [0] * (k + 2))
                except LPInfeasible:
                    continue
                lam = point[:k]
            yv = [sum(w * y[i] for w, y in zip(lam, ys_f)) for i in range(n)]
            sq = sum(v * v for v in yv)
            if best_sq is None or sq < best_sq:
                best_sq, best_y = sq, yv
    return best_sq, best_y


# -- the simplex minimum on rational vertex values -----------------------------

def ref_norm_lp(ys, n, norm: Norm):
    """The epigraph LP of min |sum lam_j y_j| over the standard simplex on
    rational vertex values, as (rows, rhs, cost).  Variable order: lam (d+1),
    t (1 or n), slacks (2n)."""
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


def ref_vertex_attains_min(ys, y0, norm: Norm) -> bool:
    """The subgradient test of `pl_map._vertex_attains_min` on rational
    vertex values: g.y >= |y0| at every vertex value y other than y0 (the
    object in ys), for g = y0/|y0| (l2), sign(y0) (l1), or sign(y0_i) e_i at
    some coordinate i attaining |y0| (linf)."""
    if not any(y0):
        return True
    ys = [y for y in ys if y is not y0]
    if norm == Norm.L2:
        sq = sum(a * a for a in y0)
        return all(sum(a * b for a, b in zip(y0, y)) >= sq for y in ys)
    if norm == Norm.L1:
        g = [(a > 0) - (a < 0) for a in y0]
        m = sum(abs(a) for a in y0)
        return all(sum(gi * b for gi, b in zip(g, y) if gi) >= m for y in ys)
    m = max(abs(a) for a in y0)
    return any(all((y[i] if a > 0 else -y[i]) >= m for y in ys)
               for i, a in enumerate(y0) if abs(a) == m)


def ref_simplex_min(ys, n, norm: Norm, below: CriticalValue):
    """`pl_map._simplex_min` on rational vertex values, uncached: (min |f|,
    its lexicographically smallest minimizer when the minimum lies below
    `below`, else None)."""
    d1 = len(ys)
    if norm == Norm.L2:
        sq, best_y = ref_min_l2(ys, n)
        cv = CriticalValue.sqrt_of(sq)
        if not cv < below:
            return cv, None
        rows = [[1] * d1] + [[y[i] for y in ys] for i in range(n)]
        _, lam = solve_lp(rows, [1] + best_y, [0] * d1, lex=d1)
        return cv, tuple(lam)
    rows, rhs, cost = ref_norm_lp(ys, n, norm)
    m, x = solve_lp(rows, rhs, cost, lex=d1, lex_below=below.q)
    cv = CriticalValue.rat(m)
    return cv, (tuple(x[:d1]) if cv < below else None)


# -- critical values as Fraction dataclasses ---------------------------------

def _is_perfect_square(q: Fraction) -> bool:
    return isqrt(q.numerator) ** 2 == q.numerator and isqrt(q.denominator) ** 2 == q.denominator


def _exact_sqrt(q: Fraction) -> Fraction:
    return Fraction(isqrt(q.numerator), isqrt(q.denominator))


@total_ordering
@dataclass(frozen=True)
class RefCriticalValue:
    """`pl_map.CriticalValue` as a dataclass of (is_sqrt, q) that compares
    through Fractions."""

    is_sqrt: bool
    q: Fraction

    def __post_init__(self):
        if self.q < 0:
            raise ValueError("critical values are nonnegative")
        if self.is_sqrt and _is_perfect_square(self.q):
            raise ValueError("use CriticalValue.sqrt_of for canonicalization")

    @classmethod
    def rat(cls, q) -> "RefCriticalValue":
        return cls(False, Fraction(q))

    @classmethod
    def sqrt_of(cls, q) -> "RefCriticalValue":
        q = Fraction(q)
        if _is_perfect_square(q):
            return cls(False, _exact_sqrt(q))
        return cls(True, q)

    def square(self) -> Fraction:
        return self.q if self.is_sqrt else self.q * self.q

    def __lt__(self, other: "RefCriticalValue") -> bool:
        if not (self.is_sqrt or other.is_sqrt):
            return self.q < other.q  # both nonnegative, so squaring keeps the order
        return self.square() < other.square()

    def is_zero(self) -> bool:
        return self.q == 0

    def __str__(self) -> str:
        return f"sqrt({self.q})" if self.is_sqrt else str(self.q)


def ref_vector_norm(y, norm: Norm, den: int = 1) -> RefCriticalValue:
    """`pl_map.vector_norm` through Fractions, as a RefCriticalValue."""
    if norm == Norm.L2:
        return RefCriticalValue.sqrt_of(Fraction(sum(v * v for v in y), den * den))
    size = sum(map(abs, y)) if norm == Norm.L1 else max(map(abs, y), default=0)
    return RefCriticalValue(False, Fraction(size, den))


# -- witness search on Fraction values ---------------------------------------

def _ref_sign_definite(simplex_vertices, n: int, values) -> bool:
    for verts in simplex_vertices:
        vals = [values[v] for v in verts]
        ok = False
        for i in range(n):
            first = vals[0][i]
            if first > 0:
                ok = all(row[i] > 0 for row in vals)
            elif first < 0:
                ok = all(row[i] < 0 for row in vals)
            else:
                ok = False
            if ok:
                break
        if not ok:
            return False
    return True


def _ref_shift(values, delta: tuple[Fraction, ...]) -> dict:
    return {v: tuple(a + d for a, d in zip(y, delta)) for v, y in values.items()}


def ref_perturbation_witness(f: PLMap, alpha, cfg: WitnessSearchConfig,
                             norm: Norm = Norm.LINF) -> PLMap | None:
    """`oracles.perturbation_witness` with every trial shifted and
    sign-tested in Fractions: the same trials in the same order, from the
    same RNG draws."""
    if not isinstance(alpha, CriticalValue):
        alpha = CriticalValue.rat(Fraction(alpha))
    top = [s.vertices for s in f.complex.maximal_simplices()]
    base = {v: f.value(v) for v in f.complex.vertices}
    if _ref_sign_definite(top, f.n, base):
        return f
    for mag in _shift_magnitudes(alpha, cfg.step):
        for i in range(f.n):
            for sign in (1, -1):
                delta = tuple(sign * mag if j == i else Fraction(0) for j in range(f.n))
                values = _ref_shift(base, delta)
                if _ref_sign_definite(top, f.n, values):
                    return PLMap(f.complex, f.n, values)
    rng = random.Random(cfg.seed)
    bound = _lattice_bound(alpha, cfg.step)
    p, q = cfg.step.numerator, cfg.step.denominator
    for _ in range(cfg.trials):
        values = {}
        for v in f.complex.vertices:
            for _attempt in range(20):
                delta = [p * rng.randint(-bound, bound) for _ in range(f.n)]
                if not alpha < vector_norm(delta, norm, q):
                    break
            else:
                delta = [0] * f.n
            values[v] = tuple(a + Fraction(d, q) for a, d in zip(base[v], delta))
        if _ref_sign_definite(top, f.n, values):
            return PLMap(f.complex, f.n, values)
    return None


# -- polynomial sampling in Fractions -----------------------------------------


def eval_at(self: Polynomial, point) -> Fraction:
    point = [Fraction(x) for x in point]
    total = Fraction(0)
    for e, c in self.terms:
        term = c
        for x, k in zip(point, e):
            if k:
                term *= x ** k
        total += term
    return total


def diff(self: Polynomial, i: int) -> Polynomial:
    d: dict[tuple[int, ...], Fraction] = {}
    for e, c in self.terms:
        if e[i] == 0:
            continue
        e2 = list(e)
        e2[i] -= 1
        d[tuple(e2)] = d.get(tuple(e2), Fraction(0)) + c * e[i]
    return Polynomial.from_dict(self.nvars, d)


def interval_eval(self: Polynomial, box: list[Interval]) -> Interval:
    """Natural interval extension over a box (sound range enclosure)."""
    total = Interval.point(0)
    for e, c in self.terms:
        term = Interval.point(c)
        for iv, k in zip(box, e):
            if k:
                term = term * iv.power(k)
        total = total + term
    return total


def grid_points(grid: FreudenthalGrid) -> dict[VertexId, tuple[Fraction, ...]]:
    """Vertex id -> point of the grid, in Fractions."""
    return {grid.vertex_at(idx): tuple(
        lo + Fraction(k) * (hi - lo) / r for (lo, hi), r, k in zip(grid.bounds, grid.resolution, idx))
        for idx in product(*(range(r + 1) for r in grid.resolution))}


def cell_widths(self: FreudenthalGrid) -> list[Fraction]:
    return [(hi - lo) / r for (lo, hi), r in zip(self.bounds, self.resolution)]


def cell_box(self: FreudenthalGrid, cell) -> list[tuple[Fraction, Fraction]]:
    h = cell_widths(self)
    return [(lo + c * hi_, lo + (c + 1) * hi_)
            for (lo, _), c, hi_ in zip(self.bounds, cell, h)]


def ref_sample_polynomial(polys: list[Polynomial], grid: FreudenthalGrid,
                          norm: Norm = Norm.LINF) -> tuple[PLMap, Fraction]:
    """Exact vertex samples plus a rigorous uniform bound on
    max_x |poly(x) - interpolant(x)| over the box."""
    for p in polys:
        if p.nvars != grid.m:
            raise PolynomialError("variable count does not match the box")
    values = {
        vid: tuple(eval_at(p, pt) for p in polys)
        for vid, pt in grid_points(grid).items()
    }
    f = PLMap(grid.complex, len(polys), values)
    widths = cell_widths(grid)
    component_bounds = []
    for p in polys:
        grads = [diff(p, i) for i in range(grid.m)]
        worst = Fraction(0)
        for cell in grid.cells():
            box = [Interval(lo, hi) for lo, hi in cell_box(grid, cell)]
            center = [(iv.lo + iv.hi) / 2 for iv in box]
            cell_bound = Fraction(0)
            for i in range(grid.m):
                rng = interval_eval(grads[i], box)
                at_center = eval_at(grads[i], center)
                deviation = max(rng.hi - at_center, at_center - rng.lo)
                cell_bound += deviation * widths[i]
            worst = max(worst, cell_bound)
        component_bounds.append(worst)
    return f, _combine_component_bounds(component_bounds, norm)
