"""Brute-force counterparts of the exact deciders.

These are deliberately independent of the main code paths: the witness search
tries perturbations directly, the winding oracle walks boundary cycles, the
grid check samples simplices densely, and the Diophantine check enumerates a
box.  A returned witness is a sound certificate; None is always inconclusive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .complex_core import Complex, Simplex
from .homotopy import pullback_cocycle
from .pl_map import CriticalValue, Norm, PLMap, global_min, map_distance, vector_norm
from .reduction import ReductionError, SphereMap


@dataclass(frozen=True)
class WitnessSearchConfig:
    """Deterministic search budget: `trials` random lattice perturbations on a
    grid of rational step `step`, seeded by `seed`."""

    trials: int = 200
    seed: int = 0
    step: Fraction = Fraction(1, 4)

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("the witness lattice step must be positive")


def _sign_definite(simplex_vertices, n: int, values) -> bool:
    """True when every simplex has a coordinate of constant strict sign, which
    proves the map has no root (exact, sufficient, not necessary)."""
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


def _shift(f: PLMap, delta: tuple[Fraction, ...]) -> PLMap:
    return PLMap(f.complex, f.n,
                 {v: tuple(a + d for a, d in zip(f.value(v), delta)) for v in f.complex.vertices})


def perturbation_witness(f: PLMap, alpha, cfg: WitnessSearchConfig,
                         norm: Norm = Norm.LINF) -> PLMap | None:
    """Search for a rootless g with ||f - g|| <= alpha on the same complex.

    Trial order (deterministic): f itself, then constant shifts along signed
    coordinate axes with lattice magnitudes from alpha downward, then `trials`
    random vertexwise lattice perturbations.  Candidates are accepted only via
    an exact sign-definiteness proof, then revalidated with the exact global
    minimum; a None result proves nothing.
    """
    if not isinstance(alpha, CriticalValue):
        alpha = CriticalValue.rat(Fraction(alpha))
    top = [s.vertices for s in f.complex.maximal_simplices()]

    def accept_values(values) -> PLMap | None:
        if not _sign_definite(top, f.n, values):
            return None
        g = PLMap(f.complex, f.n, values)
        if alpha < map_distance(f, g, norm):
            return None
        if global_min(g, norm).is_zero():
            raise ReductionError("a sign-definite perturbation has a root")
        return g

    def accept(g: PLMap) -> bool:
        return accept_values(g.values) is not None

    if accept(f):
        return f
    magnitudes = []
    if not alpha.is_sqrt:
        m = alpha.q
        while m > 0:
            magnitudes.append(m)
            m -= cfg.step
    else:
        # sqrt alpha: use lattice multiples of step below alpha
        m = cfg.step
        while not alpha < CriticalValue.rat(m):
            magnitudes.append(m)
            m += cfg.step
        magnitudes.reverse()
    for mag in magnitudes:
        for i in range(f.n):
            for sign in (1, -1):
                delta = tuple(sign * mag if j == i else Fraction(0) for j in range(f.n))
                g = _shift(f, delta)
                if accept(g):
                    return g
    rng = random.Random(cfg.seed)
    bound = 0
    while not alpha < CriticalValue.rat(cfg.step * (bound + 1)):
        bound += 1
    base = f.values
    for _ in range(cfg.trials):
        values = {}
        for v in f.complex.vertices:
            for _attempt in range(20):
                delta = tuple(cfg.step * rng.randint(-bound, bound) for _ in range(f.n))
                if not alpha < vector_norm(delta, norm):
                    break
            else:
                delta = tuple(Fraction(0) for _ in range(f.n))
            values[v] = tuple(a + d for a, d in zip(base[v], delta))
        g = accept_values(values)
        if g is not None:
            return g
    return None


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
    from .complex_core import connected_components

    z = pullback_cocycle(fmap)
    out = []
    for comp in connected_components(a):
        total = 0
        for u, v in _walk_cycle(a, comp):
            s = Simplex.of([u, v])
            total += z(s) if u < v else -z(s)
        out.append(total)
    return out


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
