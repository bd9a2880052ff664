"""Witness search: a rootless perturbation of f within alpha, found by trial.

The search is independent of the exact deciders: it tries perturbations of f
directly and accepts one only through an exact sign-definiteness proof.  A
returned witness is a sound certificate; None is always inconclusive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import ceil, floor, isqrt

from .pl_map import CriticalValue, Norm, PLMap, _exact_map, _reduced, vector_norm


@dataclass(frozen=True)
class WitnessSearchConfig:
    """Deterministic search budget: `trials` random lattice perturbations on a
    grid of rational step `step`, seeded by `seed`."""

    trials: int = 200
    seed: int = 0
    step: Fraction = Fraction(1, 4)

    def __post_init__(self):
        if self.trials < 0:
            raise ValueError("the witness trial count must not be negative")
        if self.step <= 0:
            raise ValueError("the witness lattice step must be positive")


def _sign_definite(simplex_vertices, n: int, nums) -> bool:
    """True when every simplex has a coordinate of constant strict sign, which
    proves the map has no root (exact, sufficient, not necessary).  nums maps
    each vertex to its value's numerators over a positive denominator, so
    they carry the value's signs."""
    for verts in simplex_vertices:
        rows = [nums[v] for v in verts]
        if not any(all(row[i] > 0 for row in rows) or all(row[i] < 0 for row in rows)
                   for i in range(n)):
            return False
    return True


def _shifted(f: PLMap, q: int, deltas) -> dict:
    """The numerators of f(v) + delta / q, for each vertex v of f in order
    with the next integer vector delta of `deltas`, over q times f's
    denominator at v."""
    pairs = f._pairs
    return {v: [q * x + pairs[v][1] * e for x, e in zip(pairs[v][0], delta)]
            for v, delta in zip(f.complex.vertices, deltas)}


def _witness(f: PLMap, q: int, nums: dict) -> PLMap:
    """The map whose numerators `_shifted(f, q, ...)` returned."""
    return _exact_map(f.complex, f.n, {v: _reduced(nums[v], q * f._pairs[v][1])
                                       for v in f.complex.vertices})


def _lattice_bound(alpha: CriticalValue, step: Fraction) -> int:
    """The largest k with k * step <= alpha: floor(sqrt(x)) is
    floor(sqrt(floor(x))), here for x = alpha^2 / step^2."""
    return isqrt(floor(alpha.square() / (step * step)))


def _shift_magnitudes(alpha: CriticalValue, step: Fraction):
    """The axis-shift magnitudes, largest first, yielded one at a time: alpha,
    alpha - step, ... while positive, or for a square-root alpha the lattice
    multiples of step up to alpha."""
    if alpha.is_sqrt:
        return (k * step for k in range(_lattice_bound(alpha, step), 0, -1))
    return (alpha.q - k * step for k in range(ceil(alpha.q / step)))


def perturbation_witness(f: PLMap, alpha, cfg: WitnessSearchConfig,
                         norm: Norm = Norm.LINF) -> PLMap | None:
    """Search for a rootless g with ||f - g|| <= alpha on the same complex.

    Trial order (deterministic): f itself, then constant shifts along signed
    coordinate axes with lattice magnitudes from alpha downward, then `trials`
    random vertexwise lattice perturbations, each within alpha by
    construction.  A candidate is accepted only via an exact
    sign-definiteness proof; the caller re-checks a returned witness once,
    with the exact global minimum and distance.  None proves nothing.
    """
    if not isinstance(alpha, CriticalValue):
        alpha = CriticalValue.rat(Fraction(alpha))
    top = [s.vertices for s in f.complex.maximal_simplices()]
    if _sign_definite(top, f.n, {v: y for v, (y, _) in f._pairs.items()}):
        return f
    for mag in _shift_magnitudes(alpha, cfg.step):
        for i in range(f.n):
            for sign in (1, -1):
                delta = [sign * mag.numerator if j == i else 0 for j in range(f.n)]
                nums = _shifted(f, mag.denominator, repeat(delta))
                if _sign_definite(top, f.n, nums):
                    return _witness(f, mag.denominator, nums)
    rng = random.Random(cfg.seed)
    bound = _lattice_bound(alpha, cfg.step)
    p, q = cfg.step.numerator, cfg.step.denominator

    def draw() -> list[int]:
        for _attempt in range(20):
            # the lattice shift step * k, as the integer vector p * k over q
            delta = [p * rng.randint(-bound, bound) for _ in range(f.n)]
            if not alpha < vector_norm(delta, norm, q):
                return delta
        return [0] * f.n

    for _ in range(cfg.trials):
        nums = _shifted(f, q, (draw() for _ in f.complex.vertices))
        if _sign_definite(top, f.n, nums):
            return _witness(f, q, nums)
    return None
