"""Witness search: a rootless perturbation of f within alpha, found by trial.

The search is independent of the exact deciders: it tries perturbations of f
directly and accepts one only through an exact sign-definiteness proof.  A
returned witness is a sound certificate; None is always inconclusive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, isqrt

from .pl_map import CriticalValue, Norm, PLMap, vector_norm


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


def _shift(values, delta: tuple[Fraction, ...]) -> dict:
    return {v: tuple(a + d for a, d in zip(y, delta)) for v, y in values.items()}


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
    base = f.values
    if _sign_definite(top, f.n, base):
        return f
    for mag in _shift_magnitudes(alpha, cfg.step):
        for i in range(f.n):
            for sign in (1, -1):
                delta = tuple(sign * mag if j == i else Fraction(0) for j in range(f.n))
                values = _shift(base, delta)
                if _sign_definite(top, f.n, values):
                    return PLMap(f.complex, f.n, values)
    rng = random.Random(cfg.seed)
    bound = _lattice_bound(alpha, cfg.step)
    p, q = cfg.step.numerator, cfg.step.denominator
    for _ in range(cfg.trials):
        values = {}
        for v in f.complex.vertices:
            for _attempt in range(20):
                # the lattice shift step * k, as the integer vector p * k over q
                delta = [p * rng.randint(-bound, bound) for _ in range(f.n)]
                if not alpha < vector_norm(delta, norm, q):
                    break
            else:
                delta = [0] * f.n
            values[v] = tuple(a + Fraction(d, q) for a, d in zip(base[v], delta))
        if _sign_definite(top, f.n, values):
            return PLMap(f.complex, f.n, values)
    return None

