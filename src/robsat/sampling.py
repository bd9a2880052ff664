"""Rigorous PL sampling of polynomial systems on boxes, and the two-sided
decision that the sampling gap permits.

The interpolation error bound per cell subtracts the tangent plane at the
cell center before applying interval arithmetic: the PL interpolation
reproduces affine functions exactly, so only the gradient's deviation from
its center value contributes, and the bound vanishes on affine systems.

Everything is computed in integers on a lattice.  On axis j the grid
coordinates and the cell centres are the half-steps lo + t (hi - lo) / 2r,
t = 0..2r, which are M_j(t) / E_j for one denominator E_j and integer
numerators M_j(t).  The system is rewritten once in those numerators, as
integer coefficients over one positive denominator den, so a vertex value
is an integer sum of power products, reduced once, and the derivative in
x_i of a component is E_i / den times the d/dM_i of its integer terms.
The gap bound is the natural interval extension of each derivative over
each cell, term by term (a monomial's enclosure is the [min, max] of its
coefficient times the corner products of the per-axis power ranges),
evaluated on the numerators; one Fraction per component is built at the
end.  It is the same rational as the bound evaluated in rational interval
arithmetic.  That bound is not invariant under an affine change of
variables, so no cell-local re-expansion is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product
from math import lcm, prod
from operator import getitem

from .grid import FreudenthalGrid, freudenthal_grid
from .pl_map import Norm, PLMap, _exact_map, _reduced
from .polynomials import Polynomial, PolynomialError, parse_polynomial
from .robustness import RobTag, decide_robsat


def _combine_component_bounds(bounds: list[Fraction], norm: Norm) -> Fraction:
    if norm == Norm.LINF:
        return max(bounds, default=Fraction(0))
    # Sum bounds both for l1 and as a rational over-approximation of l2.
    return sum(bounds, Fraction(0))


def _value(terms, powers) -> int:
    """sum of a * prod_j M_j ** e_j over the integer terms (e, a), where
    powers[j] lists the powers of M_j."""
    return sum(a * prod(map(getitem, powers, e)) for e, a in terms)


def _power_range(a: list[int], b: list[int], k: int) -> tuple[int, int]:
    """The range of x ** k over [a, b], given the powers of a and of b."""
    if k % 2 or k == 0 or a[1] >= 0:
        return a[k], b[k]
    if b[1] <= 0:
        return b[k], a[k]
    return 0, max(a[k], b[k])


def sample_polynomial(polys: list[Polynomial], grid: FreudenthalGrid,
                      norm: Norm = Norm.LINF) -> tuple[PLMap, Fraction]:
    """Exact vertex samples plus a rigorous uniform bound on
    max_x |poly(x) - interpolant(x)| over the box."""
    for p in polys:
        if p.nvars != grid.m:
            raise PolynomialError("variable count does not match the box")
    degs = [max((e[j] for p in polys for e, _ in p.terms), default=0) for j in range(grid.m)]
    scales, spans, powers = [], [], []  # per axis: E_j, cell width * E_j, powers of M_j(t)
    for (lo, hi), r, deg in zip(grid.bounds, grid.resolution, degs):
        lcd = lcm(lo.denominator, hi.denominator)
        a, b = lo.numerator * (lcd // lo.denominator), hi.numerator * (lcd // hi.denominator)
        scales.append(2 * r * lcd)
        spans.append(2 * (b - a))
        powers.append([[x ** k for k in range(deg + 1)]
                       for x in (2 * r * a + t * (b - a) for t in range(2 * r + 1))])
    # each polynomial as integer terms in the M_j over one common denominator
    q = lcm(*(c.denominator for p in polys for _, c in p.terms))
    den = q * prod(s ** d for s, d in zip(scales, degs))
    terms = [[(e, c.numerator * (q // c.denominator)
               * prod(s ** (d - k) for s, d, k in zip(scales, degs, e))) for e, c in p.terms]
             for p in polys]
    pairs = {}
    for idx in product(*(range(r + 1) for r in grid.resolution)):
        at = [pw[2 * k] for pw, k in zip(powers, idx)]
        pairs[grid.vertex_at(idx)] = _reduced(tuple(_value(t, at) for t in terms), den)
    ranges = [[[_power_range(pw[2 * c], pw[2 * c + 2], k) for k in range(len(pw[0]))]
               for c in range(r)] for pw, r in zip(powers, grid.resolution)]
    component_bounds = []
    for t in terms:
        # d/dx_i is E_i * (d/dM_i of t) / den and the cell width is span_i / E_i,
        # so each axis adds (the deviation of d/dM_i of t) * span_i / den
        grads = [[(e[:i] + (e[i] - 1,) + e[i + 1:], a * e[i]) for e, a in t if e[i]]
                 for i in range(grid.m)]
        worst = 0
        for cell in grid.cells():
            box = [rg[c] for rg, c in zip(ranges, cell)]
            centre = [pw[2 * c + 1] for pw, c in zip(powers, cell)]
            bound = 0
            for g, span in zip(grads, spans):
                lo_sum = hi_sum = 0
                for e, a in g:
                    lo = hi = a
                    for rg, k in zip(box, e):
                        if k:
                            u, v = rg[k]
                            corners = (lo * u, lo * v, hi * u, hi * v)
                            lo, hi = min(corners), max(corners)
                    lo_sum += lo
                    hi_sum += hi
                mid = _value(g, centre)
                bound += max(hi_sum - mid, mid - lo_sum) * span
            worst = max(worst, bound)
        component_bounds.append(Fraction(worst, den))
    f = _exact_map(grid.complex, len(polys), pairs)
    return f, _combine_component_bounds(component_bounds, norm)


class SampledTag(Enum):
    EVERY_ALPHA_HAS_ROOT = "EveryAlphaHasRoot"
    EXISTS_ALPHA_PLUS_EPS_NO_ROOT = "ExistsAlphaPlusEpsNoRoot"
    UNKNOWN = "Unknown"


@dataclass
class SampledDecision:
    tag: SampledTag
    reason: str
    resolution: list[int]
    gap: Fraction
    tested_alpha: Fraction


def decide_sampled(exprs, bounds, resolution, alpha, epsilon,
                   var_names: list[str] | None = None, norm: Norm = Norm.LINF,
                   assume_hopf: bool = True) -> SampledDecision:
    """Either every alpha-perturbation of the polynomial system has a root in
    the box, or some (alpha + epsilon)-perturbation has none.

    The box is refined until the sampling gap is at most epsilon/2, and the PL
    decision runs at alpha + epsilon/2: a RobustYes transfers to every
    alpha-perturbation of the true system (they are within alpha + gap of the
    sample), and a RobustNo yields a rootless perturbation within
    alpha + epsilon/2 + gap <= alpha + epsilon.
    """
    alpha = Fraction(alpha)
    epsilon = Fraction(epsilon)
    if alpha <= 0 or epsilon <= 0:
        raise ValueError("alpha and epsilon must be positive")
    if var_names is None:
        var_names = [f"x{i}" for i in range(len(bounds))]
    polys = [parse_polynomial(e, var_names) if isinstance(e, str) else e for e in exprs]
    res = resolution if isinstance(resolution, list) else [int(resolution)] * len(bounds)
    for _ in range(24):
        grid = freudenthal_grid(bounds, res)
        f, gap = sample_polynomial(polys, grid, norm)
        if gap <= epsilon / 2:
            break
        res = [2 * r for r in res]
    else:
        raise RuntimeError("sampling gap did not reach epsilon/2; system too steep")
    tested = alpha + epsilon / 2
    verdict = decide_robsat(f, tested, norm, assume_hopf=assume_hopf)
    if verdict.tag is RobTag.ROBUST_YES:
        tag = SampledTag.EVERY_ALPHA_HAS_ROOT
    elif verdict.tag is RobTag.ROBUST_NO:
        tag = SampledTag.EXISTS_ALPHA_PLUS_EPS_NO_ROOT
    else:
        tag = SampledTag.UNKNOWN
    return SampledDecision(tag, verdict.reason, res, gap, tested)
