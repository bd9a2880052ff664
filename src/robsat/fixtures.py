"""Turn an extension instance (X, A, sphere map) into a PL root-finding
instance whose robust satisfiability mirrors non-extendability.

On the vertices of A the map takes the sphere image scaled by a rational
constant kappa with |x|_1 <= kappa |x|; elsewhere it vanishes.  On |A| the
l1-norm of a point of the sphere is exactly 1, so |f'| >= 1 there (verified
per A-simplex), which pins the correspondence at thresholds just below 1.
"""

from __future__ import annotations

from fractions import Fraction

from .complex_core import Complex, make_full
from .pl_map import CriticalValue, Norm, PLMap, simplex_min_value
from .reduction import ReductionError, SphereMap


def kappa(norm: Norm, n: int) -> Fraction:
    """A rational constant with |x|_1 <= kappa * |x| for all x in R^n."""
    if norm == Norm.L1:
        return Fraction(1)
    # n works for the max norm exactly and over-approximates sqrt(n) for l2;
    # only the inequality direction matters.
    return Fraction(n)


def fixture_from_extension(x: Complex, fmap: SphereMap, norm: Norm = Norm.LINF) -> PLMap:
    """PL map on (a subdivision of) X that is kappa * fmap on A, fmap's
    domain, and 0 on the remaining vertices.  A is first made full in X so
    that the zero set stays clear of |A|."""
    a, n = fmap.domain, fmap.n
    if not a.simplices <= x.simplices:
        raise ValueError("A must be a subcomplex of X")
    x2 = make_full(x, a)
    k = kappa(norm, n)
    a_verts = set(a.vertices)
    values = {}
    for v in x2.vertices:
        values[v] = [Fraction(0)] * n
        if v in a_verts:  # kappa * sign * e_i for the label sign * i
            label = fmap.image(v)
            values[v][abs(label) - 1] = k if label > 0 else -k
    f = PLMap(x2, n, values)
    one = CriticalValue.rat(1)
    for s in a.simplices:
        cv = simplex_min_value(f, s, norm)
        if cv < one:
            raise ReductionError(f"|f'| < 1 on the A-simplex {s}")
    return f
