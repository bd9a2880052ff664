"""Fraction-free exact linear algebra over plain Python ints.

Rational rows are scaled by one common lcm of their denominators to an
integer tableau T whose true value is T / d for one positive common
denominator d, the absolute determinant of the current basis.  `pivot` is the
integer-preserving elimination step of Bareiss (Math. Comp. 1968): pivoting
on T[r][c] = p rewrites every other row as (p * row - row[c] * T[r]) // d and
makes |p| the new d.  Sylvester's identity makes that division exact, so no
gcd is ever taken and the cost is plain integer multiplication; the division
is checked anyway and an inexact one raises.  Fractions are built only for
returned values.  `solve` is Gauss-Jordan elimination on this step, and the
simplex method in `linprog` uses the same step.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class ExactnessError(ArithmeticError):
    """An exact-arithmetic invariant failed (an inexact fraction-free division,
    an inconsistent system that must be consistent, or an integer solution
    that fails its exact re-check); indicates a bug."""


def to_int_rows(rows) -> tuple[list[list[int]], int]:
    """Scale rational rows by the lcm of all their denominators.

    Returns (integer rows, the lcm)."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def pivot(rows: list[list[int]], r: int, c: int, d: int) -> int:
    """Fraction-free pivot on rows[r][c] in place.

    d is the current common denominator; returns the new one, |rows[r][c]|.
    A negative pivot row is negated first, which leaves the pivoted tableau
    unchanged and keeps every denominator positive.
    """
    prow = rows[r]
    p = prow[c]
    if p < 0:
        p = -p
        prow = rows[r] = [-x for x in prow]
    for i, row in enumerate(rows):
        f = row[c]
        if i == r or (not f and p == d):
            continue
        new = [p * a - f * b for a, b in zip(row, prow)] if f else [p * a for a in row]
        if d != 1:
            quot = [x // d for x in new]
            # Floor remainders are >= 0, so they are all zero iff they sum to zero.
            if sum(new) != d * sum(quot):
                raise ExactnessError("inexact fraction-free division")
            new = quot
        rows[i] = new
    return p


def solve(rows, rhs) -> tuple[list[Fraction] | None, bool]:
    """Solve A x = b over the rationals.

    Returns (solution, unique). The solution sets free variables to zero;
    (None, False) means the system is inconsistent.
    """
    if not rows:
        return [], True
    ncols = len(rows[0])
    t, _ = to_int_rows([list(row) + [bi] for row, bi in zip(rows, rhs)])
    d = 1
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(t):
            break
        i = next((i for i in range(r, len(t)) if t[i][col]), None)
        if i is None:
            continue
        t[r], t[i] = t[i], t[r]
        d = pivot(t, r, col, d)
        pivots.append(col)
    if any(row[ncols] for row in t[len(pivots):]):
        return None, False
    x = [Fraction(0)] * ncols
    for row, col in zip(t, pivots):
        x[col] = Fraction(row[ncols], d)
    return x, len(pivots) == ncols
