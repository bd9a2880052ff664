"""Exact answer checks that use none of robsat's own code.

Witnesses and inputs are checked with plain `Fraction` arithmetic, so a bug
in robsat's norms or minimization cannot hide itself from the benchmark.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def norm_square(vec, norm: str) -> Fraction:
    """|vec|^2 in the named norm ("linf", "l1" or "l2")."""
    if norm == "l2":
        return sum((x * x for x in vec), Fraction(0))
    if norm == "l1":
        s = sum((abs(x) for x in vec), Fraction(0))
    else:
        s = max((abs(x) for x in vec), default=Fraction(0))
    return s * s


def within_alpha(f_values: dict, g_values: dict, alpha_sq: Fraction, norm: str) -> bool:
    """Every vertex moves by at most alpha (given squared) in the norm."""
    if set(f_values) != set(g_values):
        return False
    return all(
        norm_square([a - b for a, b in zip(f_values[v], g_values[v])], norm) <= alpha_sq
        for v in f_values)


def _unique_solution(rows, rhs):
    """The unique solution of a small rational system, or None."""
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            return None
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                fac = m[i][col]
                m[i] = [a - fac * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    if any(row[-1] != 0 for row in m[r:]):
        return None
    return [m[i][-1] for i in range(ncols)]


def zero_in_hull(points) -> bool:
    """Is the origin in the convex hull of the points?

    By Caratheodory the origin lies in the hull of an affinely independent
    subset, whose barycentric system has a unique solution; so it suffices to
    try every subset of at most n + 1 points."""
    n = len(points[0])
    for k in range(1, min(len(points), n + 1) + 1):
        for subset in combinations(points, k):
            rows = [[p[i] for p in subset] for i in range(n)] + [[Fraction(1)] * k]
            rhs = [Fraction(0)] * n + [Fraction(1)]
            lam = _unique_solution(rows, rhs)
            if lam is not None and all(x >= 0 for x in lam):
                return True
    return False


def strictly_signed(points) -> bool:
    """Some coordinate has the same strict sign at every point."""
    return any(all(p[i] > 0 for p in points) or all(p[i] < 0 for p in points)
               for i in range(len(points[0])))


def rootless(maximal_simplices, values: dict) -> bool:
    """The PL map given by vertex values has no root on any simplex."""
    for s in maximal_simplices:
        pts = [values[v] for v in s]
        if not strictly_signed(pts) and zero_in_hull(pts):
            return False
    return True


def certified_witness(maximal_simplices, g_values: dict, f_values: dict) -> bool:
    """The witness g has a strictly signed coordinate on every maximal
    simplex, the certificate asked of a witness.  The one exception is the
    shortcut witness f itself (given when |f| exceeds alpha everywhere), which
    need not have one; it is checked exactly by the hull test instead."""
    if g_values == f_values:
        return rootless(maximal_simplices, g_values)
    return all(strictly_signed([g_values[v] for v in s]) for s in maximal_simplices)


def has_root(maximal_simplices, values: dict) -> bool:
    return not rootless(maximal_simplices, values)
