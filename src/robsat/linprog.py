"""Exact simplex method on an integer-preserving tableau.

Solves min c.x subject to A x = b, x >= 0.  The constraint rows are scaled
by one common lcm of their denominators and the cost by its own, and every
pivot is `exactlinalg.pivot`, the fraction-free Bareiss step, so the tableau
holds plain ints over one positive common denominator.  Scaling all rows by
the same positive factor changes neither the phase-1 objective's signs nor
any ratio, and sharing one denominator leaves every sign and every ratio
comparison (made by cross-multiplication) as on the rational tableau.  So
Bland's smallest-index rule takes exactly the pivots of the textbook
rational method: the same input gives the same optimal basis and vertex.
Fractions are built only for the returned value and point.

With lex=k the solve goes on from the optimal basis to the lexicographically
smallest optimal (x_0, ..., x_{k-1}): the optimal face is the feasible set
with x_j = 0 wherever the optimal reduced cost is positive, and on it x_0,
then x_1, and so on are minimised in turn, each stage shrinking the face the
same way.  The lexicographic minimum is unique, so it does not depend on the
pivots taken.

A caller that knows a feasible basis passes it as `start`, the list of its
basic columns, and phase 1 does not run: no artificial column is added, so
the tableau is m columns narrower.  Each column in turn is pivoted, with
the same step, on the first row not yet pivoted where it is nonzero; a
nonsingular basis finds such a row in any order, and a slack column, a unit
column, pivots on its own row, which only negates it.  A column that finds
no such row (a singular basis, or a column listed twice), a row that never
pivots or a negative basic solution raises `ExactnessError`: a bad start is
a bug in the caller, never a reason to fall back to phase 1.  Phase 2 and the
lexicographic stage then run unchanged.  The optimal value is unique and so
is the lexicographic minimum, so neither depends on the start; only the
unrefined optimal point may be another optimal vertex.
"""

from __future__ import annotations

from fractions import Fraction

from .exactlinalg import ExactnessError, pivot, to_int_rows


class LPInfeasible(Exception):
    pass


class LPUnbounded(Exception):
    pass


def _run_simplex(t, basis, cols, d):
    """Bland pivots on the cost row t[-1], entering only from `cols`, until
    optimal.  Mutates t and basis; returns the new common denominator."""
    while True:
        cost = t[-1]
        enter = next((j for j in cols if cost[j] < 0), None)
        if enter is None:
            return d
        leave = None
        for i in range(len(t) - 1):
            a = t[i][enter]
            if a <= 0:
                continue
            if leave is not None:
                # Ratio t[i][-1] / a against the best so far, cross-multiplied.
                lhs, rhs = t[i][-1] * best_a, best_rhs * a
                if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                    continue
            leave, best_rhs, best_a = i, t[i][-1], a
        if leave is None:
            raise LPUnbounded("objective unbounded below")
        d = pivot(t, leave, enter, d)
        basis[leave] = enter


def _phase_one(rows, n):
    """A feasible basis by phase 1, one artificial column per row, on the
    integer rows [A | b] (b >= 0): (tableau with no cost row, basis, d).
    Rows that turn out redundant are dropped."""
    m = len(rows)
    t = [row[:n] + [int(k == i) for k in range(m)] + row[n:] for i, row in enumerate(rows)]
    t.append([-sum(col) for col in zip(*t, [0] * (n + m + 1))])
    t[-1][n:n + m] = [0] * m
    basis = list(range(n, n + m))
    d = _run_simplex(t, basis, range(n + m), 1)
    if t[-1][-1] != 0:
        raise LPInfeasible("no feasible point")
    t.pop()
    # Drive artificials out of the basis; drop rows that turn out redundant.
    i = 0
    while i < len(t):
        if basis[i] >= n:
            col = next((j for j in range(n) if t[i][j] != 0), None)
            if col is None:
                del t[i]
                del basis[i]
                continue
            d = pivot(t, i, col, d)
            basis[i] = col
        i += 1
    return t, basis, d


def _started(rows, start):
    """The tableau [A | b] pivoted to the basis `start` lists, each column
    in order on the first row not yet pivoted where it is nonzero:
    (tableau, basis, d).  Raises ExactnessError if a column finds no such
    row, a row never pivots, or the basic solution is negative."""
    basis = [None] * len(rows)
    free = list(range(len(rows)))
    d = 1
    for j in start:
        if (r := next((r for r in free if rows[r][j]), None)) is None:
            raise ExactnessError(f"singular start basis at column {j}")
        free.remove(r)
        d = pivot(rows, r, j, d)
        basis[r] = j
    if free or any(row[-1] < 0 for row in rows):
        raise ExactnessError("start basis is not a feasible basis")
    return rows, basis, d


def solve_lp(a_rows, b, c, lex=0, lex_below=None, start=None):
    """Minimize c.x subject to a_rows @ x = b, x >= 0.

    Returns (optimal_value, x) as Fractions. Raises LPInfeasible / LPUnbounded.
    With lex > 0, and the optimal value below `lex_below` (when given), x is
    the optimal point with the lexicographically smallest x[:lex].  `start`,
    the columns of a feasible basis, replaces phase 1; a start that is
    singular or infeasible raises ExactnessError.
    """
    m = len(a_rows)
    n = len(c)
    rows, _ = to_int_rows([
        [-x for x in row] + [-bi] if bi < 0 else list(row) + [bi]
        for row, bi in zip(a_rows, b)])
    t, basis, d = _phase_one(rows, n) if start is None else _started(rows, start)
    # Phase 2: original objective, phase 1's artificial columns frozen at zero.
    (cs,), cden = to_int_rows([c])
    cost = [d * x for x in cs] + [0] * ((m if start is None else 0) + 1)
    for row, j in zip(t, basis):
        if cs[j]:
            cost = [a - cs[j] * r for a, r in zip(cost, row)]
    t.append(cost)
    d = _run_simplex(t, basis, range(n), d)
    value = Fraction(-t[-1][-1], d * cden)
    if lex and (lex_below is None or value < lex_below):
        face = [j for j in range(n) if t[-1][j] == 0]
        for k in range(lex):
            if set(face) <= set(basis):
                break  # the face is the current vertex
            cost = [0] * len(t[-1])
            cost[k] = d
            if k in basis:
                cost = [a - r for a, r in zip(cost, t[basis.index(k)])]
            t[-1] = cost
            d = _run_simplex(t, basis, face, d)
            face = [j for j in face if t[-1][j] == 0]
    x = [Fraction(0)] * n
    for row, j in zip(t, basis):
        x[j] = Fraction(row[-1], d)
    return value, x
