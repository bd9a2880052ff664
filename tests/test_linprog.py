"""Differential and property tests of the fraction-free kernels.

`linprog.solve_lp` and `exactlinalg.solve` run on integer tableaus; the
rational Fraction solvers they replace live on in helpers.py as a reference,
and every result here must match it exactly.
"""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robsat.complex_core import Simplex, closure
from robsat.exactlinalg import ExactnessError, pivot, solve
from robsat.linprog import LPInfeasible, LPUnbounded, feasible_point, solve_lp
from robsat.pl_map import Norm, PLMap, _norm_lp, simplex_min

from helpers import RefInfeasible, RefUnbounded, ref_lex_min, ref_solve, ref_solve_lp

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)

rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
nonneg = st.builds(Fraction, st.integers(0, 4), st.integers(1, 3))


def ref_outcome(a_rows, b, c):
    try:
        return ref_solve_lp(a_rows, b, c)
    except RefInfeasible:
        return "infeasible"
    except RefUnbounded:
        return "unbounded"


def outcome(a_rows, b, c):
    try:
        return solve_lp(a_rows, b, c)
    except LPInfeasible:
        return "infeasible"
    except LPUnbounded:
        return "unbounded"


@st.composite
def lps(draw, kind):
    """A random small LP of the given kind, feasible by construction except
    for kind == "infeasible"."""
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, 3))
    a_rows = [draw(st.lists(rationals, min_size=n, max_size=n)) for _ in range(m)]
    x0 = draw(st.lists(nonneg, min_size=n, max_size=n))
    c = draw(st.lists(rationals, min_size=n, max_size=n))
    if kind == "unbounded":
        # Column 0 is free to grow and lowers the cost.
        for row in a_rows:
            row[0] = Fraction(0)
        c[0] = Fraction(-1)
    else:
        a_rows.append([Fraction(1)] * n)  # bounds the feasible set
    b = [sum(a * x for a, x in zip(row, x0)) for row in a_rows]
    if kind == "redundant":
        a_rows.append([p + q for p, q in zip(a_rows[0], a_rows[-1])])
        b.append(b[0] + b[-1])
    if kind == "infeasible":
        a_rows.append([-a for a in a_rows[0]])
        b.append(-b[0] - 1)
    if draw(st.booleans()):
        a_rows, b = [[-a for a in row] for row in a_rows], [-v for v in b]
    return a_rows, b, c


@pytest.mark.parametrize("kind", ["optimal", "redundant", "infeasible", "unbounded"])
def test_solve_lp_matches_reference(kind):
    @SETTINGS
    @given(lps(kind))
    def check(lp):
        got = outcome(*lp)
        assert got == ref_outcome(*lp)
        assert got == kind if kind in ("infeasible", "unbounded") else isinstance(got, tuple)

    check()


@SETTINGS
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_random_lps_match_reference(m, n, data):
    a_rows = [data.draw(st.lists(rationals, min_size=n, max_size=n)) for _ in range(m)]
    b = data.draw(st.lists(rationals, min_size=m, max_size=m))
    c = data.draw(st.lists(rationals, min_size=n, max_size=n))
    assert outcome(a_rows, b, c) == ref_outcome(a_rows, b, c)


@SETTINGS
@given(lps("redundant"))
def test_lex_refinement_matches_sequential_lps(lp):
    a_rows, b, c = lp
    n = len(c)
    value, x = solve_lp(a_rows, b, c, lex=n)
    assert value == ref_solve_lp(a_rows, b, c)[0]
    assert x == ref_lex_min(a_rows + [c], b + [value], n, n)


@SETTINGS
@given(lps("optimal"))
def test_lex_below_gates_refinement(lp):
    a_rows, b, c = lp
    value, plain = solve_lp(a_rows, b, c)
    assert solve_lp(a_rows, b, c, lex=len(c), lex_below=value) == (value, plain)


@SETTINGS
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_solve_matches_reference(m, n, data):
    rows = [data.draw(st.lists(rationals, min_size=n, max_size=n)) for _ in range(m)]
    if data.draw(st.booleans()):  # a dependent row makes it rank-deficient
        rows.append([p - q for p, q in zip(rows[0], rows[-1])])
    rhs = data.draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
    assert solve(rows, rhs) == ref_solve(rows, rhs)


def test_feasible_point():
    assert feasible_point([[1, 1]], [Fraction(1, 2)], 2) == [Fraction(1, 2), 0]
    assert feasible_point([[1, 1]], [-1], 2) is None


def test_inexact_division_raises():
    # [[2, 1], [1, 1]] is no integer tableau over denominator 3.
    with pytest.raises(ExactnessError):
        pivot([[2, 1], [1, 1]], 0, 0, 3)


def _old_argmin(ys, n, norm, value, lam):
    """Lex-smallest minimizer by the sequential cold LPs that the warm-started
    refinement replaced."""
    d1 = len(ys)
    if norm == Norm.L2:
        # The minimizers are the points of the simplex hitting the optimal
        # value vector, which is unique.
        best_y = [sum(w * y[i] for w, y in zip(lam, ys)) for i in range(n)]
        assert sum(v * v for v in best_y) == value.square()
        rows = [[1] * d1] + [[y[i] for y in ys] for i in range(n)]
        return ref_lex_min(rows, [1] + best_y, d1, d1)
    rows, rhs, cost = _norm_lp(ys, n, norm)
    m, _ = ref_solve_lp(rows, rhs, cost)
    assert m == value.q
    return ref_lex_min(rows + [cost], rhs + [m], d1, len(cost))


@pytest.mark.parametrize("norm", list(Norm))
def test_lex_argmin_matches_sequential_lps(norm):
    @settings(SETTINGS, max_examples=60)
    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    def check(dim, n, data):
        ys = [tuple(data.draw(st.lists(rationals, min_size=n, max_size=n)))
              for _ in range(dim + 1)]
        s = Simplex.of(list(range(dim + 1)))
        f = PLMap(closure([list(range(dim + 1))]), n, dict(enumerate(ys)))
        point, value = simplex_min(f, s, norm)
        lam = [point.weight(v) for v in s.vertices]
        assert lam == _old_argmin(ys, n, norm, value, lam)

    check()


def test_exactness_checks_survive_optimize():
    # The explicit raises must survive `python -O`, which strips asserts.
    code = textwrap.dedent("""
        from robsat import exactlinalg
        from robsat.complex_core import Simplex, closure
        from robsat.pl_map import Norm, PLMap, simplex_min
        try:
            exactlinalg.pivot([[2, 1], [1, 1]], 0, 0, 3)
            raise SystemExit("inexact division passed")
        except exactlinalg.ExactnessError:
            pass
        exactlinalg.solve = lambda rows, rhs: (None, False)
        f = PLMap(closure([[0, 1]]), 1, {0: (1,), 1: (-1,)})
        try:
            simplex_min(f, Simplex.of([0, 1]), Norm.L2)
            raise SystemExit("inconsistent KKT system passed")
        except exactlinalg.ExactnessError:
            pass
    """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
