import copy
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations, product
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robsat import exactlinalg, pl_map
from robsat.complex_core import Simplex, closure
from robsat.pl_map import (
    CriticalValue,
    Norm,
    PLMap,
    _interpolate,
    _min_l2,
    _pair,
    _simplex_min,
    _vertex_attains_min,
    critical_values,
    global_min,
    map_distance,
    simplex_min,
    vector_norm,
)

from helpers import (
    LARGE_PRIMES,
    BaryPoint,
    assert_canonical,
    barycenter,
    extend_lineage,
    path_map,
    point_stars,
    random_complex,
    random_map,
    random_point_in,
    scaled,
    star_with_values,
    vertex,
)
from reference_oracles import (
    RefCriticalValue,
    evaluate,
    grid_min_check,
    has_root,
    ref_min_l2,
    ref_simplex_min,
    ref_vector_norm,
    ref_vertex_attains_min,
)

ALL_NORMS = [Norm.L1, Norm.L2, Norm.LINF]


def critical_value_strategy():
    """Rational values and square roots of small nonnegative rationals, so
    that equal squares and near ties of the two kinds are common."""
    q = st.fractions(min_value=0, max_value=4, max_denominator=6)
    return st.one_of(q.map(CriticalValue.rat), q.map(CriticalValue.sqrt_of))


class TestCriticalValue:
    def test_total_order_and_canonical_sqrt(self):
        assert CriticalValue.sqrt_of(25) == CriticalValue.rat(5)
        assert CriticalValue.rat(2) < CriticalValue.sqrt_of(5)
        assert CriticalValue.sqrt_of(5) < CriticalValue.rat(Fraction(9, 4))
        assert sorted([CriticalValue.sqrt_of(2), CriticalValue.rat(1)])[0] == CriticalValue.rat(1)

    def test_nonnegative(self):
        """Every constructor rejects a negative with one message."""
        for make, q in [(CriticalValue.rat, -1), (CriticalValue.sqrt_of, -2),
                        (partial(CriticalValue, False), "-1/2"),
                        (partial(CriticalValue, True), Fraction(-2, 3))]:
            with pytest.raises(ValueError, match="^critical values are nonnegative$"):
                make(q)

    def test_every_constructor_coerces_through_fraction(self):
        assert CriticalValue(False, "1/2") == CriticalValue.rat(Fraction(1, 2))
        assert CriticalValue(True, "2") == CriticalValue.sqrt_of(2)
        assert CriticalValue.sqrt_of("9/4") == CriticalValue.rat("3/2")

    def test_non_canonical_sqrt_rejected(self):
        with pytest.raises(ValueError, match="canonicalization"):
            CriticalValue(True, Fraction(9, 4))

    def test_equals_and_hashes_as_its_square_pair(self):
        cv = CriticalValue.rat(Fraction(3, 2))
        assert isinstance(cv, tuple) and cv == (9, 4) and (9, 4) == cv
        assert hash(cv) == hash((9, 4)) and {cv: "x"}[(9, 4)] == "x"
        assert CriticalValue.sqrt_of(2) == (2, 1) and hash(CriticalValue.sqrt_of(2)) == hash((2, 1))
        assert CriticalValue(True, 2) == CriticalValue.sqrt_of(2)
        assert CriticalValue.sqrt_of(Fraction(9, 4)) == CriticalValue.rat(Fraction(3, 2))
        assert CriticalValue.rat(0) == (0, 1) and CriticalValue.sqrt_of(0).is_zero()

    def test_fields_repr_and_copies(self):
        cv, root = CriticalValue.rat(Fraction(3, 2)), CriticalValue.sqrt_of(Fraction(2, 9))
        assert (cv.is_sqrt, cv.q, cv.square()) == (False, Fraction(3, 2), Fraction(9, 4))
        assert (root.is_sqrt, root.q, root.square()) == (True, Fraction(2, 9), Fraction(2, 9))
        assert repr(cv) == "CriticalValue(is_sqrt=False, q=Fraction(3, 2))"
        assert repr(root) == "CriticalValue(is_sqrt=True, q=Fraction(2, 9))"
        assert (str(cv), str(root)) == ("3/2", "sqrt(2/9)")
        for x in (cv, root):
            for y in (copy.copy(x), pickle.loads(pickle.dumps(x))):
                assert type(y) is CriticalValue and y == x

    def test_scaling(self):
        assert scaled(CriticalValue.sqrt_of(2), 3) == CriticalValue.sqrt_of(18)
        assert scaled(CriticalValue.rat(Fraction(1, 2)), 4) == CriticalValue.rat(2)

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(st.lists(critical_value_strategy(), min_size=2, max_size=2))
    @example([CriticalValue.rat(Fraction(1, 2)), CriticalValue.rat(Fraction(1, 3))])
    @example([CriticalValue.rat(2), CriticalValue.sqrt_of(5)])
    @example([CriticalValue.sqrt_of(3), CriticalValue.sqrt_of(2)])
    def test_order_is_the_order_of_squares(self, pair):
        """The rational fast path of `<` orders rational, square-root and
        mixed pairs as comparing `square()` does."""
        a, b = pair
        assert (a < b) == (a.square() < b.square())
        assert (a <= b) == (a.square() <= b.square())
        assert (a > b) == (a.square() > b.square())


def critical_value_inputs():
    """(is_sqrt, q) for `sqrt_of` or `rat`: small rationals, 0, perfect
    squares, and large values over large coprime denominators."""
    small = st.fractions(min_value=0, max_value=4, max_denominator=6)
    large = st.builds(Fraction, st.integers(0, 10 ** 13),
                      st.sampled_from((*LARGE_PRIMES, 10 ** 12 + 39)))
    wide = st.fractions(min_value=0, max_value=10 ** 6, max_denominator=10 ** 12 + 39)
    q = st.one_of(st.just(Fraction(0)), small, small.map(lambda x: x * x), large,
                  large.map(lambda x: x * x), wide)
    return st.tuples(st.booleans(), q)


class TestAgainstDataclass:
    """`CriticalValue` against `RefCriticalValue`, the dataclass that compared
    through Fractions.  Every check is an explicit raise, so `python -O` runs
    them too."""

    def test_same_values_and_order(self):
        @settings(derandomize=True, deadline=None, max_examples=500)
        @given(st.lists(critical_value_inputs(), min_size=1, max_size=4))
        @example([(True, Fraction(4)), (False, Fraction(2))])   # a rational square root
        @example([(True, Fraction(2)), (False, Fraction(2))])   # same q, other kind
        @example([(True, Fraction(0)), (False, Fraction(0))])
        @example([(True, Fraction(1, 10 ** 12 + 39)), (False, Fraction(1, 10 ** 6 + 20))])
        @example([(False, Fraction(10 ** 12 + 38, 10 ** 12 + 39)), (True, Fraction(1))])
        def check(inputs):
            def make(cls, is_sqrt, q):
                return cls.sqrt_of(q) if is_sqrt else cls.rat(q)

            news = [make(CriticalValue, *x) for x in inputs]
            refs = [make(RefCriticalValue, *x) for x in inputs]
            for new, ref in zip(news, refs):
                got = (new.is_sqrt, new.q, type(new.q), new.square(), str(new), new.is_zero())
                want = (ref.is_sqrt, ref.q, Fraction, ref.square(), str(ref), ref.is_zero())
                if got != want or repr(new) != repr(ref).replace("RefCriticalValue", "CriticalValue"):
                    pytest.fail(f"{inputs}: {got} != {want}")
            for (a, ra), (b, rb) in product(zip(news, refs), repeat=2):
                got = (a < b, a <= b, a > b, a >= b, a == b, a != b)
                want = (ra < rb, ra <= rb, ra > rb, ra >= rb, ra == rb, ra != rb)
                if got != want or (a == b and hash(a) != hash(b)):
                    pytest.fail(f"{ra} vs {rb}: {got} != {want}")
            if len(set(news)) != len(set(refs)) or list(map(str, sorted(news))) != list(
                    map(str, sorted(refs))):
                pytest.fail(f"{inputs}: other classes or order")

        check()

    def test_same_vector_norms(self):
        entries = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                            st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 12 + 39))

        @settings(derandomize=True, deadline=None, max_examples=500)
        @given(st.lists(entries, max_size=4), st.sampled_from(ALL_NORMS),
               st.one_of(st.just(1), st.integers(1, 10 ** 12 + 39)))
        @example([3, 4], Norm.L2, 1)                            # a rational square root
        @example([Fraction(1, 10 ** 12 + 39), -2], Norm.L2, 15485863)
        @example([], Norm.LINF, 7)
        def check(y, norm, den):
            got, want = vector_norm(y, norm, den), ref_vector_norm(y, norm, den)
            if (got.is_sqrt, got.q, str(got)) != (want.is_sqrt, want.q, str(want)):
                pytest.fail(f"{y} {norm} {den}: {got!r} != {want!r}")

        check()

    def test_same_under_optimize(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"{__file__}::TestAgainstDataclass", "-k", "not optimize"],
            env=env, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0 or "2 passed" not in proc.stdout:
            pytest.fail(proc.stdout + proc.stderr)


class TestEvaluate:
    def test_vertex_point(self):
        f = path_map([0, 2])
        assert evaluate(f, vertex(0)) == (0,)

    def test_edge_midpoint(self):
        f = path_map([0, 2])
        m = BaryPoint.from_dict({0: Fraction(1, 2), 1: Fraction(1, 2)})
        assert evaluate(f, m) == (1,)

    def test_triangle_barycenter(self):
        t = closure([[1, 2, 3]])
        f = PLMap(t, 2, {1: (3, 0), 2: (0, 3), 3: (0, 0)})
        assert evaluate(f, barycenter(Simplex.of([1, 2, 3]))) == (1, 1)

    def test_unsupported_point(self):
        f = path_map([0, 1, 2])
        with pytest.raises(ValueError):
            evaluate(f, BaryPoint.from_dict({0: Fraction(1, 2), 2: Fraction(1, 2)}))


class TestSimplexMin:
    def test_sign_change_edge(self):
        f = path_map([-1, 1])
        lam, cv = simplex_min(f, Simplex.of([0, 1]), Norm.LINF)
        assert cv == CriticalValue.rat(0)
        assert lam == (Fraction(1, 2), Fraction(1, 2))

    def test_vertex_simplex_l2(self):
        f = PLMap(closure([[7]]), 2, {7: (3, -4)})
        _, cv = simplex_min(f, Simplex.of([7]), Norm.L2)
        assert cv == CriticalValue.rat(5)

    def test_triangle_linf(self):
        t = closure([[1, 2, 3]])
        f = PLMap(t, 2, {1: (1, 0), 2: (0, 1), 3: (1, 1)})
        lam, cv = simplex_min(f, Simplex.of([1, 2, 3]), Norm.LINF)
        assert cv == CriticalValue.rat(Fraction(1, 2))
        assert lam == (Fraction(1, 2), Fraction(1, 2), 0)

    def test_deterministic_on_ties(self):
        # |f| constant on the edge: the lexicographically smallest argmin
        # wins.  `simplex_min` returns no point for a minimum at a vertex, so
        # the solve runs with a bound above the minimum.
        ys, n = vals((1,), (1,))
        assert _simplex_min(pairs(ys), n, Norm.LINF, CriticalValue.rat(2)) == (
            CriticalValue.rat(1), (Fraction(0), Fraction(1)))

    @pytest.mark.parametrize("norm", ALL_NORMS)
    def test_grid_oracle_dominates(self, norm):
        rng = random.Random(17)
        for _ in range(12):
            cx = random_complex(rng, max_dim=3, max_vertices=5, n_maximal=2)
            f = random_map(rng, cx, n=2)
            for s in cx.maximal_simplices():
                _, exact = simplex_min(f, s, norm)
                grid = grid_min_check(f, s, norm, 4)
                assert not (grid < exact)

    @pytest.mark.parametrize("norm", ALL_NORMS)
    def test_random_points_dominate_min(self, norm):
        rng = random.Random(4)
        cx = closure([[0, 1, 2, 3]])
        f = random_map(rng, cx, n=2)
        s = Simplex.of([0, 1, 2, 3])
        _, exact = simplex_min(f, s, norm)
        for _ in range(1000):
            p = random_point_in(rng, s)
            val = vector_norm(evaluate(f, p), norm)
            assert not (val < exact)

    @pytest.mark.parametrize("norm", ALL_NORMS)
    def test_face_min_dominates(self, norm):
        rng = random.Random(8)
        cx = closure([[0, 1, 2]])
        f = random_map(rng, cx, n=2)
        s = Simplex.of([0, 1, 2])
        _, whole = simplex_min(f, s, norm)
        for face in s.faces():
            _, fv = simplex_min(f, face, norm)
            assert not (fv < whole)

    @pytest.mark.parametrize("norm", ALL_NORMS)
    def test_convexity_max_at_vertex(self, norm):
        rng = random.Random(31)
        for _ in range(10):
            cx = closure([[0, 1, 2]])
            f = random_map(rng, cx, n=3)
            s = Simplex.of([0, 1, 2])
            vmax = max(vector_norm(f.value(v), norm) for v in s.vertices)
            for _ in range(100):
                p = random_point_in(rng, s)
                assert not (vmax < vector_norm(evaluate(f, p), norm))


@st.composite
def simplex_values(draw):
    """(vertex values of a simplex of dimension 0-3, n) with n = 1-3.  Small
    half-integer coordinates make zero coordinates, y0 = 0 and vertex-norm
    ties common; the vertices draw from a pool with replacement, which
    repeats vertex values."""
    n = draw(st.integers(1, 3))
    coord = st.integers(-3, 3).map(lambda k: Fraction(k, 2))
    pool = draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=4))
    return tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))), n


@st.composite
def coprime_simplex_values(draw):
    """(vertex values of a simplex of dimension 0-3, n) with n = 1-3, like
    `simplex_values`, but each pool entry may be moved by -1/p, 0 or 1/p in
    each coordinate for its own large prime p, so the vertex denominators
    are large and pairwise coprime.  Entries left unmoved keep the zero
    vectors and norm ties; repeated entries repeat vertex values."""
    n = draw(st.integers(1, 3))
    coord = st.integers(-3, 3).map(lambda k: Fraction(k, 2))
    primes = draw(st.permutations(LARGE_PRIMES))
    pool = []
    for p in primes[:draw(st.integers(1, 4))]:
        y = draw(st.tuples(*[coord] * n))
        if draw(st.booleans()):
            y = tuple(x + Fraction(draw(st.integers(-1, 1)), p) for x in y)
        pool.append(y)
    return tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))), n


def any_simplex_values():
    return st.one_of(simplex_values(), coprime_simplex_values())


def vals(*ys):
    return tuple(tuple(Fraction(x) for x in y) for y in ys), len(ys[0])


def pairs(ys):
    """The reduced pairs (nums, den) of rational vertex values."""
    return tuple(_pair(y) for y in ys)


def integer_matrix(ys):
    """(the vertex values times the lcm of their denominators, that lcm)."""
    scale = lcm(*(x.denominator for y in ys for x in y))
    return [[int(x * scale) for x in y] for y in ys], scale


class TestVertexCertificate:
    """`simplex_min` skips the LP or KKT solve when a subgradient at a
    least-norm vertex value proves that vertex minimal."""

    @settings(derandomize=True, deadline=None, max_examples=1500)
    @given(simplex_values(), st.sampled_from(ALL_NORMS))
    @example(vals((0, 0), (1, 2)), Norm.L1)                   # y0 = 0
    @example(vals((1, 1), (-1, 1)), Norm.LINF)                # the second tied coordinate certifies
    @example(vals((1, 0), (0, 1)), Norm.L1)                   # minimum at a vertex, test too weak
    @example(vals((1, 0), (0, 1)), Norm.L2)                   # minimum below both vertices
    @example(vals((1, 0), (1, 0), (2, 1)), Norm.L2)           # repeated vertex value
    @example(vals((2, 0, 1), (0, 2, 1), (1, 1, 2), (2, 2, 0)), Norm.L1)
    def test_matches_the_solve(self, case, norm):
        """`simplex_min` on a map with one simplex gives the same value and
        minimizer or None as the solve bounded by the least vertex norm, so
        the refined bit and any refined minimizer agree too."""
        ys, n = case
        m0 = min(vector_norm(y, norm) for y in ys)
        s = Simplex.of(list(range(len(ys))))
        lam, cv = simplex_min(PLMap(closure([s.vertices]), n, dict(enumerate(ys))), s, norm)
        assert (cv, lam) == _simplex_min(pairs(ys), n, norm, m0)

    @settings(derandomize=True, deadline=None, max_examples=1500)
    @given(simplex_values(), st.sampled_from(ALL_NORMS))
    @example(vals((1, 1), (-1, 1)), Norm.LINF)
    @example(vals((0, 0), (1, 2)), Norm.L2)
    def test_certified_vertex_is_the_minimum(self, case, norm):
        """A vertex value the test certifies has the norm of the solve's
        minimum (the bound, here the least vertex norm, decides only whether
        the minimizer is refined)."""
        ys, n = case
        m0 = min(vector_norm(y, norm) for y in ys)
        ps = pairs(ys)
        for y, p in zip(ys, ps):
            if _vertex_attains_min(ps, p, norm):
                assert _simplex_min(ps, n, norm, m0)[0] == vector_norm(y, norm)

    @pytest.mark.parametrize("case, norm, certified", [
        (vals((0, 0), (1, 2)), Norm.L1, True),
        (vals((1, 0), (1, 1)), Norm.L2, True),
        (vals((1, 0), (0, 1)), Norm.L2, False),
        (vals((1, 1), (2, 1)), Norm.L1, True),
        (vals((1, 0), (0, 1)), Norm.L1, False),
        (vals((1, 1), (1, -1)), Norm.LINF, True),
        (vals((1, 1), (-1, 1)), Norm.LINF, True),
        (vals((1, 1), (-1, -1)), Norm.LINF, False),
    ])
    def test_examples(self, case, norm, certified):
        ps = pairs(case[0])
        assert _vertex_attains_min(ps, ps[0], norm) is certified


class TestIntegerKernels:
    """The kernels on reduced integer pairs give exactly what the Fraction
    kernels they replaced give, on draws with zero vectors, vertex-norm ties
    and large pairwise coprime vertex denominators."""

    @settings(derandomize=True, deadline=None, max_examples=1500)
    @given(any_simplex_values(), st.sampled_from(ALL_NORMS))
    @example(vals((0, 0), (Fraction(1, 7919), 2)), Norm.L2)
    @example(vals((Fraction(1, 7919), 1), (1, Fraction(-1, 7927))), Norm.LINF)
    @example(vals((Fraction(3, 104723), 1), (Fraction(1, 104729), 1)), Norm.L1)
    def test_vertex_test(self, case, norm):
        ys, _ = case
        ps = pairs(ys)
        for y, p in zip(ys, ps):
            assert _vertex_attains_min(ps, p, norm) is ref_vertex_attains_min(ys, y, norm)

    @settings(derandomize=True, deadline=None, max_examples=600)
    @given(any_simplex_values(), st.sampled_from(ALL_NORMS), st.booleans())
    @example(vals((Fraction(1, 7919), 0), (0, Fraction(1, 7927))), Norm.L2, True)
    @example(vals((Fraction(-1, 104723), 1), (Fraction(1, 104729), 1)), Norm.LINF, True)
    def test_simplex_min(self, case, norm, refine):
        """The same minimum, and the same minimizer or None, with the least
        vertex norm as the bound or (refine) a bound above the minimum."""
        ys, n = case
        below = min(vector_norm(y, norm) for y in ys)
        if refine:
            below = CriticalValue.rat(1 + sum(abs(x) for x in ys[0]))
        assert _simplex_min(pairs(ys), n, norm, below) == ref_simplex_min(ys, n, norm, below)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(coprime_simplex_values(), st.data())
    def test_star_with_values(self, case, data):
        """A batch of two starrings, the second on an edge of the first's new
        vertex, at values that `_interpolate` (the extremal stage's kernel)
        computes: they are f interpolated in Fractions at both new vertices,
        and every pair stays reduced."""
        ys, n = case
        d1 = len(ys)
        f = PLMap(closure([range(d1)]), n, dict(enumerate(ys)))
        weights = data.draw(st.lists(st.integers(1, 10 ** 6), min_size=d1, max_size=d1))
        s1, lam1 = Simplex(tuple(range(d1))), tuple(Fraction(w, sum(weights)) for w in weights)
        k = data.draw(st.integers(1, 10 ** 6))
        s2, lam2 = Simplex((0, d1)), (Fraction(k, k + 7919), Fraction(7919, k + 7919))
        y1 = _interpolate(f._pairs, s1, lam1, n)
        stars = [(s1, y1)]
        if d1 > 1:
            stars.append((s2, _interpolate({**f._pairs, d1: y1}, s2, lam2, n)))
        f2, new = star_with_values(f, stars)
        assert_canonical(f2)
        expected = evaluate(f, BaryPoint(tuple(zip(s1, lam1))))
        assert f2.value(new[0]) == expected
        if len(new) == 2:
            assert f2.value(new[1]) == tuple(lam2[0] * a + lam2[1] * b
                                             for a, b in zip(ys[0], expected))


@st.composite
def edge_values(draw):
    """(the two vertex values of an edge, n) with n = 1-3.  Half-integer
    coordinates, each vertex value moved by -1/p, 0 or 1/p per coordinate
    for its own large prime p when drawn, so the denominators are large and
    pairwise coprime.  The second value is the first (b - a = 0), the first
    times -2..2 (values on a line through 0), or a draw of its own."""
    n = draw(st.integers(1, 3))
    coord = st.integers(-3, 3).map(lambda k: Fraction(k, 2))
    primes = draw(st.permutations(LARGE_PRIMES + (10 ** 12 + 39,)))

    def value(p):
        y = draw(st.tuples(*[coord] * n))
        if draw(st.booleans()):
            y = tuple(x + Fraction(draw(st.integers(-1, 1)), p) for x in y)
        return y

    a = value(primes[0])
    kind = draw(st.sampled_from(["same", "line", "free", "free"]))
    if kind == "same":
        b = a
    elif kind == "line":
        b = tuple(draw(st.integers(-2, 2)) * x for x in a)
    else:
        b = value(primes[1])
    return (a, b), n


class TestEdgeKernel:
    """`_simplex_min` on an edge is the closed form `_edge_min`; it gives the
    minimum and the minimizer or None that the LP/KKT solve gives.  Every
    check is an explicit raise, so `python -O` runs them too."""

    def test_matches_the_solve(self):
        seen = Counter()

        @settings(derandomize=True, deadline=None, max_examples=1000)
        @given(edge_values(), st.sampled_from(ALL_NORMS), st.booleans())
        @example(vals((1, -2), (1, -2)), Norm.L2, True)          # b - a = 0
        @example(vals((1, -2), (1, -2)), Norm.LINF, True)
        @example(vals((1, 1), (-1, 1)), Norm.LINF, True)         # flat: every t
        @example(vals((2, 1), (-2, 1)), Norm.LINF, False)        # flat on [1/4, 3/4]
        @example(vals((1, 0), (0, 1)), Norm.L1, True)            # flat: every t
        @example(vals((-1, -2), (2, 4)), Norm.L1, False)         # through 0 at t = 1/3
        @example(vals((-1, -2), (2, 4)), Norm.L2, False)
        @example(vals((0, 0), (1, 2)), Norm.LINF, True)          # zero at t = 0
        @example(vals((1, 2), (0, 0)), Norm.L2, True)            # zero at t = 1
        @example(vals((Fraction(1, 10 ** 12 + 39), -1), (Fraction(-1, 15485863), 1)),
                 Norm.LINF, False)                               # huge coprime denominators
        @example(vals((Fraction(1, 10 ** 12 + 39), -1), (Fraction(-1, 15485863), 1)),
                 Norm.L2, False)
        def check(case, norm, refine):
            """Both orders of the edge, with the least vertex norm as the
            bound or (refine) a bound above the minimum."""
            ys, n = case
            below = min(vector_norm(y, norm) for y in ys)
            if refine:
                below = CriticalValue.rat(1 + sum(abs(x) for y in ys for x in y))
            lams = []
            for edge in (ys, ys[::-1]):
                got = _simplex_min(pairs(edge), n, norm, below)
                ref = ref_simplex_min(edge, n, norm, below)
                if got != ref:
                    pytest.fail(f"{edge} {norm}: {got} != {ref}")
                lams.append(got[1])
            fwd, rev = lams
            if fwd is not None and all(fwd):
                seen["interior"] += 1
            if fwd is not None and rev is not None and fwd != rev[::-1]:
                seen["flat"] += 1  # the largest t from each end differ

        check()
        if not (seen["interior"] >= 100 and seen["flat"] >= 20):
            pytest.fail(f"coverage {seen}")

    def test_matches_the_solve_under_optimize(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"{__file__}::TestEdgeKernel", "-k", "not optimize"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "1 passed" in proc.stdout


@st.composite
def lp_face_values(draw):
    """(vertex values of a simplex of 3-5 vertices, n) with n = 1-4, so many
    faces have dimension below n.  Coordinates are k / q with k in -3..3 and
    q in 1, 2 or the prime 10^6 + 3, so zero coordinates and a max attained
    in two coordinates are common.  After the first, a vertex is a fresh
    draw, a repeat of an earlier one, or an earlier one with its coordinates
    negated and permuted at will, which ties the two for the least norm."""
    n = draw(st.integers(1, 4))
    coord = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 10 ** 6 + 3]))
    ys = [draw(st.tuples(*[coord] * n))]
    for _ in range(draw(st.integers(2, 4))):
        kind = draw(st.sampled_from(["fresh", "fresh", "repeat", "tie"]))
        y = draw(st.tuples(*[coord] * n)) if kind == "fresh" else draw(st.sampled_from(ys))
        if kind == "tie":
            signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
            y = tuple(draw(st.permutations([s * x for s, x in zip(signs, y)])))
        ys.append(y)
    return tuple(ys), n


@st.composite
def l2_face_values(draw):
    """(vertex values of a simplex of 2-5 vertices, n) with n = 1-4.
    Coordinates are k / q with k in -3..3 and q in 1, 2 or the prime
    10^6 + 3.  A "free" simplex draws every value.  An "origin" simplex has
    d = n and places the origin at the affine weights w / sum(w) for
    integers w_j in -2..3: the values but one are drawn and the last is
    solved for, so the origin falls inside, on a facet or at a vertex, or
    behind one or more visible facets; when sum(w) = 0 the values are
    affinely dependent instead.  The vertices are then shuffled."""
    n = draw(st.integers(1, 4))
    coord = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 10 ** 6 + 3]))
    if n == 4 or draw(st.booleans()):
        ys = [draw(st.tuples(*[coord] * n)) for _ in range(draw(st.integers(2, 5)))]
    else:
        w = [draw(st.integers(1, 3))] + [draw(st.integers(-2, 3)) for _ in range(n)]
        rest = [draw(st.tuples(*[coord] * n)) for _ in range(n)]
        y0 = tuple(-sum(wj * y[i] for wj, y in zip(w[1:], rest)) / w[0] for i in range(n))
        ys = [y0] + rest
    return tuple(draw(st.permutations(ys))), n


def origin_case(ys, n) -> str:
    """Where the origin lies for a simplex with d = n: its barycentric
    coordinates lam(0) are "dependent" (not unique), all positive
    ("inside"), nonnegative with a zero ("boundary"), or negative at one or
    at two or more vertices ("one visible", "two visible")."""
    rows = [[1] * len(ys)] + [[y[i] for y in ys] for i in range(n)]
    lam, unique = exactlinalg.solve(rows, [1] + [0] * n)
    neg = sum(x < 0 for x in lam) if unique else -1
    if neg:
        return {-1: "dependent", 1: "one visible"}.get(neg, "two visible")
    return "inside" if all(lam) else "boundary"


@st.composite
def face_values(draw):
    """(vertex values, n, norm): `l2_face_values` for l2 (half the draws),
    else `lp_face_values`."""
    norm = draw(st.sampled_from([Norm.L2, Norm.L2, Norm.L1, Norm.LINF]))
    ys, n = draw(l2_face_values() if norm == Norm.L2 else lp_face_values())
    return ys, n, norm


class TestStartedLP:
    """`_simplex_min` skips phase 1 where it can: it starts the l1/linf
    epigraph LP at the feasible basis of the least-norm vertex, and decides
    an l2 simplex with d = n by the origin's barycentric coordinates,
    examining only the faces in its visible facets, then starts the argmin
    LP at the basis of every column.  It gives the minimum and the
    minimizer or None that `ref_simplex_min` (phase 1, and a KKT system on
    every l2 face) gives, with `below` at the least or largest vertex norm
    or above every value.  Every check is an explicit raise, so
    `python -O` runs them too."""

    def test_matches_the_phase_one_solve(self):
        seen = Counter()

        def with_norm(norm, *ys):
            return *vals(*ys), norm

        @settings(derandomize=True, deadline=None, max_examples=3000)
        @given(face_values(), st.sampled_from(["least", "largest", "above"]))
        @example(with_norm(Norm.LINF, (1, 1), (-1, 1), (2, -3)), "least")   # max in two coordinates
        @example(with_norm(Norm.LINF, (1, 1), (-1, 1), (2, -3)), "largest")
        @example(with_norm(Norm.L1, (0, 1), (1, 0), (-1, -1)), "largest")   # zero coordinates
        @example(with_norm(Norm.L1, (1, -1), (-1, 1), (2, 3)), "largest")   # tied least norm
        @example(with_norm(Norm.LINF, (0, 0), (1, 2), (-2, 1)), "largest")  # y_j = 0
        @example(with_norm(Norm.LINF, (1, 2, -1), (-1, 0, 1), (2, -1, 0)), "largest")  # dim < n
        @example(with_norm(Norm.L1, (1, 2, -1, 0), (-1, 0, 1, 1), (2, -1, 0, -2)), "largest")
        @example(with_norm(Norm.LINF, (Fraction(1, 10 ** 6 + 3), 1), (-1, Fraction(2, 10 ** 6 + 3)),
                      (1, -1), (1, 1)), "largest")
        @example(with_norm(Norm.L2, (1, 1), (-2, 1), (1, -2)), "least")     # origin inside
        @example(with_norm(Norm.L2, (0, 1), (1, 0), (-1, 0)), "least")      # on a facet
        @example(with_norm(Norm.L2, (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)), "above")  # at a vertex
        @example(with_norm(Norm.L2, (1, 1), (2, 1), (1, 2)), "above")       # two visible
        @example(with_norm(Norm.L2, (1, -1), (2, 1), (3, 3)), "above")      # collinear
        @example(with_norm(Norm.L2, (1, 2, 1), (2, -1, 1), (-1, 1, 2), (1, 1, -3)), "least")  # n = 3
        @example(with_norm(Norm.L2, (Fraction(1, 10 ** 6 + 3), 1), (-1, Fraction(2, 10 ** 6 + 3)),
                      (1, -1)), "above")
        def check(case, at):
            ys, n, norm = case
            norms = [vector_norm(y, norm) for y in ys]
            below = {"least": min(norms), "largest": max(norms),
                     "above": CriticalValue.rat(1 + sum(abs(x) for y in ys for x in y))}[at]
            got = _simplex_min.__wrapped__(pairs(ys), n, norm, below)
            ref = ref_simplex_min(ys, n, norm, below)
            if got != ref:
                pytest.fail(f"{ys} {norm} below {below}: {got} != {ref}")
            if norm == Norm.L2:
                d = len(ys) - 1
                seen[origin_case(ys, n) if d == n else "d < n" if d < n else "d > n"] += 1
                seen["tetrahedron, n = 3"] += d == n == 3
                return
            seen["dim < n"] += len(ys) - 1 < n
            seen["tie"] += norms.count(min(norms)) > 1
            seen["refined"] += got[1] is not None
            y = ys[norms.index(min(norms))]
            seen["two coordinates"] += (norm == Norm.LINF and any(y)
                                        and sum(abs(x) == max(map(abs, y)) for x in y) > 1)

        check()
        floors = {"dim < n": 100, "tie": 100, "refined": 100, "two coordinates": 100,
                  "inside": 50, "boundary": 30, "one visible": 50, "two visible": 30,
                  "dependent": 30, "d < n": 100, "d > n": 100, "tetrahedron, n = 3": 100}
        if not all(seen[k] >= v for k, v in floors.items()):
            pytest.fail(f"coverage {seen}")

    def test_matches_the_phase_one_solve_under_optimize(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"{__file__}::TestStartedLP", "-k", "not optimize"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "1 passed" in proc.stdout


def affinely_dependent(ys) -> bool:
    """Whether the vertex values are affinely dependent, which is when some
    face of two or more vertices has a singular KKT system."""
    rows = [[1] * len(ys)] + [[y[i] for y in ys] for i in range(len(ys[0]))]
    return not exactlinalg.solve(rows, [1, *ys[0]])[1]


def test_min_l2_matches_the_lp_fallback():
    """`_min_l2` skips every singular KKT or origin face, where the version
    it replaced solved an LP for a feasible point; both give the same
    (min^2, minimizer value), and `_min_l2` calls the weights unique exactly
    when d = n and the values are affinely independent.  Both kinds of
    simplex must occur: with affinely dependent vertex values (some face has
    a singular system) and without."""
    seen = Counter()

    @settings(derandomize=True, deadline=None, max_examples=1500)
    @given(any_simplex_values())
    @example(vals((1, 0), (1, 0)))                            # repeated value
    @example(vals((-1, -1), (1, 1), (2, 2)))                  # collinear through 0
    @example(vals((1, 2), (2, 2), (3, 2), (2, 3)))            # three on a line
    @example(vals((1, 1, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)))
    def check(case):
        """`_min_l2` reads integer vertex values: the rational ones times the
        lcm of their denominators, which scales the minimum's square by the
        lcm squared and its value vector by the lcm."""
        ys, n = case
        seen[affinely_dependent(ys)] += 1
        matrix, scale = integer_matrix(ys)
        m, den, y, unique = _min_l2(matrix, n)
        ref = ref_min_l2(ys, n)
        assert (Fraction(m, den * scale ** 2), [Fraction(v) / scale for v in y]) == ref
        assert unique is (len(ys) == n + 1 and not affinely_dependent(ys))
        if len(ys) >= 3 and any(
                0 < t < 1 and sum((x + t * z) ** 2 for x, z in zip(a, d)) == ref[0]
                for a, d, t in edge_minimizers(ys)):
            seen["inside an edge"] += 1

    check()
    assert seen[True] >= 100 and seen[False] >= 100 and seen["inside an edge"] >= 50, seen


def edge_minimizers(ys):
    """(a, d, t) for each edge a b of the vertex values with d = b - a
    nonzero: t = -a.d / |d|^2 minimizes |a + t d| over the line."""
    for a, b in combinations(ys, 2):
        d = [z - x for x, z in zip(a, b)]
        if any(d):
            yield a, d, -sum(x * z for x, z in zip(a, d)) / sum(z * z for z in d)


class TestCriticalValues:
    def test_path_3_minus1_3(self):
        f = path_map([3, -1, 3])
        assert critical_values(f, Norm.LINF) == [
            CriticalValue.rat(0), CriticalValue.rat(1), CriticalValue.rat(3)]

    def test_constant(self):
        f = path_map([2, 2, 2])
        assert critical_values(f, Norm.LINF) == [CriticalValue.rat(2)]

    def test_zero_map(self):
        f = path_map([0, 0])
        assert critical_values(f, Norm.LINF) == [CriticalValue.rat(0)]

    @pytest.mark.parametrize("norm", ALL_NORMS)
    def test_one_vertex_norm_per_vertex(self, norm, monkeypatch):
        """Every simplex reads its vertex norms from the map's table, which
        computes each once, also across calls."""
        calls = Counter()

        def counted_norm(*args):
            calls["vector_norm"] += 1
            return vector_norm(*args)

        rng = random.Random(23)
        cx = random_complex(rng, max_dim=3, max_vertices=6, n_maximal=3)
        f = random_map(rng, cx, n=2)
        monkeypatch.setattr(pl_map, "vector_norm", counted_norm)
        for _ in range(2):
            critical_values(f, norm)
            assert calls["vector_norm"] == len(cx.vertices)

    def test_global_min_subdivision_invariant(self):
        rng = random.Random(12)
        for norm in ALL_NORMS:
            for _ in range(5):
                cx = random_complex(rng, max_dim=2, max_vertices=5, n_maximal=2)
                f = random_map(rng, cx, n=2)
                edges = cx.k_simplices(1)
                if not edges:
                    continue
                e = rng.choice(edges)
                f2, _ = star_with_values(f, point_stars(
                    f, [(e, BaryPoint.from_dict({e.vertices[0]: Fraction(1, 2),
                                                 e.vertices[1]: Fraction(1, 2)}))]))
                assert global_min(f, norm) == global_min(f2, norm)
                # the refined critical set still contains the global minimum
                assert global_min(f, norm) in critical_values(f2, norm)


class TestRootsAndDistance:
    def test_has_root_examples(self):
        assert has_root(path_map([3, -1, 3]), Norm.LINF)
        assert not has_root(path_map([2, 2, 2]), Norm.LINF)
        single = PLMap(closure([[9]]), 1, {9: (0,)})
        assert has_root(single, Norm.L1)

    def test_map_distance_is_vertexwise_max(self):
        f = path_map([0, 0, 0])
        g = path_map([1, -2, 1])
        assert map_distance(f, g, Norm.LINF) == CriticalValue.rat(2)


class TestRestrictInterpolate:
    def test_star_edge_zero(self):
        f = path_map([-1, 1])
        stars = [(Simplex.of([0, 1]), BaryPoint.from_dict({0: Fraction(1, 2), 1: Fraction(1, 2)}))]
        f2, new = star_with_values(f, point_stars(f, stars))
        (vid,) = new
        assert f2.value(vid) == (0,)
        # the interpolated value is f at the new vertex's location
        assert evaluate(f, extend_lineage(None, stars, new)[vid]) == f2.value(vid)
        assert all(f2.value(v) == f.value(v) for v in f.complex.vertices)

    def test_identity_subdivision(self):
        # an empty batch returns f itself, whose lineage is the identity
        f = path_map([-1, 1])
        f2, new = star_with_values(f, [])
        assert f2 is f and new == []
        for v in f.complex.vertices:
            assert evaluate(f, vertex(v)) == f.value(v)

    def test_agrees_pointwise(self):
        rng = random.Random(21)
        t = closure([[1, 2, 3]])
        f = PLMap(t, 2, {1: (3, 0), 2: (0, 3), 3: (0, 0)})
        stars = [(Simplex.of([1, 2, 3]), barycenter(Simplex.of([1, 2, 3])))]
        f2, new = star_with_values(f, point_stars(f, stars))
        lineage = extend_lineage(None, stars, new)
        for _ in range(50):
            p = random_point_in(rng, Simplex.of([1, 2, 3]))  # t is not subdivided
            assert evaluate(f, p) == evaluate(f2, p, lineage)
