import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robsat.grid import freudenthal_grid
from robsat.pl_map import Norm
from robsat.polynomials import Polynomial, PolynomialError, parse_polynomial
from robsat.sampling import SampledTag, decide_sampled, sample_polynomial

from helpers import BaryPoint, contains, interval_of
from reference_oracles import (
    diff,
    eval_at,
    evaluate,
    grid_locate,
    grid_points,
    interval_eval,
    ref_sample_polynomial,
)


class TestGrid:
    def test_1d_two_cells_is_a_path(self):
        g = freudenthal_grid([(-1, 1)], 2)
        assert len(g.complex.k_simplices(0)) == 3
        assert len(g.complex.k_simplices(1)) == 2

    def test_2d_single_cell_two_triangles(self):
        g = freudenthal_grid([(0, 1), (0, 1)], 1)
        assert len(g.complex.k_simplices(2)) == 2

    def test_3d_single_cell_six_tetrahedra(self):
        g = freudenthal_grid([(0, 1)] * 3, 1)
        assert len(g.complex.k_simplices(3)) == 6

    def test_shared_faces_consistent(self):
        g = freudenthal_grid([(0, 2), (0, 2)], 2)
        # interior vertex (1,1) belongs to all four cells
        center = g.vertex_at((1, 1))
        assert center in g.complex.vertices
        assert len(g.complex.k_simplices(2)) == 8

    def test_locate_weights_reproduce_point(self):
        rng = random.Random(9)
        g = freudenthal_grid([(-1, 1), (0, 3)], 2)
        points = grid_points(g)
        for _ in range(100):
            pt = (Fraction(rng.randint(-8, 8), 8), Fraction(rng.randint(0, 24), 8))
            s, weights = grid_locate(g, pt)
            assert sum(weights.values()) == 1
            for i in range(2):
                got = sum(w * points[v][i] for v, w in weights.items())
                assert got == pt[i]

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            freudenthal_grid([], 2)
        with pytest.raises(ValueError):
            freudenthal_grid([(0, 0)], 1)
        with pytest.raises(ValueError):
            freudenthal_grid([(0, 1)], 0)


class TestIntervals:
    def test_arithmetic(self):
        a = interval_of(-1, 2)
        b = interval_of(3, 4)
        assert (a + b) == interval_of(2, 6)
        assert (a * b) == interval_of(-4, 8)
        assert a.power(2) == interval_of(0, 4)
        assert interval_of(-3, -2).power(2) == interval_of(4, 9)
        assert a.power(3) == interval_of(-1, 8)


class TestPolynomials:
    def test_parse_and_eval(self):
        p = parse_polynomial("3*x**2/4 - y/2 + 1", ["x", "y"])
        assert eval_at(p, [2, 4]) == 3 - 2 + 1

    def test_diff(self):
        p = parse_polynomial("x**3 - 2*x*y", ["x", "y"])
        assert eval_at(diff(p, 0), [2, 1]) == 12 - 2
        assert eval_at(diff(p, 1), [2, 1]) == -4

    @pytest.mark.parametrize("bad", ["1.5", "sin(x)", "x/y", "x**-1", "x**(1/2)", "z", "x % 2"])
    def test_rejects_non_polynomials(self, bad):
        with pytest.raises(PolynomialError):
            parse_polynomial(bad, ["x", "y"])

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.integers(1, 3), st.data())
    def test_eval_at_matches_term_by_term(self, nvars, data):
        """`eval_at`, which skips zero exponents, equals the sum over the
        terms of c * prod x_i ** k_i, zero exponents and zero coordinates
        included."""
        rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)
        exponents = st.tuples(*[st.integers(0, 3)] * nvars)
        terms = data.draw(st.dictionaries(exponents, rationals, max_size=6))
        point = data.draw(st.lists(rationals, min_size=nvars, max_size=nvars))
        p = Polynomial.from_dict(nvars, terms)
        naive = Fraction(0)
        for e, c in p.terms:
            term = c
            for x, k in zip(point, e):
                term *= x ** k
            naive += term
        assert eval_at(p, point) == naive

    def test_interval_eval_contains_samples(self):
        rng = random.Random(14)
        p = parse_polynomial("x**2*y - 3*x + y**3/2", ["x", "y"])
        box = [interval_of(-1, 1), interval_of(0, 2)]
        rng_box = interval_eval(p, box)
        for _ in range(200):
            x = Fraction(rng.randint(-4, 4), 4)
            y = Fraction(rng.randint(0, 8), 4)
            assert contains(rng_box, eval_at(p, [x, y]))


class TestSampling:
    def test_affine_has_zero_gap(self):
        g = freudenthal_grid([(-1, 1), (-1, 1)], 2)
        polys = [parse_polynomial(e, ["x", "y"]) for e in ("x", "2*y - 1")]
        _, gap = sample_polynomial(polys, g)
        assert gap == 0

    def test_constant_zero_gap(self):
        g = freudenthal_grid([(0, 1)], 1)
        _, gap = sample_polynomial([parse_polynomial("7", ["x"])], g)
        assert gap == 0

    def test_square_bound_dominates_true_gap(self):
        g = freudenthal_grid([(0, 1)], 1)
        f, gap = sample_polynomial([parse_polynomial("x**2", ["x"])], g)
        assert gap >= Fraction(1, 4)

    def test_bound_dominates_random_points(self):
        rng = random.Random(33)
        for trial in range(6):
            m = rng.randint(1, 2)
            names = ["x", "y"][:m]
            terms = {}
            for _ in range(rng.randint(1, 4)):
                e = tuple(rng.randint(0, 3) for _ in range(m))
                terms[e] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            p = Polynomial.from_dict(m, terms)
            bounds = [(Fraction(-1), Fraction(1))] * m
            g = freudenthal_grid(bounds, 2)
            f, gap = sample_polynomial([p], g, Norm.LINF)
            for _ in range(150):
                pt = tuple(Fraction(rng.randint(-8, 8), 8) for _ in range(m))
                _, weights = grid_locate(g, pt)
                pl_val = evaluate(f, BaryPoint.from_dict(weights))[0]
                assert abs(eval_at(p, pt) - pl_val) <= gap


    @settings(derandomize=True, deadline=None, max_examples=250)
    @given(st.integers(1, 3), st.data())
    def test_matches_fraction_reference(self, m, data):
        """The integer lattice sampler returns exactly the Fraction
        sampler's reduced vertex pairs and gap, on non-dyadic boxes with
        per-axis resolutions, for zero, constant and degree <= 4 polynomials
        under every norm, and raises the same PolynomialError on a
        polynomial over the wrong number of variables."""
        rationals = st.fractions(min_value=-3, max_value=3, max_denominator=9)
        widths = st.fractions(min_value=Fraction(1, 9), max_value=4, max_denominator=9)
        bounds = [(lo, lo + w) for lo, w in data.draw(st.lists(
            st.tuples(rationals, widths), min_size=m, max_size=m))]
        resolution = data.draw(st.lists(st.integers(1, 3 if m < 3 else 2), min_size=m, max_size=m))
        exponents = st.tuples(*[st.integers(0, 4)] * m).filter(lambda e: sum(e) <= 4)
        general = st.dictionaries(exponents, rationals, min_size=1, max_size=5)
        polynomial = st.one_of(general, st.just({}), rationals.map(lambda c: {(0,) * m: c}))
        polys = [Polynomial.from_dict(m, d)
                 for d in [data.draw(general)] + data.draw(st.lists(polynomial, max_size=2))]
        if polys and data.draw(st.integers(0, 7)) == 0:
            polys[-1] = Polynomial.constant(m + 1, 1)
        grid = freudenthal_grid(bounds, resolution)
        norm = data.draw(st.sampled_from(list(Norm)))
        try:
            want, want_gap = ref_sample_polynomial(polys, grid, norm)
        except PolynomialError:
            with pytest.raises(PolynomialError):
                sample_polynomial(polys, grid, norm)
            return
        got, gap = sample_polynomial(polys, grid, norm)
        assert got.complex is grid.complex and got.n == want.n == len(polys)
        assert list(got._pairs.items()) == list(want._pairs.items())
        assert type(gap) is Fraction and gap == want_gap


class TestDecideSampled:
    def test_linear_robust(self):
        d = decide_sampled(["x"], [(-1, 1)], 2, Fraction(1, 2), Fraction(1, 10),
                           var_names=["x"])
        assert d.tag == SampledTag.EVERY_ALPHA_HAS_ROOT
        assert d.gap <= Fraction(1, 20)

    def test_no_root_parabola(self):
        d = decide_sampled(["x**2+1"], [(-2, 2)], 4, Fraction(1, 2), Fraction(1, 10),
                           var_names=["x"])
        assert d.tag == SampledTag.EXISTS_ALPHA_PLUS_EPS_NO_ROOT

    def test_overdetermined(self):
        d = decide_sampled(["x", "x-1"], [(-1, 1)], 2, Fraction(1, 4), Fraction(1, 10),
                           var_names=["x"])
        assert d.tag == SampledTag.EXISTS_ALPHA_PLUS_EPS_NO_ROOT

    def test_refines_until_gap_small(self):
        d = decide_sampled(["x**2 - y"], [(-1, 1), (-1, 1)], 1, Fraction(1, 2),
                           Fraction(1, 4), var_names=["x", "y"])
        assert d.gap <= Fraction(1, 8)
        assert all(r >= 2 for r in d.resolution)

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            decide_sampled(["x"], [(-1, 1)], 2, 0, Fraction(1, 10), var_names=["x"])
