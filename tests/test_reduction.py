import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robsat.complex_core import closure, connected_components
from robsat.pl_map import CriticalValue, Norm, PLMap, evaluate, simplex_min, vector_norm
from robsat.reduction import (
    LevelPair,
    ReductionError,
    SphereModel,
    build_chi,
    sign_refinement,
    simplicial_approximation,
    split_level,
    star_crossings,
    vertexwise_extremal_subdivision,
)
from robsat.robustness import _split_inequality_levels

from helpers import (
    compose_automorphism,
    contains_point,
    expand,
    path_map,
    random_complex,
    random_map,
    random_point_in,
    ref_sign_refinement,
    ref_split_inequality_levels,
    ref_split_level,
)

HALF = Fraction(1, 2)


class TestSphereModel:
    def test_antipodal_free(self):
        m = SphereModel(2)
        assert m.is_simplex([1])
        assert m.is_simplex([1, 2])
        assert not m.is_simplex([1, -1])
        assert not m.is_simplex([1, 2, -1])
        assert m.top_simplex() == (1, 2)
        assert len(m.vertices()) == 4

    def test_no_n_simplices(self):
        m = SphereModel(3)
        assert not m.is_simplex([1, 2, 3, -1])
        assert m.is_simplex([1, 2, 3])  # dimension n-1 = 2

    def test_coordinates(self):
        m = SphereModel(3)
        assert m.coordinates(2) == (0, 1, 0)
        assert m.coordinates(-3) == (0, 0, -1)


class TestExtremalSubdivision:
    def test_worked_path(self):
        f = vertexwise_extremal_subdivision(path_map([3, -1, 3]), Norm.LINF)
        assert sorted(v[0] for v in f.values.values()) == [-1, 0, 0, 3, 3]

    def test_identity_when_monotone(self):
        f0 = path_map([1, 2, 3])
        assert vertexwise_extremal_subdivision(f0, Norm.LINF).complex == f0.complex

    def test_no_starring_when_zero_is_vertex(self):
        cx = closure([[0, 1], [1, 2]])
        f0 = PLMap(cx, 1, {0: (-1,), 1: (0,), 2: (1,)})
        assert vertexwise_extremal_subdivision(f0, Norm.LINF).complex == cx

    @pytest.mark.parametrize("norm", [Norm.L1, Norm.L2, Norm.LINF])
    def test_postcondition_random(self, norm):
        rng = random.Random(77)
        for _ in range(8):
            cx = random_complex(rng, max_dim=2, max_vertices=5, n_maximal=2)
            f = vertexwise_extremal_subdivision(random_map(rng, cx, n=2), norm)
            for s in f.complex.simplices:
                _, cv = simplex_min(f, s, norm)
                assert cv == min(vector_norm(f.value(v), norm) for v in s.vertices)

    @pytest.mark.parametrize("norm", [Norm.L1, Norm.L2, Norm.LINF])
    def test_postcondition_random_dim3(self, norm):
        # On tetrahedra one derived pass often leaves violations, and a few
        # of these need three or more passes.
        rng = random.Random(1)
        for _ in range(8):
            cx = closure([rng.sample(range(5), 4) for _ in range(rng.randint(1, 2))])
            f = vertexwise_extremal_subdivision(random_map(rng, cx, n=2, denom=1, lo=-5, hi=5),
                                                norm)
            for s in f.complex.simplices:
                _, cv = simplex_min(f, s, norm)
                assert cv == min(vector_norm(f.value(v), norm) for v in s.vertices)


class TestBuildChi:
    def test_worked_values(self):
        f = vertexwise_extremal_subdivision(path_map([3, -1, 3]), Norm.LINF)
        chi, eqs = build_chi(f, CriticalValue.rat(1), Norm.LINF)
        by_value = {}
        for v in f.complex.vertices:
            by_value.setdefault(f.value(v)[0], set()).add(chi[v])
        assert by_value[Fraction(3)] == {Fraction(1)}
        assert by_value[Fraction(0)] == {Fraction(0)}
        assert by_value[Fraction(-1)] == {HALF}
        assert len(eqs) == 1

    def test_alpha_above_everything(self):
        f = path_map([1, 2, 1])
        chi, _ = build_chi(f, CriticalValue.rat(10), Norm.LINF)
        assert set(chi.values()) == {Fraction(0)}

    def test_exact_hit(self):
        f = path_map([1, 2])
        chi, eqs = build_chi(f, CriticalValue.rat(2), Norm.LINF)
        assert chi[1] == HALF and 1 in eqs


class TestSplitLevel:
    def trace_pair(self):
        f = vertexwise_extremal_subdivision(path_map([3, -1, 3]), Norm.LINF)
        chi, _ = build_chi(f, CriticalValue.rat(1), Norm.LINF)
        return split_level(f, chi, CriticalValue.rat(1), Norm.LINF)

    def test_worked_trace(self):
        pair = self.trace_pair()
        assert sorted(pair.f.value(v)[0] for v in pair.a.vertices) == [
            -1, Fraction(3, 2), Fraction(3, 2)]
        assert len(pair.a.k_simplices(0)) == 3 and not pair.a.k_simplices(1)
        assert sorted(pair.f.value(v)[0] for v in pair.x.vertices) == [
            -1, 0, 0, Fraction(3, 2), Fraction(3, 2)]
        assert len(connected_components(pair.x)) == 1

    def test_all_zero_chi(self):
        f = path_map([0, 0, 0])
        pair = split_level(f, {v: Fraction(0) for v in f.complex.vertices},
                           CriticalValue.rat(1), Norm.LINF)
        assert pair.x == f.complex and pair.a.is_empty()

    def test_all_one_chi(self):
        f = path_map([5, 5])
        pair = split_level(f, {v: Fraction(1) for v in f.complex.vertices},
                           CriticalValue.rat(1), Norm.LINF)
        assert pair.x.is_empty() and pair.a.is_empty()

    def test_no_01_edges_after(self):
        pair = self.trace_pair()
        for e in pair.f.complex.k_simplices(1):
            u, w = e.vertices
            assert {pair.chi[u], pair.chi[w]} != {Fraction(0), Fraction(1)}

    def test_pointwise_proxy(self):
        # p in |X| implies chi(p) <= 1/2, and p in |A| iff chi(p) = 1/2.
        rng = random.Random(3)
        pair = self.trace_pair()
        ambient = pair.f.complex
        chi_map = PLMap(ambient, 1, {v: (pair.chi[v],) for v in ambient.vertices})
        for _ in range(1000):
            carrier = rng.choice(sorted(ambient.simplices))
            local = random_point_in(rng, carrier)
            p = expand(ambient, local)
            chi_val = evaluate(chi_map, p)[0]
            if contains_point(pair.x, p):
                assert chi_val <= HALF
            in_a = contains_point(pair.a, p)
            assert in_a == (chi_val == HALF)


class TestSignRefinement:
    def make_pair(self, f, chi=None):
        cx = f.complex
        chi = chi or {v: HALF for v in cx.vertices}
        return LevelPair(f, cx, cx, CriticalValue.rat(100), chi, Norm.LINF)

    def test_splits_sign_change(self):
        cx = closure([[1, 2]])
        f = PLMap(cx, 2, {1: (2, 1), 2: (-2, 1)})
        out = sign_refinement(self.make_pair(f))
        assert (Fraction(0), Fraction(1)) in out.f.values.values()
        for s in out.a.simplices:
            for i in range(2):
                vals = [out.f.value(v)[i] for v in s.vertices]
                assert not (any(x > 0 for x in vals) and any(x < 0 for x in vals))

    def test_identity_when_signed(self):
        cx = closure([[1, 2]])
        f = PLMap(cx, 2, {1: (2, 1), 2: (1, 2)})
        out = sign_refinement(self.make_pair(f))
        assert out.f.complex == cx

    def test_rejects_root_on_a(self):
        cx = closure([[1, 2]])
        f = PLMap(cx, 2, {1: (1, -1), 2: (-1, 1)})
        with pytest.raises(ReductionError):
            sign_refinement(self.make_pair(f))


class TestSimplicialApproximation:
    def run_pipeline(self, values, alpha):
        f = vertexwise_extremal_subdivision(path_map(values), Norm.LINF)
        chi, _ = build_chi(f, CriticalValue.rat(alpha), Norm.LINF)
        pair = split_level(f, chi, CriticalValue.rat(alpha), Norm.LINF)
        return simplicial_approximation(sign_refinement(pair))

    def test_worked_labels(self):
        fmap = self.run_pipeline([3, -1, 3], 1)
        assert sorted(fmap.assignment.values()) == [-1, 1, 1]

    def test_single_vertex_rules(self):
        cx = closure([[5]])
        for value, label in [((0, 5), 2), ((2, -2), 1), ((-3, 1), -1)]:
            f = PLMap(cx, 2, {5: value})
            pair = LevelPair(f, cx, cx, CriticalValue.rat(1),
                             {5: HALF}, Norm.LINF)
            fmap = simplicial_approximation(pair)
            assert fmap.assignment[5] == label

    def test_star_condition_random(self):
        rng = random.Random(42)
        checked = 0
        for _ in range(20):
            cx = random_complex(rng, max_dim=2, max_vertices=5, n_maximal=2)
            f = random_map(rng, cx, n=2)
            alpha = CriticalValue.rat(Fraction(rng.randint(1, 3), 2))
            f1 = vertexwise_extremal_subdivision(f, Norm.LINF)
            chi, _ = build_chi(f1, alpha, Norm.LINF)
            pair = split_level(f1, chi, alpha, Norm.LINF)
            if pair.a.is_empty():
                continue
            pair = sign_refinement(pair)
            fmap = simplicial_approximation(pair)  # validates internally
            assert fmap.is_simplicial()
            checked += 1
        assert checked >= 5

    def test_automorphism_composition(self):
        fmap = self.run_pipeline([3, -1, 3], 1)
        swapped = compose_automorphism(fmap, {1: -1})
        assert sorted(swapped.assignment.values()) == [-1, -1, 1]


def assert_same_pair(pair, ref):
    assert pair.f.complex.simplices == ref.f.complex.simplices
    assert pair.f.complex.coords == ref.f.complex.coords
    assert pair.f.values == ref.f.values
    assert pair.chi == ref.chi
    assert pair.x.simplices == ref.x.simplices
    assert pair.a.simplices == ref.a.simplices


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("norm", list(Norm))
def test_star_crossings_matches_rescan_loops(norm, n):
    """The one-scan crossing routine gives exactly what the rescan-after-
    each-star loops it replaced gave: the same simplices, coordinates,
    values, chi and new vertex ids, for the level split, the sign refinement
    and the inequality levels (k = 0, 1, 2 constraints)."""
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.integers(0, 2 ** 32), st.integers(0, 2))
    def check(seed, k):
        rng = random.Random(seed)
        cx = random_complex(rng, max_dim=2, max_vertices=6, n_maximal=3)
        f = random_map(rng, cx, n)
        f1 = vertexwise_extremal_subdivision(f, norm)
        # alpha at some vertex's norm puts chi = 1/2 labels on the input
        alpha = rng.choice([vector_norm(f1.value(v), norm) for v in f1.complex.vertices]
                           + [CriticalValue.rat(Fraction(rng.randint(1, 8), 2))])
        if alpha.is_zero():
            alpha = CriticalValue.rat(1)
        chi, _ = build_chi(f1, alpha, norm)

        ref = ref_split_level(f1, chi, alpha, norm)
        f2, new = star_crossings(f1, {v: chi[v] - HALF for v in f1.complex.vertices})
        assert f2 == ref.f
        assert new == sorted(set(ref.f.complex.vertices) - set(f1.complex.vertices))
        pair = split_level(f1, chi, alpha, norm)
        assert_same_pair(pair, ref)
        assert_same_pair(sign_refinement(pair), ref_sign_refinement(ref))

        g = random_map(rng, cx, k)
        h = PLMap(cx, n + k, {v: f.value(v) + g.value(v) for v in cx.vertices})
        level = Fraction(rng.randint(0, 8), 2)
        assert _split_inequality_levels(h, n, level) == ref_split_inequality_levels(h, n, level)

    check()
