import random
from fractions import Fraction

import pytest

from robsat import robustness as robustness_module
from robsat.complex_core import closure
from robsat.pl_map import CriticalValue, Norm, PLMap, critical_values, global_min, map_distance
from robsat.oracles import WitnessSearchConfig, perturbation_witness
from robsat.reduction import LevelPair
from robsat.robustness import (
    RobTag,
    RobustnessTag,
    _validate_witness,
    decide_robsat,
    decide_with_inequalities,
    locate_components,
    robustness,
)

from helpers import path_map, random_complex, random_map, scale_map, scaled

ALL_NORMS = [Norm.L1, Norm.L2, Norm.LINF]


class TestDecideRobsat:
    def test_identity_path(self):
        f = path_map([-1, 0, 1])
        assert decide_robsat(f, Fraction(1, 2), Norm.LINF).tag == RobTag.ROBUST_YES

    def test_worked_trace_yes_then_no(self):
        f = path_map([3, -1, 3])
        assert decide_robsat(f, 1, Norm.LINF).tag == RobTag.ROBUST_YES
        assert decide_robsat(f, 3, Norm.LINF).tag == RobTag.ROBUST_NO

    def test_empty_x_is_a_pair(self, monkeypatch):
        """|f| > alpha at every vertex: the pipeline returns a validated pair
        with an empty X, and the decision reads f as its own rootless
        perturbation off that pair."""
        pairs = []
        reduce = robustness_module.reduce_to_extension

        def captured(f, alpha, norm):
            pairs.append(reduce(f, alpha, norm))
            return pairs[-1]

        monkeypatch.setattr(robustness_module, "reduce_to_extension", captured)
        f = path_map([5, 3, 5])
        verdict = decide_robsat(f, 1, Norm.LINF)
        assert verdict.tag is RobTag.ROBUST_NO and verdict.witness is f
        assert verdict.extend is None
        (pair,) = pairs
        assert isinstance(pair, LevelPair) and pair.x.is_empty() and pair.a.is_empty()
        assert locate_components(f, 1, Norm.LINF) == []

    def test_rejects_nonpositive_alpha(self):
        f = path_map([1, 2])
        with pytest.raises(ValueError):
            decide_robsat(f, 0, Norm.LINF)
        with pytest.raises(ValueError):
            decide_robsat(f, Fraction(-1), Norm.LINF)

    def test_rootless_map_never_robust(self):
        f = path_map([Fraction(1, 2), 2])
        for alpha in (Fraction(1, 4), Fraction(1, 2), 1, 5):
            assert decide_robsat(f, alpha, Norm.LINF).tag == RobTag.ROBUST_NO

    def test_x_empty_witness_is_f(self):
        f = path_map([5, 5, 5])
        v = decide_robsat(f, 1, Norm.LINF)
        assert v.tag == RobTag.ROBUST_NO
        assert v.witness == f

    def test_witness_search_attached(self):
        f = path_map([3, -1, 3])
        cfg = WitnessSearchConfig(trials=50, seed=1, step=Fraction(1, 2))
        assert decide_robsat(f, 4, Norm.LINF).tag == RobTag.ROBUST_NO
        alpha = CriticalValue.rat(4)
        witness = perturbation_witness(f, alpha, cfg, Norm.LINF)
        assert witness is not None
        assert not global_min(witness, Norm.LINF).is_zero()
        _validate_witness(f, witness, alpha, Norm.LINF)


class TestRobustness:
    def test_identity_path_all_norms(self):
        f = path_map([-1, 0, 1])
        for norm in ALL_NORMS:
            r = robustness(f, norm)
            assert r.tag == RobustnessTag.VALUE
            assert r.value == CriticalValue.rat(1)

    def test_worked_path(self):
        r = robustness(path_map([3, -1, 3]), Norm.LINF)
        assert r.tag == RobustnessTag.VALUE and r.value == CriticalValue.rat(1)

    def test_unsatisfiable(self):
        assert robustness(path_map([2, 2, 2]), Norm.LINF).tag == RobustnessTag.UNSATISFIABLE

    def test_empty_complex_is_a_value_error(self):
        with pytest.raises(ValueError, match="empty complex"):
            robustness(PLMap(closure([]), 1, {}), Norm.LINF)

    def test_touching_zero_has_rob_zero(self):
        r = robustness(path_map([1, 0, 1]), Norm.LINF)
        assert r.tag == RobustnessTag.VALUE and r.value == CriticalValue.rat(0)

    def test_value_is_critical_and_bracketed(self):
        rng = random.Random(13)
        for _ in range(8):
            cx = random_complex(rng, max_dim=2, max_vertices=5, n_maximal=2)
            f = random_map(rng, cx, n=1)
            r = robustness(f, Norm.LINF)
            if r.tag != RobustnessTag.VALUE:
                continue
            cvs = critical_values(f, Norm.LINF)
            assert r.value in cvs
            if not r.value.is_zero():
                assert decide_robsat(f, r.value, Norm.LINF).tag == RobTag.ROBUST_YES
            larger = [cv for cv in cvs if r.value < cv]
            if larger:
                assert decide_robsat(f, larger[0], Norm.LINF).tag == RobTag.ROBUST_NO

    def test_scaling_equivariance(self):
        rng = random.Random(29)
        for _ in range(5):
            cx = random_complex(rng, max_dim=2, max_vertices=5, n_maximal=2)
            f = random_map(rng, cx, n=2)
            c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            for norm in ALL_NORMS:
                r1 = robustness(f, norm)
                r2 = robustness(scale_map(f, c), norm)
                assert r1.tag == r2.tag
                if r1.tag == RobustnessTag.VALUE:
                    assert r2.value == scaled(r1.value, c)


class TestMonotonicity:
    def test_small_instances(self):
        rng = random.Random(6)
        for _ in range(10):
            cx = random_complex(rng, max_dim=2, max_vertices=5, n_maximal=2)
            n = rng.randint(1, 2)
            f = random_map(rng, cx, n=n)
            positive = [cv for cv in critical_values(f, Norm.LINF) if not cv.is_zero()]
            tags = [decide_robsat(f, cv, Norm.LINF).tag for cv in positive]
            seen_no = False
            for tag in tags:
                if tag == RobTag.ROBUST_NO:
                    seen_no = True
                elif tag == RobTag.ROBUST_YES:
                    assert not seen_no, (positive, tags)


class TestOverdetermined:
    def test_dim_less_than_n_is_never_robust(self):
        rng = random.Random(31)
        for _ in range(20):
            cx = random_complex(rng, max_dim=1, max_vertices=5, n_maximal=3)
            n = rng.randint(cx.dim + 1, 3)
            f = random_map(rng, cx, n=n)
            for alpha in (Fraction(1, 2), 1):
                assert decide_robsat(f, alpha, Norm.LINF).tag == RobTag.ROBUST_NO


class TestLocateComponents:
    def test_two_disjoint_paths(self):
        two = closure([[0, 1], [1, 2], [10, 11], [11, 12]])
        f = PLMap(two, 1, {0: (3,), 1: (-1,), 2: (3,),
                           10: (3,), 11: (-1,), 12: (3,)})
        comps = locate_components(f, 1, Norm.LINF)
        assert len(comps) == 2
        assert all(v.tag == RobTag.ROBUST_YES for _, v in comps)
        assert comps[0][0] != comps[1][0]

    def test_only_robust_component_reported(self):
        two = closure([[0, 1], [1, 2], [10, 11], [11, 12]])
        f = PLMap(two, 1, {0: (3,), 1: (-1,), 2: (3,),
                           10: (Fraction(1, 2),), 11: (Fraction(1, 4),), 12: (Fraction(1, 2),)})
        comps = locate_components(f, 1, Norm.LINF)
        assert len(comps) == 1
        assert 1 in comps[0][0]
        assert not set(comps[0][0]) & {10, 11, 12}

    def test_x_empty(self):
        f = path_map([5, 5, 5])
        assert locate_components(f, 1, Norm.LINF) == []


class TestInequalities:
    def test_no_constraints_matches_plain(self):
        f = path_map([-1, 0, 1])
        g = PLMap(f.complex, 0, {v: () for v in f.complex.vertices})
        assert decide_with_inequalities(f, g, Fraction(1, 2)).tag == RobTag.ROBUST_YES

    def test_slack_constraint_keeps_domain(self):
        f = path_map([-1, 0, 1])
        g = PLMap(f.complex, 1, {v: (-1,) for v in f.complex.vertices})
        assert decide_with_inequalities(f, g, Fraction(1, 2)).tag == RobTag.ROBUST_YES

    def test_constraint_cuts_away_the_root(self):
        f = path_map([-1, 0, 1])
        g = PLMap(f.complex, 1, {0: (-1,), 1: (0,), 2: (1,)})
        # U = {x <= -1/8}: f has constant sign there
        assert decide_with_inequalities(f, g, Fraction(1, 8)).tag == RobTag.ROBUST_NO

    def test_empty_region(self):
        f = path_map([-1, 0, 1])
        g = PLMap(f.complex, 1, {v: (1,) for v in f.complex.vertices})
        assert decide_with_inequalities(f, g, Fraction(1, 2)).tag == RobTag.ROBUST_NO

    def test_rejects_other_norms(self):
        f = path_map([-1, 0, 1])
        g = PLMap(f.complex, 1, {v: (-1,) for v in f.complex.vertices})
        with pytest.raises(ValueError):
            decide_with_inequalities(f, g, Fraction(1, 2), Norm.L2)

    def test_empty_x_gives_no_witness_on_the_region(self):
        # |f| > alpha on U = {g <= -alpha}; the X-empty witness there would
        # be f on U's subdivided vertices, not a map on the instance.
        f = path_map([5, 5, 5])
        g = PLMap(f.complex, 1, {0: (-2,), 1: (0,), 2: (-2,)})
        v = decide_with_inequalities(f, g, 1)
        assert v.tag == RobTag.ROBUST_NO and v.witness is None

    def test_two_constraints(self):
        f = path_map([-2, 0, 2])
        g = PLMap(f.complex, 2, {0: (-2, -1), 1: (-2, -1), 2: (-2, -1)})
        assert decide_with_inequalities(f, g, Fraction(1, 2)).tag == RobTag.ROBUST_YES


class TestWitnessValidity:
    def test_emitted_witnesses_are_sound(self):
        rng = random.Random(91)
        cfg = WitnessSearchConfig(trials=30, seed=5, step=Fraction(1, 2))
        for _ in range(10):
            cx = random_complex(rng, max_dim=2, max_vertices=5, n_maximal=2)
            f = random_map(rng, cx, n=1)
            alpha = Fraction(rng.randint(1, 4), 2)
            if decide_robsat(f, alpha, Norm.LINF).tag is not RobTag.ROBUST_NO:
                continue
            witness = perturbation_witness(f, CriticalValue.rat(alpha), cfg, Norm.LINF)
            if witness is not None:
                # the exact re-check, and an independent check of the same two facts
                _validate_witness(f, witness, CriticalValue.rat(alpha), Norm.LINF)
                assert not global_min(witness, Norm.LINF).is_zero()
                assert not CriticalValue.rat(alpha) < map_distance(f, witness, Norm.LINF)
