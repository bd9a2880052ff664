import random
from fractions import Fraction

import pytest

from robsat.complex_core import Simplex, closure
from robsat.homotopy import smith_solve
from robsat.oracles import WitnessSearchConfig, perturbation_witness
from robsat.pl_map import CriticalValue, Norm, global_min, map_distance, simplex_min
from robsat.reduction import SphereMap
from robsat.robustness import RobTag, decide_robsat

from helpers import disk_square, path_map, random_complex, random_map, sparse_system
from reference_oracles import brute_diophantine, grid_min_check, winding_oracle

CFG = WitnessSearchConfig(trials=100, seed=7, step=Fraction(1, 4))


class TestPerturbationWitness:
    @pytest.mark.parametrize("step", [Fraction(0), Fraction(-1, 4)])
    def test_nonpositive_step_rejected(self, step):
        with pytest.raises(ValueError, match="step"):
            WitnessSearchConfig(step=step)

    def test_shift_beyond_endpoint(self):
        f = path_map([-1, 0, 1])
        g = perturbation_witness(f, 2, CFG)
        assert g is not None
        assert not global_min(g, Norm.LINF).is_zero()
        assert not CriticalValue.rat(2) < map_distance(f, g, Norm.LINF)

    def test_none_when_robust(self):
        f = path_map([-1, 0, 1])
        assert perturbation_witness(f, Fraction(1, 2), CFG) is None

    def test_rootless_f_is_its_own_witness(self):
        f = path_map([2, 2, 2])
        assert perturbation_witness(f, 1, CFG) == f

    def test_determinism(self):
        rng = random.Random(55)
        cx = random_complex(rng, max_dim=2, max_vertices=5, n_maximal=2)
        f = random_map(rng, cx, n=2)
        a = perturbation_witness(f, 2, CFG)
        b = perturbation_witness(f, 2, CFG)
        assert (a is None) == (b is None)
        if a is not None:
            assert a == b

    def test_never_contradicts_robust_yes(self):
        rng = random.Random(77)
        for _ in range(10):
            cx = random_complex(rng, max_dim=2, max_vertices=5, n_maximal=2)
            f = random_map(rng, cx, n=1)
            alpha = Fraction(rng.randint(1, 3), 2)
            verdict = decide_robsat(f, alpha, Norm.LINF)
            witness = perturbation_witness(f, alpha, CFG)
            if verdict.tag == RobTag.ROBUST_YES:
                assert witness is None

    def test_never_contradicts_robust_yes_on_shipped_corpus(self):
        import glob
        import os

        from robsat.instance_io import load_file

        base = os.path.join(os.path.dirname(__file__), "..", "instances")
        checked = 0
        for path in sorted(glob.glob(os.path.join(base, "*.json"))):
            if path.endswith("schema.json"):
                continue
            inst = load_file(path)
            if inst.f is None or inst.g is not None or inst.alpha is None:
                continue
            verdict = decide_robsat(inst.f, inst.alpha, inst.norm)
            if verdict.tag == RobTag.ROBUST_YES:
                assert perturbation_witness(inst.f, inst.alpha, CFG, inst.norm) is None
                checked += 1
        assert checked >= 3


class TestWindingOracle:
    def test_examples(self):
        _, bdry = disk_square()
        assert winding_oracle(bdry, SphereMap(bdry, 2, {0: 1, 1: 2, 2: -1, 3: -2})) == [1]
        assert winding_oracle(bdry, SphereMap(bdry, 2, {0: 1, 1: 1, 2: 1, 3: 1})) == [0]

    def test_two_cycles(self):
        c = closure([[0, 1], [1, 2], [2, 3], [0, 3],
                     [10, 11], [11, 12], [12, 13], [10, 13]])
        labels = {0: 1, 1: 2, 2: -1, 3: -2, 10: 1, 11: 2, 12: -1, 13: -2}
        assert winding_oracle(c, SphereMap(c, 2, labels)) == [1, 1]


class TestGridMinCheck:
    def test_dominates_exact(self):
        rng = random.Random(3)
        for norm in (Norm.L1, Norm.L2, Norm.LINF):
            cx = closure([[0, 1, 2]])
            f = random_map(rng, cx, n=2)
            s = Simplex.of([0, 1, 2])
            _, exact = simplex_min(f, s, norm)
            for res in (2, 3, 5):
                assert not (grid_min_check(f, s, norm, res) < exact)

    def test_exact_on_vertex_minimum(self):
        f = path_map([1, 3])
        got = grid_min_check(f, Simplex.of([0, 1]), Norm.LINF, 4)
        assert got == CriticalValue.rat(1)


class TestBruteDiophantine:
    def test_examples(self):
        assert brute_diophantine([[2]], [4], 5) == [2]
        assert brute_diophantine([[2]], [3], 5) is None
        sol = brute_diophantine([[2, 3]], [1], 5)
        assert sol is not None and 2 * sol[0] + 3 * sol[1] == 1

    def test_agreement_with_smith(self):
        rng = random.Random(2)
        for _ in range(120):
            m, n = rng.randint(1, 3), rng.randint(1, 4)
            mat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
            rhs = [rng.randint(-5, 5) for _ in range(m)]
            s = smith_solve(sparse_system(mat, rhs, n))
            b = brute_diophantine(mat, rhs, 6)
            if b is not None:
                assert s is not None
                assert all(sum(mat[i][j] * b[j] for j in range(n)) == rhs[i]
                           for i in range(m))
            if s is None:
                assert b is None
