import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robsat.complex_core import Simplex, closure
from robsat.homotopy import smith_solve
from robsat.oracles import (
    WitnessSearchConfig,
    _lattice_bound,
    _shift_magnitudes,
    perturbation_witness,
)
from robsat.pl_map import CriticalValue, Norm, PLMap, global_min, map_distance, simplex_min
from robsat.reduction import SphereMap
from robsat.robustness import RobTag, decide_robsat

from helpers import disk_square, path_map, random_complex, random_map, sparse_system
from reference_oracles import (
    brute_diophantine,
    grid_min_check,
    ref_perturbation_witness,
    winding_oracle,
)

CFG = WitnessSearchConfig(trials=100, seed=7, step=Fraction(1, 4))


class TestPerturbationWitness:
    @pytest.mark.parametrize("step", [Fraction(0), Fraction(-1, 4)])
    def test_nonpositive_step_rejected(self, step):
        with pytest.raises(ValueError, match="step"):
            WitnessSearchConfig(step=step)

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="trial"):
            WitnessSearchConfig(trials=-1)
        assert WitnessSearchConfig(trials=0).trials == 0

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

    def test_first_shift_needs_no_ladder(self):
        """The first shift, by +alpha, is accepted; the 400,000 smaller
        magnitudes that alpha = 10^5 and step 1/4 give are never built."""
        f = path_map([3, -1, 3])
        tracemalloc.start()
        try:
            g = perturbation_witness(f, 10 ** 5, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g is not None and g.value(1) == (Fraction(10 ** 5 - 1),)
        assert peak < 1 << 20, peak

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


def counted_ladder(alpha: CriticalValue, step: Fraction):
    """(the shift magnitudes, the random-trial bound), built one step at a
    time as the witness search once did."""
    magnitudes = []
    if not alpha.is_sqrt:
        m = alpha.q
        while m > 0:
            magnitudes.append(m)
            m -= step
    else:
        m = step
        while not alpha < CriticalValue.rat(m):
            magnitudes.append(m)
            m += step
        magnitudes.reverse()
    bound = 0
    while not alpha < CriticalValue.rat(step * (bound + 1)):
        bound += 1
    return magnitudes, bound


positive_q = st.fractions(min_value=0, max_value=20, max_denominator=12).filter(lambda q: q > 0)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.one_of(positive_q.map(CriticalValue.rat), positive_q.map(CriticalValue.sqrt_of)),
       st.fractions(min_value=Fraction(1, 12), max_value=4, max_denominator=12))
@example(CriticalValue.rat(1), Fraction(1, 4))           # alpha is a lattice point
@example(CriticalValue.sqrt_of(2), Fraction(1, 4))
@example(CriticalValue.sqrt_of(Fraction(1, 3)), Fraction(3))  # bound 0, no sqrt shift
def test_lattice_ladder_matches_the_counting_loops(alpha, step):
    """The lazy magnitudes and the closed-form bound equal what the
    counting loops give, for rational and square-root alphas."""
    magnitudes, bound = counted_ladder(alpha, step)
    assert list(_shift_magnitudes(alpha, step)) == magnitudes
    assert _lattice_bound(alpha, step) == bound


def opposed_edges(rng: random.Random, n: int) -> PLMap:
    """Disjoint edges whose first coordinate crosses zero near one end,
    near the low end on even edges and near the high end on odd ones, and
    whose other coordinates vanish: no axis shift below the long ends'
    size is rootless, and independent vertex shifts can be."""
    values = {}
    for i in range(rng.randint(2, 3)):
        s = 1 if i % 2 else -1
        values[2 * i] = (s * Fraction(rng.randint(1, 6), 6),) + (0,) * (n - 1)
        values[2 * i + 1] = (-s * Fraction(rng.randint(12, 24), 6),) + (0,) * (n - 1)
    return PLMap(closure([[v, v + 1] for v in values if v % 2 == 0]), n, values)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(0, 2 ** 32), st.booleans(), st.integers(1, 3),
       st.one_of(positive_q.map(CriticalValue.rat), positive_q.map(CriticalValue.sqrt_of)),
       st.sampled_from([Fraction(1, 4), Fraction(1, 3), Fraction(2, 5), Fraction(3, 2)]),
       st.integers(0, 2 ** 16), st.integers(0, 30), st.sampled_from(list(Norm)))
@example(1, True, 1, CriticalValue.rat(Fraction(3, 2)), Fraction(1, 4), 0, 30, Norm.LINF)
def test_witness_search_matches_the_fraction_reference(map_seed, opposed, n, alpha, step, seed,
                                                       trials, norm):
    """The search on integer pairs returns the reference's witness, or None
    with it: the same trials from the same RNG draws.  The opposed edges
    make the random trials, not only the axis shifts, find witnesses."""
    rng = random.Random(map_seed)
    f = opposed_edges(rng, n) if opposed else random_map(
        rng, random_complex(rng, max_dim=2, max_vertices=5, n_maximal=2), n, denom=6)
    cfg = WitnessSearchConfig(trials=trials, seed=seed, step=step)
    assert perturbation_witness(f, alpha, cfg, norm) == ref_perturbation_witness(f, alpha, cfg, norm)


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
