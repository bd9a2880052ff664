"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they pass.
"""

import glob
import os
import random
import time
from fractions import Fraction

from robsat.complex_core import closure, full_subcomplex
from robsat.fixtures import fixture_from_extension
from robsat.grid import freudenthal_grid
from robsat.homotopy import ExtendTag, decide_extension, pullback_cocycle, smith_solve, verify_extension_certificate
from robsat.instance_io import load_file
from robsat.oracles import WitnessSearchConfig, perturbation_witness
from robsat.pl_map import CriticalValue, Norm, PLMap, critical_values
from robsat.polynomials import Polynomial
from robsat.reduction import (
    SphereMap,
    build_chi,
    simplicial_approximation,
    vertexwise_extremal_subdivision,
)
from robsat.robustness import RobTag, RobustnessTag, decide_robsat, reduce_to_extension, robustness
from robsat.sampling import SampledTag, decide_sampled, sample_polynomial

from helpers import (
    BaryPoint,
    annulus_octagon,
    annulus_sphere_map,
    disk_square,
    fraction_values,
    path_map,
    sparse_system,
)
from reference_oracles import brute_diophantine, eval_at, evaluate, grid_locate, winding_oracle

INSTANCE_DIR = os.path.join(os.path.dirname(__file__), "..", "instances")
ALL_NORMS = [Norm.L1, Norm.L2, Norm.LINF]


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_01_one_dimensional_exactness():
    f = path_map([-1, 0, 1])
    start = time.perf_counter()
    for norm in ALL_NORMS:
        r = robustness(f, norm)
        assert r.tag == RobustnessTag.VALUE
        assert r.value == CriticalValue.rat(1)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(1, f"robustness(x on [-1,1]) = Value(1) for l1/l2/linf in {elapsed:.3f}s")


def test_02_worked_trace():
    f = path_map([3, -1, 3])
    extremal = vertexwise_extremal_subdivision(f, Norm.LINF)
    values = sorted(v[0] for v in fraction_values(extremal).values())
    assert values == [-1, 0, 0, 3, 3]
    chi = build_chi(extremal, CriticalValue.rat(1), Norm.LINF)
    chi_by_value = {}
    for v in extremal.complex.vertices:
        chi_by_value.setdefault(extremal.value(v)[0], set()).add(chi[v])
    assert chi_by_value == {
        Fraction(3): {Fraction(1)},
        Fraction(0): {Fraction(0)},
        Fraction(-1): {Fraction(1, 2)},
    }
    fmap = simplicial_approximation(reduce_to_extension(f, CriticalValue.rat(1), Norm.LINF))
    labels = sorted(fmap.assignment.values())
    assert labels == [-1, 1, 1]  # +e1, -e1, +e1 on the three A-vertices
    assert decide_robsat(f, 1, Norm.LINF).tag == RobTag.ROBUST_YES
    assert decide_robsat(f, 3, Norm.LINF).tag == RobTag.ROBUST_NO
    r = robustness(f, Norm.LINF)
    assert r.tag == RobustnessTag.VALUE and r.value == CriticalValue.rat(1)
    report(2, "path (3,-1,3): chi labels, sphere labels (+e1,-e1,+e1), "
              "RobustYes@1, RobustNo@3, robustness Value(1)")


def test_03_equal_dimension_square():
    start = time.perf_counter()
    inst = load_file(os.path.join(INSTANCE_DIR, "square_identity.json"))
    f = inst.f
    r = robustness(f, Norm.LINF)
    assert r.tag == RobustnessTag.VALUE and r.value == CriticalValue.rat(1)
    cvs = critical_values(f, Norm.LINF)
    assert cvs == [CriticalValue.rat(0), CriticalValue.rat(Fraction(1, 2)), CriticalValue.rat(1)]
    for cv in cvs:
        if cv.is_zero():
            continue
        assert decide_robsat(f, cv, Norm.LINF).tag == RobTag.ROBUST_YES
    for above in (Fraction(3, 2), 2):
        assert decide_robsat(f, above, Norm.LINF).tag == RobTag.ROBUST_NO
    cfg = WitnessSearchConfig(trials=10_000, seed=2024, step=Fraction(1, 10))
    assert perturbation_witness(f, Fraction(9, 10), cfg, Norm.LINF) is None
    found = perturbation_witness(f, Fraction(11, 10), cfg, Norm.LINF)
    assert found is not None
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.3f}s"
    report(3, f"square identity: Value(1), verdict split at 1, witness only "
              f"above 1 (1e4 trials) in {elapsed:.2f}s")


def test_04_overdetermined_rule():
    rng = random.Random(404)
    exceptions = 0
    for _ in range(100):
        n_vertices = rng.randint(2, 5)
        edges = [[i, i + 1] for i in range(n_vertices - 1)]
        if rng.random() < 0.3:
            edges = [[i] for i in range(n_vertices)]  # dim 0
        cx = closure(edges)
        n = cx.dim + 1 + rng.randint(0, 2 - cx.dim if cx.dim < 2 else 0)
        f = PLMap(cx, n, {
            v: tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(n))
            for v in cx.vertices})
        for alpha in (Fraction(1, 2), Fraction(3, 2)):
            if decide_robsat(f, alpha, Norm.LINF).tag != RobTag.ROBUST_NO:
                exceptions += 1
    assert exceptions == 0
    report(4, "100 random instances with dim K < n: RobustNo at every tested "
              "alpha, zero exceptions")


def test_05_annulus_windings():
    ann, a = annulus_octagon()
    # calibration: the map extendable by construction fixes the compatibility
    # direction of the two boundary walks
    calib = annulus_sphere_map(a, 1, 1)
    # an explicit extension of calib: the constructor accepts only simplicial maps
    SphereMap(ann, 2, {v: calib.image(v) if v in set(a.vertices) else 1 for v in ann.vertices})
    c1, c2 = winding_oracle(a, calib)
    for w in range(-2, 3):
        fmap = annulus_sphere_map(a, w, -w)  # boundary-oriented windings (w, w)
        f = fixture_from_extension(ann, fmap, Norm.LINF)
        verdict = decide_robsat(f, Fraction(99, 100), Norm.LINF)
        assert (verdict.tag == RobTag.ROBUST_YES) == (w != 0), (w, verdict.tag)
        x1, x2 = winding_oracle(a, fmap)
        oracle_extends = (x1 * c2 == x2 * c1)
        decider_extends = decide_extension(ann, fmap).tag == ExtendTag.EXTENDS
        assert oracle_extends == decider_extends, (w, x1, x2)
    report(5, "annulus boundary windings w in {-2..2}: RobustYes iff w != 0; "
              "decider matches the winding oracle on all 5")


def test_06_fixture_correspondence():
    disk, bdry = disk_square()
    degree_one = SphereMap(bdry, 2, {0: 1, 1: 2, 2: -1, 3: -2})
    f = fixture_from_extension(disk, degree_one, Norm.LINF)
    assert decide_robsat(f, Fraction(99, 100), Norm.LINF).tag == RobTag.ROBUST_YES
    constant = SphereMap(bdry, 2, {0: 1, 1: 1, 2: 1, 3: 1})
    g = fixture_from_extension(disk, constant, Norm.LINF)
    assert decide_robsat(g, Fraction(1, 2), Norm.LINF).tag == RobTag.ROBUST_NO
    rng = random.Random(606)
    checked = 0
    while checked < 20:
        tris = set()
        for _ in range(rng.randint(1, 3)):
            tris.add(tuple(sorted(rng.sample(range(5), 3))))
        x = closure([list(t) for t in tris])
        a = full_subcomplex(x, {v for v in x.vertices if rng.random() < 0.6})
        if a.is_empty():
            continue
        try:
            fmap = SphereMap(a, 2, {v: rng.choice((1, 2, -1, -2)) for v in a.vertices})
        except ValueError:  # an antipodal A-edge
            continue
        ext = decide_extension(x, fmap)
        assert ext.tag != ExtendTag.UNKNOWN
        fx = fixture_from_extension(x, fmap, Norm.LINF)
        rob = decide_robsat(fx, Fraction(99, 100), Norm.LINF)
        assert rob.tag != RobTag.UNKNOWN
        assert (ext.tag == ExtendTag.NOT_EXTENDS) == (rob.tag == RobTag.ROBUST_YES)
        checked += 1
    report(6, "disk fixtures behave per construction; 20 random fixtures agree "
              "exactly with the extension decider")


def _random_monotonicity_instance(rng):
    kind = rng.random()
    if kind < 0.45:
        cx = closure([[i, i + 1] for i in range(rng.randint(1, 3))])
    elif kind < 0.85:
        tris = set()
        for _ in range(rng.randint(1, 2)):
            tris.add(tuple(sorted(rng.sample(range(5), 3))))
        cx = closure([list(t) for t in tris])
    else:
        cx = closure([[0, 1, 2, 3]])
    n = rng.randint(1, 3)
    f = PLMap(cx, n, {
        v: tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))
        for v in cx.vertices})
    return f


def test_07_monotonicity_suite():
    rng = random.Random(707)
    for _ in range(50):
        f = _random_monotonicity_instance(rng)
        positive = [cv for cv in critical_values(f, Norm.LINF) if not cv.is_zero()]
        seen_no = False
        for cv in positive:
            tag = decide_robsat(f, cv, Norm.LINF).tag
            if tag == RobTag.ROBUST_NO:
                seen_no = True
            elif tag == RobTag.ROBUST_YES:
                assert not seen_no, f"RobustYes above a RobustNo at {cv}"
    report(7, "50 random instances (dim <= 3, n <= 3): verdicts monotone "
              "across all critical values")


def test_08_integer_algebra():
    rng = random.Random(808)
    for _ in range(500):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        mat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(-5, 5) for _ in range(m)]
        s = smith_solve(sparse_system(mat, rhs, n))
        b = brute_diophantine(mat, rhs, 10)
        if b is not None:
            assert s is not None
            assert all(sum(mat[i][j] * b[j] for j in range(n)) == rhs[i] for i in range(m))
        if s is None:
            assert b is None
        elif all(abs(x) <= 10 for x in s):
            assert b is not None
    # every Extends certificate re-verifies
    ann, a = annulus_octagon()
    disk, bdry = disk_square()
    certs = 0
    for x, sub, fmap in [
        (ann, a, annulus_sphere_map(a, 1, 1)),
        (ann, a, annulus_sphere_map(a, -2, -2)),
        (disk, bdry, SphereMap(bdry, 2, {0: 1, 1: 1, 2: 1, 3: 1})),
        (disk, bdry, SphereMap(bdry, 2, {0: 1, 1: 2, 2: 1, 3: 2})),
    ]:
        v = decide_extension(x, fmap)
        if v.tag == ExtendTag.EXTENDS:
            z = pullback_cocycle(fmap)
            assert verify_extension_certificate(x, sub, z, v.w)
            certs += 1
    assert certs >= 3
    report(8, "smith_solve vs exhaustive box search on 500 random systems: "
              f"consistent; {certs} Extends certificates re-verified")


def test_09_critical_value_membership():
    instances = []
    for path in sorted(glob.glob(os.path.join(INSTANCE_DIR, "*.json"))):
        if path.endswith("schema.json"):
            continue
        inst = load_file(path)
        if inst.f is not None and inst.g is None:
            instances.append((os.path.basename(path), inst))
    rng = random.Random(909)
    for _ in range(6):
        f = _random_monotonicity_instance(rng)
        instances.append(("random", type("I", (), {"f": f, "norm": Norm.LINF})))
    assert len(instances) >= 10
    for name, inst in instances:
        r = robustness(inst.f, inst.norm)
        if r.tag != RobustnessTag.VALUE:
            continue
        cvs = critical_values(inst.f, inst.norm)
        assert r.value in cvs, name
        if not r.value.is_zero():
            assert decide_robsat(inst.f, r.value, inst.norm).tag == RobTag.ROBUST_YES, name
        larger = [cv for cv in cvs if r.value < cv]
        if larger:
            assert decide_robsat(inst.f, larger[0], inst.norm).tag == RobTag.ROBUST_NO, name
    report(9, f"robustness Value(v) has v critical and correctly bracketed on "
              f"{len(instances)} corpus instances")


def test_10_sampling_rigor():
    rng = random.Random(1010)
    for trial in range(20):
        m = rng.randint(1, 3)
        polys = []
        for _ in range(rng.randint(1, 2)):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                e = tuple(rng.randint(0, 3) for _ in range(m))
                if sum(e) > 3:
                    e = tuple(min(k, 1) for k in e)
                terms[e] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            polys.append(Polynomial.from_dict(m, terms))
        bounds = [(Fraction(-1), Fraction(1))] * m
        grid = freudenthal_grid(bounds, 2)
        f, eps = sample_polynomial(polys, grid, Norm.LINF)
        for _ in range(1000):
            pt = tuple(Fraction(rng.randint(-6, 6), 6) for _ in range(m))
            _, weights = grid_locate(grid, pt)
            pl_val = evaluate(f, BaryPoint.from_dict(weights))
            true_val = [eval_at(p, pt) for p in polys]
            gap = max(abs(a - b) for a, b in zip(true_val, pl_val))
            assert gap <= eps
    d = decide_sampled(["x**2+1"], [(-2, 2)], 4, Fraction(1, 2), Fraction(1, 10),
                       var_names=["x"])
    assert d.tag == SampledTag.EXISTS_ALPHA_PLUS_EPS_NO_ROOT
    report(10, "epsilon bound dominates 1000 sample points on each of 20 random "
               "polynomial systems; x^2+1 decided ExistsAlphaPlusEpsNoRoot")


def test_11_unknown_honesty(capsys):
    from robsat.cli import EXIT_UNKNOWN, main

    path = os.path.join(INSTANCE_DIR, "unknown_dim4_n3.json")
    inst = load_file(path)
    assert inst.n == 3 and inst.complex.dim == 4
    # the primary obstruction vanishes for this instance
    from robsat.homotopy import cocycle_extension_solvable

    z = pullback_cocycle(inst.sphere_map)
    assert cocycle_extension_solvable(inst.complex, inst.a_complex, z) is not None
    verdict = decide_extension(inst.complex, inst.sphere_map)
    assert verdict.tag == ExtendTag.UNKNOWN
    code = main(["extend", "-i", path])
    capsys.readouterr()
    assert code == EXIT_UNKNOWN
    # the same honesty holds through the full PL pipeline
    f = fixture_from_extension(inst.complex, inst.sphere_map, Norm.LINF)
    assert decide_robsat(f, Fraction(99, 100), Norm.LINF).tag == RobTag.UNKNOWN
    report(11, "n=3, dim K=4 with vanishing primary obstruction: Unknown from "
               "the decider, Unknown through the PL pipeline, exit code 3")
