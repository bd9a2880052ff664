import random
from fractions import Fraction

import pytest

from robsat import fixtures
from robsat.complex_core import Complex, closure, full_subcomplex
from robsat.fixtures import fixture_from_extension, kappa
from robsat.homotopy import ExtendTag, decide_extension
from robsat.pl_map import CriticalValue, Norm, simplex_min_value, vector_norm
from robsat.reduction import ReductionError, SphereMap
from robsat.robustness import RobTag, decide_robsat

from helpers import annulus_octagon, annulus_sphere_map, disk_square, fraction_values, scaled


class TestKappa:
    def test_table(self):
        assert kappa(Norm.L1, 5) == 1
        assert kappa(Norm.LINF, 3) == 3
        assert kappa(Norm.L2, 4) == 4

    def test_l1_dominated_on_random_vectors(self):
        rng = random.Random(12)
        for norm in (Norm.L1, Norm.L2, Norm.LINF):
            for n in (1, 2, 3):
                k = kappa(norm, n)
                for _ in range(50):
                    x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                              for _ in range(n))
                    l1 = vector_norm(x, Norm.L1)
                    assert not (scaled(vector_norm(x, norm), k) < l1)


class TestFixture:
    def test_values_and_invariant(self):
        disk, bdry = disk_square()
        fmap = SphereMap(bdry, 2, {0: 1, 1: 2, 2: -1, 3: -2})
        f = fixture_from_extension(disk, fmap, Norm.LINF)
        assert f.value(0) == (2, 0)
        assert f.value(1) == (0, 2)
        assert f.value(4) == (0, 0)
        one = CriticalValue.rat(1)
        for s in bdry.simplices:
            assert not (simplex_min_value(f, s, Norm.LINF) < one)

    def test_a_values_are_scaled_unit_vectors(self):
        """An A-vertex labelled sign * i gets kappa * sign * e_i (kappa = 1
        for l1); the vertex that makes A full gets 0."""
        f = fixture_from_extension(closure([[0, 1]]),
                                   SphereMap(closure([[0], [1]]), 3, {0: 2, 1: -3}), Norm.L1)
        assert f.value(0) == (0, 1, 0)
        assert f.value(1) == (0, 0, -1)
        assert f.value(2) == (0, 0, 0)

    def test_small_a_values_raise_reduction_error(self, monkeypatch):
        monkeypatch.setattr(fixtures, "kappa", lambda norm, n: Fraction(1, 2))
        disk, bdry = disk_square()
        fmap = SphereMap(bdry, 2, {0: 1, 1: 2, 2: -1, 3: -2})
        with pytest.raises(ReductionError):
            fixture_from_extension(disk, fmap, Norm.LINF)

    def test_empty_a_gives_zero_map(self):
        disk, _ = disk_square()
        empty = Complex(frozenset())
        f = fixture_from_extension(disk, SphereMap(empty, 2, {}), Norm.LINF)
        assert all(v == (0, 0) for v in fraction_values(f).values())

    def test_makes_a_full(self):
        ann, a = annulus_octagon()
        fmap = annulus_sphere_map(a, 1, -1)
        f = fixture_from_extension(ann, fmap, Norm.LINF)
        assert full_subcomplex(f.complex, set(a.vertices)).simplices == a.simplices

    def test_degree_one_disk_robust(self):
        disk, bdry = disk_square()
        fmap = SphereMap(bdry, 2, {0: 1, 1: 2, 2: -1, 3: -2})
        f = fixture_from_extension(disk, fmap, Norm.LINF)
        assert decide_robsat(f, Fraction(99, 100), Norm.LINF).tag == RobTag.ROBUST_YES

    def test_constant_disk_not_robust(self):
        disk, bdry = disk_square()
        fmap = SphereMap(bdry, 2, {0: 1, 1: 1, 2: 1, 3: 1})
        f = fixture_from_extension(disk, fmap, Norm.LINF)
        assert decide_robsat(f, Fraction(1, 2), Norm.LINF).tag == RobTag.ROBUST_NO

    def test_correspondence_random_small(self):
        rng = random.Random(123)
        threshold = Fraction(99, 100)
        checked = 0
        while checked < 8:
            tri_count = rng.randint(1, 3)
            tris = set()
            while len(tris) < tri_count:
                tris.add(tuple(sorted(rng.sample(range(5), 3))))
            x = closure([list(t) for t in tris])
            a_verts = {v for v in x.vertices if rng.random() < 0.6}
            a = full_subcomplex(x, a_verts)
            if a.is_empty():
                continue
            labels = {v: rng.choice((1, 2, -1, -2)) for v in a.vertices}
            try:
                fmap = SphereMap(a, 2, labels)
            except ValueError:  # an antipodal A-edge
                continue
            ext = decide_extension(x, fmap)
            f = fixture_from_extension(x, fmap, Norm.LINF)
            rob = decide_robsat(f, threshold, Norm.LINF)
            assert (ext.tag == ExtendTag.NOT_EXTENDS) == (rob.tag == RobTag.ROBUST_YES)
            checked += 1
