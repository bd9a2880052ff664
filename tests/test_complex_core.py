import random
from fractions import Fraction

import pytest

from robsat.complex_core import (
    BaryPoint,
    Complex,
    IntCochain,
    OrientedSimplex,
    Simplex,
    apply_coboundary,
    barycenter,
    closure,
    coboundary,
    connected_components,
    derived_subdivision,
    empty_complex,
    full_subcomplex,
    make_full,
    star_at_point,
    star_link,
)

from helpers import matrix_rank, random_complex, random_interior_point, random_point_in


def mid(u, v):
    return BaryPoint.from_dict({u: Fraction(1, 2), v: Fraction(1, 2)})


class TestClosure:
    def test_single_triangle(self):
        c = closure([[1, 2, 3]])
        assert len(c) == 7
        assert len(c.k_simplices(0)) == 3
        assert len(c.k_simplices(1)) == 3
        assert len(c.k_simplices(2)) == 1

    def test_empty(self):
        assert closure([]).is_empty()
        assert empty_complex().dim == -1

    def test_path(self):
        c = closure([[1, 2], [2, 3]])
        assert len(c) == 5
        assert c.dim == 1

    def test_rejects_unsorted_duplicate(self):
        with pytest.raises(ValueError):
            Simplex.of([1, 1, 2])
        with pytest.raises(ValueError):
            Simplex((2, 1))


class TestStarLink:
    def test_path_middle_vertex(self):
        c = closure([[1, 2], [2, 3]])
        star, link = star_link(c, Simplex.of([2]))
        assert Simplex.of([1, 2]) in star and Simplex.of([2, 3]) in star
        assert set(link.simplices) == {Simplex.of([1]), Simplex.of([3])}

    def test_isolated_vertex(self):
        c = closure([[7]])
        star, link = star_link(c, Simplex.of([7]))
        assert link.is_empty()
        assert set(star.simplices) == {Simplex.of([7])}

    def test_triangle_vertex_link(self):
        c = closure([[1, 2, 3]])
        _, link = star_link(c, Simplex.of([1]))
        assert link.simplices == closure([[2, 3]]).simplices

    def test_absent_simplex(self):
        with pytest.raises(ValueError):
            star_link(closure([[1, 2]]), Simplex.of([3]))


class TestStarAtPoint:
    def test_edge_midpoint(self):
        c, v = star_at_point(closure([[1, 2]]), Simplex.of([1, 2]), mid(1, 2))
        assert len(c.k_simplices(1)) == 2
        assert c.coord(v).as_dict() == {1: Fraction(1, 2), 2: Fraction(1, 2)}

    def test_triangle_barycenter(self):
        t = Simplex.of([1, 2, 3])
        c, _ = star_at_point(closure([[1, 2, 3]]), t, barycenter(t))
        assert len(c.k_simplices(2)) == 3

    def test_edge_of_triangle(self):
        c, _ = star_at_point(closure([[1, 2, 3]]), Simplex.of([1, 2]), mid(1, 2))
        assert len(c.k_simplices(2)) == 2
        assert len(c.k_simplices(1)) == 5

    def test_requires_interior_point(self):
        c = closure([[1, 2, 3]])
        with pytest.raises(ValueError):
            star_at_point(c, Simplex.of([1, 2, 3]), mid(1, 2))

    def test_point_set_preserved(self):
        rng = random.Random(11)
        c = closure([[1, 2, 3], [3, 4]])
        t = Simplex.of([1, 2, 3])
        c2, _ = star_at_point(c, t, random_interior_point(rng, t))
        c3, _ = star_at_point(c2, Simplex.of([3, 4]), mid(3, 4))
        for _ in range(334):  # three membership queries each: >1000 point checks
            carrier = random.Random(rng.random()).choice(sorted(c.simplices))
            p = c.expand(random_point_in(rng, carrier))
            assert c.contains_point(p)
            assert c2.contains_point(p)
            assert c3.contains_point(p)
        outside = BaryPoint.from_dict({1: Fraction(1, 2), 4: Fraction(1, 2)})
        assert not c.contains_point(outside)
        assert not c3.contains_point(outside)


class TestDerivedSubdivision:
    def test_full_barycentric_on_triangle(self):
        c = closure([[1, 2, 3]])
        out = derived_subdivision(c, lambda s: barycenter(s) if s.dim > 0 else None)
        assert len(out.k_simplices(2)) == 6

    def test_no_picks_is_identity(self):
        c = closure([[1, 2], [2, 3]])
        assert derived_subdivision(c, lambda s: None) == c

    def test_lineage_recomposes(self):
        c = closure([[1, 2, 3]])
        out = derived_subdivision(c, lambda s: barycenter(s) if s.dim > 0 else None)
        for v in out.vertices:
            point = out.coord(v)
            assert sum(w for _, w in point.weights) == 1
            assert set(point.support) <= {1, 2, 3}

    def test_growth_bound_per_starring(self):
        c = closure([[1, 2, 3]])
        t = Simplex.of([1, 2])
        before = len(c)
        cofaces = len(c.cofaces(t))
        after, _ = star_at_point(c, t, mid(1, 2))
        assert len(after) <= before * (cofaces + 1)


class TestHereditaryClosure:
    def test_random_subdivision_sequences(self):
        rng = random.Random(5)
        for trial in range(10):
            c = random_complex(rng, max_dim=3, max_vertices=6, n_maximal=3)
            for _ in range(3):
                candidates = [s for s in sorted(c.simplices) if s.dim >= 1]
                if not candidates:
                    break
                s = rng.choice(candidates)
                c, _ = star_at_point(c, s, random_interior_point(rng, s))
            for s in c.simplices:
                for face in s.faces():
                    assert face in c


class TestFullSubcomplex:
    def test_examples(self):
        p = closure([[1, 2], [2, 3]])
        kept = full_subcomplex(p, {1, 2})
        assert Simplex.of([1, 2]) in kept and len(kept) == 3
        assert len(full_subcomplex(p, {1, 3})) == 2
        assert full_subcomplex(p, set()).is_empty()


class TestMakeFull:
    def test_edge_violation(self):
        x = closure([[1, 2]])
        a = closure([[1], [2]])
        x2, a2 = make_full(x, a)
        assert len(x2.k_simplices(1)) == 2
        assert full_subcomplex(x2, set(a.vertices)).simplices == a.simplices

    def test_already_full_identity(self):
        x = closure([[1, 2, 3]])
        a = closure([[1, 2]])
        x2, _ = make_full(x, a)
        assert x2 == x

    def test_hollow_triangle_in_filled(self):
        x, _ = make_full(closure([[1, 2, 3]]), closure([[1], [2], [3]]))
        assert full_subcomplex(x, {1, 2, 3}).simplices == closure([[1], [2], [3]]).simplices

    def test_roundtrip_property_random(self):
        rng = random.Random(23)
        for _ in range(15):
            x = random_complex(rng, max_dim=2, max_vertices=6, n_maximal=3)
            a_simplices = [s for s in sorted(x.simplices) if rng.random() < 0.4]
            a_set = set()
            for s in a_simplices:
                a_set.update(s.faces())
            if not a_set:
                continue
            a = Complex(a_set, {v: x.coord(v)
                                for s in a_set for v in s.vertices})
            x2, _ = make_full(x, a)
            assert full_subcomplex(x2, set(a.vertices)).simplices == a.simplices


class TestComponents:
    def test_examples(self):
        assert connected_components(closure([[1, 2], [4, 5]])) == [{1, 2}, {4, 5}]
        assert connected_components(empty_complex()) == []
        assert connected_components(closure([[1, 2], [2, 3]])) == [{1, 2, 3}]


class TestCoboundary:
    def test_edge_convention(self):
        c = closure([[1, 2]])
        d = apply_coboundary(c, IntCochain(0, {Simplex.of([2]): 1}))
        assert d(Simplex.of([1, 2])) == 1
        d2 = apply_coboundary(c, IntCochain(0, {Simplex.of([1]): 1}))
        assert d2(Simplex.of([1, 2])) == -1

    def test_delta_delta_zero_triangle(self):
        c = closure([[1, 2, 3]])
        x = IntCochain(0, {Simplex.of([1]): 3, Simplex.of([2]): -2})
        assert apply_coboundary(c, apply_coboundary(c, x)).values == {}

    def test_hollow_triangle_rank(self):
        rows, _, _ = coboundary(closure([[1, 2], [2, 3], [1, 3]]), 0)
        assert matrix_rank(rows) == 2

    def test_delta_delta_zero_random(self):
        rng = random.Random(99)
        for _ in range(100):
            c = random_complex(rng, max_dim=4, max_vertices=7, n_maximal=3)
            for k in range(c.dim):
                chain = IntCochain(k, {
                    s: rng.randint(-3, 3) for s in c.k_simplices(k) if rng.random() < 0.7
                })
                dd = apply_coboundary(c, apply_coboundary(c, chain))
                assert dd.values == {}

    def test_matrix_composition_is_zero(self):
        rng = random.Random(3)
        c = random_complex(rng, max_dim=3, max_vertices=6, n_maximal=4)
        for k in range(c.dim):
            m1, _, cols1 = coboundary(c, k)
            m2, _, cols2 = coboundary(c, k + 1)
            assert cols2 == c.k_simplices(k + 1)
            for col in range(len(cols1)):
                vec = [row[col] for row in m1]
                out = [sum(r[i] * vec[i] for i in range(len(vec))) for r in m2]
                assert all(x == 0 for x in out)


class TestOrientation:
    def test_parity(self):
        assert OrientedSimplex.from_sequence([1, 2, 3]).parity == 1
        assert OrientedSimplex.from_sequence([2, 1, 3]).parity == -1
        cochain = IntCochain(1, {Simplex.of([1, 2]): 5})
        assert cochain(OrientedSimplex.from_sequence([2, 1])) == -5
