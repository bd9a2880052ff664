import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robsat.complex_core import (
    Complex,
    IntCochain,
    Simplex,
    apply_coboundary,
    closure,
    coface_index,
    connected_components,
    full_subcomplex,
    make_full,
    permutation_parity,
    star_at_point,
)
from robsat.pl_map import PLMap

from helpers import (
    BaryPoint,
    barycenter,
    carriers,
    coboundary,
    contains_point,
    extend_lineage,
    fraction_values,
    matrix_rank,
    origin,
    point_stars,
    random_complex,
    random_interior_point,
    random_map,
    random_point_in,
    ref_maximal_simplices,
    ref_star_at_point,
    ref_star_with_values,
    star_complex,
    star_with_values,
    weight,
)
from reference_oracles import derived_subdivision, evaluate, ref_star_in_place


def mid(u, v):
    return BaryPoint.from_dict({u: Fraction(1, 2), v: Fraction(1, 2)})


class TestSimplex:
    """A simplex is its strictly sorted vertex tuple."""

    def test_equals_and_hashes_as_its_vertex_tuple(self):
        s = Simplex((1, 3, 4))
        assert isinstance(s, tuple) and s.vertices is s
        assert s == (1, 3, 4) and (1, 3, 4) == s and hash(s) == hash((1, 3, 4))
        assert s != (1, 3) and s != Simplex((1, 3))
        assert {s: "x"}[(1, 3, 4)] == "x" and {(1, 3, 4): "y"}[s] == "y"
        assert s.dim == 2 and Simplex((7,)).dim == 0

    def test_sorts_as_the_dataclass_did(self):
        # the ordered dataclass compared the one-field tuples (vertices,):
        # lexicographic on the vertices, a proper prefix first
        vertex_sets = [[2], [1, 2], [1], [0, 5], [1, 2, 3], [0, 1, 9], [0, 1]]
        simplices = [Simplex.of(v) for v in vertex_sets]
        assert sorted(simplices) == sorted(simplices, key=lambda s: (tuple(s),))
        assert sorted(simplices) == [(0, 1), (0, 1, 9), (0, 5), (1,), (1, 2), (1, 2, 3), (2,)]
        assert Simplex((0, 1)) < Simplex((0, 1, 9)) < Simplex((1,))

    def test_repr_is_unchanged(self):
        assert repr(Simplex((1, 3, 4))) == "Simplex(vertices=(1, 3, 4))"
        assert repr(Simplex((7,))) == "Simplex(vertices=(7,))"
        assert str([Simplex((0, 2))]) == "[Simplex(vertices=(0, 2))]"
        assert repr(next(Simplex((0, 2)).faces())) == "Simplex(vertices=(0,))"

    def test_faces_and_boundary_are_simplices(self):
        s = Simplex((0, 2, 5))
        assert all(type(t) is Simplex for t in s.faces())
        assert [(sign, type(t), t) for sign, t in s.boundary()] == [
            (1, Simplex, (2, 5)), (-1, Simplex, (0, 5)), (1, Simplex, (0, 2))]

    def test_membership_and_cochain_keys(self):
        """A plain sorted tuple finds the simplex in a Complex and in an
        IntCochain; an unsorted one finds nothing."""
        c = closure([[0, 1, 2]])
        assert (0, 1) in c and Simplex((0, 1)) in c and (1, 0) not in c
        assert (0, 1, 2) in c.simplices and (0, 3) not in c
        w = IntCochain(1, {Simplex((0, 1)): 3, Simplex((1, 2)): 0})
        assert w((0, 1)) == 3 and w(Simplex((0, 1))) == 3 and w((1, 0)) == 0
        assert list(w.values) == [(0, 1)] and type(next(iter(w.values))) is Simplex

    def test_cochain_rejects_plain_tuple_keys(self):
        with pytest.raises(ValueError, match="not a Simplex"):
            IntCochain(1, {(0, 1): 3})

    @pytest.mark.parametrize("build", [lambda: Simplex(()), lambda: Simplex((2, 1)),
                                       lambda: Simplex((1, 1)), lambda: Simplex.of([1, 1])],
                             ids=["empty", "unsorted", "repeated", "of-repeated"])
    def test_rejects_invalid_vertex_tuples(self, build):
        with pytest.raises(ValueError):
            build()

    def test_rejects_invalid_vertex_tuples_under_python_O(self):
        code = textwrap.dedent("""
            from robsat.complex_core import Simplex
            for build in (lambda: Simplex(()), lambda: Simplex((2, 1)),
                          lambda: Simplex.of([1, 1])):
                try:
                    build()
                except ValueError:
                    continue
                raise SystemExit("an invalid simplex was built")
        """)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestClosure:
    def test_single_triangle(self):
        c = closure([[1, 2, 3]])
        assert len(c) == 7
        assert len(c.k_simplices(0)) == 3
        assert len(c.k_simplices(1)) == 3
        assert len(c.k_simplices(2)) == 1

    def test_empty(self):
        assert closure([]).is_empty()
        assert closure([]).dim == -1

    def test_path(self):
        c = closure([[1, 2], [2, 3]])
        assert len(c) == 5
        assert c.dim == 1

    def test_rejects_unsorted_duplicate(self):
        with pytest.raises(ValueError):
            Simplex.of([1, 1, 2])
        with pytest.raises(ValueError):
            Simplex((2, 1))


class EagerComplex:
    """What a `Complex` on `simplices` reads, each computed directly."""

    def __init__(self, simplices):
        self.simplices = frozenset(Simplex.of(s) for s in simplices)
        self.vertices = tuple(sorted({v for s in self.simplices for v in s}))
        self.dim = max((len(s) - 1 for s in self.simplices), default=-1)
        self.maximal = sorted(s for s in self.simplices if not any(
            len(t) == len(s) + 1 and set(s) < set(t) for t in self.simplices))

    def k_simplices(self, k):
        return sorted(s for s in self.simplices if len(s) == k + 1)


LAZY_READS = {
    "vertices": lambda c, ref: c.vertices == ref.vertices,
    "k_simplices": lambda c, ref: all(c.k_simplices(k) == ref.k_simplices(k)
                                      for k in range(-1, ref.dim + 2)),
    "dim": lambda c, ref: c.dim == ref.dim,
    "maximal_simplices": lambda c, ref: c.maximal_simplices() == ref.maximal,
    "repr": lambda c, ref: repr(c) == f"Complex({len(ref.simplices)} simplices, dim {ref.dim})",
    "eq_hash": lambda c, ref: (c == Complex(ref.simplices)
                               and hash(c) == hash(Complex(ref.simplices))
                               and c != Complex(ref.simplices | {Simplex((99,))})),
}


class TestLazyIndex:
    """A complex builds its sorted lists and vertex tuple on first read;
    every read agrees with an eager reference, in any order."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True),
                    max_size=6),
           st.booleans(), st.permutations(sorted(LAZY_READS)))
    def test_reads_match_eager_reference_in_any_order(self, simplex_set, closed, order):
        ref = EagerComplex(closure(simplex_set).simplices if closed else simplex_set)
        c = Complex(ref.simplices)
        for name in order:
            assert LAZY_READS[name](c, ref), name
        indexed = Complex(ref.simplices)
        indexed.k_simplices(0)
        assert indexed == c and hash(indexed) == hash(c)

    def test_empty_and_not_face_closed(self):
        for simplices in ([], [(1, 2, 3)], [(1, 2, 3), (4,)], [(0, 5), (2, 3, 4)]):
            ref = EagerComplex(simplices)
            for first in LAZY_READS:
                c = Complex(ref.simplices)
                assert LAZY_READS[first](c, ref), first
                assert all(read(c, ref) for read in LAZY_READS.values())
        assert Complex(frozenset()).vertices == () and Complex(frozenset()).dim == -1
        assert Complex([Simplex((1, 2, 3))]).vertices == (1, 2, 3)

    def test_returned_list_is_a_copy(self):
        c = closure([[1, 2, 3]])
        edges = c.k_simplices(1)
        edges.append(Simplex((7, 8)))
        edges.pop(0)
        c.k_simplices(2).clear()
        assert c.k_simplices(1) == [Simplex((1, 2)), Simplex((1, 3)), Simplex((2, 3))]
        assert c.k_simplices(2) == [Simplex((1, 2, 3))] and len(c) == 7 and c.dim == 2


class TestStarAtPoint:
    def test_edge_midpoint(self):
        c, (v,) = star_complex(closure([[1, 2]]), [Simplex.of([1, 2])])
        assert len(c.k_simplices(1)) == 2
        assert v == 3  # numbered on from the largest vertex

    def test_numbered_from_first_id(self):
        edge = Simplex.of([1, 2])
        c, (v,) = star_complex(closure([[1, 2]]), [edge], first_id=7)
        assert v == 7 and Simplex.of([1, 7]) in c
        with pytest.raises(ValueError, match="not above the largest vertex"):
            star_complex(closure([[1, 2]]), [edge], first_id=2)

    def test_new_id_that_is_a_vertex(self):
        """The kernel refuses a new id that already has cofaces, before it
        edits anything: starring the edge (1, 2) of a triangle as vertex 2
        would leave the non-simplices (2, 2) and (1, 3, 2)."""
        c = closure([[1, 2, 3]])
        simplices, cofaces = set(c.simplices), coface_index(c.simplices)
        with pytest.raises(ValueError, match="new vertex id 2 is already a vertex"):
            star_at_point(simplices, cofaces, [Simplex.of([1, 2])], 2)
        assert simplices == c.simplices
        assert {v: s for v, s in cofaces.items() if s} == coface_index(c.simplices)
        assert star_at_point(simplices, cofaces, [Simplex.of([1, 2])], 4) == [4]
        assert Simplex.of([1, 3, 4]) in simplices and Simplex.of([1, 2]) not in simplices

    def test_triangle_barycenter(self):
        c, _ = star_complex(closure([[1, 2, 3]]), [Simplex.of([1, 2, 3])])
        assert len(c.k_simplices(2)) == 3

    def test_edge_of_triangle(self):
        c, _ = star_complex(closure([[1, 2, 3]]), [Simplex.of([1, 2])])
        assert len(c.k_simplices(2)) == 2
        assert len(c.k_simplices(1)) == 5

    def test_point_set_preserved(self):
        rng = random.Random(11)
        c = closure([[1, 2, 3], [3, 4]])
        t = Simplex.of([1, 2, 3])
        stars = [(t, random_interior_point(rng, t))]
        c2, new = star_complex(c, carriers(stars))
        lineage2 = extend_lineage(None, stars, new)
        stars = [(Simplex.of([3, 4]), mid(3, 4))]
        c3, new = star_complex(c2, carriers(stars))
        lineage3 = extend_lineage(lineage2, stars, new)
        for _ in range(334):  # three membership queries each: >1000 point checks
            carrier = random.Random(rng.random()).choice(sorted(c.simplices))
            p = random_point_in(rng, carrier)  # c is not subdivided: original coordinates
            assert contains_point(c, p)
            assert contains_point(c2, p, lineage2)
            assert contains_point(c3, p, lineage3)
        outside = BaryPoint.from_dict({1: Fraction(1, 2), 4: Fraction(1, 2)})
        assert not contains_point(c, outside)
        assert not contains_point(c3, outside, lineage3)


def barycentric_pick(f, s):
    return barycenter(s) if s.dim > 0 else None


def identity_map(c):
    """The coordinate map of c, so that a derived subdivision interpolates
    each new vertex's coordinates."""
    return PLMap(c, 3, {v: tuple(Fraction(int(v == k)) for k in (1, 2, 3)) for v in c.vertices})


class TestDerivedSubdivision:
    def test_full_barycentric_on_triangle(self):
        c = closure([[1, 2, 3]])
        out = derived_subdivision(identity_map(c), barycentric_pick).complex
        assert len(out.k_simplices(2)) == 6

    def test_no_picks_is_identity(self):
        f = PLMap(closure([[1, 2], [2, 3]]), 1, {1: (1,), 2: (2,), 3: (3,)})
        assert derived_subdivision(f, lambda f, s: None) == f

    def test_lineage_recomposes(self):
        c = closure([[1, 2, 3]])
        out = derived_subdivision(identity_map(c), barycentric_pick)
        # the derived pass's starrings, made on c in its order
        stars = [(s, barycenter(s)) for s in sorted(c.simplices, key=lambda x: (-x.dim, x.vertices))
                 if s.dim > 0]
        new = sorted(set(out.complex.vertices) - set(c.vertices))
        assert star_complex(c, carriers(stars)) == (out.complex, new)
        lineage = extend_lineage(None, stars, new)
        for v in out.complex.vertices:
            point = origin(lineage, v)
            assert sum(w for _, w in point.weights) == 1
            assert set(point.support) <= {1, 2, 3}
            # the interpolated coordinate map agrees with the lineage
            assert out.value(v) == tuple(weight(point, k) for k in (1, 2, 3))

    def test_growth_bound_per_starring(self):
        c = closure([[1, 2, 3]])
        t = Simplex.of([1, 2])
        before = len(c)
        cofaces = sum(1 for s in c.simplices if set(t.vertices) <= set(s.vertices))
        after, _ = star_complex(c, [t])
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
                c, _ = star_complex(c, [s])
            for s in c.simplices:
                for face in s.faces():
                    assert face in c


def derived_batch(rng, c):
    """Random carriers of c, largest dimension first, at random interior
    points: the derived pass's pattern."""
    return [(s, random_interior_point(rng, s))
            for s in sorted(c.simplices, key=lambda x: (-x.dim, x.vertices))
            if s.dim > 0 and rng.random() < 0.5]


def crossing_batch(rng, c):
    """Random edges of c in sorted order, each at a random t: the crossing
    pattern."""
    out = []
    for e in c.k_simplices(1):
        if rng.random() < 0.5:
            t = Fraction(rng.randint(1, 7), 8)
            out.append((e, BaryPoint.from_dict({e.vertices[0]: 1 - t, e.vertices[1]: t})))
    return out


def make_full_batch(rng, c):
    """Barycenters of the simplices that a random full-vertex subcomplex
    misses, largest dimension first: `make_full`'s pattern."""
    a_verts = {v for v in c.vertices if rng.random() < 0.7}
    a = {s for s in c.simplices if set(s.vertices) <= a_verts and rng.random() < 0.5}
    a = {f for s in a for f in s.faces()}
    violations = [s for s in c.simplices if s not in a and set(s.vertices) <= a_verts]
    violations.sort(key=lambda s: (-s.dim, s.vertices))
    return [(s, barycenter(s)) for s in violations]


def chained_batch(rng, c):
    """Carriers drawn from the state the earlier starrings left, new
    vertices included."""
    out = []
    for _ in range(rng.randint(1, 4)):
        s = rng.choice([t for t in sorted(c.simplices) if t.dim > 0] or [None])
        if s is None:
            break
        p = random_interior_point(rng, s)
        out.append((s, p))
        c, _ = ref_star_at_point(c, s, p)
    return out


def vertex_batch(rng, c):
    """Distinct random vertices of c, each starred at itself."""
    picked = [v for v in c.k_simplices(0) if rng.random() < 0.5]
    rng.shuffle(picked)
    return [(v, barycenter(v)) for v in picked]


def level_batch(rng, c):
    """Edges of the state the earlier starrings left, often edges on their
    new vertices: the level stage's crossings, whose cofaces go up to
    tetrahedra when c has them."""
    simplices, cofaces = set(c.simplices), coface_index(c.simplices)
    next_id = (c.vertices or (-1,))[-1] + 1
    top = next_id - 1
    out = []
    for _ in range(rng.randint(1, 5)):
        edges = sorted(s for s in simplices if len(s) == 2)
        if not edges:
            break
        fresh = [e for e in edges if e[1] > top]
        e = rng.choice(fresh if fresh and rng.random() < 0.6 else edges)
        t = Fraction(rng.randint(1, 7), 8)
        out.append((e, BaryPoint.from_dict({e[0]: 1 - t, e[1]: t})))
        next_id = ref_star_in_place(simplices, cofaces, [e], next_id)[0] + 1
    return out


BATCH_PATTERNS = [derived_batch, crossing_batch, make_full_batch, chained_batch,
                  vertex_batch, level_batch]


class TestMaximalSimplices:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True),
                    min_size=1, max_size=6))
    def test_matches_pairwise_scan(self, simplex_set):
        """On the closure of any simplex set, the simplices that are no
        simplex's facet are the ones the pairwise scan finds maximal."""
        c = closure(simplex_set)
        assert c.maximal_simplices() == ref_maximal_simplices(c)

    def test_examples(self):
        c = closure([[0, 1, 2], [2, 3], [4], [1, 2, 5]])
        assert c.maximal_simplices() == [Simplex.of(s) for s in
                                         [[0, 1, 2], [1, 2, 5], [2, 3], [4]]]
        assert Complex(frozenset()).maximal_simplices() == []


class TestBatchStarring:
    @pytest.mark.parametrize("pattern", [derived_batch, crossing_batch, make_full_batch,
                                         chained_batch])
    def test_batch_matches_sequential_starrings(self, pattern):
        """One batch gives the simplices, values and new vertex ids of the
        same starrings made one call at a time, and the value at each new
        vertex is f at the point the lineage puts it."""
        @settings(derandomize=True, deadline=None, max_examples=60)
        @given(st.integers(0, 2 ** 32), st.integers(1, 3))
        def check(seed, n):
            rng = random.Random(seed)
            c = random_complex(rng, max_dim=3, max_vertices=6, n_maximal=3)
            f = random_map(rng, c, n)
            stars = pattern(rng, c)
            g, new = star_with_values(f, point_stars(f, stars))
            ref, ref_new = f, []
            for carrier, point in stars:
                ref, vid = ref_star_with_values(ref, carrier, point)
                ref_new.append(vid)
            assert g.complex.simplices == ref.complex.simplices
            assert g.complex.k_simplices(1) == ref.complex.k_simplices(1)
            assert fraction_values(g) == fraction_values(ref)
            assert new == ref_new
            assert star_complex(c, carriers(stars)) == (ref.complex, ref_new)
            lineage = extend_lineage(None, stars, new)
            for vid in new:
                assert evaluate(f, lineage[vid]) == g.value(vid)

        check()

    def test_kernel_matches_face_scan(self):
        """The kernel gives the new ids, the simplex set and every nonempty
        coface-index entry of the face scan it replaced, on random closures
        up to dimension 3 and every batch pattern."""
        kinds = Counter()

        @settings(derandomize=True, deadline=None, max_examples=150)
        @given(st.integers(0, 2 ** 32))
        def check(seed):
            rng = random.Random(seed)
            c = random_complex(rng, max_dim=3, max_vertices=6, n_maximal=3)
            first_id = (c.vertices or (-1,))[-1] + 1
            for pattern in BATCH_PATTERNS:
                batch = carriers(pattern(rng, c))
                runs = []
                for kernel in (star_at_point, ref_star_in_place):
                    simplices, cofaces = set(c.simplices), coface_index(c.simplices)
                    ids = kernel(simplices, cofaces, batch, first_id)
                    runs.append((ids, simplices, {v: s for v, s in cofaces.items() if s}))
                assert runs[0] == runs[1], (pattern.__name__, batch)
                simplices, cofaces = set(c.simplices), coface_index(c.simplices)
                for new_id, carrier in enumerate(batch, first_id):
                    kinds[("vertex", "edge", "triangle+")[min(len(carrier), 3) - 1]] += 1
                    if len(carrier) == 2:
                        top = max(map(len, set.intersection(*(cofaces[v] for v in carrier))))
                        kinds["edge in a tetrahedron"] += top == 4
                        kinds["edge made in the batch"] += carrier[1] >= first_id
                    ref_star_in_place(simplices, cofaces, [carrier], new_id)

        check()
        floors = {"vertex": 150, "edge": 600, "triangle+": 150, "edge in a tetrahedron": 300,
                  "edge made in the batch": 100}
        assert all(kinds[k] >= n for k, n in floors.items()), kinds

    def test_carrier_removed_earlier_in_the_batch(self):
        c = closure([[1, 2, 3]])
        t = Simplex.of([1, 2, 3])
        with pytest.raises(ValueError):
            star_complex(c, [Simplex.of([1, 2]), t])

    def test_removed_carrier_random(self):
        rng = random.Random(8)
        for _ in range(20):
            c = random_complex(rng, max_dim=3, max_vertices=6, n_maximal=3)
            s = rng.choice([t for t in sorted(c.simplices) if t.dim > 0] or [None])
            if s is None:
                continue
            coface = rng.choice([t for t in sorted(c.simplices)
                                 if set(s.vertices) <= set(t.vertices)])
            with pytest.raises(ValueError):
                star_complex(c, [s, coface])


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
        x2 = make_full(x, a)
        assert len(x2.k_simplices(1)) == 2
        assert full_subcomplex(x2, set(a.vertices)).simplices == a.simplices

    def test_already_full_identity(self):
        x = closure([[1, 2, 3]])
        a = closure([[1, 2]])
        x2 = make_full(x, a)
        assert x2 == x

    def test_hollow_triangle_in_filled(self):
        x = make_full(closure([[1, 2, 3]]), closure([[1], [2], [3]]))
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
            a = Complex(a_set)
            x2 = make_full(x, a)
            assert full_subcomplex(x2, set(a.vertices)).simplices == a.simplices


class TestComponents:
    def test_examples(self):
        assert connected_components(closure([[1, 2], [4, 5]])) == [{1, 2}, {4, 5}]
        assert connected_components(closure([])) == []
        assert connected_components(closure([[1, 2], [2, 3]])) == [{1, 2, 3}]


class TestCoboundary:
    def test_boundary_signs_and_faces(self):
        """Faces in deletion order with alternating signs, equal (and
        hashing equal) to the validated simplices on the same vertices."""
        want = [(1, Simplex.of([3, 5, 8])), (-1, Simplex.of([1, 5, 8])),
                (1, Simplex.of([1, 3, 8])), (-1, Simplex.of([1, 3, 5]))]
        faces = list(Simplex.of([1, 3, 5, 8]).boundary())
        assert faces == want
        assert [hash(face) for _, face in faces] == [hash(face) for _, face in want]
        with pytest.raises(ValueError, match="empty simplex"):
            list(Simplex.of([4]).boundary())

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
        assert permutation_parity([1, 2, 3]) == 1
        assert permutation_parity([2, 1, 3]) == -1
        cochain = IntCochain(1, {Simplex.of([1, 2]): 5})
        assert permutation_parity([2, 1]) * cochain(Simplex.of([2, 1])) == -5
