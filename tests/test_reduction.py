import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robsat import pl_map, reduction, robustness
from robsat.complex_core import Complex, closure, connected_components, full_subcomplex
from robsat.pl_map import CriticalValue, Norm, PLMap, _exact_map, simplex_min, vector_norm
from robsat.reduction import (
    LevelPair,
    ReductionError,
    SphereMap,
    build_chi,
    sign_refinement,
    simplicial_approximation,
    split_level,
    star_crossings,
    sublevel,
    vertexwise_extremal_subdivision,
)
from robsat.robustness import (
    RobTag,
    RobVerdict,
    decide_robsat,
    decide_with_inequalities,
)

from helpers import (
    LARGE_PRIMES,
    assert_canonical,
    compose_automorphism,
    contains_point,
    fraction_values,
    path_map,
    random_complex,
    random_map,
    random_point_in,
    ref_sign_refinement,
    ref_simplicial_approximation,
    ref_split_inequality_levels,
    ref_split_level,
    ref_validate,
)
from reference_oracles import (
    derived_subdivision,
    evaluate,
    interior_argmin,
    ref_derived_pass_loop,
    ref_is_simplicial,
    ref_star_crossings,
    ref_vertexwise_extremal_subdivision,
)

HALF = Fraction(1, 2)


def as_pass(h):
    """A rational function on vertices as a `star_crossings` pass: vertex
    and pair to h's (num, den)."""
    pairs = {v: (Fraction(x).numerator, Fraction(x).denominator) for v, x in h.items()}
    return lambda v, _: pairs[v]


def level_passes(n: int, m: int, alpha: Fraction) -> list:
    """The inequality-level passes of a joined map with m coordinates whose
    first n are f's: pass i is g_i + alpha, (q nums_i + p den, q den) for
    alpha = p / q."""
    p, q = alpha.numerator, alpha.denominator
    return [lambda v, y, i=i: (q * y[0][i] + p * y[1], q * y[1]) for i in range(n, m)]


def star_map(f: PLMap, passes, first_id=None) -> tuple[PLMap, list]:
    """`star_crossings` on f's whole complex, every vertex scanned: the
    starred map and the new ids, numbered on from first_id (by default one
    past f's largest vertex)."""
    simplices, pairs = set(f.complex.simplices), dict(f._pairs)
    if first_id is None:
        first_id = (f.complex.vertices or (-1,))[-1] + 1
    new = star_crossings(simplices, pairs, passes,
                         [{v: h(v, y) for v, y in f._pairs.items()} for h in passes], first_id)
    return _exact_map(Complex(simplices), f.n, pairs), new


def sublevel_map(f: PLMap, passes) -> tuple[PLMap, int | None]:
    """`sublevel`'s cut as a map, and its next id."""
    cut, pairs, next_id = sublevel(f, passes)
    return _exact_map(Complex(cut), f.n, pairs), next_id


def split_inequality_levels(h: PLMap, n: int, alpha: Fraction) -> tuple[PLMap, list]:
    """The inequality-level starrings, before `sublevel` cuts U: h split
    by one `star_crossings` call of the g + alpha passes, and the passes."""
    passes = level_passes(n, h.n, alpha)
    return star_map(h, passes)[0], passes


class TestSphereMap:
    def test_antipodal_free(self):
        edge, tri = closure([[0, 1]]), closure([[0, 1, 2]])
        SphereMap(closure([[0]]), 2, {0: 1})
        SphereMap(edge, 2, {0: 1, 1: 2})
        SphereMap(edge, 2, {0: 1, 1: 1})  # collapses are allowed
        for domain, labels in [(edge, {0: 1, 1: -1}), (tri, {0: 1, 1: 2, 2: -1})]:
            with pytest.raises(ValueError, match="antipodal"):
                SphereMap(domain, 2, labels)

    def test_no_n_simplices(self):
        """n + 1 labels in range always hold an antipodal pair."""
        tet = closure([[0, 1, 2, 3]])
        with pytest.raises(ValueError, match="antipodal"):
            SphereMap(tet, 3, {0: 1, 1: 2, 2: 3, 3: -1})
        SphereMap(closure([[0, 1, 2]]), 3, {0: 1, 1: 2, 2: 3})  # dim n-1
        with pytest.raises(ValueError, match="bad sphere vertex 4"):
            SphereMap(tet, 3, {0: 1, 1: 2, 2: 3, 3: 4})

    @pytest.mark.parametrize("simplex, labels, edge", [
        ([0, 1], {0: 2, 1: -2}, "[0, 1]"),
        ([0, 1, 2], {0: -1, 1: 3, 2: 1}, "[0, 2]"),
        ([0, 1, 2, 3], {0: 2, 1: 1, 2: 3, 3: -3}, "[2, 3]"),
    ], ids=["edge", "triangle", "tetrahedron"])
    def test_rejects_antipodal_pairs(self, simplex, labels, edge):
        """An antipodal label pair in a simplex is one on an edge, and the
        constructor names that edge."""
        with pytest.raises(ValueError, match=re.escape(f"edge {edge} has antipodal images")):
            SphereMap(closure([simplex]), 3, labels)

    def test_accepts_collapses(self):
        """Several vertices of one simplex may share a label."""
        tet = closure([[0, 1, 2, 3]])
        fmap = SphereMap(tet, 3, {0: -2, 1: -2, 2: 3, 3: -2})
        assert [fmap.image(v) for v in tet.vertices] == [-2, -2, 3, -2]

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.integers(0, 2 ** 32), st.integers(1, 3))
    def test_constructor_accepts_exactly_the_simplicial_maps(self, seed, n):
        """The edge check accepts a label map iff the per-simplex reference
        does, on random complexes of dimension up to 3."""
        rng = random.Random(seed)
        domain = random_complex(rng, max_dim=3, max_vertices=6, n_maximal=3)
        labels = {v: rng.choice([1, -1]) * rng.randint(1, n) for v in domain.vertices}
        try:
            SphereMap(domain, n, labels)
        except ValueError:
            accepted = False
        else:
            accepted = True
        assert accepted == ref_is_simplicial(domain, labels)

    @pytest.mark.parametrize("labels", [{0: 5, 1: -7}, {0: 1, 1: -3}, {0: 0, 1: 1}])
    def test_rejects_labels_out_of_range(self, labels):
        """A label is +-i for 1 <= i <= n: no other label names a vertex of
        the sphere."""
        with pytest.raises(ValueError, match="bad sphere vertex"):
            SphereMap(closure([[0, 1]]), 2, labels)


class TestExtremalSubdivision:
    def test_worked_path(self):
        f = vertexwise_extremal_subdivision(path_map([3, -1, 3]), Norm.LINF)
        assert sorted(v[0] for v in fraction_values(f).values()) == [-1, 0, 0, 3, 3]

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


def map_on_simplex_set(rng: random.Random) -> PLMap:
    """A map on the closure of one to three random simplices of dimension
    1-3 on at most six vertices, with n = 1-3 and half-integer coordinates
    in [-5, 5].  The vertex values come from a pool of at most six, so
    norms tie and values repeat."""
    n = rng.randint(1, 3)
    cx = closure([rng.sample(range(6), rng.randint(2, 4)) for _ in range(rng.randint(1, 3))])
    pool = [tuple(Fraction(rng.randint(-10, 10), 2) for _ in range(n))
            for _ in range(rng.randint(1, 6))]
    return PLMap(cx, n, {v: rng.choice(pool) for v in cx.vertices})


@pytest.mark.parametrize("norm", list(Norm))
def test_extremal_stage_matches_derived_pass_loop(norm):
    """The stage that examines only the cones of the last pass gives
    exactly what the derived-pass loop over every simplex gave: the same
    simplices and vertex values, new vertex ids included, and its map's
    vertex-norm table holds |f(v)| at exactly its vertices.  It computes
    each vertex norm once: each pass extends the previous pass's table with
    its new vertices, and `simplex_min` reads the table of the map it is
    given."""
    seen = Counter()

    def counted_norm(*args):
        seen["vector_norm calls"] += 1
        return vector_norm(*args)

    # Seeds on which one derived pass does not suffice, at least five per
    # norm (l1: 33 65 118 169 187, l2: 30 33 65 116 169 170 187 291, linf:
    # 30 116 118 170 291), so the count below does not depend on the drawn
    # examples, which change with any edit to this function's source.
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.integers(0, 2 ** 32))
    @example(30)
    @example(33)
    @example(65)
    @example(116)
    @example(118)
    @example(169)
    @example(170)
    @example(187)
    @example(291)
    def check(seed):
        f = map_on_simplex_set(random.Random(seed))
        ref = ref_derived_pass_loop(f, norm)
        seen["vector_norm calls"] = 0
        cold = PLMap(f.complex, f.n, fraction_values(f))  # the reference filled f's table
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reduction, "vector_norm", counted_norm)
            mp.setattr(pl_map, "vector_norm", counted_norm)
            out = vertexwise_extremal_subdivision(cold, norm)
        assert seen.pop("vector_norm calls") == len(out.complex.vertices)
        assert_canonical(out)
        assert out.complex.simplices == ref.complex.simplices
        assert fraction_values(out) == fraction_values(ref)
        assert out.vertex_norms(norm) == {v: vector_norm(y, norm)
                                          for v, y in fraction_values(ref).items()}
        one_pass = derived_subdivision(f, lambda g, s: interior_argmin(g, s, norm))
        seen["starred"] += one_pass is not f
        seen["more passes"] += one_pass != ref

    check()
    assert seen["starred"] >= 60 and seen["more passes"] >= 5, seen


@pytest.mark.parametrize("norm", list(Norm))
def test_in_place_extremal_stage_matches_per_pass_copies(norm):
    """The extremal stage, which edits one simplex set, cofaces index, pair
    table and norm table in place, gives exactly what the loop that starred
    each pass on a copy and rescanned every simplex for its cones gave: the
    same simplices, the same pairs under the same ids and the same norm
    table, on maps up to dimension 3 with n = 1-3 over large, pairwise
    coprime vertex denominators; and subdividing its result again returns
    it.  A call that stars builds one cofaces index, one that does not
    builds none, and none builds more complexes than it has starring
    passes (each pass is one `star_at_point` batch)."""
    seen = Counter()

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.integers(0, 2 ** 32))
    def check(seed):
        rng = random.Random(seed)
        cx = random_complex(rng, max_dim=3, max_vertices=6, n_maximal=3)
        f = coprime_map(rng, cx, rng.randint(1, 3))
        ref = ref_vertexwise_extremal_subdivision(f, norm)
        counts = Counter()

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        cold = PLMap(f.complex, f.n, fraction_values(f))  # the reference filled f's table
        with pytest.MonkeyPatch.context() as mp:
            for name in ("coface_index", "Complex", "star_at_point"):
                mp.setattr(reduction, name, counted(name, getattr(reduction, name)))
            out = vertexwise_extremal_subdivision(cold, norm)
        assert counts["coface_index"] == min(counts["star_at_point"], 1)
        assert counts["Complex"] <= counts["star_at_point"]
        assert out.complex.simplices == ref.complex.simplices
        assert out._pairs == ref._pairs
        assert out.vertex_norms(norm) == ref.vertex_norms(norm)
        assert vertexwise_extremal_subdivision(out, norm) is out
        seen[min(counts["star_at_point"], 2)] += 1

    check()
    assert seen[1] >= 80 and seen[2] >= 12, seen


class TestBuildChi:
    def test_worked_values(self):
        f = vertexwise_extremal_subdivision(path_map([3, -1, 3]), Norm.LINF)
        chi = build_chi(f, CriticalValue.rat(1), Norm.LINF)
        by_value = {}
        for v in f.complex.vertices:
            by_value.setdefault(f.value(v)[0], set()).add(chi[v])
        assert by_value[Fraction(3)] == {Fraction(1)}
        assert by_value[Fraction(0)] == {Fraction(0)}
        assert by_value[Fraction(-1)] == {HALF}
        assert sum(x == HALF for x in chi.values()) == 1

    def test_alpha_above_everything(self):
        f = path_map([1, 2, 1])
        chi = build_chi(f, CriticalValue.rat(10), Norm.LINF)
        assert set(chi.values()) == {Fraction(0)}

    def test_exact_hit(self):
        f = path_map([1, 2])
        chi = build_chi(f, CriticalValue.rat(2), Norm.LINF)
        assert chi[1] == HALF


class TestSplitLevel:
    def trace_pair(self):
        f = vertexwise_extremal_subdivision(path_map([3, -1, 3]), Norm.LINF)
        chi = build_chi(f, CriticalValue.rat(1), Norm.LINF)
        return split_level(f, chi)

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
        pair = split_level(f, {v: Fraction(0) for v in f.complex.vertices})
        assert pair.x == f.complex and pair.a.is_empty()

    def test_all_one_chi(self):
        f = path_map([5, 5])
        pair = split_level(f, {v: Fraction(1) for v in f.complex.vertices})
        assert pair.x.is_empty() and pair.a.is_empty()

    def test_no_01_edges_after(self):
        # the pair keeps only X, where no vertex has chi = 1
        pair = self.trace_pair()
        assert set(pair.chi) == set(pair.f.complex.vertices)
        assert all(c <= HALF for c in pair.chi.values())

    def test_pointwise_proxy(self):
        # p in |X| implies chi(p) <= 1/2, and p in |A| iff chi(p) = 1/2.
        # Points are carrier-local in the split complex: X and A are full
        # subcomplexes of it, so p lies in |X| iff its support simplex is in X,
        # which is what locating p with the identity lineage tests.
        rng = random.Random(3)
        pair = self.trace_pair()
        f = vertexwise_extremal_subdivision(path_map([3, -1, 3]), Norm.LINF)
        chi = build_chi(f, CriticalValue.rat(1), Norm.LINF)
        split, new = star_map(f, [as_pass({v: chi[v] - HALF for v in f.complex.vertices})])
        chi.update(dict.fromkeys(new, HALF))
        ambient = split.complex
        assert pair.x.simplices < ambient.simplices
        chi_map = PLMap(ambient, 1, {v: (chi[v],) for v in ambient.vertices})
        for _ in range(1000):
            carrier = rng.choice(sorted(ambient.simplices))
            p = random_point_in(rng, carrier)
            chi_val = evaluate(chi_map, p)[0]
            if contains_point(pair.x, p):
                assert chi_val <= HALF
            in_a = contains_point(pair.a, p)
            assert in_a == (chi_val == HALF)


class TestSignRefinement:
    def make_pair(self, f, chi=None):
        chi = chi or {v: HALF for v in f.complex.vertices}
        return LevelPair(f, chi)

    def test_splits_sign_change(self):
        cx = closure([[1, 2]])
        f = PLMap(cx, 2, {1: (2, 1), 2: (-2, 1)})
        out = sign_refinement(self.make_pair(f))
        assert (Fraction(0), Fraction(1)) in fraction_values(out.f).values()
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
        chi = build_chi(f, CriticalValue.rat(alpha), Norm.LINF)
        pair = split_level(f, chi)
        return simplicial_approximation(sign_refinement(pair))

    def test_worked_labels(self):
        fmap = self.run_pipeline([3, -1, 3], 1)
        assert sorted(fmap.assignment.values()) == [-1, 1, 1]

    def test_single_vertex_rules(self):
        cx = closure([[5]])
        for value, label in [((0, 5), 2), ((2, -2), 1), ((-3, 1), -1)]:
            f = PLMap(cx, 2, {5: value})
            pair = LevelPair(f, {5: HALF})
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
            chi = build_chi(f1, alpha, Norm.LINF)
            pair = split_level(f1, chi)
            if pair.a.is_empty():
                continue
            pair = sign_refinement(pair)
            fmap = simplicial_approximation(pair)  # validates internally
            assert ref_is_simplicial(fmap.domain, fmap.assignment)
            checked += 1
        assert checked >= 5

    def test_automorphism_composition(self):
        fmap = self.run_pipeline([3, -1, 3], 1)
        swapped = compose_automorphism(fmap, {1: -1})
        assert sorted(swapped.assignment.values()) == [-1, -1, 1]


def test_one_pair_built_and_validated_per_decision(monkeypatch):
    """A decision that reaches sign refinement builds X and A once each and
    validates the pair once: on a map that is already vertex-extremal, where
    the extremal stage builds nothing, the decision builds two complexes."""
    calls = {"Complex": 0, "validate": 0}
    init, validate = Complex.__init__, LevelPair.validate
    f = vertexwise_extremal_subdivision(path_map([3, -1, 3]), Norm.LINF)

    def counted_init(self, simplices):
        calls["Complex"] += 1
        init(self, simplices)

    def counted_validate(pair):
        calls["validate"] += 1
        return validate(pair)

    monkeypatch.setattr(Complex, "__init__", counted_init)
    monkeypatch.setattr(LevelPair, "validate", counted_validate)
    assert decide_robsat(f, 1, Norm.LINF).tag is RobTag.ROBUST_YES
    assert calls == {"Complex": 2, "validate": 1}


class TestExactChecks:
    """Each exact check of the reduction, failed on purpose."""

    def test_surviving_01_edge(self, monkeypatch):
        monkeypatch.setattr(reduction, "star_crossings", lambda *args: [])
        with pytest.raises(ReductionError, match="level split left the crossing edge"):
            decide_robsat(path_map([3, -1, 3]), 1, Norm.LINF)

    def test_surviving_mixed_edge(self, monkeypatch):
        # g + 1 is (-2, 1, 2) on the path: the edge (0, 1) crosses
        monkeypatch.setattr(reduction, "star_crossings", lambda *args: [])
        with pytest.raises(ReductionError, match="level split left the crossing edge"):
            decide_with_inequalities(path_map([3, -1, 3]), path_map([-3, 0, 1]), 1)

    def test_root_on_a(self):
        f = PLMap(closure([[1, 2]]), 2, {1: (1, 1), 2: (0, 0)})
        with pytest.raises(ReductionError, match="root"):
            LevelPair(f, {1: HALF, 2: HALF}).validate()

    def test_a_simplex_not_weakly_signed(self):
        f = PLMap(closure([[1, 2]]), 2, {1: (1, 1), 2: (-1, 1)})
        with pytest.raises(ReductionError, match="not weakly signed"):
            LevelPair(f, {1: HALF, 2: HALF}).validate()

    def test_extremality_postcondition(self, monkeypatch):
        # every argmin is put at a vertex of its simplex, so the picks star
        # nothing and the edges through the root stay
        monkeypatch.setattr(reduction, "simplex_min",
                            lambda f, s, norm: ((1,) + (0,) * s.dim,
                                                f.vertex_norms(norm)[s.vertices[0]]))
        with pytest.raises(ReductionError, match="vertex-extremality"):
            vertexwise_extremal_subdivision(path_map([3, -1, 3]), Norm.LINF)

    def test_unexamined_cones_fail_the_postcondition(self, monkeypatch):
        # pass 1 stars both edges at their zeros, and the kernel then drops
        # the new vertices from the cofaces index; pass 2 finds no cone to
        # examine, so the four new edges are never certified
        star = reduction.star_at_point

        def star_and_forget(simplices, cofaces, carriers, first_id):
            new = star(simplices, cofaces, carriers, first_id)
            for v in new:
                cofaces.pop(v)
            return new

        monkeypatch.setattr(reduction, "star_at_point", star_and_forget)
        with pytest.raises(ReductionError, match="vertex-extremality"):
            vertexwise_extremal_subdivision(path_map([3, -1, 3]), Norm.LINF)

    def test_checks_survive_optimize(self):
        # `python -O` strips asserts; every check above is an explicit raise,
        # and pytest.raises needs no assert.
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"{__file__}::TestExactChecks", "-k", "not optimize"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "6 passed" in proc.stdout


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(0, 2 ** 32))
def test_star_crossings_matches_fraction_interpolation(seed):
    """With f and h over large, pairwise coprime vertex denominators,
    `star_crossings` stars exactly the edges on which h changes sign
    strictly, in sorted order, and each new vertex gets the Fraction
    interpolation (1 - t) f(u) + t f(w) at t = h(u) / (h(u) - h(w)), stored
    as a reduced pair."""
    rng = random.Random(seed)
    cx = random_complex(rng, max_dim=2, max_vertices=6, n_maximal=3)
    n = rng.randint(1, 3)
    f = PLMap(cx, n, {v: tuple(Fraction(rng.randint(-5, 5), p) for _ in range(n))
                      for v, p in zip(cx.vertices, rng.sample(LARGE_PRIMES, len(cx.vertices)))})
    h = {v: Fraction(rng.randint(-3, 3), p)
         for v, p in zip(cx.vertices, rng.sample(LARGE_PRIMES, len(cx.vertices)))}
    f2, new = star_map(f, [as_pass(h)])
    assert (f2, new) == ref_star_crossings(f, [as_pass(h)])
    crossing = [e for e in cx.k_simplices(1) if h[e.vertices[0]] * h[e.vertices[1]] < 0]
    assert len(new) == len(crossing)
    for e, vid in zip(crossing, new):
        u, w = e.vertices
        t = h[u] / (h[u] - h[w])
        assert f2.value(vid) == tuple((1 - t) * a + t * b for a, b in zip(f.value(u), f.value(w)))
    assert_canonical(f2)


def coprime_map(rng: random.Random, cx, n: int) -> PLMap:
    """A map with small numerators over one large prime per vertex."""
    return PLMap(cx, n, {v: tuple(Fraction(rng.randint(-5, 5), p) for _ in range(n))
                         for v, p in zip(cx.vertices, rng.sample(LARGE_PRIMES, len(cx.vertices)))})


@pytest.mark.parametrize("norm", list(Norm))
def test_stages_store_reduced_pairs(norm):
    """The extremal stage, the level split, sign refinement and the
    inequality-level split store every vertex value as a reduced pair, on
    maps over large, pairwise coprime vertex denominators."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.integers(0, 2 ** 32))
    def check(seed):
        rng = random.Random(seed)
        cx = random_complex(rng, max_dim=2, max_vertices=6, n_maximal=3)
        n = rng.randint(1, 3)
        f = coprime_map(rng, cx, n)
        f1 = vertexwise_extremal_subdivision(f, norm)
        positive = sorted(cv for cv in f1.vertex_norms(norm).values() if not cv.is_zero())
        alpha = rng.choice(positive) if positive else CriticalValue.rat(1)
        pair = split_level(f1, build_chi(f1, alpha, norm))
        refined = sign_refinement(pair)
        g = coprime_map(rng, cx, rng.randint(1, 2))
        h = PLMap(cx, n + g.n, {v: f.value(v) + g.value(v) for v in cx.vertices})
        level = Fraction(rng.randint(0, 8), rng.choice(LARGE_PRIMES))
        split_h, _ = split_inequality_levels(h, n, level)
        u, _ = sublevel_map(h, level_passes(n, h.n, level))
        for m in (f1, pair.f, refined.f, split_h, u):
            assert_canonical(m)

    check()


def test_inequality_maps_are_built_from_pairs(monkeypatch):
    """`decide_with_inequalities` joins f and g, and restricts U's map to
    f's coordinates, in integer pair arithmetic: both maps equal the ones
    the Fraction view gives, stored as reduced pairs.  Restrictions whose
    pairs the cut to f's coordinates leaves unreduced must occur."""
    seen, captured = Counter(), {}

    def capture_split(h, passes):
        captured["joined"] = h
        out = sublevel(h, passes)
        captured["split"] = _exact_map(Complex(out[0]), h.n, out[1])
        return out

    def capture_decide(f_u, alpha, norm, assume_hopf=True):
        captured["f_u"] = f_u
        return RobVerdict(RobTag.UNKNOWN)

    monkeypatch.setattr(robustness, "sublevel", capture_split)
    monkeypatch.setattr(robustness, "decide_robsat", capture_decide)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.integers(0, 2 ** 32), st.integers(1, 3), st.integers(1, 2))
    def check(seed, n, k):
        rng = random.Random(seed)
        cx = random_complex(rng, max_dim=2, max_vertices=6, n_maximal=3)
        f, g = (rng.choice((coprime_map, random_map))(rng, cx, m) for m in (n, k))
        captured.clear()
        decide_with_inequalities(f, g, Fraction(rng.randint(0, 8), rng.choice((1, 2, 7919))) or 1)
        joined = captured["joined"]
        assert joined == PLMap(cx, n + k, {v: f.value(v) + g.value(v) for v in cx.vertices})
        assert_canonical(joined)
        if "f_u" in captured:
            f_u, split = captured["f_u"], captured["split"]
            assert f_u == PLMap(f_u.complex, n,
                                {v: split.value(v)[:n] for v in f_u.complex.vertices})
            assert_canonical(f_u)
            seen["reduced on U"] += any(f_u._pairs[v][1] != split._pairs[v][1]
                                        for v in f_u.complex.vertices)

    check()
    assert seen["reduced on U"] >= 10, seen


def assert_same_pair(pair, ref):
    """pair, which lives on X, is ref (on the ambient complex) cut to X, the
    full subcomplex on ref's chi <= 1/2 vertices: the same simplices, vertex
    ids, values and chi there, and the same A; and its next starring gets
    the id that ref's next starring would get."""
    keep = {v for v, c in ref.chi.items() if c <= HALF}
    assert pair.x is pair.f.complex
    assert pair.first_id == ref.f.complex.vertices[-1] + 1
    assert pair.x.simplices == full_subcomplex(ref.f.complex, keep).simplices
    assert fraction_values(pair.f) == {v: y for v, y in fraction_values(ref.f).items()
                                       if v in keep}
    assert pair.chi == {v: c for v, c in ref.chi.items() if v in keep}
    assert pair.a.simplices == ref.a.simplices


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("norm", list(Norm))
def test_star_crossings_matches_rescan_loops(norm, n):
    """The one-scan crossing routine gives exactly what the rescan-after-
    each-star loops it replaced gave: the same simplices, values, chi and
    new vertex ids, for the level split, the sign refinement and the
    inequality levels (k = 0, 1, 2 constraints).  The level pair lives on X
    and the references on the ambient complex, so the pairs are compared on
    X.  Cases where the split stars nothing and the largest vertex has
    chi = 1, so that it is cut, must occur: there the pair's next id must
    still go on past the cut vertex."""
    seen = Counter()

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.integers(0, 2 ** 32), st.integers(0, 2), st.booleans())
    def check(seed, k, least):
        rng = random.Random(seed)
        cx = random_complex(rng, max_dim=2, max_vertices=6, n_maximal=3)
        f = random_map(rng, cx, n)
        f1 = vertexwise_extremal_subdivision(f, norm)
        norms = [vector_norm(f1.value(v), norm) for v in f1.complex.vertices]
        positive = [cv for cv in norms if not cv.is_zero()]
        if least and positive:
            # chi >= 1/2 at every vertex, so the split stars nothing
            alpha = min(positive)
        else:
            # alpha at some vertex's norm puts chi = 1/2 labels on the input
            alpha = rng.choice(norms + [CriticalValue.rat(Fraction(rng.randint(1, 8), 2))])
        if alpha.is_zero():
            alpha = CriticalValue.rat(1)
        chi = build_chi(f1, alpha, norm)

        ref = ref_split_level(f1, chi)
        f2, new = star_map(f1, [as_pass({v: chi[v] - HALF for v in f1.complex.vertices})])
        assert f2 == ref.f
        assert new == sorted(set(ref.f.complex.vertices) - set(f1.complex.vertices))
        pair = split_level(f1, chi)
        assert_same_pair(pair, ref)
        refined, ref_refined = sign_refinement(pair), ref_sign_refinement(ref)
        assert_same_pair(refined, ref_refined)
        seen["split stars nothing, top vertex cut"] += (
            not new and chi[f1.complex.vertices[-1]] == 1)

        g = random_map(rng, cx, k)
        h = PLMap(cx, n + k, {v: f.value(v) + g.value(v) for v in cx.vertices})
        level = Fraction(rng.randint(0, 8), 2)
        assert split_inequality_levels(h, n, level)[0] == ref_split_inequality_levels(h, n, level)

    check()
    # For n = 1 the extremal stage stars every sign change at a root, and
    # the last root starred is the largest vertex, with chi = 0.
    assert n == 1 or seen["split stars nothing, top vertex cut"] >= 5, seen


def chi_pass(chi):
    """split_level's pass, chi - 1/2, reading chi = 1/2 at a vertex the
    split adds."""
    def level(v, _):
        c = chi.get(v, HALF)
        return 2 * c.numerator - c.denominator, 2 * c.denominator
    return level


def test_split_level_hands_on_the_chi_half_vertices():
    """`split_level` hands its pair the A-vertices its pass saw at zero, in
    place of the pair's scan of chi for 1/2: both sets must agree, which
    holds only while `sublevel` evaluates the pass at every vertex it adds.
    Splits that add vertices and inputs with chi = 1/2 labels must occur."""
    seen = Counter()

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.integers(0, 2 ** 32))
    def check(seed):
        rng = random.Random(seed)
        cx = random_complex(rng, max_dim=3, max_vertices=7, n_maximal=3)
        f = random_map(rng, cx, rng.randint(1, 2))
        chi = {v: rng.choice((Fraction(0), HALF, Fraction(1))) for v in cx.vertices}
        pair = split_level(f, chi)
        assert pair._half == {v for v, c in pair.chi.items() if c == HALF}
        seen["adds vertices"] += any(v not in chi for v in pair.chi)
        seen["keeps chi = 1/2 inputs"] += any(c == HALF for v, c in chi.items() if v in pair.chi)

    check()
    assert seen["adds vertices"] >= 20 and seen["keeps chi = 1/2 inputs"] >= 20, seen


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_sublevel_is_the_reference_starring_cut(k):
    """`sublevel` gives the rescan-after-each-star reference cut to the full
    subcomplex on the vertices where every pass is <= 0, stored as reduced
    pairs, and the next id one past the reference's largest vertex: for
    the chi pass (k = 0) and for k = 1-3 inequality-level passes g + alpha.
    Cuts that drop a vertex, and cuts that drop the largest one, so that
    the next id goes on past the cut's own largest vertex, must occur."""
    seen = Counter()

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.integers(0, 2 ** 32))
    def check(seed):
        rng = random.Random(seed)
        cx = random_complex(rng, max_dim=2, max_vertices=6, n_maximal=3)
        n = rng.randint(1, 2)
        if k == 0:
            f = random_map(rng, cx, n)
            chi = {v: rng.choice((Fraction(0), HALF, Fraction(1))) for v in cx.vertices}
            ref = ref_split_level(f, chi)
            ref_f, keep = ref.f, {v for v, c in ref.chi.items() if c <= HALF}
            passes = [chi_pass(chi)]
        else:
            f = random_map(rng, cx, n + k)
            level = Fraction(rng.randint(0, 8), rng.choice((1, 2, 3)))
            ref_f = ref_split_inequality_levels(f, n, level)
            keep = {v for v, y in fraction_values(ref_f).items()
                    if all(x + level <= 0 for x in y[n:])}
            passes = level_passes(n, f.n, level)
        out, next_id = sublevel_map(f, passes)
        top = ref_f.complex.vertices[-1]
        assert out.complex.simplices == full_subcomplex(ref_f.complex, keep).simplices
        assert fraction_values(out) == {v: y for v, y in fraction_values(ref_f).items()
                                        if v in keep}
        assert next_id == top + 1
        assert_canonical(out)
        seen["drops a vertex"] += len(keep) < len(ref_f.complex.vertices)
        seen["drops the largest vertex"] += top not in keep

    check()
    assert seen["drops a vertex"] >= 10 and seen["drops the largest vertex"] >= 5, seen


@pytest.mark.parametrize("n", [1, 2, 3])
def test_near_x_stages_match_the_unfiltered_references(n):
    """The level stages that drop the simplices far from the cut before
    starring, and whose sign passes scan only A-edges, give what the
    unfiltered rescan references give, on complexes of dimension 0-3.  The
    level pair is `ref_sign_refinement(ref_split_level(f, chi))` cut to X:
    the same simplices, vertex ids, pairs, chi, A and `first_id` (or, where
    f has a root on A, both fail validation).  `sublevel` of 1-3 g + alpha
    passes is the cut of `ref_split_inequality_levels` where every pass is
    <= 0, with the same next id.  Cases where the filter drops simplices,
    where the cut drops the largest vertex, and where X or A is empty must
    occur."""
    seen = Counter()

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.integers(0, 2 ** 32), st.integers(1, 3))
    def check(seed, k):
        rng = random.Random(seed)
        cx = random_complex(rng, max_dim=3, max_vertices=7, n_maximal=3)
        f = random_map(rng, cx, n)
        labels = rng.choice([(Fraction(0), HALF, Fraction(1))] * 3
                            + [(HALF, Fraction(1)), (Fraction(0), Fraction(1)), (Fraction(0),),
                               (Fraction(1),)])
        chi = {v: rng.choice(labels) for v in cx.vertices}
        ref = ref_sign_refinement(ref_split_level(f, chi))
        try:
            pair = sign_refinement(split_level(f, chi))
        except ReductionError:
            with pytest.raises(ReductionError):
                ref_validate(ref, Norm.LINF)
        else:
            assert_same_pair(pair, ref)
            seen["split filter drops"] += any(all(chi[v] == 1 for v in s) for s in cx.simplices)
            seen["cut largest vertex"] += ref.chi[ref.f.complex.vertices[-1]] == 1
            seen["empty X"] += pair.x.is_empty()
            seen["empty A"] += pair.a.is_empty() and not pair.x.is_empty()

        h = PLMap(cx, n + k, {v: f.value(v) + random_map(rng, cx, k).value(v)
                              for v in cx.vertices})
        level = Fraction(rng.randint(0, 8), rng.choice((1, 2, 3)))
        ref_h = ref_split_inequality_levels(h, n, level)
        keep = {v for v, y in fraction_values(ref_h).items() if all(x + level <= 0 for x in y[n:])}
        out, next_id = sublevel_map(h, level_passes(n, h.n, level))
        assert out.complex.simplices == full_subcomplex(ref_h.complex, keep).simplices
        assert fraction_values(out) == {v: y for v, y in fraction_values(ref_h).items()
                                        if v in keep}
        assert next_id == ref_h.complex.vertices[-1] + 1
        seen["inequality filter drops"] += any(
            all(x + level > 0 for v in s for x in h.value(v)[n:]) for s in cx.simplices)

    check()
    assert min(seen[key] for key in ("split filter drops", "cut largest vertex", "empty X",
                                     "empty A", "inequality filter drops")) >= 10, seen


def sign_passes(pair: LevelPair) -> list:
    """sign_refinement's passes on a whole map: f_i on A and 0 off it, so
    that only A-edges cross, as when the passes scan only A."""
    off = {v for v, c in pair.chi.items() if c != HALF}
    return [lambda v, y, i=i: (0, 1) if v in off else (y[0][i], y[1]) for i in range(pair.f.n)]


def pass_by_pass(f, passes, first_id):
    """star_crossings called once per pass, each numbering on from the last;
    also the number of passes that starred."""
    new, starring = [], 0
    for h in passes:
        f, ids = star_map(f, [h], new[-1] + 1 if new else first_id)
        new += ids
        starring += bool(ids)
    return f, new, starring


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_call_runs_the_passes_in_order(n):
    """One k-pass `star_crossings` call gives the same map and new ids as k
    one-pass calls, each numbering on from the last, for the sign-refinement
    passes (k = n) and the inequality-level passes (k = 1-3); and both
    equal the rescan-after-each-star references.  Calls in which at least
    two passes star, so that a pass reads the pairs an earlier one
    interpolated and numbers on from its last id, must occur."""
    seen = Counter()

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.integers(0, 2 ** 32), st.integers(1, 3), st.integers(0, 3))
    def check(seed, k, gap):
        rng = random.Random(seed)
        cx = random_complex(rng, max_dim=2, max_vertices=6, n_maximal=3)
        f = random_map(rng, cx, n)
        pair = LevelPair(f, {v: rng.choice((Fraction(0), HALF, HALF)) for v in cx.vertices})
        first = cx.vertices[-1] + 1 + gap
        passes = sign_passes(pair)
        out, new = star_map(f, passes, first)
        *by_pass, starring = pass_by_pass(f, passes, first)
        assert (out, new) == tuple(by_pass) == ref_star_crossings(f, passes, first)
        seen["sign passes"] += starring > 1
        ref = ref_sign_refinement(pair)
        assert star_map(f, passes) == (ref.f, sorted(set(ref.f.complex.vertices)
                                                     - set(cx.vertices)))

        h = PLMap(cx, n + k, {v: f.value(v) + random_map(rng, cx, k).value(v)
                              for v in cx.vertices})
        level = Fraction(rng.randint(0, 4), 2)
        split, passes = split_inequality_levels(h, n, level)
        assert split == ref_split_inequality_levels(h, n, level)
        out, new = star_map(h, passes, first)
        *by_pass, starring = pass_by_pass(h, passes, first)
        assert (out, new) == tuple(by_pass) == ref_star_crossings(h, passes, first)
        seen["level passes"] += starring > 1

    check()
    assert seen["sign passes"] >= (0 if n == 1 else 10) and seen["level passes"] >= 10, seen


def test_each_level_stage_calls_star_crossings_once(monkeypatch):
    """A decision calls `star_crossings` once per level stage: one pass for
    the level split, n for the sign refinement and g.n for the inequality
    levels."""
    calls = []

    def counted(simplices, pairs, passes, values, first_id):
        calls.append(len(passes))
        return star_crossings(simplices, pairs, passes, values, first_id)

    monkeypatch.setattr(reduction, "star_crossings", counted)
    f = PLMap(closure([[0, 1], [1, 2]]), 2, {0: (3, 2), 1: (-1, -2), 2: (3, 1)})
    decide_robsat(f, 1, Norm.LINF)
    assert calls == [1, 2]
    calls.clear()
    g = PLMap(f.complex, 3, {0: (-3, -3, -1), 1: (-3, -2, -2), 2: (-1, -3, 0)})
    decide_with_inequalities(f, g, 1)
    assert calls == [3, 1, 2]


def test_numbering_goes_on_past_a_cut_vertex():
    """The split stars nothing and cuts the largest vertex 2 (chi = 1); the
    sign refinement then stars the A-edge (0, 1), whose second coordinate
    changes sign at constant max norm, and numbers the new vertex 3."""
    f = PLMap(closure([[0, 1], [1, 2]]), 2, {0: (2, 1), 1: (2, -1), 2: (5, 5)})
    assert vertexwise_extremal_subdivision(f, Norm.LINF).complex == f.complex
    chi = build_chi(f, CriticalValue.rat(2), Norm.LINF)
    pair = split_level(f, chi)
    assert pair.x.vertices == (0, 1) and pair.first_id == 3
    refined = sign_refinement(pair)
    assert fraction_values(refined.f) == {0: (2, 1), 1: (2, -1), 3: (2, 0)}
    assert_same_pair(refined, ref_sign_refinement(ref_split_level(f, chi)))


def random_level_pair(rng: random.Random, n: int) -> LevelPair:
    """A pair with arbitrary chi labels 0 and 1/2 on a complex of dimension
    0-3; the pair lives on X, so no vertex has chi = 1.  Each
    coordinate of f is either one-signed or of mixed sign across the
    vertices, and zero a quarter of the time, so random pairs pass and fail
    each check of the level pair."""
    cx = random_complex(rng, max_dim=3, max_vertices=6, n_maximal=3)
    signs = [rng.choice((1, -1, None)) for _ in range(n)]
    values = {v: tuple(Fraction(rng.randint(0, 3) * (sign or rng.choice((1, -1))))
                       for sign in signs)
              for v in cx.vertices}
    chi = {v: rng.choice((Fraction(0), HALF, HALF, HALF)) for v in cx.vertices}
    return LevelPair(PLMap(cx, n, values), chi)


def vertex_label(y) -> int:
    """The signed index of y's largest-magnitude coordinate (smallest index
    on ties), the sphere vertex `simplicial_approximation` assigns."""
    best = max(range(len(y)), key=lambda i: (abs(y[i]), -i))
    return (best + 1) if y[best] > 0 else -(best + 1)


def sphere_labels(approximate, pair):
    """The assignment `approximate` gives the pair, or None if it raises."""
    try:
        return approximate(pair).assignment
    except ReductionError:
        return None


def test_edge_local_checks_match_per_simplex_reference():
    """The edge-local `LevelPair.validate` and `simplicial_approximation`
    raise on exactly the random pairs on which the per-simplex versions they
    replaced raise, and otherwise give the same sphere map.  The sphere map
    is also compared alone on pairs with no root on A, which is all it
    assumes, so that its open-star check is exercised beyond what
    validation leaves to fail; among those pairs, the ones with an A-edge
    whose ends get antipodal labels must occur, because the open-star check
    alone stands for the simpliciality check the reference makes."""
    seen = {"raised": 0, "mapped": 0, "open star raised": 0,  # "mapped": with an A-edge
            "antipodal A-edge": 0}

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(st.integers(0, 2 ** 32), st.integers(1, 3), st.sampled_from(list(Norm)))
    def check(seed, n, norm):
        pair = random_level_pair(random.Random(seed), n)

        def new(p):
            p.validate()
            return simplicial_approximation(p)

        def ref(p):
            ref_validate(p, norm)
            return ref_simplicial_approximation(p)

        labels = sphere_labels(new, pair)
        assert labels == sphere_labels(ref, pair)
        if labels is None:
            seen["raised"] += 1
        else:
            seen["mapped"] += bool(pair.a.k_simplices(1))
        if all(any(pair.f.value(v)) for v in pair.a.vertices):
            labels = sphere_labels(simplicial_approximation, pair)
            assert labels == sphere_labels(ref_simplicial_approximation, pair)
            seen["open star raised"] += labels is None
            label = {v: vertex_label(pair.f.value(v)) for v in pair.a.vertices}
            seen["antipodal A-edge"] += any(label[u] == -label[w]
                                            for u, w in pair.a.k_simplices(1))

    check()
    assert min(seen.values()) >= 30, seen
