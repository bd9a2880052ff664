import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robsat.complex_core import (
    Complex,
    IntCochain,
    Simplex,
    closure,
    apply_coboundary,
    full_subcomplex,
)
from robsat.grid import freudenthal_grid
from robsat.homotopy import (
    DiophantineSystem,
    ExtendTag,
    build_extension_system,
    cocycle_extension_solvable,
    decide_extension,
    degree,
    pullback_cocycle,
    smith_solve,
    verify_extension_certificate,
)
from robsat.reduction import SphereMap

from helpers import (
    compose_automorphism,
    annulus_octagon,
    annulus_sphere_map,
    boundary_cycle_chain,
    disk_square,
    dense_matrix,
    ref_build_extension_system,
    ref_smith_solve,
    solves,
    sparse_system,
)
from reference_oracles import brute_diophantine, winding_oracle


class TestSmithSolve:
    def test_examples(self):
        assert smith_solve(sparse_system([[2]], [4], 1)) == [2]
        assert smith_solve(sparse_system([[2]], [3], 1)) is None
        sol = smith_solve(sparse_system([[2, 3]], [1], 2))
        assert sol is not None and 2 * sol[0] + 3 * sol[1] == 1

    def test_empty_system(self):
        assert smith_solve(DiophantineSystem([], [], 0)) == []
        assert smith_solve(sparse_system([[0, 0]], [1], 2)) is None

    def test_against_brute_force(self):
        rng = random.Random(10)
        for _ in range(150):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            mat = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
            rhs = [rng.randint(-4, 4) for _ in range(m)]
            s = smith_solve(sparse_system(mat, rhs, n))
            bt = brute_diophantine(mat, rhs, 8)
            if bt is not None:
                assert s is not None
            if s is None:
                assert bt is None
            if s is not None and all(abs(x) <= 8 for x in s):
                assert bt is not None


class TestPullback:
    def test_distinguished_edge(self):
        edge = closure([[0, 1]])
        m = SphereMap(edge, 2, {0: 1, 1: 2})
        assert pullback_cocycle(m)(Simplex.of([0, 1])) == 1

    def test_non_distinguished(self):
        edge = closure([[0, 1]])
        assert pullback_cocycle(SphereMap(edge, 2, {0: 1, 1: -2})).values == {}

    def test_odd_permutation_n3(self):
        tri = closure([[0, 1, 2]])
        m = SphereMap(tri, 3, {0: 2, 1: 1, 2: 3})
        assert pullback_cocycle(m)(Simplex.of([0, 1, 2])) == -1


class TestCocycleExtension:
    def test_empty_a(self):
        disk, _ = disk_square()
        empty = Complex(frozenset())
        z = IntCochain(1)
        assert cocycle_extension_solvable(disk, empty, z) is not None

    def test_annulus_equal_windings_solvable(self):
        ann, a = annulus_octagon()
        z = pullback_cocycle(annulus_sphere_map(a, 1, 1))
        w = cocycle_extension_solvable(ann, a, z)
        assert w is not None
        assert verify_extension_certificate(ann, a, z, w)

    def test_annulus_mismatched_windings_unsolvable(self):
        ann, a = annulus_octagon()
        z = pullback_cocycle(annulus_sphere_map(a, 1, 2))
        assert cocycle_extension_solvable(ann, a, z) is None

    def test_disk_obstruction_brute_crosscheck(self):
        # small enough for bounded brute force on the raw integer system
        disk, bdry = disk_square()
        ident = SphereMap(bdry, 2, {0: 1, 1: 2, 2: -1, 3: -2})
        z = pullback_cocycle(ident)
        assert cocycle_extension_solvable(disk, bdry, z) is None
        system, _ = build_extension_system(disk, bdry, z)
        assert brute_diophantine(dense_matrix(system), system.rhs, 2) is None


class TestDecideExtension:
    def test_s0_rules(self):
        p = closure([[0, 1], [1, 2], [2, 3], [3, 4]])
        a = full_subcomplex(p, {0, 2, 4})
        bad = SphereMap(a, 1, {0: 1, 2: -1, 4: 1})
        assert decide_extension(p, a, bad, 1).tag == ExtendTag.NOT_EXTENDS
        good = SphereMap(a, 1, {0: -1, 2: -1, 4: -1})
        verdict = decide_extension(p, a, good, 1)
        assert verdict.tag == ExtendTag.EXTENDS
        assert set(verdict.vertex_extension.values()) == {-1}

    def test_s0_two_components(self):
        p = closure([[0, 1], [5, 6]])
        a = full_subcomplex(p, {0, 5})
        mixed = SphereMap(a, 1, {0: 1, 5: -1})
        assert decide_extension(p, a, mixed, 1).tag == ExtendTag.EXTENDS

    def test_disk_boundary_degree_one(self):
        disk, bdry = disk_square()
        ident = SphereMap(bdry, 2, {0: 1, 1: 2, 2: -1, 3: -2})
        assert decide_extension(disk, bdry, ident, 2).tag == ExtendTag.NOT_EXTENDS

    def test_empty_a_extends(self):
        disk, _ = disk_square()
        empty = Complex(frozenset())
        v = decide_extension(disk, empty, SphereMap(empty, 2, {}), 2)
        assert v.tag == ExtendTag.EXTENDS

    def test_certificates_reverify(self):
        disk, bdry = disk_square()
        const = SphereMap(bdry, 2, {0: 1, 1: 1, 2: 1, 3: 1})
        v = decide_extension(disk, bdry, const, 2)
        assert v.tag == ExtendTag.EXTENDS
        z = pullback_cocycle(const)
        assert verify_extension_certificate(disk, bdry, z, v.w)

    def test_unknown_beyond_range(self):
        # X contains a 4-simplex, n = 3, constant map: solvable system, honest Unknown.
        faces = [[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)]
        a = closure(faces)
        x = closure([f + [6] for f in faces] + [[6, 7, 8, 9, 10]])
        const = SphereMap(a, 3, {v: 1 for v in a.vertices})
        v = decide_extension(x, a, const, 3)
        assert v.tag == ExtendTag.UNKNOWN

    def test_hopf_flag(self):
        # octahedron boundary as A inside its cone: dim X = 3 = n
        faces = [[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)]
        a = closure(faces)
        x = closure([f + [6] for f in faces])
        const = SphereMap(a, 3, {v: 1 for v in a.vertices})
        assert decide_extension(x, a, const, 3, assume_hopf=True).tag == ExtendTag.EXTENDS
        assert decide_extension(x, a, const, 3, assume_hopf=False).tag == ExtendTag.UNKNOWN

    def test_identity_on_octahedron_boundary_in_cone(self):
        # the identity sphere map on A = boundary of the octahedron does not
        # extend over the cone (nonzero degree), and the system detects it
        faces = [[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)]
        a = closure(faces)
        x = closure([f + [6] for f in faces])
        labels = {0: 1, 1: -1, 2: 2, 3: -2, 4: 3, 5: -3}
        ident = SphereMap(a, 3, labels)
        assert ident.is_simplicial()
        assert decide_extension(x, a, ident, 3).tag == ExtendTag.NOT_EXTENDS


class TestAutomorphismInvariance:
    def orientation_preserving_automorphisms(self, rng, n=2):
        # signed permutation with determinant +1
        while True:
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            signs = [rng.choice((1, -1)) for _ in range(n)]
            # determinant of the signed permutation matrix
            parity = 1
            seen = perm[:]
            det = 1
            for s in signs:
                det *= s
            inv = 0
            for i in range(n):
                for j in range(i + 1, n):
                    if seen[i] > seen[j]:
                        inv += 1
            det *= (-1) ** inv
            if det == 1:
                return {i + 1: signs[i] * perm[i] for i in range(n)}

    def test_verdict_invariant_50_instances(self):
        rng = random.Random(7)
        ann, a = annulus_octagon()
        disk, bdry = disk_square()
        count = 0
        while count < 50:
            if rng.random() < 0.5:
                x, sub = ann, a
                fmap = annulus_sphere_map(sub, rng.randint(-2, 2), rng.randint(-2, 2))
            else:
                x, sub = disk, bdry
                labels = {}
                ok = True
                for v in sub.vertices:
                    labels[v] = rng.choice((1, 2, -1, -2))
                fmap = SphereMap(sub, 2, labels)
                if not fmap.is_simplicial():
                    continue
            before = decide_extension(x, sub, fmap, 2).tag
            auto = self.orientation_preserving_automorphisms(rng)
            after = decide_extension(x, sub, compose_automorphism(fmap, auto), 2).tag
            assert before == after
            count += 1


class TestWindingAgreement:
    def test_disk_winding_zero_iff_extends(self):
        disk, bdry = disk_square()
        for labels, expected in [
            ({0: 1, 1: 2, 2: -1, 3: -2}, ExtendTag.NOT_EXTENDS),
            ({0: 1, 1: 1, 2: 1, 3: 1}, ExtendTag.EXTENDS),
            ({0: 1, 1: 2, 2: 1, 3: 2}, ExtendTag.EXTENDS),
        ]:
            fmap = SphereMap(bdry, 2, labels)
            w = winding_oracle(bdry, fmap)[0]
            verdict = decide_extension(disk, bdry, fmap, 2).tag
            assert (w == 0) == (verdict == ExtendTag.EXTENDS)

    def test_annulus_consistent_with_oracle(self):
        ann, a = annulus_octagon()
        # calibrate the compatibility rule from a map extendable by construction
        full_labels = {v: annulus_sphere_map(a, 1, 1).image(v) for v in a.vertices}
        whole = SphereMap(ann, 2, {v: full_labels.get(v, 1) for v in ann.vertices})
        assert whole.is_simplicial()
        c1, c2 = winding_oracle(a, annulus_sphere_map(a, 1, 1))
        for wo in range(-2, 3):
            for wi in range(-2, 3):
                fmap = annulus_sphere_map(a, wo, wi)
                x1, x2 = winding_oracle(a, fmap)
                extends = decide_extension(ann, a, fmap, 2).tag == ExtendTag.EXTENDS
                assert extends == (x1 * c2 == x2 * c1)


class TestDegree:
    def test_square_boundary(self):
        _, bdry = disk_square()
        ident = SphereMap(bdry, 2, {0: 1, 1: 2, 2: -1, 3: -2})
        cycle = boundary_cycle_chain([0, 1, 2, 3])
        assert degree(cycle, ident) == 1
        const = SphereMap(bdry, 2, {0: 1, 1: 1, 2: 1, 3: 1})
        assert degree(cycle, const) == 0

    def test_linearity(self):
        _, bdry = disk_square()
        ident = SphereMap(bdry, 2, {0: 1, 1: 2, 2: -1, 3: -2})
        cycle = boundary_cycle_chain([0, 1, 2, 3])
        doubled = IntCochain(1, {s: 2 * c for s, c in cycle.values.items()})
        assert degree(doubled, ident) == 2

    def test_rejects_non_cycle(self):
        _, bdry = disk_square()
        ident = SphereMap(bdry, 2, {0: 1, 1: 2, 2: -1, 3: -2})
        chain = IntCochain(1, {Simplex.of([0, 1]): 1})
        with pytest.raises(ValueError):
            degree(chain, ident)

    def test_rejects_cycle_outside_the_domain(self):
        # a cycle, but on vertices the sphere map's domain does not have
        _, bdry = disk_square()
        ident = SphereMap(bdry, 2, {0: 1, 1: 2, 2: -1, 3: -2})
        with pytest.raises(ValueError, match="not in the domain"):
            degree(boundary_cycle_chain([100, 101, 102]), ident)

    def test_cone_deg_zero_iff_extends(self):
        # cones over small cycles: extendability over the cone is exactly
        # vanishing degree on the base cycle
        rng = random.Random(5)
        for ncyc in (4, 6, 8):
            base_edges = [[k, (k + 1) % ncyc] for k in range(ncyc)]
            apex = ncyc
            cone = closure([e + [apex] for e in base_edges])
            base = closure(base_edges)
            cycle = boundary_cycle_chain(list(range(ncyc)))
            for _ in range(8):
                labels = {v: rng.choice((1, 2, -1, -2)) for v in base.vertices}
                fmap = SphereMap(base, 2, labels)
                if not fmap.is_simplicial():
                    continue
                d = degree(cycle, fmap)
                verdict = decide_extension(cone, base, fmap, 2).tag
                assert (d == 0) == (verdict == ExtendTag.EXTENDS)


def test_certificate_check_survives_optimize():
    # `python -O` strips asserts; the certificate re-check is an explicit
    # raise, so a solver returning a non-solution is still caught.
    code = textwrap.dedent("""
        import sys
        from robsat import homotopy, instance_io
        from robsat.exactlinalg import ExactnessError
        inst = instance_io.load_file(sys.argv[1])
        solve = homotopy.smith_solve
        # one changed unknown: adding 1 to every unknown of this annulus
        # system is another solution: it adds the coboundary of the 0-cochain
        # that is 1 on the inner ring
        homotopy.smith_solve = lambda system: [x + (j == 0) for j, x in enumerate(solve(system))]
        try:
            homotopy.decide_extension(inst.complex, inst.a_complex, inst.sphere_map, inst.n)
        except ExactnessError:
            raise SystemExit(0)
        raise SystemExit("a wrong extension certificate passed")
    """)
    here = os.path.dirname(__file__)
    src = os.path.join(here, os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code,
         os.path.join(here, os.pardir, "instances", "annulus_w0.json")],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@st.composite
def diophantine_systems(draw):
    """Random systems (m, n in 0..6, unit and non-unit entries, zero rows,
    rows that are multiples or sums of earlier ones, consistent or random
    right-hand sides) and the extension systems of the annulus and disk
    fixtures."""
    kind = draw(st.sampled_from(["random", "annulus", "disk"]))
    if kind == "annulus":
        ann, a = annulus_octagon()
        fmap = annulus_sphere_map(a, draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
        return build_extension_system(ann, a, pullback_cocycle(fmap))[0]
    if kind == "disk":
        disk, bdry = disk_square()
        labels = draw(st.lists(st.sampled_from([1, 2, -1, -2]), min_size=4, max_size=4))
        fmap = SphereMap(bdry, 2, dict(enumerate(labels)))
        return build_extension_system(disk, bdry, pullback_cocycle(fmap))[0]
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    for i in range(1, m):
        how = draw(st.sampled_from(["keep", "zero", "multiple", "sum"]))
        j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
        c = draw(st.integers(-3, 3))
        if how == "zero":
            rows[i] = [0] * n
        elif how == "multiple":
            rows[i] = [c * x for x in rows[j]]
        elif how == "sum":
            rows[i] = [c * x + y for x, y in zip(rows[j], rows[k])]
    if draw(st.booleans()):
        x0 = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        rhs = [sum(a * x for a, x in zip(row, x0)) for row in rows]
    else:
        rhs = draw(st.lists(st.integers(-9, 9), min_size=m, max_size=m))
    return sparse_system(rows, rhs, n)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(diophantine_systems())
def test_column_elimination_matches_smith_reference(system):
    """The collapse-first elimination decides solvability exactly as the
    two-sided Smith diagonalisation, and its solutions solve."""
    x = smith_solve(system)
    assert (x is None) == (ref_smith_solve(system) is None)
    if x is not None:
        assert solves(system, x)


NON_UNITS = [0, 2, 3, 4, 5, 6, 7, 8, 9, -2, -3, -4, -5, -6, -7, -8, -9]


@st.composite
def non_unit_systems(draw):
    """Systems with no entry of absolute value 1, so there is neither a
    free-face nor a unit pivot and every elimination is a Bezout column step
    on the residual; consistent or random right-hand sides."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = [draw(st.lists(st.sampled_from(NON_UNITS), min_size=n, max_size=n))
            for _ in range(m)]
    if draw(st.booleans()):
        x0 = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        rhs = [sum(a * x for a, x in zip(row, x0)) for row in rows]
    else:
        rhs = draw(st.lists(st.integers(-9, 9), min_size=m, max_size=m))
    return sparse_system(rows, rhs, n)


@settings(derandomize=True, deadline=None, max_examples=300)
@example(sparse_system([[2, 3]], [1], 2))  # solvable through one Bezout step
@example(sparse_system([[6, 10, 15]], [1], 3))  # gcd 1 only over all three
@example(sparse_system([[2, 4]], [1], 2))  # torsion: solvable over Q, not Z
@example(sparse_system([[2, 2], [2, -2]], [2, 0], 2))  # torsion across rows
@example(sparse_system([[2, 0], [0, 3]], [4, 3], 2))  # non-unit free columns
@given(non_unit_systems())
def test_non_unit_pivots_match_smith_reference(system):
    x = smith_solve(system)
    assert (x is None) == (ref_smith_solve(system) is None)
    if x is not None:
        assert solves(system, x)


def _grid_pair(rng):
    """A random pair of full subcomplexes A of X of a small Freudenthal grid
    (square or cube) and a simplicial sphere map on A, or None."""
    dim = rng.choice((2, 3))
    grid = freudenthal_grid([(0, 1)] * dim, 3 if dim == 2 else 2).complex
    keep = [v for v in grid.vertices if rng.random() < 0.8]
    x = full_subcomplex(grid, keep)
    a = full_subcomplex(x, [v for v in keep if rng.random() < 0.5])
    n = rng.choice((2, dim))
    labels: dict = {}
    for v in a.vertices:
        near = {labels.get(u) for e in a.k_simplices(1) if v in e.vertices for u in e.vertices}
        allowed = [s * i for i in range(1, n + 1) for s in (1, -1) if -s * i not in near]
        if not allowed:
            return None
        labels[v] = rng.choice(allowed)
    fmap = SphereMap(a, n, labels)
    return (x, a, fmap) if fmap.is_simplicial() else None


def test_u_free_system_is_solvable_iff_the_u_system_is():
    """The system without u unknowns is solvable exactly when the old one
    with u is, its w passes the certificate check, and the old (w, u) turns
    into a u-free certificate w - delta_X u."""
    ann, a = annulus_octagon()
    disk, bdry = disk_square()
    pairs = [(ann, a, annulus_sphere_map(a, wo, wi)) for wo in (-1, 0, 2) for wi in (-1, 0, 2)]
    pairs += [(disk, bdry, SphereMap(bdry, 2, dict(enumerate(labels))))
              for labels in ([1, 2, -1, -2], [1, 1, 1, 1], [1, 2, 1, 2], [2, -1, -2, 1])]
    rng = random.Random(11)
    while len(pairs) < 60:
        pair = _grid_pair(rng)
        if pair is not None:
            pairs.append(pair)
    seen = set()
    for x, sub, fmap in pairs:
        z = pullback_cocycle(fmap)
        old, w_ix, u_ix = ref_build_extension_system(x, sub, z)
        old_sol = ref_smith_solve(old)
        w = cocycle_extension_solvable(x, sub, z)
        assert (w is None) == (old_sol is None)
        seen.add(w is None)
        if w is None:
            continue
        assert verify_extension_certificate(x, sub, z, w)
        w_old = IntCochain(z.degree, dict(zip(w_ix, old_sol)))
        du = apply_coboundary(x, IntCochain(z.degree - 1, dict(zip(u_ix, old_sol[len(w_ix):]))))
        shifted = IntCochain(z.degree, {s: w_old(s) - du(s) for s in w_ix})
        assert verify_extension_certificate(x, sub, z, shifted)
    assert seen == {True, False}
