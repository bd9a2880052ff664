"""Shared builders for the test suite: small canonical complexes, random
instances, and the annulus/disk extension fixtures."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from robsat.complex_core import BaryPoint, Complex, Simplex, closure, full_subcomplex
from robsat.exactlinalg import ExactnessError
from robsat.homotopy import DiophantineSystem, _xgcd
from robsat.pl_map import PLMap, star_with_values
from robsat.reduction import LevelPair, SphereMap

PATH3 = closure([[0, 1], [1, 2]])


def path_map(values, n=1) -> PLMap:
    vals = {i: (v if isinstance(v, tuple) else (Fraction(v),)) for i, v in enumerate(values)}
    cx = closure([[i, i + 1] for i in range(len(values) - 1)])
    return PLMap(cx, n, vals)


def random_complex(rng: random.Random, max_dim=2, max_vertices=6, n_maximal=3) -> Complex:
    verts = list(range(max_vertices))
    maximal = []
    for _ in range(rng.randint(1, n_maximal)):
        size = rng.randint(1, max_dim + 1)
        maximal.append(rng.sample(verts, min(size, len(verts))))
    return closure(maximal)


def random_map(rng: random.Random, cx: Complex, n: int, denom=2, lo=-4, hi=4) -> PLMap:
    return PLMap(cx, n, {
        v: tuple(Fraction(rng.randint(lo, hi), rng.randint(1, denom)) for _ in range(n))
        for v in cx.vertices
    })


def random_interior_point(rng: random.Random, s: Simplex) -> BaryPoint:
    weights = [rng.randint(1, 5) for _ in s.vertices]
    total = sum(weights)
    return BaryPoint.from_dict({v: Fraction(w, total) for v, w in zip(s.vertices, weights)})


def random_point_in(rng: random.Random, s: Simplex) -> BaryPoint:
    """Random rational point of the closed simplex (may sit on a face)."""
    weights = [rng.randint(0, 4) for _ in s.vertices]
    if sum(weights) == 0:
        weights[rng.randrange(len(weights))] = 1
    total = sum(weights)
    return BaryPoint.from_dict(
        {v: Fraction(w, total) for v, w in zip(s.vertices, weights) if w})


# -- annulus and disk extension fixtures ---------------------------------

SPHERE_CYCLE = [1, 2, -1, -2]  # cyclic vertex order of the cross-polytope circle


def annulus_octagon():
    """Triangulated annulus with two octagon boundary cycles (outer vertices
    0..7, inner 8..15); returns (annulus, boundary_subcomplex)."""
    tris = []
    for k in range(8):
        o, o1, i, i1 = k, (k + 1) % 8, 8 + k, 8 + (k + 1) % 8
        tris += [[o, o1, i], [o1, i, i1]]
    ann = closure(tris)
    a = closure([[k, (k + 1) % 8] for k in range(8)]
                + [[8 + k, 8 + (k + 1) % 8] for k in range(8)])
    a = Complex(a.simplices, {v: ann.coord(v) for v in a.vertices})
    return ann, a


def ring_positions(w: int) -> list[int]:
    """Sphere-cycle positions realizing winding w along an 8-vertex walk."""
    return [((w * k) // 2) % 4 for k in range(8)]


def annulus_sphere_map(a: Complex, w_out: int, w_in: int) -> SphereMap:
    labels = {k: SPHERE_CYCLE[p] for k, p in enumerate(ring_positions(w_out))}
    labels.update({8 + k: SPHERE_CYCLE[p] for k, p in enumerate(ring_positions(w_in))})
    return SphereMap(a, 2, labels)


def disk_square():
    """Cone over a 4-cycle: the smallest disk whose boundary can carry a
    degree-1 simplicial map onto the cross-polytope circle."""
    disk = closure([[0, 1, 4], [1, 2, 4], [2, 3, 4], [0, 3, 4]])
    bdry = closure([[0, 1], [1, 2], [2, 3], [0, 3]])
    bdry = Complex(bdry.simplices, {v: disk.coord(v) for v in bdry.vertices})
    return disk, bdry


def boundary_cycle_chain(vertex_cycle):
    """Integer 1-chain of a closed walk, as sorted-simplex coefficients."""
    from robsat.complex_core import IntCochain

    vals = {}
    for idx in range(len(vertex_cycle)):
        u = vertex_cycle[idx]
        v = vertex_cycle[(idx + 1) % len(vertex_cycle)]
        s = Simplex.of([u, v])
        vals[s] = vals.get(s, 0) + (1 if u < v else -1)
    return IntCochain(1, vals)


# -- test-only reference: the rational Fraction solvers ------------------
#
# The textbook rational simplex (Bland's rule) and Gauss-Jordan elimination
# that robsat's fraction-free integer kernels replace.  The differential
# tests check the kernels against these, value for value.

class RefInfeasible(Exception):
    pass


class RefUnbounded(Exception):
    pass


def _ref_pivot(tableau, cost_rows, basis, row, col):
    piv = tableau[row][col]
    tableau[row] = [x / piv for x in tableau[row]]
    for i, r in enumerate(tableau):
        if i != row and r[col] != 0:
            f = r[col]
            tableau[i] = [a - f * b for a, b in zip(r, tableau[row])]
    for k, cr in enumerate(cost_rows):
        if cr[col] != 0:
            f = cr[col]
            cost_rows[k] = [a - f * b for a, b in zip(cr, tableau[row])]
    basis[row] = col


def _ref_run_simplex(tableau, cost_rows, basis, width):
    cost = cost_rows[0]
    while True:
        enter = next((j for j in range(width) if cost[j] < 0), None)
        if enter is None:
            return
        leave = None
        best = None
        for i, r in enumerate(tableau):
            if r[enter] > 0:
                ratio = r[-1] / r[enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise RefUnbounded("objective unbounded below")
        _ref_pivot(tableau, cost_rows, basis, leave, enter)
        cost = cost_rows[0]


def ref_solve_lp(a_rows, b, c):
    """min c.x s.t. a_rows @ x = b, x >= 0 on a Fraction tableau (two-phase,
    Bland).  Returns (value, x); raises RefInfeasible / RefUnbounded."""
    m, n = len(a_rows), len(c)
    full = []
    for i, (row, bi) in enumerate(zip(a_rows, b)):
        row, bi = [Fraction(x) for x in row], Fraction(bi)
        if bi < 0:
            row, bi = [-x for x in row], -bi
        full.append(row + [Fraction(int(k == i)) for k in range(m)] + [bi])
    basis = list(range(n, n + m))
    phase1 = [Fraction(0)] * n + [Fraction(1)] * m + [Fraction(0)]
    for r in full:
        phase1 = [a - b_ for a, b_ in zip(phase1, r)]
    cost_rows = [phase1]
    _ref_run_simplex(full, cost_rows, basis, n + m)
    if -cost_rows[0][-1] != 0:
        raise RefInfeasible("no feasible point")
    i = 0
    while i < len(full):
        if basis[i] >= n:
            col = next((j for j in range(n) if full[i][j] != 0), None)
            if col is None:
                del full[i]
                del basis[i]
                continue
            _ref_pivot(full, cost_rows, basis, i, col)
        i += 1
    phase2 = [Fraction(x) for x in c] + [Fraction(0)] * (m + 1)
    for i, bi in enumerate(basis):
        if phase2[bi] != 0:
            f = phase2[bi]
            phase2 = [a - f * b_ for a, b_ in zip(phase2, full[i])]
    cost_rows = [phase2]
    _ref_run_simplex(full, cost_rows, basis, n)
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = full[i][-1]
    return -cost_rows[0][-1], x


def ref_lex_min(rows, rhs, nlam, width):
    """Lexicographically smallest x[:nlam] over {rows @ x = rhs, x >= 0}, by
    sequential cold LPs pinning one coordinate at a time."""
    rows, rhs, out = [list(r) for r in rows], list(rhs), []
    for j in range(nlam):
        unit = [Fraction(int(k == j)) for k in range(width)]
        val, _ = ref_solve_lp(rows, rhs, unit)
        rows.append(unit)
        rhs.append(val)
        out.append(val)
    return out


def ref_rref(rows):
    """Reduced row echelon form over Fractions: (rows, pivot columns)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots, r = [], 0
    for col in range(len(mat[0]) if mat else 0):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def ref_solve(rows, rhs):
    """A x = b over Fractions: (solution with free variables zero, unique),
    or (None, False) if inconsistent."""
    if not rows:
        return [], True
    ncols = len(rows[0])
    red, pivots = ref_rref([list(row) + [bi] for row, bi in zip(rows, rhs)])
    if ncols in pivots:
        return None, False
    x = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        x[col] = red[r][ncols]
    return x, len(pivots) == ncols


def matrix_rank(rows) -> int:
    return len(ref_rref(rows)[1])


# -- small operations that only the tests use ------------------------------

def coboundary(c: Complex, k: int):
    """Integer matrix of delta: C^k -> C^(k+1), as (rows, row_index,
    col_index); the indexes list the sorted (k+1)- and k-simplices."""
    cols = c.k_simplices(k)
    rows_ix = c.k_simplices(k + 1)
    col_pos = {s: j for j, s in enumerate(cols)}
    rows = []
    for tau in rows_ix:
        row = [0] * len(cols)
        for i, face in tau.boundary():
            j = col_pos.get(face)
            if j is not None:
                row[j] += (-1) ** i
        rows.append(row)
    return rows, rows_ix, cols


def compose_automorphism(fmap: SphereMap, signed_perm: dict[int, int]) -> SphereMap:
    """Relabel a sphere map through a signed permutation of the sphere
    vertices, given as {i: +/-j} on positive indices."""
    out = {}
    for v, lab in fmap.assignment.items():
        target = signed_perm[abs(lab)]
        out[v] = target if lab > 0 else -target
    return SphereMap(fmap.domain, fmap.n, out)


def contains_point(c: Complex, target: BaryPoint) -> bool:
    return c.locate(target) is not None


def expand(c: Complex, point: BaryPoint) -> BaryPoint:
    """Re-express a point given over c's vertices in original coordinates."""
    return BaryPoint.combine((w, c.coord(v)) for v, w in point.weights)


def scale_map(f: PLMap, c) -> PLMap:
    c = Fraction(c)
    return PLMap(f.complex, f.n, {v: tuple(c * x for x in val) for v, val in f.values.items()})


# -- test-only reference: the rescan-after-each-star loops -----------------
#
# Each loop finds the first crossing edge in sorted order, stars it and
# rescans; `reduction.star_crossings` replaces all three with one scan.  The
# differential tests check that the results are identical.

def ref_split_level(f: PLMap, chi, alpha, norm):
    chi = dict(chi)
    half = Fraction(1, 2)
    while True:
        e = next((e for e in f.complex.k_simplices(1)
                  if {chi[e.vertices[0]], chi[e.vertices[1]]} == {0, 1}), None)
        if e is None:
            break
        u, w = e.vertices
        f, (vid,) = star_with_values(f, [(e, BaryPoint.from_dict({u: half, w: half}))])
        chi[vid] = half
    x = full_subcomplex(f.complex, lambda v: chi[v] <= half)
    a = full_subcomplex(f.complex, lambda v: chi[v] == half)
    return LevelPair(f, x, a, alpha, chi, norm)


def ref_sign_refinement(pair):
    f, chi, a = pair.f, dict(pair.chi), pair.a
    half = Fraction(1, 2)
    for i in range(f.n):
        while True:
            e = next((e for e in a.k_simplices(1)
                      if f.value(e.vertices[0])[i] * f.value(e.vertices[1])[i] < 0), None)
            if e is None:
                break
            u, w = e.vertices
            fu, fw = f.value(u)[i], f.value(w)[i]
            t = fu / (fu - fw)
            f, (vid,) = star_with_values(f, [(e, BaryPoint.from_dict({u: 1 - t, w: t}))])
            chi[vid] = half
            a = full_subcomplex(f.complex, lambda v: chi[v] == half)
    x = full_subcomplex(f.complex, lambda v: chi[v] <= half)
    return LevelPair(f, x, a, pair.alpha, chi, pair.norm)


def ref_split_inequality_levels(h: PLMap, n: int, alpha: Fraction) -> PLMap:
    for i in range(n, h.n):
        while True:
            e = next((e for e in h.complex.k_simplices(1)
                      if (h.value(e.vertices[0])[i] + alpha)
                      * (h.value(e.vertices[1])[i] + alpha) < 0), None)
            if e is None:
                break
            u, w = e.vertices
            a, b = h.value(u)[i] + alpha, h.value(w)[i] + alpha
            t = a / (a - b)
            h, _ = star_with_values(h, [(e, BaryPoint.from_dict({u: 1 - t, w: t}))])
    return h


# -- test-only reference: one starring per call ----------------------------
#
# The single-carrier starring that rebuilt the complex (and the map) after
# every starring; `complex_core.star_at_point` and `pl_map.star_with_values`
# now apply a whole batch in order.  The differential tests check that a
# batch equals these calls made one after the other.

def ref_star_at_point(c: Complex, carrier: Simplex, point: BaryPoint):
    """Starring subdivision: replace `carrier` and its cofaces by cones over a
    new vertex placed at `point`.

    `point` is given in carrier-local barycentric coordinates and must be
    interior (positive weight on every carrier vertex). The stored coordinate
    of the new vertex is the expansion over original vertices, so lineage
    composes across repeated subdivision.
    """
    if carrier not in c:
        raise ValueError(f"carrier {carrier} not in complex")
    if set(point.support) != set(carrier.vertices):
        raise ValueError("point must be interior to the carrier (full support)")
    new_id = (max(c.coords) + 1) if c.coords else 0
    new_coord = expand(c, point)

    carrier_set = set(carrier.vertices)
    removed = [t for t in c.simplices if carrier_set <= set(t.vertices)]
    kept = set(c.simplices) - set(removed)
    added: set[Simplex] = set()
    for t in removed:
        rest = tuple(v for v in t.vertices if v not in carrier_set)
        # proper faces of the carrier, empty face included
        for k in range(len(carrier.vertices)):
            for fc in combinations(carrier.vertices, k):
                for rk in range(len(rest) + 1):
                    for rc in combinations(rest, rk):
                        added.add(Simplex.of((new_id,) + fc + rc))
    coords = c.coords
    coords[new_id] = new_coord
    return Complex(kept | added, coords), new_id


def ref_star_with_values(f: PLMap, carrier: Simplex, point: BaryPoint):
    """Star f's complex at a carrier-local point and interpolate the value at
    the new vertex.  Returns (new PLMap, new vertex id)."""
    c2, vid = ref_star_at_point(f.complex, carrier, point)
    values = f.values
    local = point.as_dict()
    acc = [Fraction(0)] * f.n
    for v, w in local.items():
        val = values[v]
        for i in range(f.n):
            acc[i] += w * val[i]
    values[vid] = tuple(acc)
    return PLMap(c2, f.n, values), vid


# -- test-only reference: the two-sided Smith diagonalisation -------------
#
# robsat's `homotopy.smith_solve` before it became a one-sided column
# elimination, kept verbatim (renamed) so the differential test can compare
# solvability against it.

def ref_smith_solve(system: DiophantineSystem) -> list[int] | None:
    """Integer solution of M x = b, or None iff none exists.

    Diagonalizes M by unimodular row and column operations (row operations are
    applied to b as well, column operations are accumulated so the solution can
    be mapped back), then solves the diagonal system by exact division.
    """
    m, n = system.shape
    d = [list(row) for row in system.matrix]
    b = list(system.rhs)
    t = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_combine(i1, i2, col):
        # Keep the pivot row fixed when its entry already divides the target;
        # otherwise a Bezout combination strictly shrinks |d[i1][col]|.
        a, c = d[i1][col], d[i2][col]
        if c == 0:
            return
        if a == 0:
            d[i1], d[i2] = d[i2], d[i1]
            b[i1], b[i2] = b[i2], b[i1]
            return
        if c % a == 0:
            q = c // a
            d[i2] = [p - q * s for p, s in zip(d[i2], d[i1])]
            b[i2] -= q * b[i1]
            return
        x, y, g = _xgcd(a, c)
        ag, cg = a // g, c // g
        r1, r2 = d[i1], d[i2]
        d[i1] = [x * p + y * q for p, q in zip(r1, r2)]
        d[i2] = [-cg * p + ag * q for p, q in zip(r1, r2)]
        b[i1], b[i2] = x * b[i1] + y * b[i2], -cg * b[i1] + ag * b[i2]

    def col_combine(j1, j2, row):
        a, c = d[row][j1], d[row][j2]
        if c == 0:
            return
        if a == 0:
            for r in d:
                r[j1], r[j2] = r[j2], r[j1]
            for r in t:
                r[j1], r[j2] = r[j2], r[j1]
            return
        if c % a == 0:
            q = c // a
            for r in d:
                r[j2] -= q * r[j1]
            for r in t:
                r[j2] -= q * r[j1]
            return
        x, y, g = _xgcd(a, c)
        ag, cg = a // g, c // g
        for r in d:
            p, q = r[j1], r[j2]
            r[j1], r[j2] = x * p + y * q, -cg * p + ag * q
        for r in t:
            p, q = r[j1], r[j2]
            r[j1], r[j2] = x * p + y * q, -cg * p + ag * q

    for k in range(min(m, n)):
        pivot = next(
            ((i, j) for i in range(k, m) for j in range(k, n) if d[i][j] != 0),
            None,
        )
        if pivot is None:
            break
        pi, pj = pivot
        if pi != k:
            d[k], d[pi] = d[pi], d[k]
            b[k], b[pi] = b[pi], b[k]
        if pj != k:
            for r in d:
                r[k], r[pj] = r[pj], r[k]
            for r in t:
                r[k], r[pj] = r[pj], r[k]
        # Alternate clearing column k (row ops) and row k (column ops); any
        # non-divisible step strictly shrinks |d[k][k]|, so this terminates.
        guard = 0
        while True:
            guard += 1
            if guard >= 10000:
                raise ExactnessError("smith elimination failed to converge")
            for i in range(k + 1, m):
                row_combine(k, i, k)
            if all(d[k][j] == 0 for j in range(k + 1, n)):
                break
            for j in range(k + 1, n):
                col_combine(k, j, k)
            if all(d[i][k] == 0 for i in range(k + 1, m)):
                break
    y = [0] * n
    for i in range(m):
        di = d[i][i] if i < n else 0
        if di == 0:
            if b[i] != 0:
                return None
        else:
            if b[i] % di != 0:
                return None
            y[i] = b[i] // di
    x = [sum(t[i][j] * y[j] for j in range(n)) for i in range(n)]
    if any(sum(mr[j] * x[j] for j in range(n)) != bi
           for mr, bi in zip(system.matrix, system.rhs)):
        raise ExactnessError("smith_solve produced a non-solution")
    return x
