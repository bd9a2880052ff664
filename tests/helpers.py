"""Shared builders for the test suite: small canonical complexes, random
instances, and the annulus/disk extension fixtures."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from robsat.complex_core import BaryPoint, Complex, IntCochain, Simplex, VertexId, closure, full_subcomplex
from robsat.exactlinalg import ExactnessError
from robsat.homotopy import DiophantineSystem, _xgcd
from robsat.intervals import Interval
from robsat.pl_map import CriticalValue, PLMap, simplex_min_value, star_with_values
from robsat.reduction import LevelPair, ReductionError, SphereMap

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


def scaled(cv: CriticalValue, c) -> CriticalValue:
    c = Fraction(c)
    if c < 0:
        raise ValueError("scale factor must be nonnegative")
    if cv.is_sqrt:
        return CriticalValue.sqrt_of(c * c * cv.q)
    return CriticalValue.rat(c * cv.q)


def contains(interval: Interval, x) -> bool:
    return interval.lo <= Fraction(x) <= interval.hi


def weight(point: BaryPoint, v: VertexId) -> Fraction:
    return dict(point.weights).get(v, Fraction(0))


def as_dict(point: BaryPoint) -> dict[VertexId, Fraction]:
    return dict(point.weights)


def scale_map(f: PLMap, c) -> PLMap:
    c = Fraction(c)
    return PLMap(f.complex, f.n, {v: tuple(c * x for x in val) for v, val in f.values.items()})


# -- the barycentric lineage ------------------------------------------------
#
# robsat never needs to know where a new vertex sits in the original space, so
# a complex carries no coordinates.  The tests that check that a subdivision
# keeps the point set or the function keep the lineage themselves: a mapping
# vid -> BaryPoint over the original vertices, built from the starrings they
# pass to `star_at_point` or `star_with_values`.  None, or a vertex missing
# from the mapping, stands for the identity: an original vertex is itself.

def vertex(v: VertexId) -> BaryPoint:
    return BaryPoint(((v, Fraction(1)),))


def combine(parts) -> BaryPoint:
    """Convex combination of (coefficient, BaryPoint) pairs."""
    acc: dict[VertexId, Fraction] = {}
    for coeff, point in parts:
        coeff = Fraction(coeff)
        if coeff == 0:
            continue
        for v, w in point.weights:
            acc[v] = acc.get(v, Fraction(0)) + coeff * w
    return BaryPoint.from_dict(acc)


def origin(lineage, v: VertexId) -> BaryPoint:
    """v's expansion over the original vertices."""
    return lineage[v] if lineage and v in lineage else vertex(v)


def expand(point: BaryPoint, lineage=None) -> BaryPoint:
    """Re-express a point given over a complex's vertices in original
    coordinates."""
    return combine((w, origin(lineage, v)) for v, w in point.weights)


def extend_lineage(lineage, stars, new_ids) -> dict[VertexId, BaryPoint]:
    """The lineage after a starring batch: `stars` as passed to
    `star_at_point` or `star_with_values`, `new_ids` as returned.  Each new
    vertex is its carrier-local point expanded through the vertices before
    it, so lineage composes across batches."""
    out = dict(lineage or {})
    for (_, point), vid in zip(stars, new_ids, strict=True):
        out[vid] = expand(point, out)
    return out


def contains_point(c: Complex, target: BaryPoint, lineage=None) -> bool:
    """Whether `target` (original coordinates) lies in |c|, where `lineage`
    expands c's vertices over the original ones (see `extend_lineage`)."""
    from reference_oracles import locate  # reference_oracles imports this module

    return locate(c, target, lineage) is not None


# -- test-only reference: the rescan-after-each-star loops -----------------
#
# Each loop finds the first crossing edge in sorted order, stars it and
# rescans; `reduction.star_crossings` replaces all three with one scan.  The
# differential tests check that the results are identical.

def ref_split_level(f: PLMap, chi):
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
    return LevelPair(f, chi)


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
    return LevelPair(f, chi)


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
    interior (positive weight on every carrier vertex).
    """
    if carrier not in c:
        raise ValueError(f"carrier {carrier} not in complex")
    if set(point.support) != set(carrier.vertices):
        raise ValueError("point must be interior to the carrier (full support)")
    new_id = (c.vertices[-1] + 1) if c.vertices else 0

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
    return Complex(kept | added), new_id


def ref_star_with_values(f: PLMap, carrier: Simplex, point: BaryPoint):
    """Star f's complex at a carrier-local point and interpolate the value at
    the new vertex.  Returns (new PLMap, new vertex id)."""
    c2, vid = ref_star_at_point(f.complex, carrier, point)
    values = f.values
    local = as_dict(point)
    acc = [Fraction(0)] * f.n
    for v, w in local.items():
        val = values[v]
        for i in range(f.n):
            acc[i] += w * val[i]
    values[vid] = tuple(acc)
    return PLMap(c2, f.n, values), vid


# -- integer systems: dense rows to sparse rows and back -------------------

def sparse_system(matrix, rhs, ncols: int) -> DiophantineSystem:
    """The system of a dense integer matrix: each row keeps its nonzero
    entries as (column, coefficient) pairs."""
    return DiophantineSystem([[(j, v) for j, v in enumerate(row) if v] for row in matrix],
                             list(rhs), ncols)


def dense_matrix(system: DiophantineSystem) -> list[list[int]]:
    m, n = system.shape
    out = [[0] * n for _ in range(m)]
    for dense, row in zip(out, system.matrix):
        for j, v in row:
            dense[j] += v
    return out


def solves(system: DiophantineSystem, x: list[int]) -> bool:
    """Whether x is an integer solution of the system."""
    return len(x) == system.ncols and all(
        sum(v * x[j] for j, v in row) == b for row, b in zip(system.matrix, system.rhs))


# -- test-only reference: the cocycle system with u unknowns ---------------
#
# `homotopy.build_extension_system` before the u unknowns were dropped, kept
# verbatim except that it returns sparse rows.  Its system is
#
#     delta_X w = 0,    w|_A - delta_A u = z,
#
# in w on all (n-1)-simplices of X and u on the (n-2)-simplices of A.  The
# differential test checks that it is solvable exactly when robsat's u-free
# system is.

def ref_build_extension_system(x: Complex, a: Complex, z: IntCochain):
    """Returns (system, w_index, u_index)."""
    n = z.degree + 1
    w_ix = x.k_simplices(n - 1)
    u_ix = a.k_simplices(n - 2) if n >= 2 else []
    w_pos = {s: j for j, s in enumerate(w_ix)}
    u_pos = {s: len(w_ix) + j for j, s in enumerate(u_ix)}
    width = len(w_ix) + len(u_ix)
    matrix: list[list[int]] = []
    rhs: list[int] = []
    for tau in x.k_simplices(n):
        row = [0] * width
        for i, face in tau.boundary():
            row[w_pos[face]] += (-1) ** i
        matrix.append(row)
        rhs.append(0)
    for sigma in a.k_simplices(n - 1):
        row = [0] * width
        row[w_pos[sigma]] += 1
        for i, face in sigma.boundary():
            j = u_pos.get(face)
            if j is not None:
                row[j] -= (-1) ** i
        matrix.append(row)
        rhs.append(z(sigma))
    return sparse_system(matrix, rhs, width), w_ix, u_ix


# -- test-only reference: the two-sided Smith diagonalisation -------------
#
# robsat's `homotopy.smith_solve` before it became a one-sided column
# elimination, kept verbatim (renamed, and reading the sparse rows through
# `dense_matrix` and `solves`) so the differential test can compare
# solvability against it.

def ref_smith_solve(system: DiophantineSystem) -> list[int] | None:
    """Integer solution of M x = b, or None iff none exists.

    Diagonalizes M by unimodular row and column operations (row operations are
    applied to b as well, column operations are accumulated so the solution can
    be mapped back), then solves the diagonal system by exact division.
    """
    m, n = system.shape
    d = dense_matrix(system)
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
    if not solves(system, x):
        raise ExactnessError("smith_solve produced a non-solution")
    return x


# -- test-only reference: the per-simplex level-pair checks ----------------
#
# `LevelPair.validate` and `reduction.simplicial_approximation` before their
# checks became edge-local, kept verbatim except that `self` is `pair`, the
# norm that the pair no longer carries is a parameter, and
# `complex_core.star_vertices` is inlined.  The differential test checks that
# both versions raise on the same pairs and otherwise give the same map.

def ref_validate(pair: LevelPair, norm) -> None:
    """No edge joins chi 0 to chi 1, and every A-simplex is weakly signed
    in every coordinate of f and free of roots."""
    for e in pair.f.complex.k_simplices(1):
        u, w = e.vertices
        if {pair.chi[u], pair.chi[w]} == {Fraction(0), Fraction(1)}:
            raise ReductionError(f"0-1 edge survived: {e}")
    for s in pair.a.simplices:
        ys = [pair.f.value(v) for v in s.vertices]
        for i in range(pair.f.n):
            if any(y[i] > 0 for y in ys) and any(y[i] < 0 for y in ys):
                raise ReductionError(f"A-simplex {s} not weakly signed in coordinate {i}")
        # A coordinate strictly signed on s rules out a root exactly.
        if any(all(y[i] > 0 for y in ys) or all(y[i] < 0 for y in ys)
               for i in range(pair.f.n)):
            continue
        if simplex_min_value(pair.f, s, norm).is_zero():
            raise ReductionError(f"f has a root on the A-simplex {s}")


def ref_simplicial_approximation(pair: LevelPair) -> SphereMap:
    """Send each A-vertex to sign * e_index for its largest-magnitude
    coordinate (smallest index on ties).  The sign-refined pair makes this
    simplicial, and the open-star condition is checked exactly: for every
    A-vertex v and every vertex w of star(v, A), s_v * f_{i_v}(w) >= 0 with
    strict inequality at v itself."""
    f = pair.f
    assignment: dict[VertexId, int] = {}
    for v in pair.a.vertices:
        val = f.value(v)
        if all(x == 0 for x in val):
            raise ReductionError(f"f vanishes at A-vertex {v}")
        best = max(range(f.n), key=lambda i: (abs(val[i]), -i))
        assignment[v] = (best + 1) if val[best] > 0 else -(best + 1)
    fmap = SphereMap(pair.a, f.n, assignment)
    if not fmap.is_simplicial():
        raise ReductionError("sphere image of an A-simplex contains antipodal vertices")
    for v in pair.a.vertices:
        lab = assignment[v]
        i = abs(lab) - 1
        sign = 1 if lab > 0 else -1
        star = set()
        for t in pair.a.simplices:
            if v in t.vertices:
                star.update(t.vertices)
        for w in tuple(sorted(star)):
            val = sign * f.value(w)[i]
            if val < 0 or (w == v and val == 0):
                raise ReductionError(f"open-star condition fails at {v} (witness {w})")
    return fmap


# -- test-only reference: the pairwise maximal-simplex scan ---------------
#
# `Complex.maximal_simplices` before it read maximality off codimension-1
# faces, kept verbatim as a function of the complex: largest simplices
# first, each tested against every maximal simplex found so far.

def ref_maximal_simplices(c: Complex) -> list[Simplex]:
    out = []
    for s in sorted(c.simplices, key=lambda x: (-x.dim, x.vertices)):
        sv = set(s.vertices)
        if not any(sv < set(t.vertices) for t in out):
            out.append(s)
    return sorted(out)
