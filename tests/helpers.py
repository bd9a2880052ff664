"""Shared builders for the test suite: small canonical complexes, random
instances, and the annulus/disk extension fixtures."""

from __future__ import annotations

import random
from fractions import Fraction

from robsat.complex_core import BaryPoint, Complex, Simplex, closure
from robsat.pl_map import PLMap
from robsat.reduction import SphereMap

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
