"""Extendability of sphere-valued simplicial maps over a pair (X, A).

The map is a `SphereMap` from A into S^(n-1), simplicial by construction;
it carries its domain A and its n, so a decision takes only X and the map.
One integer cocycle system decides every n.  It is complete for n <= 2: the
map extends iff its cocycle class restricts from X, at any dimension of X
(for n = 1 the class is in H^0, and the system says the labels are constant
on the A-vertices of each component of X).  For n >= 3 it is the primary
obstruction: unsolvable always means no extension; solvable means an
extension exists when dim X <= n (Hopf extension theorem, an assumption
documented on the `assume_hopf` flag) and is otherwise reported as Unknown.

The sphere map pulls the fundamental cocycle back to an (n-1)-cocycle z on A,
and its class restricts from X iff there is an integer (n-1)-cochain w on X
with

    delta_X w = 0    and    w|_A = z.

(A solution of w|_A = z + delta_A u gives one with u = 0: subtract delta_X of
u extended by zero.)  So the unknowns are w on the (n-1)-simplices of X that
are not in A, one equation per n-simplex of X that is not in A; the equations
of A's n-simplices hold because z is a cocycle.  Every Extends answer carries
w; when A is not empty, w is re-verified by exact arithmetic before it is
returned.

`smith_solve` eliminates the system collapse-first.  A column in one equation
only, with a unit coefficient, is a free (n-1)-face of one n-simplex:
pivoting on it is a free-face collapse of X relative to A and changes no other
equation.  When no free face is left it pivots on a unit entry of a sparsest
equation, and only the residual without unit entries takes Bezout column
steps.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum

from .complex_core import (
    Complex,
    IntCochain,
    Simplex,
    apply_coboundary,
    chain_boundary,
    permutation_parity,
)
from .exactlinalg import ExactnessError
from .reduction import SphereMap


class ExtendTag(Enum):
    EXTENDS = "Extends"
    NOT_EXTENDS = "NotExtends"
    UNKNOWN = "Unknown"


@dataclass
class ExtendVerdict:
    tag: ExtendTag
    reason: str = ""
    w: IntCochain | None = None


@dataclass
class DiophantineSystem:
    """Integer system M x = b in `ncols` unknowns.  Each row of M lists its
    nonzero entries as (column, coefficient) pairs, each column at most once."""

    matrix: list[list[tuple[int, int]]] = field(default_factory=list)
    rhs: list[int] = field(default_factory=list)
    ncols: int = 0

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.matrix), self.ncols


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def _column_step(p: list[int], q: list[int], i: int) -> tuple[list[int], list[int]]:
    """A unimodular operation on the columns (p, q), p[i] != 0, after which
    q[i] = 0: subtract a multiple of p when p[i] divides q[i], otherwise the
    Bezout pair puts gcd(p[i], q[i]) into p."""
    a, c = p[i], q[i]
    if c % a == 0:
        t = c // a
        return p, [v - t * u for u, v in zip(p, q)]
    x, y, g = _xgcd(a, c)
    ag, cg = a // g, c // g
    return [x * u + y * v for u, v in zip(p, q)], [ag * v - cg * u for u, v in zip(p, q)]


def _column_echelon_solve(rows: list[dict[int, int]], rhs: list[int],
                          columns: list[int]) -> list[int] | None:
    """Integer values of `columns` that solve the sparse rows, or None iff
    there are none.

    One-sided column elimination: unimodular column operations on the stacked
    matrix [M; I] bring M to a column echelon form H = M U, and M x = b is
    solvable over Z iff H y = b is (then x = U y).  Row by row, a nonzero
    column is swapped into pivot place k and every later column is reduced
    into it, so the row is zero past k; the row's residual b_i - sum_{j<k}
    H[i][j] y_j then fixes y_k by exact division, or must vanish when the row
    has no pivot.  Free coordinates of y are 0.
    """
    m, n = len(rows), len(columns)
    cols = [[row.get(c, 0) for row in rows] + [int(i == j) for i in range(n)]
            for j, c in enumerate(columns)]
    y: list[int] = []
    for i in range(m):
        k = len(y)
        r = rhs[i] - sum(cols[j][i] * y[j] for j in range(k))
        pivot = next((j for j in range(k, n) if cols[j][i]), None)
        if pivot is None:
            if r:
                return None
            continue
        cols[k], cols[pivot] = cols[pivot], cols[k]
        for j in range(k + 1, n):
            if cols[j][i]:
                cols[k], cols[j] = _column_step(cols[k], cols[j], i)
        if r % cols[k][i]:
            return None
        y.append(r // cols[k][i])
    x = [0] * n
    for yk, col in zip(y, cols):
        if yk:
            x = [xj + yk * uj for xj, uj in zip(x, col[m:])]
    return x


def smith_solve(system: DiophantineSystem) -> list[int] | None:
    """Integer solution of M x = b, or None iff none exists.

    Pivots on unit entries are unimodular row operations: the pivot row
    leaves the system and the pivot column is cleared from every other live
    row.  Free faces go first: a worklist holds the columns that occur in one
    live row only, and pivoting on one (with a unit coefficient) changes no
    other row.  When it is empty, a heap gives a live row with the fewest
    entries, and the pivot is its unit entry in the column of fewest live
    rows.  The rows left have no unit entry; `_column_echelon_solve` takes
    Bezout column steps on them alone.  Columns in no row are 0, and the
    pivots are back-substituted in reverse order.  The solution is checked
    against M x = b on the sparse rows.  The name is kept from the earlier
    two-sided Smith diagonalisation because the benchmark's layer map traces
    `homotopy.smith_solve` and reads `system.shape` and `system.matrix`.
    """
    m, n = system.shape
    rows = [dict(row) for row in system.matrix]
    rhs = list(system.rhs)
    where: list[set[int]] = [set() for _ in range(n)]  # the live rows of a column
    for i, row in enumerate(rows):
        for j in row:
            where[j].add(i)
    live = [True] * m
    pivots: list[tuple[int, int]] = []
    free_faces = [j for j in range(n) if len(where[j]) == 1]
    by_size = [(len(row), i) for i, row in enumerate(rows)]
    heapq.heapify(by_size)
    while True:
        if free_faces:
            j = free_faces.pop()
            if len(where[j]) != 1:
                continue
            (i,) = where[j]
            if rows[i][j] not in (1, -1):
                continue
        elif by_size:
            size, i = heapq.heappop(by_size)
            if not live[i] or size != len(rows[i]):
                continue  # a stale entry: the row is gone or has changed
            units = [k for k, v in rows[i].items() if v in (1, -1)]
            if not units:
                continue  # pushed again if an elimination changes it
            j = min(units, key=lambda k: len(where[k]))
        else:
            break
        live[i] = False
        pivots.append((i, j))
        prow = rows[i]
        for k in prow:
            where[k].discard(i)
        for h in list(where[j]):
            target = rows[h]
            t = target[j] * prow[j]
            for k, v in prow.items():
                new = target.get(k, 0) - t * v
                if new:
                    if k not in target:
                        where[k].add(h)
                    target[k] = new
                else:
                    del target[k]
                    where[k].discard(h)
            rhs[h] -= t * rhs[i]
            heapq.heappush(by_size, (len(target), h))
        free_faces.extend(k for k in prow if len(where[k]) == 1)
    rest = [i for i in range(m) if live[i]]
    cols = sorted({k for i in rest for k in rows[i]})
    y = _column_echelon_solve([rows[i] for i in rest], [rhs[i] for i in rest], cols)
    if y is None:
        return None
    x = [0] * n
    for k, v in zip(cols, y):
        x[k] = v
    for i, j in reversed(pivots):
        # x[j] is still 0, so the sum runs over the other columns only
        x[j] = rows[i][j] * (rhs[i] - sum(v * x[k] for k, v in rows[i].items()))
    if any(sum(v * x[k] for k, v in row) != b for row, b in zip(system.matrix, system.rhs)):
        raise ExactnessError("smith_solve produced a non-solution")
    return x


def pullback_cocycle(fmap: SphereMap) -> IntCochain:
    """Pull the fundamental cocycle of the sphere back along a simplicial map.

    The value on a sorted (n-1)-simplex is zero unless its vertices map
    bijectively onto {e_1, ..., e_n}, in which case it is the sign of that
    permutation relative to the distinguished oriented simplex [e_1, ..., e_n].
    """
    n = fmap.n
    values: dict[Simplex, int] = {}
    for s in fmap.domain.k_simplices(n - 1):
        labels = [fmap.image(v) for v in s.vertices]
        if any(l < 0 for l in labels) or sorted(labels) != list(range(1, n + 1)):
            continue
        values[s] = permutation_parity(labels)
    return IntCochain(n - 1, values)


def build_extension_system(x: Complex, a: Complex, z: IntCochain) -> tuple[DiophantineSystem, list[Simplex]]:
    """The integer system whose solvability decides whether z (a cocycle on A)
    extends to a cocycle w on X:

        delta_X w = 0,    w|_A = z.

    The unknowns are w on the (n-1)-simplices of X that are not in A, and
    there is one row per n-simplex of X that is not in A; the faces in A move
    their z values to the right-hand side.  Returns (system, w_index).
    """
    n = z.degree + 1
    w_ix = [s for s in x.k_simplices(n - 1) if s not in a]
    w_pos = {s: j for j, s in enumerate(w_ix)}
    matrix: list[list[tuple[int, int]]] = []
    rhs: list[int] = []
    for tau in x.k_simplices(n):
        if tau in a:
            continue
        row, b = [], 0
        for i in range(len(tau)):  # faces as slices: the lookups accept them
            sign, face = -1 if i % 2 else 1, tau[:i] + tau[i + 1:]
            j = w_pos.get(face)
            if j is None:
                b -= sign * z(face)
            else:
                row.append((j, sign))
        matrix.append(row)
        rhs.append(b)
    return DiophantineSystem(matrix, rhs, len(w_ix)), w_ix


def verify_extension_certificate(x: Complex, a: Complex, z: IntCochain, w: IntCochain) -> bool:
    """Exact check that w is a cochain on X with delta_X w = 0 and w|_A = z."""
    if any(s not in x for s in w.values) or apply_coboundary(x, w).values:
        return False
    return all(w(sigma) == z(sigma) for sigma in a.k_simplices(z.degree))


def cocycle_extension_solvable(x: Complex, a: Complex, z: IntCochain) -> IntCochain | None:
    """An integer cocycle w on X with w|_A = z, or None if there is none."""
    system, w_ix = build_extension_system(x, a, z)
    sol = smith_solve(system)
    if sol is None:
        return None
    values = {s: z(s) for s in a.k_simplices(z.degree)}
    values.update(zip(w_ix, sol))
    w = IntCochain(z.degree, values)
    if not verify_extension_certificate(x, a, z, w):
        raise ExactnessError("the extension certificate w fails its exact re-check")
    return w


def decide_extension(x: Complex, fmap: SphereMap, assume_hopf: bool = True) -> ExtendVerdict:
    """Decide whether fmap: A -> S^(n-1) extends to a continuous map on X,
    where A is `fmap.domain` and n is `fmap.n`.

    Complete for n <= 2 by one system, and, under `assume_hopf`, for
    dim X <= n.  Otherwise unsolvability of the cocycle system still
    certifies NotExtends; solvability yields Unknown.  Raises ValueError
    unless A is a subcomplex of X.
    """
    a, n = fmap.domain, fmap.n
    if not a.simplices <= x.simplices:
        raise ValueError("A must be a subcomplex of X")
    if a.is_empty():
        return ExtendVerdict(ExtendTag.EXTENDS, reason="A is empty",
                             w=IntCochain(max(n - 1, 0)))
    z = pullback_cocycle(fmap)
    w = cocycle_extension_solvable(x, a, z)
    if w is None:
        return ExtendVerdict(
            ExtendTag.NOT_EXTENDS,
            reason="the pulled-back cocycle does not extend over X (primary obstruction)",
        )
    if n <= 2:
        return ExtendVerdict(ExtendTag.EXTENDS, reason="cocycle class restricts from X",
                             w=w)
    if x.dim <= n:
        if assume_hopf:
            return ExtendVerdict(
                ExtendTag.EXTENDS,
                reason="primary obstruction vanishes and dim X <= n (Hopf extension theorem)",
                w=w)
        return ExtendVerdict(
            ExtendTag.UNKNOWN,
            reason="primary obstruction vanishes; Hopf completion disabled")
    return ExtendVerdict(
        ExtendTag.UNKNOWN,
        reason=f"dim X = {x.dim} > n = {n}: higher obstructions are not computed")


def degree(cycle: IntCochain, fmap: SphereMap) -> int:
    """Pair an (n-1)-cycle with the pulled-back fundamental cocycle."""
    if cycle.degree != fmap.n - 1:
        raise ValueError(f"cycle degree {cycle.degree}, expected {fmap.n - 1}")
    for s in cycle.values:
        if s not in fmap.domain:
            raise ValueError(f"chain simplex {list(s.vertices)} is not in the domain")
    if chain_boundary(fmap.domain, cycle).values:
        raise ValueError("input chain is not a cycle")
    z = pullback_cocycle(fmap)
    return sum(coeff * z(s) for s, coeff in cycle.values.items())
