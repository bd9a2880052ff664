"""Extendability of sphere-valued simplicial maps over a pair (X, A).

The decision is complete for target dimension n = 1 (constancy on components)
and n = 2 (the cocycle class restricts from X iff the map extends, at any
dimension of X).  For n >= 3 the same integer cocycle system is the primary
obstruction: unsolvable always means no extension; solvable means an extension
exists when dim X <= n (Hopf extension theorem, an assumption documented on
the `assume_hopf` flag) and is otherwise reported as Unknown.

Every Extends answer carries integer cochains (w, u) with

    delta_X w = 0    and    w|_A = z + delta_A u

which are re-verified by exact arithmetic before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .complex_core import (
    Complex,
    IntCochain,
    Simplex,
    apply_coboundary,
    chain_boundary,
    connected_components,
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
    u: IntCochain | None = None
    vertex_extension: dict | None = None  # n = 1 certificate: a full vertex map


@dataclass
class DiophantineSystem:
    """Integer system M x = b in `ncols` unknowns."""

    matrix: list[list[int]] = field(default_factory=list)
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


def smith_solve(system: DiophantineSystem) -> list[int] | None:
    """Integer solution of M x = b, or None iff none exists.

    One-sided column elimination: unimodular column operations on the stacked
    matrix [M; I] bring M to a column echelon form H = M U, and M x = b is
    solvable over Z iff H y = b is (then x = U y).  Row by row, a nonzero
    column is swapped into pivot place k and every later column is reduced
    into it, so the row is zero past k; the row's residual b_i - sum_{j<k}
    H[i][j] y_j then fixes y_k by exact division, or must vanish when the row
    has no pivot.  Free coordinates of y are 0.  The name is kept from the
    earlier two-sided Smith diagonalisation because the benchmark's layer map
    traces `homotopy.smith_solve` and reads `system.shape` and `system.matrix`.
    """
    m, n = system.shape
    cols = [[row[j] for row in system.matrix] + [int(i == j) for i in range(n)]
            for j in range(n)]
    y: list[int] = []
    for i in range(m):
        k = len(y)
        r = system.rhs[i] - sum(cols[j][i] * y[j] for j in range(k))
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
    if any(sum(mr[j] * x[j] for j in range(n)) != bi
           for mr, bi in zip(system.matrix, system.rhs)):
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


def build_extension_system(x: Complex, a: Complex, z: IntCochain) -> tuple[DiophantineSystem, list[Simplex], list[Simplex]]:
    """The integer system whose solvability decides whether z (a cocycle on A)
    extends to a cocycle on X up to a coboundary on A:

        delta_X w = 0,    w|_A - delta_A u = z.

    Variables are w on the (n-1)-simplices of X and u on the (n-2)-simplices
    of A.  Returns (system, w_index, u_index).
    """
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
    return DiophantineSystem(matrix, rhs, width), w_ix, u_ix


def verify_extension_certificate(x: Complex, a: Complex, z: IntCochain,
                                 w: IntCochain, u: IntCochain) -> bool:
    """Exact check of delta_X w = 0 and w|_A = z + delta_A u."""
    if apply_coboundary(x, w).values:
        return False
    du = apply_coboundary(a, u)
    n1 = z.degree
    for sigma in a.k_simplices(n1):
        if w(sigma) != z(sigma) + du(sigma):
            return False
    return True


def cocycle_extension_solvable(x: Complex, a: Complex, z: IntCochain):
    """Find integer cochains (w, u) solving the extension system, or None."""
    system, w_ix, u_ix = build_extension_system(x, a, z)
    sol = smith_solve(system)
    if sol is None:
        return None
    w = IntCochain(z.degree, {s: sol[j] for j, s in enumerate(w_ix)})
    u = IntCochain(z.degree - 1, {s: sol[len(w_ix) + j] for j, s in enumerate(u_ix)})
    if not verify_extension_certificate(x, a, z, w, u):
        raise ExactnessError("the extension certificate (w, u) fails its exact re-check")
    return w, u


def _decide_s0(x: Complex, a: Complex, fmap: SphereMap) -> ExtendVerdict:
    assignment = {}
    a_vertices = set(a.vertices)
    for comp in connected_components(x):
        labels = {fmap.image(v) for v in comp if v in a_vertices}
        if len(labels) > 1:
            return ExtendVerdict(
                ExtendTag.NOT_EXTENDS,
                reason=f"map not constant on the component containing vertex {min(comp)}",
            )
        lab = labels.pop() if labels else 1
        for v in comp:
            assignment[v] = lab
    return ExtendVerdict(ExtendTag.EXTENDS, reason="constant on every component",
                         vertex_extension=assignment)


def decide_extension(x: Complex, a: Complex, fmap: SphereMap, n: int,
                     assume_hopf: bool = True) -> ExtendVerdict:
    """Decide whether fmap: A -> S^(n-1) extends to a continuous map on X.

    Complete for n <= 2 and, under `assume_hopf`, for dim X <= n.  Otherwise
    unsolvability of the cocycle system still certifies NotExtends; solvability
    yields Unknown.
    """
    if a.is_empty():
        return ExtendVerdict(ExtendTag.EXTENDS, reason="A is empty",
                             w=IntCochain(max(n - 1, 0)), u=IntCochain(max(n - 2, 0)))
    if n == 1:
        return _decide_s0(x, a, fmap)
    z = pullback_cocycle(fmap)
    sol = cocycle_extension_solvable(x, a, z)
    if sol is None:
        return ExtendVerdict(
            ExtendTag.NOT_EXTENDS,
            reason="the pulled-back cocycle does not extend over X (primary obstruction)",
        )
    w, u = sol
    if n == 2:
        return ExtendVerdict(ExtendTag.EXTENDS, reason="cocycle class restricts from X",
                             w=w, u=u)
    if x.dim <= n:
        if assume_hopf:
            return ExtendVerdict(
                ExtendTag.EXTENDS,
                reason="primary obstruction vanishes and dim X <= n (Hopf extension theorem)",
                w=w, u=u)
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
