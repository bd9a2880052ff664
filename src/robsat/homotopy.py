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

    @property
    def decided(self) -> bool:
        return self.tag is not ExtendTag.UNKNOWN


@dataclass
class DiophantineSystem:
    """Integer system M x = b with human-readable variable labels."""

    matrix: list[list[int]] = field(default_factory=list)
    rhs: list[int] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.matrix), len(self.labels)


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


def smith_solve(system: DiophantineSystem) -> list[int] | None:
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


def pullback_cocycle(fmap: SphereMap, orientation: int = 1) -> IntCochain:
    """Pull the fundamental cocycle of the sphere back along a simplicial map.

    The value on a sorted (n-1)-simplex is zero unless its vertices map
    bijectively onto {e_1, ..., e_n}, in which case it is the sign of that
    permutation relative to the distinguished oriented simplex [e_1, ..., e_n]
    (times `orientation`, which flips when the distinguished simplex is
    reversed).
    """
    n = fmap.n
    values: dict[Simplex, int] = {}
    for s in fmap.domain.k_simplices(n - 1):
        labels = [fmap.image(v) for v in s.vertices]
        if any(l < 0 for l in labels) or sorted(labels) != list(range(1, n + 1)):
            continue
        values[s] = orientation * permutation_parity(labels)
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
    labels = [f"w{list(s.vertices)}" for s in w_ix] + [f"u{list(s.vertices)}" for s in u_ix]
    return DiophantineSystem(matrix, rhs, labels), w_ix, u_ix


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
    for comp in connected_components(x):
        labels = {fmap.image(v) for v in comp if v in set(a.vertices)}
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


def degree(cycle: IntCochain, fmap: SphereMap, orientation: int = 1) -> int:
    """Pair an (n-1)-cycle with the pulled-back fundamental cocycle."""
    if cycle.degree != fmap.n - 1:
        raise ValueError(f"cycle degree {cycle.degree}, expected {fmap.n - 1}")
    if chain_boundary(fmap.domain, cycle).values:
        raise ValueError("input chain is not a cycle")
    z = pullback_cocycle(fmap, orientation)
    return sum(coeff * z(s) for s, coeff in cycle.values.items())
