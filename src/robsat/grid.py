"""Standard triangulation of a rational box by coordinate-order chains.

Each grid cell is cut into m! simplices, one per axis permutation: a chain
walks from the cell's low corner to its high corner one axis at a time.
Neighbouring cells share faces, so the union is a simplicial complex whose
underlying space is the box.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

from .complex_core import Complex, Simplex, VertexId, closure


@dataclass
class FreudenthalGrid:
    complex: Complex
    points: dict[VertexId, tuple[Fraction, ...]]
    bounds: list[tuple[Fraction, Fraction]]
    resolution: list[int]

    @property
    def m(self) -> int:
        return len(self.bounds)

    def vertex_at(self, indices) -> VertexId:
        vid = 0
        for i, k in enumerate(indices):
            vid = vid * (self.resolution[i] + 1) + k
        return vid

    def cell_widths(self) -> list[Fraction]:
        return [(hi - lo) / r for (lo, hi), r in zip(self.bounds, self.resolution)]

    def cell_box(self, cell) -> list[tuple[Fraction, Fraction]]:
        h = self.cell_widths()
        return [(lo + c * hi_, lo + (c + 1) * hi_)
                for (lo, _), c, hi_ in zip(self.bounds, cell, h)]

    def cells(self):
        return product(*(range(r) for r in self.resolution))

    def locate(self, point):
        """Containing simplex and barycentric weights of a point in the box."""
        m = self.m
        cell = []
        frac = []
        for i, x in enumerate(point):
            lo, hi = self.bounds[i]
            x = Fraction(x)
            if x < lo or x > hi:
                raise ValueError(f"coordinate {i} out of bounds")
            s = (x - lo) * self.resolution[i] / (hi - lo)
            c = min(int(s), self.resolution[i] - 1)
            cell.append(c)
            frac.append(s - c)
        order = sorted(range(m), key=lambda i: (-frac[i], i))
        chain = [tuple(cell)]
        cur = list(cell)
        for i in order:
            cur[i] += 1
            chain.append(tuple(cur))
        weights: dict[VertexId, Fraction] = {}
        lam0 = 1 - frac[order[0]] if m else Fraction(1)
        lams = [lam0]
        for j in range(1, m):
            lams.append(frac[order[j - 1]] - frac[order[j]])
        lams.append(frac[order[m - 1]] if m else Fraction(0))
        for idx, lam in zip(chain, lams[: m + 1]):
            if lam != 0:
                vid = self.vertex_at(idx)
                weights[vid] = weights.get(vid, Fraction(0)) + lam
        simplex = Simplex.of(self.vertex_at(idx) for idx in chain)
        return simplex, weights


def freudenthal_grid(bounds, resolution) -> FreudenthalGrid:
    """Triangulated box.  `bounds` is a list of rational (lo, hi) pairs, and
    `resolution` the number of cells per axis (an int applies to all axes)."""
    bounds = [(Fraction(lo), Fraction(hi)) for lo, hi in bounds]
    m = len(bounds)
    if m == 0:
        raise ValueError("the box must have at least one axis")
    if isinstance(resolution, int):
        resolution = [resolution] * m
    resolution = [int(r) for r in resolution]
    if len(resolution) != m or any(r < 1 for r in resolution):
        raise ValueError("resolution must give a positive cell count per axis")
    for lo, hi in bounds:
        if not lo < hi:
            raise ValueError("each interval must have positive length")

    grid = FreudenthalGrid(closure([]), {}, bounds, resolution)
    for idx in product(*(range(r + 1) for r in resolution)):
        grid.points[grid.vertex_at(idx)] = tuple(
            lo + Fraction(k) * (hi - lo) / r for (lo, hi), r, k in zip(bounds, resolution, idx))
    simplices = []
    for cell in grid.cells():
        for perm in permutations(range(m)):
            cur = list(cell)
            chain = [grid.vertex_at(cur)]
            for i in perm:
                cur[i] += 1
                chain.append(grid.vertex_at(cur))
            simplices.append(chain)
    grid.complex = closure(simplices)
    return grid
