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

from .complex_core import Complex, VertexId, closure


@dataclass
class FreudenthalGrid:
    complex: Complex
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

    def cells(self):
        return product(*(range(r) for r in self.resolution))


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

    grid = FreudenthalGrid(closure([]), bounds, resolution)
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
