"""Stage times of one decision on the sampled grid maps G(r).

Run from the repository root:

    PYTHONPATH=src python3 tests/stage_timing.py

G(r) is f(x, y) = (x^2 - y - 1/4, x + y^2 - 1/3) sampled exactly on
`freudenthal_grid([(-1, 1), (-1, 1)], r)`.  For each r in 8, 16, 32, norm
(linf, l2) and alpha (1/8, 3/2) it
calls the `reduction` and `homotopy` functions in the order `decide_robsat`
runs them and records one row:

* sample: `sample_polynomial` on G(r), which holds no cache, so every run
  is cold, and the sampling gap it returns, as a string;
* K -> K': simplex counts before and after the vertex-extremal subdivision,
  and a sha256 prefix over the subdivided complex and its vertex values, so
  two checkouts that print the same prefix built the same subdivision;
* extremal: `vertexwise_extremal_subdivision`, with every functools cache
  of the robsat modules it runs (`_simplex_min`) cleared before each run,
  and run on a fresh copy of the sampled map, whose vertex-norm tables
  (`PLMap.vertex_norms`) are empty, so every vertex norm and simplex
  minimum is computed cold;
* fraction_share: the share of self time spent in `fractions.py` and
  `math.gcd` during one more cold extremal run, under cProfile (the
  profiled run is not one of the timed ones);
* lp_solves, lp_pivots, exact_solves: the `linprog.solve_lp` calls of one
  more cold extremal run, counted by a wrapper on the name `pl_map` calls,
  the `linprog.pivot` calls of the same run (phase 1, a start basis, phase
  2 and the lexicographic stage), counted by a wrapper on the name
  `linprog` calls, and its `exactlinalg.solve` calls (the l2 origin and
  KKT systems), counted by a wrapper on that name;
* split, sign: `split_level` (which stars and cuts X as a simplex set,
  building no complex) and `sign_refinement` (which stars on a copy of that
  set, builds A and validates);
* level: `split_level`, `sign_refinement` and building the pair's X and A,
  together (X is built on first read, after `sign_refinement`, so `split_s`
  and `sign_s` alone would miss its cost), and the simplex count of X;
* level_builds, level_indexes: the `Complex` builds of one level stage,
  counted by a wrapper on `Complex.__init__`, and how many of those
  complexes then built their sorted per-dimension index, counted by a
  wrapper on `Complex._index` (a build only freezes the simplex set, so
  the index count is the one that tracks the sorting); unlike the times
  they do not drift with the machine's load;
* Smith: `smith_solve` on the cocycle-extension system, with its shape;
* ext.: the whole `decide_extension` call, certificate re-check included.

Each time is the least of 3 runs, in seconds.  The rows are printed as one
JSON list.  pytest does not collect this file.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import pstats
import sys
import time
from collections import Counter
from fractions import Fraction

from robsat import complex_core, exactlinalg, linprog, pl_map, reduction
from robsat.grid import freudenthal_grid
from robsat.homotopy import build_extension_system, decide_extension, pullback_cocycle, smith_solve
from robsat.pl_map import CriticalValue, Norm, PLMap
from robsat.polynomials import parse_polynomial
from robsat.reduction import (
    build_chi,
    sign_refinement,
    simplicial_approximation,
    split_level,
    vertexwise_extremal_subdivision,
)
from robsat.sampling import sample_polynomial

from helpers import fraction_values

EXPRS = ["x**2 - y - 1/4", "x + y**2 - 1/3"]
RESOLUTIONS = [8, 16, 32]
ALPHAS = [Fraction(1, 8), Fraction(3, 2)]
NORMS = [Norm.LINF, Norm.L2]
REPEAT = 3


def best_of(fn, before=None):
    """(least wall time over REPEAT runs of fn, fn's last result)."""
    best = None
    for _ in range(REPEAT):
        if before is not None:
            before()
        start = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, out


def clear_caches() -> None:
    """Clear every functools cache in the modules the extremal stage runs."""
    for module in (complex_core, exactlinalg, linprog, pl_map, reduction):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def fraction_share(cold_map, norm: Norm) -> float:
    """Share of self time in fractions.py and math.gcd while cProfile runs
    one extremal stage on cold_map."""
    prof = cProfile.Profile()
    prof.runcall(vertexwise_extremal_subdivision, cold_map, norm)
    stats = pstats.Stats(prof).stats  # (file, line, name) -> (cc, nc, self, cum, callers)
    total = sum(row[2] for row in stats.values())
    rational = sum(row[2] for (path, _, name), row in stats.items()
                   if path.endswith("fractions.py") or name == "<built-in method math.gcd>")
    return round(rational / total, 3)


def lp_counts(cold_map, norm: Norm) -> tuple[int, int, int]:
    """The `linprog.solve_lp`, `linprog.pivot` and `exactlinalg.solve` calls
    of one extremal stage on cold_map."""
    calls = Counter()
    solve, pivot, exact = pl_map.solve_lp, linprog.pivot, exactlinalg.solve

    def counted(fn, name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    pl_map.solve_lp, linprog.pivot = counted(solve, "solve"), counted(pivot, "pivot")
    exactlinalg.solve = counted(exact, "exact")
    try:
        vertexwise_extremal_subdivision(cold_map, norm)
    finally:
        pl_map.solve_lp, linprog.pivot, exactlinalg.solve = solve, pivot, exact
    return calls["solve"], calls["pivot"], calls["exact"]


def level_pair(f1, chi):
    """The validated level pair, with its X and A built."""
    pair = sign_refinement(split_level(f1, chi))
    _ = pair.x, pair.a  # built on first use
    return pair


def level_builds(f1, chi) -> tuple[int, int]:
    """The `Complex` builds of one `level_pair` call, and the index builds
    among them."""
    builds = indexes = 0
    init, index = complex_core.Complex.__init__, complex_core.Complex._index

    def counted_init(self, simplices):
        nonlocal builds
        builds += 1
        init(self, simplices)

    def counted_index(self):
        nonlocal indexes
        indexes += self._by_dim is None
        return index(self)

    complex_core.Complex.__init__, complex_core.Complex._index = counted_init, counted_index
    try:
        level_pair(f1, chi)
    finally:
        complex_core.Complex.__init__, complex_core.Complex._index = init, index
    return builds, indexes


def map_digest(f) -> str:
    text = json.dumps([sorted(s.vertices for s in f.complex.simplices),
                       sorted((v, [str(x) for x in y]) for v, y in fraction_values(f).items())])
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def stage_row(r: int, norm: Norm, alpha: Fraction) -> dict:
    grid = freudenthal_grid([(-1, 1), (-1, 1)], r)
    polys = [parse_polynomial(e, ["x", "y"]) for e in EXPRS]
    sample_s, (f, gap) = best_of(lambda: sample_polynomial(polys, grid, norm))
    row = {"r": r, "norm": norm.value, "alpha": str(alpha), "sample_s": sample_s,
           "gap": str(gap), "simplices_in": len(f.complex)}
    cold = []

    def fresh_map():
        clear_caches()
        cold[:] = [PLMap(f.complex, f.n, fraction_values(f))]

    t, f1 = best_of(lambda: vertexwise_extremal_subdivision(cold[0], norm), before=fresh_map)
    row.update(simplices_out=len(f1.complex), extremal_digest=map_digest(f1), extremal_s=t)
    fresh_map()
    row["fraction_share"] = fraction_share(cold[0], norm)
    fresh_map()
    row["lp_solves"], row["lp_pivots"], row["exact_solves"] = lp_counts(cold[0], norm)
    chi = build_chi(f1, CriticalValue.rat(alpha), norm)
    row["split_s"], pair = best_of(lambda: split_level(f1, chi))
    row["sign_s"], pair = best_of(lambda: sign_refinement(pair))
    row["level_s"], pair = best_of(lambda: level_pair(f1, chi))
    row["x_simplices"] = len(pair.x)
    row["level_builds"], row["level_indexes"] = level_builds(f1, chi)
    if pair.a.is_empty():
        return row  # the decision short-circuits: no system to solve
    fmap = simplicial_approximation(pair)
    system, _ = build_extension_system(pair.x, pair.a, pullback_cocycle(fmap))
    row["smith_s"], _ = best_of(lambda: smith_solve(system))
    row["system"] = list(system.shape)
    row["ext_s"], ev = best_of(lambda: decide_extension(pair.x, fmap))
    row["ext_verdict"] = ev.tag.value
    return row


def main() -> int:
    rows = [stage_row(r, norm, alpha)
            for r in RESOLUTIONS for norm in NORMS for alpha in ALPHAS]
    print(json.dumps(rows, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
