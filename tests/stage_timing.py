"""Stage times of one decision on the sampled grid maps G(r).

Run from the repository root:

    PYTHONPATH=src python3 tests/stage_timing.py

G(r) is f(x, y) = (x^2 - y - 1/4, x + y^2 - 1/3) sampled exactly on
`freudenthal_grid([(-1, 1), (-1, 1)], r)`.  For each r in 8, 16, 32, norm
(linf, l2) and alpha (1/8, 3/2) it
calls the `reduction` and `homotopy` functions in the order `decide_robsat`
runs them and records one row:

* K -> K': simplex counts before and after the vertex-extremal subdivision,
  and a sha256 prefix over the subdivided complex and its vertex values, so
  two checkouts that print the same prefix built the same subdivision;
* extremal: `vertexwise_extremal_subdivision`, with `_min_value_cached`
  cleared before each run, so every simplex minimum is computed cold;
* split, sign: `split_level` and `sign_refinement` (which validates);
* Smith: `smith_solve` on the cocycle-extension system, with its shape;
* ext.: the whole `decide_extension` call, certificate re-check included.

Each time is the least of 3 runs, in seconds.  The rows are printed as one
JSON list.  pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from fractions import Fraction

from robsat import pl_map
from robsat.grid import freudenthal_grid
from robsat.homotopy import build_extension_system, decide_extension, pullback_cocycle, smith_solve
from robsat.pl_map import CriticalValue, Norm
from robsat.polynomials import parse_polynomial
from robsat.reduction import (
    build_chi,
    sign_refinement,
    simplicial_approximation,
    split_level,
    vertexwise_extremal_subdivision,
)
from robsat.sampling import sample_polynomial

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


def map_digest(f) -> str:
    text = json.dumps([sorted(s.vertices for s in f.complex.simplices),
                       sorted((v, [str(x) for x in y]) for v, y in f.values.items())])
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def stage_row(r: int, norm: Norm, alpha: Fraction) -> dict:
    grid = freudenthal_grid([(-1, 1), (-1, 1)], r)
    polys = [parse_polynomial(e, ["x", "y"]) for e in EXPRS]
    f, _ = sample_polynomial(polys, grid, norm)
    row = {"r": r, "norm": norm.value, "alpha": str(alpha), "simplices_in": len(f.complex)}
    t, f1 = best_of(lambda: vertexwise_extremal_subdivision(f, norm),
                    before=pl_map._min_value_cached.cache_clear)
    row.update(simplices_out=len(f1.complex), extremal_digest=map_digest(f1), extremal_s=t)
    chi = build_chi(f1, CriticalValue.rat(alpha), norm)
    row["split_s"], pair = best_of(lambda: split_level(f1, chi))
    row["sign_s"], pair = best_of(lambda: sign_refinement(pair))
    if pair.a.is_empty():
        return row  # the decision short-circuits: no system to solve
    fmap = simplicial_approximation(pair)
    system, _ = build_extension_system(pair.x, pair.a, pullback_cocycle(fmap))
    row["smith_s"], _ = best_of(lambda: smith_solve(system))
    row["system"] = list(system.shape)
    row["ext_s"], ev = best_of(lambda: decide_extension(pair.x, pair.a, fmap, f.n))
    row["ext_verdict"] = ev.tag.value
    return row


def main() -> int:
    rows = [stage_row(r, norm, alpha)
            for r in RESOLUTIONS for norm in NORMS for alpha in ALPHAS]
    print(json.dumps(rows, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
