"""Top-level decisions: robust satisfiability, exact robustness value,
component localization, and systems with inequality constraints.

Deciding whether every alpha-perturbation of f has a root reduces to the
non-extendability of a sphere-valued map over the combinatorial sublevel pair,
so the verdict inherits the exactness of the reduction and of the integer
cocycle solver.  The robustness value is then found by a monotone search over
the finite critical-value candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm

from .complex_core import Complex, IntCochain, Simplex, full_subcomplex
from .homotopy import ExtendTag, ExtendVerdict, decide_extension
from .pl_map import (
    CriticalValue,
    Norm,
    PLMap,
    _exact_map,
    _reduced,
    critical_values,
    global_min,
    map_distance,
    max_vertex_norm,
)
from .reduction import (
    LevelPair,
    ReductionError,
    SphereMap,
    build_chi,
    sign_refinement,
    simplicial_approximation,
    split_level,
    sublevel,
    vertexwise_extremal_subdivision,
)


class RobTag(Enum):
    ROBUST_YES = "RobustYes"
    ROBUST_NO = "RobustNo"
    UNKNOWN = "Unknown"


@dataclass
class RobVerdict:
    tag: RobTag
    reason: str = ""
    witness: PLMap | None = None
    extend: ExtendVerdict | None = None


class RobustnessTag(Enum):
    UNSATISFIABLE = "Unsatisfiable"
    VALUE = "Value"
    INTERVAL = "Interval"


@dataclass
class RobustnessResult:
    tag: RobustnessTag
    value: CriticalValue | None = None
    lo: CriticalValue | None = None
    hi: CriticalValue | None = None


def _coerce_alpha(alpha) -> CriticalValue:
    if isinstance(alpha, CriticalValue):
        cv = alpha
    else:
        cv = CriticalValue.rat(Fraction(alpha))
    if cv.is_zero():
        raise ValueError("alpha must be positive")
    return cv


def reduce_to_extension(f: PLMap, alpha, norm: Norm) -> LevelPair:
    """Run the subdivision pipeline for one alpha: the validated,
    sign-refined level pair.  X and A may be empty; an empty X is a pair
    like any other."""
    if f.n < 1:
        raise ValueError("the map must have at least one component")
    alpha = _coerce_alpha(alpha)
    f1 = vertexwise_extremal_subdivision(f, norm)
    # Sign refinement stars nothing when A is empty, so it only validates.
    return sign_refinement(split_level(f1, build_chi(f1, alpha, norm)))


def _verdict_from_extension(ev: ExtendVerdict) -> RobVerdict:
    if ev.tag is ExtendTag.NOT_EXTENDS:
        return RobVerdict(RobTag.ROBUST_YES, reason=ev.reason, extend=ev)
    if ev.tag is ExtendTag.EXTENDS:
        return RobVerdict(RobTag.ROBUST_NO, reason=ev.reason, extend=ev)
    return RobVerdict(RobTag.UNKNOWN, reason=ev.reason, extend=ev)


def decide_robsat(f: PLMap, alpha, norm: Norm, assume_hopf: bool = True) -> RobVerdict:
    """Does every alpha-perturbation of f have a root?

    RobustYes means the sphere map on A does not extend over X; RobustNo means
    it does, or that X is empty; Unknown is possible only beyond the decidable
    range (n >= 3 with dim X > n).

    >>> from robsat.complex_core import closure
    >>> from robsat.pl_map import PLMap, Norm
    >>> path = closure([[0, 1], [1, 2]])
    >>> f = PLMap(path, 1, {0: (3,), 1: (-1,), 2: (3,)})
    >>> decide_robsat(f, 1, Norm.LINF).tag.value
    'RobustYes'
    >>> decide_robsat(f, 3, Norm.LINF).tag.value
    'RobustNo'
    """
    alpha = _coerce_alpha(alpha)
    pair = reduce_to_extension(f, alpha, norm)
    if pair.x.is_empty():
        # |f| > alpha on the vertex-extremal subdivision's vertices, so f is a
        # rootless perturbation of itself; the witness is re-checked exactly
        _validate_witness(f, f, alpha, norm)
        return RobVerdict(
            RobTag.ROBUST_NO,
            reason="|f| exceeds alpha everywhere; f is its own rootless perturbation",
            witness=f)
    ev = decide_extension(pair.x, simplicial_approximation(pair), assume_hopf=assume_hopf)
    return _verdict_from_extension(ev)


def _validate_witness(f: PLMap, g: PLMap, alpha: CriticalValue, norm: Norm) -> None:
    """The one exact re-check of a witness g: rootless, and within alpha of f."""
    if global_min(g, norm).is_zero():
        raise ReductionError("witness has a root")
    if alpha < map_distance(f, g, norm):
        raise ReductionError("witness is farther than alpha from f")


def robustness(f: PLMap, norm: Norm, assume_hopf: bool = True) -> RobustnessResult:
    """Exact robustness of the root of f.

    Unsatisfiable when f has no root at all.  Otherwise the answer is the
    largest critical value at which the decision is RobustYes (robustness is
    always a critical value, and RobustYes is downward closed in alpha: an
    alpha'-perturbation with alpha' < alpha is an alpha-perturbation).  When
    Unknown verdicts block the search, a sound enclosing interval is returned.
    """
    if f.n < 1:
        raise ValueError("the map must have at least one component")
    values = critical_values(f, norm)
    if not values:
        raise ValueError("empty complex has no minimum")
    if not values[0].is_zero():
        return RobustnessResult(RobustnessTag.UNSATISFIABLE)
    positive = values[1:]
    zero = CriticalValue.rat(0)
    if not positive:
        return RobustnessResult(RobustnessTag.VALUE, value=zero)
    # The subdivision is the same function as f, and deciding it skips the
    # alpha-independent subdivision at every probe.
    extremal = vertexwise_extremal_subdivision(f, norm)

    verdicts: dict[int, RobTag] = {}

    def decide(i: int) -> RobTag:
        if i not in verdicts:
            verdicts[i] = decide_robsat(extremal, positive[i], norm, assume_hopf=assume_hopf).tag
        return verdicts[i]

    lo, hi = -1, len(positive)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        tag = decide(mid)
        if tag is RobTag.ROBUST_YES:
            lo = mid
        elif tag is RobTag.ROBUST_NO:
            hi = mid
        else:
            # Unknown at the probe: fall back to a full scan of the remaining
            # window and report the tightest confirmed bounds.
            best_yes, least_no = lo, hi
            for i in range(lo + 1, hi):
                t = decide(i)
                if t is RobTag.ROBUST_YES:
                    best_yes = max(best_yes, i)
                elif t is RobTag.ROBUST_NO:
                    least_no = min(least_no, i)
            lo_value = positive[best_yes] if best_yes >= 0 else zero
            hi_value = positive[least_no] if least_no < len(positive) else max_vertex_norm(f, norm)
            return RobustnessResult(RobustnessTag.INTERVAL, lo=lo_value, hi=hi_value)
    return RobustnessResult(RobustnessTag.VALUE,
                            value=positive[lo] if lo >= 0 else zero)


def locate_components(f: PLMap, alpha, norm: Norm, assume_hopf: bool = True):
    """Connected components of X in which every alpha-perturbation of f must
    have a root.  Returns (component vertex tuple, RobVerdict) pairs for the
    components whose restricted sphere map does not extend."""
    from .complex_core import connected_components

    alpha = _coerce_alpha(alpha)
    pair = reduce_to_extension(f, alpha, norm)
    fmap = simplicial_approximation(pair)
    results = []
    for comp in connected_components(pair.x):
        x_i = full_subcomplex(pair.x, comp)
        a_i = full_subcomplex(pair.a, comp & set(pair.a.vertices))
        fmap_i = SphereMap(a_i, f.n, {v: fmap.image(v) for v in a_i.vertices})
        ev = decide_extension(x_i, fmap_i, assume_hopf=assume_hopf)
        if ev.tag is ExtendTag.NOT_EXTENDS:
            results.append((tuple(sorted(comp)), _verdict_from_extension(ev)))
    return results


def decide_with_inequalities(f: PLMap, g: PLMap, alpha, norm: Norm = Norm.LINF,
                             assume_hopf: bool = True) -> RobVerdict:
    """Robust satisfiability of the system f = 0 and g <= 0 under the max
    norm: every alpha-perturbation of the system is satisfiable iff every
    alpha-perturbation of f restricted to U = {g <= -alpha} has a root there.

    U is the `sublevel` of the passes g_i + alpha, triangulated exactly.
    The vertices the decision on U adds are numbered on from `sublevel`'s
    next id, so none takes the id of an instance vertex the cut dropped.
    """
    if norm != Norm.LINF:
        raise ValueError("inequality systems are supported for the max norm only")
    alpha_cv = _coerce_alpha(alpha)
    if alpha_cv.is_sqrt:
        raise ValueError("alpha must be rational for inequality systems")
    if g.n == 0:
        return decide_robsat(f, alpha_cv, norm, assume_hopf=assume_hopf)
    if f.complex != g.complex:
        raise ValueError("f and g must live on the same complex")
    joined = {}  # (f, g) over the lcm of the two reduced denominators is reduced
    for v in f.complex.vertices:
        (a, da), (b, db) = f._pairs[v], g._pairs[v]
        d = lcm(da, db)
        joined[v] = tuple(x * (d // da) for x in a) + tuple(x * (d // db) for x in b), d
    # pass i is g_i + alpha = (q nums_i + p den, q den) at nums / den, for alpha = p / q
    p, q = alpha_cv.q.numerator, alpha_cv.q.denominator
    u, pairs, next_id = sublevel(_exact_map(f.complex, f.n + g.n, joined),
                                 [lambda v, y, i=i: (q * y[0][i] + p * y[1], q * y[1])
                                  for i in range(f.n, f.n + g.n)])
    if not u:
        return RobVerdict(
            RobTag.ROBUST_NO,
            reason="the constrained region {g <= -alpha} is empty")
    f_u = _exact_map(Complex(u), f.n, {v: _reduced(nums[: f.n], den)
                                       for v, (nums, den) in pairs.items()})
    verdict = decide_robsat(f_u, alpha_cv, norm, assume_hopf=assume_hopf)
    # A witness here would be f_u, which lives on U's subdivided vertices,
    # not on the instance's complex.
    verdict.witness = None
    if verdict.extend is not None and verdict.extend.w is not None:
        # decide_robsat numbers on from U's largest vertex, consecutively, and
        # reads ids only by their order: shifted, they are the ids from next_id
        top, w = f_u.complex.vertices[-1], verdict.extend.w
        verdict.extend.w = IntCochain(w.degree, {
            Simplex(x + next_id - top - 1 if x > top else x for x in s): c
            for s, c in w.values.items()})
    return verdict
