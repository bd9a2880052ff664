"""Decision invariants of `decide_robsat` on random instances: n <= 2, every
norm, complexes up to dimension 3.

Whether every alpha-perturbation of f has a root does not change when f and
alpha are scaled by the same c > 0, nor when f's complex is subdivided (the
function stays the same), and it can only go from yes to no as alpha grows.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from robsat.complex_core import closure
from robsat.pl_map import CriticalValue, Norm, star_with_values, vector_norm
from robsat.reduction import vertexwise_extremal_subdivision
from robsat.robustness import RobTag, decide_robsat

from helpers import point_stars, random_interior_point, random_map, scale_map, scaled

INVARIANT = settings(derandomize=True, deadline=None, max_examples=40)


@st.composite
def instances(draw):
    """(f, norm, alphas, rng): a random map on a complex with a simplex of
    the drawn dimension, sorted candidate alphas that include its nonzero
    vertex norms, and the generator for any further random choices."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    dim = draw(st.integers(1, 3))
    cx = closure([rng.sample(range(5), dim + 1),
                  rng.sample(range(5), rng.randint(1, dim + 1))])
    f = random_map(rng, cx, draw(st.integers(1, 2)))
    norm = draw(st.sampled_from(list(Norm)))
    alphas = [vector_norm(f.value(v), norm) for v in cx.vertices]
    alphas += [CriticalValue.rat(Fraction(k, 2)) for k in range(1, 9)]
    return f, norm, sorted({a for a in alphas if not a.is_zero()}), rng


@INVARIANT
@given(instances(), st.sampled_from([Fraction(1, 3), Fraction(2), Fraction(7, 2)]),
       st.data())
def test_scaling_invariance(inst, c, data):
    f, norm, alphas, _ = inst
    alpha = data.draw(st.sampled_from(alphas))
    assert (decide_robsat(f, alpha, norm).tag
            == decide_robsat(scale_map(f, c), scaled(alpha, c), norm).tag)


@INVARIANT
@given(instances(), st.integers(1, 3), st.data())
def test_subdivision_invariance(inst, stars, data):
    f, norm, alphas, rng = inst
    g = f
    for _ in range(stars):
        carrier = rng.choice([s for s in g.complex.simplices if s.dim > 0])
        batch = [(carrier, random_interior_point(rng, carrier))]
        g, _ = star_with_values(g, point_stars(g, batch))
    alpha = data.draw(st.sampled_from(alphas))
    assert decide_robsat(f, alpha, norm).tag == decide_robsat(g, alpha, norm).tag


@INVARIANT
@given(instances())
def test_monotone_in_alpha(inst):
    f, norm, alphas, _ = inst
    g = vertexwise_extremal_subdivision(f, norm)
    tags = [decide_robsat(g, alpha, norm).tag for alpha in alphas]
    assert RobTag.UNKNOWN not in tags
    no = [alpha for alpha, tag in zip(alphas, tags) if tag is RobTag.ROBUST_NO]
    yes = [alpha for alpha, tag in zip(alphas, tags) if tag is RobTag.ROBUST_YES]
    assert not (no and yes and min(no) < max(yes)), (no, yes)
