"""Exact decision procedures for robust satisfiability of piecewise-linear
equation systems on finite simplicial complexes."""

from .complex_core import (
    Complex,
    IntCochain,
    Simplex,
    closure,
    connected_components,
    full_subcomplex,
    make_full,
    star_at_point,
)
from .homotopy import (
    DiophantineSystem,
    ExtendTag,
    ExtendVerdict,
    decide_extension,
    degree,
    pullback_cocycle,
    smith_solve,
)
from .pl_map import (
    CriticalValue,
    Norm,
    PLMap,
    critical_values,
    global_min,
    simplex_min,
)
from .reduction import (
    LevelPair,
    SphereMap,
    build_chi,
    sign_refinement,
    simplicial_approximation,
    split_level,
    star_crossings,
    vertexwise_extremal_subdivision,
)
from .robustness import (
    RobTag,
    RobVerdict,
    RobustnessResult,
    RobustnessTag,
    decide_robsat,
    decide_with_inequalities,
    locate_components,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
