"""Distance-based representative skylines: k-center along the planar
Pareto front.

The library computes skylines output-sensitively, decides coverability
by k radius-bounded disks with or without materializing the skyline,
solves the optimization exactly by a greedy at the unknown optimum,
one staircase row per step, by a multi-array search over the sorted
distance matrix's rows or by parametric search, and offers
linear/near-linear routes for very small k.  The test suite checks
every route against exhaustive ground truth kept with the tests.
"""

from .decision import decide_grouped, decide_materialized
from .exact import (SortedDistanceMatrix, matrix_select, solve_by_rows,
                    solve_parametric, solve_via_matrix)
from .geom import dist_sq
from .grouped import build
from .skyline import skyline_bounded, skyline_optimal, slow_skyline
from .smallk import approx_solve, gonzalez_2approx, solve_one_center

__version__ = "0.1.0"

# The seeded generators' names and default seed, for the CLI's parser.
GENERATORS = ("uniform-square", "clustered", "staircase", "circle-quadrant")
DEFAULT_SEED = 20240 + 817


def __getattr__(name):
    # The generators load on first use, not at start-up (PEP 562).
    if name in ("InstanceSpec", "generate"):
        from . import instances
        return getattr(instances, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "InstanceSpec", "SortedDistanceMatrix", "approx_solve", "build",
    "decide_grouped", "decide_materialized", "dist_sq", "generate",
    "gonzalez_2approx", "matrix_select", "skyline_bounded", "skyline_optimal",
    "slow_skyline", "solve_by_rows", "solve_one_center", "solve_parametric",
    "solve_via_matrix",
]
