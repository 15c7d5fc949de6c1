"""Distance-based representative skylines: k-center along the planar
Pareto front.

The library computes skylines output-sensitively, decides coverability
by k radius-bounded disks with or without materializing the skyline,
solves the optimization exactly by a multi-array search over the sorted
distance matrix's rows or by parametric search, and offers
linear/near-linear routes for very small k.  The test suite checks
every route against exhaustive ground truth kept with the tests.
"""

from .decision import decide_grouped, decide_materialized
from .exact import (SortedDistanceMatrix, matrix_select, solve_parametric,
                    solve_via_matrix)
from .geom import dist_sq
from .grouped import build
from .instances import InstanceSpec, generate
from .skyline import skyline_bounded, skyline_optimal, slow_skyline
from .smallk import approx_solve, gonzalez_2approx, solve_one_center

__version__ = "0.1.0"

__all__ = [
    "InstanceSpec", "SortedDistanceMatrix", "approx_solve", "build",
    "decide_grouped", "decide_materialized", "dist_sq", "generate",
    "gonzalez_2approx", "matrix_select", "skyline_bounded", "skyline_optimal",
    "slow_skyline", "solve_one_center", "solve_parametric", "solve_via_matrix",
]
