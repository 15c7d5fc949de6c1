"""Distance-based representative skylines: k-center along the planar
Pareto front.

The library computes skylines output-sensitively, decides coverability
by k radius-bounded disks with or without materializing the skyline,
solves the optimization exactly by a multi-array search over the sorted
distance matrix's rows or by parametric search, and offers
linear/near-linear routes for very small k, all validated against
brute-force oracles.
"""

from .decision import DecisionOutcome, decide_grouped, decide_materialized
from .errors import (DegenerateSpan, EmptyInput, InstanceTooLarge,
                     InternalInvariantViolation, InvalidEpsilon, NotFound,
                     RankOutOfRange)
from .exact import (SolveResult, SortedDistanceMatrix, matrix_select,
                    multi_array_search, solve_parametric, solve_via_matrix)
from .geom import (AlphaCurve, LEFT, Point, PointSet, RIGHT_OR_BEYOND,
                   SkylineArray, dist_sq, dominates, side_of_alpha)
from .grouped import (GroupedSkyline, build, next_on_skyline,
                      next_relevant_point, test_membership_and_prev)
from .instances import GENERATORS, InstanceSpec, generate
from .instrument import counters
from .oracle import (brute_matrix_rank, brute_opt, brute_psi_sq,
                     brute_skyline)
from .skyline import (BoundedResult, skyline_bounded, skyline_optimal,
                      slow_skyline)
from .smallk import (Slab, approx_solve, bisector_extremes, gonzalez_2approx,
                     solve_one_center)

__version__ = "0.1.0"

__all__ = [
    "AlphaCurve", "BoundedResult", "DecisionOutcome", "DegenerateSpan",
    "EmptyInput", "GENERATORS", "GroupedSkyline", "InstanceSpec",
    "InstanceTooLarge", "InternalInvariantViolation", "InvalidEpsilon",
    "LEFT", "NotFound", "Point", "PointSet", "RIGHT_OR_BEYOND",
    "RankOutOfRange", "SkylineArray", "Slab", "SolveResult",
    "SortedDistanceMatrix", "approx_solve", "bisector_extremes",
    "brute_matrix_rank", "brute_opt", "brute_psi_sq", "brute_skyline",
    "build", "counters", "decide_grouped", "decide_materialized", "dist_sq",
    "dominates", "generate", "gonzalez_2approx", "matrix_select",
    "multi_array_search", "next_on_skyline", "next_relevant_point",
    "side_of_alpha",
    "skyline_bounded", "skyline_optimal", "slow_skyline",
    "solve_one_center", "solve_parametric", "solve_via_matrix",
    "test_membership_and_prev",
]
