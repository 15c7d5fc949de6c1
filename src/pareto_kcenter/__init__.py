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

__version__ = "0.1.0"

# The seeded generators' names and default seed, for the CLI's parser.
GENERATORS = ("uniform-square", "clustered", "staircase", "circle-quadrant")
DEFAULT_SEED = 20240 + 817

# The module that defines each public name.  Importing the package loads
# none of them, nor numpy: each name is looked up in its module when it
# is used (PEP 562), and never cached here, so that a name rebound in its
# module (as span tracing does) reads the same through the package.
_HOME = {
    "InstanceSpec": "instances", "generate": "instances",
    "SortedDistanceMatrix": "exact", "matrix_select": "exact",
    "solve_by_rows": "exact", "solve_parametric": "exact",
    "solve_via_matrix": "exact",
    "approx_solve": "smallk", "gonzalez_2approx": "smallk",
    "solve_one_center": "smallk",
    "build": "grouped",
    "decide_grouped": "decision", "decide_materialized": "decision",
    "dist_sq": "geom",
    "skyline_bounded": "skyline", "skyline_optimal": "skyline",
    "slow_skyline": "skyline",
}

__all__ = sorted(_HOME)


def __getattr__(name):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
