"""Decision procedures: is the skyline coverable by k disks of a given
radius, with centers on the skyline?

Both procedures run the same left-to-right greedy: from the leftmost
uncovered point, the center is the farthest skyline point in reach, and
the cluster extends as far as that center reaches.  One gallops along a
skyline's coordinate columns, the other works over a GroupedSkyline and
never materializes anything.
"""

from __future__ import annotations

from .errors import EmptyInput
from .geom import Point, Record, SkylineArray
from .grouped import GroupedSkyline, next_on_skyline, next_relevant_point
from .instrument import counters

Cluster = tuple[Point, Point, Point]  # (leftmost, center, rightmost)


class DecisionOutcome(Record):
    __slots__ = ("feasible", "centers", "clusters")

    def __init__(self, feasible: bool, centers: tuple[Point, ...] = (),
                 clusters: tuple[Cluster, ...] = ()):
        self._fill(feasible, centers, clusters)


INCOMPLETE = DecisionOutcome(False)
COVERED = DecisionOutcome(True)  # a verdict alone, with no centers


def _reach(xs: list, ys: list, a: int, radius: float) -> tuple[int, int]:
    """Last index e >= a with (xs[e], ys[e]) within the radius of point a,
    and the distances computed to find it.  Distances from a grow along
    the staircase to its right (rounding is monotone), so the points in
    reach are a prefix: steps to a + 1, a + 3, a + 7, ... bracket its end
    and a bisection of the bracket finds it, O(log(e - a)) distances.
    radius is only compared as ``d <= radius``, so the row route can pass
    an object that answers that compare (exact._BelowOptimum)."""
    ax, ay = xs[a], ys[a]
    lo, hi, gallop, evals = a, len(xs), True, 0  # within at lo, not at hi
    while hi - lo > 1:
        j = 2 * lo - a + 1 if gallop else (lo + hi) // 2
        if j >= hi:
            gallop = False
            continue
        evals += 1
        dx = ax - xs[j]  # as dist_sq(S[a], S[j])
        dy = ay - ys[j]
        if dx * dx + dy * dy <= radius:
            lo = j
        else:
            hi, gallop = j, False
    return lo, evals


def _greedy(xs: list, ys: list, k: int, radius: float) -> tuple[list, int, int]:
    """Up to k greedy clusters from the left of the staircase (xs, ys), as
    (leftmost, center, rightmost) indices, the first index they leave
    uncovered (len(xs) if none) and the distances computed."""
    h, evals, i = len(xs), 0, 0
    ends: list[tuple[int, int, int]] = []
    while i < h and len(ends) < k:
        ca, e_c = _reach(xs, ys, i, radius)
        ra, e_r = _reach(xs, ys, ca, radius)
        evals += e_c + e_r
        ends.append((i, ca, ra))
        i = ra + 1
    return ends, i, evals


def check_input(S: SkylineArray, k: int) -> None:
    """Refuse an empty staircase S and k < 1, as every route on S does."""
    if len(S) == 0:
        raise EmptyInput("empty skyline")
    if k < 1:
        raise ValueError("k must be >= 1")


def decide_materialized(S: SkylineArray, k: int, lambda_sq: float,
                        verdict_only: bool = False) -> DecisionOutcome:
    """The greedy on the skyline's columns, O(k log h) distances in all.
    It keeps indices, and makes Points only for a feasible outcome, and
    then only if more than the verdict is asked for: the searches over
    radii need the verdict alone, and their final decision the centers."""
    check_input(S, k)
    if not lambda_sq >= 0:  # also rejects NaN
        raise ValueError("lambda_sq must be >= 0")
    counters.add("decide_calls")
    xs, ys = S.xs, S.ys
    ends, i, evals = _greedy(xs, ys, k, lambda_sq)
    counters.add("dist_evals", evals)
    if i < len(xs):
        return INCOMPLETE
    if verdict_only:
        return COVERED
    pt = [Point(xs[j], ys[j]) for cluster in ends for j in cluster]
    clusters = tuple(zip(pt[::3], pt[1::3], pt[2::3]))
    return DecisionOutcome(True, tuple(pt[1::3]), clusters)


def decide_grouped(G: GroupedSkyline, k: int, lambda_sq: float) -> DecisionOutcome:
    """Same verdict and same centers as decide_materialized on sky(P), from
    at most 2k next-relevant-point queries of two per-group passes each."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not lambda_sq >= 0:  # also rejects NaN
        raise ValueError("lambda_sq must be >= 0")
    counters.add("decide_calls")
    centers: list[Point] = []
    clusters: list[Cluster] = []
    left = G.p0
    for _ in range(k):
        c = next_relevant_point(G, left, lambda_sq)
        r = next_relevant_point(G, c, lambda_sq)
        centers.append(c)
        clusters.append((left, c, r))
        nxt = next_on_skyline(G, r.x)
        if nxt is None:
            return DecisionOutcome(True, tuple(centers), tuple(clusters))
        left = nxt
    return INCOMPLETE
