"""Decision procedures: is the skyline coverable by k disks of a given
radius, with centers on the skyline?

Both procedures run the same left-to-right greedy: from the leftmost
uncovered point, the center is the farthest skyline point in reach, and
the cluster extends as far as that center reaches.  One gallops along a
skyline's coordinate columns, the other works over a GroupedSkyline and
never materializes anything.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyInput
from .geom import Point, SkylineArray
from .grouped import GroupedSkyline, next_on_skyline, next_relevant_point
from .instrument import counters

Cluster = tuple[Point, Point, Point]  # (leftmost, center, rightmost)


@dataclass(frozen=True, slots=True)
class DecisionOutcome:
    feasible: bool
    centers: tuple[Point, ...] = ()
    clusters: tuple[Cluster, ...] = ()


INCOMPLETE = DecisionOutcome(False)
COVERED = DecisionOutcome(True)  # a verdict alone, with no centers


def _reach(xs: list, ys: list, a: int, lambda_sq: float) -> tuple[int, int]:
    """Last index e >= a with (xs[e], ys[e]) within the radius of point a,
    and the distances computed to find it.  Distances from a grow along
    the staircase to its right (rounding is monotone), so the points in
    reach are a prefix: steps to a + 1, a + 3, a + 7, ... bracket its end
    and a bisection of the bracket finds it, O(log(e - a)) distances."""
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
        if dx * dx + dy * dy <= lambda_sq:
            lo = j
        else:
            hi, gallop = j, False
    return lo, evals


def decide_materialized(S: SkylineArray, k: int, lambda_sq: float,
                        verdict_only: bool = False) -> DecisionOutcome:
    """The greedy on the skyline's columns, O(k log h) distances in all.
    It keeps indices, and makes Points only for a feasible outcome, and
    then only if more than the verdict is asked for: the searches over
    radii need the verdict alone, and their final decision the centers."""
    if len(S) == 0:
        raise EmptyInput("empty skyline")
    if k < 1:
        raise ValueError("k must be >= 1")
    if not lambda_sq >= 0:  # also rejects NaN
        raise ValueError("lambda_sq must be >= 0")
    counters.add("decide_calls")
    xs, ys = S.xs, S.ys
    h = len(xs)
    evals = 0
    ends: list[tuple[int, int, int]] = []  # (leftmost, center, rightmost)
    i = 0
    while i < h and len(ends) < k:
        ca, e_c = _reach(xs, ys, i, lambda_sq)
        ra, e_r = _reach(xs, ys, ca, lambda_sq)
        evals += e_c + e_r
        ends.append((i, ca, ra))
        i = ra + 1
    counters.add("dist_evals", evals)
    if i < h:
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
