"""Decision procedures: is the skyline coverable by k disks of a given
radius, with centers on the skyline?

Both procedures run the same left-to-right greedy: from the leftmost
uncovered point, the center is the farthest skyline point in reach, and
the cluster extends as far as that center reaches.  One works over a
materialized skyline array, the other over a GroupedSkyline and never
materializes anything.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyInput
from .geom import Point, SkylineArray, dist_sq
from .grouped import GroupedSkyline, next_on_skyline, next_relevant_point
from .instrument import counters

Cluster = tuple[Point, Point, Point]  # (leftmost, center, rightmost)


@dataclass(frozen=True, slots=True)
class DecisionOutcome:
    feasible: bool
    centers: tuple[Point, ...] = ()
    clusters: tuple[Cluster, ...] = ()


INCOMPLETE = DecisionOutcome(False)


def decide_materialized(S: SkylineArray, k: int, lambda_sq: float) -> DecisionOutcome:
    """Single forward scan over the skyline array; the index never retreats."""
    if len(S) == 0:
        raise EmptyInput("empty skyline")
    if k < 1:
        raise ValueError("k must be >= 1")
    if not lambda_sq >= 0:  # also rejects NaN
        raise ValueError("lambda_sq must be >= 0")
    counters.add("decide_calls")
    h = len(S)
    evals = 0
    centers: list[Point] = []
    clusters: list[Cluster] = []
    i = 0
    for _ in range(k):
        la = i
        while i < h:
            evals += 1
            if dist_sq(S[la], S[i]) <= lambda_sq:
                i += 1
            else:
                break
        ca = i - 1
        while i < h:
            evals += 1
            if dist_sq(S[ca], S[i]) <= lambda_sq:
                i += 1
            else:
                break
        ra = i - 1
        centers.append(S[ca])
        clusters.append((S[la], S[ca], S[ra]))
        if i >= h:
            counters.add("dist_evals", evals)
            return DecisionOutcome(True, tuple(centers), tuple(clusters))
    counters.add("dist_evals", evals)
    return INCOMPLETE


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
