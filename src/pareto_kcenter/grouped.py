"""Global skyline queries over per-group skylines, without materializing
the skyline itself.

The point set is split into contiguous input-order groups, and each
group's skyline is stored for binary searches.  Three queries are
answered against this structure: next point on the global skyline,
membership + predecessor, and the next relevant point (farthest skyline
point right of p within a radius).  The ends of the staircase are index
bounds, not padding points: a query that runs past either end answers
None.  The grouping pass and the next-point walk are shared with the
bounded skyline probe.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .errors import InternalInvariantViolation
from .geom import (LEFT, AlphaCurve, Point, PointSet, SkylineArray, extremes,
                   side_of_alpha)
from .instrument import bisect_charge, counters, sort_charge

SEARCHES = "binary_searches"
PROBES = "binary_search_probes"
CMP = "skyline_comparisons"


class GroupedSkyline:
    """Immutable after build; all queries are pure."""

    __slots__ = ("groups", "t", "kappa", "p0", "q0")

    def __init__(self, groups, kappa, p0, q0):
        self.groups: list[SkylineArray] = groups
        self.t: int = len(groups)
        self.kappa: int = kappa
        self.p0: Point = p0
        self.q0: Point = q0


def _scan_skyline(points: list[Point]) -> SkylineArray:
    """The sort-and-scan pass on one group's points.

    Charged as a group of m + 2 points: the paper pads each group with
    two extreme points, and the counter gates are stated for that.
    """
    pts = sorted(points, key=lambda p: (p.x, p.y))
    m = len(pts)
    counters.add(CMP, sort_charge(m + 2) + m + 1)
    out = [pts[-1]]
    best_y = pts[-1].y
    for i in range(m - 2, -1, -1):
        if pts[i].y > best_y:
            best_y = pts[i].y
            out.append(pts[i])
    out.reverse()
    return SkylineArray(out)


def group_skylines(points: tuple[Point, ...], size: int) -> list[SkylineArray]:
    """Skylines of the contiguous input-order chunks of at most `size` points."""
    return [_scan_skyline(points[i:i + size])
            for i in range(0, len(points), size)]


def leftmost_right_of(groups: list[SkylineArray], x0: float,
                      inclusive: bool = False) -> tuple[Point | None, int]:
    """Leftmost global-skyline point with x > x0 (x >= x0 if inclusive),
    or None if there is none, and the probe charge of the searches.

    Each group offers its first point past x0; the highest of those
    (ties toward larger x) is the answer.
    """
    find = bisect_left if inclusive else bisect_right
    best = None
    probes = 0
    for g in groups:
        idx = find(g.xs, x0)
        probes += bisect_charge(len(g) + 2)  # the paper's padded group
        if idx < len(g) and (best is None
                             or (g[idx].y, g[idx].x) > (best.y, best.x)):
            best = g[idx]
    return best, probes


def build(P: PointSet, kappa: int) -> GroupedSkyline:
    """Split P into ceil(n/kappa) groups with stored skylines."""
    P.require_nonempty()
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    p0, q0 = extremes(P)
    return GroupedSkyline(group_skylines(P.points, kappa), kappa, p0, q0)


def next_on_skyline(G: GroupedSkyline, x0: float) -> Point | None:
    """Leftmost global-skyline point strictly right of x0; None once x0
    is at or past the last point."""
    best, probes = leftmost_right_of(G.groups, x0)
    counters.add(SEARCHES, G.t)
    counters.add(PROBES, probes)
    return best


def _last_above(g: SkylineArray, y0: float) -> Point | None:
    """Rightmost group-skyline point with y > y0 (group ys are decreasing)."""
    lo, hi = -1, len(g)  # g[lo].y > y0 >= g[hi].y, the ends virtual
    probes = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        probes += 1
        if g[mid].y > y0:
            lo = mid
        else:
            hi = mid
    counters.add(PROBES, probes)
    return g[lo] if lo >= 0 else None


def test_membership_and_prev(G: GroupedSkyline, p: Point) -> tuple[bool, Point | None]:
    """Is p on the global skyline, and what precedes x(p) on it?

    Two passes of per-group binary searches: an x-keyed pass locates the
    highest point at x >= x(p) (equal to p exactly when p is on the
    skyline), then a y-keyed pass finds the predecessor, which is None
    for the leftmost point.
    """
    counters.add(SEARCHES, 2 * G.t)
    best, probes = leftmost_right_of(G.groups, p.x, inclusive=True)
    counters.add(PROBES, probes)
    if best is None:
        raise InternalInvariantViolation(f"no point at or right of x={p.x}")
    member = p == best

    prev = None
    for g in G.groups:
        cand = _last_above(g, best.y)
        if cand is not None and (prev is None
                                 or (cand.x, cand.y) > (prev.x, prev.y)):
            prev = cand
    return member, prev


test_membership_and_prev.__test__ = False  # keep pytest collection away


def next_relevant_point(G: GroupedSkyline, p: Point, lambda_sq: float) -> Point:
    """Farthest global-skyline point q with x(q) >= x(p) within the radius.

    Per group, a binary search against the alpha curve yields the last
    point on the covered side and its successor; the membership dichotomy
    then picks the right global answer.  Requires p on the global skyline.
    """
    if p == G.q0:
        return p

    alpha = AlphaCurve(p, lambda_sq)
    q_best = None  # rightmost covered point of any group
    succ_best = None  # highest first uncovered point of any group
    probes = 0
    counters.add(SEARCHES, G.t)
    for g in G.groups:
        lo, hi = -1, len(g)  # g[lo] covered-side, g[hi] not; ends virtual
        while hi - lo > 1:
            mid = (lo + hi) // 2
            probes += 1
            if side_of_alpha(g[mid], alpha) is LEFT:
                lo = mid
            else:
                hi = mid
        if lo >= 0 and (q_best is None
                        or (g[lo].x, g[lo].y) > (q_best.x, q_best.y)):
            q_best = g[lo]
        if hi < len(g) and (succ_best is None
                            or (g[hi].y, g[hi].x) > (succ_best.y, succ_best.x)):
            succ_best = g[hi]
    counters.add(PROBES, probes)

    if succ_best is None:
        return q_best  # every group is covered to its end
    member, prev = test_membership_and_prev(G, succ_best)
    result = prev if member else q_best
    if result is None:
        raise InternalInvariantViolation(
            "next relevant point ran off the staircase; is p on the skyline?")
    return result
