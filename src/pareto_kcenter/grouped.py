"""Global skyline queries over per-group skylines, without materializing
the skyline itself.

The point set is split into contiguous input-order groups, and each
group's skyline is stored for binary searches.  The group skylines are
stored flat, as coordinate lists with one index range per group, and a
Point is made only for a query's answer.  Three queries are answered
against this structure: next point on the global skyline, membership +
predecessor, and the next relevant point (farthest skyline point right
of p within a radius).  The ends of the staircase are index bounds, not
padding points: a query that runs past either end answers None.  The
grouping pass and the next-point walk are shared with the bounded
skyline probe.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from .errors import InternalInvariantViolation
from .geom import Point, PointSet, extremes
from .instrument import bisect_charge, counters, sort_charge

SEARCHES = "binary_searches"
PROBES = "binary_search_probes"
CMP = "skyline_comparisons"


class GroupedSkyline:
    """Immutable after build; all queries are pure.

    Group g's skyline is (xs[i], ys[i]) for groups[g-1] <= i < groups[g]
    (from 0 for g = 0), by increasing x (so decreasing y): ``groups``
    holds the end offset of each group.
    """

    __slots__ = ("xs", "ys", "groups", "t", "p0", "q0")

    def __init__(self, xs, ys, groups, p0, q0):
        self.xs: list[float] = xs
        self.ys: list[float] = ys
        self.groups: list[int] = groups
        self.t: int = len(groups)
        self.p0: Point = p0
        self.q0: Point = q0


def _charge(m: int) -> int:
    """Sort-and-scan charge of a group of m points, as the paper's group
    of m + 2: it pads each group with two extreme points, and the counter
    gates are stated for that."""
    return sort_charge(m + 2) + m + 1


def _group_skyline_rows(xy: np.ndarray, size: int):
    """Rows of xy on the skylines of its contiguous chunks of `size`
    rows, chunk by chunk and by increasing x, and each chunk's count.

    One pass for all chunks: sort the rows by (chunk, x, y), then keep
    each row whose y exceeds every later y of its chunk.  That is a
    reversed running max over dense y-ranks, each chunk's ranks lifted
    above those of every later chunk so that no maximum crosses back.
    Its temporaries are freed before group_skylines builds the lists.
    """
    n = len(xy)
    t = -(-n // size)
    chunk = np.arange(n) // size
    order = np.lexsort((xy[:, 1], xy[:, 0], chunk))
    _, rank = np.unique(xy[:, 1], return_inverse=True)
    key = (t - 1 - chunk[order]) * n + rank[order]
    keep = np.ones(n, dtype=bool)
    keep[:-1] = key[:-1] > np.maximum.accumulate(key[::-1])[::-1][1:]
    rows = order[keep]
    return rows, np.bincount(chunk[rows], minlength=t)


def group_skylines(xy: np.ndarray, size: int):
    """Skylines of the contiguous input-order chunks of at most `size`
    rows of xy, as (xs, ys, groups) in GroupedSkyline's flat layout."""
    full, rest = divmod(len(xy), size)
    counters.add(CMP, full * _charge(size) + (_charge(rest) if rest else 0))
    rows, counts = _group_skyline_rows(xy, size)
    return (xy[rows, 0].tolist(), xy[rows, 1].tolist(),
            np.cumsum(counts).tolist())


def leftmost_right_of(xs: list[float], ys: list[float],
                      groups: list[int], x0: float,
                      inclusive: bool = False) -> tuple[int | None, int]:
    """Index of the leftmost global-skyline point with x > x0 (x >= x0 if
    inclusive), or None if there is none, and the probe charge of the
    searches.

    Each group offers its first point past x0; the highest of those
    (ties toward larger x) is the answer.
    """
    find = bisect_left if inclusive else bisect_right
    best = None
    by = bx = 0.0
    probes = lo = 0
    for hi in groups:
        i = find(xs, x0, lo, hi)
        probes += bisect_charge(hi - lo + 2)  # the paper's padded group
        if i < hi:
            y = ys[i]
            if best is None or y > by or (y == by and xs[i] > bx):
                best, by, bx = i, y, xs[i]
        lo = hi
    return best, probes


def build(P: PointSet, kappa: int) -> GroupedSkyline:
    """Split P into ceil(n/kappa) groups with stored skylines."""
    P.require_nonempty()
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    p0, q0 = extremes(P)
    return GroupedSkyline(*group_skylines(P.xy, kappa), p0, q0)


def next_on_skyline(G: GroupedSkyline, x0: float) -> Point | None:
    """Leftmost global-skyline point strictly right of x0; None once x0
    is at or past the last point."""
    best, probes = leftmost_right_of(G.xs, G.ys, G.groups, x0)
    counters.add(SEARCHES, G.t)
    counters.add(PROBES, probes)
    return None if best is None else Point(G.xs[best], G.ys[best])


def test_membership_and_prev(G: GroupedSkyline, p: Point) -> tuple[bool, Point | None]:
    """Is p on the global skyline, and what precedes x(p) on it?

    Two passes of per-group binary searches: an x-keyed pass locates the
    highest point at x >= x(p) (equal to p exactly when p is on the
    skyline), then a y-keyed pass finds the predecessor, the rightmost
    point above it, which is None for the leftmost point.
    """
    xs, ys = G.xs, G.ys
    counters.add(SEARCHES, 2 * G.t)
    best, probes = leftmost_right_of(xs, ys, G.groups, p.x, inclusive=True)
    counters.add(PROBES, probes)
    if best is None:
        raise InternalInvariantViolation(f"no point at or right of x={p.x}")
    member = p.x == xs[best] and p.y == ys[best]

    y0 = ys[best]
    prev = None
    px = py = 0.0
    probes = a = 0
    for b in G.groups:
        lo, hi = a - 1, b  # ys[lo] > y0 >= ys[hi], the ends virtual
        while hi - lo > 1:
            mid = (lo + hi) // 2
            probes += 1
            if ys[mid] > y0:
                lo = mid
            else:
                hi = mid
        if lo >= a:
            x = xs[lo]
            if prev is None or x > px or (x == px and ys[lo] > py):
                prev, px, py = lo, x, ys[lo]
        a = b
    counters.add(PROBES, probes)
    return member, None if prev is None else Point(px, py)


test_membership_and_prev.__test__ = False  # keep pytest collection away


def next_relevant_point(G: GroupedSkyline, p: Point, lambda_sq: float) -> Point:
    """Farthest global-skyline point q with x(q) >= x(p) within the radius.

    Per group, a binary search finds the last covered point and its
    successor, and the membership dichotomy picks the global answer.
    Requires p on the global skyline.  Covered means left of the paper's
    alpha curve: not right of p, or within the radius.  The curve's ray
    up from (x(p) + r, y(p)) is never met, since a point right of p and
    as high would dominate p.  Covered points form a prefix of a group.
    """
    if p == G.q0:
        return p
    if lambda_sq < 0:
        raise ValueError("radius_sq must be non-negative")

    xs, ys = G.xs, G.ys
    px, py = p.x, p.y
    q_best = None  # rightmost covered point of any group
    succ_best = None  # highest first uncovered point of any group
    qx = qy = sx = sy = 0.0
    probes = a = 0
    counters.add(SEARCHES, G.t)
    for b in G.groups:
        lo, hi = a - 1, b  # lo covered-side, hi not; the ends virtual
        while hi - lo > 1:
            mid = (lo + hi) // 2
            probes += 1
            dx = xs[mid] - px
            dy = ys[mid] - py
            if dx <= 0 or dx * dx + dy * dy <= lambda_sq:
                lo = mid
            else:
                hi = mid
        if lo >= a:
            x = xs[lo]
            if q_best is None or x > qx or (x == qx and ys[lo] > qy):
                q_best, qx, qy = lo, x, ys[lo]
        if hi < b:
            y = ys[hi]
            if succ_best is None or y > sy or (y == sy and xs[hi] > sx):
                succ_best, sx, sy = hi, xs[hi], y
        a = b
    counters.add(PROBES, probes)

    if succ_best is None:
        return Point(qx, qy)  # every group is covered to its end
    member, prev = test_membership_and_prev(G, Point(sx, sy))
    if member and prev is not None:
        return prev
    if not member and q_best is not None:
        return Point(qx, qy)
    raise InternalInvariantViolation(
        "next relevant point ran off the staircase; is p on the skyline?")
