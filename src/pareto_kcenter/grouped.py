"""Global skyline queries over per-group skylines, without materializing
the skyline itself.

The point set is split into contiguous input-order groups, and each
group's skyline is stored flat, as coordinate lists with one index range
per group, for binary searches; a Point is made only for an answer.  The
queries: next point on the global skyline, membership + predecessor, and
the next relevant point, the farthest skyline point right of p within a
radius.  That is the rightmost point above the highest uncovered point,
or the last point if none is uncovered; the predecessor query ends in
the same y-keyed pass.  The ends of the staircase are index bounds, not
padding points: a query that runs past either end answers None.  The
bounded probe builds the same GroupedSkyline and walks it with the
next-point pass.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantViolation
from .geom import Point, PointSet, extremes
from .instrument import counters, sort_charge

SEARCHES = "binary_searches"
PROBES = "binary_search_probes"
CMP = "skyline_comparisons"


@dataclass(frozen=True, slots=True)
class GroupedSkyline:
    """Immutable; all queries are pure.  Made only by build.

    Group g's skyline is (xs[i], ys[i]) for groups[g-1] <= i < groups[g]
    (from 0 for g = 0), by increasing x (so decreasing y): ``groups``
    holds the end offset of each group.  ``pass_probes`` is the probe
    charge of one x-keyed pass over the groups.
    """

    xs: list[float]
    ys: list[float]
    groups: list[int]
    pass_probes: int
    p0: Point
    q0: Point

    @property
    def t(self) -> int:
        return len(self.groups)


def _charge(m: int) -> int:
    """Sort-and-scan charge of a group of m points, as the paper's group
    of m + 2: it pads each group with two extreme points, and the counter
    gates are stated for that."""
    return sort_charge(m + 2) + m + 1


def _group_skyline_rows(P: PointSet, size: int):
    """Rows of P on the skylines of its contiguous chunks of `size`
    rows, chunk by chunk and by increasing x, and each chunk's count.

    One pass for all chunks, with no sort of coordinates.  Every chunk
    but the last is full, so the rows' ranks in P's (x, y) order fill a
    (chunks, width) table, the last row padded with rank n; sorting each
    table row's integers puts its chunk in (x, y) order.  A row is kept
    when its y exceeds every later y in its table row (a reversed
    running max along the rows); pads read -inf, so none is kept.  The
    temporaries are freed before build makes the lists.
    """
    n = len(P)
    width = min(size, n)  # a size past n must not size the table
    rank = np.full(-(-n // size) * width, n)
    rank[P.order] = np.arange(n)
    rank = np.sort(rank.reshape(-1, width), axis=1)
    ys = np.append(P.xy[P.order, 1], -np.inf)[rank]
    later = np.full_like(ys, -np.inf)
    later[:, :-1] = np.maximum.accumulate(ys[:, :0:-1], axis=1)[:, ::-1]
    keep = ys > later
    return P.order[rank[keep]], keep.sum(axis=1)


def pass_charge(sizes: np.ndarray) -> int:
    """Probe charge of one binary search per group, each group of m
    points charged as the paper's padded group of m + 2: the sum of
    bisect_charge(m + 2).  frexp's exponent of a positive integer below
    2^53 is its bit length."""
    return int(np.frexp(sizes + 2)[1].sum())


def leftmost_right_of(G: GroupedSkyline, x0: float) -> int | None:
    """Index of the leftmost global-skyline point with x > x0, or None if
    there is none.  Its charge is pass_charge.

    Each group offers its first point past x0; the highest of those
    (ties toward larger x) is the answer.
    """
    xs, ys = G.xs, G.ys
    best = None
    by = bx = 0.0
    lo = 0
    for hi in G.groups:
        i = bisect_right(xs, x0, lo, hi)
        if i < hi:
            y = ys[i]
            if best is None or y > by or (y == by and xs[i] > bx):
                best, by, bx = i, y, xs[i]
        lo = hi
    return best


def build(P: PointSet, kappa: int) -> GroupedSkyline:
    """Split P into ceil(n/kappa) groups with stored skylines: kappa is
    the grouped decision's group size, or the bounded probe's guess s."""
    P.require_nonempty()
    if kappa < 1:
        raise ValueError("group size must be >= 1")
    p0, q0 = extremes(P)
    full, rest = divmod(len(P), kappa)
    counters.add(CMP, full * _charge(kappa) + (_charge(rest) if rest else 0))
    rows, counts = _group_skyline_rows(P, kappa)
    return GroupedSkyline(P.xy[rows, 0].tolist(), P.xy[rows, 1].tolist(),
                          np.cumsum(counts).tolist(), pass_charge(counts),
                          p0, q0)


def next_on_skyline(G: GroupedSkyline, x0: float) -> Point | None:
    """Leftmost global-skyline point strictly right of x0; None once x0
    is at or past the last point."""
    best = leftmost_right_of(G, x0)
    counters.add(SEARCHES, G.t)
    counters.add(PROBES, G.pass_probes)
    return None if best is None else Point(G.xs[best], G.ys[best])


def _rightmost_above(G: GroupedSkyline, y0: float) -> Point | None:
    """Rightmost point above y0 (ties toward larger y), or None.  It is on
    the global skyline: a point dominating it would be above y0 too."""
    xs, ys = G.xs, G.ys
    bx = by = None
    probes = a = 0
    counters.add(SEARCHES, G.t)
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
            if bx is None or x > bx or (x == bx and ys[lo] > by):
                bx, by = x, ys[lo]
        a = b
    counters.add(PROBES, probes)
    return None if bx is None else Point(bx, by)


def test_membership_and_prev(G: GroupedSkyline, p: Point) -> tuple[bool, Point | None]:
    """Is p on the global skyline, and what precedes x(p) on it?

    An x-keyed pass finds the highest point at x >= x(p), which is p
    exactly when p is on the skyline; the predecessor is the rightmost
    point above it, None for the leftmost point.  No float lies between
    x(p) and the float below it, so x > that is x >= x(p), at -0.0 too.
    """
    best = leftmost_right_of(G, math.nextafter(p.x, -math.inf))
    counters.add(SEARCHES, G.t)
    counters.add(PROBES, G.pass_probes)
    if best is None:
        raise InternalInvariantViolation(f"no point at or right of x={p.x}")
    y = G.ys[best]
    return p.x == G.xs[best] and p.y == y, _rightmost_above(G, y)


test_membership_and_prev.__test__ = False  # keep pytest collection away


def next_relevant_point(G: GroupedSkyline, p: Point, lambda_sq: float) -> Point:
    """Farthest global-skyline point q with x(q) >= x(p) within the radius.

    Requires p on the global skyline.  Covered means left of the paper's
    alpha curve: not right of p, or within the radius (its ray up from
    (x(p) + r, y(p)) is never met: a point there would dominate p).  The
    covered points of a group are a prefix.  If no group has an uncovered
    point, the answer is q0; else it is the rightmost point above y(u),
    u the highest first uncovered point.  Points above y(u) are covered,
    p among them, so that point is on the skyline, within the radius and
    not left of p.  A skyline point right of it is at or below y(u), so
    not left of u (u would dominate it): its |dx| and |dy| to p are at
    least u's, and rounding is monotone, so it is uncovered too.
    """
    if p == G.q0:
        return p
    if lambda_sq < 0:
        raise ValueError("radius_sq must be non-negative")

    xs, ys = G.xs, G.ys
    px, py = p.x, p.y
    y_u = None  # y(u), the highest first uncovered point of any group
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
        if hi < b and (y_u is None or ys[hi] > y_u):
            y_u = ys[hi]
        a = b
    counters.add(PROBES, probes)

    if y_u is None:
        return G.q0  # every group is covered to its end
    q = _rightmost_above(G, y_u)
    if q is None or q.x < px:
        raise InternalInvariantViolation("answer left of p: p not on skyline")
    return q
