"""Global skyline queries over per-group skylines, without materializing
the skyline itself.

The point set is split into contiguous input-order groups, and each
group's skyline is stored flat, as read-only numpy coordinate columns
with one index range per group; a Point is made only for an answer.
The queries: next point on the global skyline, membership + predecessor,
and the next relevant point, the farthest skyline point right of p
within a radius.  That is the rightmost point above the highest
uncovered point, or the last point if none is uncovered; the predecessor
query ends in the same y-keyed pass.  Each pass is one bisection of
every group, all groups at once (first_false): from LOCKSTEP_ROWS groups
on, each round is the same few numpy operations over every group, with
the settled groups masked rather than dropped from the arrays.  The ends
of the staircase are index bounds, not padding points: a query that runs
past either end answers None.  The bounded probe builds the same
GroupedSkyline and walks it with the next-point pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InternalInvariantViolation
from .geom import Point, PointSet, extremes
from .instrument import counters, sort_charge

SEARCHES = "binary_searches"
PROBES = "binary_search_probes"
CMP = "skyline_comparisons"

# Fewest rows that first_false moves in lockstep; fewer are bisected one
# at a time, since a numpy round costs tens of microseconds whatever its
# size.  One next_relevant_point query, one at a time against lockstep,
# on a 2-CPU x86-64 VM (Python 3.11.7, numpy 2.4.6, best of 7):
#   t = 2     14 us against 300 us (16,000-point staircase), 17 against 228
#             (200,000 points hiding 2,000 skyline points, shuffled);
#   t = 128   102 us against 179 us (staircase), 617 against 155 (shuffled);
#   t = 8000  13.4 ms against 1.0 ms (shuffled).
# Lockstep overtakes at about t = 250 on the staircase, which settles most
# rows at an end, and at about t = 50 on the shuffled input.
LOCKSTEP_ROWS = 128


def first_false(test: Callable, a, b):
    """For each row r, the first j in [a[r], b[r]) with test(r, j) false,
    b[r] if none, and the probe count of bisecting the rows; test must be
    true on a prefix of each row, and a <= b.  Each step probes
    (a + b - 1) // 2, the bisection of (a - 1, b) with both ends virtual.

    From LOCKSTEP_ROWS rows on, all rows move at once: test gets index
    arrays over every row, and the answers are an array.  A settled row
    (a == b) stays in the arrays, masked: test may see it at index
    max(a - 1, 0), and that result is ignored, so test must accept any
    such index.  Only live rows are charged a probe.  Fewer rows are
    bisected one at a time: test gets Python ints, and the answers are a
    list.  There a row whose answer is one of its ends is settled by
    testing its ends, and charged what the bisection would probe: with
    m = b - a, it always steps the same way, floor(log2(m + 1)) times to
    a, ceil to b.
    """
    if len(a) < LOCKSTEP_ROWS:
        if isinstance(a, np.ndarray):
            a, b = a.tolist(), b.tolist()
        out, probes = [], 0
        for r, (lo, hi) in enumerate(zip(a, b)):
            if lo < hi and not test(r, lo):  # settled at a
                probes += (hi - lo + 1).bit_length() - 1
                hi = lo
            elif lo < hi and test(r, hi - 1):  # settled at b
                probes += (hi - lo).bit_length()
                lo = hi
            while lo < hi:
                mid = (lo + hi - 1) // 2
                probes += 1
                if test(r, mid):
                    lo = mid + 1
                else:
                    hi = mid
            out.append(lo)
        return out, probes
    a, b = np.asarray(a), np.asarray(b)
    rows = np.arange(len(a))
    probes = 0
    while live := int(np.count_nonzero(on := a < b)):
        probes += live
        mid = np.maximum((a + b - 1) >> 1, 0)
        up = test(rows, mid) & on
        a = np.where(up, mid + 1, a)
        b = np.where(on ^ up, mid, b)
    return a, probes


@dataclass(frozen=True, slots=True, eq=False)
class GroupedSkyline:
    """Immutable; all queries are pure.  Made only by build.

    Group g's skyline is (xs[i], ys[i]) for starts[g] <= i < groups[g],
    by increasing x (so decreasing y): ``groups`` holds the end offset of
    each group.  The four columns are read-only numpy arrays.  ``lists``
    holds the same four columns as Python lists when there are fewer
    than LOCKSTEP_ROWS groups, for first_false's one-at-a-time
    bisections, and is None otherwise.  ``pass_probes`` is the probe
    charge of one x-keyed pass over the groups.
    """

    xs: np.ndarray
    ys: np.ndarray
    starts: np.ndarray
    groups: np.ndarray
    lists: tuple[list, list, list, list] | None
    pass_probes: int
    p0: Point
    q0: Point

    @property
    def t(self) -> int:
        return len(self.groups)

    @property
    def cols(self):
        """(xs, ys, starts, groups) in the form first_false will bisect."""
        return self.lists or (self.xs, self.ys, self.starts, self.groups)

    def point(self, i: int) -> Point:
        xs, ys = self.cols[:2]
        return Point(float(xs[i]), float(ys[i]))


def _pass(G: GroupedSkyline, test: Callable, last: bool):
    """One bisection of every group by test (true on a prefix of each),
    and the best of the groups' offers with the probes made.  A group
    offers its last true point if ``last``, else its first false one;
    the best offer is then the rightmost (ties toward larger y), else
    the highest (ties toward larger x).  Returns (index or None, probes).
    """
    xs, ys, a, b = G.cols
    f, probes = first_false(test, a, b)
    major, minor = (xs, ys) if last else (ys, xs)
    if G.lists is None:
        offers = f[f > a] - 1 if last else f[f < b]
        if not len(offers):
            return None, probes
        keys = major[offers]
        top = offers[keys == keys.max()]
        return int(top[np.argmax(minor[top])]), probes
    best = None
    for i, lo, hi in zip(f, a, b):
        if last:
            i -= 1
        if lo <= i < hi and (best is None or major[i] > major[best] or (
                major[i] == major[best] and minor[i] > minor[best])):
            best = i
    return best, probes


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
    table row's integers puts its chunk in (x, y) order; the ranks take
    the smallest integer type that holds n, the one that sorts fastest.
    A row is kept when its y exceeds every later y in its table row (a
    reversed running max along the rows); pads read -inf, so none is
    kept.  The temporaries are freed before build makes the columns.
    """
    n = len(P)
    width = min(size, n)  # a size past n must not size the table
    rank = np.full(-(-n // size) * width, n, dtype=np.min_scalar_type(n))
    rank[P.order] = np.arange(n)
    rank = np.sort(rank.reshape(-1, width), axis=1)
    ys = np.append(P.xy[P.order, 1], -np.inf)[rank]
    later = np.full_like(ys, -np.inf)
    later[:, :-1] = np.maximum.accumulate(ys[:, :0:-1], axis=1)[:, ::-1]
    keep = ys > later
    return P.order[rank[keep]], keep.sum(axis=1)


def pass_charge(sizes: np.ndarray) -> int:
    """Probe charge of one binary search per group, each group of m
    points charged as the paper's padded group of m + 2: the sum of the
    bit lengths of m + 2, one per halving.  frexp's exponent of a positive
    integer below 2^53 is its bit length."""
    return int(np.frexp(sizes + 2)[1].sum())


def leftmost_right_of(G: GroupedSkyline, x0: float) -> int | None:
    """Index of the leftmost global-skyline point with x > x0, or None if
    there is none.  Its charge is pass_charge.

    Each group offers its first point past x0; the highest of those
    (ties toward larger x) is the answer.
    """
    xs = G.cols[0]
    return _pass(G, lambda _, j: xs[j] <= x0, last=False)[0]


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
    ends = np.cumsum(counts)
    cols = (P.xy[rows, 0], P.xy[rows, 1], ends - counts, ends)
    for col in cols:
        col.setflags(write=False)
    lists = tuple(col.tolist() for col in cols) if len(ends) < LOCKSTEP_ROWS else None
    return GroupedSkyline(*cols, lists, pass_charge(counts), p0, q0)


def next_on_skyline(G: GroupedSkyline, x0: float) -> Point | None:
    """Leftmost global-skyline point strictly right of x0; None once x0
    is at or past the last point."""
    best = leftmost_right_of(G, x0)
    counters.add(SEARCHES, G.t)
    counters.add(PROBES, G.pass_probes)
    return None if best is None else G.point(best)


def _rightmost_above(G: GroupedSkyline, y0: float) -> Point | None:
    """Rightmost point above y0 (ties toward larger y), or None.  It is on
    the global skyline: a point dominating it would be above y0 too."""
    ys = G.cols[1]
    best, probes = _pass(G, lambda _, j: ys[j] > y0, last=True)
    counters.add(SEARCHES, G.t)
    counters.add(PROBES, probes)
    return None if best is None else G.point(best)


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
    q = G.point(best)
    return p == q, _rightmost_above(G, q.y)


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

    xs, ys = G.cols[:2]
    px, py = p.x, p.y

    def covered(_, j):
        dx = xs[j] - px
        dy = ys[j] - py
        return (dx <= 0) | (dx * dx + dy * dy <= lambda_sq)

    u, probes = _pass(G, covered, last=False)
    counters.add(SEARCHES, G.t)
    counters.add(PROBES, probes)
    if u is None:
        return G.q0  # every group is covered to its end
    q = _rightmost_above(G, ys[u])
    if q is None or q.x < px:
        raise InternalInvariantViolation("answer left of p: p not on skyline")
    return q
