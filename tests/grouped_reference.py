"""Plain-Python references for the grouped queries: one bisection per
group, group after group, as the package ran them before its passes
moved to the lockstep helper.  They read the structure's columns as
Python lists and charge the counters as the package does; the tests
check the package's queries against them, answers and counter deltas.
"""

import math
from bisect import bisect_right

from pareto_kcenter.errors import InternalInvariantViolation
from pareto_kcenter.geom import Point
from pareto_kcenter.grouped import PROBES, SEARCHES
from pareto_kcenter.instrument import counters


def columns(G):
    return G.xs.tolist(), G.ys.tolist(), G.groups.tolist()


def leftmost_right_of(G, x0):
    """Index of the leftmost global-skyline point with x > x0, or None:
    the highest of the groups' first points past x0, ties toward larger
    x."""
    xs, ys, groups = columns(G)
    best = None
    by = bx = 0.0
    lo = 0
    for hi in groups:
        i = bisect_right(xs, x0, lo, hi)
        if i < hi:
            y = ys[i]
            if best is None or y > by or (y == by and xs[i] > bx):
                best, by, bx = i, y, xs[i]
        lo = hi
    return best


def rightmost_above(G, y0):
    """Rightmost point above y0 (ties toward larger y), or None."""
    xs, ys, groups = columns(G)
    bx = by = None
    probes = a = 0
    counters.add(SEARCHES, G.t)
    for b in groups:
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


def highest_uncovered_y(G, p, lambda_sq):
    """The covered-split pass: y of the highest first uncovered point of
    any group, None if every group is covered to its end."""
    xs, ys, groups = columns(G)
    px, py = p.x, p.y
    y_u = None
    probes = a = 0
    counters.add(SEARCHES, G.t)
    for b in groups:
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
    return y_u


def next_on_skyline(G, x0):
    best = leftmost_right_of(G, x0)
    counters.add(SEARCHES, G.t)
    counters.add(PROBES, G.pass_probes)
    xs, ys, _ = columns(G)
    return None if best is None else Point(xs[best], ys[best])


def membership_and_prev(G, p):
    best = leftmost_right_of(G, math.nextafter(p.x, -math.inf))
    counters.add(SEARCHES, G.t)
    counters.add(PROBES, G.pass_probes)
    if best is None:
        raise InternalInvariantViolation(f"no point at or right of x={p.x}")
    xs, ys, _ = columns(G)
    y = ys[best]
    return p.x == xs[best] and p.y == y, rightmost_above(G, y)


def next_relevant_point(G, p, lambda_sq):
    if p == G.q0:
        return p
    if lambda_sq < 0:
        raise ValueError("radius_sq must be non-negative")
    y_u = highest_uncovered_y(G, p, lambda_sq)
    if y_u is None:
        return G.q0
    q = rightmost_above(G, y_u)
    if q is None or q.x < p.x:
        raise InternalInvariantViolation("answer left of p: p not on skyline")
    return q
