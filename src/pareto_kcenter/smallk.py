"""Algorithms for very small k: linear-time 1-center, farthest-first
2-approximation over slabs, and a (1+eps)-approximation by a bounded
binary search over a radius grid, with the materialized decision on the
production skyline.

The linear scans run on coordinate arrays (rows of a PointSet's ``xy``);
Points are made only for the centers and the bisector candidates.
"""

from __future__ import annotations

import math

import numpy as np

from .decision import decide_materialized
from .errors import DegenerateSpan, InternalInvariantViolation, InvalidEpsilon
from .exact import SolveResult
from .geom import Point, PointSet, dist_sq, extremes, lex_argmax
from .instrument import counters
from .skyline import slow_skyline


def _bisector_scan(xy: np.ndarray, p0: Point, q0: Point):
    """One pass implementing the bisector dichotomy over the rows of `xy`
    and the two anchors.  Returns (p_prime, q_prime): the last skyline
    point on the p0 side of the bisector and the first on the q0 side.

    Distance evaluations: 2 per scanned point.
    """
    pool = np.concatenate([xy, [[p0.x, p0.y], [q0.x, q0.y]]])
    counters.add("dist_evals", 2 * len(pool))
    x, y = pool[:, 0], pool[:, 1]
    dx, dy = x - p0.x, y - p0.y
    to_p = dx * dx + dy * dy
    dx, dy = x - q0.x, y - q0.y
    left = to_p <= dx * dx + dy * dy  # on the bisector counts left

    # q0 is always strictly right of the bisector, so q1 exists.
    q1 = lex_argmax(y, x, ~left)
    qx, qy = x[q1], y[q1]
    if not np.any((x >= qx) & (y >= qy) & ((x != qx) | (y != qy))):
        q_prime = q1  # q1 is on the skyline
        p_prime = lex_argmax(x, y, y > qy)
    else:
        p_prime = lex_argmax(x, y, left)
        q_prime = lex_argmax(y, x, x > x[p_prime])
    return Point(*pool[p_prime].tolist()), Point(*pool[q_prime].tolist())


def bisector_extremes(xy: np.ndarray, p0: Point,
                      q0: Point) -> tuple[Point, Point]:
    """Over the skyline portion between p0 and q0: the point minimizing the
    larger anchor distance, and the point maximizing the smaller one.

    The rows of `xy`, an (m, 2) coordinate array, must lie within the
    strip x(p0) <= x <= x(q0) (anchors need not be included).  O(1)
    linear scans; the skyline is never built.  Ties break toward
    smaller x.
    """
    if dist_sq(p0, q0) == 0.0:  # equal, or their distance underflows
        raise DegenerateSpan("anchors coincide")
    p_prime, q_prime = _bisector_scan(xy, p0, q0)
    counters.add("dist_evals", 4)
    cands = []
    for c in (p_prime, q_prime):
        dp, dq = dist_sq(c, p0), dist_sq(c, q0)
        cands.append((c, max(dp, dq), min(dp, dq)))
    r_star = min(cands, key=lambda t: (t[1], t[0].x))[0]
    r_prime_star = max(cands, key=lambda t: (t[2], -t[0].x))[0]
    return r_star, r_prime_star


def _slab(left: Point, right: Point, members: np.ndarray):
    """Vertical strip between two consecutive centers, as (value, farthest
    point, left center, right center, members).  Members are the rows,
    an (m, 2) array, of the points with x strictly between the centers';
    the farthest point is the strip's skyline point farthest from the
    nearer center, value that distance squared (0 if it is a center)."""
    _, rp = bisector_extremes(members, left, right)
    counters.add("dist_evals", 2)
    return min(dist_sq(rp, left), dist_sq(rp, right)), rp, left, right, members


def solve_one_center(P: PointSet) -> SolveResult:
    """Optimal single center in O(n): only the two bisector candidates can
    minimize the larger distance to the skyline extremes."""
    P.require_nonempty()
    p0, q0 = extremes(P)
    if dist_sq(p0, q0) == 0.0:  # p0 == q0, or their distance underflows
        return SolveResult(0.0, (p0,), "one-center")
    x = P.xy[:, 0]
    strip = P.xy[(x >= p0.x) & (x <= q0.x)]
    r_star, _ = bisector_extremes(strip, p0, q0)
    counters.add("dist_evals", 2)
    lam_sq = max(dist_sq(r_star, p0), dist_sq(r_star, q0))
    return SolveResult(lam_sq, (r_star,), "one-center")


def gonzalez_2approx(P: PointSet, k: int) -> SolveResult:
    """Farthest-first traversal seeded with both skyline extremes.

    Its radius psi is within twice the optimum (squared: within four
    times).  The final round evaluates the true covering radius of the
    chosen centers.
    """
    P.require_nonempty()
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        res = solve_one_center(P)
        return SolveResult(res.lambda_star_sq, res.centers, "gonzalez")
    p0, q0 = extremes(P)
    if dist_sq(p0, q0) == 0.0:  # p0 == q0, or their distance underflows
        return SolveResult(0.0, (p0,), "gonzalez")
    centers = [p0, q0]
    x = P.xy[:, 0]
    slabs = [_slab(p0, q0, P.xy[(x > p0.x) & (x < q0.x)])]
    for _ in range(k - 2):
        # Split the first slab of largest value: max keeps the first.
        i = max(range(len(slabs)), key=lambda j: slabs[j][0])
        val, c, left, right, members = slabs[i]
        if val <= 0.0:
            break  # every skyline point is already a center
        centers.append(c)
        x = members[:, 0]
        slabs[i:i + 1] = [_slab(left, c, members[x < c.x]),
                          _slab(c, right, members[x > c.x])]
    return SolveResult(max(slab[0] for slab in slabs), tuple(centers),
                       "gonzalez")


def check_epsilon(eps: float) -> None:
    if not 0.0 < eps < 1.0:
        raise InvalidEpsilon(f"eps must be in (0, 1), got {eps}")


def approx_solve(P: PointSet, k: int, eps: float) -> SolveResult:
    """(1+eps)-approximation: bracket the optimum with the farthest-first
    radius, then binary search a grid of ~2/eps radii with the
    materialized decision on sky(P), which gives the grouped decision's
    verdicts and centers.  Each grid radius is computed when probed."""
    check_epsilon(eps)
    P.require_nonempty()
    if k < 1:
        raise ValueError("k must be >= 1")
    tag = f"approx:{eps!r}"
    two_approx = gonzalez_2approx(P, k)
    psi2_sq = two_approx.lambda_star_sq
    if psi2_sq == 0.0:
        return SolveResult(0.0, two_approx.centers, tag)
    base = math.sqrt(psi2_sq) / 2.0  # base <= opt <= 2*base
    jmax = math.ceil(2.0 / eps)

    def grid_sq(j: int) -> float:
        r_sq = (base * (1.0 + j * eps / 2.0)) ** 2
        # Guard the top against sqrt rounding: psi2_sq itself is feasible.
        return max(r_sq, psi2_sq) if j == jmax else r_sq

    S = slow_skyline(P)
    lo, hi = 0, jmax
    while lo < hi:
        mid = (lo + hi) // 2
        if decide_materialized(S, k, grid_sq(mid),
                               verdict_only=True).feasible:
            hi = mid
        else:
            lo = mid + 1
    lam_sq = grid_sq(lo)
    out = decide_materialized(S, k, lam_sq)
    if not out.feasible:
        raise InternalInvariantViolation("selected grid radius is not feasible")
    return SolveResult(lam_sq, out.centers, tag)
