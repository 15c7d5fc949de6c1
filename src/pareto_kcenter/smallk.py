"""Algorithms for very small k: linear-time 1-center, farthest-first
2-approximation over slabs, and a (1+eps)-approximation by a bounded
binary search over a radius grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .decision import decide_grouped
from .errors import DegenerateSpan, InternalInvariantViolation, InvalidEpsilon
from .exact import SolveResult
from .geom import Point, PointSet, dist_sq, extremes
from .grouped import build
from .instrument import counters


@dataclass
class Slab:
    """Vertical strip between two consecutive centers; members are the
    points with x strictly between the bounding centers'."""

    left_center: Point
    right_center: Point
    members: list[Point] = field(default_factory=list)


def _bisector_scan(points, p0: Point, q0: Point):
    """One pass implementing the bisector dichotomy over `points` and the
    two anchors.  Returns (p_prime, q_prime): the last skyline point on
    the p0 side of the bisector and the first on the q0 side.

    Distance evaluations: 2 per scanned point.
    """
    pool = list(points)
    pool.append(p0)
    pool.append(q0)
    counters.add("dist_evals", 2 * len(pool))
    p1 = None
    p1_key = None
    q1 = None
    q1_key = None
    for r in pool:
        if dist_sq(r, p0) <= dist_sq(r, q0):  # on the bisector counts left
            key = (r.x, r.y)
            if p1_key is None or key > p1_key:
                p1, p1_key = r, key
        else:
            key = (r.y, r.x)
            if q1_key is None or key > q1_key:
                q1, q1_key = r, key

    # q0 is always strictly right of the bisector, so q1 exists.
    q1_on_skyline = not any(
        r is not q1 and r.x >= q1.x and r.y >= q1.y and (r.x, r.y) != (q1.x, q1.y)
        for r in pool)
    if q1_on_skyline:
        q_prime = q1
        p_prime = None
        best = None
        for r in pool:
            if r.y > q1.y:
                key = (r.x, r.y)
                if best is None or key > best:
                    p_prime, best = r, key
    else:
        p_prime = p1
        q_prime = None
        best = None
        for r in pool:
            if r.x > p1.x:
                key = (r.y, r.x)
                if best is None or key > best:
                    q_prime, best = r, key
    return p_prime, q_prime


def bisector_extremes(points, p0: Point, q0: Point) -> tuple[Point, Point]:
    """Over the skyline portion between p0 and q0: the point minimizing the
    larger anchor distance, and the point maximizing the smaller one.

    `points` must lie within the strip x(p0) <= x <= x(q0) (anchors need
    not be included).  O(1) linear scans; the skyline is never built.
    Ties break toward smaller x.
    """
    if p0 == q0:
        raise DegenerateSpan("anchors coincide")
    p_prime, q_prime = _bisector_scan(points, p0, q0)
    counters.add("dist_evals", 4)
    cands = []
    for c in (p_prime, q_prime):
        dp, dq = dist_sq(c, p0), dist_sq(c, q0)
        cands.append((c, max(dp, dq), min(dp, dq)))
    r_star = min(cands, key=lambda t: (t[1], t[0].x))[0]
    r_prime_star = max(cands, key=lambda t: (t[2], -t[0].x))[0]
    return r_star, r_prime_star


def _slab_best(slab: Slab) -> tuple[Point, float]:
    """Farthest-from-centers skyline point inside the slab and its squared
    nearest-center distance (both bounding centers give value 0)."""
    _, rp = bisector_extremes(slab.members, slab.left_center, slab.right_center)
    counters.add("dist_evals", 2)
    val = min(dist_sq(rp, slab.left_center), dist_sq(rp, slab.right_center))
    return rp, val


def solve_one_center(P: PointSet) -> SolveResult:
    """Optimal single center in O(n): only the two bisector candidates can
    minimize the larger distance to the skyline extremes."""
    P.require_nonempty()
    p0, q0 = extremes(P)
    if p0 == q0:
        return SolveResult(0.0, (p0,), "one-center")
    strip = [p for p in P.points if p0.x <= p.x <= q0.x]
    r_star, _ = bisector_extremes(strip, p0, q0)
    counters.add("dist_evals", 2)
    lam_sq = max(dist_sq(r_star, p0), dist_sq(r_star, q0))
    return SolveResult(lam_sq, (r_star,), "one-center")


def gonzalez_2approx(P: PointSet, k: int) -> tuple[list[Point], float]:
    """Farthest-first traversal seeded with both skyline extremes.

    Returns (centers, psi_sq) with psi within twice the optimum (squared:
    within four times).  The final round evaluates the true covering
    radius of the chosen centers.
    """
    P.require_nonempty()
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        res = solve_one_center(P)
        return list(res.centers), res.lambda_star_sq
    p0, q0 = extremes(P)
    if p0 == q0:
        return [p0], 0.0
    centers = [p0, q0]
    members = [p for p in P.points if p0.x < p.x < q0.x]
    slabs = [Slab(p0, q0, members)]
    best_cache: dict[int, tuple[Point, float]] = {id(slabs[0]): _slab_best(slabs[0])}

    for _ in range(k - 2):
        pick = None
        pick_val = -1.0
        for slab in slabs:
            _, val = best_cache[id(slab)]
            if val > pick_val:
                pick = slab
                pick_val = val
        if pick is None or pick_val <= 0.0:
            break  # every skyline point is already a center
        c_new, _ = best_cache[id(pick)]
        centers.append(c_new)
        left = Slab(pick.left_center, c_new,
                    [p for p in pick.members if p.x < c_new.x])
        right = Slab(c_new, pick.right_center,
                     [p for p in pick.members if p.x > c_new.x])
        idx = slabs.index(pick)
        slabs[idx:idx + 1] = [left, right]
        del best_cache[id(pick)]
        best_cache[id(left)] = _slab_best(left)
        best_cache[id(right)] = _slab_best(right)

    psi_sq = max((best_cache[id(s)][1] for s in slabs), default=0.0)
    return centers, psi_sq


def approx_solve(P: PointSet, k: int, eps: float) -> tuple[list[Point], float]:
    """(1+eps)-approximation: bracket the optimum with the farthest-first
    radius, then binary search a grid of ~2/eps radii with the grouped
    decision procedure.  Each grid radius is computed when probed."""
    if not 0.0 < eps < 1.0:
        raise InvalidEpsilon(f"eps must be in (0, 1), got {eps}")
    P.require_nonempty()
    if k < 1:
        raise ValueError("k must be >= 1")
    centers2, psi2_sq = gonzalez_2approx(P, k)
    if psi2_sq == 0.0:
        return centers2, 0.0
    base = math.sqrt(psi2_sq) / 2.0  # base <= opt <= 2*base
    jmax = math.ceil(2.0 / eps)

    def grid_sq(j: int) -> float:
        r_sq = (base * (1.0 + j * eps / 2.0)) ** 2
        # Guard the top against sqrt rounding: psi2_sq itself is feasible.
        return max(r_sq, psi2_sq) if j == jmax else r_sq

    kappa = min(len(P), max(1, math.ceil(k * k * math.log2(1.0 / eps) ** 2)))
    G = build(P, kappa)
    lo, hi = 0, jmax
    while lo < hi:
        mid = (lo + hi) // 2
        if decide_grouped(G, k, grid_sq(mid)).feasible:
            hi = mid
        else:
            lo = mid + 1
    lam_sq = grid_sq(lo)
    out = decide_grouped(G, k, lam_sq)
    if not out.feasible:
        raise InternalInvariantViolation("selected grid radius is not feasible")
    return list(out.centers), lam_sq
