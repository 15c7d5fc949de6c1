"""Algorithms for very small k: linear-time 1-center, farthest-first
2-approximation over slabs, and a (1+eps)-approximation by a bounded
binary search over a radius grid.

The linear scans run on coordinate arrays (rows of a PointSet's ``xy``);
Points are made only for the centers and the bisector candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decision import decide_grouped
from .errors import DegenerateSpan, InternalInvariantViolation, InvalidEpsilon
from .exact import SolveResult
from .geom import Point, PointSet, dist_sq, extremes, lex_argmax
from .grouped import build
from .instrument import counters


@dataclass
class Slab:
    """Vertical strip between two consecutive centers; members are the
    coordinate rows, an (m, 2) array, of the points with x strictly
    between the bounding centers'."""

    left_center: Point
    right_center: Point
    members: np.ndarray


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


def bisector_extremes(points, p0: Point, q0: Point) -> tuple[Point, Point]:
    """Over the skyline portion between p0 and q0: the point minimizing the
    larger anchor distance, and the point maximizing the smaller one.

    `points`, Points or an (m, 2) coordinate array, must lie within the
    strip x(p0) <= x <= x(q0) (anchors need not be included).  O(1)
    linear scans; the skyline is never built.  Ties break toward
    smaller x.
    """
    if dist_sq(p0, q0) == 0.0:  # equal, or their distance underflows
        raise DegenerateSpan("anchors coincide")
    if not isinstance(points, np.ndarray):
        points = np.array([(p.x, p.y) for p in points],
                          dtype=np.float64).reshape(-1, 2)
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
    if dist_sq(p0, q0) == 0.0:  # p0 == q0, or their distance underflows
        return SolveResult(0.0, (p0,), "one-center")
    x = P.xy[:, 0]
    strip = P.xy[(x >= p0.x) & (x <= q0.x)]
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
    if dist_sq(p0, q0) == 0.0:  # p0 == q0, or their distance underflows
        return [p0], 0.0
    centers = [p0, q0]
    x = P.xy[:, 0]
    members = P.xy[(x > p0.x) & (x < q0.x)]
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
        x = pick.members[:, 0]
        left = Slab(pick.left_center, c_new, pick.members[x < c_new.x])
        right = Slab(c_new, pick.right_center, pick.members[x > c_new.x])
        idx = slabs.index(pick)
        slabs[idx:idx + 1] = [left, right]
        del best_cache[id(pick)]
        best_cache[id(left)] = _slab_best(left)
        best_cache[id(right)] = _slab_best(right)

    psi_sq = max((best_cache[id(s)][1] for s in slabs), default=0.0)
    return centers, psi_sq


def check_epsilon(eps: float) -> None:
    if not 0.0 < eps < 1.0:
        raise InvalidEpsilon(f"eps must be in (0, 1), got {eps}")


def approx_solve(P: PointSet, k: int, eps: float) -> tuple[list[Point], float]:
    """(1+eps)-approximation: bracket the optimum with the farthest-first
    radius, then binary search a grid of ~2/eps radii with the grouped
    decision procedure.  Each grid radius is computed when probed."""
    check_epsilon(eps)
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
