"""Algorithms for very small k: the 1-center, farthest-first
2-approximation over slabs, and a (1+eps)-approximation by a bounded
binary search over a radius grid, with the materialized decision on the
production skyline.

All of them take the staircase S = sky(P) and run by index into its
``xs`` and ``ys`` columns; Points are made only for the returned centers.
"""

from __future__ import annotations

import math

from .decision import check_input, decide_materialized
from .errors import DegenerateSpan, InvalidEpsilon
from .exact import SolveResult, _certified
from .geom import Point, SkylineArray
from .instrument import counters


def _dist_sq(S: SkylineArray, t: int, u: int) -> float:
    dx = S.xs[t] - S.xs[u]
    dy = S.ys[t] - S.ys[u]
    return dx * dx + dy * dy


def bisector_extremes(S: SkylineArray, i: int,
                      j: int) -> tuple[tuple[int, float], tuple[int, float]]:
    """Over the staircase S[i..j], i < j: the index minimizing the larger
    distance to the anchors S[i] and S[j], and the index maximizing the
    smaller one, each with that squared distance.

    Distances from S[i] grow and distances from S[j] shrink from i to j.
    So one bisection finds p, the last index on S[i]'s side of the
    bisector (a point on it counts), and q = p + 1.  The larger anchor
    distance falls up to p and rises from q on, and the smaller one the
    other way round: p and q are the only candidates for either extreme,
    and ties between them keep p, the smaller x.  In exact arithmetic no
    other index ties; in floats distinct distances may round equal, and
    then a smaller x may reach the same value.  Distance evaluations: 2
    per probe and 4 for the candidates.
    """
    if _dist_sq(S, i, j) == 0.0:  # equal, or their distance underflows
        raise DegenerateSpan("anchors coincide")
    p, q, probes = i, j, 0
    while q - p > 1:
        mid = (p + q) // 2
        probes += 1
        if _dist_sq(S, mid, i) <= _dist_sq(S, mid, j):
            p = mid
        else:
            q = mid
    counters.add("dist_evals", 2 * probes + 4)
    d = {c: (_dist_sq(S, c, i), _dist_sq(S, c, j)) for c in (p, q)}
    r_star = min((p, q), key=lambda c: max(d[c]))  # ties keep p
    r_prime_star = max((p, q), key=lambda c: min(d[c]))
    return (r_star, max(d[r_star])), (r_prime_star, min(d[r_prime_star]))


def _point(S: SkylineArray, t: int) -> Point:
    return Point(S.xs[t], S.ys[t])


def solve_one_center(S: SkylineArray) -> SolveResult:
    """Optimal single center of S: only the two bisector candidates
    between its ends can minimize the larger distance to them."""
    check_input(S, 1)
    h = len(S) - 1
    if _dist_sq(S, 0, h) == 0.0:  # one point, or their distance underflows
        return SolveResult(0.0, (_point(S, 0),), "one-center")
    (r_star, lam_sq), _ = bisector_extremes(S, 0, h)
    return SolveResult(lam_sq, (_point(S, r_star),), "one-center")


def _slab(S: SkylineArray, i: int, j: int) -> tuple[float, int, int, int]:
    """Staircase stretch between consecutive centers S[i] and S[j], as
    (value, farthest index, i, j): the farthest point is the one farthest
    from its nearer center, value that distance squared (0 if it is a
    center)."""
    _, (far, val) = bisector_extremes(S, i, j)
    return val, far, i, j


def gonzalez_2approx(S: SkylineArray, k: int) -> SolveResult:
    """Farthest-first traversal over S, seeded with both of its ends.

    Its radius psi is within twice the optimum (squared: within four
    times).  The final round evaluates the true covering radius of the
    chosen centers.
    """
    check_input(S, k)
    if k == 1:
        res = solve_one_center(S)
        return SolveResult(res.lambda_star_sq, res.centers, "gonzalez")
    h = len(S) - 1
    if _dist_sq(S, 0, h) == 0.0:  # one point, or their distance underflows
        return SolveResult(0.0, (_point(S, 0),), "gonzalez")
    centers = [0, h]
    slabs = [_slab(S, 0, h)]
    for _ in range(k - 2):
        # Split the first slab of largest value: max keeps the first.
        t = max(range(len(slabs)), key=lambda s: slabs[s][0])
        val, c, i, j = slabs[t]
        if val <= 0.0:
            break  # every skyline point is already a center
        centers.append(c)
        slabs[t:t + 1] = [_slab(S, i, c), _slab(S, c, j)]
    return SolveResult(max(slab[0] for slab in slabs),
                       tuple(_point(S, c) for c in centers), "gonzalez")


def check_epsilon(eps: float) -> None:
    if not 0.0 < eps < 1.0:
        raise InvalidEpsilon(f"eps must be in (0, 1), got {eps}")


def approx_solve(S: SkylineArray, k: int, eps: float) -> SolveResult:
    """(1+eps)-approximation on S: bracket the optimum with the
    farthest-first radius, then binary search a grid of ~2/eps radii with
    the materialized decision on S, which gives the grouped decision's
    verdicts and centers.  Each grid radius is computed when probed."""
    check_epsilon(eps)
    check_input(S, k)
    tag = f"approx:{eps!r}"
    two_approx = gonzalez_2approx(S, k)
    psi2_sq = two_approx.lambda_star_sq
    if psi2_sq == 0.0:
        return SolveResult(0.0, two_approx.centers, tag)
    base = math.sqrt(psi2_sq) / 2.0  # base <= opt <= 2*base
    jmax = math.ceil(2.0 / eps)

    def grid_sq(j: int) -> float:
        r_sq = (base * (1.0 + j * eps / 2.0)) ** 2
        # Guard the top against sqrt rounding: psi2_sq itself is feasible.
        return max(r_sq, psi2_sq) if j == jmax else r_sq

    lo, hi = 0, jmax
    while lo < hi:
        mid = (lo + hi) // 2
        if decide_materialized(S, k, grid_sq(mid),
                               verdict_only=True).feasible:
            hi = mid
        else:
            lo = mid + 1
    return _certified(S, k, grid_sq(lo), tag)
