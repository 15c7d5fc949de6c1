"""Brute-force ground truth for every algorithm in the package.

Everything here favors obviousness over speed: quadratic dominance scans,
flatten-and-sort selection, exhaustive subset search.  The only shared
code with the fast paths is the geom module's primitives, so differential
tests really compare two routes.  It lives with the tests: the package
never calls it.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from pareto_kcenter.errors import RankOutOfRange
from pareto_kcenter.geom import Point, PointSet, SkylineArray, dist_sq


class InstanceTooLarge(ValueError):
    """The oracle refused an instance beyond its size guard."""


def brute_skyline(P: PointSet) -> SkylineArray:
    """O(n^2) dominance scan: keep p iff no other point dominates it."""
    pts = P.points
    n = len(pts)
    if n == 0:
        return SkylineArray([])
    xs = np.fromiter((p.x for p in pts), dtype=float, count=n)
    ys = np.fromiter((p.y for p in pts), dtype=float, count=n)
    keep = []
    for i, p in enumerate(pts):
        dominated = (xs >= p.x) & (ys >= p.y)
        dominated[i] = False
        if not dominated.any():
            keep.append(p)
    keep.sort(key=lambda p: (p.x, p.y))
    return SkylineArray(keep)


def _cover_count(sky: Sequence[Point], lam_sq: float) -> int:
    """Disks needed to cover the staircase greedily at radius sqrt(lam_sq).

    Written from the definition, independent of the decision module: from
    the first uncovered point, the center is the farthest reachable point,
    and the cluster extends as far as that center reaches.
    """
    h = len(sky)
    used = 0
    i = 0
    while i < h:
        used += 1
        j = i
        while j + 1 < h and dist_sq(sky[i], sky[j + 1]) <= lam_sq:
            j += 1
        center = sky[j]
        while j + 1 < h and dist_sq(center, sky[j + 1]) <= lam_sq:
            j += 1
        i = j + 1
    return used


def brute_psi_sq(sky: Sequence[Point], centers: Sequence[Point]) -> float:
    """Covering radius squared of `centers` over the staircase, by full scan."""
    if not len(sky):
        return 0.0
    return max(min(dist_sq(p, c) for c in centers) for p in sky)


def brute_opt(P: PointSet, k: int, method: str = "candidates") -> float:
    """Exact opt(P, k) squared.

    method="candidates": sort all pairwise squared skyline distances and
    binary search with the greedy cover counter.  method="subsets":
    exhaustive search over all center subsets (tiny h only).
    """
    P.require_nonempty()
    sky = brute_skyline(P)
    h = len(sky)
    if k >= h:
        return 0.0
    if method == "candidates":
        if h > 600:
            raise InstanceTooLarge(f"h={h} beyond candidate-method guard")
        cands = sorted({dist_sq(a, b) for a, b in itertools.combinations(sky, 2)})
        cands.insert(0, 0.0)
        lo, hi = 0, len(cands) - 1
        # cands[hi] = full diameter: one disk always suffices
        while lo < hi:
            mid = (lo + hi) // 2
            if _cover_count(sky, cands[mid]) <= k:
                hi = mid
            else:
                lo = mid + 1
        return cands[lo]
    if method == "subsets":
        if h > 20:
            raise InstanceTooLarge(f"h={h} beyond subset-method guard")
        best = None
        for subset in itertools.combinations(sky, k):
            psi = brute_psi_sq(sky, subset)
            if best is None or psi < best:
                best = psi
        return best
    raise ValueError(f"unknown method {method!r}")


def brute_matrix_rank(S: SkylineArray, rank: int) -> float:
    """rank-th smallest entry of the signed squared-distance matrix.

    entry(i, j) = dist_sq(S[i], S[j]) for i < j, negated for i >= j.
    """
    h = len(S)
    if not 1 <= rank <= h * h:
        raise RankOutOfRange(f"rank {rank} not in [1, {h * h}]")
    entries = []
    for i in range(h):
        for j in range(h):
            d = dist_sq(S[i], S[j])
            entries.append(d if i < j else -d)
    entries.sort()
    return entries[rank - 1]
