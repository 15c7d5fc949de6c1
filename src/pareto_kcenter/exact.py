"""Exact solvers for the k-center value along the skyline.

Two routes, both searching the finite candidate set of pairwise skyline
distances with one engine, multi_array_search, and a decision procedure
as the predicate:

* matrix route: the rows d(S[i], S[j > i]) of the sorted distance
  matrix over the materialized skyline, with the materialized decision;
* parametric search: simulate the grouped greedy at the unknown optimum,
  resolving each step by a search over per-group sorted distance lists
  with the grouped decision.

Distances are kept squared throughout; squaring is monotone on
distances, so every row stays sorted.  matrix_select, the
Frederickson-Johnson selection over the implicit signed matrix, is kept
as the paper's reference; no solver calls it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import InternalInvariantViolation, NotFound, RankOutOfRange
from .geom import Point, PointSet, SkylineArray, dist_sq
from .grouped import GroupedSkyline, build, next_on_skyline, next_relevant_point
from .decision import decide_grouped, decide_materialized
from .instrument import counters
from .skyline import skyline_optimal


@dataclass(frozen=True, slots=True)
class SolveResult:
    lambda_star_sq: float
    centers: tuple[Point, ...]
    algorithm: str

    @property
    def lambda_star(self) -> float:
        return math.sqrt(self.lambda_star_sq)


class SortedDistanceMatrix:
    """Implicit h x h matrix: entry(i, j) = dist_sq(S[i], S[j]) for i < j,
    negated at and below the diagonal.  Rows increase, columns decrease."""

    __slots__ = ("sky", "h")

    def __init__(self, sky: SkylineArray):
        self.sky = sky
        self.h = len(sky)

    def entry(self, i: int, j: int) -> float:
        d = dist_sq(self.sky[i], self.sky[j])
        return d if i < j else -d


def matrix_select(D: SortedDistanceMatrix, rank: int) -> float:
    """rank-th smallest entry of the implicit matrix, touching O(h) entries.

    Classic submatrix halving: keep a set of equal-size square submatrices
    that may contain the answer, quarter them, and discard every quadrant
    whose corner values certify it lies strictly above or strictly below
    the target rank.  Ties are broken lexicographically by cell position,
    which makes all keys distinct and the rank bookkeeping exact.
    """
    h = D.h
    if not 1 <= rank <= h * h:
        raise RankOutOfRange(f"rank {rank} not in [1, {h * h}]")

    # Orient so values increase along rows and down columns, pad to a
    # power of two with +inf (all padding ranks above every real entry).
    size = 1 if h == 1 else 1 << (h - 1).bit_length()
    cache: dict[tuple[int, int], tuple[float, int, int]] = {}

    def ent(i: int, j: int) -> tuple[float, int, int]:
        if i >= h or j >= h:
            return (math.inf, i, j)
        key = cache.get((i, j))
        if key is None:
            key = (D.entry(h - 1 - i, j), i, j)
            cache[(i, j)] = key
        return key

    active: list[tuple[int, int]] = [(0, 0)]
    a = rank
    while size > 1:
        half = size // 2
        children = []
        for (i0, j0) in active:
            children.append((i0, j0))
            children.append((i0 + half, j0))
            children.append((i0, j0 + half))
            children.append((i0 + half, j0 + half))
        size = half
        mass = size * size
        kmin = {c: ent(c[0], c[1]) for c in children}
        kmax = {c: ent(c[0] + size - 1, c[1] + size - 1) for c in children}

        # Discard-high: at least `a` keys certified below the quadrant.
        maxs = sorted(kmax.values())
        survivors = []
        for c in children:
            below = bisect_left(maxs, kmin[c])
            if below * mass < a:
                survivors.append(c)
        # Discard-low: more keys certified above than can sit above rank a.
        n_act = len(survivors) * mass
        mins = sorted(kmin[c] for c in survivors)
        active = []
        dropped_low = 0
        for c in survivors:
            above = len(mins) - bisect_right(mins, kmax[c])
            if above * mass >= n_act - a + 1:
                dropped_low += mass
            else:
                active.append(c)
        a -= dropped_low
        if not (1 <= a <= len(active) * mass):
            raise InternalInvariantViolation("selection rank drifted out of range")

    keys = sorted(ent(i, j) for (i, j) in active)
    counters.add("matrix_entries_touched", len(cache))
    if not 1 <= a <= len(keys):
        raise InternalInvariantViolation("selection finished with bad rank")
    return keys[a - 1][0]


def multi_array_search(arrays: Sequence, probe: Callable[[float], bool]) -> float:
    """Smallest value in the union of sorted arrays on which the monotone
    (false-then-true) predicate is true.

    Each round probes the weighted median of the active medians and clips
    every array past it, discarding at least a quarter of the remaining
    mass, so the predicate runs O(log total) times.
    """
    active = [(0, len(arr)) for arr in arrays]
    best = None
    while True:
        meds = []
        total = 0
        for idx, (lo, hi) in enumerate(active):
            if lo >= hi:
                continue
            w = hi - lo
            meds.append((arrays[idx][(lo + hi) // 2], idx, w))
            total += w
        if not meds:
            break
        counters.add("multiarray_touches", len(meds))
        meds.sort(key=lambda m: (m[0], m[1]))
        acc = 0
        pivot = meds[-1][0]
        for v, _, w in meds:
            acc += w
            if 2 * acc >= total:
                pivot = v
                break
        counters.add("multiarray_probes")
        if probe(pivot):
            if best is None or pivot < best:
                best = pivot
            for i, (lo, hi) in enumerate(active):
                if lo < hi:
                    active[i] = (lo, bisect_left(arrays[i], pivot, lo, hi))
        else:
            for i, (lo, hi) in enumerate(active):
                if lo < hi:
                    active[i] = (bisect_right(arrays[i], pivot, lo, hi), hi)
    if best is None:
        raise NotFound("predicate is false on every array value")
    return best


class _SuffixDistances:
    """Lazy sorted view: squared distances from p to the staircase points
    (xs[i], ys[i]) for start <= i < end.

    Sortedness holds because distances from a skyline point grow
    monotonically along the staircase to its right.
    """

    __slots__ = ("xs", "ys", "start", "end", "px", "py")

    def __init__(self, xs: list[float], ys: list[float], start: int,
                 end: int, p: Point):
        self.xs = xs
        self.ys = ys
        self.start = start
        self.end = end
        self.px = p.x
        self.py = p.y

    def __len__(self) -> int:
        return self.end - self.start

    def __getitem__(self, j: int) -> float:
        i = self.start + j
        dx = self.px - self.xs[i]  # as dist_sq(p, q)
        dy = self.py - self.ys[i]
        return dx * dx + dy * dy


def solve_via_matrix(P: PointSet, k: int) -> SolveResult:
    """Multi-array search over the h-1 increasing rows d(S[i], S[j > i])
    of the sorted distance matrix, one materialized decision per probe.

    For k < h the optimum is positive, so it lies in those rows; the last
    entry of row 0, the diameter, is always feasible.
    """
    P.require_nonempty()
    if k < 1:
        raise ValueError("k must be >= 1")
    S = skyline_optimal(P)
    h = len(S)
    if k >= h:
        return SolveResult(0.0, tuple(S), "matrix")
    ys = [q.y for q in S]
    rows = [_SuffixDistances(S.xs, ys, i + 1, h, S[i]) for i in range(h - 1)]
    lam = multi_array_search(rows, lambda v: decide_materialized(S, k, v).feasible)
    lam += 0.0  # normalizes -0.0
    out = decide_materialized(S, k, lam)
    if not out.feasible:
        raise InternalInvariantViolation("selected radius is not feasible")
    return SolveResult(lam, out.centers, "matrix")


def _suffix_arrays(G: GroupedSkyline, p: Point) -> list[_SuffixDistances]:
    arrays = []
    lo = 0
    for hi in G.groups:
        start = bisect_left(G.xs, p.x, lo, hi)
        if start < hi:
            arrays.append(_SuffixDistances(G.xs, G.ys, start, hi, p))
        lo = hi
    return arrays


def _bracket_step(G: GroupedSkyline, p: Point,
                  decider: Callable[[float], bool]):
    """One greedy step resolved against the unknown optimum lam*.

    Returns (point, s) where s is the smallest feasible squared distance
    among the suffix candidates of p (None when the boundary checks short
    circuit).  The point is nrp(p, f) for f = the largest suffix candidate
    below s: that is the greedy step for every radius in (f, s), in
    particular for lam* whenever lam* < s.  When lam* == s the true step
    is nrp(p, s) instead; callers that cannot tell pick the f-step, which
    the solver's global recovery makes harmless.
    """
    if decider(0.0):
        return p, 0.0
    if not decider(dist_sq(p, G.q0)):
        # lam* exceeds every suffix distance from p: the whole suffix is
        # within reach and the step lands on the last skyline point.
        return G.q0, None
    arrays = _suffix_arrays(G, p)
    s = multi_array_search(arrays, decider)
    f = 0.0
    for arr in arrays:
        i = bisect_left(arr, s)
        if i > 0 and arr[i - 1] > f:
            f = arr[i - 1]
    return next_relevant_point(G, p, f), s


def solve_parametric(P: PointSet, k: int) -> SolveResult:
    """Simulate the grouped greedy at radii just below the unknown optimum.

    Each step reports the smallest feasible candidate among its suffix
    distances; the minimum of those reports is exactly opt.  (The greedy
    at any radius below opt cannot cover with k disks, so it must diverge
    from the opt-greedy at some step, and at the first divergence the
    binding distance -- a suffix candidate of that step's query point --
    equals opt.)  A final decision at the recovered value certifies it
    and yields the centers.

    For k >= n^(1/4) the matrix route is already optimal and is used
    directly.
    """
    P.require_nonempty()
    if k < 1:
        raise ValueError("k must be >= 1")
    n = len(P)
    if k ** 4 >= n:
        return solve_via_matrix(P, k)
    kappa = min(n, max(1, math.ceil(k ** 3 * math.log2(n) ** 2)))
    G = build(P, kappa)

    def decider(lam_sq: float) -> bool:
        return decide_grouped(G, k, lam_sq).feasible

    smallest_feasible = None
    left = G.p0
    for _ in range(k):
        c, s1 = _bracket_step(G, left, decider)
        r, s2 = _bracket_step(G, c, decider)
        for s in (s1, s2):
            if s is not None and (smallest_feasible is None or s < smallest_feasible):
                smallest_feasible = s
        nxt = next_on_skyline(G, r.x)
        if nxt is None:
            break
        left = nxt
    if smallest_feasible is None:
        raise InternalInvariantViolation("no feasible candidate observed")
    lam = smallest_feasible + 0.0
    out = decide_grouped(G, k, lam)
    if not out.feasible:
        raise InternalInvariantViolation("recovered radius is not feasible")
    return SolveResult(lam, out.centers, "parametric")
