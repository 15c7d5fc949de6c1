"""Exact solvers for the k-center value along the skyline.

Three routes.  Each returns a pairwise skyline distance, certified by a
final decision that also picks the centers.  The row and matrix routes
take the staircase S = sky(P), built once by the caller; the parametric
search takes the points P:

* row route: run the decision's own greedy (decision._greedy) at a
  radius that stands just below the unknown optimum: it settles each
  distance the greedy compares with a decision, memoized as a bracket
  of values, so most compares cost none.
* matrix route: the h-1 rows d(S[r], S[j > r]) of the sorted distance
  matrix over the skyline's columns, searched by multi_array_search
  with the materialized decision;
* parametric search (the paper's route): simulate the grouped greedy at
  the unknown optimum, resolving each step by a multi_array_search over
  the per-group suffixes of distances from the step's point, with the
  grouped decision.

multi_array_search keeps every sorted row as an index range over numpy
coordinate columns and moves all rows in lockstep; each round clips the
rows with grouped.first_false, the bisection helper that the grouped
queries run on.  Each solver always runs its own route; the CLI's
``auto`` entry runs the row route, the fastest one measured.

Distances are kept squared throughout; squaring is monotone on
distances, so every row stays sorted.  numpy rounds dx*dx + dy*dy per
element as Python does, so every entry is the float dist_sq gives.
matrix_select, the Frederickson-Johnson selection over the implicit
signed matrix, is kept as the paper's reference; no solver calls it.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from typing import Callable

import numpy as np

from .errors import InternalInvariantViolation, NotFound, RankOutOfRange
from .geom import Point, PointSet, Record, SkylineArray, dist_sq
from .grouped import (GroupedSkyline, build, first_false, next_on_skyline,
                      next_relevant_point)
from .decision import _greedy, check_input, decide_grouped, decide_materialized
from .instrument import counters


class SolveResult(Record):
    __slots__ = ("lambda_star_sq", "centers", "algorithm")

    def __init__(self, lambda_star_sq: float, centers: tuple[Point, ...],
                 algorithm: str):
        self._fill(lambda_star_sq, centers, algorithm)

    @property
    def lambda_star(self) -> float:
        return math.sqrt(self.lambda_star_sq)


def _certified(S: SkylineArray, k: int, lam_sq: float,
               tag: str) -> SolveResult:
    """The final decision at the radius a search on S selected: it
    certifies the radius and picks the centers."""
    out = decide_materialized(S, k, lam_sq)
    if not out.feasible:
        raise InternalInvariantViolation(f"{tag}: radius is not feasible")
    return SolveResult(lam_sq, out.centers, tag)


class SortedDistanceMatrix:
    """Implicit h x h matrix: entry(i, j) = dist_sq(S[i], S[j]) for i < j,
    negated at and below the diagonal.  Rows increase, columns decrease."""

    __slots__ = ("sky", "h")

    def __init__(self, sky: SkylineArray):
        self.sky = sky
        self.h = len(sky)

    def entry(self, i: int, j: int) -> float:
        xs, ys = self.sky.xs, self.sky.ys
        dx = xs[i] - xs[j]  # as dist_sq(S[i], S[j])
        dy = ys[i] - ys[j]
        d = dx * dx + dy * dy
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


def multi_array_search(row_value: Callable, lo, hi,
                       probe: Callable[[float], bool]) -> float:
    """Smallest entry on which the monotone (false-then-true) predicate is
    true, over the non-decreasing rows r with entries row_value(r, j) for
    lo[r] <= j < hi[r]; row_value takes two index arrays, or two ints.

    All rows move in lockstep.  Each round probes the weighted median of
    the live rows' medians and clips every live row past it, discarding
    at least a quarter of the remaining mass, so the predicate runs
    O(log total) times.  The clip bisects each row's side of its median
    with first_false, whose answer is unique; it counts nothing here.  A
    settled row's distance at max(a - 1, 0) is a column index too, so
    first_false may read it and ignore it.
    """
    live = np.flatnonzero(np.less(lo, hi))
    a, b = np.take(lo, live), np.take(hi, live)
    best = None
    while len(live):
        m = (a + b) // 2
        meds = row_value(live, m)
        order = meds.argsort()  # equal medians are adjacent in any order
        acc = np.cumsum((b - a)[order])
        pivot = float(meds[order[np.argmax(2 * acc >= acc[-1])]])
        counters.add("multiarray_touches", len(live))
        counters.add("multiarray_probes")
        feasible = probe(pivot)
        if feasible and (best is None or pivot < best):
            best = pivot
        below = operator.lt if feasible else operator.le  # bisect_left/_right
        go = below(meds, pivot)
        a2, b2 = np.where(go, m + 1, a), np.where(go, b, m)
        cut = np.asarray(first_false(
            lambda i, js: below(row_value(live[i], js), pivot), a2, b2)[0])
        a, b = (a, cut) if feasible else (cut, b)
        keep = a < b
        live, a, b = live[keep], a[keep], b[keep]
    if best is None:
        raise NotFound("predicate is false on every array value")
    return best


def _distances(xs: np.ndarray, ys: np.ndarray, anchor: Callable):
    """row_value: squared distances from anchor(rows) to the points js."""
    def row_value(rows, js):
        ax, ay = anchor(rows)
        dx = ax - xs[js]  # as dist_sq(anchor, q)
        dy = ay - ys[js]
        return dx * dx + dy * dy
    return row_value


def _matrix_rows(S: SkylineArray):
    """The h-1 rows d(S[r], S[j]), r < j < h, of the sorted distance
    matrix, as multi_array_search takes them."""
    xs, ys = np.array(S.xs, dtype=float), np.array(S.ys, dtype=float)
    h = len(xs)
    return (_distances(xs, ys, lambda rows: (xs[rows], ys[rows])),
            np.arange(1, h), np.full(h - 1, h))


def solve_via_matrix(S: SkylineArray, k: int) -> SolveResult:
    """Multi-array search over the h-1 increasing rows d(S[r], S[j > r])
    of S's sorted distance matrix, one materialized decision per probe.

    For k < h the optimum is positive, so it lies in those rows; the last
    entry of row 0, the diameter, is always feasible.  For k >= h it is
    0.  Either way one final decision certifies it and picks the centers.
    """
    check_input(S, k)
    lam = 0.0
    if k < len(S):
        lam = multi_array_search(
            *_matrix_rows(S),
            lambda v: decide_materialized(S, k, v, verdict_only=True).feasible)
        lam += 0.0  # normalizes -0.0
    return _certified(S, k, lam, "matrix")


class _BelowOptimum:
    """A radius just below the unknown optimum lam* of the greedy on a
    staircase, for decision._greedy: ``d <= radius`` holds exactly when
    decide finds d infeasible.

    Row a holds d(a, j), j > a, nondecreasing in j.  An entry is below
    lam* exactly when decide finds it infeasible, so the last entry
    before row a's first feasible one is the greedy's reach from a at
    every radius just below lam*: that greedy cannot cover the staircase
    with k clusters.  At its first step that differs from the greedy at
    lam* (one of its first 2k), the first feasible entry of the row is
    lam* itself.  Every value compared is memoized in a bracket, the
    largest infeasible and the smallest feasible value seen, so lam* is
    the bracket's feasible end, ``above``.
    """

    __slots__ = ("decide", "below", "above")

    def __init__(self, decide: Callable[[float], bool]):
        self.decide = decide
        self.below, self.above = -math.inf, math.inf

    def __ge__(self, d: float) -> bool:  # d <= self, reflected
        if d <= self.below:
            return True
        if d >= self.above:
            return False
        if self.decide(d):
            self.above = d
            return False
        self.below = d
        return True


def _row_greedy(xs: list, ys: list, k: int,
                decide: Callable[[float], bool]) -> float:
    """The smallest pairwise distance of the staircase (xs, ys) that
    decide finds feasible: the decision's greedy run at a radius just
    below it (_BelowOptimum), which settles each distance it compares
    with decide."""
    radius = _BelowOptimum(decide)
    _greedy(xs, ys, k, radius)
    if radius.above == math.inf:
        raise InternalInvariantViolation("no feasible candidate observed")
    return radius.above


def solve_by_rows(S: SkylineArray, k: int) -> SolveResult:
    """The materialized greedy just below the unknown optimum
    (_row_greedy), for k < h; 0 for k >= h.  A final decision certifies
    the value and picks the centers."""
    check_input(S, k)
    lam = 0.0
    if k < len(S):
        lam = _row_greedy(S.xs, S.ys, k, lambda v: decide_materialized(
            S, k, v, verdict_only=True).feasible)
    return _certified(S, k, lam, "rows")


def _suffix_rows(G: GroupedSkyline, p: Point):
    """One row per group: the distances from p to its stored points at
    x >= x(p), as multi_array_search takes them."""
    xs, _, starts, ends = G.cols
    lo = first_false(lambda _, j: xs[j] < p.x, starts, ends)[0]
    return _distances(G.xs, G.ys, lambda rows: (p.x, p.y)), lo, ends


def _bracket_step(G: GroupedSkyline, p: Point,
                  decider: Callable[[float], bool]):
    """One greedy step resolved against the unknown optimum lam*.

    Returns (point, s) where s is the smallest feasible squared distance
    among the suffix candidates of p (None when the boundary checks short
    circuit).  No candidate lies between s and f, the largest one below
    s, so nrp(p, r) for r the float just below s is nrp(p, f): the greedy
    step for every radius in (f, s), in particular for lam* whenever
    lam* < s.  When lam* == s the true step is nrp(p, s) instead; callers
    that cannot tell pick the f-step, which the solver's global recovery
    makes harmless.
    """
    if decider(0.0):
        return p, 0.0
    if not decider(dist_sq(p, G.q0)):
        # lam* exceeds every suffix distance from p: the whole suffix is
        # within reach and the step lands on the last skyline point.
        return G.q0, None
    s = multi_array_search(*_suffix_rows(G, p), decider)
    return next_relevant_point(G, p, math.nextafter(s, 0.0)), s


def solve_parametric(P: PointSet, k: int) -> SolveResult:
    """Simulate the grouped greedy at radii just below the unknown optimum.

    Each step reports the smallest feasible candidate among its suffix
    distances; the minimum of those reports is exactly opt.  (The greedy
    at any radius below opt cannot cover with k disks, so it must diverge
    from the opt-greedy at some step, and at the first divergence the
    binding distance -- a suffix candidate of that step's query point --
    equals opt.)  A final decision at the recovered value certifies it
    and yields the centers.
    """
    P.require_nonempty()
    if k < 1:
        raise ValueError("k must be >= 1")
    n = len(P)
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
