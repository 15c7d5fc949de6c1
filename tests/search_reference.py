"""Plain-Python references for the exact search and the decision: the
engine that walks each sorted row one entry at a time, its lazy row
views, and the linear-scan greedy.  The tests check the numpy lockstep
engine and the galloping decision against them."""

from bisect import bisect_left, bisect_right

from pareto_kcenter.decision import INCOMPLETE, DecisionOutcome
from pareto_kcenter.errors import NotFound
from pareto_kcenter.geom import dist_sq
from pareto_kcenter.instrument import counters


def multi_array_search(arrays, probe):
    """Smallest value in the union of sorted arrays on which the monotone
    (false-then-true) predicate is true: each round probes the weighted
    median of the active medians, ties toward the lower array, and clips
    every array past it."""
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


class SuffixDistances:
    """Lazy sorted view: squared distances from p to the staircase points
    (xs[i], ys[i]) for start <= i < end."""

    __slots__ = ("xs", "ys", "start", "end", "px", "py")

    def __init__(self, xs, ys, start, end, p):
        self.xs = xs
        self.ys = ys
        self.start = start
        self.end = end
        self.px = p.x
        self.py = p.y

    def __len__(self):
        return self.end - self.start

    def __getitem__(self, j):
        i = self.start + j
        dx = self.px - self.xs[i]  # as dist_sq(p, q)
        dy = self.py - self.ys[i]
        return dx * dx + dy * dy


def matrix_rows(S):
    """The h-1 rows d(S[i], S[j > i]) of the sorted distance matrix."""
    h = len(S)
    return [SuffixDistances(S.xs, S.ys, i + 1, h, S[i]) for i in range(h - 1)]


def suffix_rows(G, p):
    """The non-empty suffixes x >= x(p) of the groups, as rows of
    distances from p."""
    xs, ys = G.xs.tolist(), G.ys.tolist()
    arrays = []
    lo = 0
    for hi in G.groups.tolist():
        start = bisect_left(xs, p.x, lo, hi)
        if start < hi:
            arrays.append(SuffixDistances(xs, ys, start, hi, p))
        lo = hi
    return arrays


def largest_below(arrays, s):
    """The largest entry below s over the rows, 0.0 if none."""
    f = 0.0
    for arr in arrays:
        i = bisect_left(arr, s)
        if i > 0 and arr[i - 1] > f:
            f = arr[i - 1]
    return f


def linear_decide(S, k, lambda_sq):
    """The greedy by a forward scan, one distance per step."""
    h = len(S)
    centers = []
    clusters = []
    i = 0
    for _ in range(k):
        la = i
        while i < h and dist_sq(S[la], S[i]) <= lambda_sq:
            i += 1
        ca = i - 1
        while i < h and dist_sq(S[ca], S[i]) <= lambda_sq:
            i += 1
        ra = i - 1
        centers.append(S[ca])
        clusters.append((S[la], S[ca], S[ra]))
        if i >= h:
            return DecisionOutcome(True, tuple(centers), tuple(clusters))
    return INCOMPLETE
