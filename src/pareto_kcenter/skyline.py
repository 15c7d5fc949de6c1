"""Skyline construction: the sort-and-scan production route, the
size-bounded probe, and the output-sensitive driver that squares its guess
until the probe fits (the paper's route, kept as the reference).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geom import Point, PointSet, SkylineArray
from .instrument import bisect_charge, counters, sort_charge

CMP = "skyline_comparisons"


@dataclass(frozen=True, slots=True)
class BoundedResult:
    """Either the complete skyline or a signal that it exceeded the guess."""

    skyline: Optional[SkylineArray]

    @property
    def complete(self) -> bool:
        return self.skyline is not None


INCOMPLETE = BoundedResult(None)


def slow_skyline(P: PointSet) -> SkylineArray:
    """Sort lexicographically, then keep each point whose y exceeds every
    y after it (a reversed running maximum), all on P's coordinate
    columns.  Charged as the sort plus one comparison per scanned point.
    """
    P.require_nonempty()
    n = len(P)
    counters.add(CMP, sort_charge(n) + n - 1)
    order = np.lexsort((P.xy[:, 1], P.xy[:, 0]))
    ys = P.xy[order, 1]
    keep = np.ones(n, dtype=bool)
    keep[:-1] = ys[:-1] > np.maximum.accumulate(ys[::-1])[::-1][1:]
    return SkylineArray([P.points[i] for i in order[keep].tolist()])


def _scan_skyline(points: list[Point]) -> SkylineArray:
    """The sort-and-scan pass on a raw list of points (the per-group
    skylines of the bounded probe and the grouped structure)."""
    pts = sorted(points, key=lambda p: (p.x, p.y))
    counters.add(CMP, sort_charge(len(pts)) + max(0, len(pts) - 1))
    out = [pts[-1]]
    best_y = pts[-1].y
    for i in range(len(pts) - 2, -1, -1):
        if pts[i].y > best_y:
            best_y = pts[i].y
            out.append(pts[i])
    out.reverse()
    return SkylineArray(out)


def coordinate_bound(P: PointSet) -> float:
    """1 + the largest absolute coordinate: safely outside the input."""
    return 1.0 + max(max(abs(p.x), abs(p.y)) for p in P.points)


def split_groups(points: tuple[Point, ...], size: int) -> list[list[Point]]:
    """Contiguous input-order chunks of at most `size` points."""
    return [list(points[i:i + size]) for i in range(0, len(points), size)]


def skyline_bounded(P: PointSet, s: int) -> BoundedResult:
    """Return the skyline if it has at most s points, else INCOMPLETE.

    Splits into ceil(n/s) groups padded with dummy extremes (-M, M) and
    (M, -M), builds each group's skyline, then walks the global skyline
    with one next-point query per group per step, for at most s+1 steps.
    """
    P.require_nonempty()
    if s < 1:
        raise ValueError("s must be >= 1")
    M = coordinate_bound(P)
    lo_dummy = Point(-M, M)
    hi_dummy = Point(M, -M)
    groups = []
    for chunk in split_groups(P.points, s):
        chunk.append(lo_dummy)
        chunk.append(hi_dummy)
        groups.append(_scan_skyline(chunk))

    out: list[Point] = []
    x_cur = -M
    for _ in range(s + 1):
        best = None
        best_key = None
        for g in groups:
            idx = bisect_right(g.xs, x_cur)
            counters.add(CMP, bisect_charge(len(g)))
            if idx >= len(g):
                continue
            cand = g[idx]
            key = (cand.y, cand.x)
            if best_key is None or key > best_key:
                best, best_key = cand, key
        counters.add(CMP, len(groups))
        if best is None or best.x == M:
            return BoundedResult(SkylineArray(out))
        out.append(best)
        x_cur = best.x
    return INCOMPLETE


def skyline_optimal(P: PointSet) -> SkylineArray:
    """Drive skyline_bounded with s = 4, 16, 256, ... until it completes."""
    P.require_nonempty()
    s = 4
    while True:
        result = skyline_bounded(P, s)
        if result.complete:
            return result.skyline
        s = s * s
