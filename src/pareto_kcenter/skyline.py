"""Skyline construction: the sort-and-scan production route, the
size-bounded probe, and the output-sensitive driver that squares its guess
until the probe fits (the paper's route, kept as the reference).

The bounded probe walks a GroupedSkyline built with groups of s; the
walk ends when no group has a point right of the last one found.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .geom import Point, PointSet, Record, SkylineArray
from .grouped import CMP, build, leftmost_right_of
from .instrument import counters, sort_charge


class BoundedResult(Record):
    """Either the complete skyline or a signal that it exceeded the guess."""

    __slots__ = ("skyline",)

    def __init__(self, skyline: Optional[SkylineArray]):
        self._fill(skyline)

    @property
    def complete(self) -> bool:
        return self.skyline is not None


INCOMPLETE = BoundedResult(None)


def slow_skyline(P: PointSet) -> SkylineArray:
    """Scan P's rows in its (x, y) order and keep each point whose y
    exceeds every y after it (a reversed running maximum), all on P's
    coordinate columns.  Charged as the sort plus one comparison per
    scanned point: the sort is deduplication's, done once per set.
    """
    P.require_nonempty()
    n = len(P)
    counters.add(CMP, sort_charge(n) + n - 1)
    ys = P.xy[P.order, 1]
    keep = np.ones(n, dtype=bool)
    keep[:-1] = ys[:-1] > np.maximum.accumulate(ys[::-1])[::-1][1:]
    sky = P.xy[P.order[keep]]
    return SkylineArray(cols=(sky[:, 0].tolist(), sky[:, 1].tolist()))


def skyline_bounded(P: PointSet, s: int) -> BoundedResult:
    """Return the skyline if it has at most s points, else INCOMPLETE.

    Splits P into ceil(n/s) groups, builds each group's skyline, then
    walks the global skyline with one next-point query per group per
    step, for at most s+1 steps.
    """
    G = build(P, s)
    charge = G.pass_probes + G.t
    out: list[Point] = []
    x_cur = -math.inf
    for _ in range(s + 1):
        best = leftmost_right_of(G, x_cur)
        counters.add(CMP, charge)
        if best is None:
            return BoundedResult(SkylineArray(out))
        out.append(G.point(best))
        x_cur = out[-1].x
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
