"""Seeded instance generators.

Same spec (generator name, n, seed) always yields the bit-identical point
list: the generators draw only from random.Random.random(), whose output
stream is stable, and derive everything else arithmetically.  Each
generator has one fixed shape: the square [0, 1000)^2, 8 clusters of
spread 25 around centers in it, a staircase down from (0, n) with steps
of 0.25 to 1.25 on each axis, or the quarter circle of radius 1000.
"""

from __future__ import annotations

import math
import random

from . import DEFAULT_SEED, GENERATORS
from .geom import Point, PointSet, Record


class InstanceSpec(Record):
    __slots__ = ("generator", "n", "seed")

    def __init__(self, generator: str, n: int, seed: int = DEFAULT_SEED):
        if generator not in GENERATORS:
            raise ValueError(f"unknown generator {generator!r}")
        if n < 1:
            raise ValueError("n must be >= 1")
        self._fill(generator, n, seed)


def generate(spec: InstanceSpec) -> PointSet:
    rng = random.Random(spec.seed)
    make = _DISPATCH[spec.generator]
    return PointSet(make(rng, spec.n))


def _uniform_square(rng: random.Random, n: int) -> list[Point]:
    return [Point(rng.random() * 1000.0, rng.random() * 1000.0)
            for _ in range(n)]


def _clustered(rng: random.Random, n: int) -> list[Point]:
    centers = [(rng.random() * 1000.0, rng.random() * 1000.0) for _ in range(8)]
    pts = []
    for _ in range(n):
        cx, cy = centers[int(rng.random() * 8) % 8]
        # Box-Muller from two uniform draws keeps the stream portable.
        u1 = max(rng.random(), 1e-12)
        u2 = rng.random()
        r = math.sqrt(-2.0 * math.log(u1)) * 25.0
        pts.append(Point(cx + r * math.cos(2 * math.pi * u2),
                         cy + r * math.sin(2 * math.pi * u2)))
    return pts


def _staircase(rng: random.Random, n: int) -> list[Point]:
    """Strictly descending staircase: every point is on the skyline."""
    x = 0.0
    y = float(n)
    pts = []
    for _ in range(n):
        x += 0.25 + rng.random()
        y -= 0.25 + rng.random()
        pts.append(Point(x, y))
    return pts


def _circle_quadrant(rng: random.Random, n: int) -> list[Point]:
    """Points on the first-quadrant arc: pairwise incomparable, h = n."""
    angles = sorted(rng.random() * (math.pi / 2) for _ in range(n))
    return [Point(1000.0 * math.cos(a), 1000.0 * math.sin(a)) for a in angles]


_DISPATCH = {
    "uniform-square": _uniform_square,
    "clustered": _clustered,
    "staircase": _staircase,
    "circle-quadrant": _circle_quadrant,
}
