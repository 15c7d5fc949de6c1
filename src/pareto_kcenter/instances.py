"""Seeded instance generators.

Same spec (generator name, n, seed, params) always yields the bit-identical
point list: the generators draw only from random.Random.random(), whose
output stream is stable, and derive everything else arithmetically.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .geom import Point, PointSet

GENERATORS = ("uniform-square", "clustered", "staircase", "circle-quadrant")

# The parameters each generator reads; every value must be finite.
PARAMS = {
    "uniform-square": ("scale",),
    "clustered": ("scale", "clusters", "spread"),
    "staircase": ("step",),
    "circle-quadrant": ("radius",),
}

DEFAULT_SEED = 20240 + 817


@dataclass(frozen=True)
class InstanceSpec:
    generator: str
    n: int
    seed: int = DEFAULT_SEED
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        for key, val in self.params.items():
            if key not in PARAMS[self.generator]:
                raise ValueError(f"unknown parameter {key!r} for "
                                 f"{self.generator}; expected one of "
                                 f"{', '.join(PARAMS[self.generator])}")
            if not math.isfinite(val):
                raise ValueError(f"parameter {key} must be finite, got {val}")
        clusters = self.params.get("clusters", 1)
        if not (float(clusters).is_integer() and clusters >= 1):
            raise ValueError(f"clusters must be an integer >= 1, got {clusters}")


def generate(spec: InstanceSpec) -> PointSet:
    rng = random.Random(spec.seed)
    make = _DISPATCH[spec.generator]
    return PointSet(make(rng, spec.n, dict(spec.params)))


def _uniform_square(rng: random.Random, n: int, params: dict) -> list[Point]:
    scale = params.get("scale", 1000.0)
    return [Point(rng.random() * scale, rng.random() * scale) for _ in range(n)]


def _clustered(rng: random.Random, n: int, params: dict) -> list[Point]:
    scale = params.get("scale", 1000.0)
    nclusters = int(params.get("clusters", 8))
    spread = params.get("spread", scale / 40.0)
    centers = [(rng.random() * scale, rng.random() * scale) for _ in range(nclusters)]
    pts = []
    for _ in range(n):
        cx, cy = centers[int(rng.random() * nclusters) % nclusters]
        # Box-Muller from two uniform draws keeps the stream portable.
        u1 = max(rng.random(), 1e-12)
        u2 = rng.random()
        r = math.sqrt(-2.0 * math.log(u1)) * spread
        pts.append(Point(cx + r * math.cos(2 * math.pi * u2),
                         cy + r * math.sin(2 * math.pi * u2)))
    return pts


def _staircase(rng: random.Random, n: int, params: dict) -> list[Point]:
    """Strictly descending staircase: every point is on the skyline."""
    step = params.get("step", 1.0)
    x = 0.0
    y = float(n) * step
    pts = []
    for _ in range(n):
        x += step * (0.25 + rng.random())
        y -= step * (0.25 + rng.random())
        pts.append(Point(x, y))
    return pts


def _circle_quadrant(rng: random.Random, n: int, params: dict) -> list[Point]:
    """Points on the first-quadrant arc: pairwise incomparable, h = n."""
    radius = params.get("radius", 1000.0)
    angles = sorted(rng.random() * (math.pi / 2) for _ in range(n))
    return [Point(radius * math.cos(a), radius * math.sin(a)) for a in angles]


_DISPATCH = {
    "uniform-square": _uniform_square,
    "clustered": _clustered,
    "staircase": _staircase,
    "circle-quadrant": _circle_quadrant,
}


def fixed_skyline_fill(h: int, n: int, seed: int) -> PointSet:
    """n points whose skyline has exactly h points (for scaling runs).

    h anchors sit on a quarter circle; the rest are shrunken copies of
    random anchors, hence strictly dominated.
    """
    rng = random.Random(seed)
    radius = 1000.0
    angles = sorted((i + 0.5) / h * (math.pi / 2) for i in range(h))
    anchors = [Point(radius * math.cos(a), radius * math.sin(a)) for a in angles]
    pts = list(anchors)
    for _ in range(n - h):
        a = anchors[int(rng.random() * h) % h]
        u = 0.2 + 0.6 * rng.random()
        pts.append(Point(a.x * u, a.y * u))
    return PointSet(pts)
