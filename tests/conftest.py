import math
import random

import pytest
from hypothesis import strategies as st

from pareto_kcenter.geom import Point, PointSet, SkylineArray
from pareto_kcenter.instances import InstanceSpec, generate


def from_coords(coords) -> PointSet:
    return PointSet(Point(x, y) for x, y in coords)


def validate_staircase(sky: SkylineArray) -> None:
    for a, b in zip(sky.pts, sky.pts[1:]):
        if not (a.x < b.x and a.y > b.y):
            raise ValueError(f"not a staircase: {a} then {b}")


def bisect_charge(m: int) -> int:
    """Probe charge for one binary search over m items."""
    return m.bit_length() if m > 0 else 0


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


def random_pointset(rng: random.Random, n: int, coord: int = 60,
                    integer: bool = True) -> PointSet:
    """Random instance; integer grids keep every comparison exact."""
    if integer:
        coords = [(rng.randint(0, coord), rng.randint(0, coord))
                  for _ in range(n)]
    else:
        coords = [(rng.uniform(0, coord), rng.uniform(0, coord))
                  for _ in range(n)]
    return from_coords(coords)


def generated(kind: str, n: int, seed: int) -> PointSet:
    return generate(InstanceSpec(kind, n, seed))


def staircase(*coords) -> PointSet:
    return from_coords(coords)


# Coordinate scales for the differential tests, and raw points for
# scaled_pointset: small integers plus a few ulps of offset.
SCALE_VALUES = (1e-170, 1e-160, 1e-150, 1.0, 2.0 ** 53, 1e17, 1e150)
SCALES = st.sampled_from(SCALE_VALUES)
RAW_POINTS = st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40),
                                st.integers(0, 3), st.integers(0, 3)),
                      min_size=1, max_size=60)


def scaled_points(scale: float, raw) -> list[Point]:
    """Small integers times the scale, plus a few ulps: ties in x or y,
    duplicates and neighbours one ulp apart all occur."""
    pts = []
    for a, b, da, db in raw:
        x, y = a * scale, b * scale
        for _ in range(da):
            x = math.nextafter(x, math.inf)
        for _ in range(db):
            y = math.nextafter(y, -math.inf)
        pts.append(Point(x, y))
    return pts


def scaled_pointset(scale: float, raw) -> PointSet:
    return PointSet(scaled_points(scale, raw))


@st.composite
def x_tied_rows(draw) -> list[tuple[float, float]]:
    """Rows with at most three distinct x (0.0 and -0.0 are one), y with
    signed zeros too, and some rows repeated: most neighbours in (x, y)
    order share x, and dedup drops rows."""
    rows = draw(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                                   st.sampled_from([0.0, -0.0, 1.0, 2.0,
                                                    -3.0])),
                         min_size=1, max_size=40))
    return rows + draw(st.lists(st.sampled_from(rows), max_size=10))


STAIR3 = [(0, 2), (1, 1), (2, 0)]
STAIR4 = [(0, 3), (1, 2), (2, 1), (3, 0)]
STAIR5 = [(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)]


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def pytest_runtest_logreport(report):
    # One visible verdict line per acceptance criterion.
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        word = "PASS" if report.passed else "FAIL"
        name = report.nodeid.split("::")[-1]
        print(f"\nACCEPTANCE {word}: {name} [{report.duration:.1f}s]")
