import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pareto_kcenter.exact import solve_parametric
from pareto_kcenter.geom import (LEFT, RIGHT_OR_BEYOND, AlphaCurve, Point,
                                 PointSet, SkylineArray, dist_sq, dominates,
                                 extremes, side_of_alpha)
from pareto_kcenter.grouped import build
from pareto_kcenter.oracle import brute_skyline
from pareto_kcenter.skyline import slow_skyline
from pareto_kcenter.smallk import approx_solve, gonzalez_2approx

from conftest import random_pointset

points = st.builds(Point,
                   st.integers(min_value=-50, max_value=50).map(float),
                   st.integers(min_value=-50, max_value=50).map(float))


class TestDominates:
    def test_both_larger(self):
        assert dominates(Point(2, 2), Point(1, 1))

    def test_point_dominates_itself(self):
        assert dominates(Point(1, 1), Point(1, 1))

    def test_incomparable(self):
        assert not dominates(Point(1, 3), Point(3, 1))
        assert not dominates(Point(3, 1), Point(1, 3))

    @given(points, points)
    def test_antisymmetry(self, p, q):
        if dominates(p, q) and dominates(q, p):
            assert p == q


class TestExtremes:
    def test_ties_break_toward_the_other_coordinate(self):
        P = PointSet.from_coords([(1, 5), (2, 5), (6, 0), (6, 2), (0, 0)])
        assert extremes(P) == (Point(2, 5), Point(6, 2))

    def test_ends_of_the_skyline(self, rng):
        for _ in range(100):
            P = random_pointset(rng, rng.randint(1, 40), coord=8)
            sky = brute_skyline(P)
            assert extremes(P) == (sky[0], sky[-1])


class TestDistSq:
    def test_three_four_five(self):
        assert dist_sq(Point(0, 0), Point(3, 4)) == 25

    def test_identity(self):
        assert dist_sq(Point(1, 1), Point(1, 1)) == 0

    def test_unit_diagonal(self):
        assert dist_sq(Point(0, 2), Point(1, 1)) == 2


class TestPointSet:
    def test_deduplicates(self):
        P = PointSet.from_coords([(1, 1), (2, 2), (1, 1)])
        assert P.n == 2

    def test_preserves_input_order(self):
        P = PointSet.from_coords([(3, 0), (1, 2), (3, 0), (0, 5)])
        assert [(p.x, p.y) for p in P] == [(3, 0), (1, 2), (0, 5)]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            Point(bad, 0.0)
        with pytest.raises(ValueError):
            PointSet.from_coords([(0.0, bad)])

    @pytest.mark.parametrize("row", [[float("nan"), 0.0],
                                     [float("inf"), 1.0],
                                     [2.0, -float("inf")]])
    def test_rejects_non_finite_rows(self, row):
        with pytest.raises(ValueError):
            PointSet(np.array([[0.0, 0.0], row]))

    def test_solvers_never_materialize_points(self, rng, monkeypatch):
        # The solvers work on xy; an array-built set makes no per-row
        # Point on their way.
        xy = np.array([(rng.randint(0, 60), rng.randint(0, 60))
                       for _ in range(300)], dtype=float)
        P = PointSet(xy)

        def refuse(self):
            raise AssertionError("per-row points were materialized")

        monkeypatch.setattr(PointSet, "points", property(refuse))
        slow_skyline(P)
        build(P, 7)
        for k in (1, 2, 5):  # 5 ** 4 >= n takes the matrix route
            solve_parametric(P, k)
            gonzalez_2approx(P, k)
            approx_solve(P, k, 0.1)


class TestSkylineArray:
    def test_validate_accepts_staircase(self):
        SkylineArray([Point(0, 2), Point(1, 1), Point(2, 0)]).validate()

    def test_validate_rejects_non_staircase(self):
        with pytest.raises(ValueError):
            SkylineArray([Point(0, 2), Point(1, 3)]).validate()

    def test_monotone_distances(self, rng):
        # on any skyline, distances from a point grow with x-separation
        for _ in range(100):
            sky = brute_skyline(random_pointset(rng, rng.randint(3, 40)))
            for i in range(len(sky) - 2):
                for j in range(i + 1, len(sky) - 1):
                    assert dist_sq(sky[i], sky[j]) < dist_sq(sky[i], sky[j + 1])
                    break  # one pair per i keeps this O(h)


class TestAlphaCurve:
    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            AlphaCurve(Point(0, 0), -1.0)

    def test_radius_is_sqrt(self):
        assert AlphaCurve(Point(0, 0), 4.0).radius == 2.0

    def test_inside_quarter_circle(self):
        a = AlphaCurve(Point(0, 3), 2.25)
        assert side_of_alpha(Point(1, 2), a) == LEFT  # dist_sq 2 <= 2.25

    def test_outside_quarter_circle(self):
        a = AlphaCurve(Point(0, 3), 2.25)
        assert side_of_alpha(Point(2, 1), a) == RIGHT_OR_BEYOND  # dist_sq 8

    def test_point_on_curve_is_left(self):
        p = Point(4, 7)
        lam = 1.5
        a = AlphaCurve(p, lam * lam)
        assert side_of_alpha(Point(p.x + lam, p.y), a) == LEFT
        assert side_of_alpha(Point(p.x, p.y - lam), a) == LEFT

    def test_high_point_against_vertical_ray(self):
        a = AlphaCurve(Point(0, 0), 4.0)
        assert side_of_alpha(Point(2, 100), a) == LEFT
        assert side_of_alpha(Point(2.5, 100), a) == RIGHT_OR_BEYOND

    def test_low_point_against_vertical_ray(self):
        a = AlphaCurve(Point(0, 0), 4.0)
        assert side_of_alpha(Point(-0.5, -100), a) == LEFT
        assert side_of_alpha(Point(0.5, -100), a) == RIGHT_OR_BEYOND

    def test_left_answers_form_prefix_on_skylines(self, rng):
        # the per-group binary searches rely on this partition property
        for _ in range(200):
            sky = brute_skyline(random_pointset(rng, rng.randint(1, 50)))
            center = Point(rng.uniform(-10, 70), rng.uniform(-10, 70))
            a = AlphaCurve(center, rng.uniform(0, 40) ** 2)
            sides = [side_of_alpha(q, a) for q in sky]
            first_right = (sides + [RIGHT_OR_BEYOND]).index(RIGHT_OR_BEYOND)
            assert all(s == LEFT for s in sides[:first_right])
            assert all(s == RIGHT_OR_BEYOND for s in sides[first_right:])
