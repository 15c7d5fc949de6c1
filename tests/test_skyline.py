import pytest
from hypothesis import given, settings

from pareto_kcenter.errors import EmptyInput
from pareto_kcenter.geom import Point, PointSet
from pareto_kcenter.instrument import counters
from pareto_kcenter.skyline import (skyline_bounded, skyline_optimal,
                                    slow_skyline)

from conftest import (RAW_POINTS, SCALES, STAIR5, fixed_skyline_fill,
                      from_coords, random_pointset, scaled_pointset,
                      validate_staircase, x_tied_rows)
from oracle import brute_skyline


def coords(sky):
    return [(p.x, p.y) for p in sky]


class TestSlowSkyline:
    def test_dominated_point_removed(self):
        P = from_coords([(0, 0), (1, 1)])
        assert coords(slow_skyline(P)) == [(1, 1)]

    def test_staircase_kept_in_x_order(self):
        P = from_coords([(2, 0), (0, 2), (1, 1)])
        assert coords(slow_skyline(P)) == [(0, 2), (1, 1), (2, 0)]

    def test_mixed_instance(self):
        P = from_coords([(2, 2), (1, 3), (3, 1), (0, 0)])
        assert coords(slow_skyline(P)) == [(1, 3), (2, 2), (3, 1)]

    def test_shared_x_keeps_higher(self):
        P = from_coords([(1, 1), (1, 2)])
        assert coords(slow_skyline(P)) == [(1, 2)]

    def test_shared_y_keeps_righter(self):
        P = from_coords([(1, 5), (2, 5)])
        assert coords(slow_skyline(P)) == [(2, 5)]

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            slow_skyline(PointSet([]))

    def test_counter_charge(self):
        P = from_coords([(i, 9 - i) for i in range(10)])
        counters.reset()
        slow_skyline(P)
        assert counters.get("skyline_comparisons") == 10 * 4 + 9

    @settings(max_examples=150, deadline=None)
    @given(SCALES, RAW_POINTS)
    def test_equals_brute_at_every_scale(self, scale, raw):
        P = scaled_pointset(scale, raw)
        want = brute_skyline(P).pts
        assert slow_skyline(P).pts == want
        assert skyline_optimal(P).pts == want
        assert skyline_bounded(P, len(P)).skyline.pts == want

    @settings(max_examples=150, deadline=None)
    @given(x_tied_rows())
    def test_equals_brute_with_x_ties(self, rows):
        P = PointSet([Point(x, y) for x, y in rows])
        want = [(p.x.hex(), p.y.hex()) for p in brute_skyline(P)]
        assert [(p.x.hex(), p.y.hex()) for p in slow_skyline(P)] == want
        for s in (1, 2, len(P), len(P) + 1):
            result = skyline_bounded(P, s)
            assert result.complete == (s >= len(want))
            if result.complete:
                got = [(p.x.hex(), p.y.hex()) for p in result.skyline]
                assert got == want


class TestSkylineBounded:
    def test_exact_fit_is_complete(self):
        P = from_coords(STAIR5)
        result = skyline_bounded(P, 5)
        assert result.complete and len(result.skyline) == 5

    def test_one_short_is_incomplete(self):
        P = from_coords(STAIR5)
        assert not skyline_bounded(P, 4).complete

    def test_dichotomy_over_all_guesses(self, rng):
        for _ in range(40):
            P = random_pointset(rng, rng.randint(1, 48))
            h = len(brute_skyline(P))
            for s in range(1, h + 3):
                result = skyline_bounded(P, s)
                assert result.complete == (s >= h)
                if result.complete:
                    assert result.skyline.pts == brute_skyline(P).pts

    def test_bad_guess_rejected(self):
        with pytest.raises(ValueError):
            skyline_bounded(from_coords([(0, 0)]), 0)


class TestSkylineOptimal:
    def test_single_point(self):
        P = from_coords([(5, 5)])
        assert coords(skyline_optimal(P)) == [(5, 5)]

    def test_full_staircase_all_returned(self):
        P = from_coords([(i, 1000 - i) for i in range(1000)])
        assert len(skyline_optimal(P)) == 1000

    def test_three_way_equivalence(self, rng):
        for _ in range(150):
            P = random_pointset(rng, rng.randint(1, 120),
                                integer=rng.random() < 0.7)
            a = slow_skyline(P).pts
            b = skyline_optimal(P).pts
            c = brute_skyline(P).pts
            assert a == b == c

    def test_result_is_valid_staircase(self, rng):
        for _ in range(50):
            validate_staircase(
                skyline_optimal(random_pointset(rng, rng.randint(1, 80))))

    def test_work_counter_linear_at_fixed_h(self):
        # with h pinned, doubling n should roughly double the work
        counts = []
        for i, n in enumerate((4096, 8192, 16384)):
            P = fixed_skyline_fill(32, n, seed=900 + i)
            counters.reset()
            sky = skyline_optimal(P)
            assert len(sky) == 32
            counts.append(counters.get("skyline_comparisons"))
        for small, big in zip(counts, counts[1:]):
            assert 1.5 <= big / small <= 2.7
