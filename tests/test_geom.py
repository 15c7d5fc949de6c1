import copy
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pareto_kcenter import DEFAULT_SEED
from pareto_kcenter.cli import Route, RunReport
from pareto_kcenter.decision import DecisionOutcome
from pareto_kcenter.errors import FrozenRecord
from pareto_kcenter.exact import (SolveResult, solve_by_rows, solve_parametric,
                                  solve_via_matrix)
from pareto_kcenter.geom import Point, PointSet, SkylineArray, dist_sq, extremes
from pareto_kcenter.grouped import build, next_relevant_point
from pareto_kcenter.instances import InstanceSpec
from pareto_kcenter.skyline import BoundedResult, slow_skyline
from pareto_kcenter.smallk import (approx_solve, gonzalez_2approx,
                                   solve_one_center)

from conftest import (RAW_POINTS, SCALES, STAIR4, from_coords, random_pointset,
                      scaled_points, validate_staircase, x_tied_rows)
from dedup_reference import first_occurrences as reference_dedup
from oracle import brute_skyline


class TestExtremes:
    def test_ties_break_toward_the_other_coordinate(self):
        P = from_coords([(1, 5), (2, 5), (6, 0), (6, 2), (0, 0)])
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
        P = from_coords([(1, 1), (2, 2), (1, 1)])
        assert len(P) == 2

    def test_preserves_input_order(self):
        P = from_coords([(3, 0), (1, 2), (3, 0), (0, 5)])
        assert [(p.x, p.y) for p in P] == [(3, 0), (1, 2), (0, 5)]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            Point(bad, 0.0)
        with pytest.raises(ValueError):
            from_coords([(0.0, bad)])

    @pytest.mark.parametrize("row", [[float("nan"), 0.0],
                                     [float("inf"), 1.0],
                                     [2.0, -float("inf")]])
    def test_rejects_non_finite_rows(self, row):
        # The message names the first non-finite row, not a later one.
        named = re.escape(f"non-finite coordinate: ({row[0]}, {row[1]})")
        with pytest.raises(ValueError, match=named):
            PointSet(np.array([[0.0, 0.0], row, [-float("inf"), 3.0]]))

    @pytest.mark.parametrize("rows", [[(1.0, 2.0), (3.0, 4.0)],
                                      [(1.0, 2.0), (1.0, 5.0)],
                                      [(1.0, 2.0), (1.0, 2.0), (3.0, 4.0)]])
    def test_owns_its_coordinates(self, rows):
        # Whether or not a row is dropped, xy is the set's own copy: it
        # neither follows later writes to the caller's array nor makes
        # that array read-only.
        kept = [list(r) for r in dict.fromkeys(rows)]
        for a in (np.array(rows), np.array(rows).ravel()):
            P = PointSet(a)
            a[:] = -7.0
            assert P.xy.tolist() == kept
            assert a.flags.writeable

    def test_solvers_never_materialize_points(self, rng, monkeypatch):
        # The solvers work on xy and the staircase's columns; an
        # array-built set makes no per-row Point on their way.
        xy = np.array([(rng.randint(0, 60), rng.randint(0, 60))
                       for _ in range(300)], dtype=float)
        P = PointSet(xy)

        def refuse(self):
            raise AssertionError("per-row points were materialized")

        monkeypatch.setattr(PointSet, "points", property(refuse))
        monkeypatch.setattr(SkylineArray, "pts", property(refuse))
        S = slow_skyline(P)
        build(P, 7)
        solve_one_center(S)
        for k in (1, 2, 5):
            solve_by_rows(S, k)
            solve_via_matrix(S, k)
            solve_parametric(P, k)
            gonzalez_2approx(S, k)
            approx_solve(S, k, 0.1)


def assert_order_is_lexsort(rows):
    """Built from Points or from an array, the set keeps the same rows and
    their (x, y) order, which is lexsort's, read-only."""
    from_points = PointSet([Point(x, y) for x, y in rows])
    from_array = PointSet(np.array(rows, dtype=float).reshape(-1, 2))
    assert np.array_equal(from_points.xy, from_array.xy)
    for P in (from_points, from_array):
        want = np.lexsort((P.xy[:, 1], P.xy[:, 0]))
        assert P.order.dtype == want.dtype
        assert np.array_equal(P.order, want)
        assert not P.order.flags.writeable
        with pytest.raises(ValueError):
            P.order[0] = 0


class TestSharedOrder:
    @settings(max_examples=150, deadline=None)
    @given(SCALES, RAW_POINTS)
    def test_order_is_lexsort_at_every_scale(self, scale, raw):
        assert_order_is_lexsort([(p.x, p.y)
                                 for p in scaled_points(scale, raw)])

    @settings(max_examples=150, deadline=None)
    @given(x_tied_rows())
    def test_order_is_lexsort_with_x_ties(self, rows):
        assert_order_is_lexsort(rows)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.builds(lambda scale, raw: [(p.x, p.y)
                                      for p in scaled_points(scale, raw)],
                  SCALES, RAW_POINTS),
        x_tied_rows()))
    # One example per kind of input, so that every run tries each: no
    # shared x (the early exit); shared x and no repeated row; repeated
    # rows; 0.0 and -0.0 as one value; one row; no rows.
    @example([(0.0, 1.0), (2.0, -1.0), (1.0, 5.0)])
    @example([(1.0, 2.0), (0.0, 0.0), (1.0, -1.0), (1.0, 0.0)])
    @example([(1.0, 2.0), (0.0, 0.0), (1.0, 2.0), (3.0, 1.0), (0.0, 0.0)])
    @example([(-0.0, 1.0), (2.0, -0.0), (0.0, 1.0), (2.0, 0.0)])
    @example([(5.0, -0.0)])
    @example([])
    def test_dedup_matches_the_reference(self, rows):
        xy = np.array(rows, dtype=float).reshape(-1, 2)
        keep, order = reference_dedup(xy.copy())
        want = xy[keep]
        for P in (PointSet(xy), PointSet([Point(x, y) for x, y in rows])):
            assert P.xy.shape == want.shape
            assert P.xy.tobytes() == want.tobytes()  # the sign of zero too
            assert P.order.dtype == order.dtype
            assert np.array_equal(P.order, order)

    def test_empty_set_has_empty_order(self):
        assert len(PointSet([]).order) == 0
        assert len(PointSet(np.empty((0, 2))).order) == 0


def records():
    """One instance of each of the package's records."""
    p, q = Point(0.0, 1.0), Point(1.0, 0.0)
    result = SolveResult(0.5, (p,), "rows")
    return [p, DecisionOutcome(True, (p,), ((p, p, q),)), result,
            build(from_coords(STAIR4), 3), BoundedResult(SkylineArray([p, q])),
            RunReport(result, 2, 2, 1, 0.25, {"decide_calls": 1}),
            Route(len, "factor 2", max_k=1), InstanceSpec("staircase", 4)]


class TestRecords:
    @pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
    def test_refuses_every_assignment_and_deletion(self, record):
        assert issubclass(FrozenRecord, AttributeError)
        before = repr(record)
        for name in (record.__slots__[0], "not_a_field"):
            with pytest.raises(FrozenRecord):
                setattr(record, name, None)
            with pytest.raises(FrozenRecord):
                delattr(record, name)
        assert repr(record) == before

    @pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
    def test_equality_and_hash_by_fields(self, record):
        twin = type(record)(*(getattr(record, f) for f in record.__slots__))
        if type(record).__name__ == "GroupedSkyline":  # equal only to itself
            assert twin != record and hash(twin) != hash(record)
        else:
            assert twin == record and twin is not record
            # A dict or a SkylineArray field is unhashable, and so is its
            # record, as it was as a dataclass.
            if type(record) not in (RunReport, BoundedResult):
                assert hash(twin) == hash(record)
        assert record == record and record != object()

    def test_point_repr_hash_and_validation(self):
        p = Point(1.0, -2.5)
        assert repr(p) == "Point(x=1.0, y=-2.5)"
        assert hash(p) == hash((1.0, -2.5))  # as the dataclass hashed it
        assert p == Point(1, -2.5) and p != Point(1.0, 2.5)
        assert p != (1.0, -2.5)
        with pytest.raises(ValueError,
                           match=re.escape("non-finite coordinate: (1.0, nan)")):
            Point(1.0, float("nan"))
        with pytest.raises(TypeError):
            Point(1.0)
        assert Point(y=2.0, x=1.0) == Point(1.0, 2.0)

    def test_defaults_and_validation_are_kept(self):
        assert DecisionOutcome(False) == DecisionOutcome(False, (), ())
        assert Route(len) == Route(len, "exact", None, None)
        assert InstanceSpec("staircase", 4) == InstanceSpec(
            "staircase", 4, DEFAULT_SEED)
        with pytest.raises(ValueError, match="unknown generator"):
            InstanceSpec("spiral", 4)
        with pytest.raises(ValueError, match="n must be >= 1"):
            InstanceSpec("staircase", 0)

    @pytest.mark.parametrize("record", [Point(0.5, 2.0),
                                        SolveResult(0.5, (Point(0, 1),), "rows"),
                                        InstanceSpec("circle-quadrant", 7, 3)],
                             ids=lambda r: type(r).__name__)
    def test_copy_and_pickle(self, record):
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert twin == record and type(twin) is type(record)


class TestSkylineArray:
    def test_validate_accepts_staircase(self):
        validate_staircase(SkylineArray([Point(0, 2), Point(1, 1), Point(2, 0)]))

    def test_validate_rejects_non_staircase(self):
        with pytest.raises(ValueError):
            validate_staircase(SkylineArray([Point(0, 2), Point(1, 3)]))

    def test_monotone_distances(self, rng):
        # on any skyline, distances from a point grow with x-separation
        for _ in range(100):
            sky = brute_skyline(random_pointset(rng, rng.randint(3, 40)))
            for i in range(len(sky) - 2):
                for j in range(i + 1, len(sky) - 1):
                    assert dist_sq(sky[i], sky[j]) < dist_sq(sky[i], sky[j + 1])
                    break  # one pair per i keeps this O(h)


class TestAlphaCurve:
    # The paper's alpha curve of p and a radius bounds the points a center
    # at p covers to its right; next_relevant_point inlines that test.

    def test_inside_quarter_circle(self):
        p, q = Point(0, 3), Point(1, 2)  # dist_sq 2 <= 2.25
        P = PointSet([p, q])
        for kappa in (1, 2):
            assert next_relevant_point(build(P, kappa), p, 2.25) == q

    def test_outside_quarter_circle(self):
        p, q = Point(0, 3), Point(2, 1)  # dist_sq 8 > 2.25
        P = PointSet([p, q])
        for kappa in (1, 2):
            assert next_relevant_point(build(P, kappa), p, 2.25) == p
