import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from pareto_kcenter import exact
from pareto_kcenter.decision import decide_grouped, decide_materialized
from pareto_kcenter.errors import (InternalInvariantViolation, NotFound,
                                   RankOutOfRange)
from pareto_kcenter.exact import (SortedDistanceMatrix, matrix_select,
                                  multi_array_search, solve_parametric,
                                  solve_via_matrix)
from pareto_kcenter.geom import PointSet, dist_sq
from pareto_kcenter.grouped import build
from pareto_kcenter.instrument import counters
from pareto_kcenter.oracle import brute_opt, brute_psi_sq, brute_skyline
from pareto_kcenter.skyline import slow_skyline

from conftest import (RAW_POINTS, SCALES, STAIR3, STAIR4, random_pointset,
                      scaled_pointset)


def sky_of(coords):
    return slow_skyline(PointSet.from_coords(coords))


class TestMatrixSelect:
    def test_rows_increase_columns_decrease(self, rng):
        for _ in range(30):
            sky = brute_skyline(random_pointset(rng, rng.randint(2, 30)))
            D = SortedDistanceMatrix(sky)
            h = len(sky)
            for i in range(h):
                row = [D.entry(i, j) for j in range(h)]
                assert row == sorted(row)
            for j in range(h):
                col = [D.entry(i, j) for i in range(h)]
                assert col == sorted(col, reverse=True)

    def test_stair3_examples(self):
        D = SortedDistanceMatrix(sky_of(STAIR3))
        # signed squared entries: -8, -2, -2, 0, 0, 0, 2, 2, 8
        assert matrix_select(D, 1) == -8.0
        assert matrix_select(D, 7) == 2.0
        assert matrix_select(D, 9) == 8.0

    def test_single_point(self):
        D = SortedDistanceMatrix(sky_of([(1, 1)]))
        assert matrix_select(D, 1) == 0.0  # the -0.0 diagonal entry

    def test_rank_validation(self):
        D = SortedDistanceMatrix(sky_of(STAIR3))
        for bad in (0, 10, -1):
            with pytest.raises(RankOutOfRange):
                matrix_select(D, bad)

    def test_equals_flatten_and_sort_all_ranks(self, rng):
        for _ in range(25):
            sky = brute_skyline(random_pointset(rng, rng.randint(1, 60)))
            if len(sky) > 16:
                continue
            D = SortedDistanceMatrix(sky)
            h = len(sky)
            flat = sorted(D.entry(i, j) for i in range(h) for j in range(h))
            for rank in range(1, h * h + 1):
                assert matrix_select(D, rank) == flat[rank - 1]

    def test_touch_bound(self, rng):
        for _ in range(15):
            sky = brute_skyline(random_pointset(rng, rng.randint(1, 120),
                                                integer=False))
            h = len(sky)
            D = SortedDistanceMatrix(sky)
            for rank in sorted({1, h, h * h // 2, h * h}):
                counters.reset()
                matrix_select(D, rank)
                assert counters.get("matrix_entries_touched") <= 60 * h


class TestSolveViaMatrix:
    def test_staircase4(self):
        res = solve_via_matrix(PointSet.from_coords(STAIR4), 2)
        assert res.lambda_star_sq == 2.0
        assert res.lambda_star == math.sqrt(2.0)

    def test_k_at_least_h(self):
        P = PointSet.from_coords(STAIR4)
        res = solve_via_matrix(P, 4)
        assert res.lambda_star_sq == 0.0
        assert res.centers == slow_skyline(P).pts

    def test_matches_oracle(self, rng):
        for _ in range(60):
            P = random_pointset(rng, rng.randint(1, 70))
            k = rng.randint(1, 6)
            res = solve_via_matrix(P, k)
            assert res.lambda_star_sq == brute_opt(P, k)
            sky = brute_skyline(P)
            assert brute_psi_sq(sky, res.centers) == res.lambda_star_sq

    def test_empty_input_rejected(self):
        from pareto_kcenter.errors import EmptyInput
        for solver in (solve_via_matrix, solve_parametric):
            with pytest.raises(EmptyInput):
                solver(PointSet([]), 1)

    def test_infeasible_final_radius_raises(self, monkeypatch):
        # A search answering 0 yields an infeasible selected radius.
        monkeypatch.setattr(exact, "multi_array_search", lambda a, probe: 0.0)
        with pytest.raises(InternalInvariantViolation):
            solve_via_matrix(PointSet.from_coords(STAIR4), 2)

    def test_negative_and_mixed_sign_coordinates(self, rng):
        for _ in range(40):
            P = PointSet.from_coords(
                [(rng.randint(-40, 40), rng.randint(-40, 40))
                 for _ in range(rng.randint(1, 60))])
            k = rng.randint(1, 5)
            want = brute_opt(P, k)
            assert solve_via_matrix(P, k).lambda_star_sq == want
            assert solve_parametric(P, k).lambda_star_sq == want

    @pytest.mark.parametrize("coords", [
        [(0, 0)],                                  # single point
        [(0, 0), (0, 5), (0, -3)],                 # vertical line
        [(0, 0), (5, 0), (-3, 0)],                 # horizontal line
        [(i, -i) for i in range(-5, 6)],           # anti-diagonal staircase
        [(i, i) for i in range(6)],                # chain of dominations
    ])
    def test_degenerate_layouts(self, coords):
        P = PointSet.from_coords(coords)
        for k in (1, 2, 3):
            want = brute_opt(P, k)
            assert solve_via_matrix(P, k).lambda_star_sq == want
            assert solve_parametric(P, k).lambda_star_sq == want


class TestMultiArraySearch:
    def test_merged_order(self):
        assert multi_array_search([[1.0, 3.0, 5.0], [2.0, 4.0]],
                                  lambda v: v >= 3.5) == 4.0

    def test_singleton(self):
        assert multi_array_search([[7.0]], lambda v: True) == 7.0

    def test_all_false_raises(self):
        with pytest.raises(NotFound):
            multi_array_search([[1.0, 2.0]], lambda v: False)

    def test_matches_merge_and_scan(self, rng):
        for _ in range(150):
            arrays = [sorted(rng.randint(0, 60) + 0.0
                             for _ in range(rng.randint(0, 25)))
                      for _ in range(rng.randint(1, 6))]
            merged = sorted(v for arr in arrays for v in arr)
            if not merged:
                continue
            thr = rng.choice(merged) - rng.random()
            want = next((v for v in merged if v >= thr), None)
            if want is None:
                continue
            assert multi_array_search(arrays, lambda v: v >= thr) == want

    def test_probe_and_touch_counts(self, rng):
        for _ in range(40):
            t = rng.randint(1, 8)
            arrays = [sorted(rng.uniform(0, 1000)
                             for _ in range(rng.randint(1, 400)))
                      for _ in range(t)]
            total = sum(len(a) for a in arrays)
            thr = rng.uniform(0, 1000)
            counters.reset()
            try:
                multi_array_search(arrays, lambda v: v >= thr)
            except NotFound:
                continue
            log_total = math.log2(total + 2)
            assert counters.get("multiarray_probes") <= 6 * log_total + 8
            assert counters.get("multiarray_touches") <= 6 * t * log_total + 8


class TestSolveParametric:
    def test_staircase4(self):
        res = solve_parametric(PointSet.from_coords(STAIR4), 2)
        assert res.lambda_star_sq == 2.0

    def test_k_at_least_h(self):
        res = solve_parametric(PointSet.from_coords(STAIR4), 4)
        assert res.lambda_star_sq == 0.0

    def test_delegates_for_large_k(self):
        P = PointSet.from_coords(STAIR4)
        assert solve_parametric(P, 2).algorithm == "matrix"  # k^4 >= n

    def test_agrees_with_matrix_and_oracle(self, rng):
        for _ in range(80):
            P = random_pointset(rng, rng.randint(1, 90))
            k = rng.randint(1, 6)
            a = solve_via_matrix(P, k)
            b = solve_parametric(P, k)
            assert a.lambda_star_sq == b.lambda_star_sq == brute_opt(P, k)
            sky = brute_skyline(P)
            assert brute_psi_sq(sky, b.centers) == b.lambda_star_sq

    def test_deep_path_multiple_groups(self, rng):
        # large n, small k: the non-delegated route with several groups
        for seed in range(4):
            local = random.Random(seed)
            n = local.randint(2500, 3500)
            P = PointSet.from_coords(
                [(local.uniform(0, 1000), local.uniform(0, 1000))
                 for _ in range(n)])
            for k in (2, 3):
                b = solve_parametric(P, k)
                assert b.algorithm == "parametric"
                a = solve_via_matrix(P, k)
                assert a.lambda_star_sq == b.lambda_star_sq
                sky = brute_skyline(P)
                assert brute_psi_sq(sky, b.centers) == b.lambda_star_sq

    def test_infeasible_final_radius_raises(self, monkeypatch):
        # Every search answering 0 yields an infeasible recovered radius.
        monkeypatch.setattr(exact, "multi_array_search", lambda a, probe: 0.0)
        P = PointSet.from_coords([(i, 19 - i) for i in range(20)])
        with pytest.raises(InternalInvariantViolation):
            solve_parametric(P, 2)

    def test_certificate_pair(self, rng):
        for _ in range(40):
            P = random_pointset(rng, rng.randint(2, 60))
            k = rng.randint(1, 4)
            res = solve_parametric(P, k)
            sky = brute_skyline(P)
            assert decide_materialized(sky, k, res.lambda_star_sq).feasible
            radii = sorted({dist_sq(a, b) for a, b
                            in itertools.combinations(sky, 2)} | {0.0})
            below = [r for r in radii if r < res.lambda_star_sq]
            if below:
                assert not decide_materialized(sky, k, below[-1]).feasible


@settings(max_examples=120, deadline=None)
@given(SCALES, RAW_POINTS, st.integers(1, 4))
def test_solvers_and_deciders_agree_at_every_scale(scale, raw, k):
    P = scaled_pointset(scale, raw)
    want = brute_opt(P, k)
    assert solve_via_matrix(P, k).lambda_star_sq == want
    assert solve_parametric(P, k).lambda_star_sq == want
    sky = brute_skyline(P)
    radii = [want]
    below = [dist_sq(a, b) for a, b in itertools.combinations(sky, 2)
             if dist_sq(a, b) < want]
    if below:
        radii.append(max(below))
    for kappa in {1, 3, len(P)}:
        G = build(P, kappa)
        for lam_sq in radii:
            assert decide_grouped(G, k, lam_sq) == decide_materialized(sky, k,
                                                                       lam_sq)
