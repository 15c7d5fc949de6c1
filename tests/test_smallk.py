import itertools
import math
import tracemalloc

import pytest
from hypothesis import example, given, settings

from pareto_kcenter import smallk
from pareto_kcenter.errors import (DegenerateSpan, InternalInvariantViolation,
                                   InvalidEpsilon)
from pareto_kcenter.exact import (SolveResult, solve_parametric,
                                  solve_via_matrix)
from pareto_kcenter.geom import Point, PointSet, SkylineArray, dist_sq
from pareto_kcenter.instrument import counters
from pareto_kcenter.smallk import (approx_solve, bisector_extremes,
                                   gonzalez_2approx, solve_one_center)

from conftest import (RAW_POINTS, SCALE_VALUES, STAIR4, STAIR5, from_coords,
                      random_pointset, scaled_pointset)
from oracle import brute_opt, brute_psi_sq, brute_skyline


def stair(*coords) -> SkylineArray:
    return SkylineArray([Point(x, y) for x, y in coords])


def check_extremes(sky, i, j, exact_ties):
    """bisector_extremes(sky, i, j) against a scan of sky[i..j]: both
    values always, and the indices, ties toward smaller x, when
    `exact_ties` (integer grids, where equal values are equal
    distances)."""
    larger = lambda t: max(dist_sq(sky[t], sky[i]), dist_sq(sky[t], sky[j]))
    smaller = lambda t: min(dist_sq(sky[t], sky[i]), dist_sq(sky[t], sky[j]))
    (r_star, far), (r_prime, near) = bisector_extremes(sky, i, j)
    assert i <= r_star <= j and i <= r_prime <= j
    assert (far, near) == (larger(r_star), smaller(r_prime))
    assert far == min(map(larger, range(i, j + 1)))
    assert near == max(map(smaller, range(i, j + 1)))
    if exact_ties:  # min and max keep the first, the smallest x
        assert r_star == min(range(i, j + 1), key=larger)
        assert r_prime == max(range(i, j + 1), key=smaller)


# At 1e-170 the two points' squared distance underflows to 0.
UNDERFLOW_RAW = [(0, 1, 0, 0), (1, 0, 0, 0)]
# The middle point is on the bisector of the ends at every scale.
ON_BISECTOR_RAW = [(0, 2, 0, 0), (1, 1, 0, 0), (2, 0, 0, 0)]


class TestBisectorExtremes:
    def test_staircase_tie_breaks_to_smaller_x(self):
        S = stair((0, 3), (1, 2), (2, 1), (3, 0))
        # S[1] and S[2] tie on both extremes: 8 and 2
        assert bisector_extremes(S, 0, 3) == ((1, 8.0), (1, 2.0))
        # S[1] is on the bisector of S[0] and S[2]: it is both extremes
        assert bisector_extremes(S, 0, 2) == ((1, 2.0), (1, 2.0))

    def test_empty_interior_falls_back_to_anchors(self):
        S = stair((0, 3), (1, 2), (3, 0))
        for i in (0, 1):  # adjacent anchors: both tie at their distance
            d = dist_sq(S[i], S[i + 1])
            assert bisector_extremes(S, i, i + 1) == ((i, d), (i, 0.0))

    def test_degenerate_anchors(self):
        S = stair((1, 1))
        with pytest.raises(DegenerateSpan):
            bisector_extremes(S, 0, 0)
        S = stair((0.0, 0.0), (5e-324, -5e-324))
        assert dist_sq(S[0], S[1]) == 0.0  # the distance underflows
        with pytest.raises(DegenerateSpan):
            bisector_extremes(S, 0, 1)

    def test_matches_exhaustive_scan(self, rng):
        # every index pair, so every slab gonzalez can split, not only
        # the skyline's two ends
        for _ in range(120):
            sky = brute_skyline(random_pointset(rng, rng.randint(2, 60)))
            for i, j in itertools.combinations(range(len(sky)), 2):
                check_extremes(sky, i, j, exact_ties=True)

    @pytest.mark.parametrize("scale", SCALE_VALUES)
    @settings(max_examples=25, deadline=None)
    @given(raw=RAW_POINTS)
    def test_values_match_scan_at_every_scale(self, scale, raw):
        sky = brute_skyline(scaled_pointset(scale, raw))
        for i, j in itertools.combinations(range(len(sky)), 2):
            if dist_sq(sky[i], sky[j]) > 0.0:
                check_extremes(sky, i, j, exact_ties=False)


class TestSolveOneCenter:
    def test_known_instance(self):
        P = from_coords([(0, 3), (1, 2), (3, 0), (0, 0), (1, 1)])
        res = solve_one_center(P)
        assert res.centers == (Point(1, 2),)
        assert res.lambda_star_sq == 8.0

    def test_single_point(self):
        res = solve_one_center(from_coords([(4, 4)]))
        assert res.lambda_star_sq == 0.0

    def test_extremes_whose_distance_underflows(self):
        # Two points a subnormal step apart: the squared distance is 0.0,
        # so the bisector scan has no point right of the bisector.
        p, q = Point(0.0, 0.0), Point(5e-324, -5e-324)
        assert dist_sq(p, q) == 0.0
        res = solve_one_center(PointSet([p, q]))
        assert (res.lambda_star_sq, res.centers) == (0.0, (p,))
        res = gonzalez_2approx(PointSet([p, q]), 2)
        assert (res.centers, res.lambda_star_sq) == ((p,), 0.0)

    def test_matches_exact_solvers(self, rng):
        for _ in range(120):
            P = random_pointset(rng, rng.randint(1, 70))
            res = solve_one_center(P)
            assert res.lambda_star_sq == solve_via_matrix(P, 1).lambda_star_sq
            assert res.lambda_star_sq == solve_parametric(P, 1).lambda_star_sq

    @pytest.mark.parametrize("scale", SCALE_VALUES)
    @settings(max_examples=25, deadline=None)
    @given(raw=RAW_POINTS)
    @example(raw=UNDERFLOW_RAW)
    @example(raw=ON_BISECTOR_RAW)
    def test_matches_oracle_at_every_scale(self, scale, raw):
        P = scaled_pointset(scale, raw)
        res = solve_one_center(P)
        sky = brute_skyline(P)
        assert res.centers[0] in sky.pts
        assert res.lambda_star_sq.hex() == brute_opt(P, 1).hex()
        assert brute_psi_sq(sky, res.centers) == res.lambda_star_sq

    def test_linear_distance_evaluation_budget(self, rng):
        for _ in range(60):
            n = rng.randint(16, 200)
            P = random_pointset(rng, n, coord=500)
            counters.reset()
            solve_one_center(P)
            assert counters.get("dist_evals") <= 3 * len(P)


class TestGonzalez:
    def test_spec_trace_on_staircase5(self):
        res = gonzalez_2approx(from_coords(STAIR5), 3)
        assert [(c.x, c.y) for c in res.centers] == [(0, 4), (4, 0), (2, 2)]
        assert res.lambda_star_sq == 2.0

    def test_k_at_least_h_reaches_zero(self):
        res = gonzalez_2approx(from_coords(STAIR4), 9)
        assert res.lambda_star_sq == 0.0
        assert len(res.centers) == 4

    def test_two_approximation_and_reported_psi(self, rng):
        for _ in range(120):
            P = random_pointset(rng, rng.randint(1, 70))
            k = rng.randint(1, 7)
            res = gonzalez_2approx(P, k)
            sky = brute_skyline(P)
            assert len(res.centers) <= k
            assert all(c in sky.pts for c in res.centers)
            assert brute_psi_sq(sky, res.centers) == res.lambda_star_sq
            assert res.lambda_star_sq <= 4.0 * brute_opt(P, k)

    def test_monotone_improvement_in_k(self, rng):
        for _ in range(40):
            P = random_pointset(rng, rng.randint(2, 50))
            values = [gonzalez_2approx(P, k).lambda_star_sq
                      for k in range(2, 7)]
            assert values == sorted(values, reverse=True)

    def test_matches_farthest_first_reference(self, rng):
        # slab bookkeeping must reproduce the plain farthest-first
        # traversal point for point (ties toward smaller x)
        for _ in range(60):
            P = random_pointset(rng, rng.randint(2, 60))
            k = rng.randint(2, 8)
            centers = gonzalez_2approx(P, k).centers
            assert list(centers) == farthest_first(brute_skyline(P), k)

    @pytest.mark.parametrize("scale", SCALE_VALUES)
    @settings(max_examples=25, deadline=None)
    @given(raw=RAW_POINTS)
    @example(raw=UNDERFLOW_RAW)
    @example(raw=ON_BISECTOR_RAW)
    def test_is_farthest_first_at_every_scale(self, scale, raw):
        # Off integer grids, distinct distances can round equal, so ties
        # may break either way: each center must be a farthest point.
        P = scaled_pointset(scale, raw)
        sky = brute_skyline(P)
        for k in range(2, 7):
            res = gonzalez_2approx(P, k)
            centers = list(res.centers)
            seeds = farthest_first(sky, 2)
            assert len(centers) <= k and centers[:2] == seeds
            for m in range(len(seeds), k + 1):
                far = brute_psi_sq(sky, centers[:m])
                if m == len(centers):
                    assert m == k or far == 0.0
                    break
                assert centers[m] in sky.pts and far > 0.0
                assert min(dist_sq(centers[m], c) for c in centers[:m]) == far
            assert brute_psi_sq(sky, centers) == res.lambda_star_sq


def farthest_first(sky, k):
    """The plain farthest-first traversal from both skyline ends, k >= 2:
    add the point farthest from its nearest center (ties toward smaller
    x) until k are chosen or every point is at distance 0 from one."""
    ref = [sky[0]]
    if dist_sq(sky[0], sky[-1]) > 0.0:  # else every point is at 0
        ref.append(sky[-1])
    while len(ref) < k:
        best, best_key = None, None
        for p in sky:
            d = min(dist_sq(p, c) for c in ref)
            key = (-d, p.x)
            if best_key is None or key < best_key:
                best, best_key = p, key
        if min(dist_sq(best, c) for c in ref) == 0.0:
            break
        ref.append(best)
    return ref


class TestApproxSolve:
    def test_epsilon_validation(self):
        P = from_coords(STAIR4)
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(InvalidEpsilon):
                approx_solve(P, 2, bad)

    def test_exact_when_gonzalez_is_exact(self):
        P = from_coords([(0, 1), (1, 0)])
        res = approx_solve(P, 2, 0.5)
        assert res.lambda_star_sq == 0.0

    def test_staircase5_tight(self):
        P = from_coords(STAIR5)
        opt = brute_opt(P, 2)  # exhaustive over all center pairs
        res = approx_solve(P, 2, 0.1)
        assert res.lambda_star_sq <= 1.21 * opt

    def test_quality_bound(self, rng):
        for _ in range(60):
            P = random_pointset(rng, rng.randint(1, 60))
            k = rng.randint(1, 5)
            opt = brute_opt(P, k)
            sky = brute_skyline(P)
            for eps in (0.5, 0.1, 0.01):
                res = approx_solve(P, k, eps)
                assert len(res.centers) <= k
                assert brute_psi_sq(sky, res.centers) <= res.lambda_star_sq
                assert res.lambda_star_sq <= (1.0 + eps) ** 2 * opt

    def test_decision_call_budget(self, rng):
        for eps in (0.5, 0.1, 0.01):
            P = random_pointset(rng, 120)
            k = 3
            counters.reset()
            approx_solve(P, k, eps)
            budget = math.ceil(math.log2(2.0 / eps)) + 2
            # decide calls made by the grid search plus the final rerun;
            # gonzalez makes none
            assert counters.get("decide_calls") <= budget + 1

    def test_radius_grid_not_materialized(self):
        # The grid has 2/eps + 1 radii; the search reads about log2 of them.
        P = from_coords([(i, 199 - i) for i in range(200)])
        tracemalloc.start()
        try:
            res = approx_solve(P, 3, 1e-5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert res.lambda_star_sq > 0.0
        assert brute_psi_sq(brute_skyline(P), res.centers) <= res.lambda_star_sq

    def test_infeasible_final_radius_raises(self, monkeypatch):
        # A bracket far below the optimum leaves no feasible grid radius.
        monkeypatch.setattr(smallk, "gonzalez_2approx",
                            lambda P, k: SolveResult(0.01, (Point(0, 4),),
                                                     "gonzalez"))
        with pytest.raises(InternalInvariantViolation):
            approx_solve(from_coords(STAIR5), 2, 0.5)
