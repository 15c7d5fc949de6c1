import math
import tracemalloc

import numpy as np
import pytest

from pareto_kcenter import smallk
from pareto_kcenter.errors import (DegenerateSpan, InternalInvariantViolation,
                                   InvalidEpsilon)
from pareto_kcenter.exact import (SolveResult, solve_parametric,
                                  solve_via_matrix)
from pareto_kcenter.geom import Point, PointSet, dist_sq
from pareto_kcenter.instrument import counters
from pareto_kcenter.smallk import (approx_solve, bisector_extremes,
                                   gonzalez_2approx, solve_one_center)

from conftest import STAIR4, STAIR5, from_coords, random_pointset
from oracle import brute_opt, brute_psi_sq, brute_skyline

NO_ROWS = np.empty((0, 2))


class TestBisectorExtremes:
    def test_staircase_tie_breaks_to_smaller_x(self):
        p0, q0 = Point(0, 3), Point(3, 0)
        strip = np.array([(1.0, 2.0), (2.0, 1.0)])
        r_star, _ = bisector_extremes(strip, p0, q0)
        assert r_star == Point(1, 2)
        assert max(dist_sq(r_star, p0), dist_sq(r_star, q0)) == 8.0

    def test_empty_interior_falls_back_to_anchors(self):
        p0, q0 = Point(0, 3), Point(3, 0)
        r_star, r_prime = bisector_extremes(NO_ROWS, p0, q0)
        assert r_star == p0  # both anchors tie at d(p0, q0); smaller x wins
        assert r_prime in (p0, q0)

    def test_degenerate_anchors(self):
        with pytest.raises(DegenerateSpan):
            bisector_extremes(NO_ROWS, Point(1, 1), Point(1, 1))
        with pytest.raises(DegenerateSpan):  # the distance underflows to 0
            bisector_extremes(NO_ROWS, Point(0.0, 0.0),
                              Point(5e-324, -5e-324))

    def test_matches_exhaustive_scan(self, rng):
        for _ in range(120):
            P = random_pointset(rng, rng.randint(2, 60))
            sky = brute_skyline(P)
            if len(sky) < 2:
                continue
            p0, q0 = sky[0], sky[-1]
            x = P.xy[:, 0]
            strip = P.xy[(x >= p0.x) & (x <= q0.x)]
            r_star, r_prime = bisector_extremes(strip, p0, q0)
            mx = lambda p: max(dist_sq(p, p0), dist_sq(p, q0))
            mn = lambda p: min(dist_sq(p, p0), dist_sq(p, q0))
            assert r_star in sky.pts and r_prime in sky.pts
            assert mx(r_star) == min(mx(p) for p in sky)
            assert mn(r_prime) == max(mn(p) for p in sky)


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
            sky = brute_skyline(P)
            k = rng.randint(2, 8)
            centers = gonzalez_2approx(P, k).centers
            ref = [sky[0], sky[-1]]
            if ref[0] == ref[1]:
                ref = [sky[0]]
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
            assert list(centers) == ref


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
