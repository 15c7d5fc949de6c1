import pytest

from pareto_kcenter.errors import RankOutOfRange
from pareto_kcenter.skyline import slow_skyline

from conftest import STAIR3, STAIR4, from_coords, random_pointset
from oracle import (InstanceTooLarge, brute_matrix_rank, brute_opt,
                    brute_psi_sq, brute_skyline)


class TestBruteSkyline:
    def test_singleton(self):
        assert brute_skyline(from_coords([(0, 0)])).pts == \
            slow_skyline(from_coords([(0, 0)])).pts

    def test_shared_x(self):
        sky = brute_skyline(from_coords([(1, 1), (1, 2)]))
        assert [(p.x, p.y) for p in sky] == [(1, 2)]

    def test_cross_check_with_slow(self, rng):
        for _ in range(80):
            P = random_pointset(rng, rng.randint(1, 60))
            assert brute_skyline(P).pts == slow_skyline(P).pts


class TestBruteOpt:
    def test_stair3_one_center(self):
        assert brute_opt(from_coords(STAIR3), 1) == 2.0

    def test_k_at_least_h(self):
        assert brute_opt(from_coords(STAIR3), 5) == 0.0

    def test_stair4_two_centers(self):
        assert brute_opt(from_coords(STAIR4), 2) == 2.0

    def test_methods_agree(self, rng):
        for _ in range(50):
            P = random_pointset(rng, rng.randint(1, 40))
            if len(brute_skyline(P)) > 20:
                continue
            for k in (1, 2, 3):
                assert brute_opt(P, k, "candidates") == \
                    brute_opt(P, k, "subsets")

    def test_size_guards(self):
        P = from_coords([(i, 1000 - i) for i in range(700)])
        with pytest.raises(InstanceTooLarge):
            brute_opt(P, 2, "candidates")
        with pytest.raises(InstanceTooLarge):
            brute_opt(from_coords([(i, 30 - i) for i in range(30)]),
                      2, "subsets")


class TestBruteMatrixRank:
    def test_single_entry(self):
        sky = slow_skyline(from_coords([(1, 1)]))
        assert brute_matrix_rank(sky, 1) == 0.0  # the -0.0 diagonal

    def test_stair3_extreme_and_middle_ranks(self):
        sky = slow_skyline(from_coords(STAIR3))
        assert brute_matrix_rank(sky, 9) == 8.0  # squared diameter (2*sqrt2)^2
        assert brute_matrix_rank(sky, 5) == 0.0  # zeros occupy ranks 4..6
        assert brute_matrix_rank(sky, 4) == 0.0
        assert brute_matrix_rank(sky, 6) == 0.0

    def test_rank_validation(self):
        sky = slow_skyline(from_coords(STAIR3))
        with pytest.raises(RankOutOfRange):
            brute_matrix_rank(sky, 0)
        with pytest.raises(RankOutOfRange):
            brute_matrix_rank(sky, 10)


class TestBrutePsi:
    def test_covering_radius(self):
        sky = slow_skyline(from_coords(STAIR4))
        assert brute_psi_sq(sky, [sky[1], sky[3]]) == 2.0
        assert brute_psi_sq(sky, sky.pts) == 0.0
