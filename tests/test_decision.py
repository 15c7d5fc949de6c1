import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pareto_kcenter.decision import (DecisionOutcome, decide_grouped,
                                     decide_materialized)
from pareto_kcenter.geom import Point, PointSet, dist_sq
from pareto_kcenter.grouped import build
from pareto_kcenter.instrument import counters
from pareto_kcenter.skyline import slow_skyline

import search_reference
from conftest import (RAW_POINTS, SCALES, STAIR4, from_coords, random_pointset,
                      scaled_pointset)
from oracle import brute_psi_sq, brute_skyline


def stair4_sky():
    return slow_skyline(from_coords(STAIR4))


def radii_with_offsets(sky):
    base = {0.0}
    for a, b in itertools.combinations(sky, 2):
        base.add(dist_sq(a, b))
    out = sorted(base)
    return out + [r + 0.25 for r in out[:6]] + [max(out) * 0.99]


class TestDecideMaterialized:
    def test_two_centers_on_staircase(self):
        out = decide_materialized(stair4_sky(), 2, 2.0)
        assert out.feasible
        assert [(c.x, c.y) for c in out.centers] == [(1, 2), (3, 0)]

    def test_one_center_too_small(self):
        assert not decide_materialized(stair4_sky(), 1, 4.0).feasible

    def test_zero_radius_with_k_equal_h(self):
        sky = stair4_sky()
        out = decide_materialized(sky, 4, 0.0)
        assert out.feasible
        assert out.centers == sky.pts

    def test_diameter_radius_single_center(self):
        sky = stair4_sky()
        diam = dist_sq(sky[0], sky[-1])
        assert decide_materialized(sky, 1, diam).feasible

    def test_feasible_is_self_certifying(self, rng):
        for _ in range(80):
            P = random_pointset(rng, rng.randint(1, 50))
            sky = brute_skyline(P)
            for lam_sq in radii_with_offsets(sky)[::3]:
                k = rng.randint(1, 5)
                out = decide_materialized(sky, k, lam_sq)
                if out.feasible:
                    assert len(out.centers) <= k
                    assert brute_psi_sq(sky, out.centers) <= lam_sq

    def test_monotone_in_radius_and_k(self, rng):
        for _ in range(60):
            P = random_pointset(rng, rng.randint(1, 40))
            sky = brute_skyline(P)
            radii = radii_with_offsets(sky)
            k = rng.randint(1, 4)
            verdicts = [decide_materialized(sky, k, r).feasible
                        for r in sorted(radii)]
            assert verdicts == sorted(verdicts)  # False... then True
            for r in radii[::4]:
                if decide_materialized(sky, k, r).feasible:
                    assert decide_materialized(sky, k + 1, r).feasible

    def test_prefix_coverage_is_greedy_optimal(self, rng):
        # r_a must be the farthest skyline point whose prefix a disks cover
        for _ in range(30):
            P = random_pointset(rng, rng.randint(2, 9), coord=12)
            sky = brute_skyline(P)
            h = len(sky)
            for lam_sq in radii_with_offsets(sky)[::2]:
                out = decide_materialized(sky, h, lam_sq)
                for a, (_, _, r_a) in enumerate(out.clusters, start=1):
                    end = sky.pts.index(r_a)

                    def coverable(prefix_len, disks):
                        pts = sky.pts[:prefix_len]
                        return any(
                            all(min(dist_sq(p, c) for c in chosen) <= lam_sq
                                for p in pts)
                            for chosen in itertools.combinations(pts, min(disks, prefix_len)))

                    assert coverable(end + 1, a)
                    if end + 1 < h:
                        assert not coverable(end + 2, a)


class TestDecideGrouped:
    def test_matches_materialized_exactly(self, rng):
        for _ in range(60):
            P = random_pointset(rng, rng.randint(1, 50))
            sky = brute_skyline(P)
            k = rng.randint(1, 5)
            builders = [build(P, kappa)
                        for kappa in {1, 2, k, len(P)}]
            for lam_sq in radii_with_offsets(sky):
                want = decide_materialized(sky, k, lam_sq)
                for G in builders:
                    got = decide_grouped(G, k, lam_sq)
                    assert got.feasible == want.feasible
                    assert got.centers == want.centers
                    assert got.clusters == want.clusters

    def test_radius_above_diameter_matches_materialized(self):
        P = from_coords(STAIR4)
        G = build(P, 2)
        for lam_sq in (18.0, 1e4, 1e300):
            out = decide_grouped(G, 1, lam_sq)
            assert out == decide_materialized(stair4_sky(), 1, lam_sq)
            assert out.centers == (G.q0,)

    def test_oracle_threshold(self, rng):
        # feasible exactly from the optimal candidate upward
        for _ in range(40):
            P = random_pointset(rng, rng.randint(2, 60))
            sky = brute_skyline(P)
            k = rng.randint(1, 4)
            radii = sorted({dist_sq(a, b)
                            for a, b in itertools.combinations(sky, 2)} | {0.0})
            G = build(P, max(1, k))
            opt = next(r for r in radii
                       if decide_materialized(sky, k, r).feasible)
            assert decide_grouped(G, k, opt).feasible
            below = [r for r in radii if r < opt]
            if below:
                assert not decide_grouped(G, k, below[-1]).feasible

    def test_k_validation(self):
        G = build(from_coords(STAIR4), 2)
        with pytest.raises(ValueError):
            decide_grouped(G, 0, 1.0)
        with pytest.raises(ValueError):
            decide_grouped(G, 1, -1.0)


@pytest.mark.parametrize("lam_sq", [-1.0, math.nan])
def test_negative_or_nan_radius_rejected(lam_sq):
    P = from_coords(STAIR4)
    with pytest.raises(ValueError):
        decide_materialized(slow_skyline(P), 2, lam_sq)
    with pytest.raises(ValueError):
        decide_grouped(build(P, 2), 2, lam_sq)


@settings(max_examples=150, deadline=None)
@given(SCALES, RAW_POINTS, st.integers(1, 5))
def test_galloping_equals_linear_scan_at_every_scale(scale, raw, k):
    sky = slow_skyline(scaled_pointset(scale, raw))
    radii = {0.0}
    for a, b in itertools.combinations(sky, 2):
        d = dist_sq(a, b)
        radii |= {d, math.nextafter(d, -math.inf), math.nextafter(d, math.inf)}
    for lam_sq in sorted(radii):
        if lam_sq >= 0:
            want = search_reference.linear_decide(sky, k, lam_sq)
            counters.reset()
            assert decide_materialized(sky, k, lam_sq) == want
            counted = counters.snapshot()
            # The searches' call: the same verdict and counts, no centers.
            counters.reset()
            assert (decide_materialized(sky, k, lam_sq, verdict_only=True)
                    == DecisionOutcome(want.feasible))
            assert counters.snapshot() == counted


def test_galloping_distance_bound():
    h = 4096
    P = PointSet(np.column_stack([np.arange(h) * 1.5,
                                  (h - np.arange(h)) * 0.75]))
    sky = slow_skyline(P)
    assert len(sky) == h
    bound_per_center = 2 * (2 * math.ceil(math.log2(h + 1)) + 3)
    for k in (1, 2, 8, 64):
        for j in (1, 7, 100, 1000, h - 1):
            for lam_sq in (0.0, dist_sq(sky[0], sky[j])):
                counters.reset()
                out = decide_materialized(sky, k, lam_sq)
                assert counters.get("dist_evals") <= k * bound_per_center
                assert out == search_reference.linear_decide(sky, k, lam_sq)
