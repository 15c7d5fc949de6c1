import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pareto_kcenter import exact
from pareto_kcenter.cli import _digest, solver
from pareto_kcenter.decision import decide_grouped, decide_materialized
from pareto_kcenter.errors import (InternalInvariantViolation, NotFound,
                                   RankOutOfRange)
from pareto_kcenter.exact import (SortedDistanceMatrix, matrix_select,
                                  multi_array_search, solve_by_rows,
                                  solve_parametric, solve_via_matrix)
from pareto_kcenter.geom import PointSet, dist_sq
from pareto_kcenter.grouped import build, next_relevant_point
from pareto_kcenter.instances import InstanceSpec, generate
from pareto_kcenter.instrument import counters
from pareto_kcenter.skyline import slow_skyline

import search_reference
from conftest import (RAW_POINTS, SCALES, SCALE_VALUES, STAIR3, STAIR4,
                      fixed_skyline_fill, from_coords, random_pointset,
                      scaled_pointset)
from oracle import brute_opt, brute_psi_sq, brute_skyline


def sky_of(coords):
    return slow_skyline(from_coords(coords))


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
        res = solve_via_matrix(from_coords(STAIR4), 2)
        assert res.lambda_star_sq == 2.0
        assert res.lambda_star == math.sqrt(2.0)

    def test_k_at_least_h(self):
        P = from_coords(STAIR4)
        res = solve_via_matrix(P, 4)
        assert res.lambda_star_sq == 0.0
        assert res.centers == slow_skyline(P).pts

    def test_k_at_least_h_ends_with_the_certifying_decision(self):
        # Both points are on the skyline, but their squared distance
        # underflows to 0: the decision at radius 0 covers them with one
        # center, and both routes return it.
        P = PointSet(np.array([(0.0, 0.0), (5e-324, -5e-324)]))
        assert len(slow_skyline(P)) == 2
        counters.reset()
        a = solve_via_matrix(P, 2)
        assert counters.get("decide_calls") == 1
        b = solve_parametric(P, 2)
        assert a.lambda_star_sq == b.lambda_star_sq == 0.0
        assert len(a.centers) == 1
        assert _digest(a.centers, 0.0) == _digest(b.centers, 0.0)

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
        monkeypatch.setattr(exact, "multi_array_search",
                            lambda row_value, lo, hi, probe: 0.0)
        with pytest.raises(InternalInvariantViolation):
            solve_via_matrix(from_coords(STAIR4), 2)

    def test_negative_and_mixed_sign_coordinates(self, rng):
        for _ in range(40):
            P = from_coords(
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
        P = from_coords(coords)
        for k in (1, 2, 3):
            want = brute_opt(P, k)
            assert solve_via_matrix(P, k).lambda_star_sq == want
            assert solve_parametric(P, k).lambda_star_sq == want


class TestSolveByRows:
    def test_staircase4(self):
        res = solve_by_rows(from_coords(STAIR4), 2)
        assert (res.lambda_star_sq, res.algorithm) == (2.0, "rows")
        assert res.centers == solve_via_matrix(from_coords(STAIR4), 2).centers

    def test_k_at_least_h(self):
        P = from_coords(STAIR4)
        for k in (4, 5):
            counters.reset()
            res = solve_by_rows(P, k)
            assert counters.get("decide_calls") == 1  # the certificate
            assert res.lambda_star_sq == 0.0
            assert res.centers == slow_skyline(P).pts

    def test_squared_distance_underflow(self):
        # Two skyline points whose squared distance underflows to 0: one
        # center covers both, at k = 1 and at k >= h alike.
        P = PointSet(np.array([(0.0, 0.0), (5e-324, -5e-324)]))
        for k in (1, 2, 3):
            res = solve_by_rows(P, k)
            assert res.lambda_star_sq == 0.0 and len(res.centers) == 1
            assert res.centers == solve_via_matrix(P, k).centers

    def test_empty_input_rejected(self):
        from pareto_kcenter.errors import EmptyInput
        with pytest.raises(EmptyInput):
            solve_by_rows(PointSet([]), 1)
        with pytest.raises(ValueError):
            solve_by_rows(from_coords(STAIR4), 0)

    def test_infeasible_final_radius_raises(self, monkeypatch):
        monkeypatch.setattr(exact, "_row_greedy", lambda xs, ys, k, decide: 0.0)
        with pytest.raises(InternalInvariantViolation):
            solve_by_rows(from_coords(STAIR4), 2)

    def test_no_feasible_entry_raises(self):
        S = sky_of(STAIR4)
        with pytest.raises(InternalInvariantViolation):
            exact._row_greedy(S.xs, S.ys, 2, lambda v: False)

    def test_decisions_are_memoized_in_a_bracket(self):
        # No value is decided twice, and none outside the bracket of the
        # values decided before it.
        P = generate(InstanceSpec("staircase", 500, seed=3))
        S = slow_skyline(P)
        for k in (1, 3, 40, 250, 498, 499):
            seen = []

            def decide(v):
                below = [u for u, ok in seen if not ok]
                above = [u for u, ok in seen if ok]
                assert max(below, default=-1.0) < v < min(above,
                                                          default=math.inf)
                seen.append((v, decide_materialized(S, k, v).feasible))
                return seen[-1][1]

            lam = exact._row_greedy(S.xs, S.ys, k, decide)
            assert lam == min(u for u, ok in seen if ok)
            assert lam == solve_via_matrix(P, k).lambda_star_sq

    def test_decision_calls_per_solve(self):
        # The row route's decisions, the certificate included, stay within
        # 4 log2(h) + 4 at every k, up to k = h - 1 (measured: 8-28 here,
        # at most 3.4 log2(h)); the matrix route's search takes 11-25.
        for P in (generate(InstanceSpec("staircase", 3000, seed=11)),
                  generate(InstanceSpec("circle-quadrant", 3000, seed=12)),
                  fixed_skyline_fill(300, 6000, seed=13)):
            h = len(slow_skyline(P))
            for k in (1, 2, 8, 64, h // 10, h // 2, h - 2, h - 1):
                counters.reset()
                res = solve_by_rows(P, k)
                calls = counters.get("decide_calls")
                assert calls <= 4 * math.log2(h) + 4, (h, k, calls)
                assert res.lambda_star_sq == solve_via_matrix(P, k).lambda_star_sq


def search_lists(arrays, probe):
    """multi_array_search over sorted lists, packed as the rows of a
    matrix padded with +inf past each list's end."""
    width = max(1, max(map(len, arrays)))
    M = np.full((len(arrays), width), np.inf)
    for r, arr in enumerate(arrays):
        M[r, :len(arr)] = arr
    return multi_array_search(lambda rows, js: M[rows, js],
                              np.zeros(len(arrays), dtype=np.int64),
                              np.array([len(arr) for arr in arrays]), probe)


class TestMultiArraySearch:
    def test_merged_order(self):
        assert search_lists([[1.0, 3.0, 5.0], [2.0, 4.0]],
                            lambda v: v >= 3.5) == 4.0

    def test_singleton(self):
        assert search_lists([[7.0]], lambda v: True) == 7.0

    def test_all_false_raises(self):
        with pytest.raises(NotFound):
            search_lists([[1.0, 2.0]], lambda v: False)

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
            assert search_lists(arrays, lambda v: v >= thr) == want

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
                search_lists(arrays, lambda v: v >= thr)
            except NotFound:
                continue
            log_total = math.log2(total + 2)
            assert counters.get("multiarray_probes") <= 6 * log_total + 8
            assert counters.get("multiarray_touches") <= 6 * t * log_total + 8


class TestSolveParametric:
    def test_staircase4(self):
        res = solve_parametric(from_coords(STAIR4), 2)
        assert res.lambda_star_sq == 2.0

    def test_k_at_least_h(self):
        res = solve_parametric(from_coords(STAIR4), 4)
        assert res.lambda_star_sq == 0.0

    def test_only_auto_chooses_the_route(self):
        # auto takes the row route, with the same digest as all three
        # routes; each solver runs its own route at every k.
        for n in (16, 17):
            P = from_coords([(i, n - 1 - i) for i in range(n)])
            res = solver("auto", [2])[0](P, 2)
            assert res.algorithm == "rows"
            assert len({_digest(r.centers, r.lambda_star_sq) for r in
                        (res, solve_via_matrix(P, 2), solve_parametric(P, 2),
                         solve_by_rows(P, 2))}) == 1
            for k in range(1, n + 2):
                assert solve_parametric(P, k).algorithm == "parametric"
                assert solve_via_matrix(P, k).algorithm == "matrix"
                assert solve_by_rows(P, k).algorithm == "rows"

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
        # large n, small k: the parametric route with several groups
        for seed in range(4):
            local = random.Random(seed)
            n = local.randint(2500, 3500)
            P = from_coords(
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
        monkeypatch.setattr(exact, "multi_array_search",
                            lambda row_value, lo, hi, probe: 0.0)
        P = from_coords([(i, 19 - i) for i in range(20)])
        with pytest.raises(InternalInvariantViolation):
            solve_parametric(P, 2)

    def test_counters_track_the_paper_bound(self):
        """The paper's O(n log k + n log log n): the build's comparisons
        plus the binary-search probes, over n (log2 k + log2 log2 n),
        stay within a factor 1.5 of one constant, on staircases (h = n)
        and on 64-point skylines hidden in fill."""
        fit = 3.0  # minimax fit of the ratios measured here, 2.53-3.53
        ratios = []
        for e in range(14, 19):
            n = 2 ** e
            for P in (generate(InstanceSpec("staircase", n, seed=900 + e)),
                      fixed_skyline_fill(64, n, seed=8000 + e)):
                for k in (2, 4, 8):
                    counters.reset()
                    solve_parametric(P, k)
                    ops = (counters.get("skyline_comparisons")
                           + counters.get("binary_search_probes"))
                    ratios.append(ops / (n * (math.log2(k)
                                              + math.log2(math.log2(n)))))
        assert all(fit / 1.5 <= r <= fit * 1.5 for r in ratios), ratios

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


@pytest.mark.parametrize("scale", SCALE_VALUES)
@settings(max_examples=25, deadline=None)
@given(raw=RAW_POINTS)
def test_parametric_route_equals_oracle_for_every_k(scale, raw):
    # k runs past h and to n+1, where kappa is clamped to n.
    P = scaled_pointset(scale, raw)
    sky = brute_skyline(P)
    for k in range(1, len(P) + 2):
        res = solve_parametric(P, k)
        assert res.algorithm == "parametric"
        assert res.lambda_star_sq.hex() == brute_opt(P, k).hex()
        assert brute_psi_sq(sky, res.centers) == res.lambda_star_sq


# Ties in x and in y, a duplicate and a one-ulp neighbour.
TIED_RAW = [(0, 3, 0, 0), (0, 2, 0, 0), (1, 3, 0, 0), (1, 3, 1, 0),
            (2, 2, 0, 0), (2, 1, 0, 0), (3, 1, 0, 0), (3, 0, 0, 0),
            (3, 0, 0, 0), (5, -1, 0, 0)]


@pytest.mark.parametrize("scale", SCALE_VALUES)
@settings(max_examples=25, deadline=None)
@given(raw=RAW_POINTS)
# At 1e-170 the two points' squared distance underflows to 0.
@example(raw=[(0, 1, 0, 0), (1, 0, 0, 0)])
@example(raw=TIED_RAW)
def test_row_route_equals_oracle_for_every_k(scale, raw):
    # k runs from 1 through h - 1 and h to n + 1.
    P = scaled_pointset(scale, raw)
    for k in range(1, len(P) + 2):
        res = solve_by_rows(P, k)
        ref = solve_via_matrix(P, k)
        assert res.algorithm == "rows"
        assert res.lambda_star_sq.hex() == brute_opt(P, k).hex()
        assert res.lambda_star_sq.hex() == ref.lambda_star_sq.hex()
        assert res.centers == ref.centers


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


def both_engines(rows, ref_rows, thr):
    """Run the lockstep engine on rows and the plain-Python reference on
    ref_rows with the predicate v >= thr: the result, the probed pivots
    and the two search counters of each, all as exact values."""
    runs = []
    for search, args in ((multi_array_search, rows),
                         (search_reference.multi_array_search, (ref_rows,))):
        pivots = []

        def probe(v):
            pivots.append(v.hex())
            return v >= thr

        counters.reset()
        try:
            got = search(*args, probe).hex()
        except NotFound:
            got = None
        runs.append((got, pivots, counters.get("multiarray_probes"),
                     counters.get("multiarray_touches")))
    return runs


def threshold(data, ref_rows):
    """An entry, the float on either side of one, or past every entry."""
    entries = sorted({row[j] for row in ref_rows for j in range(len(row))})
    v = data.draw(st.sampled_from(entries))
    return data.draw(st.sampled_from(
        [v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf),
         math.nextafter(entries[-1], math.inf)]))


@settings(max_examples=150, deadline=None)
@given(SCALES, RAW_POINTS, st.data())
def test_lockstep_engine_equals_reference_on_matrix_rows(scale, raw, data):
    S = slow_skyline(scaled_pointset(scale, raw))
    if len(S) < 2:
        return
    ref_rows = search_reference.matrix_rows(S)
    thr = threshold(data, ref_rows)
    new, old = both_engines(exact._matrix_rows(S), ref_rows, thr)
    assert new == old


@settings(max_examples=60, deadline=None)
@given(SCALES, RAW_POINTS, st.data())
def test_lockstep_engine_equals_reference_on_group_suffixes(scale, raw, data):
    P = scaled_pointset(scale, raw)
    for kappa in {1, 2, len(P)}:
        G = build(P, kappa)
        for p in slow_skyline(P):
            ref_rows = search_reference.suffix_rows(G, p)
            thr = threshold(data, ref_rows)
            new, old = both_engines(exact._suffix_rows(G, p), ref_rows, thr)
            assert new == old
            if new[0] is not None:
                # the bracket step's radius just below s gives the step
                # at f, the largest entry below s
                s = float.fromhex(new[0])
                f = search_reference.largest_below(ref_rows, s)
                assert (next_relevant_point(G, p, math.nextafter(s, 0.0))
                        == next_relevant_point(G, p, f))


@pytest.mark.parametrize("scale", SCALE_VALUES)
def test_lockstep_engine_equals_reference_with_tied_rows(scale):
    # equal steps: each distance recurs in many rows, and in a group's
    # suffix every pivot meets its equals in the other rows
    P = from_coords([(i * scale, (23 - i) * scale)
                     for i in range(24)])
    S = slow_skyline(P)
    ref_rows = search_reference.matrix_rows(S)
    entries = sorted({row[j] for row in ref_rows for j in range(len(row))})
    for thr in entries + [math.nextafter(v, math.inf) for v in entries]:
        new, old = both_engines(exact._matrix_rows(S), ref_rows, thr)
        assert new == old
    G = build(P, 5)
    for p in S[::4]:
        ref_rows = search_reference.suffix_rows(G, p)
        for thr in entries:
            new, old = both_engines(exact._suffix_rows(G, p), ref_rows, thr)
            assert new == old
