import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import grouped_reference as ref
from pareto_kcenter import grouped
from pareto_kcenter.errors import EmptyInput, FrozenRecord
from pareto_kcenter.geom import Point, PointSet, dist_sq
from pareto_kcenter.grouped import (LOCKSTEP_ROWS, build, first_false,
                                    next_on_skyline, next_relevant_point,
                                    pass_charge, test_membership_and_prev)
from pareto_kcenter.instrument import counters, sort_charge
from pareto_kcenter.skyline import skyline_bounded, slow_skyline

from conftest import (RAW_POINTS, SCALES, SCALE_VALUES, STAIR4, bisect_charge,
                      from_coords, random_pointset, scaled_pointset,
                      x_tied_rows)
from oracle import brute_skyline

# Raw points for scaled_pointset on a 5 x 5 grid: ties in x and in y are
# common inside every group.
TIED_RAW = st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                              st.integers(0, 1), st.integers(0, 1)),
                    min_size=1, max_size=60)

# Raw points with ties in x and in y, a duplicate, neighbours one ulp
# apart and dominated points.
STAIRCASE_RAW = [(0, 40, 0, 0), (-3, 41, 0, 0), (1, 39, 1, 0), (3, 30, 0, 2),
                 (3, 30, 0, 2), (3, 30, 1, 1), (4, 30, 0, 0), (10, 10, 0, 0),
                 (9, 9, 0, 0), (20, -5, 2, 3), (20, -6, 0, 0), (5, 5, 0, 0),
                 (30, -40, 0, 0), (-40, 35, 3, 0)]


def group_points(G, g):
    """Group g's stored skyline as Points."""
    lo, hi = G.groups[g - 1] if g else 0, G.groups[g]
    return tuple(map(Point, G.xs[lo:hi], G.ys[lo:hi]))


def candidate_radii(sky):
    out = {0.0}
    for a, b in itertools.combinations(sky, 2):
        out.add(dist_sq(a, b))
    return sorted(out)


class TestBuild:
    def test_group_count(self):
        P = from_coords([(i, 10 - i) for i in range(10)])
        assert build(P, 3).t == 4

    def test_single_group_holds_global_skyline(self, rng):
        P = random_pointset(rng, 10)
        G = build(P, 10)
        assert G.t == 1
        assert group_points(G, 0) == brute_skyline(P).pts

    def test_singleton_groups(self):
        P = from_coords([(0, 1), (1, 0)])
        G = build(P, 1)
        assert G.t == 2
        assert [group_points(G, g) for g in range(G.t)] == [(Point(0, 1),),
                                                            (Point(1, 0),)]

    @settings(max_examples=150, deadline=None)
    @given(SCALES, TIED_RAW, st.data())
    def test_flat_groups_match_brute_skyline_of_each_chunk(self, scale, raw,
                                                           data):
        # Zeros get a random sign: 0.0 and -0.0 tie as y values.
        xy = scaled_pointset(scale, raw).xy.copy()
        flip = data.draw(st.lists(st.booleans(), min_size=xy.size,
                                  max_size=xy.size))
        xy[np.array(flip).reshape(xy.shape) & (xy == 0.0)] = -0.0
        P = PointSet(xy)
        kappa = data.draw(st.integers(1, len(P) + 1))
        G = build(P, kappa)
        assert G.t == math.ceil(len(P) / kappa)
        for g in range(G.t):
            chunk = PointSet(P.xy[g * kappa:(g + 1) * kappa])
            want = [(p.x.hex(), p.y.hex()) for p in brute_skyline(chunk)]
            got = [(p.x.hex(), p.y.hex()) for p in group_points(G, g)]
            assert got == want

    @pytest.mark.parametrize("n", [255, 256, 65535, 65536])
    def test_flat_groups_at_the_rank_type_bounds(self, n):
        # The ranks' type changes at n = 256 and 65536; the pad rank n is
        # the largest value of the smaller type.
        P = PointSet(np.random.default_rng(n).random((n, 2)))
        for kappa in (7, 100, n):
            G = build(P, kappa)
            for g in range(G.t):
                chunk = PointSet(P.xy[g * kappa:(g + 1) * kappa])
                assert group_points(G, g) == slow_skyline(chunk).pts

    @settings(max_examples=150, deadline=None)
    @given(x_tied_rows())
    def test_flat_groups_match_brute_skyline_with_x_ties(self, rows):
        P = PointSet(np.array(rows))
        n = len(P)
        for kappa in (1, 2, n, n + 1):
            G = build(P, kappa)
            assert G.t == math.ceil(n / kappa)
            sizes = []
            for g in range(G.t):
                chunk = PointSet(P.xy[g * kappa:(g + 1) * kappa])
                want = [(p.x.hex(), p.y.hex()) for p in brute_skyline(chunk)]
                got = [(p.x.hex(), p.y.hex()) for p in group_points(G, g)]
                assert got == want
                sizes.append(len(want))
            assert G.pass_probes == sum(bisect_charge(m + 2) for m in sizes)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 53 - 3), max_size=50))
    def test_pass_charge_equals_the_scalar_sum(self, sizes):
        want = sum(bisect_charge(m + 2) for m in sizes)
        assert pass_charge(np.array(sizes, dtype=np.int64)) == want

    def test_comparison_charge_counts_padded_groups(self):
        # Groups of 3, 3 and 1 points, each charged as m + 2 points.
        P = from_coords([(i, 10 - i) for i in range(7)])
        counters.reset()
        build(P, 3)
        want = 2 * (sort_charge(5) + 4) + sort_charge(3) + 2
        assert counters.get("skyline_comparisons") == want

    def test_extremes_recorded(self, rng):
        P = random_pointset(rng, 30)
        sky = brute_skyline(P)
        G = build(P, 7)
        assert G.p0 == sky[0]
        assert G.q0 == sky[-1]

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            build(PointSet([]), 2)

    def test_zero_group_size_raises(self):
        with pytest.raises(ValueError, match="group size must be >= 1"):
            build(from_coords(STAIR4), 0)

    def test_structure_is_frozen(self):
        G = build(from_coords(STAIR4), 3)
        assert G.t == len(G.groups) == 2
        assert len(G.__slots__) == 8
        for name in G.__slots__:
            with pytest.raises(FrozenRecord):
                setattr(G, name, getattr(G, name))

    @pytest.mark.parametrize("t", [2, LOCKSTEP_ROWS])
    def test_columns_are_read_only(self, t):
        G = build(from_coords([(i, 2 * t - i) for i in range(2 * t)]),
                  2)
        assert G.t == t
        for col in (G.xs, G.ys, G.starts, G.groups):
            with pytest.raises(ValueError, match="read-only"):
                col[0] = col[1]


class TestNextOnSkyline:
    def test_two_group_staircase(self):
        P = from_coords(STAIR4)
        G = build(P, 2)
        assert next_on_skyline(G, 0.5) == Point(1, 2)

    def test_far_left_returns_highest(self):
        P = from_coords(STAIR4)
        G = build(P, 2)
        assert next_on_skyline(G, -math.inf) == Point(0, 3)

    def test_probe_charge_counts_padded_groups(self):
        # Groups of 3, 3 and 1 points, each charged as m + 2 points.
        G = build(from_coords([(i, 10 - i) for i in range(7)]), 3)
        counters.reset()
        next_on_skyline(G, 0.5)
        assert counters.get("binary_search_probes") == (2 * bisect_charge(5)
                                                        + bisect_charge(3))

    def test_past_last_returns_dummy(self):
        # None stands for the paper's right dummy point.
        P = from_coords(STAIR4)
        G = build(P, 2)
        assert next_on_skyline(G, 3.0) is None

    def test_matches_scan_for_all_partitions(self, rng):
        for _ in range(60):
            P = random_pointset(rng, rng.randint(1, 40))
            sky = brute_skyline(P)
            for kappa in (1, 2, 3, len(P)):
                G = build(P, kappa)
                for x0 in {p.x for p in P} | {p.x - 0.25 for p in sky}:
                    want = next((q for q in sky if q.x > x0), None)
                    assert next_on_skyline(G, x0) == want


class TestMembershipAndPrev:
    def test_highest_point_prev_is_left_dummy(self):
        # None stands for the paper's left dummy point.
        P = from_coords(STAIR4)
        G = build(P, 2)
        member, prev = test_membership_and_prev(G, Point(0, 3))
        assert member and prev is None

    def test_interior_point_not_member(self):
        P = from_coords(STAIR4 + [(1, 1)])
        G = build(P, 2)
        member, _ = test_membership_and_prev(G, Point(1, 1))
        assert not member

    def test_prev_of_interior_skyline_point(self):
        P = from_coords(STAIR4)
        G = build(P, 3)
        member, prev = test_membership_and_prev(G, Point(2, 1))
        assert member and prev == Point(1, 2)

    def test_matches_scan_for_all_partitions(self, rng):
        for _ in range(60):
            P = random_pointset(rng, rng.randint(1, 40))
            sky = brute_skyline(P)
            for kappa in (1, 3, len(P)):
                G = build(P, kappa)
                for p in P:
                    member, prev = test_membership_and_prev(G, p)
                    assert member == (p in sky.pts)
                    idx = next((i for i, q in enumerate(sky) if q.x >= p.x),
                               len(sky))
                    want = sky[idx - 1] if idx > 0 else None
                    assert prev == want


def hex_of(p):
    return None if p is None else (p.x.hex(), p.y.hex())


def check_queries_against_scan(P):
    """Membership, predecessor and next point of every input point, at
    kappa 1, 2 and n, against a scan of the brute-force skyline."""
    pts = brute_skyline(P).pts
    sky, xs = [hex_of(q) for q in pts], [q.x for q in pts]
    for kappa in (1, 2, len(P)):
        G = build(P, kappa)
        for p in P:
            member, prev = test_membership_and_prev(G, p)
            assert member == (hex_of(p) in sky)
            before = [s for s, x in zip(sky, xs) if x < p.x]
            assert hex_of(prev) == (before[-1] if before else None)
            after = [s for s, x in zip(sky, xs) if x > p.x]
            assert hex_of(next_on_skyline(G, p.x)) == (
                after[0] if after else None)


class TestQueriesAtSignedZerosAndScales:
    # The membership pass asks for x > nextafter(x(p), -inf), which must
    # select exactly x >= x(p), also where 0.0 and -0.0 meet.

    @settings(max_examples=150, deadline=None)
    @given(x_tied_rows())
    def test_x_tied_rows(self, rows):
        check_queries_against_scan(PointSet(np.array(rows)))

    @settings(max_examples=60, deadline=None)
    @given(RAW_POINTS)
    def test_every_scale(self, raw):
        for scale in SCALE_VALUES:
            check_queries_against_scan(scaled_pointset(scale, raw))


class TestNextRelevantPoint:
    def test_staircase_small_radius(self):
        P = from_coords(STAIR4)
        G = build(P, 2)
        assert next_relevant_point(G, Point(0, 3), 2.25) == Point(1, 2)

    def test_zero_radius_returns_self(self):
        P = from_coords(STAIR4)
        G = build(P, 2)
        for p in brute_skyline(P):
            assert next_relevant_point(G, p, 0.0) == p

    def test_huge_radius_returns_last_point(self):
        P = from_coords(STAIR4)
        G = build(P, 2)
        assert next_relevant_point(G, Point(0, 3), 100.0) == Point(3, 0)
        assert next_relevant_point(G, Point(0, 3), 1e18) == Point(3, 0)

    def test_matches_scan_for_all_partitions(self, rng):
        for _ in range(50):
            P = random_pointset(rng, rng.randint(1, 36))
            sky = brute_skyline(P)
            radii = candidate_radii(sky)
            probe = radii[:10] + radii[-4:] + [r + 0.5 for r in radii[:4]]
            for kappa in (1, 2, 3, len(P)):
                G = build(P, kappa)
                for p in sky:
                    for lam_sq in probe:
                        got = next_relevant_point(G, p, lam_sq)
                        want = [q for q in sky
                                if q.x >= p.x and dist_sq(p, q) <= lam_sq][-1]
                        assert got == want

    def test_result_properties(self, rng):
        # q on the skyline, right of p, within reach, successor beyond
        for _ in range(40):
            P = random_pointset(rng, rng.randint(2, 40))
            sky = brute_skyline(P)
            G = build(P, 3)
            radii = candidate_radii(sky)
            for p in sky:
                for lam_sq in radii[:: max(1, len(radii) // 5)]:
                    q = next_relevant_point(G, p, lam_sq)
                    assert q in sky.pts
                    assert q.x >= p.x
                    assert dist_sq(p, q) <= lam_sq
                    i = sky.pts.index(q)
                    if i + 1 < len(sky):
                        assert dist_sq(p, sky[i + 1]) > lam_sq

    # The covered side of each group is bounded by the paper's alpha curve
    # of p and the radius: every point not right of p, and every point
    # within the radius.  The search inlines that test.

    def test_rejects_negative_radius(self):
        G = build(from_coords(STAIR4), 2)
        with pytest.raises(ValueError):
            next_relevant_point(G, Point(0, 3), -1.0)

    def test_point_on_the_circle_is_covered(self):
        # (3, 4, 5) scaled by powers of two: every distance is exact.
        for scale in (1.0, 2.0 ** 60, 2.0 ** -60):
            p, q = Point(0.0, 4 * scale), Point(3 * scale, 0.0)
            P = PointSet([p, q, Point(4 * scale, -10 * scale)])
            r_sq = 25 * scale * scale
            assert dist_sq(p, q) == r_sq
            for kappa in (1, 2, 3):
                G = build(P, kappa)
                assert next_relevant_point(G, p, r_sq) == q
                assert next_relevant_point(
                    G, p, math.nextafter(r_sq, 0.0)) == p

    def test_points_left_of_p_are_covered(self):
        # The curve's lower ray: points left of p count as covered however
        # far away they are, so the covered points of a group stay a
        # prefix and the search does not stop short of p.
        stair = [(0, 60), (10, 50), (20, 40), (30, 30), (40, 20), (41, 19),
                 (60, 0)]
        P = from_coords(stair)
        for kappa in (1, 2, 3, len(stair)):
            G = build(P, kappa)
            assert next_relevant_point(G, Point(40, 20), 2.0) == Point(41, 19)
            assert next_relevant_point(G, Point(40, 20), 1.0) == Point(40, 20)

    @settings(max_examples=60, deadline=None)
    @given(SCALES, RAW_POINTS, st.integers(1, 6))
    def test_charges_one_pass_or_two(self, scale, raw, kappa):
        # One covered-split pass, and one y-keyed pass more unless every
        # group is covered to its end.  Radii reach every stored point, so
        # both cases occur, also with an uncovered point below q0.
        P = scaled_pointset(scale, raw)
        G = build(P, kappa)
        stored = list(map(Point, G.xs, G.ys))
        for p in brute_skyline(P).pts[:-1]:
            for lam_sq in {0.0} | {dist_sq(p, q) for q in stored}:
                covered = all(q.x <= p.x or dist_sq(p, q) <= lam_sq
                              for q in stored)
                counters.reset()
                next_relevant_point(G, p, lam_sq)
                passes = 1 if covered else 2
                assert counters.get("binary_searches") == passes * G.t

    @settings(max_examples=60, deadline=None)
    @given(SCALES, RAW_POINTS, st.integers(1, 6))
    def test_covered_points_form_a_prefix(self, scale, raw, kappa):
        # Right of p, the staircase points within the radius are a run
        # that starts at p; the query answers the run's last point.
        P = scaled_pointset(scale, raw)
        sky = brute_skyline(P).pts
        G = build(P, kappa)
        for i, p in enumerate(sky):
            for q in sky[i:]:
                lam_sq = dist_sq(p, q)
                within = [dist_sq(p, r) <= lam_sq for r in sky[i:]]
                run = within.index(False) if False in within else len(within)
                assert not any(within[run:])
                assert next_relevant_point(G, p, lam_sq) == sky[i + run - 1]


def bisection_probes(lo, hi, test):
    """First false index of a true-prefix row over [lo, hi), and the probes
    of the bisection of (lo - 1, hi) with both ends virtual."""
    lo -= 1
    probes = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        probes += 1
        if test(mid):
            lo = mid
        else:
            hi = mid
    return hi, probes


ROWS = st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                min_size=1, max_size=3)


def flat_rows(rows, data):
    """Rows [a, b) of a flat index range, from (length, gap) pairs, each
    true before its answer f, drawn anywhere in [a, b], the ends
    included: the (a, b) pairs and the answers."""
    bounds, cut, a = [], [], 0
    for length, gap in rows:
        bounds.append((a, a + length))
        cut.append(a + data.draw(st.integers(0, length)))
        a += length + gap
    return bounds, cut


def check_first_false(test, bounds, cut):
    """first_false's answers and probes equal a plain bisection of each
    row; returns the answers."""
    a = np.array([lo for lo, _ in bounds])
    b = np.array([hi for _, hi in bounds])
    got, probes = first_false(test, a, b)
    want = [bisection_probes(lo, hi, lambda j, e=e: j < e)
            for (lo, hi), e in zip(bounds, cut)]
    assert list(got) == [w[0] for w in want] == cut
    assert probes == sum(w[1] for w in want)
    return got


class TestFirstFalse:
    @settings(max_examples=150, deadline=None)
    @given(ROWS, st.booleans(), st.data())
    def test_answers_and_probes_equal_the_bisection(self, rows, lockstep,
                                                    data):
        # A lockstep run repeats the rows up to LOCKSTEP_ROWS.
        bounds, cut = flat_rows(rows, data)
        if lockstep:
            reps = -(-LOCKSTEP_ROWS // len(bounds))
            bounds, cut = bounds * reps, cut * reps
        f = np.array(cut)
        got = check_first_false(lambda r, j: j < f[r], bounds, cut)
        assert isinstance(got, np.ndarray) == lockstep

    @settings(max_examples=100, deadline=None)
    @given(ROWS, st.lists(st.integers(0, 60), min_size=2, max_size=5),
           st.integers(0, 2 ** 32 - 1), st.data())
    def test_lockstep_ignores_the_test_off_a_rows_range(self, rows, settled,
                                                        seed, data):
        # The lockstep rounds test settled rows too, at max(a - 1, 0), and
        # ignore the answer: off its own [a, b) the test answers noise.
        # Row 0 is [0, 0), and the settled rows [s, s) repeat with the
        # others up to LOCKSTEP_ROWS.
        bounds, cut = flat_rows(rows, data)
        bounds += [(s, s) for s in settled]
        cut += settled
        reps = -(-LOCKSTEP_ROWS // len(bounds))
        bounds, cut = [(0, 0)] + bounds * reps, [0] + cut * reps
        a, b = (np.array(col) for col in zip(*bounds))
        f = np.array(cut)
        noise = np.random.default_rng(seed)

        def test(r, j):
            own = (a[r] <= j) & (j < b[r])
            assert (own | (j == np.maximum(f[r] - 1, 0))).all()
            return np.where(own, j < f[r], noise.random(len(r)) < 0.5)

        check_first_false(test, bounds, cut)


def hex_of_all(result):
    """Query results as exact values: Points by float.hex, tuples item by
    item, everything else as is."""
    if isinstance(result, tuple):
        return tuple(map(hex_of_all, result))
    if isinstance(result, Point) or result is None:
        return hex_of(result)
    return result


def same_as_reference(new, old, G, *args):
    """The package's query and its reference give the same answer and
    the same search counter deltas."""
    runs = []
    for query in (new, old):
        counters.reset()
        got = query(G, *args)
        snap = counters.snapshot()
        runs.append((hex_of_all(got), snap.get("binary_searches", 0),
                     snap.get("binary_search_probes", 0)))
    assert runs[0] == runs[1], (new.__name__, args)


def check_queries_against_reference(P, kappas):
    sky = brute_skyline(P).pts
    radii = sorted({dist_sq(p, q) for p, q in itertools.combinations(sky, 2)})
    probe_radii = {0.0} | {v for r in radii for v in (
        r, math.nextafter(r, 0.0), math.nextafter(r, math.inf))}
    for kappa in kappas:
        G = build(P, kappa)
        for p in P:
            same_as_reference(next_on_skyline, ref.next_on_skyline, G, p.x)
            same_as_reference(test_membership_and_prev,
                              ref.membership_and_prev, G, p)
        for p in sky:
            for lam_sq in probe_radii:
                same_as_reference(next_relevant_point,
                                  ref.next_relevant_point, G, p, lam_sq)


class TestQueriesEqualTheReferencePasses:
    # The per-group loops in grouped_reference bisect each group alone;
    # the package's passes bisect every group at once, one at a time below
    # LOCKSTEP_ROWS groups and in lockstep from it.  Lowering the constant
    # to 1 runs these small structures in lockstep.

    @settings(max_examples=60, deadline=None)
    @given(SCALES, RAW_POINTS, st.booleans())
    # The extreme scales, in lockstep.
    @example(1e-170, STAIRCASE_RAW, True)
    @example(1e150, STAIRCASE_RAW, True)
    def test_every_scale(self, scale, raw, lockstep):
        P = scaled_pointset(scale, raw)
        with pytest.MonkeyPatch.context() as mp:
            if lockstep:
                mp.setattr(grouped, "LOCKSTEP_ROWS", 1)
            check_queries_against_reference(P, {1, 2, 3, len(P)})

    @pytest.mark.parametrize("t", [LOCKSTEP_ROWS - 1, LOCKSTEP_ROWS])
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_both_sides_of_the_constant(self, t, shuffled):
        # A staircase in x order settles most groups at an end; shuffled,
        # most groups hold points on both sides of every query.  One point
        # in four is dominated.
        coords = [(i, 3.0 * t - i) for i in range(3 * t)]
        coords += [(i + 0.5, 3.0 * t - i - 1) for i in range(0, 3 * t, 3)]
        if shuffled:
            random.Random(t).shuffle(coords)
        P = PointSet(np.array(coords))
        G = build(P, 4)
        assert G.t == t
        assert (G.lists is None) == (t >= LOCKSTEP_ROWS)
        sky = brute_skyline(P).pts
        for p in sky[::5]:
            same_as_reference(next_on_skyline, ref.next_on_skyline, G, p.x)
            same_as_reference(test_membership_and_prev,
                              ref.membership_and_prev, G, p)
            for q in sky[::11]:
                same_as_reference(next_relevant_point,
                                  ref.next_relevant_point, G, p,
                                  dist_sq(p, q))

    @pytest.mark.parametrize("lockstep", [False, True])
    def test_points_at_the_x_of_p_are_covered(self, lockstep):
        # The second group's first point lies below p at p's x, outside the
        # radius: covered all the same, so that group splits after it, and
        # its bisection (six leaves) probes three times, not two.
        P = PointSet(np.array([(0.0, 50), (40, 20), (46, 10), (47, 9), (60, 0),
                               (40, 15), (42, 14), (43, 13), (44, 12),
                               (45, 11)]))
        with pytest.MonkeyPatch.context() as mp:
            if lockstep:
                mp.setattr(grouped, "LOCKSTEP_ROWS", 1)
            G = build(P, 5)
            same_as_reference(next_relevant_point, ref.next_relevant_point,
                              G, Point(40.0, 20.0), 1.0)

    @pytest.mark.parametrize("t", [2, LOCKSTEP_ROWS])
    def test_answers_hold_python_floats(self, t):
        # numpy 2 prints an np.float64 as np.float64(...), which would
        # change the CLI's output.
        n = 4 * t
        P = from_coords([(i, n - i) for i in range(n)])
        G = build(P, 4)
        assert G.t == t
        p, q = Point(1.0, n - 1.0), Point(5.0, n - 5.0)
        member, prev = test_membership_and_prev(G, p)
        answers = [next_on_skyline(G, 1.0), prev,
                   next_relevant_point(G, p, dist_sq(p, q)),
                   *skyline_bounded(P, 4 * n).skyline.pts]
        for r in answers:
            assert type(r.x) is float and type(r.y) is float
