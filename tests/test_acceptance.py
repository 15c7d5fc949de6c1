"""Acceptance suite: one test per criterion, seeded and tolerance-pinned.

Every expected value is either computed by an independent brute-force
oracle in this run or asserted exactly (the solvers all select from the
same finite set of squared pairwise distances, so equality is `==` with
no tolerances).  Run with `pytest tests/test_acceptance.py -v` to see the
per-criterion verdict lines.
"""

import itertools
import math
import random
import time
from pathlib import Path

from pareto_kcenter.cli import main as cli_main
from pareto_kcenter.decision import decide_grouped, decide_materialized
from pareto_kcenter.exact import (SortedDistanceMatrix, matrix_select,
                                  solve_parametric, solve_via_matrix)
from pareto_kcenter.geom import dist_sq
from pareto_kcenter.grouped import build
from pareto_kcenter.instances import InstanceSpec, generate
from pareto_kcenter.instrument import counters
from pareto_kcenter.skyline import skyline_bounded, skyline_optimal, slow_skyline
from pareto_kcenter.smallk import approx_solve, gonzalez_2approx, solve_one_center

from conftest import fixed_skyline_fill
from oracle import brute_opt, brute_psi_sq, brute_skyline

GOLDEN = Path(__file__).parent / "golden"
GENERATOR_CYCLE = ("uniform-square", "clustered", "staircase", "circle-quadrant")


def seeded_instance(rng, index, n_max, stair_max=None):
    """Mixed-family instance; staircase-like families capped separately
    because their skylines keep every point."""
    kind = GENERATOR_CYCLE[index % 4]
    cap = n_max
    if stair_max is not None and kind in ("staircase", "circle-quadrant"):
        cap = stair_max
    n = rng.randint(1, cap)
    return generate(InstanceSpec(kind, n, seed=rng.randrange(2 ** 32)))


def candidates_of(sky):
    out = {0.0}
    for a, b in itertools.combinations(sky.pts, 2):
        out.add(dist_sq(a, b))
    return sorted(out)


def test_criterion_1_skyline_three_way_equivalence():
    """1000 seeded instances, four generators: slow == optimal == brute."""
    rng = random.Random(101)
    started = time.perf_counter()
    for i in range(1000):
        kind = GENERATOR_CYCLE[i % 4]
        n = rng.randint(1, 2000)
        P = generate(InstanceSpec(kind, n, seed=rng.randrange(2 ** 32)))
        a = slow_skyline(P).pts
        b = skyline_optimal(P).pts
        c = brute_skyline(P).pts
        assert a == b == c, f"instance {i} ({kind}, n={n})"
    assert time.perf_counter() - started < 60.0


def test_criterion_2_bounded_dichotomy():
    """skyline_bounded returns Incomplete exactly when s < h."""
    rng = random.Random(202)
    for i in range(200):
        P = seeded_instance(rng, i, n_max=56)
        h = len(brute_skyline(P))
        for s in range(1, h + 3):
            result = skyline_bounded(P, s)
            assert result.complete == (s >= h), f"instance {i}, s={s}, h={h}"
            if result.complete:
                assert result.skyline.pts == brute_skyline(P).pts


def test_criterion_3_decision_equivalence():
    """decide_materialized == decide_grouped for kappa in {1,2,k,n}:
    same verdict, same center list, exact."""
    rng = random.Random(303)
    triples = 0
    while triples < 500:
        P = seeded_instance(rng, triples, n_max=250, stair_max=120)
        sky = brute_skyline(P)
        k = rng.randint(1, 8)
        cands = candidates_of(sky)
        lam_choices = [rng.choice(cands) for _ in range(2)]
        lam_choices += [max(0.0, lam_choices[0] - 0.25), lam_choices[1] + 0.25]
        builders = [build(P, kappa) for kappa in {1, 2, k, len(P)}]
        for lam_sq in lam_choices:
            if triples >= 500:
                break
            want = decide_materialized(sky, k, lam_sq)
            for G in builders:
                got = decide_grouped(G, k, lam_sq)
                assert got.feasible == want.feasible
                assert got.centers == want.centers
            triples += 1


def test_criterion_4_and_5_exact_solver_agreement_and_certificate():
    """matrix == parametric == brute opt, bitwise; centers certify the
    value on rescan; decide flips exactly at the optimum."""
    rng = random.Random(404)
    for i in range(500):
        P = seeded_instance(rng, i, n_max=300, stair_max=160)
        k = rng.randint(1, 8)
        want = brute_opt(P, k)
        a = solve_via_matrix(P, k)
        b = solve_parametric(P, k)
        assert a.lambda_star_sq == want == b.lambda_star_sq, f"instance {i}"
        sky = brute_skyline(P)
        assert brute_psi_sq(sky, a.centers) == want
        assert brute_psi_sq(sky, b.centers) == want
        assert len(a.centers) <= k and len(b.centers) <= k
        # criterion 5: certificate pair around lambda*
        assert decide_materialized(sky, k, want).feasible
        below = [c for c in candidates_of(sky) if c < want]
        if below:
            assert not decide_materialized(sky, k, below[-1]).feasible


def test_criterion_6_matrix_selection():
    """matrix_select equals flatten-and-sort for every rank; touched
    entries stay within 60*h per call."""
    rng = random.Random(606)
    checked = 0
    i = 0
    while checked < 50:
        i += 1
        kind = GENERATOR_CYCLE[i % 4]
        cap = 40 if kind in ("staircase", "circle-quadrant") else 350
        P = generate(InstanceSpec(kind, rng.randint(1, cap),
                                  seed=rng.randrange(2 ** 32)))
        sky = brute_skyline(P)
        h = len(sky)
        if h > 40:
            continue
        D = SortedDistanceMatrix(sky)
        flat = sorted(D.entry(r, c) for r in range(h) for c in range(h))
        for rank in range(1, h * h + 1):
            counters.reset()
            got = matrix_select(D, rank)
            assert got == flat[rank - 1], f"h={h}, rank={rank}"
            assert counters.get("matrix_entries_touched") <= 60 * h
        checked += 1


def test_criterion_7_small_k():
    """one-center exact in <= 3n distance evaluations; farthest-first
    within the squared 2-approximation bound; approx within (1+eps)^2."""
    rng = random.Random(707)
    for i in range(500):
        P = seeded_instance(rng, i, n_max=400, stair_max=200)
        if len(P) >= 16:
            counters.reset()
            res = solve_one_center(P)
            assert counters.get("dist_evals") <= 3 * len(P)
        else:
            res = solve_one_center(P)
        assert res.lambda_star_sq == solve_via_matrix(P, 1).lambda_star_sq

    for i in range(500):
        P = seeded_instance(rng, i, n_max=220, stair_max=140)
        k = rng.randint(1, 8)
        res = gonzalez_2approx(P, k)
        opt = brute_opt(P, k)
        assert res.lambda_star_sq <= 4.0 * opt, f"gonzalez instance {i}"
        sky = brute_skyline(P)
        assert brute_psi_sq(sky, res.centers) == res.lambda_star_sq

    for i in range(150):
        P = seeded_instance(rng, i, n_max=220, stair_max=140)
        k = rng.randint(1, 6)
        opt = brute_opt(P, k)
        for eps in (0.5, 0.1, 0.01):
            res = approx_solve(P, k, eps)
            assert res.lambda_star_sq <= (1.0 + eps) ** 2 * opt, \
                f"approx instance {i}, eps={eps}"
            assert len(res.centers) <= k


def test_criterion_8_scaling_counters():
    """Instrumented growth: skyline comparisons double with n at fixed h;
    grouped-decision probes track c*n*log2(k) within factor 1.5."""
    started = time.perf_counter()

    counts = []
    for e in range(14, 19):
        P = fixed_skyline_fill(64, 2 ** e, seed=8000 + e)
        counters.reset()
        sky = skyline_optimal(P)
        assert len(sky) == 64
        counts.append(counters.get("skyline_comparisons"))
    for small, big in zip(counts, counts[1:]):
        ratio = big / small
        assert 1.6 <= ratio <= 2.6, f"skyline doubling ratio {ratio:.3f}"

    n = 2 ** 17
    P = generate(InstanceSpec("staircase", n, seed=818))
    ratios = []
    for k in (2, 4, 8, 16, 32, 64):
        psi_sq = gonzalez_2approx(P, k).lambda_star_sq
        lam_sq = 0.98 * psi_sq / 4.0  # strictly below opt: forces k rounds
        G = build(P, k)
        counters.reset()
        out = decide_grouped(G, k, lam_sq)
        assert not out.feasible
        probes = counters.get("binary_search_probes")
        ratios.append(probes / (n * math.log2(k)))
    fit = math.sqrt(max(ratios) * min(ratios))  # minimax constant
    for r in ratios:
        assert fit / 1.5 <= r <= fit * 1.5, f"probe ratios {ratios}"

    assert time.perf_counter() - started < 300.0


def test_criterion_9_cli_golden(capsys, tmp_path):
    """Checked-in staircase-4 instance: byte-stable solve output with
    lambda* = 1.414213562373, and a byte-stable SVG snapshot."""
    code = cli_main(["solve", str(GOLDEN / "staircase4.txt"),
                     "--k", "2", "--method", "matrix"])
    out = capsys.readouterr().out
    assert code == 0
    assert "lambda_star=1.414213562373\n" in out
    assert out == (GOLDEN / "staircase4_solve.txt").read_text()

    svg_path = tmp_path / "check.svg"
    code = cli_main(["plot", str(GOLDEN / "staircase4.txt"), "--k", "2",
                     "--method", "matrix", "--out", str(svg_path)])
    capsys.readouterr()
    assert code == 0
    assert svg_path.read_bytes() == (GOLDEN / "staircase4.svg").read_bytes()
