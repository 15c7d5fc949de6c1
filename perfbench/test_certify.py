"""Tests of the benchmark's own certifier: it agrees with brute force on
small inputs, passes real CLI outputs, and rejects hand-corrupted ones.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_certify.py
"""

import contextlib
import io
import itertools
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from certify import check, greedy_count, optimum_sq, skyline_of  # noqa: E402
from workloads import Input, Job, staircase  # noqa: E402


def brute_skyline(xy):
    pts = {tuple(p) for p in xy.tolist()}
    keep = [p for p in pts
            if not any(q != p and q[0] >= p[0] and q[1] >= p[1] for q in pts)]
    return np.array(sorted(keep)).reshape(-1, 2)


def brute_opt_sq(sky, k):
    """Smallest pairwise squared distance at which some k skyline points
    cover the skyline (exhaustive over center sets)."""
    d = sky[:, None, :] - sky[None, :, :]
    dist = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
    best = math.inf
    for centers in itertools.combinations(range(len(sky)), min(k, len(sky))):
        best = min(best, dist[:, list(centers)].min(axis=1).max())
    return best


@pytest.mark.parametrize("seed", range(20))
def test_skyline_and_optimum_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    xy = rng.integers(0, 12, (40, 2)).astype(np.float64)  # with duplicates
    sky = skyline_of(xy)
    assert np.array_equal(sky, brute_skyline(xy))
    stair = staircase(rng, 9)
    for k in (1, 2, 3):
        opt = optimum_sq(stair, k)
        assert opt == brute_opt_sq(stair, k)
        assert greedy_count(stair, opt, k) <= k
        assert greedy_count(stair, math.nextafter(opt, 0.0), k) > k


@pytest.fixture(scope="module")
def instance(tmp_path_factory):
    rng = np.random.default_rng(7)
    xy = np.vstack([rng.random((300, 2)) * 100, staircase(rng, 60) + 200])
    path = str(tmp_path_factory.mktemp("certify") / "points.txt")
    np.savetxt(path, xy, fmt="%.17g")
    return Input(path, "", len(np.unique(xy, axis=0)), skyline_of(xy))


def run_cli(argv):
    from pareto_kcenter import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def solve_job(method, k=3):
    return Job(f"solve {method}", "p", (), "solve", k=k, method=method)


def decide_job(lam, k=3):
    return Job("decide", "p", (), "decide", k=k, lam=lam)


def solve(instance, method, k=3):
    return run_cli(["solve", instance.path, "--k", str(k), "--method",
                    method, "--json"])


def edited(out, **changes):
    rec = json.loads(out)
    rec.update(changes)
    return json.dumps(rec)


@pytest.mark.parametrize("method", ["auto", "matrix", "parametric",
                                    "gonzalez", "approx:0.1"])
def test_real_solve_outputs_pass(instance, method):
    code, out = solve(instance, method)
    assert check(solve_job(method), code, out, instance) is None


def test_corrupted_exact_radius_is_caught(instance):
    code, out = solve(instance, "auto")
    lam = float.fromhex(json.loads(out)["lambda_star_sq_hex"])
    up = edited(out, lambda_star_sq_hex=math.nextafter(lam, math.inf).hex())
    down = edited(out, lambda_star_sq_hex=math.nextafter(lam, 0.0).hex())
    assert "not optimal" in check(solve_job("auto"), code, up, instance)
    assert "uncovered" in check(solve_job("auto"), code, down, instance)


def test_corrupted_centers_and_counts_are_caught(instance):
    code, out = solve(instance, "auto")
    rec = json.loads(out)
    off = [[c[0] - 1.0, c[1]] for c in rec["centers"]]
    job = solve_job("auto")
    assert "not on the skyline" in check(job, code, edited(out, centers=off),
                                         instance)
    assert "centers for k=3" in check(
        job, code, edited(out, centers=rec["centers"] * 2), instance)
    assert "h=" in check(job, code, edited(out, h=rec["h"] + 1), instance)
    assert "exit" in check(job, 2, out, instance)
    assert "unparsable" in check(job, code, out[:-5], instance)


def test_inflated_approximation_is_caught(instance):
    code, out = solve(instance, "gonzalez")
    lam = float.fromhex(json.loads(out)["lambda_star_sq_hex"])
    # Still a cover (a larger radius), but beyond the factor of 2.
    bad = edited(out, lambda_star_sq_hex=(lam * 5.0).hex())
    assert "exceeds" in check(solve_job("gonzalez"), code, bad, instance)


def test_decide_verdicts(instance):
    opt = math.sqrt(optimum_sq(instance.sky, 3))
    for lam, expect in ((opt * 1.01, 0), (opt * 0.99, 1)):
        for grouped in ([], ["--grouped"]):
            code, out = run_cli(["decide", instance.path, "--k", "3",
                                 "--lam", repr(lam), *grouped])
            assert code == expect
            assert check(decide_job(lam), code, out, instance) is None
            flipped = "INCOMPLETE\n" if expect == 0 else "FEASIBLE\n"
            assert "verdict" in check(decide_job(lam), 1 - code, flipped,
                                      instance)


def test_skyline_output(instance):
    code, out = run_cli(["skyline", instance.path])
    job = Job("skyline", "p", (), "skyline")
    assert check(job, code, out, instance) is None
    lines = out.splitlines()
    dropped = "\n".join([str(int(lines[0]) - 1)] + lines[1:-1]) + "\n"
    assert "skyline differs" in check(job, code, dropped, instance)
