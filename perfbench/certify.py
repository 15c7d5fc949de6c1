"""Independent output certifier, in numpy.

Shares no code with the package: the skyline is a lexsort plus a running
maximum, and coverage is decided by a vectorized left-to-right greedy.
Distances are ``dx*dx + dy*dy`` in float64, elementwise, which is the
same IEEE arithmetic the package uses, so every comparison is exact.

Each ``check_*`` returns None when the output is correct and a one-line
reason otherwise.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Slack for the approximation factors only: their guarantees hold in real
# arithmetic, and the reported radius went through a sqrt and a square.
FACTOR_SLACK = 1e-9


def skyline_of(xy):
    """Maximal points of an (n, 2) array, by increasing x.

    Exact duplicates are dropped first.  After sorting by (x, y) a point
    is maximal iff its y beats every y to its right.
    """
    xy = np.unique(xy, axis=0)  # sorted by x, then y
    y = xy[:, 1]
    right_max = np.maximum.accumulate(y[::-1])[::-1]
    beats = np.empty(len(y), dtype=bool)
    beats[-1] = True
    beats[:-1] = y[:-1] > right_max[1:]
    return xy[beats]


def _sq_dists(sky, i, start):
    d = sky[start:] - sky[i]
    return d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]


def _reach(sky, i, r2):
    """Largest j >= i such that every point in i..j is within r2 of sky[i]."""
    out = np.flatnonzero(_sq_dists(sky, i, i) > r2)
    return i + (out[0] if len(out) else len(sky) - i) - 1


def greedy_count(sky, r2, k):
    """Disks of squared radius r2 the greedy needs to cover the staircase,
    capped at k+1.  The greedy is optimal for centers on the staircase."""
    i, count = 0, 0
    while i < len(sky) and count <= k:
        count += 1
        center = _reach(sky, i, r2)
        i = _reach(sky, center, r2) + 1
    return count


def _as_float(bits):
    return float(np.int64(bits).view(np.float64))


def optimum_sq(sky, k):
    """Smallest float r2 at which k disks suffice: the optimum squared
    radius, found by bisecting the bit patterns of non-negative floats."""
    lo = 0
    hi = int(np.float64(_sq_dists(sky, 0, len(sky) - 1)[0]).view(np.int64))
    while lo < hi:
        mid = (lo + hi) // 2
        if greedy_count(sky, _as_float(mid), k) <= k:
            hi = mid
        else:
            lo = mid + 1
    return _as_float(lo)


def _centers_problem(sky, centers, r2, k):
    if not 1 <= len(centers) <= k:
        return f"{len(centers)} centers for k={k}"
    on_sky = set(map(tuple, sky.tolist()))
    for c in centers.tolist():
        if tuple(c) not in on_sky:
            return f"center {c} is not on the skyline"
    d = sky[:, None, :] - centers[None, :, :]
    nearest = (d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]).min(axis=1)
    worst = int(np.argmax(nearest))
    if nearest[worst] > r2:
        return f"skyline point {sky[worst].tolist()} uncovered at r2={r2!r}"
    return None


def _points(lines):
    return np.array([[float(v) for v in ln.split()] for ln in lines],
                    dtype=np.float64).reshape(-1, 2)


def factor_sq(method):
    """Squared approximation factor a method guarantees (1 for exact)."""
    if method == "gonzalez":
        return 4.0
    if method.startswith("approx:"):
        return (1.0 + float(method.split(":", 1)[1])) ** 2
    return 1.0


def check_solve(job, code, out, inp):
    if code != 0:
        return f"exit {code}"
    rec = json.loads(out)
    sky = inp.sky
    if rec["n"] != inp.n:
        return f"n={rec['n']} but the input has {inp.n} distinct points"
    if rec["h"] != len(sky):
        return f"h={rec['h']} but the skyline has {len(sky)} points"
    lam_sq = float.fromhex(rec["lambda_star_sq_hex"])
    centers = np.array(rec["centers"], dtype=np.float64).reshape(-1, 2)
    problem = _centers_problem(sky, centers, lam_sq, job.k)
    if problem:
        return problem
    factor = factor_sq(job.method)
    if factor == 1.0:
        below = math.nextafter(lam_sq, 0.0)
        if lam_sq > 0.0 and greedy_count(sky, below, job.k) <= job.k:
            return f"not optimal: {job.k} disks also cover at r2={below!r}"
        return None
    opt = optimum_sq(sky, job.k)
    if lam_sq > factor * opt * (1.0 + FACTOR_SLACK):
        return f"r2={lam_sq!r} exceeds {factor!r} x optimum {opt!r}"
    return None


def check_decide(job, code, out, inp):
    lines = out.splitlines()
    r2 = job.lam * job.lam
    feasible = greedy_count(inp.sky, r2, job.k) <= job.k
    if code not in (0, 1) or not lines:
        return f"exit {code}"
    verdict = lines[0]
    if feasible != (verdict == "FEASIBLE") or code != (0 if feasible else 1):
        return f"verdict {verdict!r} (exit {code}) but greedy says " \
               f"{'feasible' if feasible else 'infeasible'}"
    if feasible:
        return _centers_problem(inp.sky, _points(lines[1:]), r2, job.k)
    return None if lines == ["INCOMPLETE"] else "junk after INCOMPLETE"


def check_skyline(job, code, out, inp):
    if code != 0:
        return f"exit {code}"
    lines = out.splitlines()
    got = _points(lines[1:])
    if int(lines[0]) != len(got) or not np.array_equal(got, inp.sky):
        return f"skyline differs: {len(got)} points, expected {len(inp.sky)}"
    return None


CHECKS = {"solve": check_solve, "decide": check_decide,
          "skyline": check_skyline}


def check(job, code, out, inp):
    """Certify one job's exit code and stdout; None means correct."""
    try:
        return CHECKS[job.kind](job, code, out, inp)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparsable output: {exc!r}"
