"""Seeded inputs and job lists for the three benchmark workloads.

Inputs are generated here with numpy, independently of the package's own
generators, so a change to the package cannot change what is measured.
Each (workload, seed) pair is generated once and cached under
``perfbench/.cache``; the cache is keyed by a content hash of the
generator parameters, so editing a generator invalidates it.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from certify import greedy_count, optimum_sq, skyline_of

HERE = os.path.dirname(os.path.abspath(__file__))
CACHE = os.path.join(HERE, ".cache")

# Bump when any generator below changes what it emits.
GEN_VERSION = 1


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  ``input`` names an entry of the input dict, and
    ``{name}`` in ``argv`` stands for that input's path."""

    name: str
    input: str
    argv: tuple
    kind: str  # "solve" | "decide" | "skyline"
    k: int = 0
    method: str = ""
    lam: float = 0.0


@dataclass
class Input:
    path: str
    sha256: str
    n: int  # distinct points
    sky: np.ndarray  # (h, 2) skyline, increasing x


# -- generators (rng -> (n, 2) float64) --------------------------------------

def uniform_square(rng, n, scale=1000.0):
    return rng.random((n, 2)) * scale


def clustered(rng, n, scale=1000.0, clusters=8):
    spread = scale / 40.0
    centers = rng.random((clusters, 2)) * scale
    which = rng.integers(0, clusters, n)
    return centers[which] + rng.normal(0.0, spread, (n, 2))


def staircase(rng, n, step=1.0):
    """Strictly descending staircase: every point is on the skyline."""
    x = np.cumsum(step * (0.25 + rng.random(n)))
    y = n * step - np.cumsum(step * (0.25 + rng.random(n)))
    return np.column_stack([x, y])


def fixed_skyline_fill(rng, n, h, radius=1000.0):
    """h anchors on a quarter circle plus n-h strictly dominated shrunken
    copies, shuffled so the skyline is hidden among the fill."""
    angles = (np.arange(h) + 0.5) / h * (np.pi / 2)
    anchors = np.column_stack([radius * np.cos(angles),
                               radius * np.sin(angles)])
    pick = rng.integers(0, h, n - h)
    u = 0.2 + 0.6 * rng.random(n - h)
    pts = np.vstack([anchors, anchors[pick] * u[:, None]])
    return pts[rng.permutation(n)]


# -- workloads ---------------------------------------------------------------

def _specs(workload):
    """{input name: (generator, kwargs)} for a workload."""
    if workload == "ingest-bulk":
        return {"uniform": (uniform_square, {"n": 250_000}),
                "clustered": (clustered, {"n": 250_000})}
    if workload == "staircase-exact":
        return {"stair4k": (staircase, {"n": 4000}),
                "stair16k": (staircase, {"n": 16000})}
    if workload == "grouped-decide":
        return {"fill": (fixed_skyline_fill, {"n": 200_000, "h": 2000})}
    raise KeyError(workload)


WORKLOADS = ("ingest-bulk", "staircase-exact", "grouped-decide")


def _solve(inp, k, method):
    return Job(f"solve {inp} k={k} {method}", inp,
               ("solve", "{" + inp + "}", "--k", str(k), "--method", method,
                "--json"), "solve", k=k, method=method)


def _decide(inp, k, lam, feasible, grouped):
    extra = ("--grouped",) if grouped else ()
    tag = "grouped" if grouped else "materialized"
    verdict = "feasible" if feasible else "infeasible"
    return Job(f"decide {inp} k={k} {tag} {verdict}", inp,
               ("decide", "{" + inp + "}", "--k", str(k), "--lam", repr(lam),
                *extra), "decide", k=k, lam=lam)


def _radii(sky, k):
    """A feasible and an infeasible radius 5% either side of the optimum
    (distance units, as the CLI takes them)."""
    opt = float(np.sqrt(optimum_sq(sky, k)))
    hi, lo = opt * 1.05, opt * 0.95
    if greedy_count(sky, hi * hi, k) > k or greedy_count(sky, lo * lo, k) <= k:
        raise RuntimeError("radius bracket does not straddle the optimum")
    return hi, lo


def jobs_for(workload, inputs):
    if workload == "ingest-bulk":
        jobs = []
        for inp in ("uniform", "clustered"):
            jobs += [_solve(inp, 4, m) for m in ("auto", "gonzalez",
                                                 "approx:0.1")]
            jobs.append(Job(f"skyline {inp}", inp, ("skyline", "{" + inp + "}"),
                            "skyline"))
        return jobs
    if workload == "staircase-exact":
        lam16, _ = _radii(inputs["stair16k"].sky, 4)
        return [_solve("stair4k", 8, "auto"),
                _solve("stair16k", 4, "auto"),
                _solve("stair16k", 4, "approx:0.05"),
                _decide("stair16k", 4, lam16, True, grouped=False)]
    if workload == "grouped-decide":
        radii = {k: _radii(inputs["fill"].sky, k) for k in (2, 16)}
        jobs = []
        for k, (hi, lo) in radii.items():
            jobs += [_decide("fill", k, hi, True, grouped=True),
                     _decide("fill", k, lo, False, grouped=True)]
        jobs.append(_decide("fill", 16, radii[16][0], True, grouped=False))
        return jobs
    raise KeyError(workload)


# -- cache -------------------------------------------------------------------

def _key(workload, seed, name, gen, kwargs):
    blob = json.dumps([GEN_VERSION, workload, seed, name, gen.__name__,
                       sorted(kwargs.items())])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _write_atomic(path, write):
    tmp = f"{path}.{os.getpid()}.tmp"
    write(tmp)
    os.replace(tmp, path)


def _save_npy(path, xy):
    with open(path, "wb") as fh:  # a file object: np.save keeps the name
        np.save(fh, xy)


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def load_inputs(workload, seed):
    """Generate (or reuse) every input file of a workload for a seed."""
    os.makedirs(CACHE, exist_ok=True)
    inputs = {}
    for idx, (name, (gen, kwargs)) in enumerate(sorted(_specs(workload).items())):
        stem = os.path.join(CACHE, f"{workload}-{seed}-{name}-"
                                   f"{_key(workload, seed, name, gen, kwargs)}")
        txt, npy = stem + ".txt", stem + ".npy"
        if not (os.path.exists(txt) and os.path.exists(npy)):
            rng = np.random.default_rng([seed, idx])
            xy = np.ascontiguousarray(gen(rng, **kwargs), dtype=np.float64)
            # %.17g round-trips float64, so the file holds exactly xy.
            _write_atomic(txt, lambda p: np.savetxt(p, xy, fmt="%.17g"))
            _write_atomic(npy, lambda p: _save_npy(p, xy))
        xy = np.load(npy)
        inputs[name] = Input(txt, _sha256(txt), len(np.unique(xy, axis=0)),
                             skyline_of(xy))
    return inputs
