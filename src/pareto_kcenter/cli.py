"""Command-line front end.

Subcommands: gen, skyline, decide, solve, bench, plot.
Exit codes: 0 success/feasible, 1 infeasible, 2 input error,
3 incomplete (bounded skyline probe with s < h).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import DEFAULT_SEED, GENERATORS, __version__
from .decision import decide_grouped, decide_materialized
from .errors import EmptyInput, InternalInvariantViolation, InvalidEpsilon
from .exact import (SolveResult, solve_by_rows, solve_parametric,
                    solve_via_matrix)
from .geom import PointSet, SkylineArray
from .grouped import build
from .instrument import counters
from .pointio import PointFileError, fmt_coord, read_point_file, write_points
from .skyline import skyline_bounded, skyline_optimal, slow_skyline
from .smallk import (approx_solve, check_epsilon, gonzalez_2approx,
                     solve_one_center)

# hashlib, json, .instances and .svgplot are imported by the functions
# that use them, so start-up and the decide and skyline runs load none.

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_INCOMPLETE = 3


class InputError(Exception):
    """A bad argument or input: main prints "error: <message>", exits 2."""


def _at_least_1(name: str, *values: int) -> None:
    if min(values) < 1:
        raise InputError(f"{name} must be >= 1")


def _load(path: str) -> PointSet:
    try:
        P = read_point_file(path)
    except (OSError, PointFileError) as exc:
        raise InputError(str(exc))
    if len(P) == 0:
        raise InputError("no points in input")
    return P


def _digest(centers, lambda_star_sq: float) -> str:
    import hashlib

    blob = ";".join(f"{fmt_coord(c.x)},{fmt_coord(c.y)}"
                    for c in sorted(centers, key=lambda c: (c.x, c.y)))
    blob += f"|{lambda_star_sq.hex()}"
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class RunReport:
    """One solver run: inputs, result, timing, and counters.  The digest
    hashes the sorted center coordinates plus the exact squared radius,
    so identical results collide and any difference shows."""

    result: SolveResult
    n: int
    h: int
    k: int
    time_ms: float
    counters: dict

    @property
    def digest(self) -> str:
        return _digest(self.result.centers, self.result.lambda_star_sq)

    def kv_lines(self):
        res = self.result
        yield f"method={res.algorithm}"
        yield f"n={self.n}"
        yield f"h={self.h}"
        yield f"k={self.k}"
        yield f"lambda_star={res.lambda_star:.12f}"
        yield f"lambda_star_sq={res.lambda_star_sq.hex()}"
        yield f"centers={len(res.centers)}"
        for c in res.centers:
            yield f"center={fmt_coord(c.x)} {fmt_coord(c.y)}"
        yield f"digest={self.digest}"
        for key in sorted(self.counters):
            yield f"counter.{key}={self.counters[key]}"

    def to_json_obj(self) -> dict:
        res = self.result
        return {
            "method": res.algorithm,
            "n": self.n,
            "h": self.h,
            "k": self.k,
            "lambda_star": res.lambda_star,
            "lambda_star_sq_hex": res.lambda_star_sq.hex(),
            "centers": [[c.x, c.y] for c in res.centers],
            "digest": self.digest,
            "time_ms": self.time_ms,
            "counters": self.counters,
        }


@dataclass(frozen=True)
class Route:
    """An entry of a name table.  ``run`` looks the package function up
    in this module when called, so a rebound name (span tracing rebinds
    them) is honoured.  A key "name:<arg>" takes a parameter, which
    ``parse`` reads from the text after the colon (None if absent)."""

    run: Callable
    guarantee: str = "exact"  # a solver's radius against opt(P, k)
    parse: Callable | None = None
    max_k: int | None = None


def _lookup(table: dict, spec: str, what: str):
    """(route, parsed parameter) for the name spec in table."""
    name, colon, text = spec.partition(":")
    for key, route in table.items():
        if route.parse and key.startswith(f"{name}:<"):
            return route, route.parse(text if colon else None)
        if key == spec:
            return route, None
    raise InputError(f"unknown {what} {spec!r}")


def _epsilon(text: str | None) -> float:
    if text is None:
        raise InputError("approx needs an epsilon, e.g. approx:0.1")
    try:
        eps = float(text)
    except ValueError:
        raise InputError(f"bad epsilon {text!r}")
    check_epsilon(eps)
    return eps


def _size(text: str | None) -> int:
    # str.isdigit alone accepts "\u00b2", which int() refuses.
    if text is None or not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise InputError("use bounded:<s> with s >= 1")
    return int(text)


# solve/plot/bench --method: run(P, k, parameter) gives a SolveResult.
# Each name runs one route.  auto runs the row route at every (h, k): on
# the grid in BENCH_auto.json no rule by (h, k) picks better, as where
# the matrix route wins (by at most 1.45x) it loses on other inputs of
# the same (h, k).
SOLVERS = {
    "auto": Route(lambda P, k, _: solve_by_rows(P, k)),
    "rows": Route(lambda P, k, _: solve_by_rows(P, k)),
    "matrix": Route(lambda P, k, _: solve_via_matrix(P, k)),
    "parametric": Route(lambda P, k, _: solve_parametric(P, k)),
    "one-center": Route(lambda P, k, _: solve_one_center(P), max_k=1),
    "gonzalez": Route(lambda P, k, _: gonzalez_2approx(P, k), "factor 2"),
    "approx:<eps>": Route(lambda P, k, eps: approx_solve(P, k, eps), "1+eps",
                          _epsilon),
}

# skyline --algo: run(P, parameter) gives the skyline, or None when the
# bounded probe finds more than s points.
SKYLINES = {
    "sort": Route(lambda P, _: slow_skyline(P)),
    "optimal": Route(lambda P, _: skyline_optimal(P)),
    "bounded:<s>": Route(lambda P, s: skyline_bounded(P, s).skyline,
                         parse=_size),
}

SOLVER_HELP = " | ".join(f"{name} ({route.guarantee})"
                         for name, route in SOLVERS.items())


def solver(method: str, ks) -> tuple[Callable, bool]:
    """(run(P, k) -> SolveResult, whether the route is exact) for a
    --method name, once every k in ks, the name and its parameter have
    been checked."""
    _at_least_1("k", *ks)
    route, param = _lookup(SOLVERS, method, "method")
    if route.max_k is not None and max(ks) > route.max_k:
        raise InputError(f"{method} requires k={route.max_k}")
    return lambda P, k: route.run(P, k, param), route.guarantee == "exact"


def _certify(S: SkylineArray, k: int, res: SolveResult, exact: bool) -> None:
    """Raise InternalInvariantViolation unless the decision on S finds k
    disks of res's radius enough and, for an exact route with a radius
    above 0, one ulp less too little."""
    lam_sq = res.lambda_star_sq
    if not decide_materialized(S, k, lam_sq).feasible:
        raise InternalInvariantViolation(
            f"{res.algorithm}: radius^2 {lam_sq.hex()} does not cover the skyline")
    if exact and lam_sq > 0 and decide_materialized(
            S, k, math.nextafter(lam_sq, 0)).feasible:
        raise InternalInvariantViolation(
            f"{res.algorithm}: radius^2 {lam_sq.hex()} is not the optimum")


def _timed(fn, *args):
    """fn(*args) on reset counters: (result, seconds, counter snapshot)."""
    counters.reset()
    started = time.perf_counter()
    result = fn(*args)
    seconds = time.perf_counter() - started
    return result, seconds, counters.snapshot()


def _staircase(P: PointSet) -> tuple[SkylineArray, PointSet]:
    """The production skyline S of P and the point set a route runs on:
    S's points, or P itself when every point is on S.  Every route's
    answer depends only on the skyline, so running it on S gives the
    same radius and centers without a pass over the dominated points."""
    S = slow_skyline(P)
    if len(S) == len(P):
        return S, P
    return S, PointSet(np.column_stack((S.xs, S.ys)))


def _decide(P: PointSet, k: int, lam_sq: float, grouped: bool):
    """The grouped decision on groups of min(k, n) points, the paper's
    size, or the materialized one on the production skyline."""
    if grouped:
        return decide_grouped(build(P, min(k, len(P))), k, lam_sq)
    return decide_materialized(slow_skyline(P), k, lam_sq)


def cmd_gen(args) -> int:
    _at_least_1("n", args.n)
    from .instances import InstanceSpec, generate

    P = generate(InstanceSpec(args.generator, args.n, args.seed))
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                write_points(P.points, fh)
        else:
            write_points(P.points, sys.stdout)
    except OSError as exc:
        raise InputError(str(exc))
    return EXIT_OK


def cmd_skyline(args) -> int:
    P = _load(args.input)
    route, param = _lookup(SKYLINES, args.algo, "algorithm")
    sky = route.run(P, param)
    if sky is None:
        print("incomplete")
        return EXIT_INCOMPLETE
    print(len(sky))
    write_points(sky.pts, sys.stdout)
    return EXIT_OK


def cmd_decide(args) -> int:
    P = _load(args.input)
    _at_least_1("k", args.k)
    if not args.lam >= 0:  # also rejects NaN
        raise InputError("lambda must be >= 0")
    out = _decide(P, args.k, args.lam * args.lam, args.grouped)
    if out.feasible:
        print("FEASIBLE")
        write_points(out.centers, sys.stdout)
        return EXIT_OK
    print("INCOMPLETE")
    return EXIT_INFEASIBLE


def _solve(args) -> tuple[PointSet, SkylineArray, SolveResult, dict]:
    """solve's and plot's run of --method on the input: the points P,
    their skyline S, the route's certified result on S and its counter
    snapshot."""
    P = _load(args.input)
    run, exact = solver(args.method, [args.k])
    S, on = _staircase(P)  # before _timed, which resets the counters
    res, _, snap = _timed(run, on, args.k)
    _certify(S, args.k, res, exact)  # after the counter snapshot
    return P, S, res, snap


def cmd_solve(args) -> int:
    started = time.perf_counter()  # time_ms covers the read and skyline too
    P, S, res, snap = _solve(args)
    report = RunReport(res, len(P), len(S), args.k,
                       (time.perf_counter() - started) * 1e3, snap)
    if args.json:
        import json

        print(json.dumps(report.to_json_obj(), sort_keys=True))
    else:
        for line in report.kv_lines():
            print(line)
    return EXIT_OK


def _bench_radius(P: PointSet, k: int) -> float:
    psi_sq = gonzalez_2approx(P, k).lambda_star_sq
    return 0.98 * psi_sq / 4.0  # just below opt/2-ish: forces k rounds


# bench --method, beyond the solvers: (untimed set-up that picks the
# radius, or None; timed call(P, k, radius) -> SolveResult).
BENCH_JOBS = {
    **{f"skyline-{name}": (None, lambda P, k, _, r=route, tag=f"skyline-{name}":
                           SolveResult(0.0, r.run(P, None).pts, tag))
       for name, route in SKYLINES.items() if route.parse is None},
    "decide-materialized": (_bench_radius, lambda P, k, lam_sq: SolveResult(
        lam_sq, _decide(P, k, lam_sq, False).centers, "decide-materialized")),
    "decide-grouped": (_bench_radius, lambda P, k, lam_sq: SolveResult(
        lam_sq, _decide(P, k, lam_sq, True).centers, "decide-grouped")),
}

BENCH_COUNTERS = ("skyline_comparisons", "binary_searches",
                  "binary_search_probes", "dist_evals", "decide_calls",
                  "multiarray_probes", "multiarray_touches")


def cmd_bench(args) -> int:
    from .instances import InstanceSpec, generate

    try:
        ns = [int(v) for v in args.n.split(",")]
        ks = [int(v) for v in args.k.split(",")]
    except ValueError:
        raise InputError("--n/--k must be comma-separated integers")
    _at_least_1("n", *ns)
    _at_least_1("k", *ks)
    if args.method in BENCH_JOBS:
        setup, timed = BENCH_JOBS[args.method]
    else:
        run, _ = solver(args.method, ks)
        setup, timed = None, lambda P, k, _: run(P, k)
    cols = ["gen", "n", "h", "k", "method", "ms", *BENCH_COUNTERS,
            "t_ratio", "c_ratio", "digest"]
    print("\t".join(cols))
    lead_counter = ("binary_search_probes" if "decide" in args.method
                    else "skyline_comparisons")
    prev: dict[int, tuple[float, int, int]] = {}  # k -> last (secs, lead, n)
    for k in ks:
        for n in ns:
            P = generate(InstanceSpec(args.generator, n, args.seed))
            lam_sq = setup(P, k) if setup else 0.0
            res, secs, snap = _timed(timed, P, k, lam_sq)
            h = len(slow_skyline(P))  # after the snapshot
            lead = snap.get(lead_counter, 0)
            t_ratio = c_ratio = ""
            if k in prev and prev[k][2] * 2 == n:
                p_secs, p_lead, _ = prev[k]
                if p_secs > 0:
                    t_ratio = f"{secs / p_secs:.2f}"
                if p_lead > 0:
                    c_ratio = f"{lead / p_lead:.2f}"
            prev[k] = (secs, lead, n)
            row = [args.generator, str(n), str(h), str(k), args.method,
                   f"{secs * 1e3:.2f}",
                   *[str(snap.get(c, 0)) for c in BENCH_COUNTERS],
                   t_ratio, c_ratio, _digest(res.centers, res.lambda_star_sq)]
            print("\t".join(row))
    return EXIT_OK


def cmd_plot(args) -> int:
    from .svgplot import render_svg

    P, sky, res, _ = _solve(args)
    doc = render_svg(P, sky, res.centers, res.lambda_star)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(doc)
    except OSError as exc:
        raise InputError(str(exc))
    print(f"wrote {args.out} method={res.algorithm} "
          f"lambda_star={res.lambda_star:.12f}")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pareto-kcenter",
        description="Representative skylines: k-center along the Pareto front")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded instance")
    p.add_argument("--generator", choices=GENERATORS, default="uniform-square")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("skyline", help="compute the skyline of a point file")
    p.add_argument("input")
    p.add_argument("--algo", default="sort",
                   help=" | ".join(SKYLINES) + "; sort is the production "
                        "route, optimal the paper's O(n log h) one")
    p.set_defaults(func=cmd_skyline)

    p = sub.add_parser("decide", help="is opt(P,k) <= lambda?")
    p.add_argument("input")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lam", type=float, required=True,
                   help="radius in distance units")
    p.add_argument("--grouped", action="store_true",
                   help="use the grouped decision on groups of k points")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("solve", help="compute opt(P,k) and centers")
    p.add_argument("input")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", default="auto", help=SOLVER_HELP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="scaling table over seeded instances")
    p.add_argument("--generator", choices=GENERATORS, default="uniform-square")
    p.add_argument("--n", required=True, help="comma-separated sizes")
    p.add_argument("--k", default="2", help="comma-separated k values")
    p.add_argument("--method", default="skyline-optimal",
                   help=" | ".join(BENCH_JOBS) + " | " + SOLVER_HELP
                   + "; solvers run on the generated points")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("plot", help="solve and render an SVG view")
    p.add_argument("input")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", default="auto", help=SOLVER_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, EmptyInput, InvalidEpsilon) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
