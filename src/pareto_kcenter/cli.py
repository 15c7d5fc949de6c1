"""Command-line front end.

Subcommands: gen, skyline, decide, solve, bench, plot.
Exit codes: 0 success/feasible, 1 infeasible, 2 input error,
3 incomplete (bounded skyline probe with s < h).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

from . import __version__
from .decision import decide_grouped, decide_materialized
from .errors import EmptyInput, InvalidEpsilon
from .exact import solve_parametric, solve_via_matrix
from .geom import Point, PointSet
from .grouped import build
from .instances import DEFAULT_SEED, GENERATORS, InstanceSpec, generate
from .instrument import counters
from .oracle import brute_skyline
from .pointio import PointFileError, fmt_coord, read_point_file, write_points
from .skyline import skyline_bounded, skyline_optimal, slow_skyline
from .smallk import approx_solve, gonzalez_2approx, solve_one_center
from .svgplot import render_svg

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_INCOMPLETE = 3


def _env_seed() -> int:
    raw = os.environ.get("PARETO_KCENTER_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        print(f"error: bad PARETO_KCENTER_SEED: {raw!r}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _load(path: str) -> PointSet:
    try:
        P = read_point_file(path)
    except (OSError, PointFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)
    if len(P) == 0:
        print("error: no points in input", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)
    return P


def _digest(centers, lambda_star_sq: float) -> str:
    blob = ";".join(f"{fmt_coord(c.x)},{fmt_coord(c.y)}"
                    for c in sorted(centers, key=lambda c: (c.x, c.y)))
    blob += f"|{lambda_star_sq.hex()}"
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class RunReport:
    """One solver run: inputs, result, timing, and counters.  The digest
    hashes the sorted center coordinates plus the exact squared radius,
    so identical results collide and any difference shows."""

    method: str
    n: int
    h: int
    k: int
    lambda_star_sq: float
    centers: tuple
    time_ms: float
    counters: dict = field(default_factory=dict)

    @property
    def lambda_star(self) -> float:
        return math.sqrt(self.lambda_star_sq)

    @property
    def digest(self) -> str:
        return _digest(self.centers, self.lambda_star_sq)

    def kv_lines(self):
        yield f"method={self.method}"
        yield f"n={self.n}"
        yield f"h={self.h}"
        yield f"k={self.k}"
        yield f"lambda_star={self.lambda_star:.12f}"
        yield f"lambda_star_sq={self.lambda_star_sq.hex()}"
        yield f"centers={len(self.centers)}"
        for c in self.centers:
            yield f"center={fmt_coord(c.x)} {fmt_coord(c.y)}"
        yield f"digest={self.digest}"
        for key in sorted(self.counters):
            yield f"counter.{key}={self.counters[key]}"

    def to_json_obj(self) -> dict:
        return {
            "method": self.method,
            "n": self.n,
            "h": self.h,
            "k": self.k,
            "lambda_star": self.lambda_star,
            "lambda_star_sq_hex": self.lambda_star_sq.hex(),
            "centers": [[c.x, c.y] for c in self.centers],
            "digest": self.digest,
            "time_ms": self.time_ms,
            "counters": self.counters,
        }


def _run_solver(P: PointSet, k: int, method: str):
    """Returns (tag, lambda_star_sq, centers)."""
    if method == "matrix":
        res = solve_via_matrix(P, k)
        return res.algorithm, res.lambda_star_sq, res.centers
    if method in ("parametric", "auto"):
        res = solve_parametric(P, k)
        return res.algorithm, res.lambda_star_sq, res.centers
    if method == "one-center":
        if k != 1:
            print("error: one-center requires k=1", file=sys.stderr)
            raise SystemExit(EXIT_INPUT)
        res = solve_one_center(P)
        return res.algorithm, res.lambda_star_sq, res.centers
    if method == "gonzalez":
        centers, psi_sq = gonzalez_2approx(P, k)
        return "gonzalez", psi_sq, tuple(centers)
    if method.startswith("approx"):
        parts = method.split(":", 1)
        if len(parts) != 2:
            print("error: approx needs an epsilon, e.g. approx:0.1",
                  file=sys.stderr)
            raise SystemExit(EXIT_INPUT)
        try:
            eps = float(parts[1])
        except ValueError:
            print(f"error: bad epsilon {parts[1]!r}", file=sys.stderr)
            raise SystemExit(EXIT_INPUT)
        centers, psi_sq = approx_solve(P, k, eps)
        return f"approx:{parts[1]}", psi_sq, tuple(centers)
    print(f"error: unknown method {method!r}", file=sys.stderr)
    raise SystemExit(EXIT_INPUT)


def cmd_gen(args) -> int:
    if args.n < 1:
        print("error: n must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    params = {}
    for kv in args.param:
        key, sep, val = kv.partition("=")
        try:
            if not sep:
                raise ValueError
            params[key] = float(val)
        except ValueError:
            print(f"error: bad --param {kv!r}, expected KEY=NUMBER",
                  file=sys.stderr)
            return EXIT_INPUT
    try:
        P = generate(InstanceSpec(args.generator, args.n, args.seed, params))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                write_points(P.points, fh)
        else:
            write_points(P.points, sys.stdout)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def cmd_skyline(args) -> int:
    P = _load(args.input)
    algo = args.algo
    if algo == "sort":
        sky = slow_skyline(P).pts
    elif algo == "optimal":
        sky = skyline_optimal(P).pts
    elif algo == "brute":
        sky = brute_skyline(P).pts
    elif algo.startswith("bounded"):
        parts = algo.split(":", 1)
        if (len(parts) != 2 or not (parts[1].isascii() and parts[1].isdigit())
                or int(parts[1]) < 1):
            print("error: use bounded:<s> with s >= 1", file=sys.stderr)
            return EXIT_INPUT
        result = skyline_bounded(P, int(parts[1]))
        if not result.complete:
            print("incomplete")
            return EXIT_INCOMPLETE
        sky = result.skyline.pts
    else:
        print(f"error: unknown algorithm {algo!r}", file=sys.stderr)
        return EXIT_INPUT
    print(len(sky))
    write_points(sky, sys.stdout)
    return EXIT_OK


def cmd_decide(args) -> int:
    P = _load(args.input)
    if args.k < 1:
        print("error: k must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    if not args.lam >= 0:  # also rejects NaN
        print("error: lambda must be >= 0", file=sys.stderr)
        return EXIT_INPUT
    if args.grouped is not None and args.grouped < 0:
        print("error: KAPPA must be >= 1 (0 or omitted means k)",
              file=sys.stderr)
        return EXIT_INPUT
    lam_sq = args.lam * args.lam
    if args.grouped is not None:
        kappa = args.grouped if args.grouped > 0 else args.k
        kappa = min(max(kappa, 1), len(P))
        out = decide_grouped(build(P, kappa), args.k, lam_sq)
    else:
        out = decide_materialized(slow_skyline(P), args.k, lam_sq)
    if out.feasible:
        print("FEASIBLE")
        write_points(out.centers, sys.stdout)
        return EXIT_OK
    print("INCOMPLETE")
    return EXIT_INFEASIBLE


def cmd_solve(args) -> int:
    P = _load(args.input)
    if args.k < 1:
        print("error: k must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    counters.reset()
    started = time.perf_counter()
    tag, lam_sq, centers = _run_solver(P, args.k, args.method)
    elapsed_ms = (time.perf_counter() - started) * 1e3
    snap = counters.snapshot()
    report = RunReport(tag, len(P), len(slow_skyline(P)), args.k,
                       lam_sq, tuple(centers), elapsed_ms, snap)
    if args.json:
        print(json.dumps(report.to_json_obj(), sort_keys=True))
    else:
        for line in report.kv_lines():
            print(line)
    return EXIT_OK


def _bench_once(P: PointSet, k: int, method: str):
    """Returns (h, seconds, counter snapshot, digest)."""
    counters.reset()
    started = time.perf_counter()
    if method == "skyline-slow":
        sky = slow_skyline(P)
        payload = (tuple(sky.pts), 0.0)
    elif method == "skyline-optimal":
        sky = skyline_optimal(P)
        payload = (tuple(sky.pts), 0.0)
    elif method in ("decide-materialized", "decide-grouped"):
        _, psi_sq = gonzalez_2approx(P, k)
        lam_sq = 0.98 * psi_sq / 4.0  # just below opt/2-ish: forces k rounds
        counters.reset()
        started = time.perf_counter()
        if method == "decide-grouped":
            G = build(P, min(max(k, 1), len(P)))
            out = decide_grouped(G, k, lam_sq)
        else:
            out = decide_materialized(skyline_optimal(P), k, lam_sq)
        payload = (out.centers, lam_sq)
    else:
        tag, lam_sq, centers = _run_solver(P, k, method)
        payload = (centers, lam_sq)
    elapsed = time.perf_counter() - started
    snap = counters.snapshot()  # before the h recomputation below
    h = len(slow_skyline(P))
    return h, elapsed, snap, _digest(payload[0], payload[1])


BENCH_METHODS = ("skyline-slow", "skyline-optimal", "decide-materialized",
                 "decide-grouped", "matrix", "parametric", "auto", "gonzalez",
                 "one-center")  # and approx:<eps>

BENCH_COUNTERS = ("skyline_comparisons", "binary_searches",
                  "binary_search_probes", "dist_evals", "decide_calls")


def cmd_bench(args) -> int:
    try:
        ns = [int(v) for v in args.n.split(",")]
        ks = [int(v) for v in args.k.split(",")]
    except ValueError:
        print("error: --n/--k must be comma-separated integers",
              file=sys.stderr)
        return EXIT_INPUT
    if any(n < 1 for n in ns):
        print("error: n must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    if any(k < 1 for k in ks):
        print("error: k must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    if args.method not in BENCH_METHODS and not args.method.startswith("approx:"):
        print(f"error: unknown method {args.method!r}", file=sys.stderr)
        return EXIT_INPUT
    cols = ["gen", "n", "h", "k", "method", "ms", *BENCH_COUNTERS,
            "t_ratio", "c_ratio", "digest"]
    print("\t".join(cols))
    prev: dict[tuple, tuple[float, int]] = {}
    for k in ks:
        for n in ns:
            spec = InstanceSpec(args.generator, n, args.seed)
            P = generate(spec)
            h, secs, snap, digest = _bench_once(P, k, args.method)
            default_lead = ("binary_search_probes" if "decide" in args.method
                            else BENCH_COUNTERS[0])
            lead = snap.get(args.lead_counter or default_lead, 0)
            key = (args.generator, k, args.method)
            t_ratio = c_ratio = ""
            if key in prev and prev[key][2] * 2 == n:
                p_secs, p_lead, _ = prev[key]
                if p_secs > 0:
                    t_ratio = f"{secs / p_secs:.2f}"
                if p_lead > 0:
                    c_ratio = f"{lead / p_lead:.2f}"
            prev[key] = (secs, lead, n)
            row = [args.generator, str(n), str(h), str(k), args.method,
                   f"{secs * 1e3:.2f}",
                   *[str(snap.get(c, 0)) for c in BENCH_COUNTERS],
                   t_ratio, c_ratio, digest]
            print("\t".join(row))
    return EXIT_OK


def cmd_plot(args) -> int:
    P = _load(args.input)
    if args.k < 1:
        print("error: k must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    tag, lam_sq, centers = _run_solver(P, args.k, args.method)
    sky = slow_skyline(P)
    doc = render_svg(P, sky, centers, math.sqrt(lam_sq))
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(doc)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(f"wrote {args.out} method={tag} lambda_star={math.sqrt(lam_sq):.12f}")
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
    p.add_argument("--seed", type=int, default=_env_seed())
    p.add_argument("--param", action="append", default=[],
                   metavar="KEY=VAL", help="generator parameter")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("skyline", help="compute the skyline of a point file")
    p.add_argument("input")
    p.add_argument("--algo", default="sort",
                   help="sort (production) | bounded:<s> | optimal "
                        "(the paper's O(n log h) route) | brute")
    p.set_defaults(func=cmd_skyline)

    p = sub.add_parser("decide", help="is opt(P,k) <= lambda?")
    p.add_argument("input")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lam", type=float, required=True,
                   help="radius in distance units")
    p.add_argument("--grouped", type=int, nargs="?", const=0, default=None,
                   metavar="KAPPA",
                   help="use the grouped decision (default kappa=k)")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("solve", help="compute opt(P,k) and centers")
    p.add_argument("input")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", default="auto",
                   help="matrix | parametric | auto | approx:<eps> | "
                        "gonzalez | one-center")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="scaling table over seeded instances")
    p.add_argument("--generator", choices=GENERATORS, default="uniform-square")
    p.add_argument("--n", required=True, help="comma-separated sizes")
    p.add_argument("--k", default="2", help="comma-separated k values")
    p.add_argument("--method", default="skyline-optimal",
                   help=" | ".join(BENCH_METHODS) + " | approx:<eps>")
    p.add_argument("--seed", type=int, default=_env_seed())
    p.add_argument("--lead-counter", default=None,
                   help="counter for the c_ratio column")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("plot", help="solve and render an SVG view")
    p.add_argument("input")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", default="auto")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EmptyInput, InvalidEpsilon) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
