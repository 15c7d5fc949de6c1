"""Compare two checkouts (or two sets of runs of one) on the benchmark.

    python3 perfbench/compare.py run --base A --change B --seed 1 --out r.jsonl
    python3 perfbench/compare.py report r.jsonl

``run`` makes, for each pair, one end-to-end run of every workload in
BENCHMARK.json on each side, alternating which side runs first; each
side runs its own ``perfbench/run.py`` from its own root.  Every pair of
one compare uses the same seed, so each side's spread is the machine's
alone, not the inputs'.  ``report`` judges every end-to-end metric x
workload:

* a gain needs at least 9/10 of the pairs won (ties count for neither)
  and a median difference larger than the base's interquartile spread;
* where either side's spread (IQR / median) exceeds the metric's bound
  in BENCHMARK.json, the metric is unresolved, unless every change run
  beats every base run;
* otherwise a change whose median is worse than the base's by more than
  the bound is a regression.

``report`` exits 1 when it finds a regression or a failed job, and 2
when a workload has fewer than MIN_PAIRS pairs or one seed is not used
throughout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import tail_percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_PAIRS = 10
# Per-pass values of a run record that report pools across runs:
# {record key: label}.
POOLED = {"rel": "pass_rel", "wall_s": "pass_s (raw wall)"}
WIN_SHARE = 0.9


def load_spec(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _one_run(side_root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=side_root, capture_output=True, text=True,
                          timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{side_root}: {' '.join(cmd)} exited "
                           f"{proc.returncode}: {proc.stderr[-500:]}")
    record_path = os.path.join(side_root, "perfbench", ".out",
                               f"run-{workload}-{seed}-trace0.json")
    with open(record_path, encoding="utf-8") as fh:
        record = json.load(fh)
    return json.loads(lines[-1]), record


def cmd_run(args):
    if args.pairs < MIN_PAIRS:
        sys.exit(f"--pairs must be at least {MIN_PAIRS}")
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    sides = {"base": os.path.abspath(args.base),
             "change": os.path.abspath(args.change)}
    with open(args.out, "x", encoding="utf-8") as out:
        seed = args.seed
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for workload in workloads:
                for side in order:
                    result, record = _one_run(sides[side], workload, seed,
                                              spec["run_seconds"])
                    row = {"pair": pair, "seed": seed, "workload": workload,
                           "side": side, "first": order[0], "result": result,
                           "pass_samples": {
                               key: [p[key] for p in record["passes"]]
                               for key in POOLED},
                           "inputs": record["inputs"]}
                    out.write(json.dumps(row) + "\n")
                    out.flush()
                    print(f"pair {pair} seed {seed} {workload:16s} {side:6s} "
                          + " ".join(f"{k}={v['value']:.4f}" for k, v in
                                     result["metrics"].items()), flush=True)
    return 0


def quartiles(values):
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def judge(base, change, bound, better):
    """Verdict for paired samples of one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (b - c) > 0)
    bq1, bmed, bq3 = quartiles(base)
    cmed = statistics.median(change)
    worse_by = sign * (cmed - bmed) / bmed
    if wins >= WIN_SHARE * len(pairs) and abs(cmed - bmed) > bq3 - bq1:
        verdict = "gain"
    elif max(spread(base), spread(change)) > bound:
        all_better = (max(change) < min(base) if better == "lower"
                      else min(change) > max(base))
        verdict = "better (every run)" if all_better else "unresolved"
    elif worse_by > bound:
        verdict = "REGRESSION"
    else:
        verdict = "within bound"
    return {"wins": wins, "base_spread": spread(base),
            "change_spread": spread(change), "verdict": verdict}


def cmd_report(args):
    spec = load_spec()
    with open(args.results, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    seeds = {r["seed"] for r in rows}
    if len(seeds) > 1:
        print(f"error: one compare uses one seed; found {sorted(seeds)}",
              file=sys.stderr)
        return 2
    bad = 0
    for row in rows:
        res = row["result"]
        if res["failed"] or not res["correct"]:
            bad += 1
            print(f"FAILED JOBS: {row['side']} {row['workload']} seed "
                  f"{row['seed']}: {res['failed']}/{res['attempted']}")
    regressions = 0
    for wl in spec["workloads"]:
        by = {side: {r["pair"]: r for r in rows
                     if r["workload"] == wl["name"] and r["side"] == side}
              for side in ("base", "change")}
        pairs = sorted(set(by["base"]) & set(by["change"]))
        if len(pairs) < MIN_PAIRS:
            print(f"error: {wl['name']} has {len(pairs)} complete pairs, "
                  f"fewer than {MIN_PAIRS}", file=sys.stderr)
            return 2
        print(f"\n{wl['name']}: {len(pairs)} pairs, seed {rows[0]['seed']}")
        print(f"  {'metric':<12}{'base q1/med/q3':>30}{'change q1/med/q3':>30}"
              f"{'spread b/c':>14}{'bound':>7}{'wins':>6}  verdict")
        for m in spec["end_to_end"]:
            name = m["name"]
            base = [by["base"][p]["result"]["metrics"][name]["value"]
                    for p in pairs]
            change = [by["change"][p]["result"]["metrics"][name]["value"]
                      for p in pairs]
            v = judge(base, change, m["bound"], m["better"])
            regressions += v["verdict"] == "REGRESSION"
            bq, cq = quartiles(base), quartiles(change)
            print(f"  {name:<12}"
                  f"{'/'.join(f'{x:.4g}' for x in bq):>30}"
                  f"{'/'.join(f'{x:.4g}' for x in cq):>30}"
                  f"{v['base_spread']:>7.3f}/{v['change_spread']:<6.3f}"
                  f"{m['bound']:>7.2f}{v['wins']:>6}  {v['verdict']}")
        for side in ("base", "change"):
            for key, label in POOLED.items():
                pooled = [x for p in pairs
                          for x in by[side][p]["pass_samples"][key]]
                tail = tail_percentile(pooled)
                tail = f", p{tail[0]}={tail[1]:.4f}" if tail else ""
                print(f"  {side} {label} pooled over {len(pooled)} whole "
                      f"passes: median={statistics.median(pooled):.4f}{tail}")
    return 1 if regressions or bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run paired benchmark runs")
    p.add_argument("--base", required=True, help="root of the base checkout")
    p.add_argument("--change", required=True,
                   help="root of the changed checkout")
    p.add_argument("--pairs", type=int, default=MIN_PAIRS,
                   help=f"pairs to run, at least {MIN_PAIRS}")
    p.add_argument("--seed", type=int, default=1,
                   help="seed of every pair; confirm a claim with a second "
                        "compare on the held-out seed 9973")
    p.add_argument("--out", required=True, help="results file (must not exist yet)")
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("report", help="judge a results file")
    p.add_argument("results")
    p.set_defaults(func=cmd_report)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
