"""Layered benchmark of the pareto-kcenter CLI.

    python3 perfbench/run.py --workload ingest-bulk --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is taken from
``src/``.  Inputs are generated from ``--seed`` (see workloads.py) and
cached, outside every timing.

``--trace 0`` is the end-to-end run: a closed loop with one client runs
the workload's job list pass after pass, one CLI subprocess per job,
serially: one whole pass, then further jobs while the next one fits in
``--seconds``.  Before each job ``python -m pareto_kcenter --version``
is timed as a set-up sample, and after each job the fixed reference
program (reference.py) is timed; each job's wall time is divided by the
mean of the four reference runs nearest it, two before and two after.
Every answer is certified by certify.py.  ``--trace 1`` is the per-layer
run: the same jobs in this process through ``cli.main``, each once
untraced and once traced, with spans recorded around the package's
public functions (spans.py).  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")
REFERENCE = os.path.join(HERE, "reference.py")
JOB_TIMEOUT_S = 60.0  # a job still running after this is killed and failed

sys.path.insert(0, HERE)
import certify  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def tail_percentile(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None with fewer than eleven samples."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    i = len(ordered) - 11
    return int(100 * (i + 1) / len(ordered)), ordered[i]


def cli_argv(job, inputs):
    paths = {name: inp.path for name, inp in inputs.items()}
    return [arg.format(**paths) for arg in job.argv]


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


class Child:
    """Runs `python -m pareto_kcenter ...` and reaps it with wait4, so the
    max-RSS is this child's own, not the cumulative RUSAGE_CHILDREN."""

    def __init__(self):
        self.env = _child_env()
        self.stderr_path = os.path.join(OUT, f"stderr-{os.getpid()}.txt")

    def run(self, argv):
        """(wall seconds, exit code, stdout text, max-RSS in MB)."""
        t0 = time.perf_counter()
        with open(self.stderr_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "pareto_kcenter", *argv],
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
                env=self.env, cwd=ROOT)
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
            except BaseException:
                proc.kill()
                raise
            finally:
                timer.cancel()
                timer.join()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - t0
        return wall, proc.returncode, out.decode(), usage.ru_maxrss / 1024.0

    def reference(self):
        """Wall seconds of one run of the reference program."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, REFERENCE], stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       cwd=ROOT, check=True, timeout=JOB_TIMEOUT_S)
        return time.perf_counter() - t0

    def stderr_tail(self):
        with open(self.stderr_path, encoding="utf-8", errors="replace") as fh:
            return fh.read()[-300:].strip()


def run_end_to_end(jobs, inputs, seconds):
    child = Child()
    try:
        return _end_to_end(child, jobs, inputs, seconds)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(child.stderr_path)


def _end_to_end(child, jobs, inputs, seconds):
    child.run(["--version"])  # compiles the package's bytecode, untimed
    child.reference()  # warms the file cache for numpy, untimed
    refs = [child.reference()]  # refs[i] and refs[i + 1] bracket sample i
    setup, records = [], []
    failed = 0
    cycle_s = {}  # job name -> seconds its last cycle took
    t0 = time.perf_counter()
    for i in itertools.count():
        job = jobs[i % len(jobs)]
        # Whole passes first, then jobs as long as the next one still fits.
        if i >= len(jobs) and (time.perf_counter() - t0 + cycle_s[job.name]
                               > seconds):
            break
        c0 = time.perf_counter()
        # Set-up samples interleave with the jobs of every pass, so that
        # their median spans the whole run, not one burst of noise.
        setup.append(child.run(["--version"])[0])
        wall, code, out, rss_mb = child.run(cli_argv(job, inputs))
        refs.append(child.reference())
        problem = certify.check(job, code, out, inputs[job.input])
        if problem and code not in (0, 1):
            problem += f" ({child.stderr_tail()})"
        failed += problem is not None
        records.append({"pass": i // len(jobs), "job": job.name,
                        "wall_s": wall, "exit": code, "rss_mb": rss_mb,
                        "problem": problem})
        cycle_s[job.name] = time.perf_counter() - c0

    def per_job(key):
        return {job.name: statistics.median(
            r[key] for r in records if r["job"] == job.name) for job in jobs}

    # One reference run is too short to average out the machine's jitter;
    # the mean of the four nearest it, two before and two after, still
    # follows its drift.
    for i, r in enumerate(records):
        r["ref_s"] = statistics.mean(refs[max(0, i - 1):i + 3])
        r["rel"] = r["wall_s"] / r["ref_s"]
    passes = []
    for n in range(len(records) // len(jobs)):
        rows = records[n * len(jobs):(n + 1) * len(jobs)]
        passes.append({"wall_s": sum(r["wall_s"] for r in rows),
                       "rel": sum(r["rel"] for r in rows),
                       "peak_rss_mb": max(r["rss_mb"] for r in rows)})
    metrics = {
        "pass_rel": (sum(per_job("rel").values()), "ref"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(per_job("rss_mb").values()), "MB"),
    }
    pass_s = sum(per_job("wall_s").values())
    tail = tail_percentile([p["rel"] for p in passes])
    summary = [
        f"pass_rel={metrics['pass_rel'][0]:.4f} reference runs: the sum "
        f"over jobs of each job's median wall / reference wall, "
        f"{len(records)} jobs in {len(passes)} whole passes;"
        + (f" p{tail[0]}={tail[1]:.4f}" if tail
           else " no percentile has ten samples beyond it"),
        f"pass_s={pass_s:.4f} s (the same sum of raw walls); reference "
        f"median={statistics.median(refs):.4f} s over {len(refs)} runs",
        f"setup_s median={metrics['setup_s'][0]:.4f} s over {len(setup)} runs",
        f"peak_rss_mb={metrics['peak_rss_mb'][0]:.1f} MB",
        f"failed_frac={failed}/{len(records)}",
        *[f"FAILED {r['job']}: {r['problem']}" for r in records
          if r["problem"]][:5],
    ]
    detail = {"passes": passes, "setup_s": setup, "reference_s": refs,
              "jobs": records}
    return len(records), failed, metrics, summary, detail


def _in_process(cli, argv, tracer):
    """Run one job through cli.main, traced when tracer is not None;
    (wall, exit code, stdout)."""
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()), \
            (contextlib.nullcontext() if tracer is None
             else tracer.span(spans.JOB)):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed job, as in a subprocess
            code = 1
    return time.perf_counter() - t0, code, out.getvalue()


def run_traced(jobs, inputs, seconds, workload, seed):
    sys.path.insert(0, SRC)
    from pareto_kcenter import cli
    from pareto_kcenter.instrument import counters

    tracer = spans.Tracer(counters)
    untraced, traced = [], []  # per pass
    failed = attempted = 0
    reported_s = solve_wall_s = 0.0
    problems = []
    # The first in-process run grows the heap; keep that out of the timing.
    _in_process(cli, cli_argv(jobs[0], inputs), None)
    # Each job runs untraced and traced back to back, in alternating
    # order, so that slow spells of the machine hit both sides alike.
    while not traced or sum(untraced) + sum(traced) + statistics.median(
            untraced) + statistics.median(traced) <= seconds:
        walls = {False: 0.0, True: 0.0}
        for jid, job in enumerate(jobs):
            argv = cli_argv(job, inputs)
            for is_traced in ((False, True) if len(traced) % 2 == 0
                              else (True, False)):
                if is_traced:
                    tracer.job = len(traced) * len(jobs) + jid
                    with spans.tracing(tracer):
                        wall, code, out = _in_process(cli, argv, tracer)
                else:
                    wall, code, out = _in_process(cli, argv, None)
                walls[is_traced] += wall
                attempted += 1
                problem = certify.check(job, code, out, inputs[job.input])
                if problem:
                    failed += 1
                    problems.append(f"FAILED {job.name}: {problem}")
                if is_traced and job.kind == "solve" and problem is None:
                    reported_s += json.loads(out)["time_ms"] / 1e3
                    solve_wall_s += wall
        untraced.append(walls[False])
        traced.append(walls[True])

    analysis = spans.Analysis(tracer.spans)
    n = len(traced)
    overhead = sum(traced) / sum(untraced) - 1.0
    per = spans.layer_metrics(analysis, n, n * len(jobs), reported_s,
                              solve_wall_s, overhead)
    units = {name: unit for name, unit, _ in spans.PER_LAYER}
    metrics = {name: (per[name], units[name]) for name, _, _ in spans.PER_LAYER}

    traced_wall = sum(traced)
    summary = spans.self_time_table(analysis, traced_wall, n, overhead)
    summary += [f"failed_frac={failed}/{attempted}", *problems[:5]]
    rows = spans.DESIGN[workload]
    share = analysis.covered_s(analysis.in_rows(rows)) / traced_wall
    summary.append(f"design: {' + '.join(rows)} cover {share:.1%} of the "
                   f"traced wall ({'ok' if share > 0.5 else 'NOT MET'}: > 50%)")
    solve_jobs = {j for j, job in enumerate(jobs * n) if job.kind == "solve"}
    with_h = {analysis.spans[i].job for i in range(len(analysis.spans))
              if analysis.spans[i].name == spans.H_RECOMPUTE}
    if solve_jobs:
        summary.append(f"design: {spans.H_RECOMPUTE} span on "
                       f"{len(solve_jobs & with_h)}/{len(solve_jobs)} solve jobs")

    dump = os.path.join(OUT, f"spans-{workload}-{seed}.jsonl")
    with open(dump, "w", encoding="utf-8") as fh:
        for sp in tracer.spans:
            fh.write(json.dumps({"name": sp.name, "start": sp.start,
                                 "end": sp.end, "parent": sp.parent,
                                 "job": sp.job, "counters": sp.counters,
                                 "tag": sp.tag}) + "\n")
    summary.append(f"spans: {len(tracer.spans)} written to "
                   f"{os.path.relpath(dump, ROOT)}")
    detail = {"untraced_pass_s": untraced, "traced_pass_s": traced}
    return attempted, failed, metrics, summary, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "pareto_kcenter", "__init__.py")):
        print(f"error: no package source at {os.path.relpath(SRC)}; run from "
              f"the root of a pareto-kcenter checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    inputs = workloads.load_inputs(args.workload, args.seed)
    jobs = workloads.jobs_for(args.workload, inputs)
    if args.trace:
        attempted, failed, metrics, summary, detail = run_traced(
            jobs, inputs, args.seconds, args.workload, args.seed)
    else:
        attempted, failed, metrics, summary, detail = run_end_to_end(
            jobs, inputs, args.seconds)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "inputs": {name: {"file": os.path.basename(inp.path),
                          "sha256": inp.sha256, "n": inp.n,
                          "h": len(inp.sky)}
                   for name, inp in inputs.items()},
        "metrics": {k: v for k, (v, _) in metrics.items()},
        **detail,
    }
    path = os.path.join(OUT, f"run-{args.workload}-{args.seed}-"
                             f"trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    for name, inp in sorted(inputs.items()):
        print(f"input {name}: n={inp.n} h={len(inp.sky)} "
              f"sha256={inp.sha256[:16]}")
    for line in summary:
        print(line)
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
