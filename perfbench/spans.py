"""In-process span tracing of the package, from outside it, and the
per-layer metrics computed from the spans.

``tracing(tracer)`` replaces, in every module of the package, each name
that refers to one of the traced public functions with a wrapper that
records a span, and restores the originals on exit.  Callers look those
names up at call time, so ``exact.decide_materialized`` or
``cli.skyline_optimal`` reach the wrapper without any change to the
package.  Spans stay in memory; the caller writes them out at the end.

A span is (name, start, end, parent index, job id, counter deltas, tag):
the deltas are taken from ``instrument.counters`` and survive the
``counters.reset()`` that ``cmd_solve`` makes at its start.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

# Public functions traced, by module; a span is named "<module>.<function>".
# Layers are the modules, except that the grouped structure's build and
# its queries are separate rows.
TARGETS = {
    "cli": ("main", "cmd_solve", "cmd_decide", "cmd_skyline"),
    "pointio": ("read_point_file", "parse_points"),
    "skyline": ("skyline_optimal", "skyline_bounded", "slow_skyline"),
    "grouped": ("build", "next_on_skyline", "test_membership_and_prev",
                "next_relevant_point"),
    "decision": ("decide_materialized", "decide_grouped"),
    "exact": ("solve_via_matrix", "solve_parametric", "matrix_select",
              "multi_array_search"),
    "smallk": ("solve_one_center", "gonzalez_2approx", "approx_solve",
               "bisector_extremes"),
}
ROWS = ("cli", "pointio", "geom", "skyline", "grouped.build",
        "grouped.query", "decision", "exact", "smallk")
H_RECOMPUTE = "cli.h_recompute"
DEDUP = "geom.dedup"


def row_of(name):
    """Table row (layer) of a span name."""
    module, _, function = name.partition(".")
    if module == "grouped":
        return "grouped.build" if function == "build" else "grouped.query"
    return module


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    job: int = -1
    counters: dict = field(default_factory=dict)
    tag: object = None


class Tracer:
    def __init__(self, counters):
        self.counters = counters
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.job = -1
        self.reset_base: dict[str, int] = {}  # totals wiped by resets

    def totals(self):
        out = dict(self.reset_base)
        for key, val in self.counters.data.items():
            out[key] = out.get(key, 0) + val
        return out

    def fold_reset(self):
        for key, val in self.counters.data.items():
            self.reset_base[key] = self.reset_base.get(key, 0) + val

    @contextlib.contextmanager
    def span(self, name):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        before = self.totals()
        sp = Span(name, time.perf_counter(), parent=parent, job=self.job)
        self.spans.append(sp)
        self.stack.append(idx)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self.stack.pop()
            after = self.totals()
            sp.counters = {k: v - before.get(k, 0) for k, v in after.items()
                           if v != before.get(k, 0)}

    def top(self):
        return self.spans[self.stack[-1]].name if self.stack else None


def _tag(name, result):
    """The one property of a result the per-layer metrics need."""
    if name == "skyline.skyline_bounded":
        return result.complete
    if name == "grouped.build":
        return len(result.groups)
    if name.startswith("decision."):
        return result.feasible
    return None


def _wrap(tracer, fn, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as sp:
            result = fn(*args, **kwargs)
            sp.tag = _tag(name, result)
            return result
    return wrapper


@contextlib.contextmanager
def tracing(tracer):
    """Install span wrappers into the package's modules; undo on exit."""
    importlib.import_module("pareto_kcenter.cli")  # imports every layer
    mods = {name.rpartition(".")[2]: mod for name, mod in sys.modules.items()
            if name.startswith("pareto_kcenter.")}
    saved = []

    def replace(orig, new):
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    saved.append((mod, attr, orig))
                    setattr(mod, attr, new)

    for mod_name, functions in TARGETS.items():
        for attr in functions:
            orig = getattr(mods[mod_name], attr)
            replace(orig, _wrap(tracer, orig, f"{mod_name}.{attr}"))

    # cmd_solve calls cli.skyline_optimal only to recompute h for its
    # report, after its solver timer stops: give that call its own span.
    cli = mods["cli"]
    sky = cli.skyline_optimal

    def cli_skyline_optimal(P):
        if tracer.top() != "cli.cmd_solve":
            return sky(P)
        with tracer.span(H_RECOMPUTE):
            return sky(P)

    saved.append((cli, "skyline_optimal", sky))
    cli.skyline_optimal = cli_skyline_optimal

    # Deduplication is the PointSet constructor that read_point_file calls.
    pointio = mods["pointio"]
    point_set = pointio.PointSet

    def traced_point_set(points):
        with tracer.span(DEDUP):
            return point_set(points)

    saved.append((pointio, "PointSet", point_set))
    pointio.PointSet = traced_point_set

    # cmd_solve resets the process-wide counters; keep what it wipes.
    counters_cls = type(mods["instrument"].counters)
    reset = counters_cls.reset

    def traced_reset(self):
        if self is tracer.counters:
            tracer.fold_reset()
        reset(self)

    saved.append((counters_cls, "reset", reset))
    counters_cls.reset = traced_reset
    try:
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


# -- per-layer metrics ---------------------------------------------------------

JOB = "bench.job"  # root span of one job, recorded by the runner

# Layers that must cover more than half of each workload's traced wall.
DESIGN = {
    "ingest-bulk": ("pointio", "geom", "skyline", "grouped.build"),
    "staircase-exact": ("exact", "decision"),
    "grouped-decide": ("grouped.query", "decision"),
}

# (name, unit, better): the per-layer metrics, in BENCHMARK.json order.
PER_LAYER = [
    ("pointio.parse_s", "s", "lower"),
    ("geom.dedup_s", "s", "lower"),
    ("skyline.busy_s", "s", "lower"),
    ("skyline.calls_per_job", "1/job", "lower"),
    ("skyline.bounded_rounds", "1/call", "lower"),
    ("skyline.complete_ratio", "ratio", "higher"),
    ("skyline.comparisons", "count", "lower"),
    ("cli.h_recompute_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.reported_over_wall", "ratio", "higher"),
    ("grouped.build_s", "s", "lower"),
    ("grouped.groups", "count", "lower"),
    ("grouped.query_s", "s", "lower"),
    ("grouped.queries", "count", "lower"),
    ("grouped.binary_searches", "count", "lower"),
    ("grouped.binary_search_probes", "count", "lower"),
    ("decision.busy_s", "s", "lower"),
    ("decision.calls", "count", "lower"),
    ("decision.dist_evals", "count", "lower"),
    ("decision.feasible_ratio", "ratio", "higher"),
    ("exact.self_s", "s", "lower"),
    ("exact.matrix_select_calls", "count", "lower"),
    ("exact.matrix_entries_touched", "count", "lower"),
    ("exact.multiarray_probes", "count", "lower"),
    ("exact.decisions_per_solve", "1/solve", "lower"),
    ("smallk.busy_s", "s", "lower"),
    ("smallk.dist_evals", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


class Analysis:
    """Self times, layer coverage and counter sums over recorded spans."""

    def __init__(self, spans):
        self.spans = spans
        self.rows = [row_of(sp.name) for sp in spans]
        children = [0.0] * len(spans)
        for sp in spans:
            if sp.parent >= 0:
                children[sp.parent] += sp.end - sp.start
        self.self_s = [sp.end - sp.start - c for sp, c in zip(spans, children)]

    def ancestors(self, i):
        i = self.spans[i].parent
        while i >= 0:
            yield i
            i = self.spans[i].parent

    def outermost(self, pred):
        """Indices of spans matching pred with no matching ancestor."""
        return [i for i, sp in enumerate(self.spans)
                if pred(i) and not any(pred(a) for a in self.ancestors(i))]

    def in_rows(self, rows):
        return lambda i: self.rows[i] in rows

    def named(self, *names):
        return lambda i: self.spans[i].name in names

    def covered_s(self, pred):
        return sum(self.spans[i].end - self.spans[i].start
                   for i in self.outermost(pred))

    def count(self, pred):
        return sum(1 for i in range(len(self.spans)) if pred(i))

    def counter(self, pred, key):
        return sum(self.spans[i].counters.get(key, 0)
                   for i in self.outermost(pred))

    def row_self_s(self, row):
        return sum(s for s, r in zip(self.self_s, self.rows) if r == row)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(a, passes, jobs, reported_s, solve_wall_s, overhead_frac):
    """Per-layer metrics per traced pass (counts and seconds), plus ratios."""
    row = a.in_rows
    sky = row(("skyline",))
    dec = row(("decision",))
    query = row(("grouped.query",))
    exact = row(("exact",))
    smallk = row(("smallk",))
    optimal = a.named("skyline.skyline_optimal")
    bounded = a.named("skyline.skyline_bounded")
    solves = a.named("exact.solve_via_matrix", "exact.solve_parametric")
    builds = a.named("grouped.build")
    n_bounded = a.count(bounded)
    n_dec = a.count(dec)
    decisions_in_solves = sum(
        1 for i in a.outermost(dec)
        if any(solves(j) for j in a.ancestors(i)))
    per = {
        "pointio.parse_s": a.covered_s(a.named("pointio.parse_points")),
        "geom.dedup_s": a.covered_s(a.named(DEDUP)),
        "skyline.busy_s": a.covered_s(sky),
        "skyline.comparisons": a.counter(sky, "skyline_comparisons"),
        "cli.h_recompute_s": a.covered_s(a.named(H_RECOMPUTE)),
        "cli.self_s": a.row_self_s("cli"),
        "grouped.build_s": a.covered_s(builds),
        "grouped.groups": sum(a.spans[i].tag for i in range(len(a.spans))
                              if builds(i)),
        "grouped.query_s": a.row_self_s("grouped.query"),
        "grouped.queries": a.count(query),
        "grouped.binary_searches": a.counter(query, "binary_searches"),
        "grouped.binary_search_probes": a.counter(query,
                                                  "binary_search_probes"),
        "decision.busy_s": a.covered_s(dec),
        "decision.calls": n_dec,
        "decision.dist_evals": a.counter(dec, "dist_evals"),
        "exact.self_s": a.row_self_s("exact"),
        "exact.matrix_select_calls": a.count(a.named("exact.matrix_select")),
        "exact.matrix_entries_touched": a.counter(exact,
                                                  "matrix_entries_touched"),
        "exact.multiarray_probes": a.counter(exact, "multiarray_probes"),
        "smallk.busy_s": a.covered_s(smallk),
        "smallk.dist_evals": a.counter(smallk, "dist_evals"),
    }
    out = {k: v / passes for k, v in per.items()}
    out.update({
        "skyline.calls_per_job": _ratio(len(a.outermost(sky)), jobs),
        "skyline.bounded_rounds": _ratio(n_bounded, a.count(optimal)),
        "skyline.complete_ratio": _ratio(
            sum(1 for i in range(len(a.spans)) if bounded(i) and a.spans[i].tag),
            n_bounded),
        "cli.reported_over_wall": _ratio(reported_s, solve_wall_s),
        "decision.feasible_ratio": _ratio(
            sum(1 for i in range(len(a.spans)) if dec(i) and a.spans[i].tag),
            n_dec),
        "exact.decisions_per_solve": _ratio(decisions_in_solves,
                                            len(a.outermost(solves))),
        "trace.overhead_frac": overhead_frac,
    })
    return out


def self_time_table(a, traced_wall, passes, overhead_frac):
    """Lines of the per-layer self-time table, per traced pass."""
    lines = [f"{'layer':<16}{'self_s':>10}{'share':>9}"]
    total = 0.0
    for r in ROWS:
        s = a.row_self_s(r)
        total += s
        lines.append(f"{r:<16}{s / passes:>10.4f}{s / traced_wall:>9.1%}")
    rest = traced_wall - total
    lines.append(f"{'unaccounted':<16}{rest / passes:>10.4f}"
                 f"{rest / traced_wall:>9.1%}")
    lines.append(f"{'traced wall':<16}{traced_wall / passes:>10.4f}")
    lines.append(f"trace.overhead_frac={overhead_frac:.4f}")
    return lines
