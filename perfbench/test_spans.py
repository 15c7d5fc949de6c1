"""Tests of the benchmark's span tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_spans.py
"""

import contextlib
import io
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spans  # noqa: E402
from pareto_kcenter import cli, exact, skyline  # noqa: E402
from pareto_kcenter.instrument import counters  # noqa: E402


def test_tracing_records_layers_and_restores(tmp_path):
    path = str(tmp_path / "points.txt")
    np.savetxt(path, np.random.default_rng(3).random((500, 2)), fmt="%.17g")
    originals = (cli.skyline_optimal, exact.decide_materialized,
                 skyline.skyline_bounded, type(counters).reset)
    tracer = spans.Tracer(counters)
    with spans.tracing(tracer), contextlib.redirect_stdout(io.StringIO()):
        with tracer.span(spans.JOB):
            assert cli.main(["solve", path, "--k", "8", "--method",
                             "matrix", "--json"]) == 0
    assert (cli.skyline_optimal, exact.decide_materialized,
            skyline.skyline_bounded, type(counters).reset) == originals

    names = [sp.name for sp in tracer.spans]
    for name in ("cli.main", "cli.cmd_solve", spans.H_RECOMPUTE,
                 "pointio.parse_points", spans.DEDUP, "exact.solve_via_matrix",
                 "exact.matrix_select", "decision.decide_materialized",
                 "skyline.skyline_bounded"):
        assert name in names
    # The h recompute is cmd_solve's own call, not the solver's skyline.
    h = tracer.spans[names.index(spans.H_RECOMPUTE)]
    assert tracer.spans[h.parent].name == "cli.cmd_solve"
    # cmd_solve resets the counters mid-job; deltas must survive it.
    assert all(v >= 0 for sp in tracer.spans for v in sp.counters.values())

    a = spans.Analysis(tracer.spans)
    per = spans.layer_metrics(a, 1, 1, 0.0, 0.0, 0.0)
    assert per["exact.matrix_select_calls"] > 0
    assert per["exact.matrix_entries_touched"] > 0
    assert per["decision.calls"] >= per["exact.decisions_per_solve"] > 0
    assert per["skyline.calls_per_job"] == 2  # the solver's and the recompute
    job = tracer.spans[0]
    wall = job.end - job.start
    table = spans.self_time_table(a, wall, 1, 0.0)
    assert abs(sum(a.self_s) - wall) < 1e-9  # self times tile the job
    assert any(line.startswith("unaccounted") for line in table)
