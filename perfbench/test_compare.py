"""Tests of the compare command's verdicts and its refusal of partial runs.

    python3 -m pytest -q perfbench/test_compare.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402

STEADY = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]


def test_gain_needs_nine_wins_and_a_gap_beyond_the_spread():
    faster = [x * 0.8 for x in STEADY]
    assert compare.judge(STEADY, faster, 0.25, "lower")["verdict"] == "gain"
    # Nine wins of ten still count; eight do not.
    nine = faster[:9] + [11.0]
    assert compare.judge(STEADY, nine, 0.25, "lower")["verdict"] == "gain"
    eight = faster[:8] + [11.0, 11.0]
    assert compare.judge(STEADY, eight, 0.25, "lower")["verdict"] != "gain"


def test_regression_and_within_bound():
    slower = [x * 1.3 for x in STEADY]
    assert compare.judge(STEADY, slower, 0.25, "lower")["verdict"] == \
        "REGRESSION"
    same = list(reversed(STEADY))
    assert compare.judge(STEADY, same, 0.25, "lower")["verdict"] == \
        "within bound"
    # For a metric where higher is better, a drop is the regression.
    higher = [x * 1.5 for x in STEADY]
    assert compare.judge(higher, STEADY, 0.25, "higher")["verdict"] == \
        "REGRESSION"


def test_spread_beyond_the_bound_is_unresolved_for_every_metric():
    noisy = [6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0]
    # A worse median does not read as a regression when the runs are
    # too noisy to tell; setup_s is judged by the same rule.
    worse = [x * 1.3 for x in noisy]
    assert compare.judge(noisy, worse, 0.25, "lower")["verdict"] == \
        "unresolved"
    better = [x * 0.3 for x in noisy]
    assert compare.judge(noisy, better, 0.25, "lower")["verdict"] in (
        "gain", "better (every run)")


def _rows(pairs, workloads, seed=1):
    rows = []
    for pair in range(pairs):
        for wl in workloads:
            for side in ("base", "change"):
                rows.append({
                    "pair": pair, "seed": seed, "workload": wl, "side": side,
                    "first": "base",
                    "result": {"correct": True, "attempted": 4, "failed": 0,
                               "metrics": {
                                   m["name"]: {"value": 1.0 + 0.001 * pair,
                                               "unit": m["unit"]}
                                   for m in compare.load_spec()["end_to_end"]}},
                    "pass_samples": {key: [1.0, 1.0] for key in compare.POOLED},
                    "inputs": {}})
    return rows


def _report(tmp_path, rows):
    path = tmp_path / "r.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return compare.main(["report", str(path)])


def test_report_accepts_a_full_compare(tmp_path):
    names = [w["name"] for w in compare.load_spec()["workloads"]]
    assert _report(tmp_path, _rows(compare.MIN_PAIRS, names)) == 0


def test_report_refuses_a_missing_workload(tmp_path):
    names = [w["name"] for w in compare.load_spec()["workloads"]]
    assert _report(tmp_path, _rows(compare.MIN_PAIRS, names[1:])) == 2


def test_report_refuses_too_few_pairs(tmp_path):
    names = [w["name"] for w in compare.load_spec()["workloads"]]
    assert _report(tmp_path, _rows(compare.MIN_PAIRS - 1, names)) == 2


def test_report_refuses_mixed_seeds(tmp_path):
    names = [w["name"] for w in compare.load_spec()["workloads"]]
    rows = (_rows(compare.MIN_PAIRS, names, seed=1)
            + _rows(1, names, seed=2))
    assert _report(tmp_path, rows) == 2


def test_run_refuses_too_few_pairs(tmp_path):
    try:
        compare.main(["run", "--base", ".", "--change", ".", "--pairs", "3",
                      "--out", str(tmp_path / "r.jsonl")])
    except SystemExit as exc:
        assert exc.code != 0
    else:
        raise AssertionError("run accepted fewer pairs than MIN_PAIRS")
    assert not (tmp_path / "r.jsonl").exists()
