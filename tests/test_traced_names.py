"""The traced benchmark run (perfbench/spans.py) wraps package functions
that it looks up by name; each of those names must still resolve."""

import importlib
import importlib.util
import pathlib
import sys

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench/ as is
    spec = importlib.util.spec_from_file_location("traced_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    names = [(module, function)
             for module, functions in spans.TARGETS.items()
             for function in functions]
    names += [("cli", "skyline_optimal"), ("pointio", "PointSet")]
    assert ("grouped", "test_membership_and_prev") in names
    for module, function in names:
        mod = importlib.import_module(f"pareto_kcenter.{module}")
        assert callable(getattr(mod, function, None)), f"{module}.{function}"
