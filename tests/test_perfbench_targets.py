"""The benchmark's tracer wraps package entry points by name and reads
fields of their results.

A name it traces, or a result field it counts, that the package no
longer has would only surface as a failing traced benchmark run; these
tests load the tracer (without changing anything under perfbench/) and
fail first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from srmec.cli import main

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves(tracing):
    targets = tracing._targets()
    assert targets
    for layer, owner, attribute, _, _ in targets:
        assert callable(getattr(owner, attribute, None)), f"{layer}: {owner.__name__}.{attribute} is gone"


def test_traced_solve_counts_its_grid_points(tracing, capsys):
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer):
        assert tracer.run_op(main, ["solve"]) == 0
    assert "iterations = " in capsys.readouterr().out
    counts = tracer.ops[-1].counts
    assert counts["saturation.points"] >= 1
    assert counts["saturation.point_iters"] >= counts["saturation.points"]
