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
    # The harness credits a points op with its one grid call's points.
    assert tracer.ops[-1].layers["saturation.grid"].calls == 1
    counts = tracer.ops[-1].counts
    assert counts["saturation.points"] == 1
    assert counts["saturation.point_iters"] >= counts["saturation.points"]


def test_solve_evaluates_the_gap_model_at_most_twice(monkeypatch, capsys):
    # Once for the grid and once for the record's regime check.  The
    # aligned-gap floor is a constant of the geometry, computed on the
    # first solve of a design and kept, so warm up first.
    import srmec.motor

    assert main(["solve"]) == 0
    calls = []
    gap_area_m2 = srmec.motor.gap_area_m2

    def counted(*args):
        calls.append(args)
        return gap_area_m2(*args)

    monkeypatch.setattr(srmec.motor, "gap_area_m2", counted)
    for argv in (["solve"], ["solve", "--current", "3", "--angle", "4.5"], ["solve", "--angle", "0"]):
        calls.clear()
        assert main(argv) == 0
        assert len(calls) <= 2, argv
    capsys.readouterr()


def test_traced_sweep_counts_every_grid_point(tracing, tmp_path, capsys):
    # The harness credits a sweep op with 2 magnet states x currents x
    # current points x angles solved points.
    config = tmp_path / "sweep.ini"
    config.write_text("[sweep]\ncurrents = 1, 2\ncurrent_points = 3\nangle_step_deg = 5\n")
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer):
        assert tracer.run_op(main, ["sweep", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    assert tracer.ops[-1].counts["saturation.points"] == 2 * 2 * 3 * 4


def test_traced_fidelity_counts_every_sample(tracing, tmp_path, capsys):
    # The harness credits an audit op with one sample_regime_case call
    # per audited sample, in each of the two streams.
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer):
        argv = ["fidelity", "--samples", "3", "--out", str(tmp_path)]
        assert tracer.run_op(main, argv) == 0
    capsys.readouterr()
    assert tracer.ops[-1].layers["fidelity.sample"].calls == 6
