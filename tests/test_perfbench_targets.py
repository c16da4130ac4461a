"""The benchmark's tracer wraps package entry points by name.

A name it traces that the package no longer has would only surface as a
failing traced benchmark run; this test reads the tracer's target list
(without changing anything under perfbench/) and fails first.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_entry_point_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    targets = tracing._targets()
    assert targets
    for layer, owner, attribute, _, _ in targets:
        assert callable(getattr(owner, attribute, None)), f"{layer}: {owner.__name__}.{attribute} is gone"
