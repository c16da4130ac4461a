"""Smoke tests for the demo scripts.

Each demo's main() runs in-process with stdout captured, so a change to
the package API that breaks a demo fails here.  The expected line is
one each demo always prints.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

EXPECTED_LINE = {
    "closed_form_audit.py": "closed-form audit notes",
    "mesh_network_tour.py": "--- aligned position (10 deg), 8 A ---",
    "motor_comparison.py": "hemtsrm-16-18,",
    "saturation_diversion.py": "gap-branch flux split at the aligned position",
    "torque_sweep.py": "torque profile at 8 A (one period, motoring half positive):",
}


def test_every_demo_is_covered():
    assert sorted(path.name for path in DEMOS.glob("*.py")) == sorted(EXPECTED_LINE)


@pytest.mark.parametrize("name", sorted(EXPECTED_LINE))
def test_demo_runs(name, capsys):
    namespace = runpy.run_path(str(DEMOS / name))
    namespace["main"]()
    out = capsys.readouterr().out
    assert EXPECTED_LINE[name] in out
