"""Tests for configuration loading and the command-line interface."""

import contextlib
import csv
import hashlib
import io
import json
import logging
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from srmec.cli import main, solve_record_text
from srmec.config import (
    DEFAULT_SWEEP_CURRENTS,
    RELUCTANCE_CEILING,
    ConfigError,
    RunConfig,
    config_hash,
    default_config,
    load_config,
)
from srmec.fidelity import MAX_AUDIT_SAMPLES
from srmec.metrics import MOTORS_COLUMNS, comparison_table, load_motor_records
from srmec.motor import ELEMENT_ORDER, TOPOLOGY, MaterialSet, MotorGeometry, OperatingPoint
from srmec.network import condition_bound
from srmec.saturation import BhCurve


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


FAST_SWEEP = """
[sweep]
currents = 2
current_points = 5
angle_step_deg = 2.5
"""


class TestLoadConfig:
    def test_no_file_gives_catalog_defaults(self):
        config = load_config(None)
        assert config == default_config()
        assert config.geometry == MotorGeometry()
        assert config.materials == MaterialSet()
        assert config.sweep_currents == DEFAULT_SWEEP_CURRENTS
        assert config.current_points == 33
        assert config.angle_step_deg == 0.25

    def test_default_config_is_built_once_and_shared(self):
        assert load_config(None) is load_config(None) is default_config()

    def test_a_config_file_builds_its_own_config(self, tmp_path):
        # Even a file that sets nothing resolves to a fresh, equal config.
        path = write_config(tmp_path, "[geometry]\n")
        first, second = load_config(path), load_config(path)
        assert first == second == default_config()
        assert first is not second and first is not default_config()
        assert first.geometry is not default_config().geometry

    def test_file_overrides_selected_keys(self, tmp_path):
        path = write_config(
            tmp_path,
            """
[geometry]
stack_length = 25.0
turns_per_pole = 120

[materials]
pm_remanence = 1.1

[sweep]
currents = 2, 4.5
current_points = 9
angle_step_deg = 0.5
""",
        )
        config = load_config(path)
        assert config.geometry.stack_length == 25.0
        assert config.geometry.turns_per_pole == 120
        assert config.geometry.stator_outer_diameter == 140.0
        assert config.materials.pm_remanence == 1.1
        assert config.materials.pm_relative_permeability == MaterialSet().pm_relative_permeability
        assert config.sweep_currents == (2.0, 4.5)
        assert config.current_points == 9
        assert config.angle_step_deg == 0.5

    def test_missing_keys_log_a_notice(self, tmp_path, caplog):
        path = write_config(tmp_path, "[materials]\npm_remanence = 1.1\n")
        with caplog.at_level(logging.INFO, logger="srmec.config"):
            load_config(path)
        notices = [r.message for r in caplog.records if "using default" in r.message]
        assert any("pm_relative_permeability" in message for message in notices)
        assert any("[geometry]" in message or "geometry" in message for message in notices)

    # The Newton tolerance and pass cap are constants of
    # srmec.saturation, so a [solver] section is unknown like any other.
    @pytest.mark.parametrize(
        "text, section",
        [("[rotor]\npoles = 18\n", "rotor"), ("[solver]\nmax_iterations = 150\n", "solver")],
        ids=["rotor", "solver"],
    )
    def test_unknown_section_rejected(self, tmp_path, text, section):
        path = write_config(tmp_path, text)
        with pytest.raises(ConfigError, match=rf"unknown section \[{section}\]$"):
            load_config(path)

    # The magnet coercivity is always derived from remanence and recoil
    # permeability; a file still setting it fails like any unknown key.
    @pytest.mark.parametrize(
        "text, message",
        [
            ("[geometry]\nbore = 12\n", "[geometry] unknown key 'bore'"),
            ("[materials]\npm_coercivity = 9e5\n", "[materials] unknown key 'pm_coercivity'"),
        ],
        ids=["bore", "pm_coercivity"],
    )
    def test_unknown_key_rejected_by_name(self, tmp_path, text, message):
        path = write_config(tmp_path, text)
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(path)

    def test_key_before_section_rejected(self, tmp_path):
        path = write_config(tmp_path, "stack_length = 20\n[geometry]\n")
        with pytest.raises(ConfigError, match="no section headers"):
            load_config(path)

    def test_default_section_keys_rejected(self, tmp_path):
        path = write_config(tmp_path, "[DEFAULT]\nstack_length = 20\n")
        with pytest.raises(ConfigError, match="before any section"):
            load_config(path)

    def test_non_numeric_value_rejected(self, tmp_path):
        path = write_config(tmp_path, "[geometry]\nstack_length = long\n")
        with pytest.raises(ConfigError, match="stack_length.*'long'"):
            load_config(path)

    def test_integer_key_rejects_fraction(self, tmp_path):
        path = write_config(tmp_path, "[geometry]\nturns_per_pole = 3.5\n")
        with pytest.raises(ConfigError, match="turns_per_pole.*integer"):
            load_config(path)

    def test_domain_rejection_names_the_field(self, tmp_path):
        path = write_config(tmp_path, "[geometry]\nstack_length = -1\n")
        with pytest.raises(ConfigError, match="stack_length"):
            load_config(path)

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(tmp_path / "absent.cfg")

    def test_empty_currents_rejected(self, tmp_path):
        path = write_config(tmp_path, "[sweep]\ncurrents =\n")
        with pytest.raises(ConfigError, match="currents"):
            load_config(path)

    def test_duplicate_currents_rejected(self, tmp_path):
        path = write_config(tmp_path, "[sweep]\ncurrents = 2, 2\n")
        with pytest.raises(ConfigError, match="repeat"):
            load_config(path)

    def test_step_must_divide_period(self, tmp_path):
        path = write_config(tmp_path, "[sweep]\nangle_step_deg = 0.3\n")
        with pytest.raises(ConfigError, match="divide the rotor period"):
            load_config(path)

    def test_too_few_current_points_rejected(self, tmp_path):
        path = write_config(tmp_path, "[sweep]\ncurrent_points = 1\n")
        with pytest.raises(ConfigError, match="current_points"):
            load_config(path)

    def test_turns_are_held_to_the_linkage_bound_of_the_largest_current(self):
        # Default design at 8 A: the bound passes the float range between
        # 10**155 and 10**156 turns; smaller currents allow more turns.
        materials = MaterialSet()
        RunConfig(geometry=MotorGeometry(turns_per_pole=10**155), materials=materials)
        message = re.escape("[geometry] turns_per_pole = 1e+156 with [sweep] currents up to 8 A")
        with pytest.raises(ConfigError, match=message):
            RunConfig(geometry=MotorGeometry(turns_per_pole=10**156), materials=materials)
        RunConfig(geometry=MotorGeometry(turns_per_pole=10**156), materials=materials, sweep_currents=(0.01,))

    def test_turns_near_the_float_limit_are_held_to_the_linkage_bound(self):
        # 2.0 * N overflows, so N * 0 A must be taken first: the magnet
        # MMF, computed at 0 A, is finite, and the linkage is refused.
        message = re.escape("[geometry] turns_per_pole = 1e+308 with [sweep] currents up to 8 A")
        with pytest.raises(ConfigError, match=message):
            RunConfig(geometry=MotorGeometry(turns_per_pole=10**308), materials=MaterialSet())

    @pytest.mark.parametrize(
        "geometry, materials, refused",
        [
            (
                {"stack_length": 1e-300},
                {},
                "[geometry] stator_outer_diameter = 140, stator_yoke_thickness = 4.72, "
                "stator_pole_height = 16.12, airgap_length = 0.3, stator_tooth_arc = 4.87, "
                "rotor_pole_arc = 5.06, stack_length = 1e-300 make the air-gap reluctance inf A/Wb",
            ),
            (
                {"pm_length": 1e100, "pm_width": 1e-200},
                {},
                "[geometry] pm_length = 1e+100, pm_width = 1e-200, stack_length = 20 with "
                "[materials] pm_relative_permeability = 1.05 "
                "make the magnet reluctance 3.7894e+307 A/Wb",
            ),
            (
                {},
                {"pm_remanence": 1e308},
                "[geometry] pm_length = 5 with [materials] pm_remanence = 1e+308, "
                "pm_relative_permeability = 1.05 make the magnet MMF inf At",
            ),
        ],
        ids=["thin_stack", "huge_thin_magnet", "huge_remanence"],
    )
    def test_derived_values_past_the_float_range_are_refused_by_key(
        self, geometry, materials, refused
    ):
        with pytest.raises(ConfigError) as info:
            RunConfig(geometry=MotorGeometry(**geometry), materials=MaterialSet(**materials))
        assert str(info.value).startswith(refused + ", past the ")

    @pytest.mark.parametrize(
        "geometry, materials, refused",
        [
            (
                {"pm_length": 1e-100, "pm_width": 1e300},
                {},
                "[geometry] pm_length = 1e-100, pm_width = 1e+300, stack_length = 20 with "
                "[materials] pm_relative_permeability = 1.05 make the magnet reluctance 0 A/Wb, "
                "below the 2.22507e-308 A/Wb",
            ),
            (
                {"stack_length": 1e300, "stator_outer_diameter": 1e100},
                {},
                "[geometry] stator_outer_diameter = 1e+100, stator_yoke_thickness = 4.72, "
                "stator_pole_height = 16.12, stator_tooth_arc = 4.87, stack_length = 1e+300 "
                "make the stator pole reluctance 0 A/Wb, below the 2.22507e-308 A/Wb",
            ),
        ],
        ids=["vanishing_magnet", "vast_stack"],
    )
    def test_derived_values_below_the_float_range_are_refused_by_key(
        self, geometry, materials, refused
    ):
        # Each once crashed in the linkage bound with a ZeroDivisionError
        # (the second after a numpy overflow warning), or was refused by
        # the linear reluctance set after the solve's manifest.
        with pytest.raises(ConfigError) as info:
            RunConfig(geometry=MotorGeometry(**geometry), materials=MaterialSet(**materials))
        assert str(info.value).startswith(refused)

    @pytest.mark.parametrize(
        "geometry, materials, refused",
        [
            (
                # Its solve record once read regime_pm_over_two_poles = inf.
                {"stator_pole_height": 1e-9},
                {"iron_relative_permeability": 1e300},
                "[geometry] stator_outer_diameter = 140, stator_yoke_thickness = 4.72, "
                "stator_pole_height = 1e-09, stator_tooth_arc = 4.87, stack_length = 20, "
                "pm_length = 5, pm_width = 5 with [materials] iron_relative_permeability = 1e+300, "
                "pm_relative_permeability = 1.05 make the regime ratio pm_over_two_poles inf, past the ",
            ),
            (
                {"stator_pole_height": 1e-200},
                {"iron_relative_permeability": 1e200},
                "[geometry] stator_outer_diameter = 140, stator_yoke_thickness = 4.72, "
                "stator_pole_height = 1e-200, stator_tooth_arc = 4.87, stack_length = 20 with "
                "[materials] iron_relative_permeability = 1e+200 make the stator pole reluctance "
                "0 A/Wb, below the 2.22507e-308 A/Wb",
            ),
        ],
        ids=["overflowing_regime_ratio", "vanishing_pole"],
    )
    def test_linear_model_values_are_refused_for_the_solve_record_only(
        self, geometry, materials, refused
    ):
        # A sweep reads neither the linear iron nor the regime ratios.
        config = RunConfig(geometry=MotorGeometry(**geometry), materials=MaterialSet(**materials))
        with pytest.raises(ConfigError) as info:
            config.check_solve_record()
        assert str(info.value).startswith(refused)

    def test_iron_refusal_names_the_iron_permeability(self):
        # The solve record's iron is at mu0 * mu_r, so mu_r = 1 pushes a
        # thin stack's yoke past the ceiling that the default mu_r, and
        # the curve's initial permeability, leave it under.
        thin = MotorGeometry(stack_length=1.9085e-298)
        RunConfig(geometry=thin, materials=MaterialSet()).check_solve_record()
        config = RunConfig(geometry=thin, materials=MaterialSet(iron_relative_permeability=1.0))
        with pytest.raises(ConfigError) as info:
            config.check_solve_record()
        assert str(info.value).startswith(
            "[geometry] stator_outer_diameter = 140, stator_yoke_thickness = 4.72, "
            "stator_teeth_count = 16, stack_length = 1.9085e-298 with "
            "[materials] iron_relative_permeability = 1 make the stator yoke reluctance "
        )

    def test_reluctance_ceiling_leaves_a_mesh_matrix_room_to_double(self):
        # Every element at the ceiling: each entry, doubled, and the
        # grid's condition bound stay finite.
        matrix = TOPOLOGY.stamp(np.full(len(ELEMENT_ORDER), RELUCTANCE_CEILING))
        assert np.isfinite(2.0 * np.abs(matrix).sum(axis=-1)).all()
        assert np.isfinite(condition_bound(matrix))

    def test_grid_bound_is_checked_against_the_angle_count(self):
        # 2,200 points fit at the default 80 angles, not at 160.
        geometry, materials = MotorGeometry(), MaterialSet()
        RunConfig(geometry, materials, current_points=2200)
        with pytest.raises(ConfigError, match=r"^\[sweep\] current_points 2200 x 160 angle steps"):
            RunConfig(geometry, materials, current_points=2200, angle_step_deg=0.125)


class TestConfigHash:
    def test_equal_configs_hash_equal(self):
        assert config_hash(default_config()) == config_hash(load_config(None))

    def test_hash_is_hex_digest(self):
        digest = config_hash(default_config())
        assert len(digest) == 64
        int(digest, 16)

    def test_value_change_changes_hash(self):
        base = default_config()
        changed = RunConfig(
            geometry=base.geometry,
            materials=base.materials,
            sweep_currents=(2.0,),
        )
        assert config_hash(base) != config_hash(changed)

    def test_hash_ignores_file_formatting(self, tmp_path):
        sparse = write_config(tmp_path, "[materials]\npm_remanence = 1.1\n", name="a.cfg")
        noisy = write_config(
            tmp_path,
            "# a comment\n[materials]\n\npm_remanence =   1.1\n\n[geometry]\n",
            name="b.cfg",
        )
        assert config_hash(load_config(sparse)) == config_hash(load_config(noisy))


def read_record(path):
    record = {}
    for line in path.read_text().strip().split("\n"):
        key, _, value = line.partition(" = ")
        record[key] = value
    return record


# SHA-256 of the concatenated solve records pinned by
# TestSolveCommand.test_solve_records_are_pinned.
SOLVE_RECORDS_SHA256 = "d7970cc60e0225d0b729e5747abfdcf47950fa710f9e21cd7e1cc9a79bb4f381"


class TestSolveCommand:
    def test_writes_record_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["solve", "--current", "2", "--out", str(out)]) == 0
        record = read_record(out / "solve_record.txt")
        assert record["current_a"] == "2"
        assert record["rotor_angle_deg"] == "10"
        assert int(record["iterations"]) >= 1
        assert abs(float(record["residual"])) <= 1e-10
        assert "mesh_flux_5_wb" in record and "branch_gap_wb" in record
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert manifest["outputs"] == ["solve_record.txt"]
        assert manifest["tool_version"]
        assert len(manifest["config_hash"]) == 64
        assert "mesh_flux_1_wb" in capsys.readouterr().out

    def test_manifest_records_the_numpy_build(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["solve", "--current", "1", "--out", str(out)]) == 0
        build = json.loads((out / "manifest.json").read_text())["numpy"]
        assert build["version"] == np.__version__
        for key in ("cpu_baseline", "cpu_dispatch"):
            assert isinstance(build[key], list)
            assert all(isinstance(feature, str) for feature in build[key])
        # Only dispatch targets this CPU supports are listed.
        assert set(build["cpu_dispatch"]) <= set(np._core._multiarray_umath.__cpu_dispatch__)

    def test_zero_current_has_zero_coil_fluxes(self, tmp_path, capsys):
        out = tmp_path / "zero"
        assert main(["solve", "--current", "0", "--out", str(out)]) == 0
        record = read_record(out / "solve_record.txt")
        for k in range(1, 6):
            assert float(record[f"coil_mesh_flux_{k}_wb"]) == 0.0

    def test_prints_without_out_directory(self, tmp_path, capsys):
        assert main(["solve", "--current", "1", "--angle", "5"]) == 0
        assert "regime_all_pass" in capsys.readouterr().out

    def test_angle_outside_period_exits_2(self, capsys):
        assert main(["solve", "--angle", "400"]) == 2
        assert "rotor_angle" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--current", "nan"], "phase_current"),
            (["--angle", "25"], "rotor_angle"),
            # 2 coils x 140 turns x 1e308 A overflows mesh 1's MMF.
            (["--current", "1e308"], "phase current 1e+308 A overflows the coil MMF"),
        ],
    )
    def test_bad_operating_point_exits_2_before_the_manifest(self, tmp_path, capsys, flags, message):
        out = tmp_path / "D"
        out.mkdir()
        assert main(["solve", *flags, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_solve_records_are_pinned(self):
        # Twenty default-design points across currents and the rotor
        # period, through the saturating solve and its refined split.
        config = default_config()
        text = "".join(
            solve_record_text(config, OperatingPoint(0.5 * k, 0.95 * k + 0.1)) for k in range(20)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == SOLVE_RECORDS_SHA256

    def test_ill_conditioned_solve_exits_3(self, tmp_path, capsys):
        # A near-zero magnet width makes the magnet reluctance dwarf the
        # rest: condition number about 1e13, over the 1e12 limit.
        path = write_config(tmp_path, "[geometry]\npm_width = 1e-9\n")
        assert main(["solve", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "srmec: solve failed:" in err
        assert "condition number" in err and "exceeds limit" in err

    def test_removed_relaxation_key_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, "[solver]\nrelaxation = 0.5\n")
        assert main(["solve", "--config", str(path)]) == 2
        assert "unknown section [solver]" in capsys.readouterr().err

    def test_huge_current_fails_by_name_without_warnings(self, capsys):
        # Under the suite's warnings-as-errors filter: the B-H
        # extrapolation overflows H to inf and the zero chord gives an
        # infinite reluctance, which the grid refuses by point.
        assert main(["solve", "--current", "1e303"]) == 3
        assert capsys.readouterr().err == (
            "srmec: solve failed: singular or non-finite saturated mesh system "
            "at 1 operating point(s): (1e+303 A, 10 deg)\n"
        )

    def test_malformed_config_key_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, "[geometry]\nbore = 1\n")
        assert main(["solve", "--config", str(path)]) == 2
        assert "bore" in capsys.readouterr().err


# SHA-256 of the default audit's files (`srmec fidelity --samples 1000
# --seed 108`), as pinned by the benchmark's audit workload.
AUDIT_SHA256 = {
    "fidelity.csv": "6e2767f02eb74f7247027b6e6bfcd075eac3a64202cce170998c2db090229997",
    "fidelity_notes.txt": "8ace4ff6b5a3cf9dbd6dcb238948997a74b0f3b7677784230c43d8d281a0728b",
}


class TestFidelityCommand:
    def test_default_audit_files_are_pinned(self, tmp_path, capsys):
        out = tmp_path / "fid"
        assert main(["fidelity", "--samples", "1000", "--seed", "108", "--out", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in AUDIT_SHA256}
        assert digests == AUDIT_SHA256

    def test_report_and_notes(self, tmp_path, capsys):
        out = tmp_path / "fid"
        assert main(["fidelity", "--samples", "25", "--out", str(out)]) == 0
        lines = (out / "fidelity.csv").read_text().strip().split("\n")
        assert lines[0] == "equation,max_rel_dev,median_rel_dev,n_samples,seed"
        assert len(lines) > 20
        assert all(line.endswith(",25,108") for line in lines[1:])
        notes = (out / "fidelity_notes.txt").read_text()
        assert "numeric solve" in notes
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {"fidelity.csv", "fidelity_notes.txt"}
        # The audit samples its own designs, so no config is hashed.
        assert manifest["config_hash"] == "none"
        assert "closed-form audit notes" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert main(["fidelity", "--samples", "25", "--out", str(first)]) == 0
        assert main(["fidelity", "--samples", "25", "--out", str(second)]) == 0
        assert (first / "fidelity.csv").read_bytes() == (second / "fidelity.csv").read_bytes()
        assert (
            first / "fidelity_notes.txt"
        ).read_bytes() == (second / "fidelity_notes.txt").read_bytes()

    def test_config_flag_is_refused(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fidelity", "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    def test_zero_samples_exits_2(self, tmp_path, capsys):
        assert main(["fidelity", "--samples", "0", "--out", str(tmp_path)]) == 2
        assert "--samples" in capsys.readouterr().err

    def test_samples_past_the_bound_exit_2_before_the_manifest(self, tmp_path, capsys):
        too_many = str(MAX_AUDIT_SAMPLES + 1)
        assert main(["fidelity", "--samples", too_many, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"srmec: error: --samples must be at most {MAX_AUDIT_SAMPLES}\n"
        )
        assert not (tmp_path / "manifest.json").exists()

    def test_negative_seed_exits_2_before_the_manifest(self, tmp_path, capsys):
        assert main(["fidelity", "--seed", "-1", "--out", str(tmp_path)]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()


# SHA-256 of the default sweep's files (`srmec sweep` without a config).
SWEEP_SHA256 = {
    "torque_curve_1A.csv": "db7b20cb94543691f00a224d72221014f732517e58c79142ca3035e4e7a7f5e2",
    "torque_curve_2A.csv": "047574b27bdc6d5b9b43175628263366d427e7eee0c2f59fa382f9b36bd6931c",
    "torque_curve_3A.csv": "058dd3b56331170135f7f4448371acfd6c7d4e07731405941c755db73a3eacc2",
    "torque_curve_4A.csv": "c3befd92cbd05efe83e413e6e850e3d50ad752bf0b3b6cd196d893cebf6b66c3",
    "torque_curve_5A.csv": "2dac1dcae0422db375773d89dc34a39badf6369fc5059c4f4728a14d7e70df74",
    "torque_curve_6A.csv": "1fb98e786484dd8523458556e7c3260531cbbf89c979f63bd6375f49655e55e2",
    "torque_curve_7A.csv": "18e3eb4127da06edb8fb41a73281ee5a506ec3cbfafe60f70d719123327502a0",
    "torque_curve_8A.csv": "06d024557b82aec4fbc44986fdb41452c144a053e3cec521e148aa052eb79ebe",
    "torque_summary.csv": "7befb29f3ce0a1705bb1e83a48667178ba06d88f848f0f3aaaee296cf6cc891d",
}


class TestSweepCommand:
    def test_default_sweep_files_are_pinned(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["outputs"] == list(SWEEP_SHA256)
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in SWEEP_SHA256}
        assert digests == SWEEP_SHA256

    def test_writes_curves_and_summary(self, tmp_path, capsys):
        config = write_config(tmp_path, FAST_SWEEP)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        summary = (out / "torque_summary.csv").read_text().strip().split("\n")
        assert summary[0] == "current_a,mean_torque_nm,peak_torque_nm"
        assert len(summary) == 2 and summary[1].startswith("2,")
        curve = (out / "torque_curve_2A.csv").read_text().strip().split("\n")
        assert curve[0] == "angle_deg,torque_nm,torque_coil_nm,torque_pm_nm"
        assert len(curve) == 1 + 8  # 20 deg period / 2.5 deg step
        for line in curve[1:]:
            _, total, coil, pm = (float(cell) for cell in line.split(","))
            assert total == pytest.approx(coil + pm, abs=1e-15)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["torque_curve_2A.csv", "torque_summary.csv"]

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        config = write_config(tmp_path, FAST_SWEEP)
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert main(["sweep", "--config", str(config), "--out", str(first)]) == 0
        assert main(["sweep", "--config", str(config), "--out", str(second)]) == 0
        for name in ("torque_curve_2A.csv", "torque_summary.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        first_manifest = json.loads((first / "manifest.json").read_text())
        second_manifest = json.loads((second / "manifest.json").read_text())
        first_manifest.pop("timestamp")
        second_manifest.pop("timestamp")
        assert first_manifest == second_manifest

    def test_logs_one_grid_line_per_magnet_state(self, tmp_path, capsys, caplog):
        config = write_config(tmp_path, FAST_SWEEP)
        with caplog.at_level(logging.INFO, logger="srmec"):
            assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
        lines = [r.getMessage() for r in caplog.records if r.name == "srmec.torque"]
        assert len(lines) == 2
        # 5 currents x 8 angles, which have 3 distinct gap reluctances:
        # the fringing floor, 7.5 and 12.5 deg, and alignment.
        assert lines[0].startswith("pm_remanence 1.2 T: 40 grid points on 15 distinct systems")
        assert lines[1].startswith("pm_remanence 0 T: 40 grid points on 15 distinct systems")
        assert all(", at most " in line and line.endswith(" iterations") for line in lines)

    def test_non_finite_saturated_system_exits_3(self, tmp_path, capsys, monkeypatch):
        # Past 0.25 T this curve's permeabilities underflow, so the iron
        # reluctances overflow at every point of the sweep grid: the
        # magnets alone drive the yoke past 0.25 T.
        overflowing = BhCurve(field_points=(50.0, 1.5e308), density_points=(0.25, 0.5))
        monkeypatch.setattr(BhCurve, "default", classmethod(lambda cls: overflowing))
        config = write_config(tmp_path, FAST_SWEEP)
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "srmec: solve failed: singular or non-finite saturated mesh system" in err
        assert "at 40 operating point(s): (0 A, 0 deg), (0 A, 2.5 deg)," in err

    def test_ill_conditioned_converged_sweep_exits_3(self, tmp_path, capsys):
        # With 1e-8 mm magnets every 1 A point converges on a system of
        # condition number 1.12e12; `solve` refuses the same design.
        config = write_config(
            tmp_path,
            "[geometry]\npm_width = 1e-8\n\n[sweep]\ncurrents = 1\ncurrent_points = 5\nangle_step_deg = 2.5\n",
        )
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "srmec: solve failed: condition number 1.122e+12 exceeds limit 1.000e+12" in err
        assert "at 40 operating point(s): (0 A, 0 deg), (0 A, 2.5 deg)," in err
        assert not (tmp_path / "o" / "torque_summary.csv").exists()

    def test_empty_current_list_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, "[sweep]\ncurrents =\n")
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "currents" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [
            (
                "vacuum_permeability = 1.2566370614359173e-06",
                "[materials] unknown key 'vacuum_permeability'",
            ),
            ("pm_coercivity = 9e5", "[materials] unknown key 'pm_coercivity'"),
            ("pm_remanence = inf", "[materials] pm_remanence must be finite"),
            ("iron_relative_permeability = nan", "[materials] iron_relative_permeability must be finite"),
        ],
    )
    def test_bad_materials_key_exits_2_before_the_manifest(self, tmp_path, capsys, line, message):
        config = write_config(tmp_path, f"[materials]\n{line}\n")
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    # inf and 1e300 give an empty grid, 10 and 20 too few angles to difference.
    @pytest.mark.parametrize("step", ["inf", "1e300", "10", "20"])
    def test_coarse_or_infinite_angle_step_exits_2_before_any_output(self, tmp_path, capsys, step):
        config = write_config(tmp_path, f"[sweep]\ncurrents = 1\nangle_step_deg = {step}\n")
        out = tmp_path / "o"
        out.mkdir()
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "srmec: error: [sweep] angle_step_deg must be finite" in err
        assert f"at least 4 steps, got {float(step)!r}" in err
        assert list(out.iterdir()) == []

    # 1e-300 once overflowed numpy's array size, 5e-324 raised a bare
    # OverflowError and 1e-7 asked for 2e8 angles.
    @pytest.mark.parametrize(
        "step, steps", [("1e-300", "2e+301"), ("5e-324", "inf"), ("1e-7", "2e+08")]
    )
    def test_too_fine_angle_step_exits_2_before_any_output(self, tmp_path, capsys, step, steps):
        config = write_config(tmp_path, f"[sweep]\ncurrents = 1\nangle_step_deg = {step}\n")
        out = tmp_path / "o"
        out.mkdir()
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"srmec: error: [sweep] angle_step_deg {float(step)!r} divides" in err
        assert f"into {steps} steps, more than the 10000 allowed" in err
        assert list(out.iterdir()) == []

    def test_overflowing_torque_exits_2_without_data_files(self, tmp_path, capsys):
        # The grid converges at 1e160 A, but coenergy grows as current
        # squared and overflows: refused by name, with no warning and no
        # NaN curve written.
        config = write_config(tmp_path, "[sweep]\ncurrents = 1e160\ncurrent_points = 5\nangle_step_deg = 2.5\n")
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 2
        assert "srmec: error: current 1e+160 A: torque overflows the float range" in capsys.readouterr().err
        assert [path.name for path in out.iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize("key", ["turns_per_pole", "stator_teeth_count", "rotor_poles_count"])
    def test_count_beyond_the_float_range_exits_2_before_the_manifest(
        self, tmp_path, capsys, command, key
    ):
        # 10**400 once ended in a bare OverflowError (exit 1), for
        # turns_per_pole after the sweep had written its manifest.
        config = write_config(tmp_path, f"[geometry]\n{key} = {10**400}\n")
        out = tmp_path / "o"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        assert f"[geometry] {key} overflows the float range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_turns_overflowing_the_linkage_exit_2_before_the_manifest(self, tmp_path, capsys, command):
        # 10**300 turns fit a float, but the sweep's linkage, which grows
        # as turns squared, does not: `sweep` once wrote the manifest,
        # printed a numpy overflow warning (an error under this suite's
        # filter) and exited 2 naming no key.
        config = write_config(tmp_path, f"[geometry]\nturns_per_pole = {10**300}\n")
        out = tmp_path / "o"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert (
            "srmec: error: [geometry] turns_per_pole = 1e+300 with [sweep] currents up to 8 A "
            "could overflow the flux linkage\n"
        ) in err
        assert "Warning" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize(
        "text, named",
        [
            (
                "[geometry]\nstack_length = 1e-300\n",
                "stack_length = 1e-300 make the air-gap reluctance inf A/Wb",
            ),
            (
                "[geometry]\npm_length = 1e100\npm_width = 1e-200\n",
                "pm_length = 1e+100, pm_width = 1e-200, stack_length = 20 with [materials] "
                "pm_relative_permeability = 1.05 make the magnet reluctance 3.7894e+307 A/Wb",
            ),
        ],
        ids=["thin_stack", "huge_thin_magnet"],
    )
    def test_derived_values_past_the_float_range_exit_2_before_the_manifest(
        self, tmp_path, capsys, command, text, named
    ):
        # Both once wrote the manifest, printed numpy RuntimeWarnings (an
        # error under this suite's filter) and exited 3 naming no key: a
        # "singular or non-finite" system, and a condition number of
        # 1.005e+301 whose cheap bound overflowed.
        config = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "srmec: error: [geometry] " in err and named in err
        assert "Warning" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize(
        "text, named",
        [
            (
                "[geometry]\npm_length = 1e-100\npm_width = 1e300\n",
                "make the magnet reluctance 0 A/Wb, below the",
            ),
            (
                "[geometry]\nstack_length = 1e300\nstator_outer_diameter = 1e100\n",
                "make the stator pole reluctance 0 A/Wb, below the",
            ),
        ],
        ids=["vanishing_magnet", "vast_stack"],
    )
    def test_vanishing_reluctances_exit_2_before_the_manifest(
        self, tmp_path, capsys, command, text, named
    ):
        # Both once ended in a ZeroDivisionError traceback (exit 1) in
        # both commands, the second after a numpy overflow warning.
        config = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "srmec: error: [geometry] " in err and named in err
        assert "Traceback" not in err and "Warning" not in err
        assert not out.exists()

    def test_a_linear_model_refusal_leaves_the_sweep_alone(self, tmp_path):
        # A vanishing pole under a vast mu_r leaves the linear model's
        # pole reluctance 0: `solve` once wrote its manifest and exited 2
        # naming no key, and `sweep`, which never reads mu_r, was refused
        # by name until the bound moved to `solve`.
        config = write_config(
            tmp_path,
            "[geometry]\nstator_pole_height = 1e-200\n"
            "[materials]\niron_relative_permeability = 1e200\n" + FUZZ_SWEEP,
        )
        out = tmp_path / "sweep"
        code, stdout, caught = run_recorded(["sweep", "--config", str(config), "--out", str(out)])
        assert code == 0
        assert [str(w.message) for w in caught] == []
        assert_finite_numbers(stdout)
        for written in out.iterdir():
            assert_finite_numbers(written.read_text())
        out = tmp_path / "solve"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            assert main(["solve", "--config", str(config), "--out", str(out)]) == 2
        assert (
            "srmec: error: [geometry] stator_outer_diameter = 140, stator_yoke_thickness = 4.72, "
            "stator_pole_height = 1e-200, stator_tooth_arc = 4.87, stack_length = 20 with "
            "[materials] iron_relative_permeability = 1e+200 make the stator pole reluctance "
            "0 A/Wb, below the 2.22507e-308 A/Wb a solve can take\n"
        ) in stderr.getvalue()
        assert not out.exists()

    @pytest.mark.parametrize("points", [4126, 10**30])
    def test_oversized_grid_exits_2_before_the_manifest(self, tmp_path, capsys, monkeypatch, points):
        # 4,126 points x 80 angles is the first grid over 33 x 10,000;
        # 10**30 once failed inside numpy after the manifest was written.
        def never(*args, **kwargs):
            raise AssertionError("grid solved before current_points was checked")

        monkeypatch.setattr("srmec.torque.solve_nonlinear_grid", never)
        config = write_config(tmp_path, f"[sweep]\ncurrents = 1\ncurrent_points = {points}\n")
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"[sweep] current_points {points} x 80 angle steps is more than the 330000" in err
        assert not out.exists()

    def test_currents_sharing_a_file_name_exit_2(self, tmp_path, capsys):
        # Both currents print as 1 under {:g}, so the second curve would
        # overwrite torque_curve_1A.csv.
        config = write_config(tmp_path, "[sweep]\ncurrents = 1, 1.0000001\n")
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "1.0 and 1.0000001" in err and "torque_curve_1A.csv" in err
        assert not (out / "manifest.json").exists()


BUNDLED_MOTORS = resources.files("srmec").joinpath("data/motors.csv").read_text()


def write_motors(path, cells):
    """The bundled motors CSV with the given {(row name, column): text}
    cells replaced, written to path."""
    rows = list(csv.DictReader(io.StringIO(BUNDLED_MOTORS)))
    for record in rows:
        for (row, column), value in cells.items():
            if record["name"] == row:
                record[column] = value
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return path


class TestCompareCommand:
    def test_matches_library_table(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert main(["compare", "--out", str(out)]) == 0
        expected = comparison_table(load_motor_records())
        assert (out / "comparison.csv").read_text() == expected
        assert capsys.readouterr().out == expected

    def test_baseline_and_full_precision_flags(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = main(
            ["compare", "--baseline", "srm-8-12", "--full-precision", "--out", str(out)]
        )
        assert code == 0
        expected = comparison_table(
            load_motor_records(), baseline="srm-8-12", full_precision=True
        )
        assert (out / "comparison.csv").read_text() == expected

    def test_schema_violation_names_row_and_column(self, tmp_path, capsys):
        motors = tmp_path / "motors.csv"
        motors.write_text(
            "name,volume_ml,pm_volume_ml,current_a,mean_torque_nm\n"
            "culprit,100,,4,\n"
        )
        out = tmp_path / "cmp"
        assert main(["compare", "--motors", str(motors), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "culprit" in err and "mean_torque_nm" in err

    def test_unknown_baseline_exits_2(self, tmp_path, capsys):
        assert main(["compare", "--baseline", "ghost", "--out", str(tmp_path / "o")]) == 2
        assert "ghost" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, column, value, message",
        [
            # 5e-324 mL is 0 L, which the metrics would divide by.
            (
                "srm-8-4",
                "volume_ml",
                "5e-324",
                "srmec: error: srm-8-4: volume_ml 5e-324 underflows to 0 L\n",
            ),
            # The baseline's torque density per ampere over this row's
            # subnormal one is inf.
            (
                "multitooth-hesrm",
                "mean_torque_nm",
                "5e-324",
                "srmec: error: row 'multitooth-hesrm', column 'baseline_improvement_percent': the "
                "baseline 'hemtsrm-16-18' over this row's torque density per ampere (5e-324) overflows\n",
            ),
            # 1e-320 mL is 1e-323 L, and the torque over it is inf.
            (
                "srm-8-4",
                "volume_ml",
                "1e-320",
                "srmec: error: row 'srm-8-4', column 'torque_density_nm_per_l': "
                "torque_density overflows the float range\n",
            ),
            # The baseline row's own torque per ampere is inf.
            (
                "hemtsrm-16-18",
                "current_a",
                "5e-324",
                "srmec: error: row 'hemtsrm-16-18', column 'torque_per_ampere_nm_per_a': "
                "torque_per_ampere overflows the float range\n",
            ),
        ],
        ids=["volume", "improvement", "density", "baseline-per-ampere"],
    )
    def test_a_subnormal_cell_exits_2_before_the_manifest(
        self, tmp_path, capsys, row, column, value, message
    ):
        motors = write_motors(tmp_path / "motors.csv", {(row, column): value})
        out = tmp_path / "cmp"
        assert main(["compare", "--motors", str(motors), "--out", str(out)]) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "srmec" in capsys.readouterr().out

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["polish"])
        assert excinfo.value.code == 2


SRC = Path(__file__).resolve().parent.parent / "src"


def run_alone(argv):
    """One srmec command in a fresh interpreter; returns its stdout."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    code = "import sys; from srmec.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def data_files(out):
    """Every file a run wrote, but the timestamped manifest."""
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}


class TestProcessState:
    """The parser and the default curve are built once per process and
    shared by every main() call; nothing else outlives a call."""

    def test_solve_without_out_writes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "D"
        assert main(["solve", "--current", "2", "--out", str(out)]) == 0
        written = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["solve", "--current", "3"]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == written
        assert [p.name for p in tmp_path.iterdir()] == ["D"]
        assert "current_a = 3" in capsys.readouterr().out

    def test_defaults_do_not_keep_the_last_call_flags(self, capsys):
        assert main(["solve", "--current", "2", "--angle", "5"]) == 0
        capsys.readouterr()
        assert main(["solve"]) == 0
        record = capsys.readouterr().out
        assert "current_a = 8\n" in record and "rotor_angle_deg = 10\n" in record

    def test_parse_error_leaves_the_parser_usable(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--current", "two"])
        assert excinfo.value.code == 2
        assert "invalid float value: 'two'" in capsys.readouterr().err
        assert main(["solve", "--current", "2"]) == 0
        assert "current_a = 2\n" in capsys.readouterr().out

    def test_commands_in_one_process_match_each_run_alone(self, tmp_path, capsys):
        config = write_config(tmp_path, FAST_SWEEP)
        runs = [
            ["sweep", "--config", str(config), "--out"],
            ["solve", "--current", "3", "--angle", "7", "--out"],
            ["fidelity", "--samples", "3", "--seed", "5", "--out"],
        ]
        together = []
        for k, argv in enumerate(runs):
            out = tmp_path / f"together{k}"
            assert main([*argv, str(out)]) == 0
            together.append((capsys.readouterr().out, data_files(out)))
        for k, argv in enumerate(runs):
            out = tmp_path / f"alone{k}"
            stdout = run_alone([*argv, str(out)])
            assert (stdout, data_files(out)) == together[k], argv[0]


# The fuzzed keys: every geometry and materials key, each drawn over
# the whole float range (1e-300 to 1e300) or, for counts, up to 10**300.
FUZZ_KEYS = tuple(
    (section, f.name) for section, cls in (("geometry", MotorGeometry), ("materials", MaterialSet))
    for f in fields(cls)
)
FUZZ_INTS = {"turns_per_pole", "stator_teeth_count", "rotor_poles_count"}
FUZZ_SWEEP = "[sweep]\ncurrents = 2, 8\ncurrent_points = 3\nangle_step_deg = 5\n"
extreme_floats = st.one_of(
    st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e),
    st.floats(min_value=1e-300, max_value=1e300),
)
extreme_ints = st.one_of(
    st.integers(min_value=0, max_value=300).map(lambda e: 10**e),
    st.integers(min_value=1, max_value=10**300),
)


@st.composite
def extreme_settings(draw):
    """One or two geometry or materials keys at extreme values:
    {(section, key): value}."""
    keys = draw(st.lists(st.sampled_from(FUZZ_KEYS), min_size=1, max_size=2, unique=True))
    return {key: draw(extreme_ints if key[1] in FUZZ_INTS else extreme_floats) for key in keys}


def fuzz_config_text(values) -> str:
    lines = []
    for section in ("geometry", "materials"):
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value!r}" for (where, key), value in values.items() if where == section)
    return "\n".join(lines) + "\n" + FUZZ_SWEEP


def run_recorded(argv):
    """main(argv) with its stdout and every warning it raised recorded."""
    stdout = io.StringIO()
    with (
        warnings.catch_warnings(record=True) as caught,
        contextlib.redirect_stdout(stdout),
        contextlib.redirect_stderr(io.StringIO()),
    ):
        warnings.simplefilter("always")
        code = main(argv)
    return code, stdout.getvalue(), caught


def assert_finite_numbers(text: str) -> None:
    for token in re.split(r"[\s,=]+", text):
        try:
            value = float(token)
        except ValueError:
            continue
        assert math.isfinite(value), token


def check_cli_boundary(values) -> None:
    """The four promises of the CLI boundary for one config, in `solve`
    and a tiny `sweep`: exit 0, 2 or 3; exit 2 before the manifest; no
    numpy warning (MotorGeometry's own wide-gap warning is allowed); and
    no nan or inf in the outputs of a run that succeeds."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.cfg"
        config.write_text(fuzz_config_text(values))
        for command in ("solve", "sweep"):
            out = Path(tmp) / command
            code, stdout, caught = run_recorded([command, "--config", str(config), "--out", str(out)])
            assert code in (0, 2, 3), (command, code)
            if code == 2:
                assert not out.exists(), command
            for caught_warning in caught:
                assert caught_warning.category is UserWarning, (command, str(caught_warning.message))
                assert "lumped gap model degrades" in str(caught_warning.message)
            if code == 0:
                assert_finite_numbers(stdout)
                for written in out.iterdir():
                    if written.name != "manifest.json":
                        assert_finite_numbers(written.read_text())


# The fuzzed cells: every numeric column of every bundled motor, set to
# a finite float of either sign over the whole range, or to one of the
# values that once broke the command or border the float range.
MOTOR_CELLS = tuple(
    (record["name"], column)
    for record in csv.DictReader(io.StringIO(BUNDLED_MOTORS))
    for column in MOTORS_COLUMNS[1:]
)
cell_floats = st.one_of(extreme_floats, st.floats(min_value=5e-324, max_value=1e-300))
extreme_cell_texts = st.one_of(
    st.sampled_from(["inf", "-inf", "nan", "1e309", "1e308", "5e-324", "1e-320", "0", "-0", "text", ""]),
    st.one_of(cell_floats, cell_floats.map(lambda v: -v)).map(repr),
)


@st.composite
def extreme_motor_cells(draw):
    """One or two cells of the bundled motors CSV at extreme values:
    {(row name, column): text}."""
    cells = draw(st.lists(st.sampled_from(MOTOR_CELLS), min_size=1, max_size=2, unique=True))
    return {cell: draw(extreme_cell_texts) for cell in cells}


def check_compare_boundary(cells) -> None:
    """The four promises of check_cli_boundary for `srmec compare` on
    the bundled motors with the given cells replaced, with and without
    --full-precision; compare has no warning to allow."""
    with tempfile.TemporaryDirectory() as tmp:
        motors = write_motors(Path(tmp) / "motors.csv", cells)
        for flags in ([], ["--full-precision"]):
            out = Path(tmp) / f"cmp{len(flags)}"
            argv = ["compare", "--motors", str(motors), *flags, "--out", str(out)]
            code, stdout, caught = run_recorded(argv)
            assert code in (0, 2, 3), (flags, code)
            if code == 2:
                assert not out.exists(), flags
            assert [str(w.message) for w in caught] == [], flags
            if code == 0:
                assert_finite_numbers(stdout)
                assert_finite_numbers((out / "comparison.csv").read_text())


def signed(ints):
    """Integer text with an optional sign."""
    return st.tuples(st.sampled_from(["", "+", "-"]), ints).map(lambda parts: f"{parts[0]}{parts[1]}")


# Text argparse's int() refuses or reads in a surprising way: floats,
# non-finite words, other bases, digit separators, padding, non-ASCII
# digits and option-like dashes.
junk_texts = st.one_of(
    st.sampled_from(["", " ", "abc", "0x10", "1e3", "2.", "nan", "inf", "-inf", "1_0", " 3 ", "\u0663", "--", "--1"]),
    st.floats().map(repr),
)
# --samples stays tiny where it parses: a handful, or past the bound.
# Plain valid text comes first, so that about a quarter of the runs
# audit and write their files.
samples_texts = st.one_of(
    st.integers(1, 4).map(str),
    signed(st.integers(0, 4)),
    signed(st.integers(MAX_AUDIT_SAMPLES + 1, 10**60)),
    junk_texts,
)
seed_texts = st.one_of(
    st.integers(0, 2**16).map(str),
    st.integers(2**63, 10**60).map(str),
    signed(st.integers(0, 2**16)),
    signed(st.integers(0, 10**60)),
    junk_texts,
)


def check_fidelity_boundary(samples: str, seed: str) -> None:
    """The four promises of check_cli_boundary for `srmec fidelity` with
    the given --samples and --seed text.  argparse refuses text that is
    not an int by raising SystemExit(2), which counts as that exit; the
    audit has no warning to allow."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "fid"
        argv = ["fidelity", "--samples", samples, "--seed", seed, "--out", str(out)]
        try:
            code, stdout, caught = run_recorded(argv)
        except SystemExit as exit_:
            code, stdout, caught = exit_.code, "", []
        assert code in (0, 2, 3), code
        if code == 2:
            assert not out.exists()
        assert [str(w.message) for w in caught] == []
        if code == 0:
            assert_finite_numbers(stdout)
            assert_finite_numbers((out / "fidelity.csv").read_text())


class TestCliBoundaryFuzz:
    """Extreme config values end in a result, a named refusal or a named
    solve failure, never in a crash, a warning or a non-finite output."""

    @settings(max_examples=100, deadline=None, derandomize=True, phases=(Phase.explicit, Phase.generate))
    @given(extreme_settings())
    # Reproducers that once crashed or were refused after the manifest.
    @example({("geometry", "pm_length"): 1e-100, ("geometry", "pm_width"): 1e300})
    @example({("geometry", "stack_length"): 1e300, ("geometry", "stator_outer_diameter"): 1e100})
    @example(
        {("geometry", "stator_pole_height"): 1e-200, ("materials", "iron_relative_permeability"): 1e200}
    )
    # A saturated pass whose stamp overflows once warned before its exit 3.
    @example(
        {("geometry", "stator_yoke_thickness"): 1e-299, ("materials", "iron_relative_permeability"): 1e300}
    )
    # Only the gap's effective area may be computed from its reluctance.
    @example({("geometry", "stator_outer_diameter"): 2.3e299})
    def test_extreme_keys_end_in_a_named_exit(self, values):
        check_cli_boundary(values)

    @settings(max_examples=100, deadline=None, derandomize=True, phases=(Phase.explicit, Phase.generate))
    @given(extreme_motor_cells())
    # Reproducers that once crashed, printed inf or were refused without
    # naming their row.
    @example({("srm-8-4", "volume_ml"): "5e-324"})
    @example({("multitooth-hesrm", "mean_torque_nm"): "5e-324"})
    @example({("srm-8-4", "volume_ml"): "1e-320"})
    @example({("hemtsrm-16-18", "current_a"): "5e-324"})
    def test_extreme_motor_cells_end_in_a_named_exit(self, cells):
        check_compare_boundary(cells)

    @settings(max_examples=100, deadline=None, derandomize=True, phases=(Phase.explicit, Phase.generate))
    @given(samples_texts, seed_texts)
    # Seeds past 64 and 128 bits are accepted; -0 samples, one sample
    # past the bound and a negative seed are refused before the manifest.
    @example("2", "18446744073709551616")
    @example("2", "340282366920938463463374607431768211457")
    @example("-0", "108")
    @example(str(MAX_AUDIT_SAMPLES + 1), "108")
    @example("1", "-1")
    def test_extreme_fidelity_arguments_end_in_a_named_exit(self, samples, seed):
        check_fidelity_boundary(samples, seed)
