"""Tests for configuration loading and the command-line interface."""

import json
import logging

import pytest

from srmec.cli import main
from srmec.config import (
    DEFAULT_SWEEP_CURRENTS,
    ConfigError,
    RunConfig,
    config_hash,
    default_config,
    load_config,
)
from srmec.metrics import comparison_table, load_motor_records
from srmec.motor import MaterialSet, MotorGeometry
from srmec.saturation import BhCurve, NonlinearConfig


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
        assert config.solver == NonlinearConfig()
        assert config.sweep_currents == DEFAULT_SWEEP_CURRENTS
        assert config.current_points == 33
        assert config.angle_step_deg == 0.25

    def test_file_overrides_selected_keys(self, tmp_path):
        path = write_config(
            tmp_path,
            """
[geometry]
stack_length = 25.0
turns_per_pole = 120

[materials]
pm_remanence = 1.1

[solver]
max_iterations = 150

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
        assert config.solver.max_iterations == 150
        assert config.solver.tolerance == NonlinearConfig().tolerance
        assert config.sweep_currents == (2.0, 4.5)
        assert config.current_points == 9
        assert config.angle_step_deg == 0.5

    def test_missing_keys_log_a_notice(self, tmp_path, caplog):
        path = write_config(tmp_path, "[solver]\nmax_iterations = 150\n")
        with caplog.at_level(logging.INFO, logger="srmec.config"):
            load_config(path)
        notices = [r.message for r in caplog.records if "using default" in r.message]
        assert any("tolerance" in message for message in notices)
        assert any("[geometry]" in message or "geometry" in message for message in notices)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, "[rotor]\npoles = 18\n")
        with pytest.raises(ConfigError, match=r"unknown section \[rotor\]"):
            load_config(path)

    def test_unknown_key_rejected_by_name(self, tmp_path):
        path = write_config(tmp_path, "[geometry]\nbore = 12\n")
        with pytest.raises(ConfigError, match="'bore'"):
            load_config(path)

    def test_removed_relaxation_key_rejected(self, tmp_path):
        # The Newton solver has no under-relaxation factor; a file still
        # setting it fails like any other unknown key.
        path = write_config(tmp_path, "[solver]\nrelaxation = 0.5\n")
        with pytest.raises(ConfigError, match=r"\[solver\] unknown key 'relaxation'"):
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
            solver=base.solver,
            sweep_currents=(2.0,),
        )
        assert config_hash(base) != config_hash(changed)

    def test_hash_ignores_file_formatting(self, tmp_path):
        sparse = write_config(tmp_path, "[solver]\nmax_iterations = 150\n", name="a.cfg")
        noisy = write_config(
            tmp_path,
            "# a comment\n[solver]\n\nmax_iterations =   150\n\n[geometry]\n",
            name="b.cfg",
        )
        assert config_hash(load_config(sparse)) == config_hash(load_config(noisy))


def read_record(path):
    record = {}
    for line in path.read_text().strip().split("\n"):
        key, _, value = line.partition(" = ")
        record[key] = value
    return record


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
        [(["--current", "nan"], "phase_current"), (["--angle", "25"], "rotor_angle")],
    )
    def test_bad_operating_point_exits_2_before_the_manifest(self, tmp_path, capsys, flags, message):
        out = tmp_path / "D"
        out.mkdir()
        assert main(["solve", *flags, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []

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
        assert "unknown key 'relaxation'" in capsys.readouterr().err

    def test_malformed_config_key_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, "[geometry]\nbore = 1\n")
        assert main(["solve", "--config", str(path)]) == 2
        assert "bore" in capsys.readouterr().err


class TestFidelityCommand:
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

    def test_zero_samples_exits_2(self, tmp_path, capsys):
        assert main(["fidelity", "--samples", "0", "--out", str(tmp_path)]) == 2
        assert "--samples" in capsys.readouterr().err

    def test_negative_seed_exits_2_before_the_manifest(self, tmp_path, capsys):
        assert main(["fidelity", "--seed", "-1", "--out", str(tmp_path)]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()


class TestSweepCommand:
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

    @pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
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

    def test_currents_sharing_a_file_name_exit_2(self, tmp_path, capsys):
        # Both currents print as 1 under {:g}, so the second curve would
        # overwrite torque_curve_1A.csv.
        config = write_config(tmp_path, "[sweep]\ncurrents = 1, 1.0000001\n")
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "1.0 and 1.0000001" in err and "torque_curve_1A.csv" in err
        assert not (out / "manifest.json").exists()


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
