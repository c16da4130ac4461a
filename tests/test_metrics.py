"""Tests for motor comparison metrics and the bundled records."""

import math
from dataclasses import replace

import pytest

from srmec.metrics import (
    MetricsRow,
    MotorDataError,
    MotorRecord,
    comparison_table,
    derive_metrics,
    improvement_percent,
    load_motor_records,
)

# Reference figures for the bundled records, as printed in the source
# catalogs (3-decimal display rounding, which is occasionally a
# truncation): name -> (N*m/L, N*m/A, N*m/L/A).  Recomputed values must
# land within 0.002 of every cell.
PRINTED_METRICS = {
    "hemtsrm-16-18": (10.527, 0.404, 1.315),
    "srm-8-12": (6.898, 0.158, 1.149),
    "srm-8-4": (4.710, 0.108, 0.785),
    "hybrid-rotor-srm-a": (5.434, 0.125, 0.905),
    "hybrid-rotor-srm-b": (5.145, 0.118, 0.857),
    "multitooth-hesrm": (6.231, 0.143, 1.038),
    "pm-srm": (3.913, 0.090, 0.652),
    "hybrid-rotor-srm-c": (3.768, 0.086, 0.628),
    "fspm-motor": (6.521, 0.150, 1.086),
}
PRINTED_TOLERANCE = 0.002

# Published claims for the lead machine's torque density per ampere
# against three competitors, in percent, good to 0.2 points.
PRINTED_IMPROVEMENTS = {
    "srm-8-12": 14.4,
    "multitooth-hesrm": 26.68,
    "fspm-motor": 21.08,
}


@pytest.fixture(scope="module")
def bundled():
    return load_motor_records()


@pytest.fixture(scope="module")
def bundled_by_name(bundled):
    return {record.name: record for record in bundled}


class TestMotorRecordValidation:
    def test_accepts_magnetless_machine(self):
        record = MotorRecord(
            name="plain", volume_ml=138.0, pm_volume_ml=None, current_a=6.0, mean_torque_nm=0.9
        )
        assert record.pm_volume_ml is None
        assert record.volume_l == pytest.approx(0.138)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(name="", volume_ml=1.0, pm_volume_ml=None, current_a=1.0, mean_torque_nm=1.0),
            dict(name=" pad ", volume_ml=1.0, pm_volume_ml=None, current_a=1.0, mean_torque_nm=1.0),
            dict(name="m", volume_ml=0.0, pm_volume_ml=None, current_a=1.0, mean_torque_nm=1.0),
            dict(name="m", volume_ml=1.0, pm_volume_ml=-1.0, current_a=1.0, mean_torque_nm=1.0),
            dict(name="m", volume_ml=1.0, pm_volume_ml=None, current_a=0.0, mean_torque_nm=1.0),
            dict(name="m", volume_ml=1.0, pm_volume_ml=None, current_a=1.0, mean_torque_nm=-0.1),
            dict(
                name="m",
                volume_ml=math.inf,
                pm_volume_ml=None,
                current_a=1.0,
                mean_torque_nm=1.0,
            ),
        ],
    )
    def test_rejects_bad_records(self, kwargs):
        with pytest.raises(ValueError):
            MotorRecord(**kwargs)

    def test_metrics_row_rejects_negative(self):
        with pytest.raises(ValueError, match="torque_density"):
            MetricsRow(
                torque_density=-1.0, torque_per_ampere=0.0, torque_density_per_ampere=0.0
            )


class TestDeriveMetrics:
    def test_lead_machine_worked_example(self):
        record = MotorRecord(
            name="lead", volume_ml=307.0, pm_volume_ml=3.0, current_a=8.0, mean_torque_nm=3.232
        )
        metrics = derive_metrics(record)
        assert metrics.torque_density == pytest.approx(10.527, abs=PRINTED_TOLERANCE)
        assert metrics.torque_per_ampere == pytest.approx(0.404, abs=PRINTED_TOLERANCE)
        assert metrics.torque_density_per_ampere == pytest.approx(1.315, abs=PRINTED_TOLERANCE)

    def test_zero_torque_gives_zero_metrics(self):
        record = MotorRecord(
            name="idle", volume_ml=100.0, pm_volume_ml=None, current_a=5.0, mean_torque_nm=0.0
        )
        metrics = derive_metrics(record)
        assert metrics.torque_density == 0.0
        assert metrics.torque_per_ampere == 0.0
        assert metrics.torque_density_per_ampere == 0.0

    def test_every_bundled_record_matches_printed_cells(self, bundled_by_name):
        assert set(bundled_by_name) == set(PRINTED_METRICS)
        for name, printed in PRINTED_METRICS.items():
            metrics = derive_metrics(bundled_by_name[name])
            computed = (
                metrics.torque_density,
                metrics.torque_per_ampere,
                metrics.torque_density_per_ampere,
            )
            for got, expected in zip(computed, printed):
                assert got == pytest.approx(expected, abs=PRINTED_TOLERANCE), name

    def test_round_trip_identity(self, bundled):
        # density_per_ampere * current * volume_L recovers the torque.
        for record in bundled:
            metrics = derive_metrics(record)
            back = metrics.torque_density_per_ampere * record.current_a * record.volume_l
            assert back == pytest.approx(record.mean_torque_nm, rel=1e-12)

    def test_ranking_invariant_under_common_scaling(self, bundled):
        def order(records):
            rows = [(derive_metrics(r), r.name) for r in records]
            return [
                tuple(
                    name
                    for _, name in sorted(rows, key=lambda pair: getattr(pair[0], field))
                )
                for field in (
                    "torque_density",
                    "torque_per_ampere",
                    "torque_density_per_ampere",
                )
            ]

        scaled = [
            MotorRecord(
                name=r.name,
                volume_ml=r.volume_ml,
                pm_volume_ml=r.pm_volume_ml,
                current_a=r.current_a,
                mean_torque_nm=3.7 * r.mean_torque_nm,
            )
            for r in bundled
        ]
        assert order(bundled) == order(scaled)


class TestImprovementPercent:
    def test_self_comparison_is_zero(self, bundled):
        metrics = derive_metrics(bundled[0])
        assert improvement_percent(metrics, metrics) == 0.0

    def test_printed_improvement_claims(self, bundled_by_name):
        lead = derive_metrics(bundled_by_name["hemtsrm-16-18"])
        for name, expected in PRINTED_IMPROVEMENTS.items():
            other = derive_metrics(bundled_by_name[name])
            assert improvement_percent(lead, other) == pytest.approx(expected, abs=0.2)

    def test_zero_baseline_raises(self, bundled):
        zero = MetricsRow(
            torque_density=0.0, torque_per_ampere=0.0, torque_density_per_ampere=0.0
        )
        with pytest.raises(ZeroDivisionError):
            improvement_percent(derive_metrics(bundled[0]), zero)


class TestLoadMotorRecords:
    def test_bundled_file_loads_nine_records(self, bundled):
        assert len(bundled) == 9
        assert bundled[0].name == "hemtsrm-16-18"
        assert bundled[0].volume_ml == 307.0
        assert bundled[0].pm_volume_ml == 3.0

    def test_magnetless_rows_have_no_pm_volume(self, bundled_by_name):
        assert bundled_by_name["srm-8-12"].pm_volume_ml is None
        assert bundled_by_name["pm-srm"].pm_volume_ml is None

    def test_custom_file_round_trip(self, tmp_path):
        path = tmp_path / "motors.csv"
        path.write_text(
            "name,volume_ml,pm_volume_ml,current_a,mean_torque_nm\n"
            "one,100,2.5,4,1.2\n"
            "two,100,,4,0.8\n"
        )
        records = load_motor_records(path)
        assert [r.name for r in records] == ["one", "two"]
        assert records[1].pm_volume_ml is None

    @pytest.mark.parametrize(
        "body, fragment",
        [
            ("", "empty motors file"),
            ("name,volume_ml,pm_volume_ml,current_a,mean_torque_nm\n", "no motor rows"),
            (
                "name,volume_ml,pm_volume_ml,current_a,mean_torque_nm,extra\n"
                "one,100,,4,1.2,9\n",
                "unknown column 'extra'",
            ),
            (
                "name,volume_ml,pm_volume_ml,current_a\n" "one,100,,4\n",
                "missing column 'mean_torque_nm'",
            ),
            (
                "name,volume_ml,pm_volume_ml,current_a,mean_torque_nm\n" "one,100,,4,\n",
                "column 'mean_torque_nm': empty cell",
            ),
            (
                "name,volume_ml,pm_volume_ml,current_a,mean_torque_nm\n" "one,100,,4,fast\n",
                "not a number: 'fast'",
            ),
            (
                "name,volume_ml,pm_volume_ml,current_a,mean_torque_nm\n"
                "one,100,,4,1.0\none,100,,4,1.0\n",
                "duplicate motor name",
            ),
            (
                "name,volume_ml,pm_volume_ml,current_a,mean_torque_nm\n" "one,-5,,4,1.0\n",
                "volume_ml must be positive",
            ),
            (
                "name,volume_ml,pm_volume_ml,current_a,mean_torque_nm\n" "one,5e-324,,4,1.0\n",
                "one: volume_ml 5e-324 underflows to 0 L",
            ),
        ],
    )
    def test_schema_violations_are_named(self, tmp_path, body, fragment):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        with pytest.raises(MotorDataError, match=fragment):
            load_motor_records(path)

    def test_error_names_the_offending_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "name,volume_ml,pm_volume_ml,current_a,mean_torque_nm\n"
            "good,100,,4,1.0\n"
            "culprit,100,,4,\n"
        )
        with pytest.raises(MotorDataError, match="culprit"):
            load_motor_records(path)


class TestComparisonTable:
    def test_bundled_table_shape_and_rounding(self, bundled):
        table = comparison_table(bundled)
        lines = table.strip().split("\n")
        assert len(lines) == 1 + len(bundled)
        header = lines[0].split(",")
        assert header[0] == "name"
        assert header[-1] == "baseline_improvement_percent"
        first = lines[1].split(",")
        density_column = header.index("torque_density_nm_per_l")
        # Recomputed density is 10.5277; display shows three decimals.
        assert first[density_column] == "10.528"
        assert first[-1] == "0.000"

    def test_derived_columns_match_printed_values(self, bundled):
        table = comparison_table(bundled)
        lines = table.strip().split("\n")
        header = lines[0].split(",")
        columns = [
            header.index("torque_density_nm_per_l"),
            header.index("torque_per_ampere_nm_per_a"),
            header.index("torque_density_per_ampere_nm_per_l_per_a"),
        ]
        for line in lines[1:]:
            cells = line.split(",")
            printed = PRINTED_METRICS[cells[0]]
            for column, expected in zip(columns, printed):
                assert float(cells[column]) == pytest.approx(expected, abs=PRINTED_TOLERANCE)

    def test_improvement_column_reproduces_claims(self, bundled):
        table = comparison_table(bundled)
        lines = table.strip().split("\n")
        by_name = {line.split(",")[0]: line.split(",")[-1] for line in lines[1:]}
        for name, expected in PRINTED_IMPROVEMENTS.items():
            assert float(by_name[name]) == pytest.approx(expected, abs=0.2)

    def test_empty_pm_volume_cell_stays_empty(self, bundled):
        table = comparison_table(bundled)
        lines = table.strip().split("\n")
        header = lines[0].split(",")
        pm_column = header.index("pm_volume_ml")
        row = next(line for line in lines[1:] if line.startswith("srm-8-12,"))
        assert row.split(",")[pm_column] == ""

    def test_full_precision_round_trips(self, bundled):
        table = comparison_table(bundled, full_precision=True)
        lines = table.strip().split("\n")
        header = lines[0].split(",")
        density_column = header.index("torque_density_nm_per_l")
        first = lines[1].split(",")
        assert float(first[density_column]) == derive_metrics(bundled[0]).torque_density

    def test_display_rounding_is_half_even(self):
        # 0.0625 and 0.1875 are exact binary halves: they must round to
        # the even neighbor, not uniformly up.
        records = [
            MotorRecord(
                name="half-down", volume_ml=1000.0, pm_volume_ml=None, current_a=1.0,
                mean_torque_nm=0.0625,
            ),
            MotorRecord(
                name="half-up", volume_ml=1000.0, pm_volume_ml=None, current_a=1.0,
                mean_torque_nm=0.1875,
            ),
        ]
        table = comparison_table(records)
        lines = table.strip().split("\n")
        header = lines[0].split(",")
        density_column = header.index("torque_density_nm_per_l")
        assert lines[1].split(",")[density_column] == "0.062"
        assert lines[2].split(",")[density_column] == "0.188"

    def test_single_record_table(self, bundled):
        table = comparison_table([bundled[0]])
        assert len(table.strip().split("\n")) == 2

    def test_explicit_baseline_choice(self, bundled):
        table = comparison_table(bundled, baseline="srm-8-12")
        lines = table.strip().split("\n")
        row = next(line for line in lines[1:] if line.startswith("srm-8-12,"))
        assert row.split(",")[-1] == "0.000"

    def test_overflowing_improvement_names_its_row(self):
        base = MotorRecord(name="base", volume_ml=100.0, pm_volume_ml=None, current_a=1.0, mean_torque_nm=1.0)
        tiny = replace(base, name="tiny", mean_torque_nm=5e-324)
        with pytest.raises(MotorDataError, match=r"^row 'tiny', column 'baseline_improvement_percent': "):
            comparison_table([base, tiny])
        # Against the tiny baseline the other row's improvement is -100%.
        assert comparison_table([base, tiny], baseline="tiny").split("\n")[1].endswith(",-100.000")

    @pytest.mark.parametrize(
        "change, column",
        [
            ({"volume_ml": 1e-320}, "torque_density_nm_per_l"),
            ({"current_a": 5e-324}, "torque_per_ampere_nm_per_a"),
            ({"current_a": 1e-300, "volume_ml": 1e-10}, "torque_density_per_ampere_nm_per_l_per_a"),
        ],
        ids=["density", "per-ampere", "density-per-ampere"],
    )
    def test_overflowing_metric_names_its_row_and_column(self, change, column):
        base = MotorRecord(name="base", volume_ml=100.0, pm_volume_ml=None, current_a=1.0, mean_torque_nm=1.0)
        wild = replace(base, name="wild", **change)
        pattern = rf"^row 'wild', column '{column}': "
        with pytest.raises(MotorDataError, match=pattern):
            derive_metrics(wild)
        for records in ([base, wild], [wild, base]):
            with pytest.raises(MotorDataError, match=pattern):
                comparison_table(records)

    def test_unknown_baseline_raises(self, bundled):
        with pytest.raises(ValueError, match="not among the records"):
            comparison_table(bundled, baseline="missing")

    def test_empty_records_raise(self):
        with pytest.raises(ValueError, match="at least one"):
            comparison_table([])
