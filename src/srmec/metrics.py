"""Torque-density metrics for comparing motor designs.

Competing machines are recorded by their primitive catalog numbers
(active volume, rated current, measured mean torque); every derived
figure of merit is recomputed here from those primitives at full
precision.  Display rounding happens only at serialization, and the
serializer can be asked for full-precision output instead.

A reference data file of published machines ships with the package so
the comparison is reproducible from primitives alone; additional motors
can be appended to a copy of that file.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

DEFAULT_MOTORS_RESOURCE = "data/motors.csv"
MOTORS_COLUMNS = ("name", "volume_ml", "pm_volume_ml", "current_a", "mean_torque_nm")
# The comparison table's column for each MetricsRow field.
METRIC_COLUMNS = {
    "torque_density": "torque_density_nm_per_l",
    "torque_per_ampere": "torque_per_ampere_nm_per_a",
    "torque_density_per_ampere": "torque_density_per_ampere_nm_per_l_per_a",
}


class MotorDataError(ValueError):
    """Motor data file violates the schema; names the row and column."""


@dataclass(frozen=True)
class MotorRecord:
    """Primitive catalog numbers for one machine.

    Args:
        name: unique label.
        volume_ml: active volume including frame, mL.
        pm_volume_ml: magnet volume, mL; None for machines without
            magnets (distinct from an explicit zero).
        current_a: rated phase current, A.
        mean_torque_nm: mean static torque at rated current, N*m.
    """

    name: str
    volume_ml: float
    pm_volume_ml: float | None
    current_a: float
    mean_torque_nm: float

    def __post_init__(self) -> None:
        if not self.name or self.name != self.name.strip():
            raise ValueError("name must be nonempty without surrounding whitespace")
        if not (math.isfinite(self.volume_ml) and self.volume_ml > 0):
            raise ValueError(f"{self.name}: volume_ml must be positive")
        if self.volume_l == 0.0:
            raise ValueError(f"{self.name}: volume_ml {self.volume_ml!r} underflows to 0 L")
        if not (math.isfinite(self.current_a) and self.current_a > 0):
            raise ValueError(f"{self.name}: current_a must be positive")
        if not (math.isfinite(self.mean_torque_nm) and self.mean_torque_nm >= 0):
            raise ValueError(f"{self.name}: mean_torque_nm must be nonnegative")
        if self.pm_volume_ml is not None and not (
            math.isfinite(self.pm_volume_ml) and self.pm_volume_ml >= 0
        ):
            raise ValueError(f"{self.name}: pm_volume_ml must be nonnegative when given")

    @property
    def volume_l(self) -> float:
        return self.volume_ml / 1000.0


@dataclass(frozen=True)
class MetricsRow:
    """Figures of merit derived from one MotorRecord.

    torque_density is N*m/L, torque_per_ampere is N*m/A,
    torque_density_per_ampere is N*m/L/A.
    """

    torque_density: float
    torque_per_ampere: float
    torque_density_per_ampere: float

    def __post_init__(self) -> None:
        for field_name in ("torque_density", "torque_per_ampere", "torque_density_per_ampere"):
            value = getattr(self, field_name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{field_name} must be finite and nonnegative")


def derive_metrics(record: MotorRecord) -> MetricsRow:
    """All three figures of merit, full precision.

    torque_density_per_ampere is torque_density / current (not an
    independent quotient), so the round-trip identity
    density_per_ampere * current * volume_L = mean_torque holds to
    rounding.

    Raises MotorDataError, naming the row and the column, where a
    figure overflows the float range.
    """
    density = record.mean_torque_nm / record.volume_l
    values = {
        "torque_density": density,
        "torque_per_ampere": record.mean_torque_nm / record.current_a,
        "torque_density_per_ampere": density / record.current_a,
    }
    for field_name, value in values.items():
        if math.isinf(value):
            raise MotorDataError(
                f"row {record.name!r}, column {METRIC_COLUMNS[field_name]!r}: "
                f"{field_name} overflows the float range"
            )
    return MetricsRow(**values)


def improvement_percent(candidate: MetricsRow, baseline: MetricsRow) -> float:
    """How much higher the candidate's torque density per ampere is, %."""
    if baseline.torque_density_per_ampere == 0.0:
        raise ZeroDivisionError("baseline torque density per ampere is zero")
    ratio = candidate.torque_density_per_ampere / baseline.torque_density_per_ampere
    return 100.0 * (ratio - 1.0)


def _parse_cell(row_name: str, column: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise MotorDataError(
            f"row {row_name!r}, column {column!r}: not a number: {text!r}"
        ) from None
    return value


def _record_from_row(index: int, row: dict[str, str | None]) -> MotorRecord:
    name = (row.get("name") or "").strip()
    label = name or f"#{index}"
    for column in MOTORS_COLUMNS:
        if row.get(column) is None:
            raise MotorDataError(f"row {label!r}: missing column {column!r}")
    values: dict[str, float | None] = {}
    for column in ("volume_ml", "current_a", "mean_torque_nm"):
        text = (row[column] or "").strip()
        if not text:
            raise MotorDataError(f"row {label!r}, column {column!r}: empty cell")
        values[column] = _parse_cell(label, column, text)
    pm_text = (row["pm_volume_ml"] or "").strip()
    values["pm_volume_ml"] = None if not pm_text else _parse_cell(label, "pm_volume_ml", pm_text)
    try:
        return MotorRecord(
            name=name,
            volume_ml=values["volume_ml"],
            pm_volume_ml=values["pm_volume_ml"],
            current_a=values["current_a"],
            mean_torque_nm=values["mean_torque_nm"],
        )
    except ValueError as error:
        raise MotorDataError(str(error)) from None


def _records_from_text(text: str, origin: str) -> tuple[MotorRecord, ...]:
    reader = csv.DictReader(text.splitlines())
    if reader.fieldnames is None:
        raise MotorDataError(f"{origin}: empty motors file")
    unknown = [c for c in reader.fieldnames if c not in MOTORS_COLUMNS]
    if unknown:
        raise MotorDataError(f"{origin}: unknown column {unknown[0]!r}")
    records = []
    seen: set[str] = set()
    for index, row in enumerate(reader, start=2):
        rest = row.pop(None, None)
        if rest:
            raise MotorDataError(f"{origin}: row {index} has extra cells: {rest!r}")
        record = _record_from_row(index, row)
        if record.name in seen:
            raise MotorDataError(f"{origin}: duplicate motor name {record.name!r}")
        seen.add(record.name)
        records.append(record)
    if not records:
        raise MotorDataError(f"{origin}: no motor rows")
    return tuple(records)


def load_motor_records(path: str | Path | None = None) -> tuple[MotorRecord, ...]:
    """Read motor records from a CSV; None loads the bundled data."""
    if path is None:
        text = resources.files("srmec").joinpath(DEFAULT_MOTORS_RESOURCE).read_text()
        return _records_from_text(text, DEFAULT_MOTORS_RESOURCE)
    with open(path, newline="") as handle:
        return _records_from_text(handle.read(), str(path))


def _format_value(value: float | None, full_precision: bool) -> str:
    if value is None:
        return ""
    if full_precision:
        return f"{value:.17g}"
    return f"{value:.3f}"


def comparison_table(
    records: tuple[MotorRecord, ...] | list[MotorRecord],
    baseline: str | None = None,
    full_precision: bool = False,
) -> str:
    """CSV text: primitives, derived metrics, and improvement column.

    One data row per motor, primitive columns first.  The improvement
    column reports how much higher the baseline machine's torque
    density per ampere is than each row's (zero on the baseline row
    itself); the baseline defaults to the first record.  Values are
    shown rounded half-even to 3 decimals unless full_precision is set.

    Raises MotorDataError, naming the row, where a derived metric or
    that improvement overflows the float range.
    """
    if not records:
        raise ValueError("at least one motor record is required")
    names = [record.name for record in records]
    baseline_name = baseline if baseline is not None else names[0]
    if baseline_name not in names:
        raise ValueError(f"baseline {baseline_name!r} is not among the records")
    reference = derive_metrics(records[names.index(baseline_name)])
    header = MOTORS_COLUMNS + tuple(METRIC_COLUMNS.values()) + ("baseline_improvement_percent",)
    lines = [",".join(header)]
    for record in records:
        metrics = derive_metrics(record)
        try:
            improvement = improvement_percent(reference, metrics)
        except ZeroDivisionError:
            improvement = None  # zero-torque row: improvement undefined, cell left empty
        else:
            if not math.isfinite(improvement):
                raise MotorDataError(
                    f"row {record.name!r}, column 'baseline_improvement_percent': the "
                    f"baseline {baseline_name!r} over this row's torque density per ampere "
                    f"({metrics.torque_density_per_ampere!r}) overflows"
                )
        cells = (
            record.name,
            _format_value(record.volume_ml, full_precision),
            _format_value(record.pm_volume_ml, full_precision),
            _format_value(record.current_a, full_precision),
            _format_value(record.mean_torque_nm, full_precision),
            _format_value(metrics.torque_density, full_precision),
            _format_value(metrics.torque_per_ampere, full_precision),
            _format_value(metrics.torque_density_per_ampere, full_precision),
            _format_value(improvement, full_precision),
        )
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
