"""Command-line interface: solve, fidelity, sweep, and compare.

Every command is a pure function of its inputs (config file, flags,
seed), so reruns produce byte-identical artifacts; the run manifest,
which carries the wall-clock timestamp, is the single exception.  The
manifest is written before any other output file so a crashed run can
never leave outputs without their provenance stamp.

The argument parser and the default B-H curve are built once per
process, on first use, and shared by every later main() call: callers
that run many commands in one process (the benchmark harness, the tests)
pay for them once.  Neither changes once built.

Exit codes: 0 success, 2 input or configuration error, 3 numerical
failure (non-convergent, singular or ill-conditioned solve).
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import logging
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, config_hash, load_config
from .fidelity import DEFAULT_SAMPLES, DEFAULT_SEED, audit_notes, run_fidelity_audit
from .metrics import MotorDataError, comparison_table, load_motor_records
from .motor import OperatingPoint, branch_flux_values, regime_check, reluctances_from_geometry
from .network import SolveError
from .saturation import BhCurve, NonConvergenceError, solve_nonlinear
from .torque import TorqueCurve, torque_component_sweeps

logger = logging.getLogger("srmec.cli")

# Round-trip float serialization: 17 significant digits reproduce the
# exact binary value, keeping reruns byte-identical.
FLOAT_FORMAT = "{:.17g}"

MANIFEST_NAME = "manifest.json"
FIDELITY_CSV = "fidelity.csv"
FIDELITY_NOTES = "fidelity_notes.txt"
SUMMARY_CSV = "torque_summary.csv"
COMPARISON_CSV = "comparison.csv"
SOLVE_RECORD = "solve_record.txt"


def _fmt(value: float) -> str:
    return FLOAT_FORMAT.format(float(value))


def numpy_build() -> dict:
    """numpy's version and the CPU features its kernels dispatch on here.

    The audit's frozen numbers hold only where numpy's array power takes
    the same kernel, and numpy picks the kernel from these features.
    Their tables are private (numpy._core on numpy 2, numpy.core on 1.x),
    so they are read defensively and left out when absent."""
    build: dict = {"version": np.__version__}
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            tables = importlib.import_module(name)
        except ImportError:
            continue
        features = getattr(tables, "__cpu_features__", {})
        build["cpu_baseline"] = list(getattr(tables, "__cpu_baseline__", []))
        build["cpu_dispatch"] = [f for f in getattr(tables, "__cpu_dispatch__", []) if features.get(f)]
        break
    return build


def write_manifest(out_dir: Path, command: str, digest: str, outputs: tuple[str, ...]) -> None:
    """Write manifest.json first, before any listed output exists."""
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "tool_version": __version__,
        "config_hash": digest,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "outputs": list(outputs),
        "numpy": numpy_build(),
    }
    _write_text(out_dir, MANIFEST_NAME, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _write_text(out_dir: Path, name: str, text: str) -> None:
    (out_dir / name).write_text(text, encoding="utf-8", newline="\n")


def solve_record_text(config: RunConfig, point: OperatingPoint) -> str:
    """Flat key = value record of one saturating solve."""
    current, angle_deg = point.phase_current, point.rotor_angle
    curve = BhCurve.default()
    solution = solve_nonlinear(config.geometry, config.materials, curve, point)
    report = regime_check(reluctances_from_geometry(config.geometry, config.materials, angle_deg))
    parts = ("", "coil_", "pm_")
    mesh = np.array([solution.mesh_fluxes, solution.coil_mesh_fluxes, solution.pm_mesh_fluxes])
    lines = [
        f"current_a = {_fmt(current)}",
        f"rotor_angle_deg = {_fmt(angle_deg)}",
        f"iterations = {solution.iterations}",
        f"residual = {_fmt(solution.residual)}",
    ]
    for part, vector in zip(parts, mesh.tolist()):
        lines.extend(f"{part}mesh_flux_{k}_wb = {value:.17g}" for k, value in enumerate(vector, 1))
    for part, (yoke, pole, gap) in zip(parts, branch_flux_values(mesh).tolist()):
        lines.append(f"{part}branch_yoke_wb = {yoke:.17g}")
        lines.append(f"{part}branch_pole_wb = {pole:.17g}")
        lines.append(f"{part}branch_gap_wb = {gap:.17g}")
    for element, density in sorted((solution.flux_densities or {}).items()):
        lines.append(f"flux_density_{element}_t = {density:.17g}")
    for name, ratio in sorted(report.ratios.items()):
        lines.append(f"regime_{name} = {ratio:.17g}")
    lines.append(f"regime_all_pass = {str(report.all_pass).lower()}")
    return "\n".join(lines) + "\n"


def cmd_solve(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    angle = args.angle if args.angle is not None else config.geometry.aligned_angle_deg
    # Refused before the manifest, which would list a record never written.
    config.check_solve_record()
    point = OperatingPoint(phase_current=args.current, rotor_angle=angle)
    point.validate_for(config.geometry)
    if args.out is not None:
        write_manifest(args.out, "solve", config_hash(config), (SOLVE_RECORD,))
    record = solve_record_text(config, point)
    if args.out is not None:
        _write_text(args.out, SOLVE_RECORD, record)
    sys.stdout.write(record)
    return 0


def fidelity_csv_text(rows) -> str:
    lines = ["equation,max_rel_dev,median_rel_dev,n_samples,seed"]
    lines.extend(
        f"{row.equation},{_fmt(row.max_rel_dev)},{_fmt(row.median_rel_dev)},"
        f"{row.n_samples},{row.seed}"
        for row in rows
    )
    return "\n".join(lines) + "\n"


def cmd_fidelity(args: argparse.Namespace) -> int:
    if args.samples < 1:
        raise ConfigError("--samples must be >= 1")
    if args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    # The audit samples its own designs and reads no config.
    write_manifest(args.out, "fidelity", "none", (FIDELITY_CSV, FIDELITY_NOTES))
    rows = run_fidelity_audit(n_samples=args.samples, seed=args.seed)
    notes = audit_notes(rows)
    _write_text(args.out, FIDELITY_CSV, fidelity_csv_text(rows))
    _write_text(args.out, FIDELITY_NOTES, notes)
    sys.stdout.write(notes)
    return 0


def torque_curve_csv_text(total: TorqueCurve, coil: TorqueCurve) -> str:
    lines = ["angle_deg,torque_nm,torque_coil_nm,torque_pm_nm"]
    lines.extend(
        f"{angle:.17g},{torque:.17g},{coil_part:.17g},{torque - coil_part:.17g}"
        for angle, torque, coil_part in zip(
            total.angles.tolist(), total.samples.tolist(), coil.samples.tolist()
        )
    )
    return "\n".join(lines) + "\n"


def _curve_file_names(currents: tuple[float, ...]) -> tuple[str, ...]:
    """One curve file per current; refuses currents whose names collide."""
    owners: dict[str, float] = {}
    for current in currents:
        name = f"torque_curve_{current:g}A.csv"
        if name in owners:
            raise ConfigError(
                f"[sweep] currents {owners[name]!r} and {current!r} A would both write {name}"
            )
        owners[name] = current
    return tuple(owners)


def cmd_sweep(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    curve = BhCurve.default()
    names = _curve_file_names(config.sweep_currents)
    write_manifest(args.out, "sweep", config_hash(config), names + (SUMMARY_CSV,))
    splits = torque_component_sweeps(
        config.geometry,
        config.materials,
        curve,
        config.sweep_currents,
        current_points=config.current_points,
        angle_step_deg=config.angle_step_deg,
    )
    summary = ["current_a,mean_torque_nm,peak_torque_nm"]
    for split, name in zip(splits, names):
        total, coil = split.total_curve, split.coil_curve
        _write_text(args.out, name, torque_curve_csv_text(total, coil))
        summary.append(
            f"{_fmt(split.current)},{_fmt(total.stroke_mean_torque)},{_fmt(total.peak_torque)}"
        )
        logger.info(
            "current %g A: stroke mean %.4f N*m, peak %.4f N*m",
            split.current,
            total.stroke_mean_torque,
            total.peak_torque,
        )
    _write_text(args.out, SUMMARY_CSV, "\n".join(summary) + "\n")
    sys.stdout.write("\n".join(summary) + "\n")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    records = load_motor_records(args.motors)
    table = comparison_table(records, baseline=args.baseline, full_precision=args.full_precision)
    write_manifest(args.out, "compare", "none", (COMPARISON_CSV,))
    _write_text(args.out, COMPARISON_CSV, table)
    sys.stdout.write(table)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once and shared by every main() call."""
    parser = argparse.ArgumentParser(
        prog="srmec",
        description="Magnetic-circuit analysis toolkit for a hybrid-excited "
        "multi-tooth switched reluctance motor.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="saturating flux solve at one operating point")
    solve.add_argument("--config", type=Path, default=None, help="run configuration file")
    solve.add_argument("--current", type=float, default=8.0, help="phase current, A (default 8)")
    solve.add_argument(
        "--angle", type=float, default=None, help="rotor angle, deg (default: aligned position)"
    )
    solve.add_argument("--out", type=Path, default=None, help="also write the record here")
    solve.set_defaults(func=cmd_solve)

    fidelity = commands.add_parser(
        "fidelity", help="audit the closed-form flux expressions against the exact oracle"
    )
    fidelity.add_argument(
        "--samples", type=int, default=DEFAULT_SAMPLES, help="regime-valid samples per row"
    )
    fidelity.add_argument("--seed", type=int, default=DEFAULT_SEED, help="sampling seed")
    fidelity.add_argument(
        "--out", type=Path, default=Path("."), help="directory for report and notes"
    )
    fidelity.set_defaults(func=cmd_fidelity)

    sweep = commands.add_parser("sweep", help="torque-angle sweeps over the configured currents")
    sweep.add_argument("--config", type=Path, default=None, help="run configuration file")
    sweep.add_argument("--out", type=Path, default=Path("."), help="directory for the CSVs")
    sweep.set_defaults(func=cmd_sweep)

    compare = commands.add_parser("compare", help="torque-density comparison across motors")
    compare.add_argument(
        "--motors", type=Path, default=None, help="motors CSV (default: bundled records)"
    )
    compare.add_argument(
        "--baseline", type=str, default=None, help="baseline motor name (default: first row)"
    )
    compare.add_argument(
        "--full-precision", action="store_true", help="17-significant-digit output"
    )
    compare.add_argument("--out", type=Path, default=Path("."), help="directory for the CSV")
    compare.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(name)s: %(message)s")
    try:
        return args.func(args)
    except (ConfigError, MotorDataError) as error:
        print(f"srmec: error: {error}", file=sys.stderr)
        return 2
    except (NonConvergenceError, SolveError) as error:
        print(f"srmec: solve failed: {error}", file=sys.stderr)
        return 3
    except ValueError as error:
        print(f"srmec: error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"srmec: error: {error}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())
