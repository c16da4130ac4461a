"""The three benchmark workloads: inputs from a seed, argv, output checks.

Each workload turns ``--seed`` into the inputs of one operation (an
srmec argv and, for ``sweep``, a config file) and checks every
operation's outputs.  An exit code of 0 proves nothing on its own, so
every check reads what the command wrote.  A check returns a list of
problems; an empty list means the operation passed.

At ``DEFAULT_SEED`` the inputs are the shipped ones (the default sweep
currents, audit seed 108) and the outputs are also compared with the
values the seed commit produced.
"""

from __future__ import annotations

import hashlib
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0

# --- references: outputs of the seed commit at the default seed ------------

# torque_summary.csv of the default sweep: current -> (stroke mean, peak), N*m.
SWEEP_REFERENCE = {
    1.0: (0.076250879254232934, 0.17922479895818502),
    2.0: (0.29066297404092717, 0.66933981838633572),
    3.0: (0.64431469437108624, 1.47832812131379),
    4.0: (1.1371172797076754, 2.6071763339979643),
    5.0: (1.7623226854739735, 4.0561944984344187),
    6.0: (2.4637241411739246, 5.824315197840674),
    7.0: (3.1817535009389726, 7.9110765842939976),
    8.0: (3.8916243225194145, 10.316779701328127),
}
# A solver that lands on the same fixed point (flux tolerance 1e-8)
# reproduces these to far better than this.
SWEEP_REFERENCE_RTOL = 1e-6

# SHA-256 of `srmec fidelity --samples 1000 --seed 108` output files.
AUDIT_REFERENCE = {
    "fidelity.csv": "6e2767f02eb74f7247027b6e6bfcd075eac3a64202cce170998c2db090229997",
    "fidelity_notes.txt": "8ace4ff6b5a3cf9dbd6dcb238948997a74b0f3b7677784230c43d8d281a0728b",
}
AUDIT_DEFAULT_S = 108
# Rows that are exact identities at every seed.
AUDIT_ZERO_ROWS = (
    "mesh2_vs_mesh3_exact",
    "branch_map_production_vs_exact",
    "yoke_branch_vs_negated_mesh1_print",
)


@dataclass(frozen=True)
class PointLimits:
    """Bounds every single-point solve record must meet."""

    residual: float = 1e-12
    split_rel: float = 1e-12


POINT_LIMITS = PointLimits()

# Reference selector: use the workload's own default-seed reference.
DEFAULT = object()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _finite_floats(cells) -> list[float]:
    values = [float(cell) for cell in cells]
    if not all(math.isfinite(v) for v in values):
        raise ValueError("non-finite value")
    return values


class Workload:
    """One closed-loop workload; subclasses set the inputs and checks."""

    name = ""
    work_unit = ""
    # Operations the traced phase runs at least, and over which its
    # counts are averaged, so the counts repeat exactly at one seed.
    count_window = 1
    # Timed operations the untraced run makes at least.
    min_ops = 1
    config_path: Path | None = None
    work_per_op = 1

    def __init__(self, run_dir: Path) -> None:
        self.run_dir = run_dir

    def argv(self, k: int) -> list[str]:
        raise NotImplementedError

    def check(self, k: int, stdout: str) -> list[str]:
        raise NotImplementedError

    def _out_dir(self, k: int) -> Path:
        return self.run_dir / f"op{k}"


class SweepWorkload(Workload):
    """`srmec sweep --config F --out D` on a seeded current list."""

    name = "sweep"
    work_unit = "operating points solved"

    def __init__(self, run_dir: Path, seed: int, smoke: bool = False, reference=DEFAULT) -> None:
        super().__init__(run_dir)
        if seed == DEFAULT_SEED:
            currents = [float(k) for k in range(1, 9)]
        else:
            # One current per 1 A band keeps the work of every seed close
            # to the shipped sweep's; the 0.1 A gap between bands keeps
            # the `{:g}` curve file names distinct.
            rng = np.random.default_rng(seed)
            currents = [round(k - 0.9 * rng.uniform(), 3) for k in range(1, 9)]
        points, step = 33, 0.25
        if smoke:
            currents, points, step = [currents[0], currents[-1]], 5, 1.0
        self.currents = currents
        self.n_angles = round(20.0 / step)
        # Two grids per current: total and coil only (magnets zeroed).
        self.work_per_op = 2 * len(currents) * points * self.n_angles
        if reference is DEFAULT:
            reference = SWEEP_REFERENCE if seed == DEFAULT_SEED and not smoke else None
        self.reference = reference
        self.config_path = run_dir / "sweep.ini"
        self.config_path.write_text(
            "[sweep]\n"
            f"currents = {', '.join(repr(c) for c in currents)}\n"
            f"current_points = {points}\n"
            f"angle_step_deg = {step!r}\n",
            encoding="utf-8",
        )
        self._hashes: dict[str, str] | None = None

    def argv(self, k: int) -> list[str]:
        return ["sweep", "--config", str(self.config_path), "--out", str(self._out_dir(k))]

    def check(self, k: int, stdout: str) -> list[str]:
        out = self._out_dir(k)
        try:
            names = [f"torque_curve_{c:g}A.csv" for c in self.currents] + ["torque_summary.csv"]
            hashes = {name: _sha256(out / name) for name in names}
            if self._hashes is None:
                problems = self._check_content(out, names, stdout)
                if not problems:
                    self._hashes = hashes
                return problems
            changed = sorted(name for name in names if hashes[name] != self._hashes[name])
            return [f"{name} differs from the first operation's" for name in changed]
        except (OSError, ValueError, IndexError) as error:
            return [f"unreadable output: {error!r}"]
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check_content(self, out: Path, names: list[str], stdout: str) -> list[str]:
        problems = []
        for name in names[:-1]:
            header, rows = _read_csv(out / name)
            if header != ["angle_deg", "torque_nm", "torque_coil_nm", "torque_pm_nm"]:
                problems.append(f"{name}: unexpected header {header}")
            table = np.array([_finite_floats(row) for row in rows])
            if table.shape != (self.n_angles, 4):
                problems.append(f"{name}: shape {table.shape}")
                continue
            torque = table[:, 1]
            # Periodic central differences telescope: the mean is 0 up to rounding.
            if abs(torque.mean()) > 1e-9 * max(np.max(np.abs(torque)), 1e-300):
                problems.append(f"{name}: mean torque {torque.mean():.3e} is not about 0")
        summary_text = (out / names[-1]).read_text(encoding="utf-8")
        if stdout != summary_text:
            problems.append("stdout differs from torque_summary.csv")
        header, rows = _read_csv(out / names[-1])
        summary = {}
        for row in rows:
            current, mean, peak = _finite_floats(row)
            summary[current] = (mean, peak)
        if sorted(summary) != sorted(self.currents):
            problems.append(f"summary currents {sorted(summary)} != {sorted(self.currents)}")
        for current, (mean, peak) in (self.reference or {}).items():
            got = summary.get(current)
            if got is None or not (
                math.isclose(got[0], mean, rel_tol=SWEEP_REFERENCE_RTOL)
                and math.isclose(got[1], peak, rel_tol=SWEEP_REFERENCE_RTOL)
            ):
                problems.append(f"{current:g} A: got {got}, reference ({mean}, {peak})")
        return problems


class AuditWorkload(Workload):
    """`srmec fidelity --samples 1000 --seed S --out D`."""

    name = "audit"
    work_unit = "samples audited"

    def __init__(self, run_dir: Path, seed: int, smoke: bool = False, reference=DEFAULT) -> None:
        super().__init__(run_dir)
        if seed == DEFAULT_SEED:
            self.audit_seed = AUDIT_DEFAULT_S
        else:
            self.audit_seed = int(np.random.default_rng(seed).integers(1, 2**31))
        self.samples = 10 if smoke else 1000
        # One row set at the base dominance threshold, one at the strong one.
        self.work_per_op = 2 * self.samples
        if reference is DEFAULT:
            reference = AUDIT_REFERENCE if seed == DEFAULT_SEED and not smoke else None
        self.reference = reference
        self._hashes: dict[str, str] | None = None

    def argv(self, k: int) -> list[str]:
        return [
            "fidelity",
            "--samples",
            str(self.samples),
            "--seed",
            str(self.audit_seed),
            "--out",
            str(self._out_dir(k)),
        ]

    def check(self, k: int, stdout: str) -> list[str]:
        out = self._out_dir(k)
        try:
            hashes = {name: _sha256(out / name) for name in AUDIT_REFERENCE}
            problems = [
                f"{name}: SHA-256 {digest} != reference {self.reference[name]}"
                for name, digest in hashes.items()
                if self.reference is not None and digest != self.reference[name]
            ]
            if self._hashes is None:
                problems += self._check_content(out, stdout)
                if not problems:
                    self._hashes = hashes
            elif hashes != self._hashes:
                problems.append("outputs differ from the first operation's")
            return problems
        except (OSError, ValueError, IndexError) as error:
            return [f"unreadable output: {error!r}"]
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check_content(self, out: Path, stdout: str) -> list[str]:
        problems = []
        if stdout != (out / "fidelity_notes.txt").read_text(encoding="utf-8"):
            problems.append("stdout differs from fidelity_notes.txt")
        header, rows = _read_csv(out / "fidelity.csv")
        if header != ["equation", "max_rel_dev", "median_rel_dev", "n_samples", "seed"]:
            problems.append(f"fidelity.csv: unexpected header {header}")
        by_name = {}
        for row in rows:
            _finite_floats(row[1:3])
            if row[3:] != [str(self.samples), str(self.audit_seed)]:
                problems.append(f"{row[0]}: n_samples/seed {row[3:]}")
            by_name[row[0]] = row
        for name in AUDIT_ZERO_ROWS:
            if name not in by_name or by_name[name][1:3] != ["0", "0"]:
                problems.append(f"{name}: expected exactly 0, got {by_name.get(name)}")
        return problems


class PointsWorkload(Workload):
    """`srmec solve --current I --angle THETA` at seeded operating points."""

    name = "points"
    work_unit = "solves"

    def __init__(self, run_dir: Path, seed: int, smoke: bool = False, reference=DEFAULT) -> None:
        super().__init__(run_dir)
        # At least ten samples beyond the 99th percentile, also in smoke mode.
        self.min_ops = 1000
        self.count_window = 30 if smoke else 1000
        self.limits = POINT_LIMITS if reference is DEFAULT else reference
        self._rng = np.random.default_rng(seed)
        self._inputs: list[tuple[float, float]] = []

    def point(self, k: int) -> tuple[float, float]:
        """k-th operating point (current A, angle deg) of this seed's stream."""
        while len(self._inputs) <= k:
            current, angle = self._rng.uniform((0.0, 0.0), (8.0, 20.0))
            self._inputs.append((float(current), float(min(angle, np.nextafter(20.0, 0.0)))))
        return self._inputs[k]

    def argv(self, k: int) -> list[str]:
        current, angle = self.point(k)
        return ["solve", "--current", repr(current), "--angle", repr(angle)]

    def check(self, k: int, stdout: str) -> list[str]:
        try:
            record = {}
            for line in stdout.splitlines():
                key, value = line.split(" = ")
                record[key] = value
            current, angle = self.point(k)
            problems = []
            if float(record["current_a"]) != current or float(record["rotor_angle_deg"]) != angle:
                problems.append("record is for another operating point")
            if int(record["iterations"]) < 1:
                problems.append(f"iterations {record['iterations']}")
            numbers = {
                key: float(value)
                for key, value in record.items()
                if key not in ("iterations", "regime_all_pass")
            }
            if not all(math.isfinite(v) for v in numbers.values()):
                problems.append("non-finite value in record")
            if not numbers["residual"] <= self.limits.residual:
                problems.append(f"residual {numbers['residual']:.3e} > {self.limits.residual:g}")
            total = [numbers[f"mesh_flux_{m}_wb"] for m in range(1, 6)]
            scale = max(abs(v) for v in total)
            for m in range(1, 6):
                split = numbers[f"coil_mesh_flux_{m}_wb"] + numbers[f"pm_mesh_flux_{m}_wb"]
                if not abs(split - total[m - 1]) <= self.limits.split_rel * scale:
                    problems.append(f"mesh {m}: coil + magnet parts {split!r} != total")
            return problems
        except (KeyError, ValueError) as error:
            return [f"unparseable record: {error!r}"]


WORKLOADS = {cls.name: cls for cls in (SweepWorkload, AuditWorkload, PointsWorkload)}
