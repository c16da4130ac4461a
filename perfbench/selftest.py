"""Self-test of the benchmark at reduced size.

Usage (from the repository root): python3 perfbench/selftest.py

For every workload, in smoke mode, it checks that
  * an untraced run passes its output checks and emits every end-to-end
    metric of BENCHMARK.json with its unit, plus failed_frac, op_p50_ms,
    raw work_per_s and setup_raw_s, and op_p99_ms for points;
  * two traced runs emit every per-layer metric with its unit and repeat
    the named counts exactly;
  * the traced run saw the work the benchmark credits (the wrapped
    counts equal work_per_op), every layer the workload bypasses reads
    exactly 0, and cli.self_ms, where a call that escaped the wrappers
    would land, stays below CLI_SELF_MAX_SHARE of the operation time;
  * the time outside cli.main stays within run.ACCOUNTING_MARGIN of the
    traced operation time (self times add up to cli.main by
    construction, so this bounds the capture and tracer overhead);
  * a deliberately wrong reference is counted in failed_frac, and the
    run still completes with every metric;
  * calibration.kernel_units divides each operation by the mean of the
    calibrations around it.
Last, it checks that run.py refuses to run, exits nonzero and prints no
result in a directory holding only BENCHMARK.json and the benchmark.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import calibration
import run
import workloads

# Counts that must repeat exactly between two traced runs at one seed.
REPEATING_COUNTS = (
    "saturation.point_iters",
    "saturation.loop_passes",
    "saturation.iters_max",
    "fidelity.draws",
    "exact.solve_calls",
    "network.stamp_systems",
)
WRONG_REFERENCE = {
    "sweep": {1.0: (0.0, 0.0)},
    "audit": {name: "0" * 64 for name in workloads.AUDIT_REFERENCE},
    "points": workloads.PointLimits(residual=-1.0),
}
# The wrapped count that must equal the work credited per operation.
CREDITED = {
    "sweep": "saturation.points",
    "audit": "fidelity.samples",
    "points": "saturation.points",
}
# Metric-name prefixes of the layers each workload never reaches.
BYPASSED = {
    "sweep": (
        "exact.",
        "fidelity.",
        "motor.",
        "network.solve_linear",
        "network.kirchhoff",
        "network.object_assembly",
        "saturation.single_point",
    ),
    "audit": ("saturation.", "network.stamp", "network.kirchhoff", "torque."),
    "points": ("exact.", "fidelity.", "torque.", "network.object_assembly", "motor.build_network"),
}
CLI_SELF_MAX_SHARE = 0.5
SMOKE_SECONDS = 0.5

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def units_of(record: dict) -> dict:
    return {key: metric["unit"] for key, metric in record["metrics"].items()}


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(end_to_end == run.END_TO_END, "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect(per_layer == run.PER_LAYER, "BENCHMARK.json per_layer matches run.PER_LAYER")
    expect(
        [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
        "BENCHMARK.json workloads match workloads.WORKLOADS",
    )

    for name in workloads.WORKLOADS:
        seed = workloads.DEFAULT_SEED
        plain = run.execute(name, seed, SMOKE_SECONDS, trace=False, smoke=True)
        expect(plain["correct"] and plain["failed"] == 0, f"{name}: smoke run passes its checks")
        expect(units_of(plain) == end_to_end, f"{name}: every end-to-end metric with its unit")
        expect(plain["failed_frac"] == 0.0, f"{name}: failed_frac reported")
        expect(plain["extra"].get("op_p50_ms", 0) > 0, f"{name}: op_p50_ms reported")
        expect(plain["extra"].get("work_per_s", 0) > 0, f"{name}: work_per_s reported")
        expect(plain["extra"].get("setup_raw_s", 0) > 0, f"{name}: setup_raw_s reported")
        if name == "points":
            expect(plain["extra"].get("op_p99_ms", 0) > 0, "points: op_p99_ms reported")

        first = run.execute(name, seed, SMOKE_SECONDS, trace=True, smoke=True)
        second = run.execute(name, seed, SMOKE_SECONDS, trace=True, smoke=True)
        expect(units_of(first) == per_layer, f"{name}: every per-layer metric with its unit")
        for key in REPEATING_COUNTS:
            a, b = first["metrics"][key]["value"], second["metrics"][key]["value"]
            expect(a == b, f"{name}: {key} repeats exactly ({a} vs {b})")
        values = {key: metric["value"] for key, metric in first["metrics"].items()}
        credited = values[CREDITED[name]]
        expect(
            credited == first["extra"]["work_per_op"],
            f"{name}: {CREDITED[name]} {credited} equals the credited work per operation",
        )
        if name == "points":
            expect(values["saturation.grid_calls"] == 1, "points: one grid solve per operation")
        reached = sorted(
            key for key, value in values.items() if key.startswith(BYPASSED[name]) and value != 0
        )
        expect(
            not reached, f"{name}: bypassed layers read exactly 0" + (f" {reached}" if reached else "")
        )
        share = values["cli.self_ms"] / values["trace.op_mean_ms"]
        expect(
            share <= CLI_SELF_MAX_SHARE,
            f"{name}: cli.self_ms is {share:.3f} of the traced op time",
        )
        gap = values["trace.accounting_gap_frac"]
        expect(
            abs(gap) <= run.ACCOUNTING_MARGIN,
            f"{name}: time outside cli.main is {gap:.4f} of the traced op time",
        )

        wrong = run.execute(
            name, seed, SMOKE_SECONDS, trace=False, smoke=True, reference=WRONG_REFERENCE[name]
        )
        expect(
            wrong["attempted"] >= 2
            and wrong["failed"] == wrong["attempted"]
            and wrong["failed_frac"] == 1.0
            and not wrong["correct"]
            and units_of(wrong) == end_to_end,
            f"{name}: a wrong reference is counted in failed_frac "
            f"({wrong['failed']}/{wrong['attempted']})",
        )

    # Operations 0 and 1 lie between kernels of 1 s and 3 s, operation 2
    # between kernels of 3 s and 5 s.
    units = calibration.kernel_units(
        [4_000_000_000, 2_000_000_000, 8_000_000_000], [(0, 1.0), (2, 3.0), (3, 5.0)]
    )
    expect(units == [2.0, 1.0, 2.0], f"kernel_units brackets each operation ({units})")

    bare = run.RUN_ROOT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(
        Path(run.__file__).parent, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "points"]
        + ["--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(
        done.returncode != 0 and '"correct"' not in done.stdout,
        f"without the program source run.py exits {done.returncode} and prints no result",
    )

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
