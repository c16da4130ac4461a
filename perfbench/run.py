"""srmec benchmark: closed-loop CLI workloads with a traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload {sweep,audit,points,all} \
        --seed N --seconds S --trace {0,1}

One client runs operations back to back (a closed loop) in this process,
with no extra threads or processes: each operation is
``srmec.cli.main(argv)`` with ``src`` on the path, which is the user's
CLI path minus interpreter start-up.  ``setup_s`` measures start-up on
its own, in fresh interpreters.  Every operation's outputs are checked
(see workloads.py); one that raises, exits nonzero or fails its check
counts as failed.

``--trace 0`` reports the end-to-end metrics.  Throughput is bounded as
``work_per_cal``, the work done per run of a fixed calibration kernel
that runs between operations (calibration.py), because the speed of a
shared machine drifts from run to run; raw ``work_per_s`` is printed
beside it.  For the same reason ``setup_s`` is each probe's set-up time
divided by the kernel time the probe then measures, in seconds of a
machine where the kernel takes ``calibration.REFERENCE_S``; the raw
median ``setup_raw_s`` is printed beside it.

``--trace 1`` alternates traced (see tracing.py) and untraced operations,
so that both see the same machine speed, and reports the per-layer
metrics along with the tracing overhead (traced minus untraced median
operation time).
Layer times are mean ms per traced operation; counts are means per
operation over the first ``count_window`` traced operations, so they
repeat exactly at one seed.

``--workload all`` runs the three workloads one after another, each in
its own process so that peak memory is per workload, and prints one row
per workload.  The self-test (selftest.py) calls ``execute`` with
``smoke=True``, which shrinks every workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(machine, work_per_s, setup_raw_s, kernel times, op_p50_ms, op_p99_ms,
failed_frac, problems) goes to ``.perfbench_run/result_<workload>_seed<seed>_trace<t>.json``,
and the spans of a traced run to
``.perfbench_run/trace_<workload>_seed<seed>.csv``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_ROOT = ROOT / ".perfbench_run"
SETUP_PROBE = Path(__file__).resolve().parent / "setup_probe.py"

# One client, one BLAS thread: the batched 5x5 solves and the small
# stamping matmuls gain nothing from BLAS threads, and extra threads
# would contend on a shared 2-core machine.  Set before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import calibration  # noqa: E402
import numpy as np  # noqa: E402  (after the thread setting)
import workloads  # noqa: E402
from tracing import Instrumentation, Tracer  # noqa: E402

SETUP_REPEATS = 7
# Wall time between calibrations (calibration.py) in an untraced run, at
# least, and the share of the time since the last one that a calibration
# spends on the kernel: one calibration per 5 s audit operation then runs
# the kernel some 30 times, where a short one would be swamped by jitter.
CALIBRATE_EVERY_S = 0.5
CALIBRATION_SHARE = 0.02
# A phase stops after this much wall time even below its minimum
# operation count, so a much slower program still ends within 180 s.
PHASE_CAP_S = 70.0
# Layer self times, cli.main's included, add up to the cli.main span by
# construction (tracing.py).  What separates their sum from the measured
# operation time is the work outside cli.main (output capture and the
# tracer's root call), which must stay within this share of it.
ACCOUNTING_MARGIN = 0.05

# The bounded end-to-end metrics (BENCHMARK.json).  work_per_cal is the
# work done per run of the calibration kernel (calibration.py).  Raw
# work_per_s, operation latency (op_p50_ms, and op_p99_ms where a run has
# 1000 operations) and failed_frac are reported beside them but not
# bounded: the first two follow the drifting speed of a shared machine,
# and failed_frac is 0 whenever the program is correct.
END_TO_END = {
    "setup_s": "s",
    "work_per_cal": "1/cal",
    "peak_rss_mb": "MB",
}

# (metric, unit, layer, field): field is "calls", "ms" or "self_ms" for a
# wrapped layer, or "count" for a counter kept by tracing.py.
_LAYER_FIELDS = (
    ("saturation.grid_calls", "count", "saturation.grid", "calls"),
    ("saturation.grid_ms", "ms", "saturation.grid", "ms"),
    ("saturation.grid_self_ms", "ms", "saturation.grid", "self_ms"),
    ("saturation.points", "count", "saturation.points", "count"),
    ("saturation.point_iters", "count", "saturation.point_iters", "count"),
    ("saturation.loop_passes", "count", "saturation.loop_passes", "count"),
    ("saturation.chord_calls", "count", "saturation.chord", "calls"),
    ("saturation.chord_ms", "ms", "saturation.chord", "ms"),
    ("saturation.single_point_self_ms", "ms", "saturation.single_point", "self_ms"),
    ("network.stamp_calls", "count", "network.stamp", "calls"),
    ("network.stamp_systems", "count", "network.stamp_systems", "count"),
    ("network.stamp_ms", "ms", "network.stamp", "ms"),
    ("network.lapack_calls", "count", "network.lapack", "calls"),
    ("network.lapack_systems", "count", "network.lapack_systems", "count"),
    ("network.lapack_ms", "ms", "network.lapack", "ms"),
    ("network.solve_linear_calls", "count", "network.solve_linear", "calls"),
    ("network.solve_linear_ms", "ms", "network.solve_linear", "ms"),
    ("network.solve_linear_self_ms", "ms", "network.solve_linear", "self_ms"),
    ("network.kirchhoff_calls", "count", "network.kirchhoff", "calls"),
    ("network.kirchhoff_ms", "ms", "network.kirchhoff", "ms"),
    ("network.object_assembly_calls", "count", "network.object_assembly", "calls"),
    ("network.object_assembly_ms", "ms", "network.object_assembly", "ms"),
    ("exact.solve_calls", "count", "exact.solve", "calls"),
    ("exact.solve_ms", "ms", "exact.solve", "ms"),
    ("motor.build_network_calls", "count", "motor.build_network", "calls"),
    ("motor.build_network_ms", "ms", "motor.build_network", "ms"),
    ("motor.regime_check_calls", "count", "motor.regime_check", "calls"),
    ("motor.regime_check_ms", "ms", "motor.regime_check", "ms"),
    ("fidelity.samples", "count", "fidelity.sample", "calls"),
    ("fidelity.draws", "count", "fidelity.draws", "count"),
    ("fidelity.sample_ms", "ms", "fidelity.sample", "ms"),
    ("fidelity.sample_self_ms", "ms", "fidelity.sample", "self_ms"),
    ("fidelity.audit_self_ms", "ms", "fidelity.audit", "self_ms"),
    ("torque.sweep_calls", "count", "torque.sweep", "calls"),
    ("torque.sweep_self_ms", "ms", "torque.sweep", "self_ms"),
    ("cli.self_ms", "ms", "cli.main", "self_ms"),
)
PER_LAYER = {name: unit for name, unit, _, _ in _LAYER_FIELDS}
PER_LAYER.update(
    {
        "saturation.iters_p50": "count",
        "saturation.iters_p99": "count",
        "saturation.iters_max": "count",
        "fidelity.accept_ratio": "ratio",
        "trace.ops": "count",
        "trace.spans_per_op": "count",
        "trace.op_p50_ms": "ms",
        "trace.untraced_op_p50_ms": "ms",
        "trace.overhead_ms": "ms",
        "trace.overhead_frac": "ratio",
        "trace.op_mean_ms": "ms",
        "trace.self_sum_ms": "ms",
        "trace.accounting_gap_frac": "ratio",
    }
)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_program():
    """Import srmec from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "srmec" / "cli.py").is_file():
        _fail(f"no program source at {src / 'srmec'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import srmec.cli

    if Path(srmec.cli.__file__).resolve().parent != (src / "srmec").resolve():
        _fail(f"srmec was imported from {srmec.cli.__file__}, not from {src}")
    return srmec.cli


def _git_commit() -> str:
    # The ceiling keeps git from reporting a repository above this checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, env=env
        )
    except OSError:
        return "unknown (no git)"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def machine_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def measure_setup(config: Path | None) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to ready for an operation,
    and the kernel seconds that interpreter measured once ready."""
    start = time.monotonic_ns()
    done = subprocess.run(
        [sys.executable, str(SETUP_PROBE), str(ROOT), str(config) if config else "-"],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    ready, kernel = done.stdout.split()[-2:]
    return (int(ready) - start) / 1e9, float(kernel)


class LoopClient:
    """One closed-loop client: the next operation starts when one ends."""

    def __init__(self, workload, main) -> None:
        self.workload = workload
        self.main = main
        self.next_op = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[tuple[int, list[str]]] = []

    def op(self, invoke) -> tuple[int, bool]:
        """Run and check one operation; returns (wall ns, passed)."""
        k = self.next_op
        self.next_op += 1
        argv = self.workload.argv(k)
        captured = io.StringIO()
        start = time.perf_counter_ns()
        try:
            with redirect_stdout(captured):
                code = invoke(self.main, argv)
            problems = [] if code == 0 else [f"exit code {code}"]
        except (Exception, SystemExit) as error:
            problems = [f"raised {error!r}"]
        elapsed = time.perf_counter_ns() - start
        problems += self.workload.check(k, captured.getvalue())
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append((k, problems[:3]))
        return elapsed, not problems

    def phase(self, seconds: float, min_ops: int, invoke, between=None) -> list[tuple[int, bool]]:
        """Operations for `seconds` of wall time and at least `min_ops` of them.

        `between(elapsed, done)`, if given, runs untimed before each
        operation, with the number of operations done so far.
        """
        results = []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= PHASE_CAP_S or (len(results) >= min_ops and elapsed >= seconds):
                return results
            if between is not None:
                between(elapsed, len(results))
            results.append(self.op(invoke))


def _call(main, argv):
    return main(argv)


def _median_ms(results) -> float:
    return statistics.median(ns for ns, _ in results) / 1e6


def _end_to_end(
    workload, setup: list[tuple[float, float]], results, marks
) -> tuple[dict, dict]:
    latencies = [ns / 1e6 for ns, _ in results]
    units = calibration.kernel_units([ns for ns, _ in results], marks)
    work = workload.work_per_op * sum(ok for _, ok in results)
    metrics = {
        "setup_s": statistics.median(s / k for s, k in setup) * calibration.REFERENCE_S,
        "work_per_cal": work / sum(units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "work_per_s": work / (sum(latencies) / 1e3),
        "setup_raw_s": statistics.median(s for s, _ in setup),
        "kernel_ms": [seconds * 1e3 for _, seconds in marks],
        "op_p50_ms": statistics.median(latencies),
        "timed_ops": len(latencies),
        "op_ms": latencies,
        "setup_samples": len(setup),
        "work_unit": workload.work_unit,
        "work_per_op": workload.work_per_op,
    }
    # The highest percentile with at least ten samples beyond it.
    if len(latencies) >= 1000:
        extra["op_p99_ms"] = statistics.quantiles(latencies, n=100)[98]
    return metrics, extra


def _per_layer(workload, tracer, untraced, traced) -> dict:
    ops = tracer.ops
    window = ops[: workload.count_window]

    def value(layer: str, field: str) -> float:
        if field == "count":
            return sum(op.counts.get(layer, 0) for op in window) / len(window)
        if field == "calls":
            return sum(op.layers[layer].calls for op in window if layer in op.layers) / len(window)
        attr = "total_ns" if field == "ms" else "self_ns"
        total = sum(getattr(op.layers[layer], attr) for op in ops if layer in op.layers)
        return total / len(ops) / 1e6

    metrics = {name: value(layer, field) for name, _, layer, field in _LAYER_FIELDS}
    # Per-point iteration counts pooled over the window; none without a grid solve.
    pooled = np.concatenate([a for op in window for a in op.iterations] or [np.zeros(1)])
    p50, p99 = np.percentile(pooled, [50, 99])
    metrics.update(
        {
            "saturation.iters_p50": float(p50),
            "saturation.iters_p99": float(p99),
            "saturation.iters_max": float(pooled.max()),
        }
    )
    draws = metrics["fidelity.draws"]
    metrics["fidelity.accept_ratio"] = metrics["fidelity.samples"] / draws if draws else 0.0

    traced_p50, untraced_p50 = _median_ms(traced), _median_ms(untraced)
    op_mean = statistics.fmean(ns for ns, _ in traced) / 1e6
    self_sum = sum(op.layers[name].self_ns for op in ops for name in op.layers) / len(ops) / 1e6
    metrics.update(
        {
            "trace.ops": float(len(ops)),
            "trace.spans_per_op": len(tracer.spans) / len(ops),
            "trace.op_p50_ms": traced_p50,
            "trace.untraced_op_p50_ms": untraced_p50,
            "trace.overhead_ms": traced_p50 - untraced_p50,
            "trace.overhead_frac": (traced_p50 - untraced_p50) / untraced_p50,
            "trace.op_mean_ms": op_mean,
            "trace.self_sum_ms": self_sum,
            "trace.accounting_gap_frac": (op_mean - self_sum) / op_mean,
        }
    )
    return metrics


def execute(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    reference=workloads.DEFAULT,
) -> dict:
    """Run one workload and return its full result record."""
    cli = _import_program()
    RUN_ROOT.mkdir(exist_ok=True)
    run_dir = RUN_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    try:
        workload = workloads.WORKLOADS[name](run_dir, seed, smoke=smoke, reference=reference)
        client = LoopClient(workload, cli.main)
        warm_up_ns, _ = client.op(_call)  # checked, not timed
        if not trace:
            # Set-up probes are spread over the timed phase, so that they
            # see the same machine load as the operations do.  The kernel
            # runs right before an operation, and once after the last.
            setup: list[tuple[float, float]] = []
            repeats = 1 if smoke else SETUP_REPEATS
            marks: list[tuple[int, float]] = []
            # Phase time of the last calibration; the warm-up counts as
            # the gap before the first.
            calibrated_at = [-warm_up_ns / 1e9]

            def calibrate(elapsed: float, done: int) -> None:
                budget = CALIBRATION_SHARE * (elapsed - calibrated_at[0])
                calibrated_at[0] = elapsed
                marks.append((done, calibration.kernel_seconds(name, budget)))

            def between(elapsed: float, done: int) -> None:
                if len(setup) < repeats and elapsed >= len(setup) * seconds / repeats:
                    setup.append(measure_setup(workload.config_path))
                if not marks or elapsed - calibrated_at[0] >= CALIBRATE_EVERY_S:
                    calibrate(elapsed, done)

            start = time.perf_counter()
            results = client.phase(seconds, workload.min_ops, _call, between=between)
            calibrate(time.perf_counter() - start, len(results))
            while len(setup) < repeats:
                setup.append(measure_setup(workload.config_path))
            metrics, extra = _end_to_end(workload, setup, results, marks)
        else:
            # Odd operations are traced and even ones are not, so the count
            # window always covers the same operations (inputs of `points`
            # differ from one operation to the next).
            tracer = Tracer()
            traced, untraced = [], []
            start = time.perf_counter()
            while True:
                elapsed = time.perf_counter() - start
                if elapsed >= PHASE_CAP_S or (
                    len(traced) >= workload.count_window and elapsed >= seconds
                ):
                    break
                with Instrumentation(tracer):
                    traced.append(client.op(tracer.run_op))
                untraced.append(client.op(_call))
            metrics = _per_layer(workload, tracer, untraced, traced)
            extra = {
                "count_window": min(workload.count_window, len(tracer.ops)),
                "work_per_op": workload.work_per_op,
            }
            tracer.write_spans(RUN_ROOT / f"trace_{name}_seed{seed}.csv")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "failed_frac": client.failed / client.attempted,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
        "extra": extra,
        "problems": client.problems,
        "machine": machine_record(),
    }


def _result_path(name: str, seed: int, trace: int) -> Path:
    return RUN_ROOT / f"result_{name}_seed{seed}_trace{trace}.json"


def _print_rows(records: list[dict]) -> None:
    for record in records:
        rows = [(key, m["value"], m["unit"]) for key, m in record["metrics"].items()]
        rows.append(("failed_frac", record["failed_frac"], "ratio"))
        extra = record["extra"]
        if "work_per_s" in extra:
            rows.append(("work_per_s", extra["work_per_s"], "1/s"))
            rows.append(("setup_raw_s", extra["setup_raw_s"], "s"))
        rows += [(key, extra[key], "ms") for key in ("op_p50_ms", "op_p99_ms") if key in extra]
        cells = "  ".join(f"{key}={value:.6g} {unit}" for key, value, unit in rows)
        print(f"{record['workload']:<7} {cells}")


def _summary_line(record: dict) -> str:
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }
    )


def run_all(args) -> int:
    """Each workload in its own process, one printed row per workload."""
    records = []
    for name in ("sweep", "audit", "points"):
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            *("--workload", name, "--seed", str(args.seed)),
            *("--seconds", str(args.seconds), "--trace", str(args.trace)),
        ]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
        if done.returncode != 0:
            _fail(f"{name} exited with code {done.returncode}")
        records.append(json.loads(_result_path(name, args.seed, args.trace).read_text()))
    print(f"machine: {json.dumps(records[0]['machine'], sort_keys=True)}")
    _print_rows(records)
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in records),
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
                "metrics": {
                    f"{r['workload']}.{key}": m for r in records for key, m in r["metrics"].items()
                },
            }
        )
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("sweep", "audit", "points", "all"), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    record = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    _result_path(args.workload, args.seed, args.trace).write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    print(f"machine: {json.dumps(record['machine'], sort_keys=True)}")
    for k, problems in record["problems"]:
        print(f"failed operation {k}: {'; '.join(problems)}")
    _print_rows([record])
    print(_summary_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
