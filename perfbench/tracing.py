"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the srmec modules from outside the
package: each wrapped call records a span (name, start, end, parent) in
memory, and spans of one operation share its id.  Hot tiny calls
(``regime_check``, about 88 per accepted audit sample) are timed and
counted but not stored as spans.  Nothing under ``src/`` is edited: the
wrappers replace module attributes for the duration of the traced phase
and are removed afterwards.

A layer's self time is its duration minus the time of the wrapped calls
it made.  Calls nest strictly (one thread), so the self times of every
layer in one operation, ``cli.main`` included, add up to the duration of
its ``cli.main`` span.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# Root span of one operation: the benchmark calls srmec.cli.main itself.
ROOT = "cli.main"


@dataclass
class LayerStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


@dataclass
class OpStats:
    """Everything the tracer saw during one operation."""

    layers: dict[str, LayerStats] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    iterations: list[np.ndarray] = field(default_factory=list)

    def layer(self, name: str) -> LayerStats:
        stats = self.layers.get(name)
        if stats is None:
            stats = self.layers[name] = LayerStats()
        return stats

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(amount)


class _Frame:
    __slots__ = ("span_id", "name", "child_ns")

    def __init__(self, span_id: int, name: str) -> None:
        self.span_id = span_id
        self.name = name
        self.child_ns = 0


class Tracer:
    """In-memory spans and per-operation layer statistics."""

    def __init__(self) -> None:
        # (op id, span id, parent span id or -1, name, start ns, end ns)
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.ops: list[OpStats] = []
        self._stack: list[_Frame] = []
        self._next_id = 0

    def run_op(self, fn, *args):
        """Run one operation under a fresh root span."""
        self.ops.append(OpStats())
        return self.call(ROOT, fn, args, {}, None, True)

    def call(self, name, fn, args, kwargs, counter, spanned):
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = _Frame(self._next_id, name)
        self._next_id += 1
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            duration = end - start
            stats = self.ops[-1].layer(name)
            stats.calls += 1
            stats.total_ns += duration
            stats.self_ns += duration - frame.child_ns
            if parent is not None:
                parent.child_ns += duration
            if spanned:
                self.spans.append(
                    (
                        len(self.ops) - 1,
                        frame.span_id,
                        parent.span_id if parent is not None else -1,
                        name,
                        start,
                        end,
                    )
                )
        if counter is not None:
            counter(self.ops[-1], parent, args, result)
        return result

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("op,span,parent,name,start_ns,end_ns\n")
            for span in self.spans:
                handle.write(",".join(str(v) for v in span) + "\n")


# --- counters: read work done from arguments and return values -------------


def _count_grid(op: OpStats, parent, args, result) -> None:
    iterations = np.asarray(result.iterations)
    op.add("saturation.points", iterations.size)
    op.add("saturation.point_iters", iterations.sum())
    # The batched loop runs until its slowest point has converged.
    op.add("saturation.loop_passes", iterations.max())
    op.iterations.append(iterations.ravel().copy())


def _count_stamp(op: OpStats, parent, args, result) -> None:
    # args = (self, element_values, source_values); one system per row.
    op.add("network.stamp_systems", np.prod(np.shape(args[1])[:-1], dtype=np.int64))


def _count_lapack(op: OpStats, parent, args, result) -> None:
    op.add("network.lapack_systems", np.prod(np.shape(args[0])[:-2], dtype=np.int64))


def _count_regime(op: OpStats, parent, args, result) -> None:
    if parent is not None and parent.name == "fidelity.sample":
        op.add("fidelity.draws", 1)


def _targets():
    """(layer name, owner, attribute, counter, spanned) for every boundary."""
    from srmec import exact, fidelity, motor, network, saturation, torque

    return (
        ("torque.sweep", torque, "torque_angle_sweep", None, True),
        ("saturation.grid", saturation, "solve_nonlinear_grid", _count_grid, True),
        ("saturation.single_point", saturation, "solve_nonlinear", None, True),
        ("saturation.chord", saturation.BhCurve, "chord_permeability", None, True),
        ("network.stamp", network.MeshStamps, "assemble", _count_stamp, True),
        ("network.lapack", np.linalg, "solve", _count_lapack, True),
        ("network.solve_linear", network, "solve_linear", None, True),
        ("network.kirchhoff", network, "kirchhoff_residual", None, True),
        ("network.object_assembly", network, "assemble_mesh_system", None, True),
        ("exact.solve", exact, "solve_exact", None, True),
        ("motor.build_network", motor, "build_network", None, True),
        ("motor.regime_check", motor, "regime_check", _count_regime, False),
        ("fidelity.sample", fidelity, "sample_regime_case", None, True),
        ("fidelity.audit", fidelity, "run_fidelity_audit", None, True),
    )


class Instrumentation:
    """Context manager that installs the wrappers and removes them on exit.

    A module-level function is replaced in every srmec module that
    imported it by name, so each call site in the package reaches the
    wrapper.  Methods are replaced on their class, and numpy.linalg.solve
    on numpy.linalg, which is where the package looks it up.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def _wrapper(self, name, fn, counter, spanned):
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, counter, spanned)

        return wrapper

    def _replace(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Instrumentation":
        srmec_modules = [
            module
            for key, module in sorted(sys.modules.items())
            if module is not None and (key == "srmec" or key.startswith("srmec."))
        ]
        try:
            for name, owner, attr, counter, spanned in _targets():
                original = getattr(owner, attr)
                wrapper = self._wrapper(name, original, counter, spanned)
                if isinstance(owner, type) or owner is np.linalg:
                    self._replace(owner, attr, wrapper)
                    continue
                for module in srmec_modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._replace(module, key, wrapper)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

