"""Generic lumped magnetic-circuit mesh networks.

Flux plays the role of loop current, MMF of source voltage, and
reluctance of resistance.  A network is a set of reluctance elements and
MMF sources plus a list of mesh descriptions; assembly produces the
symmetric mesh-reluctance system ``A @ phi = b`` with

    A[i][i] = sum of reluctances bordering mesh i
    A[i][j] = signed sum of reluctances shared by meshes i and j
    b[i]    = signed sum of MMF sources around mesh i

Orientation signs are carried per mesh membership, so shared-element
coupling terms come out of the traversal convention instead of being
hand-entered.  For the planar networks built here, consistently oriented
meshes give nonpositive off-diagonals.

Units: reluctance A/Wb, MMF ampere-turns (At), flux Wb.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

# Relative residual is well defined even for b = 0 thanks to this floor.
RESIDUAL_FLOOR = 1e-30
# Conditioning guard: the PM reluctance dwarfs the iron reluctances by
# design, so ill-conditioning must fail loudly, not silently.
CONDITION_LIMIT = 1e12
# Iterative-refinement passes in solve_linear.  Each pass measures the
# residual of every system still being refined exactly, so two passes
# pin each system of a stack at its correctly rounded solution for any
# system this package builds.
REFINEMENT_STEPS = 2
# Systems per chunk of exact residuals, bounding the Python ints alive at
# once.  On 1,000 five-mesh audit systems (2-core x86-64 machine) a call
# takes about 6.4 ms at 128 to 256 against 7.3 ms at 32, where numpy's
# per-call cost dominates; the traced allocation peak is 0.8 MB at 128
# against 0.2 MB at 32, and `srmec fidelity --samples 1000` peaks at
# 42.6 to 42.7 MB RSS at 32, 128 and 256 alike.
RESIDUAL_CHUNK = 128
# A nonzero right-hand side wholly below this (about 1e-277) leaves
# residuals too deep in the subnormal range to refine the last bits
# with, so solve_linear refuses it.
SMALLEST_RHS = 2.0**-920


class NetworkDefinitionError(ValueError):
    """A mesh references an undeclared element or source id."""


class SolveError(ArithmeticError):
    """The mesh system could not be solved reliably."""


@dataclass(frozen=True)
class ReluctanceElement:
    """One flux-path segment.

    Args:
        id: symbolic name, unique within a network.
        value: reluctance in A/Wb, strictly positive and finite.
    """

    id: str
    value: float

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("element id must be a nonempty string")
        if not (math.isfinite(self.value) and self.value > 0):
            raise ValueError(f"reluctance {self.id!r} must be positive and finite, got {self.value!r}")


@dataclass(frozen=True)
class MmfSource:
    """One magnetomotive-force source.

    Args:
        id: symbolic name, unique within a network.
        value: MMF in ampere-turns, signed; zero allowed.
    """

    id: str
    value: float

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("source id must be a nonempty string")
        if not math.isfinite(self.value):
            raise ValueError(f"MMF source {self.id!r} must be finite, got {self.value!r}")


@dataclass(frozen=True)
class MeshSpec:
    """Traversal description of one mesh.

    Args:
        elements: ordered (element id, orientation sign) pairs; sign is
            +1 when the mesh traverses the element along its reference
            direction, -1 against it.
        sources: (source id, orientation sign) pairs; the signed values
            add into the RHS entry of this mesh.
    """

    elements: tuple[tuple[str, int], ...]
    sources: tuple[tuple[str, int], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if len(self.elements) == 0:
            raise ValueError("a mesh must traverse at least one element")
        for eid, sign in tuple(self.elements) + tuple(self.sources):
            if sign not in (+1, -1):
                raise ValueError(f"orientation sign for {eid!r} must be +1 or -1, got {sign!r}")


@dataclass(frozen=True)
class MeshSystem:
    """Assembled mesh-reluctance system ``A @ phi = b``, or a stack of them.

    matrix is (..., n, n) and rhs (..., n); their batch axes broadcast,
    so one matrix may serve several right-hand sides.  A single system
    is a stack without batch axes.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    label: str = "mesh system"

    @property
    def n(self) -> int:
        return self.rhs.shape[-1]

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return np.broadcast_shapes(self.matrix.shape[:-2], self.rhs.shape[:-1])

    def flat_stack(self) -> tuple[np.ndarray, np.ndarray]:
        """The (m, n, n) matrices and (m, n) right-hand sides of the
        m = prod(batch_shape) systems, in batch order."""
        n, batch = self.n, self.batch_shape
        matrices, rhs = self.matrix, self.rhs
        if matrices.shape[:-2] != batch:
            matrices = np.empty(batch + (n, n))
            matrices[...] = self.matrix
        if rhs.shape[:-1] != batch:
            rhs = np.empty(batch + (n,))
            rhs[...] = self.rhs
        return matrices.reshape(-1, n, n), rhs.reshape(-1, n)


@dataclass(frozen=True)
class MeshFluxes:
    """Mesh fluxes in Wb, one per mesh: (n,), or (..., n) for a stack.

    residuals, when solve_linear fills it, is shaped like values and
    holds each system's exact residual A@phi - b at these fluxes (see
    _rounded_residuals); relative_residual reads it.  It takes no part
    in equality.
    """

    values: np.ndarray
    residuals: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not np.isfinite(self.values).all():
            raise ValueError("mesh fluxes must be finite")


def _index_ids(ids: Sequence[str], kind: str) -> dict[str, int]:
    """Position of each id; a repeated id is a definition error."""
    index: dict[str, int] = {}
    for k, name in enumerate(ids):
        if name in index:
            raise NetworkDefinitionError(f"duplicate {kind} id {name!r}")
        index[name] = k
    return index


def assemble_mesh_system(
    elements: Sequence[ReluctanceElement],
    sources: Sequence[MmfSource],
    meshes: Sequence[MeshSpec],
    label: str = "mesh system",
) -> MeshSystem:
    """Assemble the symmetric mesh system from a network description by
    compiling its topology and stamping it once.

    Args:
        elements: reluctance elements, ids unique.
        sources: MMF sources, ids unique and disjoint from element ids
            within their own namespace.
        meshes: one MeshSpec per mesh, in mesh order.

    Returns:
        MeshSystem with A symmetric by construction.

    Raises:
        NetworkDefinitionError: a mesh references an unknown id, or an
            id is declared twice.
        ValueError: no meshes given (via pre-condition checks).
    """
    if len(meshes) == 0:
        raise ValueError("at least one mesh is required")
    stamps = compile_topology([el.id for el in elements], [src.id for src in sources], meshes)
    matrix, rhs = stamps.assemble([el.value for el in elements], [src.value for src in sources])
    return MeshSystem(matrix=matrix, rhs=rhs, label=label)


def _quotient(numerator: int, denominator: int) -> float:
    """numerator / denominator correctly rounded, or NaN beyond the float
    range."""
    try:
        return numerator / denominator
    except OverflowError:
        return math.nan


_QUOTIENTS = np.frompyfunc(_quotient, 2, 1)


class _ScaledInts(NamedTuple):
    """A stack of m float blocks as exact Python ints: block k equals
    ints[k] * 2**(low - 53) entry by entry, with one low <= 0 for the
    stack.  A block with a non-finite entry is zeroed and flagged in bad."""

    ints: np.ndarray
    low: int
    bad: np.ndarray

    @classmethod
    def of(cls, blocks: np.ndarray) -> "_ScaledInts":
        # Every float is M * 2**e with a 53-bit integer mantissa M.
        mantissa, exponent = np.frexp(blocks)
        finite = np.isfinite(mantissa)
        bad = np.zeros(len(blocks), dtype=bool)
        if not finite.all():
            bad = ~finite.reshape(len(blocks), -1).all(axis=1)
            mantissa[bad], exponent[bad] = 0.0, 0
        low = min(int(exponent.min()), 0)
        ints = np.left_shift((mantissa * 2.0**53).astype(np.int64), exponent - low, dtype=object)
        return cls(ints, low, bad)

    def take(self, keep: np.ndarray) -> "_ScaledInts":
        """The blocks selected by keep, on the same scale."""
        return _ScaledInts(self.ints[keep], self.low, self.bad[keep])


def _scaled_rows(
    matrices: np.ndarray, rhs: np.ndarray, values: np.ndarray
) -> tuple[_ScaledInts, _ScaledInts]:
    """The rows [A_i | -b_i] of (m, n, n) matrices and (m, n) right-hand
    sides, (m, n, n + 1), and the flux rows [phi | 1] of (m, n) values,
    (m, n + 1), as exact ints on one power of two."""
    m, n = rhs.shape
    work = np.empty((m, n + 1, n + 1))
    work[:, :n, :n] = matrices
    np.negative(rhs, out=work[:, :n, n])
    work[:, n, :n] = values
    work[:, n, n] = 1.0
    ints, low, bad = _ScaledInts.of(work)
    return _ScaledInts(ints[:, :n], low, bad), _ScaledInts(ints[:, n], low, bad)


def _flux_rows(values: np.ndarray) -> _ScaledInts:
    """The rows [phi | 1] of (m, n) fluxes as exact ints, (m, n + 1)."""
    m, n = values.shape
    rows = np.empty((m, n + 1))
    rows[:, :n] = values
    rows[:, n] = 1.0
    return _ScaledInts.of(rows)


def _rounded_residuals(rows: _ScaledInts, fluxes: _ScaledInts) -> tuple[np.ndarray, dict[int, str]]:
    """Residuals A@phi - b of m systems from their augmented rows and
    flux rows, each entry exact and rounded once.

    One object-array matmul gives every row's residual as an exact
    integer over a power of two, and Python's int / int rounds it once,
    correctly, and an exact cancellation to +0.0.  The rows and the
    fluxes may sit on different scales: the quotient is the same
    rational, and so the same float, on any scale.

    Returns the (m, n) residuals, and the reason for each system index
    whose residual is not a finite float (a non-finite input, or an entry
    beyond the float range); the failing entries hold NaN.
    """
    numerators = np.matmul(rows.ints, fluxes.ints[..., None])[..., 0]
    residual = _QUOTIENTS(numerators, 1 << (106 - rows.low - fluxes.low)).astype(float)
    bad = rows.bad | fluxes.bad
    residual[bad] = math.nan
    failures = {}
    for k in np.flatnonzero(np.isnan(residual).any(axis=1)).tolist():
        why = "an input is not finite" if bad[k] else "an entry is beyond the float range"
        failures[k] = f"exact residual is not a finite float: {why}"
    return residual, failures


def _exact_residuals(
    matrices: np.ndarray, values: np.ndarray, rhs: np.ndarray
) -> tuple[np.ndarray, dict[int, str]]:
    """Residuals A@phi - b of m stacked systems, each entry exact and
    rounded once (see _rounded_residuals), in chunks of RESIDUAL_CHUNK
    systems.  This shares no code with srmec.exact, so the audit's check
    of one against the other stays independent.

    Args:
        matrices: (m, n, n); values and rhs: (m, n).

    Returns:
        (m, n) residuals, and the reason for each system index whose
        residual is not a finite float; the failing entries hold NaN.
    """
    out = np.empty(rhs.shape)
    failures: dict[int, str] = {}
    for start in range(0, len(rhs), RESIDUAL_CHUNK):
        chunk = slice(start, start + RESIDUAL_CHUNK)
        rows = _scaled_rows(matrices[chunk], rhs[chunk], values[chunk])
        out[chunk], chunk_failures = _rounded_residuals(*rows)
        failures.update({start + k: why for k, why in chunk_failures.items()})
    return out, failures


def _failure_message(label: str, batch: tuple[int, ...], failures: dict[int, str]) -> str:
    """One message naming the system and, for a stack, every failing
    batch index, grouped by reason."""
    if not batch:
        return f"{label}: {failures[0]}"
    by_reason: dict[str, list[str]] = {}
    for k in sorted(failures):
        index = np.unravel_index(k, batch)
        by_reason.setdefault(failures[k], []).append(
            str(int(index[0])) if len(batch) == 1 else str(tuple(map(int, index)))
        )
    return "; ".join(
        f"{label}: {reason} at batch {'index' if len(where) == 1 else 'indices'} {', '.join(where)}"
        for reason, where in by_reason.items()
    )


def _exact_residual_vector(system: MeshSystem, values: np.ndarray) -> np.ndarray:
    """(..., n) exact residuals A@phi - b of a system or stack at values
    (see _exact_residuals).

    Raises SolveError, naming the system and any failing batch index,
    when a residual entry is not a finite float."""
    matrices, rhs = system.flat_stack()
    batch = system.batch_shape
    residual, failures = _exact_residuals(matrices, values.reshape(rhs.shape), rhs)
    if failures:
        raise SolveError(_failure_message(system.label, batch, failures))
    return residual.reshape(batch + (system.n,))


def condition_bound(matrices: np.ndarray) -> np.ndarray:
    """Upper bound on the 2-norm condition number of symmetric, strictly
    diagonally dominant (..., n, n) matrices, without an SVD (Varah,
    Linear Algebra Appl. 11, 1975): ||A||_2 <= ||A||_inf, and no
    eigenvalue lies below the smallest row margin a_ii - sum_{j != i}
    |a_ij|.  Infinite where that margin is not positive, or overflows to
    inf or NaN.  Every matrix MeshStamps.stamp builds is symmetric."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        rows = np.abs(matrices).sum(axis=-1)
        margin = (2.0 * np.diagonal(matrices, axis1=-2, axis2=-1) - rows).min(axis=-1)
        return np.where(margin > 0.0, rows.max(axis=-1) / margin, np.inf)


def _refusals(matrices: np.ndarray) -> dict[int, str]:
    """Why each refused matrix of an (m, n, n) stack is refused, by index.

    Exactly symmetric matrices that condition_bound holds to
    CONDITION_LIMIT pass; the rest share one condition estimate, and
    only when it fails is each estimated alone."""
    symmetric = (matrices == np.swapaxes(matrices, -1, -2)).all(axis=(-2, -1))
    screened = np.flatnonzero(~(symmetric & (condition_bound(matrices) <= CONDITION_LIMIT)))
    if not screened.size:
        return {}
    try:
        conditions = np.linalg.cond(matrices[screened]).tolist()
    except np.linalg.LinAlgError as exc:
        if len(matrices) == 1:
            return {0: f"condition estimate failed: {exc}"}
        return {
            k: reason
            for k in screened.tolist()
            for reason in _refusals(matrices[k : k + 1]).values()
        }
    return {
        k: f"condition number {c:.3e} exceeds limit {CONDITION_LIMIT:.3e}"
        for k, c in zip(screened.tolist(), conditions)
        if not (math.isfinite(c) and c <= CONDITION_LIMIT)
    }


def solve_linear(system: MeshSystem) -> MeshFluxes:
    """Solve a mesh system, or a stack of them, by dense elimination with
    partial pivoting.

    The LAPACK solution is polished with a fixed number of refinement
    passes whose residuals are evaluated exactly, so the returned fluxes
    are the correctly rounded solution even when the PM reluctance
    dwarfs every iron reluctance.  A stack takes one pass: one condition
    estimate over the distinct matrices the bound does not clear, one
    batched LAPACK solve, and, per chunk of RESIDUAL_CHUNK systems,
    REFINEMENT_STEPS passes that each measure the exact residual of every
    system still being refined at once.  A system whose residual is
    exactly zero stops refining, and one whose last correction moved a
    value has its residual measured once more, so MeshFluxes.residuals
    holds the exact residual at the returned fluxes and relative_residual
    need not measure it again.
    Every system of a stack gets the bits it gets alone.  A system whose
    2-norm condition number exceeds CONDITION_LIMIT is refused, and so is
    a nonzero right-hand side wholly below SMALLEST_RHS.

    Args:
        system: assembled mesh system or stack.

    Returns:
        MeshFluxes solving the system, shaped like its right-hand sides
        broadcast against its matrices, with the exact residuals that
        refinement measured at them.

    Raises:
        SolveError: a singular or ill-conditioned matrix, a right-hand
            side below SMALLEST_RHS, or a solution whose residual does
            not fit a float.  The message names the system and, for a
            stack, every failing batch index.
    """
    n, batch = system.n, system.batch_shape
    matrices, rhs = system.flat_stack()
    refused = _refusals(system.matrix.reshape(-1, n, n))
    failures: dict[int, str] = {}
    if refused:
        # Each system shares the refusal of its matrix.
        owner = np.arange(math.prod(system.matrix.shape[:-2])).reshape(system.matrix.shape[:-2])
        for k, j in enumerate(np.broadcast_to(owner, batch).reshape(-1).tolist()):
            if j in refused:
                failures[k] = refused[j]
    tiny = (np.abs(rhs).max(axis=1) < SMALLEST_RHS) & rhs.any(axis=1)
    for k in np.flatnonzero(tiny).tolist():
        failures.setdefault(k, f"right-hand side below {SMALLEST_RHS:.3g}, too small to round exactly")
    # The systems still being solved, with their working arrays (views
    # of the stack while none is refused).
    index = np.array([k for k in range(len(rhs)) if k not in failures], dtype=np.intp)
    a, b = (matrices, rhs) if not failures else (matrices[index], rhs[index])
    try:
        x = np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # Find the singular ones; their NaN solutions fail the residual.
        x = np.full(b.shape, math.nan)
        for j, k in enumerate(index.tolist()):
            try:
                x[j] = np.linalg.solve(a[j], b[j])
            except np.linalg.LinAlgError as exc:
                failures[k] = f"singular system: {exc}"

    # Refinement runs chunk by chunk, which bounds the Python ints alive
    # at once.  A chunk's rows [A | -b] become ints once, with its first
    # fluxes; later passes scale only their new fluxes.  LAPACK solves
    # each system alone, so the chunking moves no bits.
    values = np.full(rhs.shape, math.nan)
    # A system that stops refining stops at an exactly zero residual.
    measured = np.zeros(rhs.shape)
    for start in range(0, len(index), RESIDUAL_CHUNK):
        chunk = slice(start, start + RESIDUAL_CHUNK)
        where, a_k, x_k = index[chunk], a[chunk], x[chunk]
        rows, fluxes = _scaled_rows(a_k, b[chunk], x_k)
        for step in range(REFINEMENT_STEPS):
            if step:
                fluxes = _flux_rows(x_k)
            values[where] = x_k
            residual, residual_failures = _rounded_residuals(rows, fluxes)
            refine = residual.any(axis=1)
            for j, reason in residual_failures.items():
                failures.setdefault(int(where[j]), reason)
                refine[j] = False
            if not refine.all():
                where, a_k, x_k, residual = where[refine], a_k[refine], x_k[refine], residual[refine]
                rows = rows.take(refine)
                if not where.size:
                    break
            residual_at, x_k = x_k, x_k - np.linalg.solve(a_k, residual[..., None])[..., 0]
        else:
            # The exact residual depends only on the fluxes' values (a
            # signed zero adds nothing), so where the last correction
            # moved no value it is the residual just measured; elsewhere
            # it is measured once more.
            moved = np.flatnonzero((x_k != residual_at).any(axis=1))
            if moved.size:
                residual[moved], residual_failures = _rounded_residuals(
                    rows.take(moved), _flux_rows(x_k[moved])
                )
                for j, reason in residual_failures.items():
                    failures.setdefault(int(where[moved[j]]), reason)
            measured[where] = residual
        values[where] = x_k

    if failures:
        raise SolveError(_failure_message(system.label, batch, failures))
    shape = batch + (n,)
    return MeshFluxes(values=values.reshape(shape), residuals=measured.reshape(shape))


@dataclass(frozen=True)
class MeshStamps:
    """Precompiled assembly of one topology, built by :func:`compile_topology`:
    systems that differ only in element and source values (saturation
    iterations, sweeps, audit samples) stamp without network objects."""

    element_ids: tuple[str, ...]
    source_ids: tuple[str, ...]
    n_meshes: int
    # Stamping plan.  Each stamped entry of A sums its terms s_i*s_j*v_e
    # from zero in element order.  Entries are numbered longest sum first,
    # so rank k (the k-th terms) is an (entries, terms) slice pair.
    term_elements: np.ndarray  # (n_terms,) element index per term
    term_signs: np.ndarray  # (n_terms, 1) s_i*s_j per term
    term_ranks: tuple[tuple[slice, slice], ...]
    n_entries: int
    # (n_meshes^2,) entry of each position of A; n_entries (zero) if unstamped.
    entry_of_position: np.ndarray
    # (n_sources, n_meshes): source values @ rhs_pattern = b.
    rhs_pattern: np.ndarray
    # (n_elements, n_meshes) signed incidence: mesh fluxes -> element fluxes.
    incidence: np.ndarray

    def stamp(self, element_values) -> np.ndarray:
        """(..., n, n) mesh matrices from (..., n_elements) reluctances, A/Wb.

        Every term is exactly +-v and each entry adds its terms in element
        order, so it rounds as the object-by-object sum does, to the same
        bits alone or in any batch.  Batch axes stay last until the
        returned view, so each term rank is one addition over all systems."""
        values = np.asarray(element_values, dtype=float)
        batch = values.shape[:-1]
        flat = values.reshape(math.prod(batch), values.shape[-1])
        terms = np.take(flat.T, self.term_elements, axis=0)
        terms *= self.term_signs
        sums = np.zeros((self.n_entries + 1, terms.shape[1]))
        for entries, rank in self.term_ranks:
            head = sums[entries]
            head += terms[rank]
        del terms  # frees memory the result can reuse
        return sums[self.entry_of_position].T.reshape(*batch, self.n_meshes, self.n_meshes)

    def assemble(self, element_values, source_values):
        """Stacked systems (A, b), shaped (..., n, n) and (..., n), from
        (..., n_elements) reluctances in A/Wb and (..., n_sources) MMFs in At."""
        return self.stamp(element_values), np.asarray(source_values, dtype=float) @ self.rhs_pattern

    def solve(self, matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve stacked systems stamped from positive element values by
        Gaussian elimination without pivoting.

        When every mesh owns an element that no other mesh traverses and
        no element borders more than two meshes, a matrix stamped from
        positive values is symmetric and strictly diagonally dominant:
        row i's margin a_ii - sum_{j != i} |a_ij| is at least the sum of
        the elements mesh i owns.  Elimination without pivoting is then
        stable with a growth factor of at most 2, and its pivots are the
        ones partial pivoting would choose.  One loop runs the
        elimination entry by entry over the augmented rows [A | b]: on
        Python floats for a single system, and on each entry's contiguous
        row over the batch otherwise.  Every entry takes the same IEEE
        operations in the same order either way, so a system solves to
        the same bits alone or in any batch, and a right-hand-side column
        alone or with others.

        Args:
            matrices: (..., n, n) mesh matrices stamped by this topology.
            rhs: (..., n, k) right-hand sides; batch axes broadcast.

        Returns:
            (..., n, k) solutions.  A system with a zero or non-finite
            pivot solves to NaN; the other systems are unaffected.

        Raises:
            NetworkDefinitionError: the topology does not make stamped
                matrices strictly diagonally dominant.
        """
        if self._dominance_defect:
            raise NetworkDefinitionError(
                f"elimination without pivoting needs a diagonally dominant topology: "
                f"{self._dominance_defect}"
            )
        n, k = rhs.shape[-2:]
        batch = np.broadcast_shapes(matrices.shape[:-2], rhs.shape[:-2])
        size = math.prod(batch)
        # Augmented rows [A | b].  A zero or non-finite pivot stays on the
        # diagonal for the check after the loop.
        if size == 1:
            # Python floats, on which a zero pivot raises.
            rows = [a + b for a, b in zip(matrices.reshape(n, n).tolist(), rhs.reshape(n, k).tolist())]
            quiet = suppress(ZeroDivisionError)
        else:
            # Each entry a contiguous row of aug over the batch, updated in
            # place; numpy divides a zero pivot to inf or NaN.
            aug = np.empty((n, n + k) + batch)
            aug[:, :n] = _systems_first(matrices)
            aug[:, n:] = _systems_first(rhs)
            rows = [list(row) for row in aug.reshape(n, n + k, size)]
            quiet = np.errstate(divide="ignore", invalid="ignore", over="ignore")
        with quiet:
            for p, pivot in enumerate(rows):
                columns = range(p + 1, n + k)
                for row in rows[p + 1 :]:
                    factor = row[p] / pivot[p]
                    for j in columns:
                        row[j] -= factor * pivot[j]
            for p in range(n - 1, -1, -1):
                pivot = rows[p]
                for j in range(n, n + k):
                    pivot[j] /= pivot[p]
                    for row in rows[:p]:
                        row[j] -= row[p] * pivot[j]
        if size == 1:
            solution = np.array([row[n:] for row in rows]).reshape(batch + (n, k))
            if not all(0.0 < abs(row[p]) < math.inf for p, row in enumerate(rows)):
                solution[...] = np.nan
            return solution
        pivots = aug[:, :n].diagonal()
        solution = aug[:, n:]
        solution[..., ~(np.isfinite(pivots) & (pivots != 0.0)).all(axis=-1)] = np.nan
        return solution.transpose(*range(2, solution.ndim), 0, 1).copy()

    @cached_property
    def _dominance_defect(self) -> str:
        """Why stamped matrices may lack strict diagonal dominance; empty
        when every mesh owns an element and none borders three meshes."""
        borders = np.count_nonzero(self.incidence, axis=1)
        for eid, count in zip(self.element_ids, borders):
            if count > 2:
                return f"element {eid!r} borders {count} meshes"
        owned = np.any(self.incidence[borders == 1] != 0, axis=0)
        if not owned.all():
            return f"mesh {int(np.argmin(owned))} owns no element of its own"
        return ""

    def element_fluxes(self, mesh_fluxes: np.ndarray) -> np.ndarray:
        """Signed per-element branch fluxes from (..., n) mesh fluxes."""
        return np.asarray(mesh_fluxes) @ self.incidence.T


def _systems_first(stack: np.ndarray) -> np.ndarray:
    """View of a (..., r, c) stack as (r, c, ...)."""
    nd = stack.ndim
    return stack.transpose(nd - 2, nd - 1, *range(nd - 2))


def compile_topology(
    element_ids: Sequence[str],
    source_ids: Sequence[str],
    meshes: Sequence[MeshSpec],
) -> MeshStamps:
    """Compile a mesh topology into its stamping plan; raises
    NetworkDefinitionError for a duplicate or unknown id or an element
    traversed twice by one mesh."""
    n = len(meshes)
    e_index = _index_ids(element_ids, "element")
    s_index = _index_ids(source_ids, "source")
    rhs_pattern = np.zeros((len(source_ids), n))
    incidence = np.zeros((len(element_ids), n))
    for i, mesh in enumerate(meshes):
        for eid, sign in mesh.elements:
            if eid not in e_index:
                raise NetworkDefinitionError(f"mesh {i} references unknown element {eid!r}")
            if incidence[e_index[eid], i]:
                raise NetworkDefinitionError(f"mesh {i} traverses element {eid!r} twice")
            incidence[e_index[eid], i] = sign
        for sid, sign in mesh.sources:
            if sid not in s_index:
                raise NetworkDefinitionError(f"mesh {i} references unknown source {sid!r}")
            rhs_pattern[s_index[sid], i] += sign
    # Each stamped upper-triangle entry (i, j) sums the elements both
    # meshes traverse, in element order.  Longest sums first, so rank k
    # (the k-th terms) covers a prefix of the entries.
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    shared = [(i, j, np.flatnonzero(incidence[:, i] * incidence[:, j])) for i, j in pairs]
    entries = sorted((entry for entry in shared if entry[2].size), key=lambda entry: -entry[2].size)
    depth = entries[0][2].size if entries else 0
    ranks = [[(i, j, common[k]) for i, j, common in entries if common.size > k] for k in range(depth)]
    terms = [term for rank in ranks for term in rank]
    starts = [sum(len(rank) for rank in ranks[:k]) for k in range(depth + 1)]
    entry_of_position = np.full(n * n, len(entries))
    for slot, (i, j, _) in enumerate(entries):
        entry_of_position[[i * n + j, j * n + i]] = slot
    return MeshStamps(
        element_ids=tuple(element_ids),
        source_ids=tuple(source_ids),
        n_meshes=n,
        term_elements=np.array([e for _, _, e in terms], dtype=np.intp),
        term_signs=np.array([incidence[e, i] * incidence[e, j] for i, j, e in terms]).reshape(-1, 1),
        term_ranks=tuple((slice(0, b - a), slice(a, b)) for a, b in zip(starts, starts[1:])),
        n_entries=len(entries),
        entry_of_position=entry_of_position,
        rhs_pattern=rhs_pattern,
        incidence=incidence,
    )


def kirchhoff_residual(system: MeshSystem, fluxes: MeshFluxes) -> float:
    """Relative defect of a candidate solution.

    Returns ``max|A@phi - b| / max(max|b|, RESIDUAL_FLOOR)`` with the
    matvec done exactly (see _exact_residuals).

    Args:
        system: assembled mesh system.
        fluxes: candidate mesh fluxes.
    """
    if fluxes.values.shape[-1] != system.n:
        raise ValueError(
            f"flux vector has length {fluxes.values.shape[-1]}, system has {system.n} meshes"
        )
    return _relative_defect(_exact_residual_vector(system, fluxes.values), system.rhs)


def relative_residual(system: MeshSystem, fluxes: MeshFluxes) -> float:
    """kirchhoff_residual(system, fluxes), bit for bit, read from the
    exact residual that solve_linear measured at these fluxes, or
    measured anew when fluxes carry none.

    Args:
        system: assembled mesh system.
        fluxes: its mesh fluxes, as solve_linear returned them or not.
    """
    if fluxes.residuals is None:
        return kirchhoff_residual(system, fluxes)
    return _relative_defect(fluxes.residuals, system.rhs)


def _relative_defect(residual: np.ndarray, rhs: np.ndarray) -> float:
    """max|residual| / max(max|rhs|, RESIDUAL_FLOOR)."""
    scale = max(float(np.abs(rhs).max()), RESIDUAL_FLOOR)
    return float(np.abs(residual).max() / scale)
