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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

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
    """Mesh fluxes in Wb, one per mesh: (n,), or (..., n) for a stack."""

    values: np.ndarray

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.values)):
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


def _exact_residuals(
    matrices: np.ndarray, values: np.ndarray, rhs: np.ndarray
) -> tuple[np.ndarray, dict[int, str]]:
    """Residuals A@phi - b of m stacked systems, each entry exact and
    rounded once.

    Every float is M * 2**e with a 53-bit integer mantissa M (np.frexp).
    A chunk's augmented rows [A_i | -b_i] and flux rows [phi | 1] are
    scaled together to Python ints times one power of two, so one
    object-array matmul gives every row's residual as an exact integer
    over a power of two; Python's int / int rounds it once, correctly,
    and an exact cancellation to +0.0.  This shares no code with
    srmec.exact, so the audit's check of one against the other stays
    independent.

    Args:
        matrices: (m, n, n); values and rhs: (m, n).

    Returns:
        (m, n) residuals, and the reason for each system index whose
        residual is not a finite float (a non-finite input, or an entry
        beyond the float range); the failing entries hold NaN.
    """
    m, n = rhs.shape
    out = np.empty((m, n))
    failures: dict[int, str] = {}
    for start in range(0, m, RESIDUAL_CHUNK):
        stop = min(start + RESIDUAL_CHUNK, m)
        # Rows 0..n-1 of each system are [A_i | -b_i]; row n is [phi | 1].
        work = np.empty((stop - start, n + 1, n + 1))
        work[:, :n, :n] = matrices[start:stop]
        np.negative(rhs[start:stop], out=work[:, :n, n])
        work[:, n, :n] = values[start:stop]
        work[:, n, n] = 1.0
        mantissa, exponent = np.frexp(work)
        # A system with a non-finite input computes on zeros and fails.
        bad = ~np.isfinite(mantissa).all(axis=(1, 2))
        if bad.any():
            mantissa[bad], exponent[bad] = 0.0, 0
        # Every entry is its int times 2**(low - 53), with low <= 0.
        low = min(int(exponent.min()), 0)
        mantissa *= 2.0**53
        ints = np.left_shift(mantissa.astype(np.int64), exponent - low, dtype=object)
        numerators = np.matmul(ints[:, :n], ints[:, n, :, None])[..., 0]
        denominator = 1 << (106 - 2 * low)
        rounded = out[start:stop]
        rounded[...] = _QUOTIENTS(numerators, denominator)
        rounded[bad] = math.nan
        for k in np.flatnonzero(np.isnan(rounded).any(axis=1)).tolist():
            why = "an input is not finite" if bad[k] else "an entry is beyond the float range"
            failures[start + k] = f"exact residual is not a finite float: {why}"
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


def _refusals(matrices: np.ndarray) -> dict[int, str]:
    """Why each refused matrix of an (m, n, n) stack is refused, by index.

    One condition estimate covers the stack; only when it fails is each
    matrix estimated alone."""
    try:
        conditions = np.linalg.cond(matrices).tolist()
    except np.linalg.LinAlgError as exc:
        if len(matrices) == 1:
            return {0: f"condition estimate failed: {exc}"}
        return {
            k: reason
            for k, matrix in enumerate(matrices)
            for reason in _refusals(matrix[None]).values()
        }
    return {
        k: f"condition number {c:.3e} exceeds limit {CONDITION_LIMIT:.3e}"
        for k, c in enumerate(conditions)
        if not (math.isfinite(c) and c <= CONDITION_LIMIT)
    }


def solve_linear(system: MeshSystem) -> MeshFluxes:
    """Solve a mesh system, or a stack of them, by dense elimination with
    partial pivoting.

    The LAPACK solution is polished with a fixed number of refinement
    passes whose residuals are evaluated exactly, so the returned fluxes
    are the correctly rounded solution even when the PM reluctance
    dwarfs every iron reluctance.  A stack takes one pass: one condition
    estimate over its distinct matrices, one batched LAPACK solve, and
    REFINEMENT_STEPS passes that each measure the exact residual of
    every system still being refined at once.  A system whose residual
    is exactly zero stops refining.  Every system of a stack gets the
    bits it gets alone.  A system whose 2-norm condition number exceeds
    CONDITION_LIMIT is refused.

    Args:
        system: assembled mesh system or stack.

    Returns:
        MeshFluxes solving the system, shaped like its right-hand sides
        broadcast against its matrices.

    Raises:
        SolveError: a singular or ill-conditioned matrix, or a solution
            whose residual does not fit a float.  The message names the
            system and, for a stack, every failing batch index.
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

    values = np.full(rhs.shape, math.nan)
    for _ in range(REFINEMENT_STEPS):
        values[index] = x
        residual, residual_failures = _exact_residuals(a, x, b)
        refine = residual.any(axis=1)
        for j, reason in residual_failures.items():
            failures.setdefault(int(index[j]), reason)
            refine[j] = False
        if not refine.all():
            index, a, b, x, residual = index[refine], a[refine], b[refine], x[refine], residual[refine]
            if not index.size:
                break
        x = x - np.linalg.solve(a, residual[..., None])[..., 0]
    values[index] = x

    if failures:
        raise SolveError(_failure_message(system.label, batch, failures))
    return MeshFluxes(values=values.reshape(batch + (n,)))


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
        ones partial pivoting would choose.  The batch axes are kept
        last, so each elimination step is one numpy operation over all
        systems, and every right-hand-side column goes through the same
        operations: a column solves to the same bits alone or with
        others.

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
        # Augmented [A | b] with the system axes first, batch axes last.
        aug = np.empty((n, n + k) + batch)
        aug[:, :n] = _systems_first(matrices)
        aug[:, n:] = _systems_first(rhs)
        solution = aug[:, n:]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for p in range(n - 1):
                factors = aug[p + 1 :, p, None] / aug[p, p]
                aug[p + 1 :, p + 1 :] -= factors * aug[p, None, p + 1 :]
            for p in range(n - 1, -1, -1):
                solution[p] /= aug[p, p]
                solution[:p] -= aug[:p, p, None] * solution[p]
        pivots = aug[:, :n].diagonal()
        solution[..., ~(np.isfinite(pivots) & (pivots != 0.0)).all(axis=-1)] = np.nan
        nd = solution.ndim
        return solution.transpose(*range(2, nd), 0, 1).copy()

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
    defect = np.max(np.abs(_exact_residual_vector(system, fluxes.values)))
    scale = max(float(np.max(np.abs(system.rhs))), RESIDUAL_FLOOR)
    return float(defect / scale)
