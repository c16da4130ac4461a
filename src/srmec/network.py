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
# Iterative-refinement passes in solve_linear.  Refinement uses exact
# rational residuals, so two passes pin the result at the correctly
# rounded solution for any system this package builds.
REFINEMENT_STEPS = 2


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
    """Assembled mesh-reluctance system ``A @ phi = b``."""

    matrix: np.ndarray
    rhs: np.ndarray
    label: str = "mesh system"

    @property
    def n(self) -> int:
        return self.rhs.shape[0]


@dataclass(frozen=True)
class MeshFluxes:
    """Mesh fluxes in Wb, one per mesh."""

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
    """Assemble the symmetric mesh system from a network description.

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

    _index_ids([el.id for el in elements], "element")
    _index_ids([src.id for src in sources], "source")
    element_values = {el.id: el.value for el in elements}
    source_values = {src.id: src.value for src in sources}

    n = len(meshes)
    # Signed incidence per element: element id -> {mesh index: sign}.
    incidence: dict[str, dict[int, int]] = {eid: {} for eid in element_values}
    rhs = np.zeros(n)
    for i, mesh in enumerate(meshes):
        for eid, sign in mesh.elements:
            if eid not in element_values:
                raise NetworkDefinitionError(f"mesh {i} references unknown element {eid!r}")
            if i in incidence[eid]:
                raise NetworkDefinitionError(f"mesh {i} traverses element {eid!r} twice")
            incidence[eid][i] = sign
        for sid, sign in mesh.sources:
            if sid not in source_values:
                raise NetworkDefinitionError(f"mesh {i} references unknown source {sid!r}")
            rhs[i] += sign * source_values[sid]

    matrix = np.zeros((n, n))
    for eid, meshes_of in incidence.items():
        value = element_values[eid]
        members = list(meshes_of.items())
        for i, si in members:
            for j, sj in members:
                matrix[i, j] += si * sj * value

    return MeshSystem(matrix=matrix, rhs=rhs, label=label)


def _exact_residual_vector(system: MeshSystem, values: np.ndarray) -> np.ndarray:
    """Residual A@phi - b computed exactly, rounded once per entry.

    Every float is m / 2**k with integer m, so each product a*phi and
    each b is an integer over a power of two.  The terms of a row are
    summed exactly as integers over the largest of those denominators,
    and one correctly rounded int / int division gives the float of the
    exact residual.  This makes tiny residuals measurable where a
    float64 matvec would drown them in rounding.

    Raises SolveError, naming the system, when an input is not finite
    or a residual entry lies outside the float range."""
    n = system.n
    phi = values.tolist()
    rhs = system.rhs.tolist()
    out = np.empty(n)
    try:
        for i, row in enumerate(system.matrix.tolist()):
            terms = []
            for a, x in zip(row, phi):
                if a != 0.0:
                    a_num, a_den = a.as_integer_ratio()
                    x_num, x_den = x.as_integer_ratio()
                    terms.append((a_num * x_num, a_den.bit_length() + x_den.bit_length() - 2))
            b_num, b_den = rhs[i].as_integer_ratio()
            terms.append((-b_num, b_den.bit_length() - 1))
            shift = max(k for _, k in terms)
            out[i] = sum(m << (shift - k) for m, k in terms) / (1 << shift)
    except (OverflowError, ValueError) as exc:
        raise SolveError(f"{system.label}: exact residual is not a finite float: {exc}") from exc
    return out


def solve_linear(system: MeshSystem, condition_limit: float = CONDITION_LIMIT) -> MeshFluxes:
    """Solve the mesh system by dense elimination with partial pivoting.

    The LAPACK solution is polished with a fixed number of refinement
    passes whose residuals are evaluated exactly, so the returned fluxes
    are the correctly rounded solution even when the PM reluctance
    dwarfs every iron reluctance.

    Args:
        system: assembled mesh system.
        condition_limit: 2-norm condition-number bound above which the
            solve is refused.

    Returns:
        MeshFluxes solving the system.

    Raises:
        SolveError: singular or ill-conditioned matrix, or a solution
            whose residual does not fit a float, naming the offending
            system.
    """
    matrix = system.matrix
    try:
        condition = np.linalg.cond(matrix)
    except np.linalg.LinAlgError as exc:
        raise SolveError(f"{system.label}: condition estimate failed: {exc}") from exc
    if not np.isfinite(condition) or condition > condition_limit:
        raise SolveError(
            f"{system.label}: condition number {condition:.3e} exceeds limit {condition_limit:.3e}"
        )
    try:
        values = np.linalg.solve(matrix, system.rhs)
    except np.linalg.LinAlgError as exc:
        raise SolveError(f"{system.label}: singular system: {exc}") from exc

    for _ in range(REFINEMENT_STEPS):
        residual = _exact_residual_vector(system, values)
        if not np.any(residual):
            break
        values = values - np.linalg.solve(matrix, residual)

    return MeshFluxes(values=values)


@dataclass(frozen=True)
class MeshStamps:
    """Precompiled assembly pattern for repeated solves on one topology.

    Assembly reduces to two constant matmuls, so batches of systems that
    differ only in element values and source values (saturation
    iterations, parameter sweeps) assemble without touching Python-level
    network objects.  Built by :func:`compile_topology`.
    """

    element_ids: tuple[str, ...]
    source_ids: tuple[str, ...]
    n_meshes: int
    # (n_elements, n_meshes^2): element values @ matrix_pattern = flat A.
    matrix_pattern: np.ndarray
    # (n_sources, n_meshes): source values @ rhs_pattern = b.
    rhs_pattern: np.ndarray
    # (n_elements, n_meshes) signed incidence: mesh fluxes -> element fluxes.
    incidence: np.ndarray

    def assemble(self, element_values: np.ndarray, source_values: np.ndarray):
        """Assemble stacked systems.

        Args:
            element_values: (..., n_elements) reluctances in A/Wb.
            source_values: (..., n_sources) MMFs in At.

        Returns:
            (A, b) with shapes (..., n, n) and (..., n).
        """
        n = self.n_meshes
        flat = np.asarray(element_values) @ self.matrix_pattern
        matrix = flat.reshape(*flat.shape[:-1], n, n)
        rhs = np.asarray(source_values) @ self.rhs_pattern
        return matrix, rhs

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
    """Compile a mesh topology into constant assembly patterns.

    The patterns reproduce assemble_mesh_system exactly: stamping an
    element with unit value through the pattern equals stamping it
    through the object-level assembler, and the same definition errors
    are raised.
    """
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
    # Each element stamps the outer product of its signed incidence.
    matrix_pattern = np.einsum("ei,ej->eij", incidence, incidence).reshape(len(element_ids), n * n)
    return MeshStamps(
        element_ids=tuple(element_ids),
        source_ids=tuple(source_ids),
        n_meshes=n,
        matrix_pattern=matrix_pattern,
        rhs_pattern=rhs_pattern,
        incidence=incidence,
    )


def kirchhoff_residual(system: MeshSystem, fluxes: MeshFluxes, floor: float = RESIDUAL_FLOOR) -> float:
    """Relative defect of a candidate solution.

    Returns ``max|A@phi - b| / max(max|b|, floor)`` with the matvec done
    exactly (see _exact_residual_vector).

    Args:
        system: assembled mesh system.
        fluxes: candidate mesh fluxes.
        floor: lower bound on the normalizer, keeping the ratio defined
            for b = 0.
    """
    if fluxes.values.shape[0] != system.n:
        raise ValueError(
            f"flux vector has length {fluxes.values.shape[0]}, system has {system.n} meshes"
        )
    defect = np.max(np.abs(_exact_residual_vector(system, fluxes.values)))
    scale = max(float(np.max(np.abs(system.rhs))), floor)
    return float(defect / scale)
