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

    element_values: dict[str, float] = {}
    for el in elements:
        if el.id in element_values:
            raise NetworkDefinitionError(f"duplicate element id {el.id!r}")
        element_values[el.id] = el.value
    source_values: dict[str, float] = {}
    for src in sources:
        if src.id in source_values:
            raise NetworkDefinitionError(f"duplicate source id {src.id!r}")
        source_values[src.id] = src.value

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
    float64 matvec would drown them in rounding."""
    n = system.n
    phi = values.tolist()
    rhs = system.rhs.tolist()
    out = np.empty(n)
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
        SolveError: singular or ill-conditioned matrix, naming the
            offending system.
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

    def element_fluxes(self, mesh_fluxes: np.ndarray) -> np.ndarray:
        """Signed per-element branch fluxes from (..., n) mesh fluxes."""
        return np.asarray(mesh_fluxes) @ self.incidence.T


def compile_topology(
    element_ids: Sequence[str],
    source_ids: Sequence[str],
    meshes: Sequence[MeshSpec],
) -> MeshStamps:
    """Compile a mesh topology into constant assembly patterns.

    The patterns reproduce assemble_mesh_system exactly: stamping an
    element with unit value through the pattern equals stamping it
    through the object-level assembler.
    """
    n = len(meshes)
    e_index = {eid: k for k, eid in enumerate(element_ids)}
    s_index = {sid: k for k, sid in enumerate(source_ids)}
    if len(e_index) != len(element_ids):
        raise NetworkDefinitionError("duplicate element id in topology")
    if len(s_index) != len(source_ids):
        raise NetworkDefinitionError("duplicate source id in topology")

    matrix_pattern = np.zeros((len(element_ids), n * n))
    rhs_pattern = np.zeros((len(source_ids), n))
    incidence = np.zeros((len(element_ids), n))
    membership: dict[str, list[tuple[int, int]]] = {eid: [] for eid in element_ids}
    for i, mesh in enumerate(meshes):
        for eid, sign in mesh.elements:
            if eid not in e_index:
                raise NetworkDefinitionError(f"mesh {i} references unknown element {eid!r}")
            membership[eid].append((i, sign))
            incidence[e_index[eid], i] = sign
        for sid, sign in mesh.sources:
            if sid not in s_index:
                raise NetworkDefinitionError(f"mesh {i} references unknown source {sid!r}")
            rhs_pattern[s_index[sid], i] += sign
    for eid, members in membership.items():
        for i, si in members:
            for j, sj in members:
                matrix_pattern[e_index[eid], i * n + j] += si * sj
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
