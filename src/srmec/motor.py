"""Magnetic circuit of a hybrid-excited multi-tooth SRM.

One phase of the machine is modeled as a five-mesh reluctance network:
an excited C-core pair (stator yoke segment, two pole teeth, two air
gaps, a rotor yoke return) flanked by three permanent-magnet branches
that can either short-circuit through the stator yoke or cross the air
gap.  Five lumped reluctances parameterize the network:

    r_sy  stator yoke segment        r_g   air gap (angle dependent)
    r_sp  stator pole tooth          r_pm  permanent magnet
    r_ry  rotor yoke return

and two MMF sources drive it: f_e per excited coil and f_pm per magnet.

The module maps catalog geometry onto those reluctances, assembles the
mesh system, and evaluates the textbook-style closed-form flux
expressions that accompany this machine in the literature.  The closed
forms are kept for auditing only; see :mod:`srmec.fidelity` for why
they must not be trusted for computation.  All downstream torque work
uses the numeric solve.

Geometry inputs are millimeters and degrees (catalog units); internal
computation is SI.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .network import (
    MeshFluxes,
    MeshSpec,
    MeshSystem,
    compile_topology,
    relative_residual,
    solve_linear,
)

MU0 = 4e-7 * math.pi  # H/m

# Rotor yoke radial thickness is not a catalog value; it is taken equal
# to the stator yoke thickness scaled by this factor.  The return path
# is sized generously (standard rotor design) so it never saturates
# before the excited core, whose saturation is the machine's working
# mechanism.
ROTOR_YOKE_THICKNESS_FACTOR = 2.0
# Fringing keeps the gap permeance finite at full unalignment: the
# permeance never drops below this fraction of its aligned value.
FRINGING_PERMEANCE_FRACTION = 0.05
# Dominance threshold for the PM-reluctance regime inequalities.
REGIME_THRESHOLD = 10.0


@dataclass(frozen=True)
class MotorGeometry:
    """Catalog dimensions of the machine.

    Args:
        stator_outer_diameter: mm.
        stator_yoke_thickness: radial, mm.
        stator_pole_height: radial tooth height, mm.
        airgap_length: radial, mm.
        rotor_pole_height: radial, mm.
        stator_tooth_arc: angular tooth width, deg.
        rotor_pole_arc: angular pole width, deg.
        stack_length: axial, mm.
        pm_width: magnet cross-section width, mm.
        pm_length: magnetization-direction length, mm.
        turns_per_pole: coil turns on each pole tooth.
        stator_teeth_count: teeth on the stator bore.
        rotor_poles_count: salient poles on the rotor.
    """

    stator_outer_diameter: float = 140.0
    stator_yoke_thickness: float = 4.72
    stator_pole_height: float = 16.12
    airgap_length: float = 0.3
    rotor_pole_height: float = 7.64
    stator_tooth_arc: float = 4.87
    rotor_pole_arc: float = 5.06
    stack_length: float = 20.0
    pm_width: float = 5.0
    pm_length: float = 5.0
    turns_per_pole: int = 140
    stator_teeth_count: int = 16
    rotor_poles_count: int = 18

    def __post_init__(self) -> None:
        lengths = {
            "stator_outer_diameter": self.stator_outer_diameter,
            "stator_yoke_thickness": self.stator_yoke_thickness,
            "stator_pole_height": self.stator_pole_height,
            "airgap_length": self.airgap_length,
            "rotor_pole_height": self.rotor_pole_height,
            "stack_length": self.stack_length,
            "pm_width": self.pm_width,
            "pm_length": self.pm_length,
        }
        for name, value in lengths.items():
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        for name, count in (
            ("turns_per_pole", self.turns_per_pole),
            ("stator_teeth_count", self.stator_teeth_count),
            ("rotor_poles_count", self.rotor_poles_count),
        ):
            if not (isinstance(count, int) and count >= 1):
                raise ValueError(f"{name} must be a positive integer, got {count!r}")
            if count > sys.float_info.max:
                raise ValueError(f"{name} overflows the float range")
        if not 0 < self.stator_tooth_arc < 360.0 / self.stator_teeth_count:
            raise ValueError("stator_tooth_arc must lie in (0, 360/stator_teeth_count) deg")
        if not 0 < self.rotor_pole_arc < 360.0 / self.rotor_poles_count:
            raise ValueError("rotor_pole_arc must lie in (0, 360/rotor_poles_count) deg")
        if self.airgap_length / self.stator_outer_diameter >= 0.01:
            warnings.warn(
                "airgap_length is not small against stator_outer_diameter; "
                "the lumped gap model degrades for wide gaps",
                stacklevel=2,
            )
        if self.bore_radius_m <= 0:
            raise ValueError("yoke plus pole height exceeds the stator radius")
        if self.rotor_yoke_mean_radius_m <= 0:
            raise ValueError("rotor pole height plus yoke leaves no rotor core")

    # Derived SI geometry.  Bore radius is the stator tooth-tip radius.
    @property
    def bore_radius_m(self) -> float:
        return (
            self.stator_outer_diameter / 2.0
            - self.stator_yoke_thickness
            - self.stator_pole_height
        ) * 1e-3

    @property
    def gap_mean_radius_m(self) -> float:
        return self.bore_radius_m - self.airgap_length * 1e-3 / 2.0

    @property
    def rotor_outer_radius_m(self) -> float:
        return self.bore_radius_m - self.airgap_length * 1e-3

    @property
    def stator_yoke_mean_radius_m(self) -> float:
        return (self.stator_outer_diameter / 2.0 - self.stator_yoke_thickness / 2.0) * 1e-3

    @property
    def rotor_yoke_thickness_m(self) -> float:
        return ROTOR_YOKE_THICKNESS_FACTOR * self.stator_yoke_thickness * 1e-3

    @property
    def rotor_yoke_mean_radius_m(self) -> float:
        return (
            self.rotor_outer_radius_m
            - self.rotor_pole_height * 1e-3
            - self.rotor_yoke_thickness_m / 2.0
        )

    @property
    def stack_length_m(self) -> float:
        return self.stack_length * 1e-3

    @property
    def period_deg(self) -> float:
        """Rotor pole pitch: one electrical period of the gap geometry."""
        return 360.0 / self.rotor_poles_count

    @property
    def unaligned_angle_deg(self) -> float:
        """Angle origin: rotor pole centered between stator teeth."""
        return 0.0

    @property
    def aligned_angle_deg(self) -> float:
        return self.period_deg / 2.0

    # Constants every solve on this geometry reads, computed on first use
    # and kept on the instance (frozen fields never change them).

    @cached_property
    def gap_floor_permeance(self) -> float:
        """Least air-gap permeance, H: FRINGING_PERMEANCE_FRACTION of the
        aligned permeance (see airgap_reluctance)."""
        aligned_area = gap_area_m2(self, self.aligned_angle_deg)
        return FRINGING_PERMEANCE_FRACTION * MU0 * aligned_area / (self.airgap_length * 1e-3)

    @cached_property
    def element_paths(self) -> np.ndarray:
        """Read-only (2, len(ELEMENT_ORDER)) table: path length (m, row 0)
        and cross-section (m^2, row 1) of each element by its
        ELEMENT_RELUCTANCE_KEY; the gap's area follows the angle, so is NaN.

        Yoke segments span one stator tooth pitch at the yoke mean radius;
        pole paths run radially over the tooth height with the tooth-chord
        cross section; the rotor return spans one rotor pole pitch at the
        rotor yoke mean radius; magnets run their length over width x stack.
        """
        stack = self.stack_length_m
        tooth_chord = 2.0 * self.bore_radius_m * math.sin(math.radians(self.stator_tooth_arc) / 2.0)
        by_key = {
            "r_sy": (
                2.0 * math.pi * self.stator_yoke_mean_radius_m / self.stator_teeth_count,
                self.stator_yoke_thickness * 1e-3 * stack,
            ),
            "r_sp": (self.stator_pole_height * 1e-3, tooth_chord * stack),
            "r_ry": (
                2.0 * math.pi * self.rotor_yoke_mean_radius_m / self.rotor_poles_count,
                self.rotor_yoke_thickness_m * stack,
            ),
            "r_g": (self.airgap_length * 1e-3, math.nan),
            "r_pm": (self.pm_length * 1e-3, self.pm_width * 1e-3 * stack),
        }
        table = np.array([by_key[ELEMENT_RELUCTANCE_KEY[eid]] for eid in ELEMENT_ORDER]).T.copy()
        table.flags.writeable = False
        return table


@dataclass(frozen=True)
class MaterialSet:
    """Material constants for the linear circuit.

    Args:
        iron_relative_permeability: linear-mode core permeability.
        pm_remanence: magnet remanent flux density, T.
        pm_relative_permeability: magnet recoil permeability.
    """

    iron_relative_permeability: float = 4000.0
    pm_remanence: float = 1.2
    pm_relative_permeability: float = 1.05

    def __post_init__(self) -> None:
        for name, value, low, bound in (
            ("iron_relative_permeability", self.iron_relative_permeability, 1.0, ">= 1"),
            ("pm_relative_permeability", self.pm_relative_permeability, 1.0, ">= 1"),
            ("pm_remanence", self.pm_remanence, 0.0, "nonnegative"),
        ):
            if not (math.isfinite(value) and value >= low):
                raise ValueError(f"{name} must be finite and {bound}, got {value!r}")

    @property
    def coercivity(self) -> float:
        """Magnet coercive field, A/m: remanence over the recoil slope."""
        return self.pm_remanence / (MU0 * self.pm_relative_permeability)


@dataclass(frozen=True)
class OperatingPoint:
    """One static excitation state.

    Args:
        phase_current: A, nonnegative.
        rotor_angle: deg from the unaligned position, within one period.
    """

    phase_current: float
    rotor_angle: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.phase_current) and self.phase_current >= 0):
            raise ValueError(f"phase_current must be nonnegative, got {self.phase_current!r}")
        if not math.isfinite(self.rotor_angle):
            raise ValueError("rotor_angle must be finite")

    def validate_for(self, geometry: MotorGeometry) -> None:
        """Enforce the one-period angle convention and a finite coil MMF
        for this geometry."""
        if not 0.0 <= self.rotor_angle < geometry.period_deg:
            raise ValueError(
                f"rotor_angle {self.rotor_angle!r} outside [0, {geometry.period_deg}) deg"
            )
        _check_coil_mmf(geometry, self.phase_current)


@dataclass(frozen=True)
class ReluctanceSet:
    """The five lumped reluctances, A/Wb."""

    r_sy: float
    r_sp: float
    r_ry: float
    r_g: float
    r_pm: float

    def __post_init__(self) -> None:
        for name in ("r_sy", "r_sp", "r_ry", "r_g", "r_pm"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class SourceSet:
    """The two MMF magnitudes, At."""

    f_e: float
    f_pm: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.f_e) and self.f_e >= 0):
            raise ValueError(f"f_e must be nonnegative, got {self.f_e!r}")
        if not (math.isfinite(self.f_pm) and self.f_pm >= 0):
            raise ValueError(f"f_pm must be nonnegative, got {self.f_pm!r}")


@dataclass(frozen=True)
class CompositeReluctances:
    """Composite terms used by the closed-form flux expressions.

    r_1 is a plain series sum (A/Wb); r_2, r_3, r_4 are quadratic in the
    input reluctances ((A/Wb)^2).
    """

    r_1: float
    r_2: float
    r_3: float
    r_4: float


@dataclass(frozen=True)
class BranchFluxes:
    """Fluxes of the three reported branches, Wb (arrays when the closed
    forms evaluate a batch of samples)."""

    phi_sy: float
    phi_sp: float
    phi_g: float


@dataclass(frozen=True)
class RegimeReport:
    """Dominance ratios behind the closed-form regime assumptions."""

    ratios: Mapping[str, float]
    threshold: float

    @property
    def passes(self) -> Mapping[str, bool]:
        return {name: value >= self.threshold for name, value in self.ratios.items()}

    @property
    def all_pass(self) -> bool:
        return all(self.passes.values())


@dataclass(frozen=True)
class FluxSolution:
    """Solved fluxes with the coil/PM superposition split.

    mesh_fluxes is the full solution; coil_mesh_fluxes zeroes the magnet
    MMF, pm_mesh_fluxes zeroes the coil MMF, each on the same matrix.
    The two parts sum to the total up to solver rounding.

    flux_densities (T, signed, keyed by element id) and iterations are
    populated by the saturating solver; a linear solve reports zero
    iterations.
    """

    mesh_fluxes: np.ndarray
    coil_mesh_fluxes: np.ndarray
    pm_mesh_fluxes: np.ndarray
    residual: float
    iterations: int = 0
    flux_densities: Mapping[str, float] | None = None

    @property
    def branches(self) -> BranchFluxes:
        return branch_fluxes(MeshFluxes(values=self.mesh_fluxes))

    @property
    def coil_branches(self) -> BranchFluxes:
        return branch_fluxes(MeshFluxes(values=self.coil_mesh_fluxes))

    @property
    def pm_branches(self) -> BranchFluxes:
        return branch_fluxes(MeshFluxes(values=self.pm_mesh_fluxes))


# --- network topology ------------------------------------------------------
#
# Mesh 1 is the excited C-core loop (yoke segment, both teeth, both
# gaps, rotor return).  Meshes 2 and 3 are the local short-circuit
# loops of the two magnets adjacent to the excited teeth; mesh 4 is the
# long loop crossing the gaps; mesh 5 is the far magnet's local loop.
# All meshes are traversed with one consistent orientation, so every
# shared element enters neighboring meshes with opposite signs.

ELEMENT_RELUCTANCE_KEY: Mapping[str, str] = {
    "sy1": "r_sy",
    "sy2": "r_sy",
    "sy3": "r_sy",
    "sy4a": "r_sy",
    "sy4b": "r_sy",
    "sy5": "r_sy",
    "sp1": "r_sp",
    "sp2": "r_sp",
    "g1": "r_g",
    "g2": "r_g",
    "ry": "r_ry",
    "pm1": "r_pm",
    "pm2": "r_pm",
    "pm3": "r_pm",
}
ELEMENT_ORDER: tuple[str, ...] = tuple(ELEMENT_RELUCTANCE_KEY)
IRON_ELEMENT_IDS: tuple[str, ...] = ("sy1", "sy2", "sy3", "sy4a", "sy4b", "sy5", "sp1", "sp2", "ry")
IRON_SLOTS = np.array([ELEMENT_ORDER.index(eid) for eid in IRON_ELEMENT_IDS])
SOURCE_ORDER: tuple[str, ...] = ("coil1", "coil2", "mag1", "mag2", "mag3")
# The coil entries of SOURCE_ORDER, which carry N*i; the rest carry f_pm.
COIL_SOURCES = np.array([source.startswith("coil") for source in SOURCE_ORDER])

MESH_SPECS: tuple[MeshSpec, ...] = (
    MeshSpec(
        elements=(("sy1", +1), ("sp1", +1), ("sp2", +1), ("g1", +1), ("g2", +1), ("ry", +1)),
        sources=(("coil1", -1), ("coil2", -1)),
    ),
    MeshSpec(
        elements=(("sp1", -1), ("sy2", +1), ("pm1", +1)),
        sources=(("coil1", +1), ("mag1", -1)),
    ),
    MeshSpec(
        elements=(("sp2", -1), ("sy3", +1), ("pm2", +1)),
        sources=(("coil2", +1), ("mag2", -1)),
    ),
    MeshSpec(
        elements=(
            ("g1", -1),
            ("g2", -1),
            ("ry", -1),
            ("pm1", -1),
            ("pm2", -1),
            ("pm3", +1),
            ("sy4a", +1),
            ("sy4b", +1),
        ),
        sources=(("mag1", +1), ("mag2", +1), ("mag3", +1)),
    ),
    MeshSpec(
        elements=(("pm3", -1), ("sy5", +1)),
        sources=(("mag3", -1),),
    ),
)

TOPOLOGY = compile_topology(ELEMENT_ORDER, SOURCE_ORDER, MESH_SPECS)

# The entries of SOURCE_ORDER that the total, coil-only and magnet-only
# parts of a SourceSet keep (part_values); the rest are zero.
_PART_SOURCES = np.array([np.ones_like(COIL_SOURCES), COIL_SOURCES, ~COIL_SOURCES])


def element_values(r: ReluctanceSet) -> np.ndarray:
    """Per-element reluctances in ELEMENT_ORDER: (n_elements,), or
    (n, n_elements) when the fields of r are (n,) arrays of samples."""
    return np.array([getattr(r, ELEMENT_RELUCTANCE_KEY[eid]) for eid in ELEMENT_ORDER]).T


def source_values(s: SourceSet) -> np.ndarray:
    """Per-source MMFs in SOURCE_ORDER: (n_sources,), or (n, n_sources)
    when the fields of s are (n,) arrays of samples."""
    return np.array([s.f_e, s.f_e, s.f_pm, s.f_pm, s.f_pm]).T


def part_values(s: SourceSet) -> np.ndarray:
    """Per-source MMFs in SOURCE_ORDER of the total, coil-only (f_pm = 0)
    and magnet-only (f_e = 0) parts of s: (3, n_sources)."""
    return np.where(_PART_SOURCES, source_values(s), 0.0)


# --- geometry -> reluctances -----------------------------------------------


def gap_area_m2(geometry: MotorGeometry, angle: float | np.ndarray) -> float | np.ndarray:
    """Gap overlap area at a rotor angle (deg), trapezoidal model.

    The stator tooth arc and rotor pole arc slide past each other; the
    overlap angle falls linearly from full overlap at alignment to zero
    once the arcs separate, which happens (tooth+pole)/2 away from
    alignment.  Angles wrap with the rotor pole pitch.
    """
    theta = np.asarray(angle, dtype=float)
    period = geometry.period_deg
    distance = np.abs(np.mod(theta, period) - geometry.aligned_angle_deg)
    half_sum = (geometry.stator_tooth_arc + geometry.rotor_pole_arc) / 2.0
    full = min(geometry.stator_tooth_arc, geometry.rotor_pole_arc)
    overlap_deg = np.clip(half_sum - distance, 0.0, full)
    area = np.radians(overlap_deg) * geometry.gap_mean_radius_m * geometry.stack_length_m
    return float(area) if np.ndim(angle) == 0 else area


def airgap_reluctance(geometry: MotorGeometry, angle: float | np.ndarray) -> float | np.ndarray:
    """Gap reluctance at a rotor angle (deg), A/Wb.

    Permeance is mu0*A/g on the overlap area, floored at
    FRINGING_PERMEANCE_FRACTION of the aligned permeance so the
    reluctance stays finite (and torque continuous) at unalignment.
    Minimum at the aligned angle, maximum wherever overlap is gone.
    """
    gap = geometry.airgap_length * 1e-3
    area = np.asarray(gap_area_m2(geometry, angle))
    permeance = MU0 * area / gap
    reluctance = 1.0 / np.maximum(permeance, geometry.gap_floor_permeance)
    return float(reluctance) if np.ndim(angle) == 0 else reluctance


def element_reluctances(
    geometry: MotorGeometry,
    materials: MaterialSet,
    iron_permeability: float,
    gap_reluctance: float | np.ndarray,
) -> np.ndarray:
    """Per-element reluctances l/(mu*A), A/Wb, in ELEMENT_ORDER from the
    geometry's element_paths: iron at the given permeability (H/m), the
    magnets at their recoil permeability, the air gaps at the given
    reluctance: (n_elements,), or (n, n_elements) for (n,) gap
    reluctances.  inf and 0 past the float range, without a warning."""
    lengths, areas = geometry.element_paths
    permeability = np.full(lengths.shape, MU0 * materials.pm_relative_permeability)
    permeability[IRON_SLOTS] = iron_permeability
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        values = lengths / (permeability * areas)
    return np.where(np.isnan(areas), np.asarray(gap_reluctance)[..., None], values)


def reluctances_from_geometry(
    geometry: MotorGeometry, materials: MaterialSet, angle: float
) -> ReluctanceSet:
    """Linear reluctance set at a rotor angle (deg).

    Iron paths use the linear iron permeability; the magnet uses its
    recoil permeability; the gap uses the overlap model.
    """
    mu_iron = MU0 * materials.iron_relative_permeability
    values = element_reluctances(geometry, materials, mu_iron, airgap_reluctance(geometry, angle))
    return ReluctanceSet(**dict(zip(ELEMENT_RELUCTANCE_KEY.values(), values.tolist())))


def reluctance_range(
    geometry: MotorGeometry, materials: MaterialSet, iron_permeabilities: tuple[float, float]
) -> dict[str, tuple[float, float]]:
    """(smallest, largest) of each lumped reluctance over the rotor angle,
    A/Wb, keyed like ReluctanceSet's fields: iron at the greater and the
    lesser of two permeabilities, the gap at alignment and on its
    fringing floor.  0 and inf past the float range, without a warning."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        aligned = airgap_reluctance(geometry, geometry.aligned_angle_deg)
        floor = np.float64(1.0) / geometry.gap_floor_permeance
    smallest = element_reluctances(geometry, materials, max(iron_permeabilities), aligned)
    largest = element_reluctances(geometry, materials, min(iron_permeabilities), floor)
    return dict(zip(ELEMENT_RELUCTANCE_KEY.values(), zip(smallest.tolist(), largest.tolist())))


def _check_coil_mmf(geometry: MotorGeometry, current: float) -> None:
    """Mesh 1 carries both coils' N*i, so 2*N*i must be a finite float."""
    if not math.isfinite(2.0 * (geometry.turns_per_pole * current)):
        raise ValueError(f"phase current {current!r} A overflows the coil MMF")


def sources_for(geometry: MotorGeometry, materials: MaterialSet, current: float) -> SourceSet:
    """MMF set at a phase current: f_e = N*i per coil, f_pm = H_c*l."""
    if current < 0:
        raise ValueError("current must be nonnegative")
    _check_coil_mmf(geometry, current)
    return SourceSet(
        f_e=geometry.turns_per_pole * current,
        f_pm=materials.coercivity * geometry.pm_length * 1e-3,
    )


# --- system assembly and solving -------------------------------------------


def build_network(r: ReluctanceSet, s: SourceSet, label: str = "srm mesh system") -> MeshSystem:
    """Stamp the five-mesh system for one reluctance/source state, or a
    stack of them from fields that are (n,) arrays, through TOPOLOGY,
    the assembly every solve path shares."""
    return MeshSystem(TOPOLOGY.stamp(element_values(r)), source_values(s) @ TOPOLOGY.rhs_pattern, label)


def pole_flux(mesh_fluxes: np.ndarray) -> np.ndarray:
    """Excited-pole flux phi2 - phi1 over the last axis of (..., 5) mesh
    fluxes, Wb."""
    return mesh_fluxes[..., 1] - mesh_fluxes[..., 0]


def branch_flux_values(mesh_fluxes: np.ndarray) -> np.ndarray:
    """Yoke, pole and gap branch fluxes, Wb: (3,) from (5,) mesh fluxes,
    (n, 3) from (n, 5).

    Stator yoke carries -phi1, the excited pole phi2-phi1, the gap
    phi4-phi1 (branch reference directions follow the reporting
    convention, not the mesh traversal).
    """
    phi = np.asarray(mesh_fluxes)
    return np.array([-phi[..., 0], pole_flux(phi), phi[..., 3] - phi[..., 0]]).T


def branch_fluxes(mesh: MeshFluxes) -> BranchFluxes:
    """Reported branch fluxes as the exact linear map of mesh fluxes
    (see branch_flux_values)."""
    if mesh.values.shape[0] != 5:
        raise ValueError("expected 5 mesh fluxes")
    phi_sy, phi_sp, phi_g = branch_flux_values(mesh.values).tolist()
    return BranchFluxes(phi_sy=phi_sy, phi_sp=phi_sp, phi_g=phi_g)


def solve_superposition(
    matrix: np.ndarray, s: SourceSet, label: str = "srm mesh system"
) -> FluxSolution:
    """Refined solves of one assembled mesh matrix with the coil/PM split.

    The matrix is solved in one stacked solve against the total (batch
    index 0), coil-only (1) and magnet-only (2) right-hand sides of s, so
    each part is itself a valid circuit solution.  The residual is the
    total's kirchhoff_residual, read by network.relative_residual from
    the exact residual that solve_linear's refinement measured.
    """
    rhs = part_values(s) @ TOPOLOGY.rhs_pattern
    solved = solve_linear(MeshSystem(matrix, rhs, label))
    total, coil, pm = solved.values
    residual = relative_residual(MeshSystem(matrix, rhs[0], label), MeshFluxes(total, solved.residuals[0]))
    return FluxSolution(
        mesh_fluxes=total,
        coil_mesh_fluxes=coil,
        pm_mesh_fluxes=pm,
        residual=residual,
    )


def solve_flux(
    r: ReluctanceSet, s: SourceSet, label: str = "srm mesh system"
) -> FluxSolution:
    """Linear solve with the coil/PM superposition split."""
    return solve_superposition(build_network(r, s, label=label).matrix, s, label=label)


# --- closed forms under audit ----------------------------------------------


def composite_reluctances(r: ReluctanceSet) -> CompositeReluctances:
    """Composite reluctance terms of the closed-form flux expressions;
    the fields of r may be arrays of samples."""
    r_g, r_ry, r_sp = r.r_g, r.r_ry, r.r_sp
    g2, ry2, sp2 = r_g * r_g, r_ry * r_ry, r_sp * r_sp
    return CompositeReluctances(
        r_1=r_g + r_ry + 2.0 * r_sp,
        r_2=2.0 * g2 + 3.0 * r_g * r_ry + 6.0 * r_g * r_sp + ry2 + 4.0 * r_ry * r_sp + 4.0 * sp2,
        r_3=2.0 * g2 + 3.0 * r_g * r_ry + 4.0 * r_g * r_sp + ry2 + 2.0 * r_ry * r_sp,
        r_4=r_g * r_sp + 2.0 * r_ry * r_sp + 4.0 * sp2,
    )


def closed_form_mesh_fluxes(
    r: ReluctanceSet, s: SourceSet, comp: CompositeReluctances | None = None
) -> np.ndarray:
    """Literature closed forms for the five mesh fluxes, as printed.

    Kept verbatim for fidelity auditing.  The audit (srmec.fidelity)
    shows these do not solve the five-mesh system above, so they carry
    no computational weight anywhere in this package.  comp defaults to
    the printed composites of r; the audit also passes a variant.  The
    fields of r and s may be (n,) arrays of samples, giving (n, 5).
    """
    comp = comp or composite_reluctances(r)
    coil_term = -2.0 * (r.r_g + r.r_sy) / comp.r_2 * s.f_e
    phi1 = -2.0 / comp.r_1 * s.f_e
    phi2 = coil_term - comp.r_3 / (comp.r_2 * r.r_pm) * s.f_pm
    phi4 = coil_term - comp.r_4 / (comp.r_2 * r.r_pm) * s.f_pm
    return np.array([phi1, phi2, phi2, phi4, phi2]).T


def closed_form_branch_fluxes(
    r: ReluctanceSet, s: SourceSet, comp: CompositeReluctances | None = None
) -> BranchFluxes:
    """Literature closed forms for the branch fluxes, as printed.

    comp defaults to the printed composites of r.
    """
    comp = comp or composite_reluctances(r)
    coil_term = 2.0 * (comp.r_2 - comp.r_1 * (r.r_g + r.r_sy)) / (comp.r_1 * comp.r_2) * s.f_e
    return BranchFluxes(
        phi_sy=2.0 / comp.r_1 * s.f_e,
        phi_sp=coil_term - comp.r_3 / (comp.r_2 * r.r_pm) * s.f_pm,
        phi_g=coil_term + comp.r_4 / (comp.r_2 * r.r_pm) * s.f_pm,
    )


def dominance_ratios(r_sy, r_sp, r_ry, r_g, r_pm) -> dict:
    """The four magnet-dominance ratios, keyed by name.

    Takes scalars or equally shaped arrays and returns values of the
    same kind, so a vectorised sampler and regime_check apply one set of
    formulas.
    """
    return {
        "pm_over_two_poles": r_pm / (2.0 * r_sp),
        "pm_over_pole_plus_yoke": r_pm / (r_sp + r_sy),
        "three_pm_over_excited_loop": 3.0 * r_pm / (2.0 * r_sy + 2.0 * r_g + r_ry),
        "pm_over_yoke": r_pm / r_sy,
    }


def regime_check(r: ReluctanceSet, threshold: float = REGIME_THRESHOLD) -> RegimeReport:
    """Dominance ratios of the magnet reluctance over iron/gap terms.

    The closed-form literature assumes all four ratios are large; the
    report flags each against the threshold.
    """
    ratios = dominance_ratios(r.r_sy, r.r_sp, r.r_ry, r.r_g, r.r_pm)
    return RegimeReport(ratios=ratios, threshold=threshold)
