"""Flux linkage, coenergy, and static torque.

The lumped circuit has no field distribution, so torque comes from the
energy route: flux linkage lambda(i, theta) sampled on a (current x
angle) grid, coenergy W' = integral of lambda over current at fixed
angle, and torque as the angle derivative of W' at constant current.

Coenergy is anchored at W'(0, theta) = 0 for every angle, which absorbs
the magnet-only stored energy into the baseline.  The angle dependence
of that magnet-only state therefore contributes torque only through its
interaction with current; pure magnet cogging at i = 0 is invisible to
this account and the zero-current curve is identically zero by
convention.  See audit_notes in the fidelity module.
"""

from __future__ import annotations

import logging
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .motor import (
    ELEMENT_ORDER,
    MU0,
    MaterialSet,
    MotorGeometry,
    element_reluctances,
    pole_flux,
    sources_for,
)
from .saturation import BhCurve, solve_nonlinear_grid

logger = logging.getLogger(__name__)

DEFAULT_CURRENT_POINTS = 33
DEFAULT_ANGLE_STEP_DEG = 0.25
MIN_ANGLE_STEPS = 4
# Finest angle grid a sweep accepts, 125 times the default's 80 steps.
# The sweep's arrays grow with its grid: the default sweep at this bound
# (0.002 deg, 33 x 10,000 points per current) peaked at 668 MB RSS in
# 6.4 s on a 2-core x86-64 machine, 292 MB at 4,000 steps; a step of
# 1e-7 deg would ask for 2e8 angles.  No sweep takes more (current x
# angle) points per current than that grid, MAX_GRID_POINTS.
MAX_ANGLE_STEPS = 10_000
MAX_GRID_POINTS = DEFAULT_CURRENT_POINTS * MAX_ANGLE_STEPS

# Slack for the nondecreasing-linkage check: solver-noise scale, far
# below any physical inductance change across one grid step.
_MONOTONE_SLACK = 1e-9
# Pole coils in series per phase of the catalog machine; each has the
# geometry's turns_per_pole, the same turns that set the coil MMF.
SERIES_COILS = 4


@dataclass(frozen=True)
class FluxLinkageGrid:
    """lambda(i, theta) sampled on a rectangular grid.

    currents are A, ascending from exactly zero; angles are deg,
    ascending and uniform, covering one period half-open (the last
    point is one step short of angles[0] + period_deg); linkages are
    Wb-turns, shape (n_currents, n_angles), nondecreasing in current at
    fixed angle for this motor class.
    """

    currents: np.ndarray
    angles: np.ndarray
    linkages: np.ndarray
    period_deg: float

    def __post_init__(self) -> None:
        currents = np.asarray(self.currents, dtype=float)
        angles = np.asarray(self.angles, dtype=float)
        linkages = np.asarray(self.linkages, dtype=float)
        if currents.ndim != 1 or currents.size < 2:
            raise ValueError("currents must be a 1-D grid with at least two points")
        if not np.all(np.isfinite(currents)) or currents[0] != 0.0:
            raise ValueError("currents must be finite and start at exactly 0 A")
        if np.any(np.diff(currents) <= 0.0):
            raise ValueError("currents must be strictly ascending")
        if angles.ndim != 1 or angles.size < MIN_ANGLE_STEPS:
            raise ValueError("angles must be a 1-D grid with at least four points")
        steps = np.diff(angles)
        if not np.all(np.isfinite(angles)) or np.any(steps <= 0.0):
            raise ValueError("angles must be finite and strictly ascending")
        step = steps[0]
        if np.any(np.abs(steps - step) > 1e-9 * step):
            raise ValueError("angles must be uniformly spaced")
        if not self.period_deg > 0.0:
            raise ValueError("period_deg must be positive")
        span = angles[-1] - angles[0] + step
        if abs(span - self.period_deg) > 1e-9 * self.period_deg:
            raise ValueError(
                f"angle grid spans {span:g} deg, expected one period ({self.period_deg:g} deg)"
            )
        if linkages.shape != (currents.size, angles.size):
            raise ValueError("linkages shape must be (n_currents, n_angles)")
        if not np.all(np.isfinite(linkages)):
            raise ValueError("linkages must be finite")
        slack = _MONOTONE_SLACK * max(float(np.max(np.abs(linkages))), 1e-300)
        if np.any(np.diff(linkages, axis=0) < -slack):
            raise ValueError("linkage must be nondecreasing in current at fixed angle")

    @property
    def angle_step_deg(self) -> float:
        return float(self.angles[1] - self.angles[0])

    def angle_index(self, angle_deg: float) -> int:
        """Index of a grid angle; rejects off-grid angles."""
        offset = (angle_deg - float(self.angles[0])) / self.angle_step_deg
        index = round(offset)
        if not 0 <= index < self.angles.size or abs(offset - index) > 1e-6:
            raise ValueError(f"angle {angle_deg!r} deg is not on the grid")
        return index


def angles_for_period(geometry: MotorGeometry, step_deg: float = DEFAULT_ANGLE_STEP_DEG) -> np.ndarray:
    """Uniform half-open angle grid [0, period) at the given step.

    Raises ValueError unless the step is finite and divides the rotor
    period evenly into at least MIN_ANGLE_STEPS steps, the fewest a
    FluxLinkageGrid accepts, and at most MAX_ANGLE_STEPS.
    """
    period = geometry.period_deg
    cells = period / step_deg if math.isfinite(step_deg) and step_deg > 0.0 else 0.0
    if cells > MAX_ANGLE_STEPS + 0.5:
        raise ValueError(
            f"angle_step_deg {step_deg!r} divides the rotor period ({period:g} deg) into "
            f"{cells:.6g} steps, more than the {MAX_ANGLE_STEPS} allowed"
        )
    if not (abs(cells - round(cells)) < 1e-9 and round(cells) >= MIN_ANGLE_STEPS):
        raise ValueError(
            f"angle_step_deg must be finite and divide the rotor period ({period:g} deg) "
            f"evenly into at least {MIN_ANGLE_STEPS} steps, got {step_deg!r}"
        )
    return np.arange(round(cells)) * step_deg


def sweep_angles(geometry: MotorGeometry, current_points: int, angle_step_deg: float) -> np.ndarray:
    """angles_for_period, once current_points is checked: at least 2,
    and at most MAX_GRID_POINTS (current x angle) points per current."""
    if current_points < 2:
        raise ValueError("current_points must be >= 2")
    angles = angles_for_period(geometry, angle_step_deg)
    if current_points * angles.size > MAX_GRID_POINTS:
        raise ValueError(
            f"current_points {current_points} x {angles.size} angle steps is more than "
            f"the {MAX_GRID_POINTS} grid points allowed per current"
        )
    return angles


def linkage_bound(
    geometry: MotorGeometry, materials: MaterialSet, curve: BhCurve, current: float
) -> float:
    """Upper bound on |flux linkage| (Wb-turns) at a phase current, over
    every saturation state a solve on this curve can reach; inf where
    the bound passes the float range.

    Each MMF source sits in series with one element (a coil with its
    pole tooth, a magnet with its own reluctance), so the stored energy
    sum_k r_k b_k**2 of the branch fluxes b equals sum_j F_j b_j over
    the sources.  The source branch of largest flux then has
    r b**2 <= |b| sum_j |F_j|: no source branch, the pole's included,
    carries more than sum_j |F_j| over the least reluctance a pole tooth
    (iron at its largest chord permeability) or a magnet can take.
    """
    turns = float(geometry.turns_per_pole)
    values = element_reluctances(geometry, materials, max(curve.initial_permeability, MU0), math.nan)
    least = float(min(values[ELEMENT_ORDER.index("sp1")], values[ELEMENT_ORDER.index("pm1")]))
    # Two coils and three magnets; N * i may pass the float range here.
    mmf = 2.0 * turns * current + 3.0 * sources_for(geometry, materials, 0.0).f_pm
    return SERIES_COILS * turns * (mmf / least) if least > 0.0 else math.inf


def check_linkage(
    geometry: MotorGeometry, materials: MaterialSet, curve: BhCurve, current: float
) -> None:
    """Raise ValueError unless linkage_bound at this current leaves a
    factor 2 of float headroom for the rounding of the solve itself."""
    if not linkage_bound(geometry, materials, curve, current) <= sys.float_info.max / 2.0:
        raise ValueError(
            f"turns_per_pole = {float(geometry.turns_per_pole):.6g} at {current:g} A "
            "could overflow the flux linkage"
        )


def _trapezoid(currents: np.ndarray, linkages: np.ndarray) -> np.ndarray:
    """W'(currents[-1]) per column of (n_currents, n) linkages: the
    trapezoid over the current axis."""
    widths = np.diff(currents)[:, None]
    return np.sum(0.5 * (linkages[1:] + linkages[:-1]) * widths, axis=0)


def coenergy(grid: FluxLinkageGrid, current: float, angle_deg: float) -> float:
    """W'(current, angle) in J: trapezoid of lambda over [0, current].

    Exact for linkage linear in current (each cell integrates its
    chord); a current between grid points closes the last cell with the
    linearly interpolated linkage.  W'(0, theta) = 0 by convention.
    """
    if not (math.isfinite(current) and 0.0 <= current <= grid.currents[-1]):
        raise ValueError(
            f"current {current!r} A outside the grid range [0, {grid.currents[-1]:g}]"
        )
    column = grid.linkages[:, grid.angle_index(angle_deg)]
    below = grid.currents < current
    currents = np.append(grid.currents[below], current)
    linkages = np.append(column[below], np.interp(current, grid.currents, column))
    return float(_trapezoid(currents, linkages[:, None])[0])


@dataclass(frozen=True)
class TorqueSample:
    """One finite-difference torque value.

    one_sided marks boundary angles where only a forward or backward
    difference fits inside the grid window.
    """

    torque_nm: float
    one_sided: bool


def static_torque(grid: FluxLinkageGrid, current: float, angle_deg: float) -> TorqueSample:
    """Virtual-work torque at constant current, N*m.

    Central difference of coenergy over one grid step (in radians);
    the first and last grid angles fall back to one-sided differences
    and are flagged.  The grid is treated as a window here; periodic
    wraparound is applied only by torque_angle_sweep, which knows its
    grid covers exactly one period.
    """
    index = grid.angle_index(angle_deg)
    step_rad = math.radians(grid.angle_step_deg)
    angles = grid.angles
    if 0 < index < angles.size - 1:
        w_plus = coenergy(grid, current, float(angles[index + 1]))
        w_minus = coenergy(grid, current, float(angles[index - 1]))
        return TorqueSample(torque_nm=(w_plus - w_minus) / (2.0 * step_rad), one_sided=False)
    inner = 1 if index == 0 else angles.size - 2
    w_edge = coenergy(grid, current, float(angles[index]))
    w_inner = coenergy(grid, current, float(angles[inner]))
    sign = 1.0 if index == 0 else -1.0
    return TorqueSample(torque_nm=sign * (w_inner - w_edge) / step_rad, one_sided=True)


@dataclass(frozen=True)
class TorqueCurve:
    """Static torque over one period at a fixed current.

    samples are N*m on the angle grid, computed with periodic
    wraparound (every sample is a central difference).  mean_torque is
    the arithmetic mean of the samples over the period; for a periodic
    coenergy surface the central differences telescope, so it is zero
    up to rounding at any current.  stroke_mean_torque averages the
    motoring stroke (unaligned to aligned, the first half period),
    which is the figure a commutated drive extracts and the quantity
    that grows with current.  peak_torque = max |sample|.
    """

    current: float
    angles: np.ndarray
    samples: np.ndarray
    mean_torque: float
    stroke_mean_torque: float
    peak_torque: float

    def __post_init__(self) -> None:
        if np.asarray(self.samples).shape != np.asarray(self.angles).shape:
            raise ValueError("samples and angles must have matching shapes")


def torque_angle_sweep(
    geometry: MotorGeometry,
    materials: MaterialSet,
    curve: BhCurve,
    current: float,
    current_points: int = DEFAULT_CURRENT_POINTS,
    angle_step_deg: float = DEFAULT_ANGLE_STEP_DEG,
) -> TorqueCurve:
    """Torque-angle curve at one phase current over one period; see
    torque_angle_sweeps."""
    return torque_angle_sweeps(
        geometry, materials, curve, (current,), current_points, angle_step_deg
    )[0]


def torque_angle_sweeps(
    geometry: MotorGeometry,
    materials: MaterialSet,
    curve: BhCurve,
    currents: Sequence[float],
    current_points: int = DEFAULT_CURRENT_POINTS,
    angle_step_deg: float = DEFAULT_ANGLE_STEP_DEG,
) -> tuple[TorqueCurve, ...]:
    """Torque-angle curves at several phase currents over one period.

    Solves every nonzero current's flux-linkage grid (SERIES_COILS
    coils of turns_per_pole) in one batched saturating solve, then
    integrates coenergy per angle and differences it periodically,
    current by current.  A zero current returns the identically zero
    curve that follows from the W'(0, theta) = 0 convention (magnet
    cogging is outside this energy account; see the module docstring).
    A non-convergent operating point aborts every curve with the
    failing (current, angle) points identified in the error.  Currents
    whose flux linkage could overflow (check_linkage) are refused before
    any solve.
    """
    for current in currents:
        if not (math.isfinite(current) and current >= 0.0):
            raise ValueError("current must be nonnegative")
    angles = sweep_angles(geometry, current_points, angle_step_deg)
    excited = [current for current in currents if current != 0.0]
    grids = {}
    if excited:
        check_linkage(geometry, materials, curve, max(excited))
        rows = np.array([np.linspace(0.0, current, current_points) for current in excited])
        result = solve_nonlinear_grid(geometry, materials, curve, rows.ravel(), angles)
        logger.info(
            "pm_remanence %g T: %d grid points on %d distinct systems, at most %d iterations",
            materials.pm_remanence,
            result.system_index.size,
            result.distinct_systems,
            result.system_iterations.max(),
        )
        flux = pole_flux(result.system_mesh_fluxes)[result.system_index]
        linkages = geometry.turns_per_pole * SERIES_COILS * flux
        blocks = linkages.reshape(len(excited), current_points, angles.size)
        for current, row, block in zip(excited, rows, blocks):
            grids[current] = FluxLinkageGrid(row, angles, block, geometry.period_deg)
    stroke = angles <= 0.5 * geometry.period_deg + 1e-9
    curves = []
    for current in currents:
        # Coenergy grows as current squared, so a huge current overflows
        # it even on a finite linkage grid; such a curve is refused below.
        with np.errstate(over="ignore", invalid="ignore"):
            if current == 0.0:
                samples = np.zeros_like(angles)
            else:
                grid = grids[current]
                coenergy_row = _trapezoid(grid.currents, grid.linkages)
                step_rad = math.radians(grid.angle_step_deg)
                samples = (np.roll(coenergy_row, -1) - np.roll(coenergy_row, 1)) / (2.0 * step_rad)
            swept = TorqueCurve(
                current=float(current),
                angles=angles,
                samples=samples,
                mean_torque=float(np.mean(samples)),
                stroke_mean_torque=float(np.mean(samples[stroke])),
                peak_torque=float(np.max(np.abs(samples))),
            )
        if not np.isfinite([swept.mean_torque, swept.stroke_mean_torque, swept.peak_torque]).all():
            raise ValueError(f"current {current!r} A: torque overflows the float range")
        curves.append(swept)
    return tuple(curves)


@dataclass(frozen=True)
class TorqueComponents:
    """Torque split between coil excitation and magnets.

    total_curve is the sweep at the given materials; coil_curve reruns
    the identical sweep with the magnet remanence, and so its
    coercivity, zeroed.  The means are stroke means, N*m, and
    pm_contribution = total - coil_only is exact by construction and
    captures everything the magnets change, including their effect on
    the saturation state.
    """

    current: float
    total_curve: TorqueCurve
    coil_curve: TorqueCurve

    @property
    def total(self) -> float:
        return self.total_curve.stroke_mean_torque

    @property
    def coil_only(self) -> float:
        return self.coil_curve.stroke_mean_torque

    @property
    def pm_contribution(self) -> float:
        return self.total - self.coil_only

    @property
    def pm_share(self) -> float:
        """Magnet fraction of the total mean torque."""
        if self.total == 0.0:
            raise ZeroDivisionError("total mean torque is zero; share undefined")
        return self.pm_contribution / self.total


def torque_components(
    geometry: MotorGeometry,
    materials: MaterialSet,
    curve: BhCurve,
    current: float,
    current_points: int = DEFAULT_CURRENT_POINTS,
    angle_step_deg: float = DEFAULT_ANGLE_STEP_DEG,
) -> TorqueComponents:
    """Torque-angle sweeps with and without the magnets at one current."""
    return torque_component_sweeps(
        geometry, materials, curve, (current,), current_points, angle_step_deg
    )[0]


def torque_component_sweeps(
    geometry: MotorGeometry,
    materials: MaterialSet,
    curve: BhCurve,
    currents: Sequence[float],
    current_points: int = DEFAULT_CURRENT_POINTS,
    angle_step_deg: float = DEFAULT_ANGLE_STEP_DEG,
) -> tuple[TorqueComponents, ...]:
    """Torque-angle sweeps with and without the magnets at each current:
    one grid solve per magnet state over all of the currents."""
    options = (current_points, angle_step_deg)
    total = torque_angle_sweeps(geometry, materials, curve, currents, *options)
    no_pm = replace(materials, pm_remanence=0.0)
    coil = torque_angle_sweeps(geometry, no_pm, curve, currents, *options)
    return tuple(
        TorqueComponents(current=current, total_curve=t, coil_curve=c)
        for current, t, c in zip(currents, total, coil)
    )
