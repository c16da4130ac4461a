"""Saturating extension of the motor circuit.

Iron reluctances grow with flux density, which is the mechanism that
makes this machine work: at low current the magnet flux short-circuits
through the unsaturated stator yoke, and rising coil flux saturates the
yoke segments and diverts magnet flux across the air gap.  Capturing
that requires each iron element to carry its own reluctance (one yoke
segment saturates while another idles), so this module iterates on
per-element permeabilities rather than on the shared per-kind values of
the linear path.

Algorithm: chord (secant) permeability fixed point.  From the current
fluxes, compute each iron element's flux density, look up the chord
permeability B/H(B) on the magnetization curve, under-relax the update,
re-solve the linear system, and repeat until the relative flux change
drops below tolerance.  Air-gap and magnet elements stay linear; iron
is where saturation lives.

The grid engine iterates every (current, angle) operating point of a
sweep simultaneously through stacked assembly and batched solves;
converged points freeze while the rest keep iterating.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .motor import (
    ELEMENT_ORDER,
    IRON_ELEMENT_IDS,
    MU0,
    SOURCE_ORDER,
    TOPOLOGY,
    FluxSolution,
    MaterialSet,
    MotorGeometry,
    OperatingPoint,
    airgap_reluctance,
    iron_path_specs,
    pm_area_m2,
    reluctances_from_geometry,
    sources_for,
)
from .network import MeshSystem, kirchhoff_residual, solve_linear

DEFAULT_CURVE_RESOURCE = "data/bh_m19.csv"

_ELEMENT_INDEX = {eid: k for k, eid in enumerate(ELEMENT_ORDER)}
_IRON_SLOTS = np.array([_ELEMENT_INDEX[eid] for eid in IRON_ELEMENT_IDS])
_GAP_SLOTS = np.array([_ELEMENT_INDEX["g1"], _ELEMENT_INDEX["g2"]])
_PM_SLOTS = np.array([_ELEMENT_INDEX[eid] for eid in ("pm1", "pm2", "pm3")])


def _relaxation_cycle(low: float, high: float, length: int) -> tuple[float, ...]:
    """Factor cycle contracting error modes with slopes across [low, high].

    For a damped fixed point, an error mode whose map slope s gives
    lam = 1 - s shrinks by |1 - f*lam| per step.  Factors are the
    reciprocals of the Chebyshev nodes of [low, high] in lam, the
    choice minimizing the worst-case product over one full cycle, so
    every mode in the interval contracts per pass even though no single
    factor suits them all.  Nodes are visited in the interleaved
    smallest-factor-first permutation that keeps partial products
    bounded, so growth inside an unfinished pass stays small.
    """
    order = [1]
    while len(order) < length:
        n = len(order)
        order = [k for pair in ((p, 2 * n + 1 - p) for p in order) for k in pair]
    mid, half = (low + high) / 2.0, (high - low) / 2.0
    return tuple(
        1.0 / (mid + half * math.cos(math.pi * (2 * k - 1) / (2 * length))) for k in order
    )


# Saturated yoke elements on the knee of the curve drive chord-map
# slopes to about -30 while linear-region elements sit near 0; the
# cycle covers that spread with margin.
_CYCLE_FACTORS = _relaxation_cycle(1.0, 64.0, 16)
# A step shrinking the change by less than this marks the plain factor
# as stalled (oscillating or crawling) and moves the point to the cycle.
_STALL_RATIO = 0.9


@dataclass(frozen=True)
class BhCurve:
    """Piecewise-linear magnetization curve.

    field_points are H in A/m, density_points are B in T; both strictly
    increasing, anchored at the implicit origin.  Beyond the last sample
    the curve continues fully saturated with slope dB/dH = mu0.
    """

    field_points: tuple[float, ...]
    density_points: tuple[float, ...]

    def __post_init__(self) -> None:
        h = np.asarray(self.field_points, dtype=float)
        b = np.asarray(self.density_points, dtype=float)
        if h.size != b.size:
            raise ValueError("field and density point counts differ")
        if h.size < 2:
            raise ValueError("curve needs at least two sample points")
        if not (np.all(np.isfinite(h)) and np.all(np.isfinite(b))):
            raise ValueError("curve points must be finite")
        if h[0] <= 0.0 or b[0] <= 0.0:
            raise ValueError("curve points must be positive")
        if np.any(np.diff(h) <= 0.0) or np.any(np.diff(b) <= 0.0):
            raise ValueError("curve points must be strictly increasing")
        chords = b / h
        # Nonincreasing chord permeability, with 1-ulp slack so exactly
        # linear synthetic curves pass.
        if np.any(np.diff(chords) > 4.0 * np.finfo(float).eps * chords[0]):
            raise ValueError("chord permeability B/H must be nonincreasing")

    @classmethod
    def from_csv(cls, path: str | Path) -> "BhCurve":
        """Load a curve from a two-column CSV with an H,B header row."""
        with open(path, newline="") as handle:
            return cls._from_rows(csv.reader(handle), str(path))

    @classmethod
    def default(cls) -> "BhCurve":
        """Packaged default: generic M-19-class silicon-steel table."""
        text = resources.files("srmec").joinpath(DEFAULT_CURVE_RESOURCE).read_text()
        return cls._from_rows(csv.reader(text.splitlines()), DEFAULT_CURVE_RESOURCE)

    @classmethod
    def linear(cls, relative_permeability: float, span_t: float = 1e6) -> "BhCurve":
        """Synthetic constant-permeability curve covering |B| <= span_t.

        The huge span keeps every realistic solve on the table, so chord
        lookups return exactly mu0*mu_r and the saturating solver
        reduces to the linear one.
        """
        if relative_permeability <= 0.0:
            raise ValueError("relative permeability must be positive")
        mu = MU0 * relative_permeability
        h_top = span_t / mu
        return cls(field_points=(0.5 * h_top, h_top), density_points=(0.5 * span_t, span_t))

    @classmethod
    def _from_rows(cls, rows, origin: str) -> "BhCurve":
        try:
            header = next(iter(rows))
        except StopIteration:
            raise ValueError(f"{origin}: empty curve file") from None
        if len(header) != 2 or not (
            header[0].strip().lower().startswith("h") and header[1].strip().lower().startswith("b")
        ):
            raise ValueError(f"{origin}: expected a two-column H,B header row")
        h_values: list[float] = []
        b_values: list[float] = []
        for line_no, row in enumerate(rows, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{origin}: line {line_no}: expected two columns")
            try:
                h_values.append(float(row[0]))
                b_values.append(float(row[1]))
            except ValueError:
                raise ValueError(f"{origin}: line {line_no}: non-numeric entry") from None
        return cls(field_points=tuple(h_values), density_points=tuple(b_values))

    @property
    def initial_permeability(self) -> float:
        """Chord permeability of the first segment (H/m)."""
        return self.density_points[0] / self.field_points[0]

    def field_magnitude(self, density: float | np.ndarray) -> float | np.ndarray:
        """H (A/m) at a flux-density magnitude; mu0 slope past the table."""
        b = np.abs(np.asarray(density, dtype=float))
        h_tab = np.concatenate(([0.0], self.field_points))
        b_tab = np.concatenate(([0.0], self.density_points))
        h = np.interp(b, b_tab, h_tab)
        h = np.where(b > b_tab[-1], h_tab[-1] + (b - b_tab[-1]) / MU0, h)
        return float(h) if np.ndim(density) == 0 else h

    def chord_permeability(self, density: float | np.ndarray) -> float | np.ndarray:
        """B/H(B) in H/m; the initial-slope permeability at B = 0."""
        b = np.abs(np.asarray(density, dtype=float))
        h = np.asarray(self.field_magnitude(b))
        mu = np.where(b > 0.0, b / np.where(h > 0.0, h, 1.0), self.initial_permeability)
        return float(mu) if np.ndim(density) == 0 else mu


@dataclass(frozen=True)
class NonlinearConfig:
    """Fixed-point controls: relative flux tolerance, iteration cap,
    under-relaxation factor on the permeability update.  The factor is
    both the plain step size and the ceiling of the adaptive cycle a
    stalling point falls back to."""

    tolerance: float = 1e-8
    max_iterations: int = 200
    relaxation: float = 0.5

    def __post_init__(self) -> None:
        if not (self.tolerance > 0.0 and math.isfinite(self.tolerance)):
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (0.0 < self.relaxation <= 1.0):
            raise ValueError("relaxation must be in (0, 1]")


class NonConvergenceError(ArithmeticError):
    """Fixed point failed to reach tolerance within the iteration cap.

    Carries the last iterate and enough of the change history to tell a
    stall from a period-two oscillation.
    """

    def __init__(
        self,
        iterations: int,
        last_change: float,
        recent_changes: tuple[float, ...],
        unconverged_points: int,
        last_mesh_fluxes: np.ndarray,
        failing_points: tuple[tuple[float, float], ...] = (),
    ) -> None:
        self.iterations = iterations
        self.last_change = last_change
        self.recent_changes = recent_changes
        self.unconverged_points = unconverged_points
        self.last_mesh_fluxes = last_mesh_fluxes
        self.failing_points = failing_points
        self.oscillating = len(recent_changes) >= 4 and (
            min(recent_changes) > 0.0
            and max(recent_changes) < 10.0 * min(recent_changes)
        )
        behavior = "oscillating or stalled" if self.oscillating else "diverging or slow"
        where = ""
        if failing_points:
            listed = ", ".join(f"({i:g} A, {a:g} deg)" for i, a in failing_points[:5])
            more = ", ..." if len(failing_points) > 5 else ""
            where = f"; failing operating points: {listed}{more}"
        super().__init__(
            f"no convergence after {iterations} iterations at {unconverged_points} "
            f"operating point(s); last relative flux change {last_change:.3e} "
            f"({behavior}; recent changes {', '.join(f'{c:.3e}' for c in recent_changes)})"
            f"{where}"
        )


@dataclass(frozen=True)
class NonlinearGridResult:
    """Converged sweep over a (current x angle) grid.

    Flux arrays are (n_currents, n_angles, 5); element_densities is
    signed T per element in ELEMENT_ORDER; iron_permeabilities holds the
    frozen chord values (H/m, per element in IRON_ELEMENT_IDS) that
    define the converged systems and can warm-start another solve;
    iterations counts fixed-point steps per point; max_residual is the
    worst relative Kirchhoff residual of the final systems.
    """

    currents: np.ndarray
    angles: np.ndarray
    mesh_fluxes: np.ndarray
    coil_mesh_fluxes: np.ndarray
    pm_mesh_fluxes: np.ndarray
    element_densities: np.ndarray
    iron_permeabilities: np.ndarray
    iterations: np.ndarray
    max_residual: float


def _element_areas(geometry: MotorGeometry, angles: np.ndarray) -> np.ndarray:
    """(n_angles, n_elements) cross-section areas; gap area tracks angle."""
    paths = iron_path_specs(geometry)
    areas = np.empty((angles.size, len(ELEMENT_ORDER)))
    for eid, (_, area) in paths.items():
        areas[:, _ELEMENT_INDEX[eid]] = area
    # The fringing floor keeps gap reluctance finite at unalignment; the
    # same effective area keeps densities consistent with it.
    gap_r = np.asarray(airgap_reluctance(geometry, angles), dtype=float).reshape(angles.size)
    areas[:, _GAP_SLOTS[0]] = geometry.airgap_length * 1e-3 / (MU0 * gap_r)
    areas[:, _GAP_SLOTS[1]] = areas[:, _GAP_SLOTS[0]]
    areas[:, _PM_SLOTS] = pm_area_m2(geometry)
    return areas


def solve_nonlinear_grid(
    geometry: MotorGeometry,
    materials: MaterialSet,
    curve: BhCurve,
    currents: np.ndarray,
    angles: np.ndarray,
    config: NonlinearConfig | None = None,
    initial_permeabilities: np.ndarray | None = None,
) -> NonlinearGridResult:
    """Saturating solve at every point of a (current x angle) grid.

    Points iterate through assembly and solves batched over the
    still-moving subset; a point that reaches tolerance freezes and
    drops out of the batch.  initial_permeabilities
    ((n_currents, n_angles, n_iron), chord H/m) warm-starts the iron
    state, e.g. from a previous result's iron_permeabilities; a seed at
    a converged state is recognized on the first iteration.

    Raises NonConvergenceError if any point is still moving after
    config.max_iterations.
    """
    cfg = config or NonlinearConfig()
    currents = np.atleast_1d(np.asarray(currents, dtype=float))
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if np.any(currents < 0.0):
        raise ValueError("currents must be nonnegative")
    n_c, n_a, n_e = currents.size, angles.size, len(ELEMENT_ORDER)

    linear = reluctances_from_geometry(geometry, materials, 0.0)
    iron_paths = iron_path_specs(geometry)
    iron_lengths = np.array([iron_paths[eid][0] for eid in IRON_ELEMENT_IDS])
    iron_areas = np.array([iron_paths[eid][1] for eid in IRON_ELEMENT_IDS])
    areas = _element_areas(geometry, angles)

    # Fixed (non-iron) element values: gap per angle, magnets constant.
    values = np.empty((n_c, n_a, n_e))
    gap_r = np.asarray(airgap_reluctance(geometry, angles), dtype=float).reshape(n_a)
    values[:, :, _GAP_SLOTS[0]] = gap_r
    values[:, :, _GAP_SLOTS[1]] = gap_r
    values[:, :, _PM_SLOTS] = linear.r_pm

    f_pm = sources_for(geometry, materials, 0.0).f_pm
    f_e = np.array([sources_for(geometry, materials, float(i)).f_e for i in currents])
    sources = np.empty((n_c, n_a, len(SOURCE_ORDER)))
    sources[:, :, 0] = f_e[:, None]
    sources[:, :, 1] = f_e[:, None]
    sources[:, :, 2:] = f_pm

    n_iron = len(IRON_ELEMENT_IDS)
    if initial_permeabilities is None:
        mu = np.full((n_c, n_a, n_iron), curve.initial_permeability)
    else:
        mu = np.array(initial_permeabilities, dtype=float)
        if mu.shape != (n_c, n_a, n_iron):
            raise ValueError(
                "initial_permeabilities shape must be (n_currents, n_angles, n_iron)"
            )
        if not np.all(np.isfinite(mu) & (mu > 0.0)):
            raise ValueError("initial_permeabilities must be positive and finite")

    def solve_at(permeability: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        values[:, :, _IRON_SLOTS] = iron_lengths / (permeability * iron_areas)
        matrix, rhs = TOPOLOGY.assemble(values, sources)
        # Trailing singleton keeps the batched solve in the matrix
        # signature on every numpy version.
        return np.linalg.solve(matrix, rhs[..., None])[..., 0], matrix, rhs

    fluxes, _, _ = solve_at(mu)
    active = np.ones((n_c, n_a), dtype=bool)
    iterations = np.zeros((n_c, n_a), dtype=int)
    # Convergence is judged before stepping, on the flux change a full
    # undamped chord update would produce (a trial solve at the chord
    # target).  That reading is independent of the damping schedule, so
    # a damped point cannot freeze while far from self-consistency, and
    # a restart from a frozen state passes the same check it froze on,
    # immediately.
    #
    # Damping: every point starts at the configured factor, which
    # converges anything mildly nonlinear in a few steps.  Once yoke
    # elements sit on the knee of the curve the chord map turns
    # expansive and its error modes spread too far for any single
    # factor (the stiff mode diverges or the soft mode crawls), so a
    # point whose change stops shrinking switches to the factor cycle,
    # which contracts the whole spread once per pass.
    cycled = np.zeros((n_c, n_a), dtype=bool)
    cycle_pos = np.zeros((n_c, n_a), dtype=int)
    prev_change = np.full((n_c, n_a), math.inf)
    cycle = np.asarray(_CYCLE_FACTORS)
    recent: list[float] = []
    last_change = math.inf
    for _ in range(cfg.max_iterations):
        ci, ai = np.nonzero(active)
        mu_a = mu[ci, ai]
        flux_a = fluxes[ci, ai]
        vals_a = values[ci, ai]
        src_a = sources[ci, ai]
        densities = TOPOLOGY.element_fluxes(flux_a)[:, _IRON_SLOTS] / iron_areas
        target = np.asarray(curve.chord_permeability(densities))
        vals_a[:, _IRON_SLOTS] = iron_lengths / (target * iron_areas)
        matrix_t, rhs_t = TOPOLOGY.assemble(vals_a, src_a)
        trial = np.linalg.solve(matrix_t, rhs_t[..., None])[..., 0]
        scale = np.maximum(np.max(np.abs(trial), axis=-1), 1e-300)
        change = np.max(np.abs(trial - flux_a), axis=-1) / scale
        iterations[ci, ai] += 1
        last_change = float(np.max(change))
        recent.append(last_change)
        moving = change > cfg.tolerance
        active[ci[~moving], ai[~moving]] = False
        if not moving.any():
            break
        ci, ai = ci[moving], ai[moving]
        mu_a, vals_a, src_a = mu_a[moving], vals_a[moving], src_a[moving]
        target, change = target[moving], change[moving]
        stalled = change > _STALL_RATIO * prev_change[ci, ai]
        cycled[ci, ai] |= stalled
        prev_change[ci, ai] = change
        in_cycle = cycled[ci, ai]
        pos = cycle_pos[ci, ai]
        factor = np.where(
            in_cycle, np.minimum(cycle[pos % cycle.size], cfg.relaxation), cfg.relaxation
        )
        cycle_pos[ci, ai] = pos + in_cycle
        mu_a = mu_a + factor[:, None] * (target - mu_a)
        vals_a[:, _IRON_SLOTS] = iron_lengths / (mu_a * iron_areas)
        matrix_s, rhs_s = TOPOLOGY.assemble(vals_a, src_a)
        mu[ci, ai] = mu_a
        fluxes[ci, ai] = np.linalg.solve(matrix_s, rhs_s[..., None])[..., 0]
    if active.any():
        failing = tuple(
            (float(currents[ci]), float(angles[ai])) for ci, ai in np.argwhere(active)
        )
        raise NonConvergenceError(
            iterations=cfg.max_iterations,
            last_change=last_change,
            recent_changes=tuple(recent[-8:]),
            unconverged_points=int(active.sum()),
            last_mesh_fluxes=fluxes,
            failing_points=failing,
        )

    # Final solves on the frozen systems: the total again plus the
    # coil-only and magnet-only parts for the superposition split.
    _, matrix, _ = solve_at(mu)
    rhs_coil = np.zeros_like(sources)
    rhs_coil[:, :, :2] = sources[:, :, :2]
    rhs_pm = np.zeros_like(sources)
    rhs_pm[:, :, 2:] = sources[:, :, 2:]
    stacked = np.stack(
        [
            sources @ TOPOLOGY.rhs_pattern,
            rhs_coil @ TOPOLOGY.rhs_pattern,
            rhs_pm @ TOPOLOGY.rhs_pattern,
        ],
        axis=-1,
    )
    solved = np.linalg.solve(matrix, stacked)
    total, coil, pm = solved[..., 0], solved[..., 1], solved[..., 2]

    residual_num = np.max(np.abs(np.einsum("...ij,...j->...i", matrix, total) - stacked[..., 0]), axis=-1)
    residual_den = np.maximum(np.max(np.abs(stacked[..., 0]), axis=-1), 1e-300)
    element_densities = TOPOLOGY.element_fluxes(total) / areas[None, :, :]
    return NonlinearGridResult(
        currents=currents,
        angles=angles,
        mesh_fluxes=total,
        coil_mesh_fluxes=coil,
        pm_mesh_fluxes=pm,
        element_densities=element_densities,
        iron_permeabilities=mu,
        iterations=iterations,
        max_residual=float(np.max(residual_num / residual_den)),
    )


def solve_nonlinear(
    geometry: MotorGeometry,
    materials: MaterialSet,
    curve: BhCurve,
    operating_point: OperatingPoint,
    config: NonlinearConfig | None = None,
    initial_permeabilities: np.ndarray | None = None,
) -> FluxSolution:
    """Saturating solve at one operating point.

    Runs the fixed point, then re-solves the frozen final system through
    the refined linear path so the reported residual is measured in
    exact arithmetic.  initial_permeabilities (chord H/m per element in
    IRON_ELEMENT_IDS) warm-starts the iron state, e.g. from a previous
    solution's iron_permeabilities.
    """
    operating_point.validate_for(geometry)
    warm = None
    if initial_permeabilities is not None:
        warm = np.asarray(initial_permeabilities, dtype=float).reshape(
            1, 1, len(IRON_ELEMENT_IDS)
        )
    grid = solve_nonlinear_grid(
        geometry,
        materials,
        curve,
        np.array([operating_point.phase_current]),
        np.array([operating_point.rotor_angle]),
        config=config,
        initial_permeabilities=warm,
    )
    values = np.empty(len(ELEMENT_ORDER))
    linear = reluctances_from_geometry(geometry, materials, operating_point.rotor_angle)
    values[_GAP_SLOTS] = airgap_reluctance(geometry, operating_point.rotor_angle)
    values[_PM_SLOTS] = linear.r_pm
    iron_paths = iron_path_specs(geometry)
    for k, eid in enumerate(IRON_ELEMENT_IDS):
        length, area = iron_paths[eid]
        values[_ELEMENT_INDEX[eid]] = length / (grid.iron_permeabilities[0, 0, k] * area)

    sources = sources_for(geometry, materials, operating_point.phase_current)
    source_vec = np.array([sources.f_e, sources.f_e, sources.f_pm, sources.f_pm, sources.f_pm])
    matrix, rhs = TOPOLOGY.assemble(values, source_vec)
    system = MeshSystem(matrix=matrix, rhs=rhs, label="saturated srm mesh system")
    total = solve_linear(system)
    coil_vec = np.array([sources.f_e, sources.f_e, 0.0, 0.0, 0.0])
    pm_vec = np.array([0.0, 0.0, sources.f_pm, sources.f_pm, sources.f_pm])
    coil = solve_linear(MeshSystem(matrix, coil_vec @ TOPOLOGY.rhs_pattern, "coil part"))
    pm = solve_linear(MeshSystem(matrix, pm_vec @ TOPOLOGY.rhs_pattern, "pm part"))

    areas = _element_areas(geometry, np.array([operating_point.rotor_angle]))[0]
    densities = TOPOLOGY.element_fluxes(total.values) / areas
    return FluxSolution(
        mesh_fluxes=total.values,
        coil_mesh_fluxes=coil.values,
        pm_mesh_fluxes=pm.values,
        residual=kirchhoff_residual(system, total),
        iterations=int(grid.iterations[0, 0]),
        flux_densities={eid: float(densities[_ELEMENT_INDEX[eid]]) for eid in ELEMENT_ORDER},
        iron_permeabilities=tuple(float(v) for v in grid.iron_permeabilities[0, 0]),
    )
