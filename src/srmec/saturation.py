"""Saturating extension of the motor circuit.

Iron reluctances grow with flux density, which is the mechanism that
makes this machine work: at low current the magnet flux short-circuits
through the unsaturated stator yoke, and rising coil flux saturates the
yoke segments and diverts magnet flux across the air gap.  Capturing
that requires each iron element to carry its own reluctance (one yoke
segment saturates while another idles), so this module solves for
per-element permeabilities rather than the shared per-kind values of
the linear path.

Algorithm: damped Newton on the mesh equations R(phi) phi = F.  An iron
element's MMF drop is l*H(B) on the magnetization curve, so its entry
in the Jacobian is the differential reluctance l/(A*dB/dH); air-gap and
magnet elements stay linear.  Each pass solves two systems per point in
one batched call: the undamped chord system (iron at B/H of the current
densities), whose flux change is the convergence test, and the Newton
system.  The Newton step is halved until the max-norm of the mesh MMF
residual falls, since the piecewise-linear table's kinks can make a full
step overshoot.  A point converged after Newton steps keeps the chord
permeabilities its test solved with.

The grid engine solves every (current, angle) operating point of a
sweep simultaneously through stacked assembly and batched solves;
converged points freeze while the rest keep iterating.  Every mesh
matrix it builds is symmetric and strictly diagonally dominant, so
batches of ELIMINATION_MIN_SYSTEMS systems or more are solved by
TOPOLOGY.solve (elimination without pivoting, one numpy operation per
step over the batch) and smaller ones by LAPACK.  The same dominance
bounds the condition number cheaply: a system whose bound passes the
single-point limit gets an exact condition number, and one over the
limit is refused, converged or not, naming its (current, angle).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .motor import (
    ELEMENT_ORDER,
    IRON_ELEMENT_IDS,
    MU0,
    TOPOLOGY,
    FluxSolution,
    MaterialSet,
    MotorGeometry,
    OperatingPoint,
    airgap_reluctance,
    iron_path_specs,
    pm_area_m2,
    reluctances_from_geometry,
    solve_superposition,
    source_values,
    sources_for,
)
from .network import CONDITION_LIMIT, SolveError

DEFAULT_CURVE_RESOURCE = "data/bh_m19.csv"

_ELEMENT_INDEX = {eid: k for k, eid in enumerate(ELEMENT_ORDER)}
_IRON_SLOTS = np.array([_ELEMENT_INDEX[eid] for eid in IRON_ELEMENT_IDS])
_GAP_SLOTS = np.array([_ELEMENT_INDEX["g1"], _ELEMENT_INDEX["g2"]])
_PM_SLOTS = np.array([_ELEMENT_INDEX[eid] for eid in ("pm1", "pm2", "pm3")])


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

    def differential_permeability(self, density: float | np.ndarray) -> float | np.ndarray:
        """dB/dH(B) in H/m: the slope of the table segment containing |B|
        (the segment starting there at a knot, the first at B = 0), and
        mu0 past the table end."""
        b_tab = np.concatenate(([0.0], self.density_points))
        h_tab = np.concatenate(([0.0], self.field_points))
        slopes = np.append(np.diff(b_tab) / np.diff(h_tab), MU0)
        b = np.abs(np.asarray(density, dtype=float))
        mu = slopes[np.searchsorted(b_tab[1:], b, side="right")]
        return float(mu) if np.ndim(density) == 0 else mu


@dataclass(frozen=True)
class NonlinearConfig:
    """Newton controls: the relative flux tolerance of the convergence
    test (the change an undamped chord solve would still make) and the
    cap on Newton passes."""

    tolerance: float = 1e-8
    max_iterations: int = 200

    def __post_init__(self) -> None:
        if not (self.tolerance > 0.0 and math.isfinite(self.tolerance)):
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


def _describe_points(points: tuple[tuple[float, float], ...]) -> str:
    listed = ", ".join(f"({i:g} A, {a:g} deg)" for i, a in points[:5])
    return listed + (", ..." if len(points) > 5 else "")


class NonConvergenceError(ArithmeticError):
    """Newton solve failed to reach tolerance within the iteration cap.

    Carries the last iterate and enough of the change history to tell a
    stall (a step the line search cannot shorten into progress, or a
    cycle between table segments) from a point still converging or
    diverging when the cap hit.
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
            where = f"; failing operating points: {_describe_points(failing_points)}"
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
    matrices holds those systems' (n_currents, n_angles, 5, 5) mesh
    matrices, on which the flux arrays were solved; iterations counts
    Newton passes per point; max_residual is the worst relative
    Kirchhoff residual of the final systems.
    """

    currents: np.ndarray
    angles: np.ndarray
    mesh_fluxes: np.ndarray
    coil_mesh_fluxes: np.ndarray
    pm_mesh_fluxes: np.ndarray
    element_densities: np.ndarray
    iron_permeabilities: np.ndarray
    matrices: np.ndarray
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


# Batches of at least this many systems go to TOPOLOGY.solve, smaller
# ones to np.linalg.solve.  Measured crossover for the one-column Newton
# passes: LAPACK costs about 9 us per call plus 0.5 us per system, the
# elimination about 80 us per call plus 0.17 us per system.
ELIMINATION_MIN_SYSTEMS = 192


def _guarded_solve(matrices: np.ndarray, rhs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Batched solve whose last batch axis runs over points ((n, 2)
    current and angle); raises SolveError naming the points of a
    singular system or a non-finite solution.

    Large batches are solved by elimination without pivoting, which the
    grid's strictly diagonally dominant mesh matrices allow; small ones
    by LAPACK, which is cheaper per call."""
    systems = math.prod(np.broadcast_shapes(matrices.shape[:-2], rhs.shape[:-2]))
    try:
        if systems >= ELIMINATION_MIN_SYSTEMS:
            solved = TOPOLOGY.solve(matrices, rhs)
        else:
            solved = np.linalg.solve(matrices, rhs)
        bad = ~np.all(np.isfinite(solved), axis=(-2, -1))
    except np.linalg.LinAlgError:
        sign, logdet = np.linalg.slogdet(matrices)
        bad = (sign == 0) | ~np.isfinite(logdet)
        if not bad.any():
            bad[...] = True
    bad = bad.reshape(-1, len(points)).any(axis=0)
    if bad.any():
        failing = tuple((float(i), float(a)) for i, a in points[bad])
        raise SolveError(
            f"singular or non-finite saturated mesh system at {len(failing)} "
            f"operating point(s): {_describe_points(failing)}"
        )
    return solved


def _condition_bound(matrices: np.ndarray) -> np.ndarray:
    """Upper bound on the 2-norm condition number of symmetric, strictly
    diagonally dominant (..., n, n) matrices (Varah, Linear Algebra
    Appl. 11, 1975): ||A||_2 <= ||A||_inf, and no eigenvalue lies below
    the smallest row margin a_ii - sum_{j != i} |a_ij|.  Infinite where
    that margin is not positive."""
    rows = np.abs(matrices).sum(axis=-1)
    margin = (2.0 * np.diagonal(matrices, axis1=-2, axis2=-1) - rows).min(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(margin > 0.0, rows.max(axis=-1) / margin, np.inf)


def _refuse_ill_conditioned(matrices: np.ndarray, points: np.ndarray, qualifier: str = "") -> None:
    """Raise SolveError naming the points ((m, 2) current and angle)
    whose (m, n, n) mesh matrix has a condition number above
    CONDITION_LIMIT, the single-point solve's limit.  np.linalg.cond runs
    only where the cheap bound exceeds the limit."""
    screened = ~(_condition_bound(matrices) <= CONDITION_LIMIT)
    if not screened.any():
        return
    condition = np.linalg.cond(matrices[screened])
    ill = ~(condition <= CONDITION_LIMIT)
    if ill.any():
        named = tuple((float(i), float(a)) for i, a in points[screened][ill])
        raise SolveError(
            f"condition number {np.max(condition):.3e} exceeds limit {CONDITION_LIMIT:.3e} "
            f"at {len(named)} {qualifier}operating point(s): {_describe_points(named)}"
        )


# Halvings of a Newton step before the line search keeps the shortest
# try.  On the default design every full step is accepted; a curve with
# an abrupt knee needs a few halvings, and a system whose residual sits
# at its rounding floor exhausts them.
_MAX_HALVINGS = 30


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

    Points take Newton passes through assembly and solves batched over
    the still-moving subset; a point that reaches tolerance freezes and
    drops out of the batch.  initial_permeabilities
    ((n_currents, n_angles, n_iron), chord H/m) sets the iron state the
    first fluxes are solved at, e.g. a previous result's
    iron_permeabilities; a seed at a converged state is recognized on
    the first iteration.

    Raises NonConvergenceError if any point is still moving after
    config.max_iterations, and SolveError naming the operating points
    whose system is singular, solves to non-finite fluxes, or has a
    condition number above network.CONDITION_LIMIT.
    """
    cfg = config or NonlinearConfig()
    currents = np.atleast_1d(np.asarray(currents, dtype=float))
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if np.any(currents < 0.0):
        raise ValueError("currents must be nonnegative")
    n_c, n_a, n_e = currents.size, angles.size, len(ELEMENT_ORDER)
    points = np.stack(np.meshgrid(currents, angles, indexing="ij"), axis=-1)

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

    # (n_currents, 3, n_sources): total, coil-only and magnet-only MMFs.
    parts = np.array(
        [
            [source_values(part) for part in sources_for(geometry, materials, float(i)).parts]
            for i in currents
        ]
    )
    sources = np.broadcast_to(parts[:, None, 0], (n_c, n_a, parts.shape[-1]))

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

    def assemble_at(permeability: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values[:, :, _IRON_SLOTS] = iron_lengths / (permeability * iron_areas)
        return TOPOLOGY.assemble(values, sources)

    def mmf_residual(flux: np.ndarray, vals: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """R(phi) phi - F per point: iron drops l*H(B) off the curve."""
        branch = TOPOLOGY.element_fluxes(flux)
        drops = vals * branch
        density = branch[:, _IRON_SLOTS] / iron_areas
        drops[:, _IRON_SLOTS] = iron_lengths * np.copysign(curve.field_magnitude(density), density)
        return drops @ TOPOLOGY.incidence - rhs

    matrix, rhs = assemble_at(mu)
    # Trailing singleton keeps the batched solve in the matrix signature
    # on every numpy version.
    fluxes = _guarded_solve(matrix, rhs[..., None], points.reshape(-1, 2))[..., 0]
    active = np.ones((n_c, n_a), dtype=bool)
    iterations = np.zeros((n_c, n_a), dtype=int)
    # Convergence is judged before stepping, on the flux change a full
    # undamped chord update would produce (a trial solve with the iron
    # at B/H of the current densities).  A point that passes after
    # Newton steps freezes at exactly those chord values, so a restart
    # from them passes the same check on its first pass; one that passes
    # on its first pass keeps the permeabilities its fluxes were solved
    # at, so a restart reproduces its seed.  The trial and the Newton
    # step (Jacobian: iron at dB/dH) are one stacked solve.  The line
    # search halves the step until the max-norm of the MMF residual
    # falls: across a table knot the slope jumps and a full step can
    # overshoot.
    recent: list[float] = []
    last_change = math.inf
    for _ in range(cfg.max_iterations):
        ci, ai = np.nonzero(active)
        flux_a = fluxes[ci, ai]
        src_a = sources[ci, ai]
        fixed_a = values[ci, ai]
        densities = TOPOLOGY.element_fluxes(flux_a)[:, _IRON_SLOTS] / iron_areas
        chord = np.asarray(curve.chord_permeability(densities))
        differential = np.asarray(curve.differential_permeability(densities))
        vals_a = np.stack([fixed_a, fixed_a])
        vals_a[0][:, _IRON_SLOTS] = iron_lengths / (chord * iron_areas)
        vals_a[1][:, _IRON_SLOTS] = iron_lengths / (differential * iron_areas)
        matrices, rhs_a = TOPOLOGY.assemble(vals_a, src_a)
        residual = mmf_residual(flux_a, fixed_a, rhs_a)
        trial, step = _guarded_solve(
            matrices, np.stack([rhs_a, -residual])[..., None], points[ci, ai]
        )[..., 0]
        scale = np.maximum(np.max(np.abs(trial), axis=-1), 1e-300)
        change = np.max(np.abs(trial - flux_a), axis=-1) / scale
        iterations[ci, ai] += 1
        last_change = float(np.max(change))
        recent.append(last_change)
        moving = change > cfg.tolerance
        stepped = ~moving & (iterations[ci, ai] > 1)
        mu[ci[stepped], ai[stepped]] = chord[stepped]
        active[ci[~moving], ai[~moving]] = False
        if not moving.any():
            break
        ci, ai = ci[moving], ai[moving]
        flux_a, step, fixed_a, rhs_a = flux_a[moving], step[moving], fixed_a[moving], rhs_a[moving]
        base = np.max(np.abs(residual[moving]), axis=-1)
        tried = flux_a + step
        pending = np.arange(ci.size)
        for halving in range(1, _MAX_HALVINGS + 1):
            norm = np.max(
                np.abs(mmf_residual(tried[pending], fixed_a[pending], rhs_a[pending])), axis=-1
            )
            pending = pending[~(norm < base[pending])]
            if pending.size == 0:
                break
            tried[pending] = flux_a[pending] + 0.5**halving * step[pending]
        fluxes[ci, ai] = tried
    if active.any():
        # The loop ran out with exactly these points moving, so the last
        # pass's chord systems are theirs.  Past the single-point solve's
        # condition limit, rounding alone keeps the trial change above
        # tolerance: report the conditioning, not the iteration count.
        _refuse_ill_conditioned(matrices[0][moving], points[active], "unconverged ")
        failing = tuple((float(i), float(a)) for i, a in points[active])
        raise NonConvergenceError(
            iterations=cfg.max_iterations,
            last_change=last_change,
            recent_changes=tuple(recent[-8:]),
            unconverged_points=len(failing),
            last_mesh_fluxes=fluxes,
            failing_points=failing,
        )

    # Final solves on the frozen systems: the total again plus the
    # coil-only and magnet-only parts for the superposition split, one
    # right-hand-side column each.
    matrix, _ = assemble_at(mu)
    stacked = (parts @ TOPOLOGY.rhs_pattern).swapaxes(-1, -2)[:, None]
    solved = _guarded_solve(matrix, stacked, points.reshape(-1, 2))
    total, coil, pm = solved[..., 0], solved[..., 1], solved[..., 2]
    # Converged systems are held to the single-point solve's limit too.
    _refuse_ill_conditioned(matrix.reshape(-1, *matrix.shape[-2:]), points.reshape(-1, 2))

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
        matrices=matrix,
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

    Runs the Newton solve, then re-solves the grid's frozen final matrix
    through the refined linear path so the reported residual is measured
    in exact arithmetic.  initial_permeabilities (chord H/m per element in
    IRON_ELEMENT_IDS) warm-starts the iron state, e.g. from a previous
    solution's iron_permeabilities.
    """
    operating_point.validate_for(geometry)
    warm = None if initial_permeabilities is None else np.reshape(initial_permeabilities, (1, 1, -1))
    grid = solve_nonlinear_grid(
        geometry,
        materials,
        curve,
        np.array([operating_point.phase_current]),
        np.array([operating_point.rotor_angle]),
        config=config,
        initial_permeabilities=warm,
    )
    split = solve_superposition(
        grid.matrices[0, 0],
        sources_for(geometry, materials, operating_point.phase_current),
        label="saturated srm mesh system",
    )
    areas = _element_areas(geometry, np.array([operating_point.rotor_angle]))[0]
    densities = TOPOLOGY.element_fluxes(split.mesh_fluxes) / areas
    return replace(
        split,
        iterations=int(grid.iterations[0, 0]),
        flux_densities={eid: float(densities[_ELEMENT_INDEX[eid]]) for eid in ELEMENT_ORDER},
        iron_permeabilities=tuple(float(v) for v in grid.iron_permeabilities[0, 0]),
    )
