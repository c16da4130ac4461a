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
magnet elements stay linear.  Each pass solves the undamped chord
system (iron at B/H of the current densities), whose flux change is the
convergence test, and then the Newton system of each point still
moving.  The Newton step is halved until the max-norm of the mesh MMF
residual falls, since the piecewise-linear table's kinks can make a full
step overshoot.  A point converged after Newton steps keeps the chord
system its test solved.

The grid engine solves a sweep's (current, angle) operating points
simultaneously through stacked assembly and batched solves.  The air
gap is the only element whose value depends on angle, so a point's
mesh system is fixed by its current and its gap reluctance: points
that share both share one solve, and the result maps every requested
point to its system.  On the default
`srmec sweep` this solves 5,480 systems for 42,240 points (mirrored
angles and the fringing floor leave 20 gap values of 80, and the
current rows share currents).  Converged systems freeze while the rest
keep iterating.  Every mesh matrix the engine builds is symmetric and
strictly diagonally dominant, so batches of ELIMINATION_MIN_SYSTEMS
systems or more are solved by TOPOLOGY.solve (elimination without
pivoting, one numpy operation per step over the batch) and smaller
ones by LAPACK.  The same dominance bounds the condition number
cheaply: a system whose bound passes the single-point limit gets an
exact condition number, and one over the limit is refused, converged
or not, naming each (current, angle) that maps to it.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from importlib import resources

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
    pm_reluctance,
    solve_superposition,
    source_values,
    sources_for,
)
from .network import CONDITION_LIMIT, SolveError

_ELEMENT_INDEX = {eid: k for k, eid in enumerate(ELEMENT_ORDER)}
_IRON_SLOTS = np.array([_ELEMENT_INDEX[eid] for eid in IRON_ELEMENT_IDS])
_GAP_SLOTS = np.array([_ELEMENT_INDEX["g1"], _ELEMENT_INDEX["g2"]])
_PM_SLOTS = np.array([_ELEMENT_INDEX[eid] for eid in ("pm1", "pm2", "pm3")])

# Newton controls: the relative flux change an undamped chord solve
# would still make for a point to count as converged, and the cap on
# Newton passes.  The default sweep needs at most 9 passes.
TOLERANCE = 1e-8
MAX_ITERATIONS = 200


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
        # Lookup tables, built once per curve: the table anchored at the
        # origin, and each segment's slope dB/dH with mu0 past the end.
        h_tab = np.concatenate(([0.0], h))
        b_tab = np.concatenate(([0.0], b))
        slopes = np.append(np.diff(b_tab) / np.diff(h_tab), MU0)
        for name, table in (("_h_tab", h_tab), ("_b_tab", b_tab), ("_slopes", slopes)):
            table.flags.writeable = False
            object.__setattr__(self, name, table)

    @classmethod
    @functools.cache
    def default(cls) -> "BhCurve":
        """Packaged default: generic M-19-class silicon-steel table,
        parsed on the first call and shared by every later one."""
        text = resources.files("srmec").joinpath("data/bh_m19.csv").read_text()
        # An H,B header row, then one sample per line.
        field, density = zip(*(map(float, line.split(",")) for line in text.splitlines()[1:]))
        return cls(field_points=field, density_points=density)

    @classmethod
    def linear(cls, relative_permeability: float) -> "BhCurve":
        """Synthetic constant-permeability curve covering |B| <= 1e6 T.

        The huge span keeps every realistic solve on the table, so chord
        lookups return exactly mu0*mu_r and the saturating solver
        reduces to the linear one.
        """
        if relative_permeability <= 0.0:
            raise ValueError("relative permeability must be positive")
        h_top = 1e6 / (MU0 * relative_permeability)
        return cls(field_points=(0.5 * h_top, h_top), density_points=(0.5e6, 1e6))

    @property
    def initial_permeability(self) -> float:
        """Chord permeability of the first segment (H/m)."""
        return self.density_points[0] / self.field_points[0]

    def field_magnitude(self, density: float | np.ndarray) -> float | np.ndarray:
        """H (A/m) at a flux-density magnitude; mu0 slope past the table."""
        b = np.abs(np.asarray(density, dtype=float))
        h_tab, b_tab = self._h_tab, self._b_tab
        h = np.interp(b, b_tab, h_tab)
        # Past the float range H is inf, whose zero chord the grid refuses.
        with np.errstate(over="ignore"):
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
        b = np.abs(np.asarray(density, dtype=float))
        mu = self._slopes[np.searchsorted(self._b_tab[1:], b, side="right")]
        return float(mu) if np.ndim(density) == 0 else mu


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
    """Converged sweep over a (current x angle) grid, one solve per
    distinct mesh system.

    system_index ((n_currents, n_angles), ints) maps every requested
    point to its system, and the system_* arrays hold one row per
    distinct system: mesh_fluxes (n_systems, 5), the total fluxes
    solved on matrices, the converged (n_systems, 5, 5) mesh matrices;
    iterations, the Newton passes per system.  The properties of the
    same names without the prefix gather a field over the requested
    grid when read, e.g. mesh_fluxes (n_currents, n_angles, 5).
    gap_reluctances (n_angles,) is the air-gap reluctance at each
    requested angle.  max_residual is the worst relative Kirchhoff
    residual of the final systems.  solve_superposition on a matrix
    gives its coil/magnet split.
    """

    currents: np.ndarray
    angles: np.ndarray
    gap_reluctances: np.ndarray
    system_index: np.ndarray
    system_mesh_fluxes: np.ndarray
    system_matrices: np.ndarray
    system_iterations: np.ndarray
    max_residual: float

    @property
    def distinct_systems(self) -> int:
        """Mesh systems the solve ran, at most one per requested point."""
        return self.system_iterations.size

    @property
    def mesh_fluxes(self) -> np.ndarray:
        return self.system_mesh_fluxes[self.system_index]

    @property
    def matrices(self) -> np.ndarray:
        return self.system_matrices[self.system_index]

    @property
    def iterations(self) -> np.ndarray:
        return self.system_iterations[self.system_index]


def _element_areas(geometry: MotorGeometry, gap_reluctance: float) -> np.ndarray:
    """Cross-section areas per element in ELEMENT_ORDER; the gap area
    follows the gap reluctance."""
    areas = np.empty(len(ELEMENT_ORDER))
    for eid, (_, area) in iron_path_specs(geometry).items():
        areas[_ELEMENT_INDEX[eid]] = area
    # The fringing floor keeps gap reluctance finite at unalignment; the
    # same effective area keeps densities consistent with it.
    areas[_GAP_SLOTS] = geometry.airgap_length * 1e-3 / (MU0 * gap_reluctance)
    areas[_PM_SLOTS] = pm_area_m2(geometry)
    return areas


# Batches of at least this many systems go to TOPOLOGY.solve, smaller
# ones to np.linalg.solve.  Measured crossover for the one-column Newton
# passes: LAPACK costs about 9 us per call plus 0.5 us per system, the
# elimination about 80 us per call plus 0.17 us per system.
ELIMINATION_MIN_SYSTEMS = 192

# Names the requested (current, angle) points, in request order, whose
# system is among the given system indices.
_PointNamer = Callable[[np.ndarray], tuple[tuple[float, float], ...]]


def _guarded_solve(
    matrices: np.ndarray, rhs: np.ndarray, systems: np.ndarray, named: _PointNamer
) -> np.ndarray:
    """Batched solve whose last batch axis runs over the given systems;
    raises SolveError naming the points of a singular system, a
    non-finite solution or a non-finite diagonal.  Each element adds its
    positive value to the diagonal of every mesh it borders, so the last
    catches an overflowed element whose solve stays finite.  Large
    batches are solved by elimination without pivoting, which the grid's
    strictly diagonally dominant mesh matrices allow; small ones by
    LAPACK, which is cheaper per call."""
    count = math.prod(np.broadcast_shapes(matrices.shape[:-2], rhs.shape[:-2]))
    try:
        if count >= ELIMINATION_MIN_SYSTEMS:
            solved = TOPOLOGY.solve(matrices, rhs)
        else:
            solved = np.linalg.solve(matrices, rhs)
        bad = ~np.all(np.isfinite(solved), axis=(-2, -1))
    except np.linalg.LinAlgError:
        sign, logdet = np.linalg.slogdet(matrices)
        bad = (sign == 0) | ~np.isfinite(logdet)
        if not bad.any():
            bad[...] = True
    bad = bad | ~np.all(np.isfinite(np.diagonal(matrices, axis1=-2, axis2=-1)), axis=-1)
    bad = bad.reshape(-1, len(systems)).any(axis=0)
    if bad.any():
        failing = named(systems[bad])
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


def _refuse_ill_conditioned(
    matrices: np.ndarray, systems: np.ndarray, named: _PointNamer, qualifier: str = ""
) -> None:
    """Raise SolveError naming the points of the systems whose (m, n, n)
    mesh matrix has a condition number above CONDITION_LIMIT, the
    single-point solve's limit.  np.linalg.cond runs only where the
    cheap bound exceeds the limit."""
    screened = ~(_condition_bound(matrices) <= CONDITION_LIMIT)
    if not screened.any():
        return
    condition = np.linalg.cond(matrices[screened])
    ill = ~(condition <= CONDITION_LIMIT)
    if ill.any():
        named_points = named(systems[screened][ill])
        raise SolveError(
            f"condition number {np.max(condition):.3e} exceeds limit {CONDITION_LIMIT:.3e} "
            f"at {len(named_points)} {qualifier}operating point(s): "
            f"{_describe_points(named_points)}"
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
) -> NonlinearGridResult:
    """Saturating solve at every point of a (current x angle) grid.

    A point's mesh system is fixed by its current and its gap
    reluctance (the one element that depends on angle), so the solve
    runs once per distinct (current, gap reluctance) and the result
    maps each requested point to its system.  Repeated currents, angles
    mirrored about alignment and angles on the fringing floor cost
    nothing.  Every system starts with its iron at the curve's initial
    permeability and takes Newton passes through assembly and solves
    batched over the still-moving subset; a system that reaches
    tolerance freezes and drops out of the batch.

    Raises ValueError if currents or angles is empty or a current is
    negative.  Raises NonConvergenceError if any system is still moving
    after MAX_ITERATIONS passes, and SolveError if a system is
    singular, solves to non-finite fluxes, or has a condition number
    above network.CONDITION_LIMIT; both name every requested operating
    point of the failing systems, in request order.
    """
    currents = np.atleast_1d(np.asarray(currents, dtype=float))
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if currents.size == 0:
        raise ValueError("currents must hold at least one value")
    if angles.size == 0:
        raise ValueError("angles must hold at least one value")
    if np.any(currents < 0.0):
        raise ValueError("currents must be nonnegative")
    n_c, n_a = currents.size, angles.size

    # Every current meets every gap reluctance, so the distinct
    # (current, gap) pairs are the product of the distinct values, in
    # the order np.unique(axis=0) would give them; that call on the
    # (points, 2) key takes about 17 ms for the default sweep's 21,120
    # points.  Keying on the reluctance itself, not on angle arithmetic,
    # finds every symmetry of any design's gap model.  index maps each
    # requested point to its system; current_of and gap_of map each
    # system to its entries of unique_currents and unique_gaps.
    gap_r = np.asarray(airgap_reluctance(geometry, angles), dtype=float).reshape(n_a)
    unique_currents, current_index = np.unique(currents, return_inverse=True)
    unique_gaps, gap_index = np.unique(gap_r, return_inverse=True)
    index = (current_index.reshape(n_c, 1) * unique_gaps.size + gap_index.reshape(n_a)).ravel()
    current_of = np.repeat(np.arange(unique_currents.size), unique_gaps.size)
    gap_of = np.tile(np.arange(unique_gaps.size), unique_currents.size)
    n_s = current_of.size

    def named(systems: np.ndarray) -> tuple[tuple[float, float], ...]:
        requested = np.stack(np.meshgrid(currents, angles, indexing="ij"), axis=-1).reshape(-1, 2)
        return tuple((float(i), float(a)) for i, a in requested[np.isin(index, systems)])

    iron_paths = iron_path_specs(geometry)
    iron_lengths = np.array([iron_paths[eid][0] for eid in IRON_ELEMENT_IDS])
    iron_areas = np.array([iron_paths[eid][1] for eid in IRON_ELEMENT_IDS])

    # Fixed (non-iron) element values: gap per system, magnets constant.
    values = np.empty((n_s, len(ELEMENT_ORDER)))
    values[:, _GAP_SLOTS[0]] = unique_gaps[gap_of]
    values[:, _GAP_SLOTS[1]] = unique_gaps[gap_of]
    values[:, _PM_SLOTS] = pm_reluctance(geometry, materials)
    sources = np.array(
        [source_values(sources_for(geometry, materials, float(i))) for i in unique_currents]
    )[current_of]

    def iron_densities(flux: np.ndarray) -> np.ndarray:
        return TOPOLOGY.element_fluxes(flux)[:, _IRON_SLOTS] / iron_areas

    def mmf_residual(flux: np.ndarray, vals: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """R(phi) phi - F per system: iron drops l*H(B) off the curve."""
        branch = TOPOLOGY.element_fluxes(flux)
        drops = vals * branch
        density = branch[:, _IRON_SLOTS] / iron_areas
        drops[:, _IRON_SLOTS] = iron_lengths * np.copysign(curve.field_magnitude(density), density)
        return drops @ TOPOLOGY.incidence - rhs

    values[:, _IRON_SLOTS] = iron_lengths / (curve.initial_permeability * iron_areas)
    matrix, rhs = TOPOLOGY.assemble(values, sources)
    all_systems = np.arange(n_s)
    # Trailing singleton keeps the batched solve in the matrix signature
    # on every numpy version.
    fluxes = _guarded_solve(matrix, rhs[..., None], all_systems, named)[..., 0]
    active = np.ones(n_s, dtype=bool)
    iterations = np.zeros(n_s, dtype=int)
    # Convergence is judged before stepping, on the flux change a full
    # undamped chord update would produce (a trial solve with the iron
    # at B/H of the current densities).  A system that passes after
    # Newton steps freezes at that chord matrix.  One that passes on
    # its first pass keeps its initial matrix instead: its trial matrix
    # agrees with it to within the tolerance, and keeping the initial
    # one keeps every sweep and solve output byte-identical.  Only the
    # systems still moving then take a Newton step (Jacobian: iron at
    # dB/dH); a converged system's step would be thrown away.  The line
    # search halves the step until the max-norm of the MMF residual
    # falls: across a table knot the slope jumps and a full step can
    # overshoot.
    recent: list[float] = []
    last_change = math.inf
    for _ in range(MAX_ITERATIONS):
        idx = np.flatnonzero(active)
        flux_a = fluxes[idx]
        chord = np.asarray(curve.chord_permeability(iron_densities(flux_a)))
        vals_a = values[idx]
        # A zero or subnormal chord is an infinite reluctance, refused by
        # point below.
        with np.errstate(divide="ignore", over="ignore"):
            vals_a[:, _IRON_SLOTS] = iron_lengths / (chord * iron_areas)
        chords, rhs_a = TOPOLOGY.assemble(vals_a, sources[idx])
        trial = _guarded_solve(chords, rhs_a[..., None], idx, named)[..., 0]
        scale = np.maximum(np.max(np.abs(trial), axis=-1), 1e-300)
        change = np.max(np.abs(trial - flux_a), axis=-1) / scale
        iterations[idx] += 1
        last_change = float(np.max(change))
        recent.append(last_change)
        moving = change > TOLERANCE
        stepped = ~moving & (iterations[idx] > 1)
        matrix[idx[stepped]] = chords[stepped]
        active[idx[~moving]] = False
        if not moving.any():
            break
        # Only the moving systems' arrays are kept or rebuilt from here,
        # which bounds the pass's peak memory by the trial solve's.
        idx, chords, flux_a, rhs_a = idx[moving], chords[moving], flux_a[moving], rhs_a[moving]
        fixed_a = values[idx]
        differential = np.asarray(curve.differential_permeability(iron_densities(flux_a)))
        vals_a = fixed_a.copy()
        vals_a[:, _IRON_SLOTS] = iron_lengths / (differential * iron_areas)
        residual = mmf_residual(flux_a, fixed_a, rhs_a)
        step = _guarded_solve(TOPOLOGY.stamp(vals_a), -residual[..., None], idx, named)[..., 0]
        base = np.max(np.abs(residual), axis=-1)
        tried = flux_a + step
        pending = np.arange(idx.size)
        for halving in range(1, _MAX_HALVINGS + 1):
            norm = np.max(
                np.abs(mmf_residual(tried[pending], fixed_a[pending], rhs_a[pending])), axis=-1
            )
            pending = pending[~(norm < base[pending])]
            if pending.size == 0:
                break
            tried[pending] = flux_a[pending] + 0.5**halving * step[pending]
        fluxes[idx] = tried
    if active.any():
        # The loop ran out with exactly these systems moving, so the last
        # pass's chord systems are theirs.  Past the single-point solve's
        # condition limit, rounding alone keeps the trial change above
        # tolerance: report the conditioning, not the iteration count.
        unconverged = np.flatnonzero(active)
        _refuse_ill_conditioned(chords, unconverged, named, "unconverged ")
        failing = named(unconverged)
        raise NonConvergenceError(
            iterations=MAX_ITERATIONS,
            last_change=last_change,
            recent_changes=tuple(recent[-8:]),
            unconverged_points=len(failing),
            last_mesh_fluxes=fluxes[index].reshape(n_c, n_a, -1),
            failing_points=failing,
        )

    # The final solve on the frozen systems.
    total = _guarded_solve(matrix, rhs[..., None], all_systems, named)[..., 0]
    # Converged systems are held to the single-point solve's limit too.
    _refuse_ill_conditioned(matrix, all_systems, named)

    residual_num = np.max(np.abs(np.einsum("...ij,...j->...i", matrix, total) - rhs), axis=-1)
    residual_den = np.maximum(np.max(np.abs(rhs), axis=-1), 1e-300)
    return NonlinearGridResult(
        currents=currents,
        angles=angles,
        gap_reluctances=gap_r,
        system_index=index.reshape(n_c, n_a),
        system_mesh_fluxes=total,
        system_matrices=matrix,
        system_iterations=iterations,
        max_residual=float(np.max(residual_num / residual_den)),
    )


def solve_nonlinear(
    geometry: MotorGeometry,
    materials: MaterialSet,
    curve: BhCurve,
    operating_point: OperatingPoint,
) -> FluxSolution:
    """Saturating solve at one operating point.

    Runs the Newton solve, then solve_superposition on the grid's
    frozen final matrix: the refined linear path gives the coil/magnet
    split and measures the reported residual in exact arithmetic.
    flux_densities are the total solution's element fluxes over their
    cross-sections.
    """
    operating_point.validate_for(geometry)
    current, angle = operating_point.phase_current, operating_point.rotor_angle
    grid = solve_nonlinear_grid(geometry, materials, curve, [current], [angle])
    split = solve_superposition(
        grid.matrices[0, 0],
        sources_for(geometry, materials, current),
        label="saturated srm mesh system",
    )
    areas = _element_areas(geometry, grid.gap_reluctances[0])
    densities = TOPOLOGY.element_fluxes(split.mesh_fluxes) / areas
    return replace(
        split,
        iterations=int(grid.iterations[0, 0]),
        flux_densities={eid: float(densities[_ELEMENT_INDEX[eid]]) for eid in ELEMENT_ORDER},
    )
