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
strictly diagonally dominant, so every solve runs TOPOLOGY.solve
(elimination without pivoting), which gives a system the same bits
alone or in any batch.  A system that network's conditioning screen
refuses is refused here too, converged or not, naming each (current,
angle) that maps to it.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .motor import (
    COIL_SOURCES,
    ELEMENT_ORDER,
    IRON_SLOTS,
    MU0,
    TOPOLOGY,
    FluxSolution,
    MaterialSet,
    MotorGeometry,
    OperatingPoint,
    airgap_reluctance,
    element_reluctances,
    solve_superposition,
    sources_for,
)
from .network import SolveError, _refusals

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

        The huge span keeps every realistic solve on the table.  The
        field points are powers of two, so initial_permeability is
        exactly mu0*mu_r and chord lookups agree with it to rounding: the
        saturating solver converges on its first pass and keeps its
        initial matrix, so it reduces to the linear one bit for bit.
        """
        if relative_permeability <= 0.0:
            raise ValueError("relative permeability must be positive")
        mu = MU0 * relative_permeability
        h_top = math.ldexp(1.0, math.frexp(1e6 / mu)[1])
        return cls(field_points=(0.5 * h_top, h_top), density_points=(0.5 * h_top * mu, h_top * mu))

    @property
    def initial_permeability(self) -> float:
        """Chord permeability of the first segment (H/m)."""
        return self.density_points[0] / self.field_points[0]

    def _field(self, b: np.ndarray) -> tuple[np.ndarray, bool]:
        """H (A/m) at flux-density magnitudes b, and whether any of them
        lies past the table, where the mu0 slope takes over."""
        h_tab, b_tab = self._h_tab, self._b_tab
        h = np.interp(b, b_tab, h_tab)
        past = b > b_tab[-1]
        if not past.any():
            return h, False
        # Past the float range H is inf, whose zero chord the grid refuses.
        with np.errstate(over="ignore"):
            return np.where(past, h_tab[-1] + (b - b_tab[-1]) / MU0, h), True

    def field_magnitude(self, density: float | np.ndarray) -> float | np.ndarray:
        """H (A/m) at a flux-density magnitude; mu0 slope past the table."""
        h, _ = self._field(np.abs(np.asarray(density, dtype=float)))
        return float(h) if np.ndim(density) == 0 else h

    def chord_permeability(self, density: float | np.ndarray) -> float | np.ndarray:
        """B/H(B) in H/m; the initial-slope permeability at B = 0, and mu0,
        the limit of the mu0 extension, at an infinite B."""
        b = np.abs(np.asarray(density, dtype=float))
        h, past = self._field(b)
        if past:
            infinite = np.isinf(b)
            if infinite.any():
                # mu0 / 1 in place of inf / inf.
                b, h = np.where(infinite, MU0, b), np.where(infinite, 1.0, h)
        if (h > 0.0).all():
            # Then every density is positive too: H is 0 at B = 0 and NaN
            # at NaN.  A subnormal B on a steep curve can round H to 0.
            mu = b / h
        else:
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
    distinct system: matrices, the converged (n_systems, 5, 5) mesh
    matrices; mesh_fluxes (n_systems, 5), the total fluxes, each
    TOPOLOGY.solve of its system's matrix; iterations, the
    Newton passes per system.  The properties matrices and iterations gather
    their field over the requested grid when read, e.g. iterations
    (n_currents, n_angles).
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
    def matrices(self) -> np.ndarray:
        return self.system_matrices[self.system_index]

    @property
    def iterations(self) -> np.ndarray:
        return self.system_iterations[self.system_index]


# Names the requested (current, angle) points, in request order, whose
# system is among the given system indices.
_PointNamer = Callable[[np.ndarray], tuple[tuple[float, float], ...]]


def _guarded_solve(
    matrices: np.ndarray, rhs: np.ndarray, systems: np.ndarray, named: _PointNamer
) -> np.ndarray:
    """TOPOLOGY.solve over the given systems; raises SolveError naming
    the points of every system that solves to a non-finite value.  That
    covers a zero or non-finite pivot, which the elimination turns into
    NaN: each element adds its positive value to the diagonal of every
    mesh it borders, so an overflowed element leaves an infinite pivot
    even where the rest of the solution would stay finite."""
    solved = TOPOLOGY.solve(matrices, rhs)
    if np.isfinite(solved).all():
        return solved
    failing = named(systems[~np.isfinite(solved).all(axis=(-2, -1))])
    raise SolveError(
        f"singular or non-finite saturated mesh system at {len(failing)} "
        f"operating point(s): {_describe_points(failing)}"
    )


def _refuse_ill_conditioned(
    matrices: np.ndarray, systems: np.ndarray, named: _PointNamer, qualifier: str = ""
) -> None:
    """Raise SolveError naming the points of the systems whose (m, n, n)
    mesh matrix network's conditioning screen (solve_linear's) refuses,
    with the reason of the first of them."""
    refused = _refusals(matrices)
    if refused:
        points = named(systems[list(refused)])
        raise SolveError(
            f"{next(iter(refused.values()))} at {len(points)} {qualifier}operating point(s): "
            f"{_describe_points(points)}"
        )


def _unique(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(values, return_inverse=True) of a 1-D array, without the
    sort for the single value of a one-point grid (every `srmec solve`)."""
    if values.size == 1:
        return values.copy(), np.zeros(1, dtype=np.intp)
    return np.unique(values, return_inverse=True)


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
    tolerance freezes and drops out of the batch.  A system's fluxes,
    kept from the pass that froze it, are TOPOLOGY.solve of its frozen
    matrix: the elimination rounds a system the same in any batch.

    Raises ValueError if currents or angles is empty or a current is
    negative.  Raises NonConvergenceError if any system is still moving
    after MAX_ITERATIONS passes, and SolveError if a system is
    singular, solves to non-finite fluxes, or fails network's
    conditioning screen; both name every requested operating
    point of the failing systems, in request order.
    """
    currents = np.atleast_1d(np.asarray(currents, dtype=float))
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if currents.size == 0:
        raise ValueError("currents must hold at least one value")
    if angles.size == 0:
        raise ValueError("angles must hold at least one value")
    if (currents < 0.0).any():
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
    unique_currents, current_index = _unique(currents)
    unique_gaps, gap_index = _unique(gap_r)
    index = (current_index.reshape(n_c, 1) * unique_gaps.size + gap_index.reshape(n_a)).ravel()
    n_s = unique_currents.size * unique_gaps.size
    current_of, gap_of = np.divmod(np.arange(n_s), unique_gaps.size)

    def named(systems: np.ndarray) -> tuple[tuple[float, float], ...]:
        requested = np.stack(np.meshgrid(currents, angles, indexing="ij"), axis=-1).reshape(-1, 2)
        return tuple((float(i), float(a)) for i, a in requested[np.isin(index, systems)])

    iron_lengths, iron_areas = geometry.element_paths[:, IRON_SLOTS]
    values = element_reluctances(geometry, materials, curve.initial_permeability, unique_gaps[gap_of])
    # sources_for refuses an MMF past the float range; the largest
    # current has the largest, and every current shares f_pm.
    f_pm = sources_for(geometry, materials, float(unique_currents[-1])).f_pm
    coil_mmf = geometry.turns_per_pole * unique_currents
    sources = np.where(COIL_SOURCES, coil_mmf[current_of, None], f_pm)

    def iron_densities(flux: np.ndarray) -> np.ndarray:
        return TOPOLOGY.element_fluxes(flux)[:, IRON_SLOTS] / iron_areas

    def mmf_residual(flux: np.ndarray, vals: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """R(phi) phi - F per system: iron drops l*H(B) off the curve."""
        branch = TOPOLOGY.element_fluxes(flux)
        drops = vals * branch
        density = branch[:, IRON_SLOTS] / iron_areas
        drops[:, IRON_SLOTS] = iron_lengths * np.copysign(curve.field_magnitude(density), density)
        return drops @ TOPOLOGY.incidence - rhs

    matrix, rhs = TOPOLOGY.assemble(values, sources)
    all_systems = np.arange(n_s)
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
    # A zero or subnormal chord is an infinite reluctance, and a value
    # past the float range an infinite one: the guarded solves refuse
    # both by point.
    with np.errstate(divide="ignore", over="ignore"):
        for _ in range(MAX_ITERATIONS):
            idx = np.flatnonzero(active)
            flux_a = fluxes[idx]
            chord = np.asarray(curve.chord_permeability(iron_densities(flux_a)))
            vals_a = values[idx]
            vals_a[:, IRON_SLOTS] = iron_lengths / (chord * iron_areas)
            chords, rhs_a = TOPOLOGY.assemble(vals_a, sources[idx])
            trial = _guarded_solve(chords, rhs_a[..., None], idx, named)[..., 0]
            scale = np.maximum(np.abs(trial).max(axis=-1), 1e-300)
            change = np.abs(trial - flux_a).max(axis=-1) / scale
            iterations[idx] += 1
            last_change = float(change.max())
            recent.append(last_change)
            moving = change > TOLERANCE
            stepped = ~moving & (iterations[idx] > 1)
            matrix[idx[stepped]] = chords[stepped]
            fluxes[idx[stepped]] = trial[stepped]
            active[idx[~moving]] = False
            if not moving.any():
                break
            # Only the moving systems' arrays are kept or rebuilt from here,
            # which bounds the pass's peak memory by the trial solve's.
            idx, chords, flux_a, rhs_a = idx[moving], chords[moving], flux_a[moving], rhs_a[moving]
            fixed_a = values[idx]
            differential = np.asarray(curve.differential_permeability(iron_densities(flux_a)))
            vals_a = fixed_a.copy()
            vals_a[:, IRON_SLOTS] = iron_lengths / (differential * iron_areas)
            residual = mmf_residual(flux_a, fixed_a, rhs_a)
            jacobian = TOPOLOGY.stamp(vals_a)
            step = _guarded_solve(jacobian, -residual[..., None], idx, named)[..., 0]
            base = np.abs(residual).max(axis=-1)
            tried = flux_a + step
            pending = np.arange(idx.size)
            for halving in range(1, _MAX_HALVINGS + 1):
                trial_residual = mmf_residual(tried[pending], fixed_a[pending], rhs_a[pending])
                norm = np.abs(trial_residual).max(axis=-1)
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

    # A frozen system's fluxes are its initial solution or the trial it
    # froze on, so the solve of its frozen matrix: the elimination rounds
    # the same alone or in any batch, and a trial's right-hand sides are
    # the grid's bits.
    # Converged systems are held to the single-point solve's limit too.
    _refuse_ill_conditioned(matrix, all_systems, named)

    residual_num = np.abs(np.einsum("...ij,...j->...i", matrix, fluxes) - rhs).max(axis=-1)
    residual_den = np.maximum(np.abs(rhs).max(axis=-1), 1e-300)
    return NonlinearGridResult(
        currents=currents,
        angles=angles,
        gap_reluctances=gap_r,
        system_index=index.reshape(n_c, n_a),
        system_mesh_fluxes=fluxes,
        system_matrices=matrix,
        system_iterations=iterations,
        max_residual=float((residual_num / residual_den).max()),
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
    cross-sections; the gap's is l/(mu0*r_g), the effective area of its
    fringing-floored reluctance.
    """
    operating_point.validate_for(geometry)
    current, angle = operating_point.phase_current, operating_point.rotor_angle
    grid = solve_nonlinear_grid(geometry, materials, curve, [current], [angle])
    split = solve_superposition(
        grid.matrices[0, 0],
        sources_for(geometry, materials, current),
        label="saturated srm mesh system",
    )
    lengths, areas = geometry.element_paths
    areas = np.divide(lengths, MU0 * grid.gap_reluctances[0], out=areas.copy(), where=np.isnan(areas))
    densities = TOPOLOGY.element_fluxes(split.mesh_fluxes) / areas
    return replace(
        split,
        iterations=int(grid.iterations[0, 0]),
        flux_densities=dict(zip(ELEMENT_ORDER, densities.tolist())),
    )
