"""Tests for B-H curve handling and the saturating flux solver."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srmec.motor import (
    ELEMENT_ORDER,
    MU0,
    TOPOLOGY,
    MaterialSet,
    MotorGeometry,
    OperatingPoint,
    airgap_reluctance,
    reluctances_from_geometry,
    solve_flux,
    solve_superposition,
    source_values,
    sources_for,
)
from srmec import saturation
from srmec.network import CONDITION_LIMIT, MeshStamps, SolveError, condition_bound
from srmec.saturation import (
    ELIMINATION_MIN_SYSTEMS,
    BhCurve,
    NonConvergenceError,
    _guarded_solve,
    solve_nonlinear,
    solve_nonlinear_grid,
)
from srmec.torque import DEFAULT_CURRENT_POINTS, angles_for_period
from test_motor import between, design_settings, geometries

ALIGNED = 10.0

# Initial chord of the packaged curve: 0.25 T / 50 A/m relative to mu0.
PACKAGED_INITIAL_MU_R = 0.005 / MU0


@pytest.fixture(scope="module")
def geometry():
    return MotorGeometry()


@pytest.fixture(scope="module")
def materials():
    return MaterialSet()


@pytest.fixture(scope="module")
def curve():
    return BhCurve.default()


@pytest.fixture(scope="module")
def aligned_solutions(geometry, materials, curve):
    """Saturating solves at the aligned position, keyed by current (A)."""
    return {
        i: solve_nonlinear(geometry, materials, curve, OperatingPoint(i, ALIGNED))
        for i in (0.0, 1.0, 2.0, 4.0, 6.0, 8.0)
    }


class TestBhCurveValidation:
    def test_packaged_table_loads(self, curve):
        assert len(curve.field_points) == 13
        assert curve.field_points[0] == 50.0 and curve.density_points[0] == 0.25
        assert curve.field_points[-1] == 200000.0 and curve.density_points[-1] == 2.15

    def test_default_is_parsed_once_and_shared(self, curve):
        assert BhCurve.default() is BhCurve.default() is curve

    def test_lookup_tables_are_read_only(self, curve):
        # Built once per curve and shared by every lookup, so no caller
        # may write them.
        for name in ("_h_tab", "_b_tab", "_slopes"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(curve, name)[0] = 1.0

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="counts differ"):
            BhCurve(field_points=(50.0, 100.0), density_points=(0.25,))

    def test_rejects_single_point(self):
        with pytest.raises(ValueError, match="two"):
            BhCurve(field_points=(50.0,), density_points=(0.25,))

    def test_rejects_nonpositive_first_point(self):
        with pytest.raises(ValueError):
            BhCurve(field_points=(0.0, 100.0), density_points=(0.25, 0.5))
        with pytest.raises(ValueError):
            BhCurve(field_points=(50.0, 100.0), density_points=(-0.25, 0.5))

    def test_rejects_non_increasing_axes(self):
        with pytest.raises(ValueError, match="increasing"):
            BhCurve(field_points=(100.0, 100.0), density_points=(0.25, 0.5))
        with pytest.raises(ValueError, match="increasing"):
            BhCurve(field_points=(50.0, 100.0), density_points=(0.5, 0.5))

    def test_rejects_superlinear_rise(self):
        # Chord B/H must not grow with B: (0.1/100) < (0.5/200).
        with pytest.raises(ValueError, match="chord"):
            BhCurve(field_points=(100.0, 200.0), density_points=(0.1, 0.5))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            BhCurve(field_points=(50.0, math.inf), density_points=(0.25, 0.5))


class TestBhCurveLookup:
    def test_initial_permeability(self, curve):
        assert curve.initial_permeability == pytest.approx(0.25 / 50.0, rel=1e-15)
        assert PACKAGED_INITIAL_MU_R == pytest.approx(3978.8735772973837, rel=1e-15)

    def test_zero_density_uses_initial_slope(self, curve):
        assert curve.chord_permeability(0.0) == curve.initial_permeability

    def test_table_knots_reproduce_exactly(self, curve):
        for h, b in zip(curve.field_points, curve.density_points):
            assert curve.field_magnitude(b) == pytest.approx(h, rel=1e-12)
            assert curve.chord_permeability(b) == pytest.approx(b / h, rel=1e-12)

    def test_chord_constant_through_linear_region(self, curve):
        # First four knots sit on B = 0.005 H, so any density below
        # 1 T sees the initial chord unchanged.
        for b in (0.05, 0.3, 0.7, 0.999):
            assert curve.chord_permeability(b) == pytest.approx(0.005, rel=1e-12)

    def test_chord_nonincreasing_everywhere(self, curve):
        grid = np.linspace(1e-4, 3.0, 800)
        mu = np.asarray(curve.chord_permeability(grid))
        assert np.all(np.diff(mu) <= 1e-18)

    def test_extrapolates_with_vacuum_slope(self, curve):
        h_end, b_end = curve.field_points[-1], curve.density_points[-1]
        assert curve.field_magnitude(b_end + 0.5) == pytest.approx(
            h_end + 0.5 / MU0, rel=1e-12
        )

    def test_chord_approaches_vacuum_from_above(self, curve):
        ratios = [curve.chord_permeability(b) / MU0 for b in (5.0, 50.0, 500.0)]
        assert ratios[0] > ratios[1] > ratios[2] > 1.0
        assert ratios[2] < 1.01

    def test_sign_symmetry(self, curve):
        for b in (0.4, 1.7, 4.0):
            assert curve.chord_permeability(-b) == curve.chord_permeability(b)
            assert curve.field_magnitude(-b) == curve.field_magnitude(b)

    def test_array_lookup_matches_scalars(self, curve):
        b = np.array([0.0, 0.6, 1.7, 2.5, 4.0])
        mu = curve.chord_permeability(b)
        assert isinstance(mu, np.ndarray) and mu.shape == b.shape
        for k, bk in enumerate(b):
            assert mu[k] == curve.chord_permeability(float(bk))
        assert isinstance(curve.chord_permeability(1.0), float)

    def test_linear_curve_chord_is_constant(self):
        lin = BhCurve.linear(4000.0)
        for b in (1e-3, 0.5, 7.0, 1e4):
            assert lin.chord_permeability(b) == pytest.approx(4000.0 * MU0, rel=1e-12)
        assert lin.initial_permeability == pytest.approx(4000.0 * MU0, rel=1e-12)

    def test_differential_matches_finite_differences_at_segment_midpoints(self, curve):
        knots = (0.0,) + curve.density_points
        for low, high in zip(knots[:-1], knots[1:]):
            mid, half = 0.5 * (low + high), 1e-6 * (high - low)
            rise = curve.field_magnitude(mid + half) - curve.field_magnitude(mid - half)
            assert curve.differential_permeability(mid) == pytest.approx(2.0 * half / rise, rel=1e-6)

    def test_differential_at_zero_is_the_first_segment_slope(self, curve):
        assert curve.differential_permeability(0.0) == curve.initial_permeability

    def test_differential_is_vacuum_past_the_table(self, curve):
        b_end = curve.density_points[-1]
        for b in (b_end, b_end + 1e-9, 3.0, 500.0, -2.5):
            assert curve.differential_permeability(b) == MU0

    def test_differential_at_a_knot_takes_the_segment_above(self, curve):
        b1, b2, b3 = curve.density_points[4:7]
        h1, h2, h3 = curve.field_points[4:7]
        assert curve.differential_permeability(b2) == pytest.approx((b3 - b2) / (h3 - h2), rel=1e-12)
        assert curve.differential_permeability(-b2) == curve.differential_permeability(b2)
        assert curve.differential_permeability(np.nextafter(b2, 0.0)) == pytest.approx(
            (b2 - b1) / (h2 - h1), rel=1e-12
        )

    def test_differential_array_lookup_matches_scalars(self, curve):
        b = np.array([0.0, 0.6, 1.7, 2.5, -4.0])
        mu = curve.differential_permeability(b)
        assert isinstance(mu, np.ndarray) and mu.shape == b.shape
        for k, bk in enumerate(b):
            assert mu[k] == curve.differential_permeability(float(bk))
        assert isinstance(curve.differential_permeability(1.0), float)

    def test_linear_curve_differential_equals_chord(self):
        lin = BhCurve.linear(4000.0)
        for b in (0.0, 1e-3, 0.5, 7.0, 1e4):
            assert lin.differential_permeability(b) == pytest.approx(
                lin.chord_permeability(b), rel=1e-12
            )

    def test_linear_rejects_nonpositive_permeability(self):
        with pytest.raises(ValueError, match="positive"):
            BhCurve.linear(0.0)


def reference_field_magnitude(curve, density):
    """field_magnitude as first written: the mu0 extension evaluated
    over every density, past the table or not."""
    b = np.abs(np.asarray(density, dtype=float))
    h_tab = np.concatenate(([0.0], curve.field_points))
    b_tab = np.concatenate(([0.0], curve.density_points))
    h = np.interp(b, b_tab, h_tab)
    with np.errstate(over="ignore"):
        h = np.where(b > b_tab[-1], h_tab[-1] + (b - b_tab[-1]) / MU0, h)
    return float(h) if np.ndim(density) == 0 else h


def reference_chord_permeability(curve, density):
    """chord_permeability as first written: one guarded expression for
    every finite density, and mu0, the mu0 extension's limit, at +-inf."""
    b = np.abs(np.asarray(density, dtype=float))
    h = np.asarray(reference_field_magnitude(curve, b))
    infinite = np.isinf(b)
    b, h = np.where(infinite, MU0, b), np.where(infinite, 1.0, h)
    mu = np.where(b > 0.0, b / np.where(h > 0.0, h, 1.0), curve.initial_permeability)
    return float(mu) if np.ndim(density) == 0 else mu


@st.composite
def curves_and_densities(draw):
    """(curve, density): the packaged curve or a linear one up to
    mu_r = 1e9 (steep enough that a subnormal B rounds H to 0), and a
    scalar or array of signed densities at 0, subnormals, knots, between
    knots, past the table, +-inf and NaN."""
    curve = draw(
        st.one_of(
            st.just(BhCurve.default()),
            st.floats(min_value=0.0, max_value=9.0).map(lambda e: BhCurve.linear(10.0**e)),
        )
    )
    knots = (0.0,) + curve.density_points
    top = knots[-1]
    magnitudes = st.one_of(
        st.sampled_from([0.0, math.inf, math.nan, 5e-324]),
        st.floats(min_value=5e-324, max_value=2.2250738585072009e-308),
        st.sampled_from(knots),
        st.integers(min_value=0, max_value=len(knots) - 2).flatmap(
            lambda k: st.floats(min_value=knots[k], max_value=knots[k + 1])
        ),
        st.floats(min_value=top, max_value=1.7e308),
    )
    signed = st.tuples(magnitudes, st.booleans()).map(lambda v: -v[0] if v[1] else v[0])
    if draw(st.booleans()):
        return curve, draw(signed)
    return curve, np.array(draw(st.lists(signed, min_size=1, max_size=12)))


def same_bits(got, want) -> bool:
    return type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestLeanLookups:
    @design_settings
    @given(curves_and_densities())
    def test_lookups_equal_the_guarded_expressions_bit_for_bit(self, drawn):
        curve, density = drawn
        # No warning either: the suite turns one into an error.
        assert same_bits(curve.field_magnitude(density), reference_field_magnitude(curve, density))
        assert same_bits(curve.chord_permeability(density), reference_chord_permeability(curve, density))

    @pytest.mark.parametrize("shape", [(), (3,)])
    @pytest.mark.parametrize("curve", [BhCurve.default(), BhCurve.linear(1e9)])
    def test_chord_at_infinite_density_is_mu0(self, curve, shape):
        for sign in (1.0, -1.0):
            mu = curve.chord_permeability(np.full(shape, sign * math.inf)[()])
            assert np.all(np.asarray(mu) == MU0) and np.shape(mu) == shape


@st.composite
def linear_designs(draw):
    """(geometry, materials, operating point): a random valid design at a
    random current and rotor angle.  mu_r is drawn through its exponent,
    which spreads its mantissa bits."""
    geometry = draw(geometries())
    materials = MaterialSet(
        iron_relative_permeability=draw(between(0.0, 4.3).map(lambda e: 10.0**e)),
        pm_remanence=draw(between(0.0, 1.6)),
        pm_relative_permeability=draw(between(1.0, 1.3)),
    )
    angle = draw(st.floats(min_value=0.0, max_value=geometry.period_deg, exclude_max=True))
    return geometry, materials, OperatingPoint(draw(between(0.0, 50.0)), angle)


class TestSolveNonlinear:
    @settings(design_settings, max_examples=100)
    @given(linear_designs())
    # The default design at alignment.
    @example((MotorGeometry(), MaterialSet(), OperatingPoint(0.0, ALIGNED)))
    @example((MotorGeometry(), MaterialSet(), OperatingPoint(3.0, ALIGNED)))
    @example((MotorGeometry(), MaterialSet(), OperatingPoint(8.0, ALIGNED)))
    # The linear curve's chord at this mu_r once sat 1 ulp off mu0 * mu_r.
    @example(
        (
            MotorGeometry(),
            MaterialSet(iron_relative_permeability=20.791888640730125),
            OperatingPoint(8.0, ALIGNED),
        )
    )
    def test_linear_curve_reduces_to_linear_solver(self, design):
        geometry, materials, point = design
        curve = BhCurve.linear(materials.iron_relative_permeability)
        try:
            ref = solve_flux(
                reluctances_from_geometry(geometry, materials, point.rotor_angle),
                sources_for(geometry, materials, point.phase_current),
            )
        except SolveError as error:
            # A right-hand side too small to round exactly: both refuse it.
            assert "too small to round exactly" in str(error)
            with pytest.raises(SolveError, match="too small to round exactly"):
                solve_nonlinear(geometry, materials, curve, point)
            return
        sol = solve_nonlinear(geometry, materials, curve, point)
        assert sol.iterations == 1
        for name in ("mesh_fluxes", "coil_mesh_fluxes", "pm_mesh_fluxes"):
            assert getattr(sol, name).tobytes() == getattr(ref, name).tobytes(), name
        assert sol.residual == ref.residual

    def test_unsaturated_currents_match_initial_chord_solve(
        self, geometry, materials, curve, aligned_solutions
    ):
        # At 1 A and 2 A every iron density stays below 1 T, inside the
        # packaged curve's constant-chord region, so the saturating
        # solve must agree with a linear solve at the initial chord.
        chord_materials = MaterialSet(iron_relative_permeability=PACKAGED_INITIAL_MU_R)
        for current in (1.0, 2.0):
            sol = aligned_solutions[current]
            assert max(
                abs(sol.flux_densities[eid])
                for eid in ELEMENT_ORDER
                if not eid.startswith(("g", "pm"))
            ) < 1.0
            ref = solve_flux(
                reluctances_from_geometry(geometry, chord_materials, ALIGNED),
                sources_for(geometry, chord_materials, current),
            )
            assert sol.mesh_fluxes == pytest.approx(ref.mesh_fluxes, rel=1e-9)
            assert sol.iterations == 1

    def test_converged_residual_is_tiny(self, aligned_solutions):
        for sol in aligned_solutions.values():
            assert sol.residual <= 1e-10

    def test_iterations_grow_with_saturation(self, aligned_solutions):
        iters = {i: s.iterations for i, s in aligned_solutions.items()}
        assert iters[1.0] == 1
        assert iters[1.0] <= iters[4.0] < iters[8.0]
        assert iters[8.0] <= 15

    def test_superposition_parts_sum_to_total(self, aligned_solutions):
        for sol in aligned_solutions.values():
            recomposed = sol.coil_mesh_fluxes + sol.pm_mesh_fluxes
            assert recomposed == pytest.approx(sol.mesh_fluxes, rel=1e-10)

    def test_zero_current_is_magnet_only(self, aligned_solutions):
        sol = aligned_solutions[0.0]
        assert np.all(sol.coil_mesh_fluxes == 0.0)
        assert sol.pm_mesh_fluxes == pytest.approx(sol.mesh_fluxes, rel=1e-12)
        # Unexcited, the magnets short through the stator yoke; only a
        # small fraction leaks across the air gaps.
        assert abs(sol.pm_branches.phi_g) < 0.1 * abs(sol.pm_branches.phi_sy)

    def test_saturation_diverts_magnet_flux_into_the_gap(self, aligned_solutions):
        # The working mechanism: deep stator-core saturation pushes
        # magnet flux out of its yoke short circuit and across the air
        # gap.  The gap share of the magnet flux must end well above
        # its unsaturated level and grow monotonically once the core
        # is driven hard.  (Between 2 A and 4 A the coil MMF partially
        # cancels the magnet bias in the shared poles, relieving the
        # core, so the share is allowed to dip there.)
        share = {
            i: s.pm_branches.phi_g / s.branches.phi_g
            for i, s in aligned_solutions.items()
            if i > 0
        }
        assert share[8.0] > 2.0 * share[1.0]
        assert share[4.0] < share[6.0] < share[8.0]

    def test_deep_saturation_levels_at_top_current(self, aligned_solutions, curve):
        sol = aligned_solutions[8.0]
        iron_b = {
            eid: abs(sol.flux_densities[eid])
            for eid in ELEMENT_ORDER
            if not eid.startswith(("g", "pm"))
        }
        peak = max(iron_b.values())
        assert 1.5 < peak < 2.5
        # The excited poles carry both magnet loops and saturate first.
        assert iron_b["sp1"] == peak
        assert curve.initial_permeability / curve.chord_permeability(peak) > 10.0

    def test_rejects_angle_outside_period(self, geometry, materials, curve):
        with pytest.raises(ValueError, match="rotor_angle"):
            solve_nonlinear(geometry, materials, curve, OperatingPoint(2.0, 25.0))

    def test_nonconvergence_error_payload(self, geometry, materials, curve, monkeypatch):
        monkeypatch.setattr(saturation, "MAX_ITERATIONS", 3)
        with pytest.raises(NonConvergenceError) as info:
            solve_nonlinear(geometry, materials, curve, OperatingPoint(8.0, ALIGNED))
        err = info.value
        assert err.iterations == 3
        assert err.last_change > 1e-8
        assert err.unconverged_points == 1
        assert err.last_mesh_fluxes.shape == (1, 1, 5)
        assert 0 < len(err.recent_changes) <= 8
        assert "no convergence" in str(err)


class TestNonlinearGrid:
    def test_grid_matches_scalar_solves(self, geometry, materials, curve):
        currents = np.array([0.0, 4.0, 8.0])
        angles = np.array([0.0, 10.0])
        grid = solve_nonlinear_grid(geometry, materials, curve, currents, angles)
        for ci, current in enumerate(currents):
            for ai, angle in enumerate(angles):
                point = OperatingPoint(float(current), float(angle))
                sol = solve_nonlinear(geometry, materials, curve, point)
                assert grid.system_mesh_fluxes[grid.system_index[ci, ai]] == pytest.approx(
                    sol.mesh_fluxes, rel=1e-6
                )

    def test_grid_shapes_and_metadata(self, geometry, materials, curve):
        grid = solve_nonlinear_grid(
            geometry, materials, curve, np.array([0.0, 8.0]), np.array([0.0, 5.0, 10.0])
        )
        assert grid.system_mesh_fluxes[grid.system_index].shape == (2, 3, 5)
        assert grid.matrices.shape == (2, 3, 5, 5)
        assert grid.iterations.shape == (2, 3)
        assert np.issubdtype(grid.iterations.dtype, np.integer)
        assert np.all(grid.iterations >= 1)
        assert grid.max_residual <= 1e-10

    def test_gap_reluctances_are_the_scalar_ones_bit_for_bit(self, geometry, materials, curve):
        # solve_nonlinear takes its gap area from these, where it once
        # evaluated the scalar gap model again.
        angles = np.array([0.0, 2.5, 7.3, 10.0, 19.9])
        grid = solve_nonlinear_grid(geometry, materials, curve, [1.0], angles)
        assert grid.gap_reluctances.shape == angles.shape
        assert grid.gap_reluctances.tolist() == [airgap_reluctance(geometry, a) for a in angles.tolist()]

    def test_grid_rerun_is_byte_identical(self, geometry, materials, curve):
        currents = np.array([0.0, 4.0, 8.0])
        angles = np.array([0.0, 5.0, 10.0])
        first = solve_nonlinear_grid(geometry, materials, curve, currents, angles)
        second = solve_nonlinear_grid(geometry, materials, curve, currents, angles)
        assert np.array_equal(first.system_index, second.system_index)
        assert np.array_equal(first.system_mesh_fluxes, second.system_mesh_fluxes)
        assert np.array_equal(first.matrices, second.matrices)
        assert np.array_equal(first.iterations, second.iterations)
        assert first.max_residual == second.max_residual

    def test_gap_flux_peaks_at_alignment(self, geometry, materials, curve):
        grid = solve_nonlinear_grid(
            geometry, materials, curve, np.array([4.0]), np.array([0.0, ALIGNED])
        )
        fluxes = grid.system_mesh_fluxes[grid.system_index]
        phi_g = np.abs(fluxes[0, :, 3] - fluxes[0, :, 0])
        assert phi_g[1] > 10.0 * phi_g[0]

    def test_newton_tail_on_the_default_grid(self, geometry, materials, curve):
        # The 8 A sweep grid with and without magnets, as torque_components
        # solves it; the chord fixed point needed up to 124 passes here.
        currents = np.linspace(0.0, 8.0, DEFAULT_CURRENT_POINTS)
        angles = angles_for_period(geometry)
        no_pm = replace(materials, pm_remanence=0.0)
        for mats in (materials, no_pm):
            grid = solve_nonlinear_grid(geometry, mats, curve, currents, angles)
            assert grid.iterations.shape == (33, 80)
            assert grid.iterations.max() <= 15

    def test_non_finite_system_names_its_points(self, geometry, materials, curve):
        # Past 0.25 T this curve's chord and slope underflow to about
        # 1e-309 H/m, so the iron reluctance overflows; unexcited points
        # without magnets never leave the first segment.
        overflowing = BhCurve(field_points=(50.0, 1.5e308), density_points=(0.25, 0.5))
        no_pm = replace(materials, pm_remanence=0.0)
        with pytest.raises(SolveError) as info:
            solve_nonlinear_grid(geometry, no_pm, overflowing, [0.0, 8.0], [0.0, ALIGNED])
        message = str(info.value)
        assert "2 operating point(s)" in message
        assert "(8 A, 0 deg), (8 A, 10 deg)" in message
        assert "(0 A" not in message

    def test_non_finite_diagonal_names_its_point(self):
        # An overflowed iron reluctance puts inf on the diagonal, yet
        # LAPACK still returns finite fluxes: only the diagonal check
        # refuses the system.
        values = np.full((2, len(ELEMENT_ORDER)), 1e6)
        values[1, ELEMENT_ORDER.index("sy5")] = np.inf
        matrices = TOPOLOGY.stamp(values)
        rhs = np.ones((2, matrices.shape[-1], 1))
        assert np.all(np.isfinite(np.linalg.solve(matrices, rhs)))
        points = np.array([[2.0, 0.0], [4.0, 0.0]])

        def named(failing):
            return tuple(map(tuple, points[failing]))

        with pytest.raises(SolveError, match=r"at 1 operating point\(s\): \(4 A, 0 deg\)$"):
            _guarded_solve(np.linalg.solve, matrices, rhs, np.arange(2), named)

    def test_non_finite_diagonal_of_a_lone_system_names_its_point(self):
        # A one-point grid, as in every `srmec solve`: the batch of one
        # solves finite, and only the diagonal check refuses it.
        values = np.full((1, len(ELEMENT_ORDER)), 1e6)
        values[0, ELEMENT_ORDER.index("sy5")] = np.inf
        matrices = TOPOLOGY.stamp(values)
        rhs = np.ones((1, matrices.shape[-1], 1))
        assert np.all(np.isfinite(np.linalg.solve(matrices, rhs)))

        def named(failing):
            assert failing.tolist() == [0]
            return ((4.0, 3.0),)

        with pytest.raises(SolveError, match=r"at 1 operating point\(s\): \(4 A, 3 deg\)$"):
            _guarded_solve(np.linalg.solve, matrices, rhs, np.arange(1), named)

    def test_non_finite_diagonal_names_its_point_in_an_eliminated_batch(self):
        m = 8
        values = np.full((m, len(ELEMENT_ORDER)), 1e6)
        values[m - 2, ELEMENT_ORDER.index("sy5")] = np.inf
        matrices = TOPOLOGY.stamp(values)
        rhs = np.ones((m, matrices.shape[-1], 1))
        points = np.stack([np.arange(m, dtype=float), np.zeros(m)], axis=-1)

        def named(failing):
            return tuple(map(tuple, points[failing]))

        with pytest.raises(SolveError, match=rf"at 1 operating point\(s\): \({m - 2} A, 0 deg\)$"):
            _guarded_solve(TOPOLOGY.solve, matrices, rhs, np.arange(m), named)

    def test_overflowing_condition_bound_refuses_without_a_warning(self, materials, curve):
        # The magnet reluctance (3.8e307 A/Wb) fits a float, but the
        # bound's doubled diagonal does not: the bound reads inf, and the
        # exact condition number refuses the system.
        values = np.full((1, len(ELEMENT_ORDER)), 1e6)
        values[0, ELEMENT_ORDER.index("pm3")] = 1e308
        assert condition_bound(TOPOLOGY.stamp(values)).tolist() == [math.inf]
        huge_magnet = MotorGeometry(pm_length=1e100, pm_width=1e-200)
        refused = r"^condition number 1\.005e\+301 exceeds limit .* \(8 A, 10 deg\)$"
        with pytest.raises(SolveError, match=refused):
            solve_nonlinear_grid(huge_magnet, materials, curve, [8.0], [ALIGNED])

    def test_stall_at_an_ill_conditioned_system_reports_its_conditioning(self, materials, curve):
        # A near-zero magnet width puts the condition number near 1e13,
        # where rounding alone keeps the trial change above tolerance.
        thin = MotorGeometry(pm_width=1e-9)
        with pytest.raises(SolveError, match=r"condition number .* exceeds limit .*\(8 A, 10 deg\)$"):
            solve_nonlinear_grid(thin, materials, curve, [8.0], [ALIGNED])

    def test_non_finite_points_named_in_a_batch_above_the_elimination_threshold(
        self, geometry, materials, curve, monkeypatch
    ):
        # The overflowing curve of test_non_finite_system_names_its_points
        # over 80 angles (20 distinct gaps) at 0 A, mA currents that stay
        # on the first segment, and 8 A: the grid eliminates, and its
        # first Newton pass spoils only the 8 A systems.
        overflowing = BhCurve(field_points=(50.0, 1.5e308), density_points=(0.25, 0.5))
        no_pm = replace(materials, pm_remanence=0.0)
        angles = angles_for_period(geometry)
        currents = np.append(1e-3 * np.arange(math.ceil(ELIMINATION_MIN_SYSTEMS / 20)), 8.0)
        calls = CountingSolves(monkeypatch)
        with pytest.raises(SolveError) as info:
            solve_nonlinear_grid(geometry, no_pm, overflowing, currents, angles)
        systems = 20 * currents.size
        assert systems >= ELIMINATION_MIN_SYSTEMS
        assert calls.lapack == [] and calls.elimination[0] == (systems,)
        message = str(info.value)
        assert "at 80 operating point(s): (8 A, 0 deg), (8 A, 0.25 deg)," in message
        assert "(0 A" not in message and "(0.001 A" not in message

    def test_singular_batch_names_its_points(self):
        matrices = np.stack([np.eye(2), np.ones((2, 2)), 2.0 * np.eye(2)])
        points = np.array([[1.0, 0.0], [2.0, 5.0], [3.0, 10.0]])
        rhs = np.ones((3, 2, 1))
        systems = np.arange(3)

        def named(failing):
            return tuple(map(tuple, points[failing]))

        solved = _guarded_solve(np.linalg.solve, matrices[[0, 2]], rhs[:2], systems[[0, 2]], named)
        assert solved.shape == (2, 2, 1)
        with pytest.raises(SolveError, match=r"at 1 operating point\(s\): \(2 A, 5 deg\)$"):
            _guarded_solve(np.linalg.solve, matrices, rhs, systems, named)

    def test_line_search_keeps_newton_from_cycling_on_an_abrupt_knee(self, geometry, materials):
        # Past 1 T this curve's slope halves, past 1.5 T it drops 10,000x.
        # Full Newton steps cycle between segments at these points and
        # never converge; halving the step lands in 5 passes.
        knee = BhCurve(field_points=(50.0, 100.0, 1e5), density_points=(1.0, 1.5, 1.6))
        grid = solve_nonlinear_grid(
            geometry, materials, knee, [5.0, 6.0, 7.0, 8.0], [8.0, 9.0, ALIGNED, 11.0, 12.0]
        )
        assert grid.iterations.max() <= 8
        assert grid.max_residual <= 1e-10

    def test_grid_rejects_negative_current(self, geometry, materials, curve):
        with pytest.raises(ValueError, match="nonnegative"):
            solve_nonlinear_grid(
                geometry, materials, curve, np.array([-1.0]), np.array([0.0])
            )

    def test_grid_refuses_a_coil_mmf_past_the_float_range_at_any_current(
        self, geometry, materials, curve
    ):
        # Two coils of 140 turns at 1e308 A: the largest current names it.
        with pytest.raises(ValueError, match=r"phase current 1e\+308 A overflows the coil MMF"):
            solve_nonlinear_grid(geometry, materials, curve, [1.0, 1e308], [0.0])

    @pytest.mark.parametrize("currents, angles, name", [([], [0.0], "currents"), ([1.0], [], "angles")])
    def test_grid_rejects_an_empty_axis(self, geometry, materials, curve, currents, angles, name):
        with pytest.raises(ValueError, match=f"^{name} must hold at least one value$"):
            solve_nonlinear_grid(geometry, materials, curve, currents, angles)


# Includes the slow-converging region around alignment at 5.25-8 A.
FROZEN_POINTS = (
    (0.0, 0.0),
    (1.0, 3.0),
    (3.0, 4.5),
    (5.5, 8.5),
    (6.5, 9.25),
    (8.0, ALIGNED),
    (7.0, 19.75),
)


class TestFrozenSystems:
    def test_solve_nonlinear_is_the_split_solve_on_the_grid_matrix(
        self, geometry, materials, curve
    ):
        for current, angle in FROZEN_POINTS:
            sol = solve_nonlinear(geometry, materials, curve, OperatingPoint(current, angle))
            grid = solve_nonlinear_grid(geometry, materials, curve, [current], [angle])
            split = solve_superposition(grid.matrices[0, 0], sources_for(geometry, materials, current))
            for name in ("mesh_fluxes", "coil_mesh_fluxes", "pm_mesh_fluxes"):
                assert getattr(sol, name).tobytes() == getattr(split, name).tobytes()
            assert sol.residual == split.residual
            assert sol.iterations == grid.iterations[0, 0]

    @pytest.mark.parametrize(
        "currents, angles, solve",
        [
            ([8.0], [ALIGNED], np.linalg.solve),
            ([1.0, 5.5, 8.0], [0.0, 3.0, 8.5, ALIGNED], np.linalg.solve),
            (np.linspace(0.0, 8.0, 61), None, TOPOLOGY.solve),
        ],
        ids=["lapack-one_point", "lapack-3x4", "elimination-61x80"],
    )
    def test_grid_fluxes_are_the_solves_of_its_frozen_matrices(
        self, geometry, materials, curve, currents, angles, solve
    ):
        # Every solve of a grid takes its route, so the grid keeps each
        # system's solution from the pass that froze it: the initial one
        # after one pass, else the chord trial's.
        angles = angles_for_period(geometry) if angles is None else angles
        grid = solve_nonlinear_grid(geometry, materials, curve, currents, angles)
        eliminated = grid.distinct_systems >= ELIMINATION_MIN_SYSTEMS
        assert eliminated == (solve == TOPOLOGY.solve)
        assert grid.system_iterations.max() > 1
        sources = np.array([source_values(sources_for(geometry, materials, i)) for i in currents])
        # One right-hand side per current, shared by every angle.
        rhs = (sources @ TOPOLOGY.rhs_pattern)[:, None, :, None]
        solved = solve(grid.matrices, rhs)
        assert solved[..., 0].tobytes() == grid.system_mesh_fluxes[grid.system_index].tobytes()


class CountingSolves:
    """Records the batch shape of every elimination and LAPACK call."""

    def __init__(self, monkeypatch):
        self.elimination: list[tuple[int, ...]] = []
        self.lapack: list[tuple[int, ...]] = []
        eliminate, lapack = MeshStamps.solve, np.linalg.solve

        def counted_elimination(stamps, matrices, rhs):
            self.elimination.append(np.broadcast_shapes(matrices.shape[:-2], rhs.shape[:-2]))
            return eliminate(stamps, matrices, rhs)

        def counted_lapack(matrices, rhs):
            self.lapack.append(np.broadcast_shapes(matrices.shape[:-2], rhs.shape[:-2]))
            return lapack(matrices, rhs)

        monkeypatch.setattr(MeshStamps, "solve", counted_elimination)
        monkeypatch.setattr(np.linalg, "solve", counted_lapack)


# The default sweep's current rows: linspace(0, I, 33) for I = 1, ..., 8 A.
SWEEP_ROWS = np.concatenate([np.linspace(0.0, i, DEFAULT_CURRENT_POINTS) for i in range(1, 9)])


class TestSolveSelection:
    @pytest.mark.parametrize(
        "currents, angles, systems",
        [
            ([8.0], [ALIGNED], 1),
            (np.linspace(0.0, 8.0, DEFAULT_CURRENT_POINTS), None, 33 * 20),
            (SWEEP_ROWS, None, 137 * 20),
        ],
        ids=["one_point", "torque_grid", "default_sweep"],
    )
    def test_every_solve_of_a_grid_takes_its_route(
        self, geometry, materials, curve, monkeypatch, currents, angles, systems
    ):
        angles = angles_for_period(geometry) if angles is None else angles
        calls = CountingSolves(monkeypatch)
        grid = solve_nonlinear_grid(geometry, materials, curve, currents, angles)
        assert grid.distinct_systems == systems
        assert grid.system_iterations.max() > 1
        taken, other = (calls.elimination, calls.lapack)
        if systems < ELIMINATION_MIN_SYSTEMS:
            taken, other = other, taken
        assert other == []
        assert taken[:2] == [(systems,), (systems,)]
        # The initial solve, a trial solve per pass and a Newton step on
        # every pass but the last: a frozen trial's solution is the final
        # one, so there is no final solve.
        assert len(taken) == 2 * grid.system_iterations.max()


class TestConditionGuard:
    def test_bound_is_at_least_the_condition_number(self):
        rng = np.random.default_rng(12)
        for decades in (0.01, 2, 6, 12):
            values = 1e6 * 10.0 ** rng.uniform(-decades / 2, decades / 2, (5000, len(ELEMENT_ORDER)))
            matrices = TOPOLOGY.assemble(values, np.zeros((5000, len(TOPOLOGY.source_ids))))[0]
            assert np.all(condition_bound(matrices) >= np.linalg.cond(matrices))

    def test_bound_screens_the_default_grid_without_exact_condition_numbers(
        self, geometry, materials, curve
    ):
        currents = np.linspace(0.0, 8.0, DEFAULT_CURRENT_POINTS)
        grid = solve_nonlinear_grid(geometry, materials, curve, currents, angles_for_period(geometry))
        assert condition_bound(grid.matrices).max() < 1e4 < CONDITION_LIMIT

    def test_converged_ill_conditioned_points_are_refused(self, materials, curve):
        # With 1e-8 mm magnets the 1 A points converge, but their systems'
        # condition number is 1.12e12, over the single-point limit.
        thin = MotorGeometry(pm_width=1e-8)
        with pytest.raises(
            SolveError, match=r"condition number 1\.12\de\+12 exceeds limit .* 2 operating point\(s\)"
        ):
            solve_nonlinear_grid(thin, materials, curve, [1.0], [0.0, 5.0])

    def test_non_dominant_matrix_gets_an_infinite_bound(self):
        matrix = np.array([[1.0, -2.0], [-2.0, 5.0]])
        assert condition_bound(matrix) == np.inf


def grid_fields(grid):
    """The total fluxes, matrices and iterations of every requested point."""
    return {
        "mesh_fluxes": grid.system_mesh_fluxes[grid.system_index],
        "matrices": grid.matrices,
        "iterations": grid.iterations,
    }


class TestDistinctSystems:
    def test_gap_reluctance_is_symmetric_about_alignment(self, geometry):
        angles = angles_for_period(geometry)
        gap = airgap_reluctance(geometry, angles)
        mirrored = airgap_reluctance(geometry, 2.0 * ALIGNED - angles)
        assert gap.tobytes() == mirrored.tobytes()
        assert np.unique(gap).size == 20

    def test_repeated_permuted_and_mirrored_points_equal_the_distinct_grid(
        self, geometry, materials, curve
    ):
        currents = np.array([2.0, 6.5, 8.0])
        angles = np.array([0.0, 8.5, 9.25, ALIGNED])
        distinct = solve_nonlinear_grid(geometry, materials, curve, currents, angles)
        # Requested angles by the distinct angle they equal: 11.5 and
        # 10.75 mirror 8.5 and 9.25 about alignment, 1.0 and 19.0 sit on
        # the fringing floor with 0.
        requested_currents = np.array([8.0, 2.0, 8.0, 6.5, 2.0])
        requested_angles = np.array([ALIGNED, 10.75, 0.0, 8.5, 11.5, 9.25, 19.0, 1.0, ALIGNED])
        current_of = np.array([2, 0, 2, 1, 0])
        angle_of = np.array([3, 2, 0, 1, 1, 2, 0, 0, 3])
        grid = solve_nonlinear_grid(
            geometry, materials, curve, requested_currents, requested_angles
        )
        assert grid.distinct_systems == distinct.distinct_systems == 3 * 4
        requested = grid_fields(grid)
        for name, field in grid_fields(distinct).items():
            expanded = field[np.ix_(current_of, angle_of)]
            assert requested[name].tobytes() == expanded.tobytes(), name
        assert grid.max_residual == distinct.max_residual

    def test_ill_conditioned_system_names_every_mirrored_point(self, materials, curve):
        # 5 and 15 deg share one gap reluctance, so one refused system
        # stands for both points.
        thin = MotorGeometry(pm_width=1e-8)
        assert airgap_reluctance(thin, 5.0) == airgap_reluctance(thin, 15.0)
        with pytest.raises(
            SolveError,
            match=r"exceeds limit .* at 2 operating point\(s\): \(1 A, 5 deg\), \(1 A, 15 deg\)$",
        ):
            solve_nonlinear_grid(thin, materials, curve, [1.0], [5.0, 15.0])

    def test_non_convergence_names_duplicated_points_in_request_order(
        self, geometry, materials, curve, monkeypatch
    ):
        # At 8 A the points near alignment need 7-8 passes; 5 deg needs 1.
        monkeypatch.setattr(saturation, "MAX_ITERATIONS", 3)
        angles = [ALIGNED, 5.0, 9.0, ALIGNED, 11.0]
        with pytest.raises(NonConvergenceError) as info:
            solve_nonlinear_grid(geometry, materials, curve, [8.0], angles)
        err = info.value
        assert err.unconverged_points == 4
        assert err.failing_points == ((8.0, ALIGNED), (8.0, 9.0), (8.0, ALIGNED), (8.0, 11.0))
        assert err.last_mesh_fluxes.shape == (1, 5, 5)
        fluxes = err.last_mesh_fluxes[0]
        assert fluxes[0].tobytes() == fluxes[3].tobytes()
        assert fluxes[2].tobytes() == fluxes[4].tobytes()
