"""Tests for flux linkage, coenergy integration, and static torque."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srmec.config import DEFAULT_SWEEP_CURRENTS
from srmec.motor import MaterialSet, MotorGeometry, pole_flux
from srmec.saturation import BhCurve, solve_nonlinear_grid
from srmec.torque import (
    DEFAULT_ANGLE_STEP_DEG,
    DEFAULT_CURRENT_POINTS,
    MAX_GRID_POINTS,
    SERIES_COILS,
    FluxLinkageGrid,
    TorqueCurve,
    angles_for_period,
    coenergy,
    linkage_bound,
    static_torque,
    torque_angle_sweep,
    torque_angle_sweeps,
    torque_component_sweeps,
    torque_components,
)
from test_motor import decades, design_settings, geometries

ALIGNED = 10.0


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
def sweeps(geometry, materials, curve):
    """Torque-angle curves keyed by phase current (A)."""
    return {
        i: torque_angle_sweep(geometry, materials, curve, i) for i in (0.0, 2.0, 4.0, 8.0)
    }


def synthetic_grid(linkage_of_current, currents, period_deg=20.0, step_deg=0.25):
    """Grid with angle-independent linkage, for current-axis tests."""
    currents = np.asarray(currents, dtype=float)
    angles = np.arange(round(period_deg / step_deg)) * step_deg
    column = np.asarray([linkage_of_current(i) for i in currents])
    return FluxLinkageGrid(
        currents=currents,
        angles=angles,
        linkages=np.repeat(column[:, None], angles.size, axis=1),
        period_deg=period_deg,
    )


def inductance_grid(l0, l1, peak_current, period_deg=20.0, step_deg=0.25, points=9):
    """lambda = (l0 + l1*cos(2*pi*theta/period)) * i: closed-form torque."""
    currents = np.linspace(0.0, peak_current, points)
    angles = np.arange(round(period_deg / step_deg)) * step_deg
    inductance = l0 + l1 * np.cos(2.0 * np.pi * angles / period_deg)
    return FluxLinkageGrid(
        currents=currents,
        angles=angles,
        linkages=currents[:, None] * inductance[None, :],
        period_deg=period_deg,
    )


class TestFluxLinkageGridValidation:
    def test_accepts_well_formed_grid(self):
        grid = synthetic_grid(lambda i: 0.1 * i, np.linspace(0.0, 4.0, 5))
        assert grid.angle_step_deg == pytest.approx(0.25)
        assert grid.angles.size == 80

    def test_rejects_currents_not_starting_at_zero(self):
        with pytest.raises(ValueError, match="start at exactly 0"):
            synthetic_grid(lambda i: 0.1 * i, [1.0, 2.0, 3.0])

    def test_rejects_non_ascending_currents(self):
        with pytest.raises(ValueError, match="strictly ascending"):
            synthetic_grid(lambda i: 0.1 * i, [0.0, 2.0, 2.0])

    def test_rejects_single_current_point(self):
        with pytest.raises(ValueError, match="at least two"):
            synthetic_grid(lambda i: 0.1 * i, [0.0])

    def test_rejects_too_few_angles(self):
        with pytest.raises(ValueError, match="at least four"):
            FluxLinkageGrid(
                currents=np.array([0.0, 1.0]),
                angles=np.array([0.0, 10.0]),
                linkages=np.zeros((2, 2)),
                period_deg=20.0,
            )

    def test_rejects_nonuniform_angles(self):
        with pytest.raises(ValueError, match="uniformly spaced"):
            FluxLinkageGrid(
                currents=np.array([0.0, 1.0]),
                angles=np.array([0.0, 1.0, 3.0, 19.0]),
                linkages=np.zeros((2, 4)),
                period_deg=20.0,
            )

    def test_rejects_span_not_equal_to_period(self):
        # 0..15 deg at 5 deg steps spans one step short of 20 deg only
        # if the period were 20; declare 25 and the span check trips.
        with pytest.raises(ValueError, match="expected one period"):
            FluxLinkageGrid(
                currents=np.array([0.0, 1.0]),
                angles=np.arange(4) * 5.0,
                linkages=np.zeros((2, 4)),
                period_deg=25.0,
            )

    def test_rejects_wrong_linkage_shape(self):
        with pytest.raises(ValueError, match="shape"):
            FluxLinkageGrid(
                currents=np.array([0.0, 1.0]),
                angles=np.arange(4) * 5.0,
                linkages=np.zeros((2, 3)),
                period_deg=20.0,
            )

    def test_rejects_linkage_decreasing_in_current(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            synthetic_grid(lambda i: -0.1 * i, [0.0, 1.0, 2.0])

    def test_angle_index_round_trip(self):
        grid = synthetic_grid(lambda i: 0.1 * i, [0.0, 1.0])
        assert grid.angle_index(0.0) == 0
        assert grid.angle_index(10.0) == 40
        assert grid.angle_index(19.75) == 79

    def test_angle_index_rejects_off_grid(self):
        grid = synthetic_grid(lambda i: 0.1 * i, [0.0, 1.0])
        with pytest.raises(ValueError, match="not on the grid"):
            grid.angle_index(0.1)
        with pytest.raises(ValueError, match="not on the grid"):
            grid.angle_index(20.0)


class TestCoenergy:
    def test_zero_current_is_zero_everywhere(self):
        grid = synthetic_grid(lambda i: -0.05 + 0.12 * i, np.linspace(0.0, 5.0, 6))
        assert coenergy(grid, 0.0, 0.0) == 0.0
        assert coenergy(grid, 0.0, ALIGNED) == 0.0

    def test_linear_linkage_integrates_exactly(self):
        # lambda = lam0 + L*i integrates to lam0*i + L*i^2/2; the
        # trapezoid rule is exact on each linear cell.
        lam0, slope = -0.05, 0.12
        grid = synthetic_grid(lambda i: lam0 + slope * i, np.linspace(0.0, 5.0, 6))
        for current in (1.0, 3.0, 5.0):
            expected = lam0 * current + 0.5 * slope * current**2
            assert coenergy(grid, current, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_partial_cell_is_exact_for_linear_linkage(self):
        lam0, slope = -0.05, 0.12
        grid = synthetic_grid(lambda i: lam0 + slope * i, np.linspace(0.0, 5.0, 6))
        current = 2.3
        expected = lam0 * current + 0.5 * slope * current**2
        assert coenergy(grid, current, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_rejects_current_outside_range(self):
        grid = synthetic_grid(lambda i: 0.1 * i, [0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="outside the grid range"):
            coenergy(grid, -0.5, 0.0)
        with pytest.raises(ValueError, match="outside the grid range"):
            coenergy(grid, 2.5, 0.0)

    def test_rejects_off_grid_angle(self):
        grid = synthetic_grid(lambda i: 0.1 * i, [0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="not on the grid"):
            coenergy(grid, 1.0, 0.3)

    def test_trapezoid_error_shrinks_second_order(self):
        # lambda = tanh(i) gives W'(I) = ln cosh(I) exactly; halving the
        # current step must cut the quadrature error about fourfold.
        peak = 3.0
        exact = math.log(math.cosh(peak))
        coarse = synthetic_grid(math.tanh, np.linspace(0.0, peak, 9))
        fine = synthetic_grid(math.tanh, np.linspace(0.0, peak, 17))
        err_coarse = abs(coenergy(coarse, peak, 0.0) - exact)
        err_fine = abs(coenergy(fine, peak, 0.0) - exact)
        assert err_coarse / err_fine == pytest.approx(4.0, abs=0.5)


class TestStaticTorque:
    def test_matches_analytic_derivative_within_one_percent(self):
        # Sinusoidal inductance: T = i^2/2 * dL/dtheta in mechanical
        # radians.  Central differences at 0.25 deg carry a uniform
        # sin(kh)/kh factor, about 0.1% here.
        l0, l1, period = 0.1, 0.02, 20.0
        current = 4.0
        grid = inductance_grid(l0, l1, peak_current=current, period_deg=period)
        k_rad = 2.0 * np.pi / math.radians(period)
        for index in range(1, grid.angles.size - 1):
            theta = float(grid.angles[index])
            expected = (
                -0.5 * current**2 * l1 * k_rad * math.sin(2.0 * math.pi * theta / period)
            )
            if abs(expected) < 1e-12:
                continue
            sample = static_torque(grid, current, theta)
            assert not sample.one_sided
            assert sample.torque_nm == pytest.approx(expected, rel=0.01)

    def test_boundary_samples_are_flagged_one_sided(self):
        grid = inductance_grid(0.1, 0.02, peak_current=4.0)
        assert static_torque(grid, 4.0, float(grid.angles[0])).one_sided
        assert static_torque(grid, 4.0, float(grid.angles[-1])).one_sided
        assert not static_torque(grid, 4.0, float(grid.angles[1])).one_sided

    def test_zero_current_gives_zero_torque(self):
        grid = inductance_grid(0.1, 0.02, peak_current=4.0)
        assert static_torque(grid, 0.0, 5.0).torque_nm == 0.0


class TestSweepGrid:
    def test_linkage_counts_the_geometry_turns(self, geometry, materials, curve):
        # The sweep's lambda grid is turns x SERIES_COILS x pole flux;
        # its torque, rebuilt by hand from the grid solve, matches bit
        # for bit.
        swept = torque_angle_sweep(
            geometry, materials, curve, 4.0, current_points=5, angle_step_deg=2.5
        )
        currents = np.linspace(0.0, 4.0, 5)
        result = solve_nonlinear_grid(geometry, materials, curve, currents, swept.angles)
        fluxes = result.system_mesh_fluxes[result.system_index]
        linkages = geometry.turns_per_pole * SERIES_COILS * pole_flux(fluxes)
        widths = np.diff(currents)[:, None]
        coenergy_row = np.sum(0.5 * (linkages[1:] + linkages[:-1]) * widths, axis=0)
        step_rad = math.radians(2.5)
        want = (np.roll(coenergy_row, -1) - np.roll(coenergy_row, 1)) / (2.0 * step_rad)
        assert np.array_equal(swept.samples, want)

    def test_rejects_too_few_current_points(self, geometry, materials, curve):
        with pytest.raises(ValueError, match="current_points must be >= 2"):
            torque_angle_sweep(geometry, materials, curve, 4.0, current_points=1)

    def test_rejects_step_not_dividing_period(self, geometry, materials, curve):
        with pytest.raises(ValueError, match="divide the rotor period"):
            torque_angle_sweep(geometry, materials, curve, 4.0, angle_step_deg=0.3)

    def test_refuses_a_grid_over_the_bound_before_solving(self, geometry, materials, curve, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("grid solved before current_points was checked")

        monkeypatch.setattr("srmec.torque.solve_nonlinear_grid", never)
        points = MAX_GRID_POINTS // 80
        # At the default 80 angle steps, one more current point than fits.
        with pytest.raises(ValueError, match=rf"^current_points {points + 1} x 80 angle steps"):
            torque_angle_sweep(geometry, materials, curve, 4.0, current_points=points + 1)
        with pytest.raises(ValueError, match=r"current_points 10{30} x 80"):
            torque_angle_sweep(geometry, materials, curve, 4.0, current_points=10**30)

    @pytest.mark.parametrize("step", [math.inf, 1e300, 10.0, 20.0, 0.0, -0.25, math.nan])
    def test_rejects_a_step_giving_fewer_than_four_angles(self, geometry, step):
        with pytest.raises(ValueError, match=r"^angle_step_deg must be finite .* at least 4 steps"):
            angles_for_period(geometry, step)

    def test_sweep_refuses_a_coarse_step_before_solving(self, geometry, materials, curve, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("grid solved before the step was checked")

        monkeypatch.setattr("srmec.torque.solve_nonlinear_grid", never)
        with pytest.raises(ValueError, match="angle_step_deg"):
            torque_angle_sweep(geometry, materials, curve, 4.0, angle_step_deg=10.0)

    def test_angles_for_period_is_half_open(self, geometry):
        angles = angles_for_period(geometry)
        assert angles[0] == 0.0
        assert angles[-1] == pytest.approx(geometry.period_deg - DEFAULT_ANGLE_STEP_DEG)


class TestLinkageBound:
    @pytest.mark.parametrize(
        "turns, current, curve_name",
        [
            (140, 8.0, "default"),
            (140, 0.0, "default"),
            (140, 1e6, "default"),
            # The largest power of ten the default sweep config accepts.
            (10**155, 8.0, "default"),
            (140, 8.0, "linear 4000"),
            # Iron below vacuum permeability, driven past its table, where
            # the chord rises toward mu0.
            (140, 1e6, "below vacuum"),
        ],
    )
    def test_bounds_every_grid_linkage(self, materials, turns, current, curve_name):
        curves = {
            "default": BhCurve.default(),
            "linear 4000": BhCurve.linear(4000.0),
            "below vacuum": BhCurve(field_points=(1e6, 2e6), density_points=(0.5, 1.0)),
        }
        curve = curves[curve_name]
        geometry = MotorGeometry(turns_per_pole=turns)
        angles = angles_for_period(geometry, 2.5)
        currents = np.linspace(0.0, current, 5)
        result = solve_nonlinear_grid(geometry, materials, curve, currents, angles)
        fluxes = result.system_mesh_fluxes[result.system_index]
        linkages = turns * SERIES_COILS * pole_flux(fluxes)
        assert np.max(np.abs(linkages)) <= linkage_bound(geometry, materials, curve, current)

    def test_grows_as_turns_squared_and_overflows_to_inf(self, materials, curve):
        small = linkage_bound(MotorGeometry(turns_per_pole=10**100), materials, curve, 8.0)
        large = linkage_bound(MotorGeometry(turns_per_pole=10**101), materials, curve, 8.0)
        assert large == pytest.approx(100.0 * small, rel=1e-12)
        assert linkage_bound(MotorGeometry(turns_per_pole=10**300), materials, curve, 8.0) == math.inf

    @pytest.mark.parametrize(
        "geometry",
        [
            {"pm_length": 1e-100, "pm_width": 1e300},
            {"stack_length": 1e300, "stator_outer_diameter": 1e100},
        ],
        ids=["vanishing_magnet", "vanishing_pole"],
    )
    def test_a_vanishing_least_reluctance_bounds_nothing(self, materials, curve, geometry):
        # The magnet's or the pole's reluctance underflows to zero: inf,
        # where it once divided by zero.
        assert linkage_bound(MotorGeometry(**geometry), materials, curve, 8.0) == math.inf

    def test_sweeps_refuse_an_overflowing_linkage_before_the_grid(self, materials, curve, monkeypatch):
        # Refused by name, before any grid solve and without a numpy
        # overflow warning (which the suite turns into an error).
        import srmec.torque

        def no_grid(*args):
            raise AssertionError("the grid ran")

        monkeypatch.setattr(srmec.torque, "solve_nonlinear_grid", no_grid)
        geometry = MotorGeometry(turns_per_pole=10**300)
        refused = r"^turns_per_pole = 1e\+300 at 2 A could overflow the flux linkage$"
        with pytest.raises(ValueError, match=refused):
            torque_angle_sweeps(geometry, materials, curve, (0.0, 1.0, 2.0), 3, 5.0)

    def test_sweeps_check_the_largest_current_only_after_the_grid_size(self, materials, curve):
        geometry = MotorGeometry(turns_per_pole=10**300)
        with pytest.raises(ValueError, match="current_points must be >= 2"):
            torque_angle_sweeps(geometry, materials, curve, (2.0,), 1, 5.0)
        # Zero current solves nothing, so nothing can overflow.
        (zero,) = torque_angle_sweeps(geometry, materials, curve, (0.0,), 3, 5.0)
        assert np.all(zero.samples == 0.0)


class TestTorqueAngleSweep:
    def test_zero_current_curve_is_identically_zero(self, sweeps):
        curve0 = sweeps[0.0]
        assert np.all(curve0.samples == 0.0)
        assert curve0.mean_torque == 0.0
        assert curve0.stroke_mean_torque == 0.0
        assert curve0.peak_torque == 0.0

    def test_period_mean_vanishes(self, sweeps):
        # Central differences of a periodic coenergy telescope; the
        # period mean is zero to rounding at every current.
        for current in (2.0, 4.0, 8.0):
            curve = sweeps[current]
            assert abs(curve.mean_torque) <= 1e-10 * curve.peak_torque

    def test_torque_vanishes_at_aligned_and_unaligned(self, sweeps):
        # Both positions are symmetry axes of the gap permeance, so the
        # neighboring coenergy samples match exactly.
        for current in (2.0, 4.0, 8.0):
            curve = sweeps[current]
            aligned_index = int(round(ALIGNED / DEFAULT_ANGLE_STEP_DEG))
            assert curve.samples[0] == 0.0
            assert curve.samples[aligned_index] == 0.0

    def test_stroke_mean_grows_with_current(self, sweeps):
        assert 0.0 < sweeps[2.0].stroke_mean_torque
        assert sweeps[2.0].stroke_mean_torque < sweeps[4.0].stroke_mean_torque
        assert sweeps[4.0].stroke_mean_torque < sweeps[8.0].stroke_mean_torque

    def test_peak_bounds_mean(self, sweeps):
        for current in (2.0, 4.0, 8.0):
            curve = sweeps[current]
            assert curve.peak_torque >= abs(curve.stroke_mean_torque)
            assert curve.peak_torque > 0.0

    def test_rerun_is_byte_identical(self, geometry, materials, curve, sweeps):
        again = torque_angle_sweep(geometry, materials, curve, 4.0)
        assert np.array_equal(again.samples, sweeps[4.0].samples)
        assert again.stroke_mean_torque == sweeps[4.0].stroke_mean_torque

    @pytest.mark.parametrize("remanence", [None, 0.0], ids=["default_magnets", "no_magnets"])
    def test_one_current_sweeps_equal_the_joint_default_sweep(
        self, geometry, materials, curve, remanence
    ):
        # The elimination rounds a mesh system the same in any batch, so a
        # curve does not depend on which other currents share its grid.
        # The one difference left, the Newton residual's product on a lone
        # row, meets none of these curves.
        if remanence is not None:
            materials = replace(materials, pm_remanence=remanence)
        joint = torque_angle_sweeps(geometry, materials, curve, DEFAULT_SWEEP_CURRENTS)
        for swept in joint:
            (alone,) = torque_angle_sweeps(geometry, materials, curve, (swept.current,))
            assert alone.samples.tobytes() == swept.samples.tobytes()

    def test_halved_angle_step_agrees_at_midstroke(
        self, geometry, materials, curve, sweeps
    ):
        # Virtual-work consistency: the finite-difference torque at a
        # smooth interior angle is step-size independent to O(h^2).
        fine = torque_angle_sweep(geometry, materials, curve, 4.0, angle_step_deg=0.125)
        theta = 5.0
        coarse_sample = sweeps[4.0].samples[int(round(theta / DEFAULT_ANGLE_STEP_DEG))]
        fine_sample = fine.samples[int(round(theta / 0.125))]
        assert fine_sample == pytest.approx(coarse_sample, rel=0.01)

    def test_rejects_negative_current(self, geometry, materials, curve):
        with pytest.raises(ValueError, match="nonnegative"):
            torque_angle_sweep(geometry, materials, curve, -1.0)

    def test_linkage_and_mmf_count_the_same_turns(self, geometry, materials, curve, sweeps):
        # Doubling the turns and halving the current keeps every MMF and
        # doubles every linkage over half-width current cells, all
        # exactly, so the torque is unchanged to the bit; a linkage that
        # counted other turns than the MMF would scale it.
        doubled = replace(geometry, turns_per_pole=2 * geometry.turns_per_pole)
        again = torque_angle_sweep(doubled, materials, curve, 2.0)
        assert np.array_equal(again.samples, sweeps[4.0].samples)

    def test_curve_shape_validation(self):
        with pytest.raises(ValueError, match="matching shapes"):
            TorqueCurve(
                current=1.0,
                angles=np.arange(4.0),
                samples=np.zeros(3),
                mean_torque=0.0,
                stroke_mean_torque=0.0,
                peak_torque=0.0,
            )


class TestTorqueComponents:
    def test_split_is_self_consistent(self, geometry, materials, curve):
        parts = torque_components(geometry, materials, curve, 8.0)
        assert parts.current == 8.0
        assert parts.pm_contribution == parts.total - parts.coil_only
        assert parts.total > 0.0 and parts.coil_only > 0.0

    def test_curves_are_the_two_separate_sweeps(self, geometry, materials, curve):
        options = dict(current_points=9, angle_step_deg=1.0)
        parts = torque_components(geometry, materials, curve, 5.0, **options)
        no_pm = replace(materials, pm_remanence=0.0)
        for got, mats in ((parts.total_curve, materials), (parts.coil_curve, no_pm)):
            want = torque_angle_sweep(geometry, mats, curve, 5.0, **options)
            assert got.angles.tobytes() == want.angles.tobytes()
            assert got.samples.tobytes() == want.samples.tobytes()
            assert (got.mean_torque, got.stroke_mean_torque, got.peak_torque) == (
                want.mean_torque,
                want.stroke_mean_torque,
                want.peak_torque,
            )
        assert parts.total == parts.total_curve.stroke_mean_torque
        assert parts.coil_only == parts.coil_curve.stroke_mean_torque

    def test_magnets_help_more_at_high_current(self, geometry, materials, curve):
        # The saturation-diversion mechanism: the magnet share of the
        # mean torque rises steeply once the yoke saturates.
        low = torque_components(geometry, materials, curve, 2.0)
        high = torque_components(geometry, materials, curve, 8.0)
        assert high.pm_share > low.pm_share

    def test_zero_remanence_has_zero_pm_contribution(self, geometry, curve):
        no_pm = MaterialSet(pm_remanence=0.0)
        parts = torque_components(geometry, no_pm, curve, 4.0)
        assert parts.pm_contribution == 0.0

    def test_many_currents_match_per_current_calls(self, geometry, materials, curve):
        # One grid solve per magnet state covers all eight current rows.
        # Its batches differ from the per-current solves', so the curves
        # agree to rounding rather than bit for bit.
        splits = torque_component_sweeps(geometry, materials, curve, DEFAULT_SWEEP_CURRENTS)
        assert [split.current for split in splits] == list(DEFAULT_SWEEP_CURRENTS)
        for split in splits:
            want = torque_components(geometry, materials, curve, split.current)
            for got, expected in (
                (split.total_curve, want.total_curve),
                (split.coil_curve, want.coil_curve),
            ):
                assert got.angles.tobytes() == expected.angles.tobytes()
                error = np.max(np.abs(got.samples - expected.samples))
                assert error <= 1e-12 * np.max(np.abs(expected.samples))

    def test_zero_current_beside_others_solves_nothing_for_it(self, geometry, materials, curve):
        options = dict(current_points=9, angle_step_deg=1.0)
        zero, four = torque_component_sweeps(geometry, materials, curve, (0.0, 4.0), **options)
        assert zero.total == zero.coil_only == 0.0
        assert not np.any(zero.total_curve.samples)
        alone = torque_components(geometry, materials, curve, 4.0, **options)
        assert four.total_curve.samples.tobytes() == alone.total_curve.samples.tobytes()
        assert four.coil_curve.samples.tobytes() == alone.coil_curve.samples.tobytes()

    def test_share_undefined_at_zero_torque(self, geometry, materials, curve):
        parts = torque_components(geometry, materials, curve, 0.0)
        assert parts.total == 0.0
        with pytest.raises(ZeroDivisionError):
            parts.pm_share


class TestMagnetBiasDelaysTheRollover:
    """The cause criterion 5b's message gives, as a model property: the
    shared-pole magnet bias delays the rollover of the stroke-mean torque
    increments.  On the default design with only the remanence changed,
    the increments fall from 4 A on without magnets, and their peak moves
    to a higher current as the remanence rises.  Criterion 5b itself, its
    data and its bound are left as they are."""

    @pytest.fixture(scope="class")
    def increments(self, geometry, materials, curve):
        """Stroke-mean increments between the default sweep currents,
        keyed by remanence, T."""
        steps = {}
        for remanence in (0.0, 0.6, 1.2):
            mats = replace(materials, pm_remanence=remanence)
            splits = torque_component_sweeps(geometry, mats, curve, DEFAULT_SWEEP_CURRENTS)
            means = [split.total for split in splits]
            steps[remanence] = [b - a for a, b in zip(means, means[1:])]
        return steps

    def test_without_magnets_the_increments_from_4_a_do_not_rise(self, increments):
        tail = increments[0.0][DEFAULT_SWEEP_CURRENTS.index(4.0) :]
        assert all(b <= a for a, b in zip(tail, tail[1:])), tail

    @pytest.mark.parametrize("remanence, peak", [(0.0, 4.0), (0.6, 5.0), (1.2, 6.0)])
    def test_the_increment_peak_moves_up_with_the_remanence(self, increments, remanence, peak):
        """The largest increment is the one from peak to peak + 1 A."""
        steps = increments[remanence]
        assert DEFAULT_SWEEP_CURRENTS[steps.index(max(steps))] == peak, steps


# Stroke-mean and peak torque (N*m) of the default 8-current sweep as the
# original chord fixed-point solver produced them.  A solver that lands
# on the same fixed point (flux tolerance 1e-8) reproduces them far more
# closely than the tolerance below.
SWEEP_REFERENCE = {
    1.0: (0.076250879254232934, 0.17922479895818502),
    2.0: (0.29066297404092717, 0.66933981838633572),
    3.0: (0.64431469437108624, 1.47832812131379),
    4.0: (1.1371172797076754, 2.6071763339979643),
    5.0: (1.7623226854739735, 4.0561944984344187),
    6.0: (2.4637241411739246, 5.824315197840674),
    7.0: (3.1817535009389726, 7.9110765842939976),
    8.0: (3.8916243225194145, 10.316779701328127),
}


def test_default_sweep_matches_reference_torques(geometry, materials, curve):
    for current, (stroke_mean, peak) in SWEEP_REFERENCE.items():
        sweep = torque_angle_sweep(geometry, materials, curve, current)
        assert sweep.stroke_mean_torque == pytest.approx(stroke_mean, rel=1e-6, abs=0.0)
        assert sweep.peak_torque == pytest.approx(peak, rel=1e-6, abs=0.0)


def mirrored(samples):
    """The samples at 2*theta_a - theta, theta_a = period / 2: on a grid of
    N angles k * step over one period, sample k's mirror is (N - k) mod N."""
    return np.roll(samples[::-1], 1)


@st.composite
def whole_degree_sweeps(draw):
    """(geometry, currents, step): a random geometry whose rotor period is
    a whole number of degrees, two distinct currents, and the smallest
    whole-degree step that divides the period into at most 30 angles."""
    geometry = draw(geometries())
    poles = draw(st.sampled_from([p for p in range(3, 61) if 360 % p == 0]))
    arc = geometry.rotor_pole_arc / geometry.period_deg * (360.0 / poles)
    geometry = replace(geometry, rotor_poles_count=poles, rotor_pole_arc=arc)
    period = 360 // poles
    step = min(d for d in range(1, period + 1) if period % d == 0 and period // d <= 30)
    currents = draw(st.lists(decades(0.1, 10.0), min_size=2, max_size=2, unique=True))
    return geometry, currents, float(step)


class TestTorqueIsOddAboutAlignment:
    """T(theta) = -T(2 theta_a - theta).  The gap model reads the rotor
    angle only through its distance from alignment, so two mirrored
    angles whose distances round alike share one system and one
    coenergy, and their central differences are exact negatives.  On a
    whole-degree period at a whole or dyadic step every angle and
    distance is exact, so the curves are odd bit for bit, not to a
    bound; only the zero samples at the unaligned and aligned angles may
    differ in the sign of zero, which == ignores."""

    def test_default_sweeps_are_odd(self, sweeps):
        for swept in sweeps.values():
            assert np.array_equal(swept.samples, -mirrored(swept.samples))

    def test_default_design_is_odd_at_one_degree_steps(self, geometry, materials, curve):
        for swept in torque_angle_sweeps(geometry, materials, curve, (2.0, 8.0), angle_step_deg=1.0):
            assert swept.peak_torque > 0.0
            assert np.array_equal(swept.samples, -mirrored(swept.samples))

    @settings(design_settings, max_examples=50)
    @given(whole_degree_sweeps())
    def test_random_designs_are_odd(self, drawn):
        geometry, currents, step = drawn
        curves = torque_angle_sweeps(
            geometry, MaterialSet(), BhCurve.default(), currents, current_points=3, angle_step_deg=step
        )
        for swept in curves:
            assert np.array_equal(swept.samples, -mirrored(swept.samples))
