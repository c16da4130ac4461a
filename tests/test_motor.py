"""Tests for the machine-specific circuit construction and closed forms."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from srmec import motor, network
from srmec.exact import solve_exact
from srmec.fidelity import run_fidelity_audit, sample_regime_case
from srmec.motor import (
    ELEMENT_ORDER,
    FRINGING_PERMEANCE_FRACTION,
    IRON_ELEMENT_IDS,
    MU0,
    TOPOLOGY,
    BranchFluxes,
    MaterialSet,
    MeshFluxes,
    MotorGeometry,
    OperatingPoint,
    ReluctanceSet,
    SourceSet,
    airgap_reluctance,
    branch_fluxes,
    build_network,
    closed_form_branch_fluxes,
    closed_form_mesh_fluxes,
    composite_reluctances,
    element_reluctances,
    gap_area_m2,
    regime_check,
    reluctance_range,
    reluctances_from_geometry,
    part_values,
    solve_flux,
    solve_superposition,
    source_values,
    sources_for,
)
from srmec.network import (
    REFINEMENT_STEPS,
    SMALLEST_RHS,
    MeshSystem,
    SolveError,
    kirchhoff_residual,
    solve_linear,
)

# Gap reluctance of the default geometry at alignment, evaluated by hand
# from the documented overlap model: full overlap 4.87 deg, mean gap
# radius (70 - 4.72 - 16.12 - 0.15) mm, stack 20 mm, gap 0.3 mm.
ALIGNED_GAP_RELUCTANCE = 2865433.696369973

# Exact rational-elimination solution of the five-mesh system at sample
# values r_sy=1000, r_sp=2000, r_ry=1500, r_g=50000, r_pm=8e5 A/Wb,
# f_e=1120 At, f_pm=default 4547.284088339868 At (frozen oracle output).
SAMPLE_MESH_FLUXES = [
    -0.015319070075061265,
    0.001603647072033318,
    0.001603647072033318,
    0.005932063534165931,
    0.00024764886266276777,
]


def default_pair():
    return MotorGeometry(), MaterialSet()


def split(s):
    """The total, coil-only and magnet-only source sets of s."""
    return s, SourceSet(f_e=s.f_e, f_pm=0.0), SourceSet(f_e=0.0, f_pm=s.f_pm)


def between(low, high):
    return st.floats(min_value=low, max_value=high)


def decades(low, high):
    """Floats from low to high drawn through their base-10 exponent, so
    every decade is drawn and the mantissa bits spread; a plain float
    range draws mostly from its top decade."""
    return between(math.log10(low), math.log10(high)).map(lambda e: min(max(10.0**e, low), high))


# Every decade from a milliampere up, and the whole range from zero,
# whose draws reach subnormal coil MMFs.
currents = st.one_of(decades(1e-3, 50.0), between(0.0, 50.0))


@st.composite
def geometries(draw):
    """A random valid geometry.  Lengths are drawn as fractions of the
    outer radius that always leave a rotor core and a narrow gap, arcs
    as fractions of their pitch, so every draw passes the validators.
    A value whose range spans a decade is drawn through its exponent."""
    diameter = draw(decades(40.0, 400.0))
    radius = diameter / 2.0
    teeth = draw(st.integers(min_value=3, max_value=60))
    poles = draw(st.integers(min_value=3, max_value=60))
    geometry = MotorGeometry(
        stator_outer_diameter=diameter,
        stator_yoke_thickness=radius * draw(between(0.02, 0.15)),
        stator_pole_height=radius * draw(between(0.05, 0.3)),
        airgap_length=diameter * draw(decades(5e-4, 9.9e-3)),
        rotor_pole_height=radius * draw(decades(0.02, 0.2)),
        stator_tooth_arc=360.0 / teeth * draw(between(0.05, 0.95)),
        rotor_pole_arc=360.0 / poles * draw(between(0.05, 0.95)),
        stack_length=draw(decades(2.0, 300.0)),
        pm_width=draw(decades(0.5, 30.0)),
        pm_length=draw(decades(0.5, 30.0)),
        turns_per_pole=draw(st.integers(min_value=1, max_value=2000)),
        stator_teeth_count=teeth,
        rotor_poles_count=poles,
    )
    return geometry


@st.composite
def designs(draw):
    """(reluctances, sources) of a random valid design at a random
    current and rotor angle."""
    geometry = draw(geometries())
    materials = MaterialSet(
        iron_relative_permeability=draw(decades(1.0, 20000.0)),
        pm_remanence=draw(between(0.0, 1.6)),
        pm_relative_permeability=draw(between(1.0, 1.3)),
    )
    current = draw(currents)
    angle = draw(st.floats(min_value=0.0, max_value=geometry.period_deg, exclude_max=True))
    r = reluctances_from_geometry(geometry, materials, angle)
    s = sources_for(geometry, materials, current)
    assume(s.f_e > 0.0 or s.f_pm > 0.0)
    return r, s


@st.composite
def designs_at_a_permeability(draw):
    """(geometry, materials, iron permeability H/m, gap reluctance A/Wb)."""
    materials = MaterialSet(pm_relative_permeability=draw(between(1.0, 1.3)))
    iron = MU0 * draw(decades(1.0, 20000.0))
    return draw(geometries()), materials, iron, draw(decades(1e3, 1e9))


# Reproducible draws, and no shrink or explain phase: a failure is
# reported as drawn.
design_settings = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    phases=(Phase.explicit, Phase.generate),
)


class TestGeometryAndMaterials:
    def test_defaults_are_self_consistent(self):
        geom = MotorGeometry()
        assert geom.period_deg == 20.0
        assert geom.aligned_angle_deg == 10.0
        assert geom.bore_radius_m == pytest.approx(49.16e-3)

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError, match="stack_length"):
            MotorGeometry(stack_length=0.0)

    def test_arc_wider_than_pitch_rejected(self):
        with pytest.raises(ValueError, match="rotor_pole_arc"):
            MotorGeometry(rotor_pole_arc=25.0)

    def test_wide_airgap_warns(self):
        with pytest.warns(UserWarning, match="airgap_length"):
            MotorGeometry(airgap_length=2.0)

    def test_impossible_radial_stack_rejected(self):
        with pytest.raises(ValueError, match="stator radius"):
            MotorGeometry(stator_pole_height=80.0)

    def test_derived_coercivity(self):
        mats = MaterialSet()
        expected = 1.2 / (MU0 * 1.05)
        assert mats.coercivity == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize(
        "field",
        ["iron_relative_permeability", "pm_relative_permeability", "pm_remanence"],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.5])
    def test_material_rejects_non_finite_or_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            MaterialSet(**{field: value})

    def test_material_accepts_its_bounds(self):
        mats = MaterialSet(
            iron_relative_permeability=1.0,
            pm_relative_permeability=1.0,
            pm_remanence=0.0,
        )
        assert mats.coercivity == 0.0

    def test_operating_point_validation(self):
        geom = MotorGeometry()
        with pytest.raises(ValueError, match="nonnegative"):
            OperatingPoint(phase_current=-1.0, rotor_angle=0.0)
        OperatingPoint(phase_current=1.0, rotor_angle=19.99).validate_for(geom)
        with pytest.raises(ValueError, match="outside"):
            OperatingPoint(phase_current=1.0, rotor_angle=20.0).validate_for(geom)

    def test_sources_scale_with_current(self):
        geom, mats = default_pair()
        s = sources_for(geom, mats, 8.0)
        assert s.f_e == pytest.approx(140 * 8.0)
        assert s.f_pm == pytest.approx(mats.coercivity * 5e-3, rel=1e-15)
        with pytest.raises(ValueError, match="nonnegative"):
            sources_for(geom, mats, -0.5)


class TestReluctanceMapping:
    def test_all_positive_and_pm_dominant(self):
        geom, mats = default_pair()
        r = reluctances_from_geometry(geom, mats, geom.aligned_angle_deg)
        for value in (r.r_sy, r.r_sp, r.r_ry, r.r_g, r.r_pm):
            assert value > 0
        assert r.r_pm / r.r_sp > 100

    def test_doubling_stack_halves_every_reluctance(self):
        geom, mats = default_pair()
        doubled = MotorGeometry(stack_length=geom.stack_length * 2)
        for angle in (0.0, 7.5, geom.aligned_angle_deg):
            r1 = reluctances_from_geometry(geom, mats, angle)
            r2 = reluctances_from_geometry(doubled, mats, angle)
            for name in ("r_sy", "r_sp", "r_ry", "r_g", "r_pm"):
                assert getattr(r2, name) == pytest.approx(getattr(r1, name) / 2.0, rel=1e-14)

    def test_aligned_gap_reluctance_regression(self):
        geom = MotorGeometry()
        assert airgap_reluctance(geom, geom.aligned_angle_deg) == pytest.approx(
            ALIGNED_GAP_RELUCTANCE, rel=1e-12
        )

    def test_gap_reluctance_extremes_and_midpoints(self):
        geom = MotorGeometry()
        aligned = airgap_reluctance(geom, geom.aligned_angle_deg)
        unaligned = airgap_reluctance(geom, 0.0)
        # 5% permeance floor caps the ratio at exactly 20.
        assert unaligned == pytest.approx(20.0 * aligned, rel=1e-12)
        flank = airgap_reluctance(geom, 7.5)
        assert aligned < flank < unaligned

    def test_gap_reluctance_periodic_and_continuous(self):
        geom = MotorGeometry()
        angles = np.linspace(0.0, geom.period_deg, 401)
        values = airgap_reluctance(geom, angles)
        shifted = airgap_reluctance(geom, angles + geom.period_deg)
        assert np.allclose(values, shifted, rtol=1e-12)
        # Permeance is piecewise linear in angle, so on a fine grid the
        # largest step stays proportional to the grid spacing.
        permeance = 1.0 / values
        assert np.max(np.abs(np.diff(permeance))) < 0.05 * np.max(permeance)

    def test_regime_table_geometry_passes_at_aligned(self):
        geom, mats = default_pair()
        report = regime_check(reluctances_from_geometry(geom, mats, geom.aligned_angle_deg))
        assert report.all_pass
        assert set(report.ratios) == {
            "pm_over_two_poles",
            "pm_over_pole_plus_yoke",
            "three_pm_over_excited_loop",
            "pm_over_yoke",
        }

    def test_regime_synthetic_cases(self):
        passing = regime_check(ReluctanceSet(r_sy=1e3, r_sp=1e3, r_ry=1e3, r_g=1e3, r_pm=1e6))
        assert passing.all_pass
        assert min(passing.ratios.values()) >= 100
        failing = regime_check(ReluctanceSet(r_sy=1e3, r_sp=1e3, r_ry=1e3, r_g=1e3, r_pm=1e3))
        assert failing.ratios["pm_over_two_poles"] == pytest.approx(0.5)
        assert not failing.all_pass
        assert not failing.passes["pm_over_two_poles"]


class TestNetworkStructure:
    def test_golden_pattern_distinct_primes(self):
        # Distinct primes make every coefficient uniquely attributable.
        a, p, g, r, m = 2.0, 3.0, 5.0, 7.0, 11.0
        f_e, f_pm = 13.0, 17.0
        system = build_network(
            ReluctanceSet(r_sy=a, r_sp=p, r_ry=r, r_g=g, r_pm=m),
            SourceSet(f_e=f_e, f_pm=f_pm),
        )
        expected_matrix = np.array(
            [
                [a + 2 * p + 2 * g + r, -p, -p, -2 * g - r, 0.0],
                [-p, a + p + m, 0.0, -m, 0.0],
                [-p, 0.0, a + p + m, -m, 0.0],
                [-2 * g - r, -m, -m, 2 * a + 3 * m + 2 * g + r, -m],
                [0.0, 0.0, 0.0, -m, m + a],
            ]
        )
        expected_rhs = np.array([-2 * f_e, f_e - f_pm, f_e - f_pm, 3 * f_pm, -f_pm])
        assert np.array_equal(system.matrix, expected_matrix)
        assert np.array_equal(system.rhs, expected_rhs)

    def test_no_excitation_gives_zero_fluxes(self):
        system = build_network(
            ReluctanceSet(r_sy=1e3, r_sp=2e3, r_ry=3e3, r_g=4e3, r_pm=5e5),
            SourceSet(f_e=0.0, f_pm=0.0),
        )
        assert np.all(system.rhs == 0.0)
        assert np.all(solve_linear(system).values == 0.0)

    def test_mesh_2_3_swap_invariance(self):
        r = ReluctanceSet(r_sy=1e3, r_sp=2e3, r_ry=3e3, r_g=4e3, r_pm=5e5)
        s = SourceSet(f_e=700.0, f_pm=4000.0)
        system = build_network(r, s)
        perm = np.array([0, 2, 1, 3, 4])
        swapped_matrix = system.matrix[np.ix_(perm, perm)]
        swapped_rhs = system.rhs[perm]
        assert np.array_equal(swapped_matrix, system.matrix)
        assert np.array_equal(swapped_rhs, system.rhs)
        phi = solve_linear(system).values
        assert phi[1] == phi[2]

    def test_sample_system_matches_frozen_oracle(self):
        r = ReluctanceSet(r_sy=1000.0, r_sp=2000.0, r_ry=1500.0, r_g=50000.0, r_pm=8e5)
        s = SourceSet(f_e=1120.0, f_pm=4547.284088339868)
        phi = solve_linear(build_network(r, s))
        assert phi.values == pytest.approx(SAMPLE_MESH_FLUXES, rel=1e-12)

    def test_sample_system_against_live_oracle(self):
        # Same check without frozen constants: exact elimination on the
        # float matrix itself.
        r = ReluctanceSet(r_sy=1000.0, r_sp=2000.0, r_ry=1500.0, r_g=50000.0, r_pm=8e5)
        s = SourceSet(f_e=1120.0, f_pm=4547.284088339868)
        system = build_network(r, s)
        phi = solve_linear(system)
        exact = solve_exact(system.matrix, system.rhs).rounded()
        assert phi.values == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("current, angle", [(1e-305, 10.0), (1e-315, 0.0)])
    def test_right_hand_side_too_small_to_round_is_refused(self, current, angle):
        # Here the residuals underflow into the subnormal range, and the
        # refined fluxes once came out an ulp off the exact solution.
        geom, mats = MotorGeometry(), MaterialSet(pm_remanence=0.0)
        system = build_network(reluctances_from_geometry(geom, mats, angle), sources_for(geom, mats, current))
        with pytest.raises(SolveError, match=r"right-hand side below 1\.13e-277, too small to round exactly"):
            solve_linear(system)

    def test_right_hand_side_above_the_floor_rounds_exactly(self):
        geom, mats = MotorGeometry(), MaterialSet(pm_remanence=0.0)
        system = build_network(reluctances_from_geometry(geom, mats, 10.0), sources_for(geom, mats, 1e-270))
        got = solve_linear(system).values
        assert got.tobytes() == solve_exact(system.matrix, system.rhs).rounded().tobytes()


class TestBranchFluxesAndDecomposition:
    def test_branch_map_is_exact(self):
        out = branch_fluxes(MeshFluxes(values=np.array([-1.0, 1.0, 0.5, 2.0, 0.1])))
        assert out == BranchFluxes(phi_sy=1.0, phi_sp=2.0, phi_g=3.0)
        zero = branch_fluxes(MeshFluxes(values=np.zeros(5)))
        assert zero == BranchFluxes(phi_sy=0.0, phi_sp=0.0, phi_g=0.0)

    def test_superposition_decomposition(self):
        geom, mats = default_pair()
        r = reluctances_from_geometry(geom, mats, geom.aligned_angle_deg)
        s = sources_for(geom, mats, 4.0)
        sol = solve_flux(r, s)
        total = sol.coil_mesh_fluxes + sol.pm_mesh_fluxes
        scale = np.max(np.abs(sol.mesh_fluxes))
        assert np.max(np.abs(total - sol.mesh_fluxes)) / scale < 1e-10
        assert sol.residual <= 1e-12

    def test_split_rhs_equal_object_assembler_bit_for_bit(self):
        # The split solve stamps its right-hand sides through the
        # topology pattern; they must be those of the assembled parts.
        rng = np.random.default_rng([108, 0])
        for _ in range(300):
            r, s = sample_regime_case(rng, 10.0)
            stamped = part_values(s) @ TOPOLOGY.rhs_pattern
            for row, part in zip(stamped, split(s)):
                assert row.tobytes() == build_network(r, part).rhs.tobytes()

    def test_solve_flux_equals_three_assembled_networks(self):
        rng = np.random.default_rng([108, 1])
        for _ in range(100):
            assert_three_assembled_networks(*sample_regime_case(rng, 10.0))

    @settings(design_settings, max_examples=100)
    @given(designs())
    def test_random_designs_equal_three_assembled_networks(self, design):
        assert_three_assembled_networks(*design)

    def test_split_parts(self):
        expected = [source_values(part) for part in split(SourceSet(f_e=2.0, f_pm=3.0))]
        assert part_values(SourceSet(f_e=2.0, f_pm=3.0)).tobytes() == np.array(expected).tobytes()

    def test_zero_current_kills_coil_part(self):
        geom, mats = default_pair()
        r = reluctances_from_geometry(geom, mats, 5.0)
        sol = solve_flux(r, sources_for(geom, mats, 0.0))
        assert np.all(sol.coil_mesh_fluxes == 0.0)
        assert np.any(sol.pm_mesh_fluxes != 0.0)


def assert_three_assembled_networks(r, s):
    """solve_flux(r, s) against its reference: the split as three
    separately assembled networks, the way solve_flux computed it before
    it shared one matrix, and the total's residual as kirchhoff_residual
    measures it, bit for bit."""
    systems = [build_network(r, part) for part in split(s)]
    if any(too_small(system.rhs) for system in systems):
        with pytest.raises(SolveError, match="too small to round exactly"):
            solve_flux(r, s)
        return
    got = solve_flux(r, s)
    total, coil, pm = (solve_linear(system).values for system in systems)
    assert got.mesh_fluxes.tobytes() == total.tobytes()
    assert got.coil_mesh_fluxes.tobytes() == coil.tobytes()
    assert got.pm_mesh_fluxes.tobytes() == pm.tobytes()
    assert got.residual.hex() == kirchhoff_residual(systems[0], MeshFluxes(values=total)).hex()


def too_small(rhs) -> bool:
    """Whether solve_linear refuses this right-hand side as too small to
    round its solution exactly."""
    return 0.0 < np.max(np.abs(rhs)) < SMALLEST_RHS


def at_current(current):
    """(reluctances, sources) of the default design at a current."""
    geometry, materials = default_pair()
    return reluctances_from_geometry(geometry, materials, 7.5), sources_for(geometry, materials, current)


# The default design at coil currents that the plain range's draws have
# reached: a subnormal coil MMF, whose coil part is too small to solve
# beside a normal total, and a normal one of about 1e-200 At.
SUBNORMAL_COIL, TINY_COIL = at_current(5e-313), at_current(1e-202)


class TestRandomDesigns:
    @design_settings
    @given(designs())
    @example(SUBNORMAL_COIL)
    @example(TINY_COIL)
    def test_linear_solve_is_the_correctly_rounded_exact_solution(self, design):
        system = build_network(*design)
        if too_small(system.rhs):
            with pytest.raises(SolveError, match="too small to round exactly"):
                solve_linear(system)
            return
        got = solve_linear(system).values
        assert got.tobytes() == solve_exact(system.matrix, system.rhs).rounded().tobytes()

    @design_settings
    @given(designs())
    @example(SUBNORMAL_COIL)
    @example(TINY_COIL)
    def test_coil_and_magnet_parts_sum_to_the_total(self, design):
        # Each part is a correctly rounded exact solution: half an ulp
        # of its own size.  The three right-hand sides round separately
        # (f_e - f_pm, 3 f_pm), so the exact total differs from the exact
        # parts' sum by the solve of that rounding, taken here exactly.
        # The half ulps scale with the parts, never with the total,
        # which may cancel.
        r, s = design
        system = build_network(r, s)
        coil_rhs, pm_rhs = (
            source_values(part) @ TOPOLOGY.rhs_pattern
            for part in (SourceSet(f_e=s.f_e, f_pm=0.0), SourceSet(f_e=0.0, f_pm=s.f_pm))
        )
        if any(too_small(rhs) for rhs in (system.rhs, coil_rhs, pm_rhs)):
            with pytest.raises(SolveError, match="too small to round exactly"):
                solve_flux(r, s)
            return
        rounding = [Fraction(t) - Fraction(c) - Fraction(p) for t, c, p in zip(system.rhs, coil_rhs, pm_rhs)]
        shift = np.abs(solve_exact(system.matrix, rounding).rounded()) if any(rounding) else np.zeros(5)
        solution = solve_flux(r, s)
        coil, pm = solution.coil_mesh_fluxes, solution.pm_mesh_fluxes
        bound = 1.01 * shift + 2.01 * np.finfo(float).eps * (np.abs(coil) + np.abs(pm))
        assert np.all(np.abs(solution.mesh_fluxes - (coil + pm)) <= bound)


def counted(monkeypatch, owner, name) -> list:
    """Replace owner.name with a wrapper that records each call's
    arguments in the returned list."""
    calls, original = [], getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestReportedResidual:
    """solve_superposition reports the residual that solve_linear's
    refinement measured, and it is kirchhoff_residual's value bit for
    bit, also where the last correction moved a value (over random
    designs, see test_random_designs_equal_three_assembled_networks)."""

    def test_a_moved_system_is_measured_once_more(self, monkeypatch):
        geometry, materials = default_pair()
        s = sources_for(geometry, materials, 2.0)
        system = build_network(reluctances_from_geometry(geometry, materials, 10.0), s)
        plain = solve_superposition(system.matrix, s)
        solve, corrections = np.linalg.solve, []

        def nudged(a, b):
            # The initial solve comes first, then one correction per
            # refinement step; the last one moves the total (the first
            # system of the stack) by a ppm.
            x = solve(a, b)
            corrections.append(len(x))
            if len(corrections) == 1 + REFINEMENT_STEPS:
                x[0] += 1e-6 * np.abs(plain.mesh_fluxes)[:, None]
            return x

        returned = []

        def kept(stack):
            returned.append(solve_linear(stack))
            return returned[-1]

        monkeypatch.setattr(np.linalg, "solve", nudged)
        monkeypatch.setattr(motor, "solve_linear", kept)
        kirchhoff = counted(monkeypatch, network, "kirchhoff_residual")
        solution = solve_superposition(system.matrix, s)
        assert len(corrections) == 1 + REFINEMENT_STEPS
        assert kirchhoff == []
        assert not np.array_equal(solution.mesh_fluxes, plain.mesh_fluxes)
        (fluxes,) = returned
        parts = part_values(s) @ TOPOLOGY.rhs_pattern
        for rhs, values, residual in zip(parts, fluxes.values, fluxes.residuals):
            exact = network._exact_residual_vector(MeshSystem(system.matrix, rhs), values)
            assert residual.tobytes() == exact.tobytes()
        expected = kirchhoff_residual(system, MeshFluxes(solution.mesh_fluxes))
        assert solution.residual.hex() == expected.hex()
        assert solution.residual > plain.residual

    def test_solve_linear_reports_what_it_measured(self):
        geometry, materials = default_pair()
        r = reluctances_from_geometry(geometry, materials, 10.0)
        systems = [build_network(r, sources_for(geometry, materials, i)) for i in (0.0, 2.0, 8.0)]
        stack = MeshSystem(systems[0].matrix, np.array([system.rhs for system in systems]))
        fluxes = solve_linear(stack)
        assert fluxes.residuals.shape == fluxes.values.shape
        for system, values, residual in zip(systems, fluxes.values, fluxes.residuals):
            assert residual.tobytes() == network._exact_residual_vector(system, values).tobytes()
            relative = network.relative_residual(system, MeshFluxes(values, residual))
            assert relative.hex() == kirchhoff_residual(system, MeshFluxes(values)).hex()
        # Measured residuals are optional and take no part in equality.
        assert MeshFluxes(fluxes.values).residuals is None
        assert MeshFluxes(fluxes.values) == fluxes

    def test_one_solve_measures_each_residual_once(self, monkeypatch):
        residuals = counted(monkeypatch, network, "_rounded_residuals")
        kirchhoff = counted(monkeypatch, network, "kirchhoff_residual")
        geometry, materials = default_pair()
        for current, angle in ((0.5, 3.0), (2.0, 10.0), (8.0, 17.5)):
            s = sources_for(geometry, materials, current)
            system = build_network(reluctances_from_geometry(geometry, materials, angle), s)
            residuals.clear()
            solve_superposition(system.matrix, s)
            assert len(residuals) == REFINEMENT_STEPS
        assert kirchhoff == []

    def test_the_audit_measures_no_extra_residual(self, monkeypatch):
        # One production solve of one 50-system stream: one chunk, one
        # residual per refinement step, as before the reported residual
        # reused the measured one.
        residuals = counted(monkeypatch, network, "_rounded_residuals")
        run_fidelity_audit(n_samples=50)
        assert len(residuals) == REFINEMENT_STEPS


def per_call_element_paths(geometry):
    """The element path table as it was computed on every call before the
    geometry kept it (iron paths, and the magnet's length and area):
    {element id: (length m, area m^2)}, the gap's area NaN."""
    stack = geometry.stack_length_m
    yoke_len = 2.0 * math.pi * geometry.stator_yoke_mean_radius_m / geometry.stator_teeth_count
    yoke_area = geometry.stator_yoke_thickness * 1e-3 * stack
    tooth_chord = 2.0 * geometry.bore_radius_m * math.sin(math.radians(geometry.stator_tooth_arc) / 2.0)
    pole_len = geometry.stator_pole_height * 1e-3
    pole_area = tooth_chord * stack
    rotor_len = 2.0 * math.pi * geometry.rotor_yoke_mean_radius_m / geometry.rotor_poles_count
    rotor_area = geometry.rotor_yoke_thickness_m * stack
    pm_area = geometry.pm_width * 1e-3 * geometry.stack_length_m
    specs = {}
    for eid in ELEMENT_ORDER:
        if eid.startswith("sy"):
            specs[eid] = (yoke_len, yoke_area)
        elif eid.startswith("sp"):
            specs[eid] = (pole_len, pole_area)
        elif eid == "ry":
            specs[eid] = (rotor_len, rotor_area)
        elif eid.startswith("g"):
            specs[eid] = (geometry.airgap_length * 1e-3, math.nan)
        else:
            specs[eid] = (geometry.pm_length * 1e-3, pm_area)
    return specs


class TestGeometryConstants:
    """The constants a geometry keeps for its solves equal, bit for bit,
    the expressions each call evaluated before."""

    @design_settings
    @given(geometries())
    def test_gap_floor_is_the_per_call_floor(self, geometry):
        gap = geometry.airgap_length * 1e-3
        aligned_area = gap_area_m2(geometry, geometry.aligned_angle_deg)
        floor = FRINGING_PERMEANCE_FRACTION * MU0 * aligned_area / gap
        assert type(geometry.gap_floor_permeance) is float
        assert geometry.gap_floor_permeance == floor

    @design_settings
    @given(geometries())
    def test_element_table_is_the_per_call_table(self, geometry):
        specs = per_call_element_paths(geometry)
        lengths, areas = geometry.element_paths
        assert lengths.tobytes() == np.array([specs[eid][0] for eid in ELEMENT_ORDER]).tobytes()
        assert areas.tobytes() == np.array([specs[eid][1] for eid in ELEMENT_ORDER]).tobytes()

    @design_settings
    @given(designs_at_a_permeability())
    def test_element_reluctances_are_the_per_call_reluctances(self, design):
        # l/(mu A) as each element's caller once evaluated it: iron at the
        # given permeability, the magnet at its recoil permeability.
        geometry, materials, iron, gap = design
        specs = per_call_element_paths(geometry)
        mu_pm = MU0 * materials.pm_relative_permeability
        expected = []
        for eid in ELEMENT_ORDER:
            length, area = specs[eid]
            if eid in IRON_ELEMENT_IDS:
                expected.append(length / (iron * area))
            elif eid.startswith("g"):
                expected.append(gap)
            else:
                expected.append(geometry.pm_length * 1e-3 / (mu_pm * area))
        values = element_reluctances(geometry, materials, iron, gap)
        assert values.tobytes() == np.array(expected).tobytes()
        gaps = element_reluctances(geometry, materials, iron, np.array([gap, 2.0 * gap]))
        assert gaps.shape == (2, len(ELEMENT_ORDER))
        assert gaps[0].tobytes() == values.tobytes()

    def test_constants_are_kept_per_instance_and_read_only(self):
        geometry = MotorGeometry()
        assert geometry.element_paths is geometry.element_paths
        assert not geometry.element_paths.flags.writeable
        with pytest.raises(ValueError):
            geometry.element_paths[1, 0] = 1.0
        # A changed design computes its own; equal designs stay equal.
        longer = replace(geometry, stack_length=2.0 * geometry.stack_length)
        gap = np.isin(ELEMENT_ORDER, ("g1", "g2"))
        assert np.isnan(longer.element_paths[1][gap]).all()
        assert np.array_equal(longer.element_paths[1][~gap], 2.0 * geometry.element_paths[1][~gap])
        assert longer.gap_floor_permeance == 2.0 * geometry.gap_floor_permeance
        assert MotorGeometry() == geometry and hash(MotorGeometry()) == hash(geometry)

    def test_reluctance_range_is_the_solved_reluctances_at_their_extremes(self):
        geometry, materials = default_pair()
        linear = MU0 * materials.iron_relative_permeability
        ranges = reluctance_range(geometry, materials, (linear, linear))
        # At alignment the gap is least, at unalignment on its floor.
        smallest = reluctances_from_geometry(geometry, materials, geometry.aligned_angle_deg)
        largest = reluctances_from_geometry(geometry, materials, geometry.unaligned_angle_deg)
        assert ranges == {
            key: (getattr(smallest, key), getattr(largest, key))
            for key in ("r_sy", "r_sp", "r_ry", "r_g", "r_pm")
        }
        gaps = airgap_reluctance(geometry, np.linspace(0.0, 20.0, 81))
        assert ranges["r_g"][0] == gaps.min() and ranges["r_g"][1] == gaps.max()
        # Iron takes the greater permeability at its smallest.
        low, high = reluctance_range(geometry, materials, (MU0, linear))["r_sy"]
        assert low == smallest.r_sy and high == pytest.approx(4000.0 * low)

    def test_reluctance_range_passes_the_float_range_without_a_warning(self):
        thin = MotorGeometry(stack_length=1e-300)
        ranges = reluctance_range(thin, MaterialSet(), (MU0, MU0))
        assert ranges["r_g"][1] == ranges["r_pm"][1] == math.inf
        assert math.isfinite(reluctance_range(thin, MaterialSet(), (1.0, 1.0))["r_sy"][1])
        vanishing = MotorGeometry(pm_length=1e-100, pm_width=1e300)
        assert reluctance_range(vanishing, MaterialSet(), (MU0, MU0))["r_pm"] == (0.0, 0.0)


class TestClosedForms:
    def test_composite_unit_values(self):
        comp = composite_reluctances(ReluctanceSet(r_sy=1.0, r_sp=1.0, r_ry=1.0, r_g=1.0, r_pm=1.0))
        assert (comp.r_1, comp.r_2, comp.r_3, comp.r_4) == (4.0, 20.0, 12.0, 7.0)

    def test_composite_pole_term_vanishes_with_pole_reluctance(self):
        tiny = composite_reluctances(
            ReluctanceSet(r_sy=1.0, r_sp=1e-12, r_ry=2.0, r_g=3.0, r_pm=1.0)
        )
        assert tiny.r_4 == pytest.approx(0.0, abs=1e-11)
        assert tiny.r_2 == pytest.approx(tiny.r_3, rel=1e-11)

    def test_composite_against_independent_transcription(self):
        # Second transcription written from scratch, factored differently.
        rng = np.random.default_rng(21)
        for _ in range(50):
            g, ry, sp = rng.uniform(0.1, 1e4, size=3)
            comp = composite_reluctances(
                ReluctanceSet(r_sy=1.0, r_sp=sp, r_ry=ry, r_g=g, r_pm=1.0)
            )
            assert comp.r_1 == pytest.approx(g + ry + 2 * sp, rel=1e-14)
            assert comp.r_2 == pytest.approx(
                (g + ry + 2 * sp) * (2 * g + ry + 2 * sp), rel=1e-13
            )
            assert comp.r_3 == pytest.approx(
                (g + ry) * (2 * g + ry + 2 * sp) + 2 * g * sp, rel=1e-13
            )
            assert comp.r_4 == pytest.approx(sp * (g + 2 * ry + 4 * sp), rel=1e-13)

    def test_closed_forms_zero_sources(self):
        r = ReluctanceSet(r_sy=1e3, r_sp=2e3, r_ry=3e3, r_g=4e3, r_pm=5e5)
        assert np.all(closed_form_mesh_fluxes(r, SourceSet(f_e=0.0, f_pm=0.0)) == 0.0)

    def test_closed_forms_collapse_without_pm_mmf(self):
        r = ReluctanceSet(r_sy=1e3, r_sp=2e3, r_ry=3e3, r_g=4e3, r_pm=5e5)
        phi = closed_form_mesh_fluxes(r, SourceSet(f_e=900.0, f_pm=0.0))
        assert phi[1] == phi[2] == phi[3] == phi[4]
        double = closed_form_mesh_fluxes(r, SourceSet(f_e=1800.0, f_pm=0.0))
        assert double == pytest.approx(2 * phi, rel=1e-14)

    def test_closed_branch_forms_follow_printed_signs(self):
        r = ReluctanceSet(r_sy=1e3, r_sp=2e3, r_ry=3e3, r_g=4e3, r_pm=5e5)
        no_pm = closed_form_branch_fluxes(r, SourceSet(f_e=900.0, f_pm=0.0))
        assert no_pm.phi_g == pytest.approx(no_pm.phi_sp, rel=1e-14)
        no_coil = closed_form_branch_fluxes(r, SourceSet(f_e=0.0, f_pm=4000.0))
        assert no_coil.phi_sy == 0.0
        low = closed_form_branch_fluxes(r, SourceSet(f_e=900.0, f_pm=1000.0))
        high = closed_form_branch_fluxes(r, SourceSet(f_e=900.0, f_pm=2000.0))
        assert high.phi_g > low.phi_g
        assert high.phi_sp < low.phi_sp

    def test_closed_branch_forms_vs_mesh_forms_mapped(self):
        # Pushing the printed mesh expressions through the exact branch
        # map reproduces the printed yoke and pole branch forms, but NOT
        # the printed gap form: its PM term enters with the opposite
        # sign, so the printed expressions disagree with each other by
        # exactly 2*r_4/(r_2*r_pm)*f_pm on the gap branch.  The audit in
        # srmec.fidelity tracks this; here the identity is pinned.
        r = ReluctanceSet(r_sy=1e3, r_sp=2e3, r_ry=3e3, r_g=4e3, r_pm=5e5)
        s = SourceSet(f_e=900.0, f_pm=4000.0)
        mesh = closed_form_mesh_fluxes(r, s)
        mapped = branch_fluxes(MeshFluxes(values=mesh))
        direct = closed_form_branch_fluxes(r, s)
        comp = composite_reluctances(r)
        pm_term = comp.r_4 / (comp.r_2 * r.r_pm) * s.f_pm
        assert direct.phi_sy == pytest.approx(mapped.phi_sy, rel=1e-12)
        assert direct.phi_sp == pytest.approx(mapped.phi_sp, rel=1e-12)
        assert direct.phi_g == pytest.approx(mapped.phi_g + 2.0 * pm_term, rel=1e-12)
