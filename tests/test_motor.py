"""Tests for the machine-specific circuit construction and closed forms."""

import math

import numpy as np
import pytest

from srmec.exact import solve_exact
from srmec.fidelity import sample_regime_case
from srmec.motor import (
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
    regime_check,
    reluctances_from_geometry,
    solve_flux,
    source_values,
    sources_for,
)
from srmec.network import kirchhoff_residual, solve_linear

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
        # topology pattern; they must be the object assembler's exactly.
        rng = np.random.default_rng([108, 0])
        for _ in range(300):
            r, s = sample_regime_case(rng, 10.0)
            for part in s.parts:
                stamped = source_values(part) @ TOPOLOGY.rhs_pattern
                assert stamped.tobytes() == build_network(r, part).rhs.tobytes()

    def test_solve_flux_equals_three_assembled_networks(self):
        # Reference: the split as three separately assembled networks,
        # the way solve_flux computed it before it shared one matrix.
        rng = np.random.default_rng([108, 1])
        for _ in range(100):
            r, s = sample_regime_case(rng, 10.0)
            got = solve_flux(r, s)
            systems = [build_network(r, part) for part in s.parts]
            total, coil, pm = (solve_linear(system).values for system in systems)
            assert got.mesh_fluxes.tobytes() == total.tobytes()
            assert got.coil_mesh_fluxes.tobytes() == coil.tobytes()
            assert got.pm_mesh_fluxes.tobytes() == pm.tobytes()
            assert got.residual == kirchhoff_residual(systems[0], MeshFluxes(values=total))

    def test_split_parts(self):
        parts = SourceSet(f_e=2.0, f_pm=3.0).parts
        assert parts == (
            SourceSet(f_e=2.0, f_pm=3.0),
            SourceSet(f_e=2.0, f_pm=0.0),
            SourceSet(f_e=0.0, f_pm=3.0),
        )

    def test_zero_current_kills_coil_part(self):
        geom, mats = default_pair()
        r = reluctances_from_geometry(geom, mats, 5.0)
        sol = solve_flux(r, sources_for(geom, mats, 0.0))
        assert np.all(sol.coil_mesh_fluxes == 0.0)
        assert np.any(sol.pm_mesh_fluxes != 0.0)


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
