"""Tests for the closed-form fidelity audit.

FROZEN_AUDIT_STATS below was produced by running the audit itself at
the default (n_samples=1000, seed=108) and copying the full-precision
output; the values are regression anchors for determinism, not
independently derived truths.  The structural facts (which rows are
exactly zero, which converge, which stay order-one) were established
against the exact elimination oracle before freezing.
"""

import functools
import logging

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from srmec import fidelity
from srmec.exact import solve_exact
from srmec.fidelity import (
    BASE_THRESHOLD,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    MMF_DECADES,
    RELUCTANCE_DECADES,
    ROW_ORDER,
    STRONG_THRESHOLD,
    FidelityRow,
    RegimeSamples,
    audit_notes,
    run_fidelity_audit,
    rsy_variant_composites,
    sample_regime_case,
    supermesh_limit_fluxes,
)
from srmec.motor import (
    BranchFluxes,
    ReluctanceSet,
    SourceSet,
    branch_fluxes,
    build_network,
    closed_form_branch_fluxes,
    closed_form_mesh_fluxes,
    composite_reluctances,
    regime_check,
)
from srmec.network import MeshFluxes, solve_linear

# (max_rel_dev, median_rel_dev) per row at the default sample count and
# seed, formatted with .17g (same formatting the CSV writer uses).
FROZEN_AUDIT_STATS = {
    "mesh1_closed_form": ("1371.0140911273461", "0.84096362877812991"),
    "mesh2_closed_form": ("1633185.6603963368", "0.99695773709646074"),
    "mesh3_closed_form": ("1633185.6603963368", "0.99695773709646074"),
    "mesh4_closed_form": ("1633185.6401776315", "1.1672784643818859"),
    "mesh5_closed_form": ("1633185.6164486397", "0.98278658688347464"),
    "yoke_branch_closed_form": ("1131.592950572403", "0.61208401250946964"),
    "pole_branch_closed_form": ("1346849.7241202011", "0.061814124418214801"),
    "gap_branch_closed_form": ("1346849.7010589368", "0.023951659650091529"),
    "yoke_branch_vs_negated_mesh1_print": ("0", "0"),
    "gap_branch_print_vs_composed_print": ("2.7763950698065836", "0.0017184017179797955"),
    "mesh2_vs_mesh3_exact": ("0", "0"),
    "mesh5_vs_mesh2_exact": ("0.2555348315000105", "0.014507087086733213"),
    "mesh5_vs_mesh2_exact_strong_regime": ("0.0025407844186094079", "0.00037537869918246832"),
    "branch_map_production_vs_exact": ("0", "0"),
    "mesh1_supermesh_limit": ("0.078176806974691315", "0.0022642915642537638"),
    "mesh2_supermesh_limit": ("0.16895888696769926", "0.0098485332050476226"),
    "mesh4_supermesh_limit": ("0.086582511223055075", "0.005334883911833262"),
    "mesh1_supermesh_limit_strong_regime": ("0.00069576144135457413", "4.4285516072767054e-05"),
    "mesh2_supermesh_limit_strong_regime": ("0.0016655800313230803", "0.00021601048009131852"),
    "mesh4_supermesh_limit_strong_regime": ("0.00088464691787185871", "0.00012243997833024788"),
    "mesh2_closed_form_rsy_variant": ("2.9963071119376372", "0.6997338720783669"),
    "mesh4_closed_form_rsy_variant": ("2.8118435928468735", "0.72562236558700399"),
    "pole_branch_closed_form_rsy_variant": ("1.0497836729858774", "0.090946642828334257"),
    "gap_branch_closed_form_rsy_variant": ("0.99192082871054921", "0.05034378003490067"),
}


@pytest.fixture(scope="module")
def default_audit():
    return run_fidelity_audit()


class TestSampling:
    def test_samples_respect_regime_and_ranges(self):
        rng = np.random.default_rng(7)
        lo, hi = 10.0 ** RELUCTANCE_DECADES[0], 10.0 ** RELUCTANCE_DECADES[1]
        flo, fhi = 10.0 ** MMF_DECADES[0], 10.0 ** MMF_DECADES[1]
        for _ in range(50):
            r, s = sample_regime_case(rng, BASE_THRESHOLD)
            assert regime_check(r, BASE_THRESHOLD).all_pass
            for value in (r.r_sy, r.r_sp, r.r_ry, r.r_g, r.r_pm):
                assert lo <= value <= hi
            assert flo <= s.f_e <= fhi
            assert flo <= s.f_pm <= fhi

    def test_strong_threshold_sampling(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            r, _ = sample_regime_case(rng, STRONG_THRESHOLD)
            assert regime_check(r, STRONG_THRESHOLD).all_pass

    def test_sampling_is_deterministic(self):
        a = [sample_regime_case(np.random.default_rng(3), BASE_THRESHOLD) for _ in range(5)]
        b = [sample_regime_case(np.random.default_rng(3), BASE_THRESHOLD) for _ in range(5)]
        assert a == b


def counted_rejection_sample(rng, threshold):
    """One candidate at a time, each checked by regime_check: the
    sampling rule the block sampler must reproduce draw for draw.
    Returns the sample and the number of candidates tested."""
    tested = 0
    while True:
        tested += 1
        r_sy, r_sp, r_ry, r_g, r_pm = 10.0 ** rng.uniform(*RELUCTANCE_DECADES, size=5)
        candidate = ReluctanceSet(r_sy=r_sy, r_sp=r_sp, r_ry=r_ry, r_g=r_g, r_pm=r_pm)
        if regime_check(candidate, threshold).all_pass:
            break
    f_e, f_pm = 10.0 ** rng.uniform(*MMF_DECADES, size=2)
    return candidate, SourceSet(f_e=float(f_e), f_pm=float(f_pm)), tested


def scalar_rejection_sample(rng, threshold):
    candidate, sources, _ = counted_rejection_sample(rng, threshold)
    return candidate, sources


class TestBlockSamplerStreamIdentity:
    @pytest.mark.parametrize("threshold", [BASE_THRESHOLD, STRONG_THRESHOLD])
    @pytest.mark.parametrize("seed", [3, 20260816, [108, 0], [108, 1]])
    def test_same_samples_and_generator_state(self, seed, threshold):
        block_rng = np.random.default_rng(seed)
        scalar_rng = np.random.default_rng(seed)
        for _ in range(60):
            assert sample_regime_case(block_rng, threshold) == scalar_rejection_sample(
                scalar_rng, threshold
            )
            assert block_rng.bit_generator.state == scalar_rng.bit_generator.state

    def test_caller_draws_between_calls_stay_in_step(self):
        block_rng = np.random.default_rng(2024)
        scalar_rng = np.random.default_rng(2024)
        for k in range(40):
            threshold = STRONG_THRESHOLD if k % 3 == 0 else BASE_THRESHOLD
            assert sample_regime_case(block_rng, threshold) == scalar_rejection_sample(
                scalar_rng, threshold
            )
            # Odd-sized and 32-bit draws leave buffered state in the
            # generator; the sampler must carry it through unchanged.
            assert np.array_equal(block_rng.random(k % 4), scalar_rng.random(k % 4))
            assert block_rng.integers(0, 2**31, dtype=np.int32) == scalar_rng.integers(
                0, 2**31, dtype=np.int32
            )
            assert block_rng.bit_generator.state == scalar_rng.bit_generator.state

    @pytest.mark.parametrize("threshold", [BASE_THRESHOLD, STRONG_THRESHOLD])
    def test_pcg64dxsm_stream(self, threshold):
        block_rng = np.random.Generator(np.random.PCG64DXSM(2718))
        scalar_rng = np.random.Generator(np.random.PCG64DXSM(2718))
        for _ in range(40):
            assert sample_regime_case(block_rng, threshold) == scalar_rejection_sample(
                scalar_rng, threshold
            )
            assert block_rng.bit_generator.state == scalar_rng.bit_generator.state

    def test_accepted_reluctances_keep_their_type(self):
        r, s = sample_regime_case(np.random.default_rng(5), BASE_THRESHOLD)
        ref_r, ref_s = scalar_rejection_sample(np.random.default_rng(5), BASE_THRESHOLD)
        for name in ("r_sy", "r_sp", "r_ry", "r_g", "r_pm"):
            assert type(getattr(r, name)) is type(getattr(ref_r, name))
        assert type(s.f_e) is type(ref_s.f_e) is float

    @pytest.mark.parametrize("threshold", [BASE_THRESHOLD, STRONG_THRESHOLD])
    def test_reports_the_candidates_tested(self, threshold):
        block_rng = np.random.default_rng(17)
        scalar_rng = np.random.default_rng(17)
        tested = []
        for _ in range(30):
            sample_regime_case(block_rng, threshold, tested)
        assert tested == [counted_rejection_sample(scalar_rng, threshold)[2] for _ in range(30)]


class TestGeneratorContract:
    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64])
    def test_a_generator_without_a_per_draw_advance_is_refused_before_drawing(self, bit_generator):
        rng = np.random.Generator(bit_generator(1))
        before = rng.bit_generator.state
        with pytest.raises(TypeError, match=bit_generator.__name__):
            sample_regime_case(rng, BASE_THRESHOLD)
        np.testing.assert_equal(rng.bit_generator.state, before)

    # At most 50 examples, reproducible, reported as drawn.
    @settings(max_examples=50, deadline=None, derandomize=True, phases=(Phase.explicit, Phase.generate))
    @given(
        block=st.integers(1, 256),
        seed=st.integers(0, 2**64 - 1),
        threshold=st.floats(1.0, STRONG_THRESHOLD),
    )
    def test_any_block_matches_the_one_candidate_stream(self, block, seed, threshold):
        """Samples and the full generator state equal the one-candidate
        reference after every call, with a 32-bit draw between calls, so
        the calls start in turn with a buffered 32-bit half pending and
        with one spent."""
        block_rng = np.random.default_rng(seed)
        scalar_rng = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fidelity, "SAMPLE_BLOCK", block)
            for _ in range(4):
                assert sample_regime_case(block_rng, threshold) == scalar_rejection_sample(
                    scalar_rng, threshold
                )
                assert block_rng.bit_generator.state == scalar_rng.bit_generator.state
                assert block_rng.integers(2**32, dtype=np.uint32) == scalar_rng.integers(
                    2**32, dtype=np.uint32
                )


@pytest.fixture(params=[1, 2, 13], ids=lambda block: f"block={block}")
def small_sample_block(request, monkeypatch):
    """Blocks that put the accepted candidate's MMF draws past the block
    end (always at 1) and make a sample span many blocks."""
    monkeypatch.setattr(fidelity, "SAMPLE_BLOCK", request.param)


@pytest.mark.usefixtures("small_sample_block")
class TestSmallBlockStreamIdentity(TestBlockSamplerStreamIdentity):
    """The stream identity tests again with the sampler's block shrunk."""


def _branch_array(b):
    return np.array([b.phi_sy, b.phi_sp, b.phi_g])


def scalar_collect(n_samples, seed, threshold, stream):
    """The audit's deviation series computed one sample at a time, as the
    package did before it evaluated whole batches: the reference the
    batch rows must reproduce bit for bit."""
    rng = np.random.default_rng([seed, stream])
    series = {}

    def push(key, value):
        series.setdefault(key, []).append(value)

    for _ in range(n_samples):
        r, s = scalar_rejection_sample(rng, threshold)
        system = build_network(r, s)
        exact = solve_exact(system.matrix, system.rhs).rounded()
        mesh_scale = np.max(np.abs(exact))

        suffix = "" if threshold == BASE_THRESHOLD else "_strong_regime"
        push(f"mesh5_vs_mesh2_exact{suffix}", abs(exact[4] - exact[1]) / mesh_scale)
        limit = supermesh_limit_fluxes(r, s)
        for k in (0, 1, 3):
            push(f"mesh{k + 1}_supermesh_limit{suffix}", abs(limit[k] - exact[k]) / mesh_scale)
        if suffix:
            continue

        exact_branch = _branch_array(branch_fluxes(MeshFluxes(values=exact)))
        branch_scale = max(np.max(np.abs(exact_branch)), mesh_scale * 1e-300)

        printed_mesh = closed_form_mesh_fluxes(r, s)
        for k in range(5):
            push(f"mesh{k + 1}_closed_form", abs(printed_mesh[k] - exact[k]) / mesh_scale)

        printed_branch = closed_form_branch_fluxes(r, s)
        push("yoke_branch_closed_form", abs(printed_branch.phi_sy - exact_branch[0]) / branch_scale)
        push("pole_branch_closed_form", abs(printed_branch.phi_sp - exact_branch[1]) / branch_scale)
        push("gap_branch_closed_form", abs(printed_branch.phi_g - exact_branch[2]) / branch_scale)
        push(
            "yoke_branch_vs_negated_mesh1_print",
            abs(printed_branch.phi_sy - (-printed_mesh[0])) / branch_scale,
        )
        composed = _branch_array(branch_fluxes(MeshFluxes(values=printed_mesh)))
        push("gap_branch_print_vs_composed_print", abs(printed_branch.phi_g - composed[2]) / branch_scale)
        push("mesh2_vs_mesh3_exact", abs(exact[1] - exact[2]) / mesh_scale)

        production = solve_linear(system).values
        production_branch = _branch_array(branch_fluxes(MeshFluxes(values=production)))
        push(
            "branch_map_production_vs_exact",
            float(np.max(np.abs(production_branch - exact_branch))) / branch_scale,
        )

        variant = rsy_variant_composites(r)
        variant_mesh = closed_form_mesh_fluxes(r, s, variant)
        variant_branch = closed_form_branch_fluxes(r, s, variant)
        push("mesh2_closed_form_rsy_variant", abs(variant_mesh[1] - exact[1]) / mesh_scale)
        push("mesh4_closed_form_rsy_variant", abs(variant_mesh[3] - exact[3]) / mesh_scale)
        push(
            "pole_branch_closed_form_rsy_variant",
            abs(variant_branch.phi_sp - exact_branch[1]) / branch_scale,
        )
        push(
            "gap_branch_closed_form_rsy_variant",
            abs(variant_branch.phi_g - exact_branch[2]) / branch_scale,
        )
    return series


@functools.lru_cache(maxsize=None)
def scalar_audit(n_samples, seed):
    series = scalar_collect(n_samples, seed, BASE_THRESHOLD, stream=0)
    series.update(scalar_collect(n_samples, seed, STRONG_THRESHOLD, stream=1))
    return tuple(
        FidelityRow(
            equation=key,
            max_rel_dev=float(np.max(np.array(series[key]))),
            median_rel_dev=float(np.median(np.array(series[key]))),
            n_samples=n_samples,
            seed=seed,
        )
        for key in ROW_ORDER
    )


class TestBatchAuditEqualsScalarAudit:
    @pytest.mark.parametrize("block", [None, 1, 13], ids=lambda block: f"block={block or 'default'}")
    @pytest.mark.parametrize("n_samples, seed", [(50, 1), (50, 20260816), (64, 7), (200, 108)])
    def test_every_row_bit_for_bit(self, monkeypatch, block, n_samples, seed):
        if block is not None:
            monkeypatch.setattr(fidelity, "SAMPLE_BLOCK", block)
        got = run_fidelity_audit(n_samples, seed)
        assert [repr(row) for row in got] == [repr(row) for row in scalar_audit(n_samples, seed)]


class TestBatchClosedForms:
    def test_batch_evaluation_equals_per_sample_evaluation(self):
        # Squares are products, which round the same for a scalar and an
        # array on every machine.
        rng = np.random.default_rng(11)
        cases = [sample_regime_case(rng, BASE_THRESHOLD) for _ in range(3000)]
        samples = RegimeSamples(
            *np.array([(r.r_sy, r.r_sp, r.r_ry, r.r_g, r.r_pm, s.f_e, s.f_pm) for r, s in cases]).T
        )
        variant = rsy_variant_composites(samples)
        batch = (
            closed_form_mesh_fluxes(samples, samples),
            closed_form_mesh_fluxes(samples, samples, variant),
            supermesh_limit_fluxes(samples, samples),
            _branch_array(closed_form_branch_fluxes(samples, samples, variant)).T,
        )
        per_sample = [[], [], [], []]
        for values in zip(*samples):
            r, s = ReluctanceSet(*values[:5]), SourceSet(*values[5:])
            comp = rsy_variant_composites(r)
            per_sample[0].append(closed_form_mesh_fluxes(r, s))
            per_sample[1].append(closed_form_mesh_fluxes(r, s, comp))
            per_sample[2].append(supermesh_limit_fluxes(r, s))
            per_sample[3].append(_branch_array(closed_form_branch_fluxes(r, s, comp)))
        for got, want in zip(batch, per_sample):
            assert got.tobytes() == np.array(want).tobytes()


class TestSupermeshLimit:
    def _exact(self, r, s):
        system = build_network(r, s)
        return solve_exact(system.matrix, system.rhs).rounded()

    def test_exact_in_the_limit(self):
        # Integer body values with r_pm = 2**50 keep every assembly sum
        # exactly representable, so the oracle solves the ideal system;
        # at wider scale ratios (~1/eps) float assembly itself rounds.
        r = ReluctanceSet(r_sy=300.0, r_sp=170.0, r_ry=90.0, r_g=520.0, r_pm=float(2**50))
        s = SourceSet(f_e=750.0, f_pm=1300.0)
        exact = self._exact(r, s)
        limit = supermesh_limit_fluxes(r, s)
        assert limit == pytest.approx(exact, rel=1e-9)

    def test_first_order_convergence(self):
        # Deviation should fall proportionally to the dominance ratio.
        s = SourceSet(f_e=750.0, f_pm=1300.0)
        devs = []
        for r_pm in (1e6, 1e8):
            r = ReluctanceSet(r_sy=300.0, r_sp=170.0, r_ry=90.0, r_g=520.0, r_pm=r_pm)
            exact = self._exact(r, s)
            dev = np.max(np.abs(supermesh_limit_fluxes(r, s) - exact)) / np.max(np.abs(exact))
            devs.append(dev)
        ratio = devs[0] / devs[1]
        assert 30.0 < ratio < 300.0

    def test_degenerate_meshes_share_one_flux(self):
        r = ReluctanceSet(r_sy=300.0, r_sp=170.0, r_ry=90.0, r_g=520.0, r_pm=1e7)
        limit = supermesh_limit_fluxes(r, SourceSet(f_e=10.0, f_pm=40.0))
        assert limit[1] == limit[2] == limit[4]


def hand_typed_rsy_variant(r, s):
    """The rsy-variant closed forms as the audit once typed them out in
    full; kept as the reference for the parametrised closed forms."""
    comp = rsy_variant_composites(r)
    coil_mesh = -2.0 * (r.r_g + r.r_sy) / comp.r_2 * s.f_e
    phi1 = -2.0 / comp.r_1 * s.f_e
    phi2 = coil_mesh - comp.r_3 / (comp.r_2 * r.r_pm) * s.f_pm
    phi4 = coil_mesh - comp.r_4 / (comp.r_2 * r.r_pm) * s.f_pm
    mesh = np.array([phi1, phi2, phi2, phi4, phi2])
    coil_branch = 2.0 * (comp.r_2 - comp.r_1 * (r.r_g + r.r_sy)) / (comp.r_1 * comp.r_2) * s.f_e
    branches = BranchFluxes(
        phi_sy=2.0 / comp.r_1 * s.f_e,
        phi_sp=coil_branch - comp.r_3 / (comp.r_2 * r.r_pm) * s.f_pm,
        phi_g=coil_branch + comp.r_4 / (comp.r_2 * r.r_pm) * s.f_pm,
    )
    return mesh, branches


class TestVariantComposites:
    def test_widened_gap_substitution(self):
        r = ReluctanceSet(r_sy=2.0, r_sp=3.0, r_ry=7.0, r_g=5.0, r_pm=1000.0)
        widened = composite_reluctances(
            ReluctanceSet(r_sy=2.0, r_sp=3.0, r_ry=7.0, r_g=7.0, r_pm=1000.0)
        )
        variant = rsy_variant_composites(r)
        assert variant == widened

    @pytest.mark.parametrize("stream, threshold", [(0, BASE_THRESHOLD), (1, STRONG_THRESHOLD)])
    def test_variant_closed_forms_equal_hand_typed_reference(self, stream, threshold):
        rng = np.random.default_rng([DEFAULT_SEED, stream])
        for _ in range(200):
            r, s = sample_regime_case(rng, threshold)
            variant = rsy_variant_composites(r)
            mesh, branches = hand_typed_rsy_variant(r, s)
            assert closed_form_mesh_fluxes(r, s, variant).tobytes() == mesh.tobytes()
            got = closed_form_branch_fluxes(r, s, variant)
            want = (branches.phi_sy, branches.phi_sp, branches.phi_g)
            assert np.array([got.phi_sy, got.phi_sp, got.phi_g]).tobytes() == np.array(want).tobytes()

    def test_default_composites_are_the_printed_ones(self):
        r = ReluctanceSet(r_sy=2.0, r_sp=3.0, r_ry=7.0, r_g=5.0, r_pm=1000.0)
        s = SourceSet(f_e=11.0, f_pm=13.0)
        printed = composite_reluctances(r)
        assert closed_form_mesh_fluxes(r, s).tobytes() == closed_form_mesh_fluxes(r, s, printed).tobytes()
        assert closed_form_branch_fluxes(r, s) == closed_form_branch_fluxes(r, s, printed)


class TestAuditReport:
    def test_row_order_and_metadata(self, default_audit):
        assert tuple(row.equation for row in default_audit) == ROW_ORDER
        for row in default_audit:
            assert row.n_samples == DEFAULT_SAMPLES
            assert row.seed == DEFAULT_SEED
            assert np.isfinite(row.max_rel_dev)
            assert 0.0 <= row.median_rel_dev <= row.max_rel_dev

    def test_frozen_statistics_reproduce(self, default_audit):
        got = {
            row.equation: (
                format(row.max_rel_dev, ".17g"),
                format(row.median_rel_dev, ".17g"),
            )
            for row in default_audit
        }
        assert got == FROZEN_AUDIT_STATS

    def test_exact_identity_rows_are_zero(self, default_audit):
        by_name = {row.equation: row for row in default_audit}
        for name in (
            "mesh2_vs_mesh3_exact",
            "yoke_branch_vs_negated_mesh1_print",
            "branch_map_production_vs_exact",
        ):
            assert by_name[name].max_rel_dev == 0.0

    def test_closed_forms_fail_while_limit_converges(self, default_audit):
        by_name = {row.equation: row for row in default_audit}
        # Printed forms stay order-one in the median even inside the regime.
        assert by_name["mesh1_closed_form"].median_rel_dev > 0.1
        assert by_name["yoke_branch_closed_form"].median_rel_dev > 0.1
        # The derived limit reference is far tighter on identical samples
        # and tightens further with dominance: the audit discriminates.
        assert by_name["mesh1_supermesh_limit"].max_rel_dev < 0.2
        assert (
            by_name["mesh1_supermesh_limit_strong_regime"].max_rel_dev
            < 0.02 * by_name["mesh1_supermesh_limit"].max_rel_dev
        )

    def test_mesh5_question_resolved_as_asymptotic(self, default_audit):
        by_name = {row.equation: row for row in default_audit}
        base = by_name["mesh5_vs_mesh2_exact"]
        strong = by_name["mesh5_vs_mesh2_exact_strong_regime"]
        assert base.max_rel_dev > 0.1
        assert strong.max_rel_dev < 0.05 * base.max_rel_dev

    def test_determinism_across_runs(self):
        assert run_fidelity_audit(40, 9) == run_fidelity_audit(40, 9)

    def test_seed_changes_samples(self):
        a = run_fidelity_audit(40, 9)
        b = run_fidelity_audit(40, 10)
        assert any(
            x.max_rel_dev != y.max_rel_dev
            for x, y in zip(a, b)
            if x.max_rel_dev != 0.0
        )

    @staticmethod
    def _rejection_lines(caplog):
        return [
            record.getMessage().split("; wall ms: ")[0]
            for record in caplog.records
            if "candidates tested" in record.getMessage()
        ]

    @staticmethod
    def _tested(n_samples, seed, stream, threshold):
        rng = np.random.default_rng([seed, stream])
        return sum(counted_rejection_sample(rng, threshold)[2] for _ in range(n_samples))

    def test_logs_the_rejection_work_of_each_stream(self, caplog):
        with caplog.at_level(logging.INFO, logger="srmec.fidelity"):
            run_fidelity_audit(50, 108)
        tested = [self._tested(50, 108, 0, BASE_THRESHOLD), self._tested(50, 108, 1, STRONG_THRESHOLD)]
        assert self._rejection_lines(caplog) == [
            f"audit stream 0: dominance threshold 10, 50 samples, {tested[0]} candidates tested",
            f"audit stream 1: dominance threshold 1000, 50 samples, {tested[1]} candidates tested",
        ]

    def test_logs_the_wall_time_of_each_stage(self, caplog):
        with caplog.at_level(logging.INFO, logger="srmec.fidelity"):
            run_fidelity_audit(50, 108)
        assert len(caplog.records) == 4
        for stream in (0, 1):
            lines = caplog.records[2 * stream : 2 * stream + 2]
            stages = []
            for record in lines:
                head, times = record.getMessage().split("wall ms: ")
                assert head.startswith(f"audit stream {stream}: ")
                stages += [stage.rsplit(" ", 1) for stage in times.split(", ")]
            names, times = zip(*stages)
            assert names == ("sampling", "oracle", "production solve", "rows")
            assert all(float(ms) >= 0.0 for ms in times)

    def test_logs_the_sampling_of_a_stream_whose_oracle_fails(self, caplog, monkeypatch):
        def refuse(matrix, rhs):
            raise ValueError("system 7 of the stack is singular: no pivot in column 2")

        monkeypatch.setattr(fidelity, "solve_exact", refuse)
        with caplog.at_level(logging.INFO, logger="srmec.fidelity"):
            with pytest.raises(ValueError, match="system 7 of the stack"):
                run_fidelity_audit(50, 108)
        tested = self._tested(50, 108, 0, BASE_THRESHOLD)
        assert self._rejection_lines(caplog) == [
            f"audit stream 0: dominance threshold 10, 50 samples, {tested} candidates tested"
        ]

    def test_rejects_empty_audit(self):
        with pytest.raises(ValueError):
            run_fidelity_audit(0, 1)

    def test_notes_cover_the_open_questions(self, default_audit):
        notes = audit_notes(default_audit)
        assert "mesh flux 5 versus 2" in notes
        assert "only asymptotically" in notes
        assert "gap+yoke" in notes
        assert "immaterial" in notes
        assert "opposite sign" in notes
        assert "numeric solve" in notes
