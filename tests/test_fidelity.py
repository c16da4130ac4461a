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
import re

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
    RAW_BOUND_FACTORS,
    FidelityRow,
    RegimeSamples,
    StreamLookahead,
    audit_notes,
    bounded_offsets,
    decade_map,
    raw_bounds,
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
    dominance_ratios,
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


@functools.lru_cache(maxsize=None)
def reference_stream(seed, threshold, count, bit_generator=np.random.PCG64):
    """The first count one-candidate samples of a seeded stream, each as
    (sample, candidates tested, full generator state after it); computed
    once per module for every class and block size that checks it."""
    rng = np.random.Generator(bit_generator(list(seed) if isinstance(seed, tuple) else seed))
    stream = []
    for _ in range(count):
        candidate, sources, tested = counted_rejection_sample(rng, threshold)
        stream.append(((candidate, sources), tested, rng.bit_generator.state))
    return tuple(stream)


def hashable(seed):
    return tuple(seed) if isinstance(seed, list) else seed


@functools.lru_cache(maxsize=None)
def reference_with_caller_draws(seed=2024, calls=40):
    """The one-candidate stream with the caller's own draws between
    samples: odd-sized random() draws and a 32-bit draw, which leave
    buffered state in the generator.  Per call: (sample, the caller's
    draws after it, full generator state after those)."""
    rng = np.random.default_rng(seed)
    steps = []
    for k in range(calls):
        sample = scalar_rejection_sample(rng, caller_draw_threshold(k))
        draws = (rng.random(k % 4), rng.integers(0, 2**31, dtype=np.int32))
        steps.append((sample, draws, rng.bit_generator.state))
    return tuple(steps)


def caller_draw_threshold(k):
    return STRONG_THRESHOLD if k % 3 == 0 else BASE_THRESHOLD


def assert_serves_reference(rng, threshold, reference, lookahead=None):
    """Each call equals the reference stream in its sample, its tested
    count and the full generator state after it."""
    for sample, count, state in reference:
        tested = []
        assert sample_regime_case(rng, threshold, tested, lookahead) == sample
        assert tested == [count]
        assert rng.bit_generator.state == state


class TestBlockSamplerStreamIdentity:
    @pytest.mark.parametrize("threshold", [BASE_THRESHOLD, STRONG_THRESHOLD])
    @pytest.mark.parametrize("seed", [3, 20260816, [108, 0], [108, 1]])
    def test_same_samples_and_generator_state(self, seed, threshold):
        block_rng = np.random.default_rng(seed)
        for sample, _, state in reference_stream(hashable(seed), threshold, 60):
            assert sample_regime_case(block_rng, threshold) == sample
            assert block_rng.bit_generator.state == state

    def test_caller_draws_between_calls_stay_in_step(self):
        block_rng = np.random.default_rng(2024)
        for k, (sample, (randoms, int32), state) in enumerate(reference_with_caller_draws()):
            assert sample_regime_case(block_rng, caller_draw_threshold(k)) == sample
            # Odd-sized and 32-bit draws leave buffered state in the
            # generator; the sampler must carry it through unchanged.
            assert np.array_equal(block_rng.random(k % 4), randoms)
            assert block_rng.integers(0, 2**31, dtype=np.int32) == int32
            assert block_rng.bit_generator.state == state

    @pytest.mark.parametrize("threshold", [BASE_THRESHOLD, STRONG_THRESHOLD])
    def test_pcg64dxsm_stream(self, threshold):
        block_rng = np.random.Generator(np.random.PCG64DXSM(2718))
        for sample, _, state in reference_stream(2718, threshold, 40, np.random.PCG64DXSM):
            assert sample_regime_case(block_rng, threshold) == sample
            assert block_rng.bit_generator.state == state

    def test_accepted_reluctances_keep_their_type(self):
        r, s = sample_regime_case(np.random.default_rng(5), BASE_THRESHOLD)
        ref_r, ref_s = scalar_rejection_sample(np.random.default_rng(5), BASE_THRESHOLD)
        for name in ("r_sy", "r_sp", "r_ry", "r_g", "r_pm"):
            assert type(getattr(r, name)) is type(getattr(ref_r, name))
        assert type(s.f_e) is type(ref_s.f_e) is float

    @pytest.mark.parametrize("threshold", [BASE_THRESHOLD, STRONG_THRESHOLD])
    def test_reports_the_candidates_tested(self, threshold):
        block_rng = np.random.default_rng(17)
        tested = []
        for _ in range(30):
            sample_regime_case(block_rng, threshold, tested)
        assert tested == [count for _, count, _ in reference_stream(17, threshold, 30)]


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


@pytest.fixture
def walks(monkeypatch):
    """A list that gets the threshold of each walk started afresh from a
    generator state."""
    started = []
    restart = StreamLookahead._restart

    def counting(self, state, threshold):
        if state is not None:
            started.append(threshold)
        restart(self, state, threshold)

    monkeypatch.setattr(StreamLookahead, "_restart", counting)
    return started


@pytest.fixture(params=[7, 3 * 5 * 13], ids=lambda bound: f"chunk<={bound}")
def small_walk_chunks(request, monkeypatch):
    """Chunks of at most three blocks of 13 candidates, or of one
    candidate and its MMF draws, so that a stream crosses many chunk
    boundaries."""
    monkeypatch.setattr(fidelity, "SAMPLE_BLOCK", 13)
    monkeypatch.setattr(fidelity, "WALK_CHUNK_DOUBLES", request.param)


class TestStreamLookahead:
    """A lookahead serves the one-candidate stream: after every call the
    sample, its tested count and the full generator state equal the
    reference, whether the call was served from the walk or walked
    afresh."""

    @pytest.mark.usefixtures("small_walk_chunks")
    @pytest.mark.parametrize("threshold", [BASE_THRESHOLD, STRONG_THRESHOLD])
    @pytest.mark.parametrize("seed", [3, [108, 1]])
    def test_serves_the_stream_across_chunk_boundaries(self, walks, seed, threshold):
        lookahead = StreamLookahead(60)
        reference = reference_stream(hashable(seed), threshold, 60)
        assert_serves_reference(np.random.default_rng(seed), threshold, reference, lookahead)
        assert len(walks) == 1
        assert lookahead.chunks > 10
        assert lookahead.served == 60
        assert lookahead.consumed == sum(5 * count + 2 for _, count, _ in reference)
        assert lookahead.drawn >= lookahead.consumed

    @pytest.mark.parametrize("threshold", [BASE_THRESHOLD, STRONG_THRESHOLD])
    def test_default_chunks_serve_the_stream(self, walks, threshold):
        lookahead = StreamLookahead(60)
        reference = reference_stream((108, 1), threshold, 60)
        assert_serves_reference(np.random.default_rng([108, 1]), threshold, reference, lookahead)
        assert len(walks) == 1
        assert lookahead.chunks < 60

    def test_foreign_draws_between_calls_start_a_fresh_walk(self, walks):
        rng = np.random.default_rng(2024)
        lookahead = StreamLookahead(40)
        for k, (sample, (randoms, int32), state) in enumerate(reference_with_caller_draws()):
            assert sample_regime_case(rng, caller_draw_threshold(k), None, lookahead) == sample
            assert np.array_equal(rng.random(k % 4), randoms)
            assert rng.integers(0, 2**31, dtype=np.int32) == int32
            assert rng.bit_generator.state == state
        assert len(walks) == 40

    @pytest.mark.usefixtures("small_walk_chunks")
    @pytest.mark.parametrize("threshold", [BASE_THRESHOLD, STRONG_THRESHOLD])
    def test_a_pending_32_bit_half_is_kept_by_every_served_call(self, walks, threshold):
        rng = np.random.default_rng(31)
        scalar_rng = np.random.default_rng(31)
        assert rng.integers(2**32, dtype=np.uint32) == scalar_rng.integers(2**32, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
        lookahead = StreamLookahead(30)
        for _ in range(30):
            tested = []
            assert sample_regime_case(rng, threshold, tested, lookahead) == scalar_rejection_sample(
                scalar_rng, threshold
            )
            assert rng.bit_generator.state == scalar_rng.bit_generator.state
        assert len(walks) == 1

    def test_one_lookahead_handed_a_second_generator(self, walks):
        first, second = np.random.default_rng(3), np.random.default_rng([108, 1])
        lookahead = StreamLookahead(60)
        streams = zip(
            reference_stream(3, BASE_THRESHOLD, 60)[:30],
            reference_stream((108, 1), BASE_THRESHOLD, 60)[:30],
        )
        for steps in streams:
            for rng, step in zip((first, second), steps):
                assert_serves_reference(rng, BASE_THRESHOLD, [step], lookahead)
        assert len(walks) == 60
        # A generator in the very state the last call left continues the
        # walk, whichever object it is.
        copy = np.random.Generator(np.random.PCG64())
        copy.bit_generator.state = second.bit_generator.state
        rest = reference_stream((108, 1), BASE_THRESHOLD, 60)[30:]
        assert_serves_reference(copy, BASE_THRESHOLD, rest, lookahead)
        assert len(walks) == 60

    def test_another_threshold_starts_a_fresh_walk(self, walks):
        rng = np.random.default_rng(99)
        scalar_rng = np.random.default_rng(99)
        lookahead = StreamLookahead(12)
        for k in range(12):
            threshold = STRONG_THRESHOLD if k % 4 == 3 else BASE_THRESHOLD
            assert sample_regime_case(rng, threshold, None, lookahead) == scalar_rejection_sample(
                scalar_rng, threshold
            )
            assert rng.bit_generator.state == scalar_rng.bit_generator.state
        assert walks == [BASE_THRESHOLD, STRONG_THRESHOLD] * 3

    @pytest.mark.usefixtures("small_walk_chunks")
    @pytest.mark.parametrize("threshold", [BASE_THRESHOLD, STRONG_THRESHOLD])
    def test_pcg64dxsm_stream(self, walks, threshold):
        rng = np.random.Generator(np.random.PCG64DXSM(2718))
        reference = reference_stream(2718, threshold, 40, np.random.PCG64DXSM)
        assert_serves_reference(rng, threshold, reference, StreamLookahead(40))
        assert len(walks) == 1

    @pytest.mark.parametrize(
        "bound, threshold",
        [(7, BASE_THRESHOLD)] + [(bound, t) for bound in (3 * 5 * 13, None) for t in (BASE_THRESHOLD, STRONG_THRESHOLD)],
        ids=lambda value: str(value) if isinstance(value, float) else f"chunk<={value or 'default'}",
    )
    def test_counts_the_candidates_tested_exactly(self, monkeypatch, bound, threshold):
        """exactly_tested counts the stream's tested candidates that meet
        the raw bounds, however the walk is chunked."""
        if bound is not None:
            monkeypatch.setattr(fidelity, "SAMPLE_BLOCK", 13)
            monkeypatch.setattr(fidelity, "WALK_CHUNK_DOUBLES", bound)
        lookahead = StreamLookahead(60)
        rng = np.random.default_rng([108, 1])
        assert_serves_reference(rng, threshold, reference_stream((108, 1), threshold, 60), lookahead)
        assert lookahead.exactly_tested == exactly_tested_reference((108, 1), threshold, 60)

    @pytest.mark.parametrize("threshold", [BASE_THRESHOLD, STRONG_THRESHOLD])
    def test_lets_go_of_its_chunk_once_the_stream_is_served(self, walks, threshold):
        """After its n samples a lookahead holds no raw doubles and no
        array or list of its chunk, and one more call on the generator
        still serves the stream's next sample."""

        def held(lookahead):
            return [
                name
                for name, value in vars(lookahead).items()
                if isinstance(value, np.ndarray) or isinstance(value, list) and len(value) > 1
            ]

        lookahead = StreamLookahead(30)
        reference = reference_stream((108, 1), threshold, 31)
        rng = np.random.default_rng([108, 1])
        assert_serves_reference(rng, threshold, reference[:29], lookahead)
        assert held(lookahead)
        assert_serves_reference(rng, threshold, reference[29:30], lookahead)
        assert held(lookahead) == []
        assert_serves_reference(rng, threshold, reference[30:], lookahead)
        assert len(walks) == 1

    @pytest.mark.parametrize("threshold", [BASE_THRESHOLD, STRONG_THRESHOLD])
    def test_tests_each_chunk_exactly_once(self, monkeypatch, threshold):
        """One dominance_ratios call per chunk, over all of the chunk's
        raw-bound survivors, whichever phases the walk lands on."""
        calls = []

        def counting(*reluctances):
            calls.append(len(reluctances[0]))
            return dominance_ratios(*reluctances)

        monkeypatch.setattr(fidelity, "dominance_ratios", counting)
        lookahead = StreamLookahead(1000)
        rng = np.random.default_rng([108, 1])
        for _ in range(1000):
            sample_regime_case(rng, threshold, None, lookahead)
        assert lookahead.chunks > 1
        assert len(calls) == lookahead.chunks
        assert sum(calls) == lookahead.survivors

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64])
    def test_other_generators_are_refused_before_drawing(self, bit_generator):
        rng = np.random.Generator(bit_generator(1))
        before = rng.bit_generator.state
        lookahead = StreamLookahead(5)
        with pytest.raises(TypeError, match=bit_generator.__name__):
            sample_regime_case(rng, BASE_THRESHOLD, None, lookahead)
        np.testing.assert_equal(rng.bit_generator.state, before)
        assert (lookahead.chunks, lookahead.drawn, lookahead.served) == (0, 0, 0)

    # At most 50 examples, reproducible, reported as drawn.
    @settings(max_examples=50, deadline=None, derandomize=True, phases=(Phase.explicit, Phase.generate))
    @given(
        block=st.integers(1, 256),
        bound=st.integers(1, 4096),
        seed=st.integers(0, 2**64 - 1),
        threshold=st.floats(1.0, STRONG_THRESHOLD),
        foreign=st.lists(st.booleans(), min_size=6, max_size=6),
    )
    def test_any_chunking_matches_the_one_candidate_stream(self, block, bound, seed, threshold, foreign):
        """Samples, tested counts and the full generator state equal the
        one-candidate reference after every call, with a 32-bit draw
        after the calls that foreign marks, so that calls are served
        from the walk, walked afresh, and served with a buffered 32-bit
        half pending or spent."""
        rng = np.random.default_rng(seed)
        scalar_rng = np.random.default_rng(seed)
        lookahead = StreamLookahead(len(foreign))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fidelity, "SAMPLE_BLOCK", block)
            patch.setattr(fidelity, "WALK_CHUNK_DOUBLES", bound)
            for draw in foreign:
                tested = []
                got = sample_regime_case(rng, threshold, tested, lookahead)
                candidate, sources, count = counted_rejection_sample(scalar_rng, threshold)
                assert (got, tested) == ((candidate, sources), [count])
                assert rng.bit_generator.state == scalar_rng.bit_generator.state
                if draw:
                    assert rng.integers(2**32, dtype=np.uint32) == scalar_rng.integers(
                        2**32, dtype=np.uint32
                    )


def passes_exactly(candidates, threshold):
    """The sampler's exact test on (n, 5) raw reluctance draws: map them
    and compare the least dominance ratio with the threshold."""
    ratios = dominance_ratios(*decade_map(candidates, RELUCTANCE_DECADES).T).values()
    return np.minimum.reduce(list(ratios)) >= threshold


def meets_raw_bounds(candidates, threshold):
    """Whether each (n, 5) candidate meets raw_bounds, through the
    sampler's own chunk-wide bounded_offsets on the flattened rows."""
    met = np.zeros(len(candidates), dtype=bool)
    offsets = bounded_offsets(np.ravel(candidates), raw_bounds(threshold))
    met[offsets[offsets % 5 == 0] // 5] = True
    return met


@functools.lru_cache(maxsize=None)
def exactly_tested_reference(seed, threshold, count):
    """Candidates of the one-candidate stream's first count samples that
    meet the raw bounds: the stream's raw draws, cut into candidates by
    the reference's tested counts (5 doubles each, and 2 MMF doubles
    after each sample's last)."""
    counts = [tested for _, tested, _ in reference_stream(seed, threshold, count)]
    ends = np.cumsum([5 * tested + 2 for tested in counts])
    starts = np.concatenate(
        [np.arange(end - 5 * tested - 2, end - 2, 5) for end, tested in zip(ends, counts)]
    )
    raw = np.random.default_rng(list(seed) if isinstance(seed, tuple) else seed).random(ends[-1])
    return int(meets_raw_bounds(raw[starts[:, None] + np.arange(5)], threshold).sum())


def ulp_steps(values, steps):
    """Each value moved by each number of ulps (negative: down), as a
    (len(values), len(steps)) array."""
    bits = np.asarray(values, dtype=np.float64)[:, None].view(np.int64) + np.asarray(steps)
    return bits.view(np.float64)


class TestRawBounds:
    """raw_bounds is a necessary test: every candidate the exact
    dominance test passes meets it, down to the last ulp."""

    PM_DRAWS = np.array([0.6, 0.68, 0.75, 0.8125, 0.87, 0.93, 0.99, np.nextafter(1.0, 0.0)])
    STEPS = np.arange(-12, 13)

    @staticmethod
    def exact_edge(candidate, column, threshold):
        """The largest draw at column for which the exact test passes
        with the other draws as in candidate, found by bisection on the
        draw's bits (the test passes as the draw falls)."""
        def passes(bits):
            trial = candidate.copy()
            trial[column] = np.int64(bits).view(np.float64)
            return passes_exactly(trial[None, :], threshold)[0]

        lo, hi = np.float64(0.0).view(np.int64), np.float64(candidate[4]).view(np.int64)
        if not passes(lo):
            return None
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if passes(mid) else (lo, mid)
        return np.int64(lo).view(np.float64)

    def candidates_at(self, column, k, threshold):
        """Candidates whose draw at column sits a few ulps either side of
        its raw bound and of the exact test's own edge, the other
        non-magnet draws at 0 (the least binding) and the magnet draw
        spread over the window."""
        rows = []
        for u_pm in self.PM_DRAWS:
            base = np.zeros(5)
            base[4] = u_pm
            edges = [u_pm - np.log10(k * threshold) / 6]
            edge = self.exact_edge(base, column, threshold)
            if edge is not None:
                edges.append(edge)
            for u in ulp_steps(edges, self.STEPS).ravel():
                if 0.0 <= u < 1.0:
                    row = base.copy()
                    row[column] = u
                    rows.append(row)
        return np.array(rows)

    @pytest.mark.parametrize("threshold", [BASE_THRESHOLD, STRONG_THRESHOLD])
    @pytest.mark.parametrize("column, k", RAW_BOUND_FACTORS, ids=["sp", "sy", "g", "ry"])
    def test_candidates_at_each_bound(self, column, k, threshold):
        candidates = self.candidates_at(column, k, threshold)
        passing = passes_exactly(candidates, threshold)
        # Both sides of the exact edge are present wherever it lies.
        assert passing.any() and not passing.all()
        assert meets_raw_bounds(candidates, threshold)[passing].all()

    @pytest.mark.parametrize("threshold", [BASE_THRESHOLD, STRONG_THRESHOLD])
    def test_a_chunk_of_draws(self, threshold):
        raw = np.random.default_rng([25, int(threshold)]).random(32_768)
        count = raw.size - 4
        candidates = raw[np.arange(count)[:, None] + np.arange(5)]
        passing = np.flatnonzero(passes_exactly(candidates, threshold))
        offsets = bounded_offsets(raw, raw_bounds(threshold))
        assert np.isin(passing, offsets).all()
        assert passing.size < offsets.size < count // 10

    # At most 200 examples, reproducible, reported as drawn.
    @settings(max_examples=200, deadline=None, derandomize=True, phases=(Phase.explicit, Phase.generate))
    @given(
        threshold=st.floats(1.0, 4e5),
        bound=st.sampled_from(range(len(RAW_BOUND_FACTORS))),
        u_pm=st.floats(0.0, 1.0, exclude_max=True),
        steps=st.integers(-64, 64),
        others=st.lists(st.floats(0.0, 0.1), min_size=3, max_size=3),
    )
    def test_any_candidate_near_a_bound(self, threshold, bound, u_pm, steps, others):
        """A candidate whose draw for one bound sits within 64 ulps of
        it, the other draws low: if the exact test passes, every bound
        is met."""
        column, k = RAW_BOUND_FACTORS[bound]
        u = ulp_steps([u_pm - np.log10(k * threshold) / 6], [steps])[0, 0]
        if not 0.0 <= u < 1.0:
            return
        candidate = np.empty((1, 5))
        candidate[0, [c for c in range(4) if c != column]] = others
        candidate[0, column] = u
        candidate[0, 4] = u_pm
        if passes_exactly(candidate, threshold)[0]:
            assert meets_raw_bounds(candidate, threshold)[0]

    def test_thresholds_at_or_below_zero_bound_nothing(self):
        for threshold in (0.0, -1.0, -np.inf):
            assert all(bound == -np.inf for _, bound in raw_bounds(threshold))

    def test_the_window_corner_is_reachable_and_5e5_is_not(self):
        """The corner of the window, the largest magnet draw and the
        least of every other, passes the largest threshold any candidate
        can, which is below 5e5, the least threshold raw_bounds refuses;
        raw_bounds refuses none the corner reaches."""
        corner = np.array([[0.0, 0.0, 0.0, 0.0, np.nextafter(1.0, 0.0)]])
        ratios = dominance_ratios(*decade_map(corner, RELUCTANCE_DECADES).T).values()
        reachable = min(float(ratio[0]) for ratio in ratios)
        assert reachable < 5e5
        assert passes_exactly(corner, reachable)[0]
        assert meets_raw_bounds(corner, reachable)[0]
        with pytest.raises(ValueError):
            raw_bounds(5e5)


class TestUnreachableThresholds:
    @pytest.mark.parametrize("threshold", [np.nan, np.inf, 5e5, 1e7])
    def test_refused_before_any_draw(self, threshold):
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        lookahead = StreamLookahead(3)
        with pytest.raises(ValueError, match=re.escape(f"dominance threshold {threshold} ")):
            sample_regime_case(rng, threshold, None, lookahead)
        assert rng.bit_generator.state == before
        assert (lookahead.chunks, lookahead.drawn, lookahead.served) == (0, 0, 0)
        with pytest.raises(ValueError, match=re.escape(f"dominance threshold {threshold} ")):
            sample_regime_case(rng, threshold)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("threshold", [0.0, -1.0])
    def test_thresholds_at_or_below_zero_pass_every_candidate(self, threshold):
        rng = np.random.default_rng(1)
        reference = reference_stream(1, threshold, 20)
        assert all(count == 1 for _, count, _ in reference)
        assert_serves_reference(rng, threshold, reference, StreamLookahead(20))


@pytest.mark.parametrize("decades", [RELUCTANCE_DECADES, MMF_DECADES], ids=["reluctance", "mmf"])
class TestDecadeMapUnderGathering:
    """The sampler maps only the gathered candidates it tests, so every
    double must map to the same bits whichever array it sits in."""

    RAW = np.random.default_rng(20261020).random(32_768)

    def test_every_short_gather(self, decades):
        full = decade_map(self.RAW, decades)
        rng = np.random.default_rng(8)
        for length in range(1, 41):
            for _ in range(8):
                idx = rng.choice(self.RAW.size, size=length, replace=False)
                start = rng.integers(0, self.RAW.size - length + 1)
                for gathered in (idx, np.sort(idx), np.arange(start, start + length)):
                    got = decade_map(self.RAW[gathered], decades)
                    assert np.array_equal(got.view(np.uint64), full[gathered].view(np.uint64))

    def test_random_index_sets_and_candidate_rows(self, decades):
        full = decade_map(self.RAW, decades)
        rng = np.random.default_rng(9)
        for size in (41, 127, 1_000, 6_553, 32_768):
            idx = rng.integers(0, self.RAW.size, size=size)
            got = decade_map(self.RAW[idx], decades)
            assert np.array_equal(got.view(np.uint64), full[idx].view(np.uint64))
            # The (m, 5) rows of candidate offsets, as the walk gathers them.
            starts = np.sort(idx[idx <= self.RAW.size - 5])
            rows = starts[:, None] + np.arange(5)
            got = decade_map(self.RAW[rows], decades)
            assert np.array_equal(got.view(np.uint64), full[rows].view(np.uint64))


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

    @pytest.mark.parametrize("n_samples, seed", [(50, 1), (50, 20260816), (64, 7), (200, 108)])
    def test_every_row_bit_for_bit_across_small_chunks(self, monkeypatch, n_samples, seed):
        monkeypatch.setattr(fidelity, "SAMPLE_BLOCK", 13)
        monkeypatch.setattr(fidelity, "WALK_CHUNK_DOUBLES", 3 * 5 * 13)
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
        """Each stream's rejection line: its text up to the candidates
        tested, then the candidates tested exactly, chunks walked, raw-bound
        survivors tested exactly, doubles drawn and doubles consumed it
        reports."""
        lines = []
        for record in caplog.records:
            message = record.getMessage()
            if "candidates tested" in message:
                head, walk = message.split("; wall ms: ")[0].split(" candidates tested, ")
                counts = re.fullmatch(
                    r"(\d+) of them exactly, (\d+) chunks walked, (\d+) raw-bound survivors "
                    r"tested exactly, (\d+) doubles drawn for (\d+) consumed",
                    walk,
                )
                lines.append((f"{head} candidates tested", *map(int, counts.groups())))
        return lines

    @staticmethod
    def _tested(n_samples, seed, stream, threshold):
        rng = np.random.default_rng([seed, stream])
        return sum(counted_rejection_sample(rng, threshold)[2] for _ in range(n_samples))

    def test_logs_the_rejection_work_of_each_stream(self, caplog):
        with caplog.at_level(logging.INFO, logger="srmec.fidelity"):
            run_fidelity_audit(50, 108)
        tested = [self._tested(50, 108, 0, BASE_THRESHOLD), self._tested(50, 108, 1, STRONG_THRESHOLD)]
        lines = self._rejection_lines(caplog)
        assert [line[0] for line in lines] == [
            f"audit stream 0: dominance threshold 10, 50 samples, {tested[0]} candidates tested",
            f"audit stream 1: dominance threshold 1000, 50 samples, {tested[1]} candidates tested",
        ]
        for (_, exact, chunks, survivors, drawn, consumed), count in zip(lines, tested, strict=True):
            # Every sample's candidate passed the exact test, and only
            # tested candidates reach it.
            assert 50 <= exact <= count
            # The chunks test every survivor of the raw bounds exactly,
            # served or not, and each tested one at least once.
            assert exact <= survivors
            # A candidate takes 5 doubles and a sample's MMFs 2.  The walk
            # throws away at most the rest of its last chunk and the few
            # doubles it draws again at each chunk boundary.
            assert consumed == 5 * count + 2 * 50
            assert consumed <= drawn <= consumed + fidelity.WALK_CHUNK_DOUBLES + 6 * chunks
            assert chunks >= 1

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
        assert [line[0] for line in self._rejection_lines(caplog)] == [
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
