"""Audit of the closed-form flux expressions against an exact oracle.

The literature accompanying this machine publishes closed-form
solutions for the five mesh fluxes and the three branch fluxes.  This
module measures how well those expressions solve the five-mesh system
they are attributed to, using exact rational elimination as the
reference, over seeded random reluctance/source samples restricted to
the regime the closed forms assume (magnet reluctance dominant).

Verdict, frozen into the acceptance suite: the printed closed forms do
NOT solve the five-mesh system.  Their deviations are order-one even
deep inside the dominance regime, and the printed gap-branch form is
additionally inconsistent with the printed mesh forms (its PM term
carries the opposite sign).  A first-order reference solution derived
here by supermesh reduction (collapse each magnet branch into an ideal
flux source of strength f_pm/r_pm) does converge to the exact solution
as dominance grows, which confirms the audit discriminates rather than
failing everything.  Consequences for the rest of the package: every
computation path uses the numeric solve; the closed forms are evaluated
for reporting only.

Deviation metric: per sample, |candidate - exact| is normalized by the
largest exact flux magnitude of the corresponding vector (mesh or
branch).  A plain component-relative ratio would blow up whenever a
component crosses zero inside the sampled region and would measure
nothing but the crossing; the scale-relative form keeps every row a
bounded, comparable number.  Rows whose candidates are exact identities
report zero.

Each sampling stream is drawn sample by sample and then audited as one
batch: every system is stamped at once, the exact oracle is one stacked
solve_exact call, the production solve behind
branch_map_production_vs_exact is one stacked solve_linear call, and
every row is an array expression over all samples.  Every per-sample
value has the bits the one-sample-at-a-time audit gave it.

The sampler, sample_regime_case, serves one sample per call from a
walk over the stream that runs ahead of the caller in bounded chunks
(StreamLookahead), bit for bit the stream of drawing one candidate at a
time.  A cheap necessary test on the raw draws of each chunk
(raw_bounds) picks the candidates the exact dominance test is run on,
once per chunk, so most candidates are rejected before they are mapped
to reluctances (the squeeze of Marsaglia, "The squeeze method for
generating gamma variates", 1977, used only to reject).  The sampler
moves the generator by advance(), so it takes PCG64 (what
np.random.default_rng builds) or PCG64DXSM and refuses any other bit
generator with TypeError before a draw.  It serves one sample per call,
not a stream at once, because the benchmark harness (perfbench/)
credits audit work by counting sample_regime_case calls; ROADMAP item 1
re-points that count.
"""

from __future__ import annotations

import logging
import math
import time
from bisect import bisect_left
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .exact import solve_exact
from .motor import (
    ReluctanceSet,
    SourceSet,
    branch_flux_values,
    build_network,
    closed_form_branch_fluxes,
    closed_form_mesh_fluxes,
    composite_reluctances,
    dominance_ratios,
)
from .network import solve_linear

logger = logging.getLogger(__name__)

DEFAULT_SAMPLES = 1000
DEFAULT_SEED = 108
# Most samples `srmec fidelity` takes.  On a 2-core x86-64 machine an
# audit of 10,000 samples took 0.78-0.84 s and peaked at 56 MB RSS, and
# one of 100,000 took 8.4-9.3 s and 217 MB: about 0.09 ms and 1.8 kB per
# sample, so an audit at the bound takes about 18 s and 400 MB.
MAX_AUDIT_SAMPLES = 200_000
# Sampling windows (log-uniform): reluctances span iron-to-magnet scales,
# MMFs span fractions of a turn-amp to kiloamp-turn excitation.
RELUCTANCE_DECADES = (2.0, 8.0)
MMF_DECADES = (0.0, 4.0)
# Everything is audited at the dominance threshold the closed forms
# assume, and once more far inside the regime to expose asymptotics.
BASE_THRESHOLD = 10.0
STRONG_THRESHOLD = 1000.0
# Candidates in a sampling walk's chunk before it has served a sample,
# and the margin over its estimate after.
SAMPLE_BLOCK = 128
# Most doubles one chunk of a sampling walk draws.  20 s harness audit
# runs, seeds 0-3, 2-core x86-64, against the walk that tested each phase
# apart: work_per_cal x1.04-1.14 / 1.02-1.06 / 1.01-1.07 and peak RSS
# -0.8..+0.2 / -0.1..+0.9 / +1.0..+1.7 MB at 32,768 / 65,536 / 131,072.
WALK_CHUNK_DOUBLES = 32_768
# Each reluctance is 10 ** (2 + 6u) of its raw draw u, so a dominance
# ratio pm / x >= k * threshold bounds the raw difference u_pm - u_x from
# below by log10(k * threshold) / 6.  Each ratio of dominance_ratios
# implies one of these (sp, sy, g and ry being positive): pm / (2 sp)
# gives pm / sp >= 2T, pm / (sp + sy) and pm / sy give pm / sy >= T, and
# 3 pm / (2 sy + 2 g + ry) gives pm / g >= 2T / 3 and pm / ry >= T / 3.
# (column of the candidate's raw draw, k), most selective first.
RAW_BOUND_FACTORS = ((1, 2.0), (0, 1.0), (3, 2.0 / 3.0), (2, 1.0 / 3.0))
# The margin each raw bound is lowered by, so that it also holds for the
# rounded exact route.  That route's error in log10 of a ratio, for the
# same draws: the affine step 6u + 2 rounds twice (at most 8.9e-16 in
# each exponent), the power is within a few ulps (about 4e-16 in log10
# each), and the ratio's sums, product and division round a few times
# more (about 2e-16 in all): under 3e-15, or 1e-14 for a power kernel
# a few ulps worse, and 2e-15 in raw units after the division by 6.  The
# bound's log10 and the difference of draws add about 1e-16.  1e-9 is
# more than five orders of magnitude above all of it, and lets through
# at most a few candidates in 1e9 more than the unmargined bounds.
RAW_BOUND_MARGIN = 1e-9


@dataclass(frozen=True)
class FidelityRow:
    """One audited expression: deviation statistics over all samples."""

    equation: str
    max_rel_dev: float
    median_rel_dev: float
    n_samples: int
    seed: int


class RegimeSamples(NamedTuple):
    """Regime-valid samples as (n,) arrays, one entry per sample.

    The fields are named as those of ReluctanceSet and SourceSet, so the
    closed forms and build_network take a whole batch as both.
    """

    r_sy: np.ndarray
    r_sp: np.ndarray
    r_ry: np.ndarray
    r_g: np.ndarray
    r_pm: np.ndarray
    f_e: np.ndarray
    f_pm: np.ndarray


def decade_map(draws: np.ndarray, decades: tuple[float, float]) -> np.ndarray:
    """Map unit draws log-uniformly onto a decade window, as a new array.

    Returns 10 ** (lo + (hi - lo) * draws) for decades = (lo, hi); the
    affine step rounds as np.random.Generator.uniform(lo, hi) does.  Both
    the reluctance and the MMF draws of the audit go through here.  The
    power is numpy's float64 array-power ufunc, whose SIMD loop numpy
    picks for the machine at import (AVX512_SKX where the frozen audit
    pins were made).  It rounds differently from libm pow in about 1 of
    20 draws, and FROZEN_AUDIT_STATS, FROZEN_VERDICTS and the audit
    SHA-256 pins hang on its bits; a strided array may take another
    loop, so draws should be contiguous.
    """
    lo, hi = decades
    exponents = (hi - lo) * draws
    exponents += lo
    return np.power(10.0, exponents, out=exponents)


def raw_bounds(threshold: float) -> tuple[tuple[int, float], ...]:
    """(column, bound) pairs, most selective first: a candidate of five
    raw reluctance draws u can pass the dominance threshold only if
    u[4] - u[column] >= bound for each pair (see RAW_BOUND_FACTORS).

    A threshold <= 0 gives bounds of -inf, which every candidate meets.
    Raises ValueError naming the threshold if it is NaN or no candidate
    can reach it: raw draws lie in [0, 1), so their differences stay
    below 1, and a bound of 1 or more before the margin is out of reach.
    On the reluctance window that is every threshold from 5e5 up, since
    pm / (2 sp) < 1e8 / (2 * 1e2).
    """
    if threshold != threshold:
        raise ValueError(f"dominance threshold {threshold} is not a number")
    lo, hi = RELUCTANCE_DECADES
    bounds = tuple(
        (column, math.log10(k * threshold) / (hi - lo) if k * threshold > 0 else -math.inf)
        for column, k in RAW_BOUND_FACTORS
    )
    if max(bound for _, bound in bounds) >= 1.0:
        raise ValueError(
            f"dominance threshold {threshold} is out of reach: no reluctance set on "
            f"the window 10**{lo:g} to 10**{hi:g} has every dominance ratio that large"
        )
    return tuple((column, bound - RAW_BOUND_MARGIN) for column, bound in bounds)


def bounded_offsets(raw: np.ndarray, bounds: tuple[tuple[int, float], ...]) -> np.ndarray:
    """Ascending offsets i into the raw draws at which the candidate
    raw[i : i + 5] meets every bound of raw_bounds: the most selective
    over every offset at once, with contiguous slices, and the others on
    its survivors."""
    count = raw.size - 4
    (column, bound), *rest = bounds
    offsets = np.flatnonzero(raw[4:] - raw[column : column + count] >= bound)
    pm = raw[offsets + 4]
    keep = np.ones(offsets.size, dtype=bool)
    for column, bound in rest:
        keep &= pm - raw[offsets + column] >= bound
    return offsets[keep]


class StreamLookahead:
    """A sampling stream walked ahead of the caller, one chunk of raw
    doubles at a time; sample_regime_case serves it one sample per call.

    Of the chunk walked last it holds, for each candidate in it that
    meets raw_bounds, its key (phase * chunk size + offset, so that each
    phase, offsets modulo 5, is one ascending run), the index of the
    first such candidate at or after it that passes the exact test, and
    its reluctances and MMFs; no raw doubles.  remaining counts the
    samples the caller still wants, which sizes the chunks; at 0 the
    chunk is dropped.  chunks, drawn, consumed and served count the
    chunks walked, the doubles drawn, the doubles the served samples used
    and the samples served; survivors counts the candidates the chunks
    tested exactly, and exactly_tested those of them tested for the
    served samples.
    """

    def __init__(self, n_samples: int) -> None:
        self.remaining = n_samples
        self.chunks = self.drawn = self.consumed = self.served = 0
        self.survivors = self.exactly_tested = 0
        self._restart(None, None)

    def serve(
        self, rng: np.random.Generator, threshold: float
    ) -> tuple[np.ndarray, list[float], int]:
        """The next sample's five reluctances, its two MMFs and the count
        of candidates tested for it; rng is left just past its draws."""
        bit_generator = rng.bit_generator
        state = bit_generator.state
        if state != self._state or threshold != self._threshold:
            self._restart(state, threshold)
        reluctances, sources, tested = self._next(rng)
        self._seek(bit_generator)
        after = bit_generator.state
        # advance() zeroes the buffered 32-bit half and its flag, which the
        # state keeps even once the half is spent; doubles never touch them.
        if (after["has_uint32"], after["uinteger"]) != (state["has_uint32"], state["uinteger"]):
            after["has_uint32"], after["uinteger"] = state["has_uint32"], state["uinteger"]
            bit_generator.state = after
        self._state = after
        self.remaining -= 1
        self.served += 1
        self.consumed += 5 * tested + 2
        if self.remaining == 0:
            self._drop()
        return reluctances, sources, tested

    def _restart(self, state: dict | None, threshold: float | None) -> None:
        """Walk afresh from the generator state given; the offsets below
        count doubles from it.  Raises raw_bounds' ValueError, before any
        change, for a threshold no candidate can pass."""
        bounds = None if threshold is None else raw_bounds(threshold)
        self._state, self._threshold, self._bounds = state, threshold, bounds
        self._pos = self._offset = 0
        self._drop()

    def _drop(self) -> None:
        """Let go of the chunk; the walk goes on from its position."""
        self._base, self._size, self._rows, self._sources = self._pos, 0, None, None
        self._keys, self._ahead = [0], [0]

    def _next(self, rng: np.random.Generator) -> tuple[np.ndarray, list[float], int]:
        """Walk to the next passing candidate, drawing chunks as needed."""
        tested = 0
        while True:
            at = self._pos - self._base
            run = at % 5 * self._size  # the key of the phase's offset 0
            start = bisect_left(self._keys, run + at)
            j = self._ahead[start]
            if self._keys[j] < run + self._size:
                first = self._keys[j] - run
                self._pos = self._base + first + 7
                self.exactly_tested += j + 1 - start
                tested += (first - at) // 5 + 1
                return self._rows[j], self._sources[2 * j : 2 * j + 2], tested
            self.exactly_tested += bisect_left(self._keys, run + self._size) - start
            # Candidates from size - 6 on lack MMF draws: the next chunk tests them.
            untested = max((self._size - 2 - at) // 5, 0)
            tested += untested
            self._pos += 5 * untested
            self._draw(rng)

    def _seek(self, bit_generator: np.random.BitGenerator) -> None:
        """Move the generator to the walk's position, the end of the last
        sample or the first double a new chunk draws."""
        if self._pos != self._offset:
            bit_generator.advance((self._pos - self._offset) % 2**128)
            self._offset = self._pos

    def _draw(self, rng: np.random.Generator) -> None:
        """Draw the next chunk from the walk's position, stepping the
        generator back over any doubles the last chunk left untested, and
        give the exact test, once, to the candidates in it that meet the
        raw bounds and whose MMF draws it holds."""
        self._seek(rng.bit_generator)
        if self.served:
            size = -(-self.consumed * max(self.remaining, 1) // self.served) + 5 * SAMPLE_BLOCK
        else:
            size = max(self._pos, 5 * SAMPLE_BLOCK)
        # At least a candidate and its MMF draws, so that the walk moves on.
        size = max(min(size, WALK_CHUNK_DOUBLES), 7)
        raw = rng.random(size)
        keys = bounded_offsets(raw[:-2], self._bounds)
        keys = np.sort(keys % 5 * size + keys)
        bounded = keys % size
        # Contiguous: the power gives each double the bits it gives it in any array.
        block = decade_map(raw[bounded[:, None] + np.arange(5)], RELUCTANCE_DECADES)
        a, b, c, d = dominance_ratios(*block.T).values()
        # np.minimum propagates NaN, so a NaN ratio fails as it does alone.
        passing = np.flatnonzero(np.minimum(np.minimum(a, b), np.minimum(c, d)) >= self._threshold)
        # Each survivor's first passing survivor at or after it, else the sentinel.
        ahead = np.append(passing, keys.size)[np.searchsorted(passing, np.arange(keys.size + 1))]
        self._size, self._rows = size, block
        self._sources = decade_map(raw[bounded[:, None] + (5, 6)], MMF_DECADES).ravel().tolist()
        self._keys, self._ahead = keys.tolist() + [5 * size], ahead.tolist()
        self._base = self._pos
        self._offset += size
        self.chunks += 1
        self.drawn += size
        self.survivors += keys.size


def sample_regime_case(
    rng: np.random.Generator,
    threshold: float,
    tested: list[int] | None = None,
    lookahead: StreamLookahead | None = None,
) -> tuple[ReluctanceSet, SourceSet]:
    """Draw one regime-valid reluctance/source sample.

    Five reluctances are drawn log-uniform on RELUCTANCE_DECADES (in
    ReluctanceSet field order) and redrawn until every magnet-dominance
    ratio passes the threshold; then two MMFs are drawn log-uniform on
    MMF_DECADES.  Rejection keeps the marginal distribution log-uniform
    on the accepted region and stays deterministic for a given generator
    state.  If tested is a list, the number of candidates tested is
    appended to it.

    The stream is walked ahead of the caller in chunks of raw doubles.
    A candidate takes 5 doubles and an accepted one is followed by its 2
    MMF doubles, so a candidate can start at any offset of a chunk.  On
    each chunk, raw_bounds, a test on the raw draws that every passing
    candidate meets, runs over all offsets at once, and the candidates
    of all 5 phases (offsets modulo 5) that meet it, save those whose
    MMF draws lie past the chunk, are mapped by decade_map and given the
    exact dominance test, which alone decides, in one call each.  A chunk
    is sized from the samples still wanted and the doubles per sample
    served so far (5 * SAMPLE_BLOCK doubles until a sample is served, at
    most WALK_CHUNK_DOUBLES).  A lookahead carries the walk from call to
    call while the generator stays in the state its last call left;
    after a draw in between, on another generator or at another
    threshold the walk starts afresh.  Once it has served the samples it
    was made for, it lets go of its chunk.  Without one, the call walks
    for one sample.  Either way the generator is then moved by advance()
    to the end of the sample's draws and the 32-bit buffer that
    advance() clears is put back, so the sample and the full generator
    state afterwards are exactly those of drawing and testing one
    candidate at a time.

    Raises TypeError, before drawing, if rng's bit generator is not
    PCG64 or PCG64DXSM, and ValueError, before drawing, if the threshold
    is NaN or out of every candidate's reach (see raw_bounds).  A
    threshold <= 0 passes the first candidate.
    """
    # Their advance() counts one step per 64-bit output, and the LCG
    # behind PCG jumps any distance in O(log n) (Brown, "Random Number
    # Generation with Arbitrary Strides", 1994).  MT19937 and SFC64 have
    # no advance, and Philox's counts blocks of four outputs.  Named
    # here, not at import, since numpy loads numpy.random on first use.
    if not isinstance(rng.bit_generator, (np.random.PCG64, np.random.PCG64DXSM)):
        raise TypeError(
            f"sample_regime_case needs a PCG64 or PCG64DXSM bit generator, "
            f"got {type(rng.bit_generator).__name__}"
        )
    walk = StreamLookahead(1) if lookahead is None else lookahead
    (r_sy, r_sp, r_ry, r_g, r_pm), (f_e, f_pm), count = walk.serve(rng, threshold)
    if tested is not None:
        tested.append(count)
    return (
        ReluctanceSet(r_sy=r_sy, r_sp=r_sp, r_ry=r_ry, r_g=r_g, r_pm=r_pm),
        SourceSet(f_e=f_e, f_pm=f_pm),
    )


def supermesh_limit_fluxes(r: ReluctanceSet, s: SourceSet) -> np.ndarray:
    """First-order mesh fluxes in the magnet-dominance limit.

    Each magnet branch behaves as an ideal flux source phi_r =
    f_pm/r_pm; eliminating the magnet meshes by supermesh reduction
    leaves a 2x2 system whose solution is written out here.  Exact as
    r_pm -> infinity with the other reluctances fixed.  The fields of r
    and s may be (n,) arrays of samples, giving (n, 5).
    """
    phi_r = s.f_pm / r.r_pm
    loop = 2.0 * r.r_sp + 2.0 * r.r_g + r.r_ry
    denom = 5.0 * r.r_sy + 6.0 * loop
    phi1 = (-10.0 * s.f_e + (3.0 * loop - 10.0 * r.r_sp) * phi_r) / denom
    phi2 = (2.0 * s.f_e - (3.0 * loop + 2.0 * r.r_sy - 2.0 * r.r_sp) * phi_r) / denom
    phi4 = (2.0 * s.f_e + (3.0 * loop + 3.0 * r.r_sy + 2.0 * r.r_sp) * phi_r) / denom
    return np.array([phi1, phi2, phi2, phi4, phi2]).T


def rsy_variant_composites(r: ReluctanceSet):
    """Quadratic composites with the gap term widened to gap+yoke.

    Candidate repair for the missing yoke term in the printed quadratic
    composite: every occurrence of the gap reluctance in the quadratics
    is replaced by (gap + yoke), matching the (gap + yoke) numerators of
    the printed flux forms.  Audited alongside the printed version.
    """
    return composite_reluctances(SimpleNamespace(r_g=r.r_g + r.r_sy, r_ry=r.r_ry, r_sp=r.r_sp))


# Row order of the report; every row appears exactly once per audit.
ROW_ORDER = (
    "mesh1_closed_form",
    "mesh2_closed_form",
    "mesh3_closed_form",
    "mesh4_closed_form",
    "mesh5_closed_form",
    "yoke_branch_closed_form",
    "pole_branch_closed_form",
    "gap_branch_closed_form",
    "yoke_branch_vs_negated_mesh1_print",
    "gap_branch_print_vs_composed_print",
    "mesh2_vs_mesh3_exact",
    "mesh5_vs_mesh2_exact",
    "mesh5_vs_mesh2_exact_strong_regime",
    "branch_map_production_vs_exact",
    "mesh1_supermesh_limit",
    "mesh2_supermesh_limit",
    "mesh4_supermesh_limit",
    "mesh1_supermesh_limit_strong_regime",
    "mesh2_supermesh_limit_strong_regime",
    "mesh4_supermesh_limit_strong_regime",
    "mesh2_closed_form_rsy_variant",
    "mesh4_closed_form_rsy_variant",
    "pole_branch_closed_form_rsy_variant",
    "gap_branch_closed_form_rsy_variant",
)


def _collect(n_samples: int, seed: int, threshold: float, stream: int) -> dict[str, np.ndarray]:
    """Per-sample deviations of every row for one threshold setting,
    each an (n_samples,) array; off BASE_THRESHOLD, only the asymptotic
    rows, suffixed _strong_regime.

    Samples are served one by one from the stream's walk (one
    StreamLookahead) and their systems stamped at once; the
    exact oracle and the production solve are then one stacked call
    each, and each row is one array expression over the whole batch.
    The wall time of each of these four stages is logged: sampling with
    the rejection work as soon as it is done, so that a stream whose
    oracle or production solve fails still reports it, and the other
    three once the rows are built.
    """
    clock = time.perf_counter
    started = clock()
    rng = np.random.default_rng([seed, stream])
    tested: list[int] = []
    lookahead = StreamLookahead(n_samples)
    values = np.empty((n_samples, len(RegimeSamples._fields)))
    for k in range(n_samples):
        r, s = sample_regime_case(rng, threshold, tested, lookahead)
        values[k] = r.r_sy, r.r_sp, r.r_ry, r.r_g, r.r_pm, s.f_e, s.f_pm
    samples = RegimeSamples(*values.T)
    system = build_network(samples, samples)
    sampled = clock()
    logger.info(
        "audit stream %d: dominance threshold %g, %d samples, %d candidates tested, "
        "%d of them exactly, %d chunks walked, %d raw-bound survivors tested exactly, "
        "%d doubles drawn for %d consumed; wall ms: sampling %.1f",
        stream, threshold, n_samples, sum(tested), lookahead.exactly_tested, lookahead.chunks,
        lookahead.survivors, lookahead.drawn, lookahead.consumed, 1e3 * (sampled - started),
    )
    exact = solve_exact(system.matrix, system.rhs).rounded()
    solved_exactly = clock()
    production = None
    if threshold == BASE_THRESHOLD:
        production = solve_linear(system).values
    solved = clock()
    series = _rows(samples, exact, production)
    logger.info(
        "audit stream %d: wall ms: oracle %.1f, production solve %.1f, rows %.1f",
        stream, 1e3 * (solved_exactly - sampled), 1e3 * (solved - solved_exactly),
        1e3 * (clock() - solved),
    )
    return series


def _rows(
    samples: RegimeSamples, exact: np.ndarray, production: np.ndarray | None
) -> dict[str, np.ndarray]:
    """The deviation rows of one stream from its exact solutions; with
    no production solutions, only the asymptotic rows, suffixed
    _strong_regime."""
    mesh_scale = np.max(np.abs(exact), axis=1)

    def mesh_dev(candidate: np.ndarray, k: int) -> np.ndarray:
        return np.abs(candidate - exact[:, k]) / mesh_scale

    suffix = "" if production is not None else "_strong_regime"
    limit = supermesh_limit_fluxes(samples, samples)
    series = {f"mesh5_vs_mesh2_exact{suffix}": mesh_dev(exact[:, 4], 1)}
    for k in (0, 1, 3):
        series[f"mesh{k + 1}_supermesh_limit{suffix}"] = mesh_dev(limit[:, k], k)
    if suffix:
        return series

    exact_branch = branch_flux_values(exact)
    branch_scale = np.maximum(np.max(np.abs(exact_branch), axis=1), mesh_scale * 1e-300)

    def branch_dev(candidate: np.ndarray, k: int) -> np.ndarray:
        return np.abs(candidate - exact_branch[:, k]) / branch_scale

    printed_mesh = closed_form_mesh_fluxes(samples, samples)
    for k in range(5):
        series[f"mesh{k + 1}_closed_form"] = mesh_dev(printed_mesh[:, k], k)
    printed_branch = closed_form_branch_fluxes(samples, samples)
    series["yoke_branch_closed_form"] = branch_dev(printed_branch.phi_sy, 0)
    series["pole_branch_closed_form"] = branch_dev(printed_branch.phi_sp, 1)
    series["gap_branch_closed_form"] = branch_dev(printed_branch.phi_g, 2)

    # Internal consistency of the printed expressions themselves.
    series["yoke_branch_vs_negated_mesh1_print"] = (
        np.abs(printed_branch.phi_sy - (-printed_mesh[:, 0])) / branch_scale
    )
    composed = branch_flux_values(printed_mesh)
    series["gap_branch_print_vs_composed_print"] = (
        np.abs(printed_branch.phi_g - composed[:, 2]) / branch_scale
    )
    series["mesh2_vs_mesh3_exact"] = mesh_dev(exact[:, 2], 1)

    series["branch_map_production_vs_exact"] = (
        np.max(np.abs(branch_flux_values(production) - exact_branch), axis=1) / branch_scale
    )

    variant = rsy_variant_composites(samples)
    variant_mesh = closed_form_mesh_fluxes(samples, samples, variant)
    variant_branch = closed_form_branch_fluxes(samples, samples, variant)
    series["mesh2_closed_form_rsy_variant"] = mesh_dev(variant_mesh[:, 1], 1)
    series["mesh4_closed_form_rsy_variant"] = mesh_dev(variant_mesh[:, 3], 3)
    series["pole_branch_closed_form_rsy_variant"] = branch_dev(variant_branch.phi_sp, 1)
    series["gap_branch_closed_form_rsy_variant"] = branch_dev(variant_branch.phi_g, 2)
    return series


def run_fidelity_audit(
    n_samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED
) -> list[FidelityRow]:
    """Run the full audit; deterministic for fixed (n_samples, seed).

    Most rows are sampled at the base dominance threshold; rows suffixed
    _strong_regime rerun their quantity at a thousandfold dominance to
    expose asymptotic behavior.  Returns rows in fixed ROW_ORDER.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    series = _collect(n_samples, seed, BASE_THRESHOLD, stream=0)
    series.update(_collect(n_samples, seed, STRONG_THRESHOLD, stream=1))

    rows = []
    for key in ROW_ORDER:
        values = series[key]
        rows.append(
            FidelityRow(
                equation=key,
                max_rel_dev=float(np.max(values)),
                median_rel_dev=float(np.median(values)),
                n_samples=n_samples,
                seed=seed,
            )
        )
    return rows


def audit_notes(rows: list[FidelityRow]) -> str:
    """Plain-language resolution of the questions the audit settles."""
    by_name = {row.equation: row for row in rows}

    def dev(name: str) -> float:
        return by_name[name].max_rel_dev

    lines = [
        "closed-form audit notes",
        "=======================",
        "reference: exact rational elimination of the assembled five-mesh system;",
        "deviations are scale-relative (normalized by the largest exact flux magnitude).",
        "",
        f"1. printed mesh closed forms: max scale-relative deviation "
        f"{max(dev(f'mesh{k}_closed_form') for k in range(1, 6)):.3e} across meshes. "
        "They do not solve the five-mesh system, not even asymptotically; "
        "all computation in this package uses the numeric solve.",
        f"2. supermesh limit reference: deviation {max(dev('mesh1_supermesh_limit'), dev('mesh2_supermesh_limit'), dev('mesh4_supermesh_limit')):.3e} "
        f"at dominance 10 falling to {max(dev('mesh1_supermesh_limit_strong_regime'), dev('mesh2_supermesh_limit_strong_regime'), dev('mesh4_supermesh_limit_strong_regime')):.3e} "
        "at dominance 1000: the audit does identify formulas consistent with the system, "
        "so the closed-form failure above is real, not a methodology artifact.",
        f"3. mesh fluxes 2 and 3: exactly equal in every exact solution "
        f"(max deviation {dev('mesh2_vs_mesh3_exact'):.3e}); this follows from the 2<->3 symmetry of the system.",
        f"4. mesh flux 5 versus 2: printed as identical, but only asymptotically so. "
        f"Max deviation {dev('mesh5_vs_mesh2_exact'):.3e} at dominance 10 versus "
        f"{dev('mesh5_vs_mesh2_exact_strong_regime'):.3e} at dominance 1000.",
        f"5. widening the gap term to gap+yoke inside the quadratic composites "
        f"(candidate repair for the missing yoke term there) leaves order-one deviations "
        f"(pole branch {dev('pole_branch_closed_form_rsy_variant'):.3e} vs printed {dev('pole_branch_closed_form'):.3e}); "
        "the missing-term question is immaterial because no variant of these composites "
        "reproduces the exact solution.",
        f"6. printed branch forms are internally inconsistent: the gap branch disagrees "
        f"with the printed mesh forms pushed through the exact branch map by "
        f"{dev('gap_branch_print_vs_composed_print'):.3e} (PM term enters with opposite sign), "
        f"while the yoke branch is consistently the negated first mesh flux "
        f"(deviation {dev('yoke_branch_vs_negated_mesh1_print'):.3e}).",
        f"7. production solver check: branch fluxes from the float solve match the exact "
        f"oracle to {dev('branch_map_production_vs_exact'):.3e}.",
        "8. energy-route convention: coenergy is integrated from zero current, so the "
        "magnet-only stored energy is absorbed into the datum and the zero-current "
        "torque curve is identically zero by construction. Cogging torque is invisible "
        "to this route; the zero-current curve is reported as its own output, not "
        "presented as a physical prediction.",
        "9. magnet share of air-gap flux dips between 2 A and 4 A before the diversion "
        "rise (the coil MMF first cancels the magnet bias in the shared poles); the "
        "share at 8 A still exceeds the 1 A share severalfold, so the saturation-"
        "diversion mechanism itself stands.",
        "",
    ]
    return "\n".join(lines)
