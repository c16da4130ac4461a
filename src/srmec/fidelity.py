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
time.  It moves the generator by advance(), so it takes PCG64 (what
np.random.default_rng builds) or PCG64DXSM and refuses any other bit
generator with TypeError before a draw.  It serves one sample per call,
not a stream at once, because the benchmark harness (perfbench/)
credits audit work by counting sample_regime_case calls; ROADMAP item 1
re-points that count.
"""

from __future__ import annotations

import logging
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
# audit of 10,000 samples took 1.00 s and peaked at 56 MB RSS, and one
# of 100,000 took 9.7 s and 216 MB: about 0.1 ms and 1.8 kB per sample,
# so an audit at the bound takes about 20 s and 400 MB.
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
# Most doubles one chunk of a sampling walk draws.
WALK_CHUNK_DOUBLES = 32_768


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


class StreamLookahead:
    """A sampling stream walked ahead of the caller, one chunk of doubles
    at a time; sample_regime_case serves it one sample per call.

    It holds the chunk walked last (its raw doubles and their reluctance
    decade map), each candidate phase's passing candidates once the walk
    has landed on that phase, the walk's position, and the generator
    state the last served sample left.  remaining counts the samples the
    caller still wants, which sizes the chunks; chunks, drawn, consumed
    and served count the chunks walked, the doubles drawn, the doubles
    the served samples used and the samples served.
    """

    def __init__(self, n_samples: int) -> None:
        self.remaining = n_samples
        self.chunks = self.drawn = self.consumed = self.served = 0
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
        return reluctances, sources, tested

    def _restart(self, state: dict | None, threshold: float | None) -> None:
        """Walk afresh from the generator state given; the offsets below
        count doubles from it."""
        self._state = state
        self._threshold = threshold
        self._base = self._pos = self._offset = 0
        self._raw = self._mapped = np.empty(0)
        self._phases = [([], [])] * 5

    def _next(self, rng: np.random.Generator) -> tuple[np.ndarray, list[float], int]:
        """Walk to the next passing candidate whose MMF draws are drawn,
        drawing chunks as needed."""
        tested = 0
        while True:
            at = self._pos - self._base
            phase = at % 5
            if self._phases[phase] is None:
                self._phases[phase] = self._accepted(phase)
            offsets, sources = self._phases[phase]
            k = bisect_left(offsets, at)
            if k < len(sources):
                first = offsets[k]
                self._pos = self._base + first + 7
                return self._mapped[first : first + 5], sources[k], tested + (first - at) // 5 + 1
            if k < len(offsets):
                # Its MMF draws lie past the chunk: it is tested again there.
                tested += (offsets[k] - at) // 5
                self._pos = self._base + offsets[k]
            else:
                untested = (self._raw.size - at) // 5
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
        generator back over any doubles the last chunk left untested."""
        self._seek(rng.bit_generator)
        if self.served:
            size = -(-self.consumed * max(self.remaining, 1) // self.served) + 5 * SAMPLE_BLOCK
        else:
            size = max(self._pos, 5 * SAMPLE_BLOCK)
        # At least a candidate and its MMF draws, so that the walk moves on.
        size = max(min(size, WALK_CHUNK_DOUBLES), 7)
        self._raw = rng.random(size)
        self._mapped = decade_map(self._raw, RELUCTANCE_DECADES)
        self._phases = [None] * 5
        self._base = self._pos
        self._offset += size
        self.chunks += 1
        self.drawn += size

    def _accepted(self, phase: int) -> tuple[list[int], list[list[float]]]:
        """Chunk offsets of the passing candidates at this phase, and the
        MMFs of those whose MMF draws are in the chunk: all but the last
        at most."""
        count = (self._raw.size - phase) // 5
        block = self._mapped[phase : phase + 5 * count].reshape(count, 5)
        a, b, c, d = dominance_ratios(*block.T).values()
        # np.minimum propagates NaN, so a NaN ratio fails as it does alone.
        passing = np.minimum(np.minimum(a, b), np.minimum(c, d)) >= self._threshold
        offsets = 5 * np.flatnonzero(passing) + phase
        mmf = self._raw[offsets[offsets + 7 <= self._raw.size, None] + (5, 6)]
        return offsets.tolist(), decade_map(mmf, MMF_DECADES).tolist()


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

    The stream is walked ahead of the caller in chunks of raw doubles,
    each mapped by one decade_map call.  A candidate takes 5 doubles and
    an accepted one is followed by its 2 MMF doubles, so candidates fall
    on 5 phases of a chunk; a phase's pass mask is computed, over the
    whole chunk, when the walk first lands on it.  A chunk is sized from
    the samples still wanted and the doubles per sample served so far
    (5 * SAMPLE_BLOCK doubles until a sample is served, at most
    WALK_CHUNK_DOUBLES).  A lookahead carries the walk from call to call
    while the generator stays in the state its last call left; after a
    draw in between, on another generator or at another threshold the
    walk starts afresh.  Without one, the call walks for one sample.
    Either way the generator is then moved by advance() to the end of
    the sample's draws and the 32-bit buffer that advance() clears is
    put back, so the sample and the full generator state afterwards are
    exactly those of drawing and testing one candidate at a time.

    Raises TypeError, before drawing, if rng's bit generator is not
    PCG64 or PCG64DXSM.
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
        "%d chunks walked, %d doubles drawn for %d consumed; wall ms: sampling %.1f",
        stream, threshold, n_samples, sum(tested), lookahead.chunks, lookahead.drawn,
        lookahead.consumed, 1e3 * (sampled - started),
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
