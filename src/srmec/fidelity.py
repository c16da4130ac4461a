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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact import solve_exact
from .motor import (
    BranchFluxes,
    MeshFluxes,
    ReluctanceSet,
    SourceSet,
    branch_fluxes,
    closed_form_branch_fluxes,
    closed_form_mesh_fluxes,
    composite_reluctances,
    build_network,
    dominance_ratios,
)
from .network import solve_linear

DEFAULT_SAMPLES = 1000
DEFAULT_SEED = 108
# Sampling windows (log-uniform): reluctances span iron-to-magnet scales,
# MMFs span fractions of a turn-amp to kiloamp-turn excitation.
RELUCTANCE_DECADES = (2.0, 8.0)
MMF_DECADES = (0.0, 4.0)
# Everything is audited at the dominance threshold the closed forms
# assume, and once more far inside the regime to expose asymptotics.
BASE_THRESHOLD = 10.0
STRONG_THRESHOLD = 1000.0
# Reluctance candidates drawn and tested per vectorised rejection step.
SAMPLE_BLOCK = 128


@dataclass(frozen=True)
class FidelityRow:
    """One audited expression: deviation statistics over all samples."""

    equation: str
    max_rel_dev: float
    median_rel_dev: float
    n_samples: int
    seed: int


def sample_regime_case(rng: np.random.Generator, threshold: float) -> tuple[ReluctanceSet, SourceSet]:
    """Draw one regime-valid reluctance/source sample.

    Reluctances are redrawn until the magnet-dominance ratios pass the
    threshold; rejection keeps the marginal distribution log-uniform on
    the accepted region and stays deterministic for a given generator
    state.

    Candidates are drawn and tested in blocks of SAMPLE_BLOCK.  Once a
    block holds a passing candidate, the generator is rewound to where
    the call started and advanced over exactly the candidates up to and
    including the first passing one, so the sample and the generator
    state afterwards are exactly those of drawing and testing one
    candidate at a time.
    """
    start = rng.bit_generator.state
    rejected = 0
    while True:
        block = 10.0 ** rng.uniform(*RELUCTANCE_DECADES, size=(SAMPLE_BLOCK, 5))
        ratios = dominance_ratios(*block.T)
        passing = np.flatnonzero(np.logical_and.reduce([v >= threshold for v in ratios.values()]))
        if passing.size:
            break
        rejected += SAMPLE_BLOCK
    rng.bit_generator.state = start
    rng.uniform(*RELUCTANCE_DECADES, size=(rejected + int(passing[0]), 5))
    r_sy, r_sp, r_ry, r_g, r_pm = 10.0 ** rng.uniform(*RELUCTANCE_DECADES, size=5)
    accepted = ReluctanceSet(r_sy=r_sy, r_sp=r_sp, r_ry=r_ry, r_g=r_g, r_pm=r_pm)
    f_e, f_pm = 10.0 ** rng.uniform(*MMF_DECADES, size=2)
    return accepted, SourceSet(f_e=float(f_e), f_pm=float(f_pm))


def supermesh_limit_fluxes(r: ReluctanceSet, s: SourceSet) -> np.ndarray:
    """First-order mesh fluxes in the magnet-dominance limit.

    Each magnet branch behaves as an ideal flux source phi_r =
    f_pm/r_pm; eliminating the magnet meshes by supermesh reduction
    leaves a 2x2 system whose solution is written out here.  Exact as
    r_pm -> infinity with the other reluctances fixed.
    """
    phi_r = s.f_pm / r.r_pm
    loop = 2.0 * r.r_sp + 2.0 * r.r_g + r.r_ry
    denom = 5.0 * r.r_sy + 6.0 * loop
    phi1 = (-10.0 * s.f_e + (3.0 * loop - 10.0 * r.r_sp) * phi_r) / denom
    phi2 = (2.0 * s.f_e - (3.0 * loop + 2.0 * r.r_sy - 2.0 * r.r_sp) * phi_r) / denom
    phi4 = (2.0 * s.f_e + (3.0 * loop + 3.0 * r.r_sy + 2.0 * r.r_sp) * phi_r) / denom
    return np.array([phi1, phi2, phi2, phi4, phi2])


def rsy_variant_composites(r: ReluctanceSet):
    """Quadratic composites with the gap term widened to gap+yoke.

    Candidate repair for the missing yoke term in the printed quadratic
    composite: every occurrence of the gap reluctance in the quadratics
    is replaced by (gap + yoke), matching the (gap + yoke) numerators of
    the printed flux forms.  Audited alongside the printed version.
    """
    widened = ReluctanceSet(
        r_sy=r.r_sy, r_sp=r.r_sp, r_ry=r.r_ry, r_g=r.r_g + r.r_sy, r_pm=r.r_pm
    )
    return composite_reluctances(widened)


def _branch_array(b: BranchFluxes) -> np.ndarray:
    return np.array([b.phi_sy, b.phi_sp, b.phi_g])


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


def _collect(n_samples: int, seed: int, threshold: float, stream: int):
    """Deviation series for one threshold setting; off BASE_THRESHOLD,
    only the asymptotic rows, suffixed _strong_regime."""
    rng = np.random.default_rng([seed, stream])
    series: dict[str, list[float]] = {}

    def push(key: str, value: float) -> None:
        series.setdefault(key, []).append(value)

    for _ in range(n_samples):
        r, s = sample_regime_case(rng, threshold)
        system = build_network(r, s)
        exact = np.array(
            [float(x) for x in solve_exact(system.matrix.tolist(), system.rhs.tolist())]
        )
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

        # Internal consistency of the printed expressions themselves.
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
        values = np.array(series[key])
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
