"""Tour of the five-mesh magnetic network and its two solve routes.

Builds the mesh system for the production geometry at the aligned and
unaligned rotor positions, solves it with the production LAPACK route,
cross-checks against the exact rational-arithmetic oracle, and prints
the branch fluxes that the rest of the package consumes.  Everything is
deterministic; run it as `python3 demos/mesh_network_tour.py`.
"""

import numpy as np

from srmec.exact import solve_exact
from srmec.motor import (
    MaterialSet,
    MotorGeometry,
    branch_fluxes,
    build_network,
    regime_check,
    reluctances_from_geometry,
    sources_for,
)
from srmec.network import kirchhoff_residual, solve_linear


def show_position(geometry: MotorGeometry, materials: MaterialSet, angle: float, name: str) -> None:
    r = reluctances_from_geometry(geometry, materials, angle)
    s = sources_for(geometry, materials, current=8.0)
    system = build_network(r, s)

    print(f"--- {name} position ({angle:g} deg), 8 A ---")
    print(f"reluctances (A-t/Wb): yoke {r.r_sy:.3e}  pole {r.r_sp:.3e}  "
          f"gap {r.r_g:.3e}  rotor yoke {r.r_ry:.3e}  magnet {r.r_pm:.3e}")
    print(f"sources (A-t): coil {s.f_e:.1f}  magnet {s.f_pm:.1f}")

    fluxes = solve_linear(system)
    exact = solve_exact(system.matrix, system.rhs).rounded()
    gap = np.max(np.abs(exact - fluxes.values))
    print(f"mesh fluxes (Wb): {np.array2string(fluxes.values, precision=3)}")
    print(f"production residual (exact arithmetic): {kirchhoff_residual(system, fluxes):.2e}")
    print(f"worst gap to the rational oracle: {gap:.2e}")
    print(f"mesh 2 == mesh 3 (network symmetry): {fluxes.values[1] == fluxes.values[2]}")

    b = branch_fluxes(fluxes)
    print(f"branches (Wb): stator yoke {b.phi_sy:+.3e}  pole {b.phi_sp:+.3e}  gap {b.phi_g:+.3e}")

    report = regime_check(r)
    worst = min(report.ratios.values())
    print(f"closed-form dominance regime: all_pass={report.all_pass} (worst ratio {worst:.2f})")
    print()


def main() -> None:
    geometry = MotorGeometry()
    materials = MaterialSet()
    show_position(geometry, materials, geometry.aligned_angle_deg, "aligned")
    show_position(geometry, materials, geometry.unaligned_angle_deg, "unaligned")
    print("The oracle route (exact integer elimination) and the production route stay")
    print("separate on purpose: one checks the other, so a regression in either")
    print("shows up as a residual, never as two copies of the same bug.")


if __name__ == "__main__":
    main()
