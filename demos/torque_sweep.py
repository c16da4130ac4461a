"""Torque-angle curves via the coenergy route.

Sweeps one electrical period at several phase currents, prints the
stroke-mean and peak torque per current, the coil/magnet split of the
mean, and a coarse text profile of the 8 A curve.  The torque comes
from differencing the coenergy surface, so the zero-current curve is
identically zero by construction (the magnet-only stored energy sits in
the datum).  Run as `python3 demos/torque_sweep.py`.
"""

import numpy as np

from srmec.motor import MaterialSet, MotorGeometry
from srmec.saturation import BhCurve
from srmec.torque import torque_components

BAR_WIDTH = 46


def main() -> None:
    geometry = MotorGeometry()
    materials = MaterialSet()
    curve = BhCurve.default()

    print(f"{'I (A)':>5}  {'stroke mean (N*m)':>18}  {'peak (N*m)':>11}  "
          f"{'coil mean':>10}  {'magnet mean':>11}  {'magnet share':>12}")
    for current in (2.0, 4.0, 6.0, 8.0):
        split = torque_components(geometry, materials, curve, current)
        sweep = split.total_curve
        print(f"{current:>5.0f}  {sweep.stroke_mean_torque:>18.3f}  {sweep.peak_torque:>11.3f}  "
              f"{split.coil_only:>10.3f}  {split.pm_contribution:>11.3f}  {split.pm_share:>12.3f}")

    print()
    # The last row's total curve is the 8 A one.
    print("torque profile at 8 A (one period, motoring half positive):")
    # Coarse resample for the text plot; the underlying grid is 0.25 deg.
    for index in range(0, sweep.angles.size, sweep.angles.size // 16):
        angle = sweep.angles[index]
        torque = sweep.samples[index]
        offset = int(round((torque / sweep.peak_torque) * (BAR_WIDTH // 2)))
        cells = [" "] * (BAR_WIDTH + 1)
        cells[BAR_WIDTH // 2] = "|"
        cells[BAR_WIDTH // 2 + offset] = "*"
        print(f"{angle:>6.2f} deg  {''.join(cells)}  {torque:+8.3f} N*m")

    mean = float(np.mean(sweep.samples))
    print()
    print(f"full-period mean: {mean:.2e} N*m (telescopes to ~0: what the motoring")
    print("half produces, the return half consumes; useful work lives in the")
    print("stroke mean over the motoring half, which is what the table reports).")


if __name__ == "__main__":
    main()
