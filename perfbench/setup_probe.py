"""Child process that measures set-up time in a fresh interpreter.

Usage: python3 setup_probe.py ROOT CONFIG

Imports srmec from ROOT/src, resolves CONFIG ("-" for the built-in
defaults), loads the default B-H curve and the bundled motor records,
then reads time.monotonic_ns().  The parent reads the clock just before
starting this process; both readings come from the system-wide
CLOCK_MONOTONIC, so their difference is the time from start to ready for
the first operation, interpreter start-up included.  Once ready, it
times the calibration kernel (calibration.py) on the same CPU, outside
the set-up time, and prints both readings.
"""

import sys
import time
from pathlib import Path

root, config = Path(sys.argv[1]), sys.argv[2]
sys.path.insert(0, str(root / "src"))

import srmec.cli  # noqa: E402  (the user's entry point imports this)
from srmec.config import load_config  # noqa: E402
from srmec.metrics import load_motor_records  # noqa: E402
from srmec.saturation import BhCurve  # noqa: E402

load_config(None if config == "-" else config)
BhCurve.default()
load_motor_records()
ready = time.monotonic_ns()

import calibration  # noqa: E402  (after the clock reading: not set-up work)

print(ready, calibration.kernel_seconds("setup"))
