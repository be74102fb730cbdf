"""Host-speed calibration for the benchmark's time metrics.

The machines this benchmark runs on are shared: the same Python code can
run 30% slower for minutes at a time because of other tenants, which would
swamp any change worth detecting.  So every timed section is paired with a
fixed calibration workload run in the same process right next to it, and
times are reported at a reference host speed:

    normalized = measured * REFERENCE_S / calibration_s

REFERENCE_S is a constant (about the calibration time on a 2-vCPU cloud VM
with Python 3.11), so normalized values read like milliseconds or seconds on
such a host.  The calibration is interpreter work, small-object allocation
and JSON encoding, the same mix as the simulator's hot paths, and it does
not touch the program under test, so a slower program still reads slower.
"""

from __future__ import annotations

import json
import time

REFERENCE_S = 0.025
ROWS = 1_000
ROUNDS = 10  # small batches keep the calibration out of the peak-RSS figure


def calibrate() -> float:
    """Seconds the fixed calibration workload takes now."""
    start = time.perf_counter()
    for _ in range(ROUNDS):
        json.dumps([{"i": i, "s": str(i), "f": i / 7} for i in range(ROWS)])
    return time.perf_counter() - start


def normalize(seconds: float, calibration_s: float) -> float:
    """A measured time at the reference host speed."""
    return seconds * REFERENCE_S / calibration_s
