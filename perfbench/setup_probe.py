"""Time what every CLI call pays before it starts work, in a fresh process.

Usage: python3 setup_probe.py SRC_DIR [SCENARIO_FILE ...]

Imports ``colosim.cli`` from SRC_DIR, loads and validates each scenario file
into a plan, then runs the host-speed calibration, and prints one JSON
object with the elapsed times.
"""

import json
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import colosim.cli  # noqa: E402

imported = time.perf_counter()
for path in sys.argv[2:]:
    colosim.cli.load_config(path).plan()
done = time.perf_counter()

from calibration import calibrate  # noqa: E402

# Median of three: the first call in a fresh process also grows the heap.
calibration_s = sorted(calibrate() for _ in range(3))[1]
print(json.dumps({"import_s": imported - start, "setup_s": done - start,
                  "calibration_s": calibration_s, "module": colosim.cli.__file__}))
