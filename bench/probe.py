"""Set-up probe, run in a fresh interpreter by run.py.

Imports choi_sqpt and builds the given random-cptp channels, then prints
one JSON line with CLOCK_MONOTONIC readings (time.monotonic is
system-wide on Linux, so the parent can subtract its own spawn time) and
the path the library was imported from.

    python probe.py DIM:CHANNEL_SEED [DIM:CHANNEL_SEED ...]
"""

import json
import sys
import time

import_start = time.monotonic()
import choi_sqpt  # noqa: E402

import_end = time.monotonic()
for spec in sys.argv[1:]:
    dim, seed = spec.split(":")
    choi_sqpt.preset_channel("random-cptp", [int(seed)], int(dim))
ready = time.monotonic()
print(json.dumps({
    "import_start": import_start,
    "import_end": import_end,
    "ready": ready,
    "library": choi_sqpt.__file__,
}))
