"""Time one benchmark set-up in a fresh interpreter.

Set-up is importing wlift, building both lifting bases and running one
untimed warm-up trial of the workload. Prints the wall seconds and the
seconds at reference machine speed (see speed.py). Usage:
    python3 setup_probe.py <src dir> <workload>
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import workloads  # noqa: E402  (imports wlift, hence numpy)

workloads.setup(sys.argv[2])
wall = time.perf_counter() - start

import speed  # noqa: E402

kernel = speed.Kernel()
scaled = speed.scale(wall, kernel.seconds(), kernel.seconds())
print(f"{wall:.6f} {scaled:.6f}")
