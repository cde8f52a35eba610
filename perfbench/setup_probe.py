"""Set-up time of one workload in a fresh process.

Usage: python3 perfbench/setup_probe.py <workload>

Prints the seconds from the start of this script to the moment riemmean is
imported and the workload's static objects (config, manifold, group action)
are built, before any trial runs.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import riemmean  # noqa: E402,F401
from workloads import WORKLOADS, build_static  # noqa: E402

build_static(WORKLOADS[sys.argv[1]])
print(repr(time.perf_counter() - T0))
