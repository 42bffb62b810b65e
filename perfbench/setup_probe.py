"""Time one fresh set-up: import routhkit, then build a workload's inputs.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR [--smoke]

Prints the seconds taken.  run.py starts several of these for setup_s.
"""

import os
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from workloads import WORKLOADS  # noqa: E402  (imports routhkit)

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    WORKLOADS[name].setup(seed, workdir, "--smoke" in sys.argv[4:])
    print(time.perf_counter() - t0)
