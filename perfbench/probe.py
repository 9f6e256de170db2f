"""Cold-start probe: import ``loqc.cli``, build the workload's program-side
objects, print the CLOCK_MONOTONIC nanosecond reading when they exist.

    python3 perfbench/probe.py WORKLOAD SEED     (PYTHONPATH=src)

``run.py`` takes the reading it made before spawning this interpreter from
the printed one, so ``setup_s`` covers interpreter start, imports and set-up.
"""

import sys
import time
from pathlib import Path

import loqc.cli  # noqa: F401  (the import every cold loqc call pays)

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

workloads.program_objects(sys.argv[1], int(sys.argv[2]))
print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))
