"""Record the stdout sha256 of every fixed invocation into reference.json.

    python3 perfbench/record_reference.py

Run it from the repository root on the commit whose outputs are the
reference. Each output must pass its oracle before it is recorded.
"""

import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from run import THREAD_PINS, WORKDIR, WORKLOADS  # noqa: E402

os.environ.update(THREAD_PINS)  # before numpy is first imported
import workloads as wl  # noqa: E402

references = {}
for workload in WORKLOADS:
    objects = wl.program_objects(workload, wl.DEFAULT_SEED)
    for op in wl.build_ops(workload, wl.DEFAULT_SEED, objects, WORKDIR, traced=True):
        if op.fixed:
            out = op.run()
            error = op.check(out)
            if error is not None:
                sys.exit(f"{op.key}: {error}")
            references[op.key] = op.digest(out)
wl.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
print(f"recorded {len(references)} stdout digests in {wl.REFERENCES}")
