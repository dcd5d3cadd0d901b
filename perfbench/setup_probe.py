"""Set-up probe: a fresh interpreter made ready to call ``optimize``.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
Imports numpy, then dagswarm (and whatever dagswarm itself imports), builds
the workload's RunConfig and utility, and prints one JSON line with
``time.perf_counter`` readings. On Linux that clock is CLOCK_MONOTONIC,
shared by all processes, so the parent can subtract its own reading taken
just before it spawned this process. Run under ``python3 -X importtime``,
the probe's standard error also gives the time of each module imported.
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
before_numpy = time.perf_counter()
import numpy  # noqa: E402,F401

after_numpy = time.perf_counter()
import dagswarm  # noqa: E402,F401

after_dagswarm = time.perf_counter()
requests_in_dagswarm = "requests" in sys.modules
import workloads  # noqa: E402

workloads.build(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]), endpoint="http://127.0.0.1:9/")
ready = time.perf_counter()

import json  # noqa: E402

print(
    json.dumps(
        {
            "import_numpy_s": after_numpy - before_numpy,
            "import_dagswarm_s": after_dagswarm - after_numpy,
            "requests_in_dagswarm": requests_in_dagswarm,
            "ready": ready,
        }
    )
)
