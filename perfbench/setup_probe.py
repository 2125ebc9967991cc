"""Time one set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the seconds spent importing the package and generating the
workload's scenarios; ``run.py`` starts it several times per run.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from workloads import WORKLOADS, setup  # noqa: E402

setup(WORKLOADS[sys.argv[1]], int(sys.argv[2]))
print(time.perf_counter() - start)
