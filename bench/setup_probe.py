"""The set-up a user pays on each run, as a process of its own.

It imports formring, builds one workload's inputs for a seed and exits.
run.py times this process from start to exit for the `setup_s` metric.

    python3 bench/setup_probe.py WORKLOAD SEED
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402  (needs the paths above)

if __name__ == "__main__":
    workloads.build_jobs(sys.argv[1], int(sys.argv[2]))
