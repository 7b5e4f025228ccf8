"""Record the reference answers that run.py checks jobs against.

For each workload it runs the default seed's jobs once and stores their full
reports and the shared invariant projection in reference/<workload>.json.
Record them only from a commit whose answers are known to be right; a
change that alters any report must say so and re-record.

    python3 bench/record_reference.py [WORKLOAD ...]
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402  (needs the paths above)


def record(workload: str) -> None:
    jobs = workloads.build_jobs(workload, workloads.DEFAULT_SEED)
    reports = [job.report(job.run()) for job in jobs]
    invariants = {workloads.canonical(job.invariant(rep))
                  for job, rep in zip(jobs, reports)}
    if len(invariants) != 1:
        raise SystemExit(f"{workload}: jobs disagree on the invariant fields")
    out = {"seed": workloads.DEFAULT_SEED, "reports": reports,
           "invariant": json.loads(invariants.pop())}
    path = workloads.reference_path(workload)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, sort_keys=True, indent=1) + "\n",
                    encoding="utf-8")
    print(f"{workload}: {len(reports)} reports -> {path.name}")


if __name__ == "__main__":
    for name in sys.argv[1:] or workloads.WORKLOADS:
        record(name)
