"""formring benchmark: one workload, one seed, a closed loop for a fixed time.

    python3 bench/run.py --workload family --seed 0 --seconds 30 --trace 0

One process, one thread, one client: each job starts when the previous one
ends.  A pass runs the workload's fixed job list; passes repeat until the
time is up.  Every job's answer is checked after its pass, outside the timed
span; a job that raises, overruns its cap or answers differently counts as
failed and the run goes on.

With --trace 0 the last stdout line holds the end-to-end metrics, measured
with tracing off.  With --trace 1 untraced and traced passes alternate and
it holds the per-layer metrics from tracer.py.  The line before it is the
run record: sample counts, the latency tail, a drift probe and the machine.
README.md in this directory explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

JOB_CAP_S = 20.0      # a job still running after this long has failed
SETUP_TIMEOUT_S = 60.0
SETUP_EVERY_S = 3.0   # set-up samples are spread through the run this far apart
PROBE_LOOPS = 100_000


class JobOverrun(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobOverrun(f"job ran past its {JOB_CAP_S:g} s cap")


def drift_probe() -> float:
    """Seconds for a fixed pure-Python loop that does not touch formring.

    Recorded next to each pass so that machine drift can be told apart from
    a program change; no reported time is ever scaled by it.
    """
    start = perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc = (acc * 31 + i) % 1_000_003
    return perf_counter() - start


def setup_sample(workload: str, seed: int) -> float:
    """Wall seconds of a fresh process that imports formring, builds the
    workload's inputs and exits."""
    start = perf_counter()
    subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), workload,
                    str(seed)], check=True, timeout=SETUP_TIMEOUT_S,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def run_pass(jobs, checker, tracer=None) -> dict:
    """Run the job list once; time each job, then check every answer."""
    results = []
    times = []
    start = perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.begin_job()
        job_start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, JOB_CAP_S)
        try:
            results.append((job.run(), None))
        except Exception:  # a failed job is counted and the run goes on
            results.append((None, traceback.format_exc(limit=-3)))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        times.append(perf_counter() - job_start)
    wall = perf_counter() - start
    failures = []
    for index, (result, error) in enumerate(results):
        if error is None:
            error = checker.mismatch(index, jobs[index], result)
        if error is not None:
            failures.append({"job": index, "spec": jobs[index].spec,
                             "error": error})
    return {"wall": wall, "times": times, "failures": failures}


def tail(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return {"percentile": round(100 * (n - 10) / n, 1),
            "value_s": ordered[n - 11], "samples": n}


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "loadavg": list(os.getloadavg())}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from tracer import LayerTracer

    jobs = workloads.build_jobs(workload, seed)
    checker = workloads.Checker(workload, seed, jobs)
    layer_tracer = LayerTracer() if trace else None
    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "jobs_per_pass": len(jobs), "env_start": environment()}
    if not trace:
        setup_sample(workload, seed)  # untimed: compiles bytecode once
    setup_s: list[float] = []
    plain, traced, snapshots, failures, probes, cycles = [], [], [], [], [], []
    start = last_setup = perf_counter()
    deadline = start + seconds
    signal.signal(signal.SIGALRM, _on_alarm)
    while True:
        cycle_start = perf_counter()
        gc.collect()
        before = drift_probe()
        if trace and len(plain) > len(traced):
            layer_tracer.reset()
            with layer_tracer:
                result = run_pass(jobs, checker, layer_tracer)
            snapshots.append(layer_tracer.snapshot())
            traced.append(result)
        else:
            result = run_pass(jobs, checker)
            plain.append(result)
        probes.append([before, drift_probe()])
        failures.extend(result["failures"])
        if not trace and (not setup_s
                          or perf_counter() - last_setup >= SETUP_EVERY_S):
            last_setup = perf_counter()
            setup_s.append(setup_sample(workload, seed))
        cycles.append(perf_counter() - cycle_start)
        enough = len(plain) + len(traced) >= (2 if trace else 1)
        if enough and perf_counter() + statistics.median(cycles) > deadline:
            break
    record.update({
        "measured_s": perf_counter() - start,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "drift_probe_s": probes,
        "failures": failures[:5],
    })
    if trace:
        metrics, problems = layer_metrics(plain, traced, snapshots)
    else:
        metrics, problems = end_to_end_metrics(plain, setup_s, record), []
    record["problems"] = problems
    record["env_end"] = {"loadavg": list(os.getloadavg())}
    attempted = sum(len(r["times"]) for r in plain + traced)
    return {"record": record,
            "result": {"correct": not failures and not problems,
                       "attempted": attempted, "failed": len(failures),
                       "metrics": metrics}}


def end_to_end_metrics(plain: list[dict], setup_s: list[float],
                       record: dict) -> dict:
    job_times = [t for r in plain for t in r["times"]]
    walls = [r["wall"] for r in plain]
    record.update({"job_tail": tail(job_times), "job_times_s": job_times,
                   "pass_walls_s": walls, "setup_samples_s": setup_s})
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        # throughput: total pass time over passes, not a median
        "wall_s": {"value": statistics.mean(walls), "unit": "s"},
        "job_p50_s": {"value": statistics.median(job_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_kib / 1024, "unit": "MiB"},
    }


def layer_metrics(plain: list[dict], traced: list[dict],
                  snapshots: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics: medians of times, counts of one traced pass."""
    from tracer import TIME_METRICS

    problems = set()
    counts = {k: v for k, v in snapshots[0].items() if k not in TIME_METRICS}
    for snap, result in zip(snapshots, traced):
        if {k: snap[k] for k in counts} != counts:
            problems.add("counts differ between traced passes")
        if sum(snap[k] for k in TIME_METRICS if k.endswith(".self_s")) \
                > result["wall"]:
            problems.add("layer self times exceed the traced wall")
    values = dict(counts)
    for key in TIME_METRICS:
        values[key] = statistics.median(s[key] for s in snapshots)
    values["trace.overhead_ratio"] = (
        statistics.median(r["wall"] for r in traced)
        / statistics.median(r["wall"] for r in plain) - 1)
    metrics = {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}
    return metrics, sorted(problems)


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "formring" / "__init__.py").is_file():
        print(f"error: no formring sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("record: " + json.dumps(out["record"], sort_keys=True))
    print(json.dumps(out["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
