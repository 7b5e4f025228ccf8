"""Tests of the benchmark's own code: inputs, output checks and the tracer.

    python3 -m pytest -q bench
"""

import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import formring  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _input_bytes(workload, seed):
    return workloads.canonical(workloads.SPECS[workload](seed)).encode()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    assert _input_bytes(workload, 7) == _input_bytes(workload, 7)
    assert _input_bytes(workload, 7) != _input_bytes(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 1, 2])
def test_first_job_passes_the_checks(workload, seed):
    # At the default seed this compares the full report bytes; at the
    # others, the invariant fields recorded at the default seed.
    jobs = workloads.build_jobs(workload, seed)
    checker = workloads.Checker(workload, seed, jobs)
    assert (checker.exact is not None) == (seed == workloads.DEFAULT_SEED)
    assert checker.mismatch(0, jobs[0], jobs[0].run()) is None


def test_a_wrong_answer_is_caught():
    jobs = workloads.build_jobs("surfaces", 1)
    checker = workloads.Checker("surfaces", 1, jobs)
    family = workloads.build_jobs("family", 1)[0]
    assert checker.mismatch(0, jobs[0], family.run()) is not None


def _bindings(function):
    return [(name, attr) for name, module in sorted(sys.modules.items())
            if name == "formring" or name.startswith("formring.")
            for attr, value in vars(module).items() if value is function]


def test_tracer_patches_every_binding_and_restores_them():
    saturate = formring.groebner.saturate
    bound = _bindings(saturate)
    # defined in groebner, imported by localcoh, descent and the package
    assert {name for name, _ in bound} >= {
        "formring", "formring.groebner", "formring.localcoh",
        "formring.descent"}
    add = formring.Polynomial.__add__
    with tracer.LayerTracer():
        assert _bindings(saturate) == []
        assert formring.descent.saturate is formring.localcoh.saturate
        assert formring.Polynomial.__add__ is not add
    assert _bindings(saturate) == bound
    assert formring.Polynomial.__add__ is add


def _traced(job):
    layers = tracer.LayerTracer()
    layers.reset()
    with layers:
        start = perf_counter()
        job.run()
        wall = perf_counter() - start
    return layers.snapshot(), wall


@pytest.mark.parametrize("workload", ["surfaces", "session"])
def test_traced_counts_repeat_and_self_times_fit_in_the_wall(workload):
    job = workloads.build_jobs(workload, 3)[0]
    (first, wall), (second, _) = _traced(job), _traced(job)
    counts = [k for k in first if k not in tracer.TIME_METRICS]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["linalg.rref_calls"] > 0
    assert first["graded.rings_built"] > 0
    self_times = [first[f"{layer}.self_s"] for layer in tracer.LAYERS]
    assert all(t >= 0 for t in self_times)
    assert sum(self_times) <= wall
    if workload == "session":
        assert first["dsl.parse_calls"] == 1
        assert first["cli.commands"] == 12
