"""Seeded inputs, jobs and output checks for the benchmark's four workloads.

A workload is a fixed list of jobs of one size class.  The seed only varies
what leaves the checked answer unchanged (a unit coefficient, a variable
pair, a prime, a generic change of coordinates), so every seed does the
same kind and amount of work and one invariant projection checks them all.
README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import formring
import formring.cli  # noqa: F401  (the package does not import its CLI)
from formring import PolyRing, StabilizationConfig

DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

FAMILY_R = 3
FAMILY_P = 32003
# Primes below 2**15 for the surface jobs; any of them gives the same table.
PRIMES = (10007, 12007, 16381, 20011, 24007, 28001, 31991, 32003)
VARIABLES = ("x", "y", "z")
# One window for the two x*y workloads: every entry stabilizes inside it.
SURFACE_CFG = dict(n_lo=-3, n_hi=1, t_max=5)

VERDICTS = ("two_diagonal", "gap", "g_buchsbaum", "g_quasi_buchsbaum",
            "length_0")
H0_FIELDS = ("socle_dim", "torsion_dim", "socle_dims_by_order",
             "torsion_dims_by_order")


@dataclass(frozen=True)
class Job:
    """One timed call into formring plus what its answer must satisfy.

    `spec` is the plain-data input the seed produced; `run` is the timed
    call; `report` turns its result into the JSON value that is checked;
    `invariant` projects a report onto the fields no seed can change.
    """

    spec: dict
    run: Callable[[], object]
    report: Callable[[object], object]
    invariant: Callable[[object], object]


# -- input generation ---------------------------------------------------------

def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _family_specs(seed: int) -> list[dict]:
    rng = _rng("family", seed)
    return [{"r": FAMILY_R, "p": FAMILY_P, "c": c}
            for c in rng.sample(range(1, FAMILY_P), 2)]


def _surface_specs(seed: int) -> list[dict]:
    # Each pass holds all three variable pairs, in a seeded order: the pairs
    # differ by under 1% in elimination work, and so no seed's pass does
    # more of it than another's.
    rng = _rng("surfaces", seed)
    pairs = [[0, 1], [0, 2], [1, 2]]
    rng.shuffle(pairs)
    return [{"pair": pair, "p": rng.choice(PRIMES)} for pair in pairs]


def _generic_pair(rng: random.Random, p: int) -> list[list[int]]:
    """Two independent linear forms whose product has all six terms."""
    while True:
        rows = [[rng.randrange(1, p) for _ in range(3)] for _ in range(2)]
        (a0, a1, a2), (b0, b1, b2) = rows
        independent = any((u * v2 - u2 * v) % p for u, u2, v, v2 in (
            (a0, a1, b0, b1), (a0, a2, b0, b2), (a1, a2, b1, b2)))
        cross = [(a0 * b1 + a1 * b0) % p, (a0 * b2 + a2 * b0) % p,
                 (a1 * b2 + a2 * b1) % p]
        if independent and all(cross):
            return rows


def _coords_specs(seed: int) -> list[dict]:
    rng = _rng("coords", seed)
    return [{"p": FAMILY_P, "forms": _generic_pair(rng, FAMILY_P)}
            for _ in range(3)]


def session_text(p: int, c: int, c2: int) -> str:
    """A formring session: the r-family commands, a synthetic table, and
    descent verdicts on two ideals that live in x and y."""
    return "\n".join([
        f"char {p};",
        "vars x, y, z;",
        f"ideal F = x^2, x*y, x*z - {c}*y^r, y^(r+1), x*z^2;",
        "ideal L = x^2, x*y, z;",
        f"ideal N = x^2 - {c2}*y^3, z;",
        "synthetic_table T = {(0, 1): 1, (0, 3): 1, (1, -2): 3, (1, 0): 2};",
        "tangent_cone F r=3..5;",
        "localh0 F r=3;",
        "koszul F r=3 i=1 n=0;",
        "table F r=3 imax=1 window=0..3 tmax=6;",
        "stuckrad F r=3 window=-2..3 tmax=6;",
        "quasibuchsbaum F r=3 window=-2..3 tmax=6;",
        "gap T t=2;",
        "diag T t=2;",
        "cor41 L window=-2..2 tmax=6;",
        "cor41 N window=-2..2 tmax=6;",
        "",
    ])


def _session_specs(seed: int) -> list[dict]:
    rng = _rng("session", seed)
    specs = []
    for _ in range(2):
        p = rng.choice(PRIMES)
        specs.append({"text": session_text(p, rng.randrange(1, p),
                                           rng.randrange(1, p))})
    return specs


SPECS = {
    "family": _family_specs,
    "surfaces": _surface_specs,
    "coords": _coords_specs,
    "session": _session_specs,
}
WORKLOADS = tuple(SPECS)


# -- invariant projections ------------------------------------------------------

def descent_invariant(report: dict, cone: object) -> dict:
    """Fields of a descent report that no seed of a workload changes."""
    return {
        "dimension": report["dimension"],
        "table_nonzero": report["table_nonzero"],
        "cone": cone,
        "verdicts": {k: report[k]["status"] for k in VERDICTS},
        "a_h0": {k: report["a_h0"][k] for k in H0_FIELDS},
        "a_buchsbaum": report["a_buchsbaum"],
    }


def _renamed(generator: str, names: dict[str, str]) -> str:
    """Rename the variables of a monomial such as 'x*z'."""
    return "*".join(names[v] for v in generator.split("*"))


_SESSION_FIELDS = {
    # command -> data fields that no seed changes (None: all of them)
    "tangent_cone": ("cone_generators",),
    "localh0": H0_FIELDS,
    "koszul": None,
    "table": None,
    "stuckrad": ("dimension", "surjectivity"),
    "quasibuchsbaum": ("dimension",),
    "gap": None,
    "diag": None,
}


def session_invariant(results: list[dict]) -> list[dict]:
    out = []
    for entry in results:
        verb = entry["command"].split()[0]
        data = entry["data"]
        if verb == "cor41":
            kept = descent_invariant(data, data["g_generators"])
        elif _SESSION_FIELDS[verb] is None:
            kept = data
        else:
            kept = {k: data[k] for k in _SESSION_FIELDS[verb]}
        out.append({"command": entry["command"], "status": entry["status"],
                    "window": entry["window"], "data": kept})
    return out


# -- jobs ----------------------------------------------------------------------

def _descent_job(spec: dict, ring: PolyRing, gens: list,
                 cfg: StabilizationConfig | None, cone) -> Job:
    # A fresh Ideal per call: Ideal caches its Groebner bases, and every
    # pass must do the same work as the first.
    def run():
        return formring.descent_verdict(formring.Ideal(ring, gens), cfg=cfg)

    return Job(spec, run, lambda rep: rep.to_dict(),
               lambda d: descent_invariant(d, cone(d)))


def _family_job(spec: dict) -> Job:
    ring = PolyRing(VARIABLES, spec["p"])
    x, y, z = ring.gens()
    r, c = spec["r"], spec["c"]
    gens = [x**2, x * y, x * z - c * y**r, y**(r + 1), x * z**2]
    return _descent_job(spec, ring, gens, None, lambda d: d["g_generators"])


def _surface_job(spec: dict) -> Job:
    ring = PolyRing(VARIABLES, spec["p"])
    a, b = spec["pair"]
    v = ring.gens()
    names = {VARIABLES[a]: "x", VARIABLES[b]: "y"}
    return _descent_job(
        spec, ring, [v[a] * v[b]], StabilizationConfig(**SURFACE_CFG),
        lambda d: [_renamed(g, names) for g in d["g_generators"]])


def _coords_job(spec: dict) -> Job:
    ring = PolyRing(VARIABLES, spec["p"])
    v = ring.gens()
    l1, l2 = (sum((k * g for k, g in zip(row, v)), ring.zero())
              for row in spec["forms"])
    # The cone is the seeded quadric itself: only its generator count is
    # seed-independent.
    return _descent_job(spec, ring, [l1 * l2],
                        StabilizationConfig(**SURFACE_CFG),
                        lambda d: len(d["g_generators"]))


def run_session(text: str) -> tuple[int, str]:
    """`formring -` on `text`: the exit code and the captured stdout."""
    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = formring.cli.main(["-"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


def _session_report(outcome: tuple[int, str]) -> dict:
    code, stdout = outcome
    # Only `results` is compared: `config` and `version` may change shape.
    return {"exit_code": code, "results": json.loads(stdout)["results"]}


def _session_job(spec: dict) -> Job:
    text = spec["text"]
    return Job(spec, lambda: run_session(text), _session_report,
               lambda d: {"exit_code": d["exit_code"],
                          "results": session_invariant(d["results"])})


JOBS = {
    "family": _family_job,
    "surfaces": _surface_job,
    "coords": _coords_job,
    "session": _session_job,
}


def build_jobs(workload: str, seed: int) -> list[Job]:
    """The set-up: the workload's job list for this seed."""
    return [JOBS[workload](spec) for spec in SPECS[workload](seed)]


# -- reference ------------------------------------------------------------------

def canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict:
    with open(reference_path(workload), encoding="utf-8") as handle:
        return json.load(handle)


class Checker:
    """Compares job reports with the reference recorded at the default seed.

    At the default seed each report must match the recorded one byte for
    byte; at any seed its invariant projection must match the recorded one.
    """

    def __init__(self, workload: str, seed: int, jobs: list[Job]):
        ref = load_reference(workload)
        self.invariant = canonical(ref["invariant"])
        self.exact = ([canonical(r) for r in ref["reports"]]
                      if seed == ref["seed"] else None)
        if self.exact is not None and len(self.exact) != len(jobs):
            raise ValueError(f"reference for {workload} has "
                             f"{len(self.exact)} reports, expected {len(jobs)}")

    def mismatch(self, index: int, job: Job, result) -> str | None:
        """None when the job's result is right, else a reason."""
        try:
            report = job.report(result)
            if self.exact is not None \
                    and canonical(report) != self.exact[index]:
                return "report differs from the recorded bytes"
            invariant = canonical(job.invariant(report))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            return f"report has an unexpected shape: {exc!r}"
        if invariant != self.invariant:
            return "invariant fields differ from the reference"
        return None
