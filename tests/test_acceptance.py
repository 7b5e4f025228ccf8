"""Acceptance gate: every criterion below prints one PASS/FAIL line.

Run with `pytest -v tests/test_acceptance.py`; each criterion is a single
test function, so the verbose listing carries exactly one PASSED/FAILED
line per criterion, and the explicit ACCEPTANCE lines land in captured
output (shown on failure, and with -s always).
"""

import functools
import json
import subprocess
import sys
import time

import pytest

import corpus
import oracles
import property_runners
from formring import (
    CohomologyTable,
    GradedQuotientRing,
    Ideal,
    KoszulComplexSpec,
    PolyRing,
    StabilizationConfig,
    comparison_rank,
    degree_gap_check,
    initial_forms_ideal,
    koszul_cohomology_piece,
    local_coh_table,
    local_h0_report,
    quasi_buchsbaum_test,
    stuckrad_test,
    two_diagonal_check,
)

P = 32003


def _line(num, ok, desc):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")


def criterion(num, desc):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                _line(num, False, desc)
                raise
            _line(num, True, desc)
        return inner
    return wrap


def family_ideal(r):
    ring = PolyRing(("x", "y", "z"), P)
    x, y, z = ring.gens()
    return Ideal(ring, [x**2, x * y, x * z - y**r, y ** (r + 1), x * z**2])


def f_surjective(G, table, i, n):
    entry = table.entry(i, n)
    if entry.dim == 0:
        return True
    return comparison_rank(G, i, n) == entry.dim


@criterion(1, "one-parameter family end-to-end, r = 3, 4, 5, each < 30 s")
def test_criterion_1_family_end_to_end():
    for r in (3, 4, 5):
        started = time.monotonic()
        A = family_ideal(r)

        # a. the tangent cone, exactly
        cone = initial_forms_ideal(A)
        assert sorted(str(g) for g in cone.groebner_basis().elements) == \
            sorted(["x^2", "x*y", "x*z", f"y^{r + 1}", f"y^{r}*z"]), r

        # b. row 0 dims {1: 1, r: 1}, nothing else, in window [-5, r+4]
        G = GradedQuotientRing(cone)
        cfg = StabilizationConfig(n_lo=-5, n_hi=r + 4, t_max=max(12, 3 * r),
                                  margin=2)
        table = local_coh_table(G, i_max=1, cfg=cfg)
        assert all(e.stabilized for e in table.entries.values()), r
        row0 = {e.n: e.dim for e in table.nonzero_row(0)}
        assert row0 == {1: 1, r: 1}, (r, row0)
        assert table.row_length(0) == 2, r

        # c. row 1 vanishes above r-2 and is nonzero at r-2
        row1 = {e.n: e.dim for e in table.nonzero_row(1)}
        assert all(n <= r - 2 for n in row1), (r, row1)
        assert row1.get(r - 2, 0) > 0, (r, row1)

        # d. graded ring passes the surjectivity test; filtered side
        #    fails the torsion comparison with the x * m^2 certificate;
        #    no diagonal index is admissible
        assert stuckrad_test(G, table).satisfied, r
        rep = local_h0_report(A)
        assert rep.f0_surjective is False, r
        certs = {c["generator"]: c["exponent"] for c in rep.certificates}
        assert certs.get("x") == 2, (r, certs)
        diag = two_diagonal_check(table, 1)
        assert diag.violated, r
        assert diag.data["admissible_k"] == \
            {"kind": "finite", "values": []}, r

        # e. graded torsion length bounds the filtered one; (2, 2) at r=3
        assert table.row_length(0) >= rep.torsion_dim, r
        if r == 3:
            assert (table.row_length(0), rep.torsion_dim) == (2, 2)

        elapsed = time.monotonic() - started
        assert elapsed < 30, f"r={r} took {elapsed:.1f}s"


@criterion(2, "synthetic two-row table: exactly one adjacent-diagonal "
              "violation, < 1 s")
def test_criterion_2_synthetic_gap():
    started = time.monotonic()
    table = CohomologyTable.synthetic_from({(1, 2): 10, (2, 0): 1})
    verdict = degree_gap_check(table, 5)
    assert verdict.violated
    assert verdict.data["violations"] == [
        {"i": 1, "j": 2, "p": 3, "q": 2, "dim_i": 10, "dim_j": 1}]
    assert time.monotonic() - started < 1.0


@criterion(3, "oracle equivalence on the corpus: saturation row 0 and "
              "ideal-quotient H^0, zero mismatches")
def test_criterion_3_oracle_equivalence():
    rings_checked = 0
    for case in corpus.CORPUS:
        G = corpus.graded(case.name)
        degrees = range(case.window[0], case.window[1] + 1)

        if case.full_table:
            table = corpus.full_table(case.name)
        else:
            table = local_coh_table(G, i_max=0, cfg=case.config())
        sat_oracle = oracles.saturation_h0_dims(G, degrees)
        for n in degrees:
            assert table.dim(0, n) == sat_oracle.get(n, 0), (case.name, n)

        quot_oracle = oracles.quotient_h0_dims(G, degrees)
        spec = KoszulComplexSpec(G, 1)
        for n in degrees:
            got = koszul_cohomology_piece(spec, 0, n).dim
            assert got == quot_oracle[n], (case.name, n)

        rings_checked += 1
    assert rings_checked >= 10, rings_checked


@criterion(4, "property suites, 200+ randomized cases each")
def test_criterion_4_property_suites():
    for name, runner in sorted(property_runners.ALL_RUNNERS.items()):
        count = runner(200)
        assert count >= 200, (name, count)


@criterion(5, "vanishing diagonal implies surjective comparison maps, "
              "zero violations")
def test_criterion_5_consistency():
    checks = 0
    for case in corpus.FULL_TABLE_CASES:
        G = corpus.graded(case.name)
        table = corpus.full_table(case.name)
        assert all(e.stabilized for e in table.entries.values()), case.name
        lo, hi = case.window
        for k in range(lo + table.i_max, hi):
            premise = all(table.dim(i, k + 1 - i) == 0
                          for i in range(table.i_max + 1))
            if not premise:
                continue
            for i in range(table.i_max + 1):
                assert f_surjective(G, table, i, k - i), (case.name, k, i)
                checks += 1
    assert checks > 50, checks


@criterion(6, "gap + annihilator hypotheses at t = dim imply surjectivity "
              "below the dimension, zero violations")
def test_criterion_6_soundness():
    premise_held = 0
    for case in corpus.FULL_TABLE_CASES:
        G = corpus.graded(case.name)
        table = corpus.full_table(case.name)
        d = G.krull_dimension()
        if d == 0:
            premise_held += 1  # vacuous but counted as exercised
            continue
        gap_ok = degree_gap_check(table, d).satisfied
        anni_ok = quasi_buchsbaum_test(G, table).satisfied
        if not (gap_ok and anni_ok):
            continue
        verdict = stuckrad_test(G, table)
        assert verdict.satisfied, (case.name, verdict.data)
        premise_held += 1
    # the family, the socle line, the free rings and the hypersurfaces
    # all satisfy the premise: this criterion must not pass vacuously
    assert premise_held >= 8, premise_held


@criterion(7, "byte-identical JSON across two consecutive CLI runs")
def test_criterion_7_determinism(tmp_path):
    session = (
        "char 32003; vars x,y,z;\n"
        "ideal F = x^2, x*y, x*z - y^r, y^(r+1), x*z^2;\n"
        "tangent_cone F r=3..5;\n"
        "localh0 F r=3;\n"
        "table F r=3 imax=1 window=-5..7;\n"
        "koszul F i=0 n=1 r=3;\n"
        "stuckrad F r=3 window=-5..7;\n"
        "quasibuchsbaum F r=3 window=-5..7;\n"
        "synthetic_table T = {(1,2): 10, (2,0): 1};\n"
        "gap T t=5;\n"
        "diag T t=2;\n"
    )
    path = tmp_path / "corpus_session.fr"
    path.write_text(session)
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "formring.cli", str(path)],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].encode() == outputs[1].encode()
    report = json.loads(outputs[0])
    assert [r["status"] for r in report["results"]].count("ok") >= 6
