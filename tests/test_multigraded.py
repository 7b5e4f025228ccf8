"""Multidegree blocks for monomial cones against the dense Koszul path."""

import dataclasses
import itertools
import math
import random
import sys
from math import comb

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

import corpus
import oracles
from formring import (
    GradedQuotientRing,
    Ideal,
    KoszulComplexSpec,
    PolyRing,
    StabilizationConfig,
    annihilator_is_irrelevant,
    descent_verdict,
    initial_forms_ideal,
    koszul_cohomology_piece,
    local_coh_table,
    quasi_buchsbaum_test,
    stuckrad_test,
)
from formring import descent, koszul, linalg, localcoh, multigraded


@st.composite
def monomial_cones(draw, max_vars=4):
    """GF(p)[x..] modulo a few random monomials, a small window and a random
    t_max and margin.

    The dense oracle eliminates whole internal degrees n + t*i up to the
    power T(n) + margin.  T(n) = C - n below C = sum rho_j - nv + 1, so the
    window starts a few degrees below C: fewer with more variables.  The
    dense oracle takes at most three variables.
    """
    p = draw(st.sampled_from([2, 5, 32003]))
    nv = draw(st.integers(2, max_vars))
    R = PolyRing(tuple("xyzw"[:nv]), p)
    exps = [tuple(draw(st.integers(0, 2)) for _ in range(nv))
            for _ in range(draw(st.integers(0, 3)))]
    gens = [R.monomial(e) for e in exps if any(e)]
    margin = draw(st.integers(1, 2))
    t_max = draw(st.integers(margin + 1, 6))
    # rho_j is at most the largest exponent of x_j among the generators
    top = sum(max((e[j] for e in exps if any(e)), default=0)
              for j in range(nv)) - nv + 1
    lo = top - 1 - draw(st.integers(0, 5 - nv))
    hi = draw(st.integers(lo, lo + 2))
    cfg = StabilizationConfig(lo, hi, t_max=t_max, margin=margin)
    return GradedQuotientRing(Ideal(R, gens)), cfg


@settings(max_examples=40, deadline=None)
@given(monomial_cones(max_vars=3))
def test_blocks_match_dense_oracle(cone):
    # every entry is read at T(n) whatever t_max and margin are; the dense
    # detector run to T(n) + margin settles it by T(n) at the same value.
    # At every power the dense route reaches (all of them: three variables
    # stay under the cap), the blocks give its dimension, and each class's
    # block terms are the nonzero entries of its dense column, in order:
    # the engine's at T(n), the multidegree walk's at every power
    G, cfg = cone
    assert G.monomial
    eng = multigraded.engine(G)
    try:
        table = local_coh_table(G, cfg=cfg)
        for (i, n), entry in table.entries.items():
            settle = eng.settle_power(n)
            assert (entry.power, entry.stabilized, entry.history,
                    entry.settled_by) == (settle, True, (),
                                          localcoh.SETTLE_POWER)
            reach = dataclasses.replace(cfg, t_max=settle + cfg.margin)
            dense = oracles.dense_local_coh_piece(G, i, n, reach)
            assert dense.stabilized and dense.power <= settle
            assert entry.dim == dense.dim
            t_max = len(dense.history)
            assert settle <= t_max
            for t in range(1, t_max + 1):
                spec = KoszulComplexSpec(G, t)
                reps = oracles.dense_piece(G, t, i, n).representatives
                assert koszul_cohomology_piece(spec, i, n).dim == \
                    reps.shape[1]
                dense_terms = [oracles.dense_terms(spec, i, n, col)
                               for col in reps.T]
                assert [terms for _, _, terms in
                        oracles.walk_classes(G, t, i, n)] == dense_terms
                rank = linalg.rank(oracles.dense_f_map(G, i, n, t), G.p)
                assert oracles.walk_comparison_rank(G, i, n, t) == rank
                if t == settle:
                    assert [terms for _, _, terms in
                            eng.classes(i, n)] == dense_terms
                    assert koszul.comparison_rank(G, i, n) == rank
        if G.is_zero_ring():
            return
        for i in range(min(G.krull_dimension(), table.i_max + 1)):
            ok, extra = annihilator_is_irrelevant(G, i, table)
            assert ok is not None
            assert extra == oracles.annihilator_witnesses_per_column(
                G, i, table)
    finally:
        oracles.dense_piece.cache_clear()
        oracles.dense_transition_matrix.cache_clear()


def _bowtie_ring():
    R = PolyRing(tuple("abcde"), 32003)
    _, b, c, d, e = R.gens()
    return GradedQuotientRing(Ideal(R, [b * d, b * e, c * d, c * e]))


@settings(max_examples=60, deadline=None)
@given(monomial_cones())
@example((_bowtie_ring(), None))
def test_cap_readers_match_the_walk_at_the_settle_power(cone):
    # a cap c with k coordinates at -1 holds the multidegrees of degree n
    # given by the compositions of s = sum(c) + k - n into k positive
    # parts: none when s < k, as for the bowtie's cap (-1, 0, 0, 0, 0),
    # which carries H^2, at every n >= 0
    G, _ = cone
    if G.is_zero_ring():
        return
    eng = multigraded.engine(G)
    for n in StabilizationConfig.default_for(G).degrees():
        t = eng.settle_power(n)
        for i in range(G.krull_dimension()):
            assert eng.comparison_rank(i, n) == \
                oracles.walk_comparison_rank(G, i, n, t)
            assert eng.classes(i, n) == oracles.walk_classes(G, t, i, n)


def test_compositions_have_positive_parts():
    for s in range(-2, 7):
        for k in range(5):
            parts = multigraded._compositions(s, k)
            expected = (math.comb(s - 1, k - 1) if s >= k >= 1
                        else int(k == s == 0))
            assert len(parts) == len(set(parts)) == expected
            assert all(len(p) == k and sum(p) == s and min(p, default=1) >= 1
                       for p in parts)


@settings(max_examples=40, deadline=None)
@given(monomial_cones())
def test_settle_power_bounds_detector(cone):
    # T(n) is the largest power any window entry can still change at, so
    # the trailing-run detector with two more powers settles every entry by
    # T(n), at the dimension the blocks give at T(n).  The detector ranks
    # the transition maps block by block, so four variables stay in reach
    G, small = cone
    t_max = multigraded.engine(G).settle_power(small.n_lo) + 2
    wide = StabilizationConfig(small.n_lo, small.n_hi, t_max=t_max, margin=2)
    table = local_coh_table(G, cfg=small)
    for (i, n), entry in table.entries.items():
        detected = oracles.block_local_coh_piece(G, i, n, wide)
        assert detected.stabilized
        assert detected.power <= multigraded.engine(G).settle_power(n)
        assert detected.dim == entry.dim == \
            multigraded.engine(G).colimit_dims(n)[i]


@settings(max_examples=40, deadline=None)
@given(monomial_cones())
def test_colimit_dims_match_enumerated_multidegrees(cone):
    # D = sum rho_j - m; with D < 0 (a free ring, say) the window still
    # reaches the degrees below -m where the top cohomology lives
    G, _ = cone
    eng = multigraded.engine(G)
    bound = abs(eng.degree_bound())
    for n in range(-bound - 6, bound + 3):
        assert eng.colimit_dims(n) == oracles.enumerated_colimit_dims(G, n)
    for key, blk in eng._cache.items():
        if key[0] == "block":
            assert [blk.dim(q) for q in range(eng.m + 1)] == \
                [blk.cohomology(q).shape[1] for q in range(eng.m + 1)]


@settings(max_examples=40, deadline=None)
@given(monomial_cones())
def test_row_lengths_match_enumerated_multidegrees(cone):
    # a finite row is zero outside [0, D] and its length is its sum there,
    # also read from a window above D; a cap with k coordinates at -1 adds
    # to every degree <= sum(c) - k, so an infinite row is nonzero just
    # below the lowest such degree
    G, cfg = cone
    eng = multigraded.engine(G)
    top = eng.degree_bound()
    tables = [local_coh_table(G, cfg=window)
              for window in (cfg, StabilizationConfig(top + 1, top + 1))]
    columns = {n: oracles.enumerated_colimit_dims(G, n)
               for n in range(-abs(top) - 6, abs(top) + 3)}
    for table, i in itertools.product(tables, range(eng.m + 1)):
        length = table.row_length(i)
        if length is not None:
            assert length == sum(columns[n][i] for n in range(top + 1))
            assert all(column[i] == 0 for n, column in columns.items()
                       if not 0 <= n <= top)
        else:
            lowest = min(sum(x for x in c if x >= 0) - c.count(-1)
                         for c, dims in eng.caps().items()
                         if dims[i] and -1 in c)
            assert columns[lowest - 1][i] > 0


@pytest.mark.parametrize("build, i, length", [
    (lambda: corpus.graded("skew-lines"), 1, 1),
    (lambda: corpus.graded("skew-lines"), 2, None),
    (lambda: _rp2_ring(2), 2, 1),
    (lambda: _rp2_ring(3), 2, 0),
    (lambda: _rp2_ring(2), 3, None)])
def test_row_length_past_the_window(build, i, length):
    # each finite row lives in degree 0 (Hochster, for RP^2), which the
    # window -3..-1 does not reach
    table = local_coh_table(build(), cfg=StabilizationConfig(-3, -1))
    assert table.row_length(i) == length


@st.composite
def linear_changes(draw):
    """A monomial cone in two or three variables over GF(p), and its image
    under a random invertible linear change of the variables."""
    p = draw(st.sampled_from([2, 3, 5, 32003]))
    nv = draw(st.integers(2, 3))
    R = PolyRing(tuple("xyz"[:nv]), p)
    exps = [tuple(draw(st.integers(0, 2)) for _ in range(nv))
            for _ in range(draw(st.integers(1, 3)))]
    exps = [e for e in exps if any(e)]
    matrix = [[draw(st.integers(0, p - 1)) for _ in range(nv)]
              for _ in range(nv)]
    assume(linalg.rank(np.array(matrix, dtype=np.int64), p) == nv)
    forms = [sum((c * v for c, v in zip(row, R.gens())), R.zero())
             for row in matrix]

    def image(e):
        f = R.one()
        for form, k in zip(forms, e):
            f = f * form ** k
        return f

    return (GradedQuotientRing(Ideal(R, [R.monomial(e) for e in exps])),
            GradedQuotientRing(Ideal(R, [image(e) for e in exps])))


@seed(21)
@settings(max_examples=100, deadline=None)
@given(linear_changes())
def test_linear_change_keeps_table_and_verdicts(pair):
    # a table and both Buchsbaum checks are invariant under an invertible
    # linear change of variables: the monomial cone goes through the
    # blocks, its image (unless it is monomial again) through the dense
    # route at T(n)
    mono, moved = pair
    assert mono.monomial
    cfg = StabilizationConfig.default_for(mono)
    tables = [local_coh_table(G, cfg=cfg) for G in (mono, moved)]
    assert tables[0].as_rows() == tables[1].as_rows()
    for check in (stuckrad_test, quasi_buchsbaum_test):
        assert check(mono, tables[0]).status == check(moved, tables[1]).status


def test_annihilator_reads_every_coordinate_of_a_block_image():
    # x and y send each class of H^1_0 into a block whose H^1 has dimension
    # 2, and the image has one zero coordinate there
    R = PolyRing(("x", "y", "z"), 32003)
    x, y, z = R.gens()
    G = GradedQuotientRing(Ideal(R, [y**2 * z**2, x * y * z, x * y**2]))
    table = local_coh_table(G)
    ok, extra = annihilator_is_irrelevant(G, 1, table)
    assert ok is False
    assert {(name, n) for name, n, _ in extra} >= {("x", 0), ("y", 0)}
    assert extra == oracles.annihilator_witnesses_per_column(G, 1, table)


def test_non_monomial_cone_is_dense():
    R = PolyRing(("x", "y", "z"), 32003)
    x, y, z = R.gens()
    G = GradedQuotientRing(Ideal(R, [(x + y) * (y + z)]))
    assert not G.monomial
    assert corpus.graded("surface").monomial


def test_skew_lines_table():
    table = corpus.full_table("skew-lines")
    assert all(e.stabilized for e in table.entries.values())
    assert {e.n: e.dim for e in table.nonzero_row(0)} == {}
    assert {e.n: e.dim for e in table.nonzero_row(1)} == {0: 1}
    assert {e.n: e.dim for e in table.nonzero_row(2)} == {-3: 4, -2: 2}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=5),
       st.integers(-12, 12), st.integers(-6, 1))
def test_multidegrees_match_box_oracle(rho, n, lowest):
    # x_j^rho_j for each rho_j > 0: the engine's rho is exactly `rho`
    R = PolyRing(tuple(f"x{j}" for j in range(len(rho))), 5)
    gens = [R.variable(j) ** r for j, r in enumerate(rho) if r]
    eng = multigraded.engine(GradedQuotientRing(Ideal(R, gens)))
    assert eng.rho == tuple(rho)
    got = eng.multidegrees(n, lowest)
    assert got == tuple(oracles.box_multidegrees(rho, n, lowest))
    assert eng.multidegrees(n, lowest) is got


# the 6-vertex real projective plane: its triangles that are not facets are
# the minimal nonfaces, since every edge is a face
RP2_FACETS = ("124", "126", "135", "136", "145", "234", "235", "256", "346",
              "456")


# the 7-vertex torus: facets {i, i+1, i+3} and {i, i+2, i+3} mod 7
TORUS_FACETS = tuple("".join(sorted(str((i + k) % 7 + 1) for k in ks))
                     for i in range(7) for ks in ((0, 1, 3), (0, 2, 3)))


def _surface_ring(facets, nv, p):
    """k[D] for a triangulated surface D with every edge a face: its
    minimal nonfaces are the triangles that are not facets."""
    digits = "".join(str(v) for v in range(1, nv + 1))
    R = PolyRing(tuple(f"x{v}" for v in digits), p)
    nonfaces = [tri for tri in itertools.combinations(digits, 3)
                if "".join(tri) not in facets]
    assert len(nonfaces) == comb(nv, 3) - len(facets)
    return GradedQuotientRing(Ideal(R, [
        R.monomial(tuple(int(v in tri) for v in digits))
        for tri in nonfaces]))


def _rp2_ring(p):
    return _surface_ring(RP2_FACETS, 6, p)


@pytest.mark.parametrize("p", [2, 3])
def test_rp2_default_table_depends_on_the_characteristic(p):
    # Hochster: H^2_0 and H^3_0 are the reduced H^1 and H^2 of RP^2 over
    # GF(p), 1 in characteristic 2 and 0 in characteristic 3
    table = local_coh_table(_rp2_ring(p))
    assert all(e.stabilized for e in table.entries.values())
    assert (table.cfg.n_lo, table.cfg.n_hi) == (-6, 9)
    h0 = 1 if p == 2 else 0
    assert table.dim(2, 0) == table.dim(3, 0) == h0
    assert {e.n: e.dim for e in table.nonzero_row(3)} == {
        -6: 181, -5: 126, -4: 81, -3: 46, -2: 21, -1: 6,
        **({0: 1} if p == 2 else {})}
    assert table.nonzero_row(2) == ([table.entry(2, 0)] if p == 2 else [])
    assert all(not table.nonzero_row(i) for i in (0, 1, 4, 5, 6))


@pytest.mark.parametrize("p", [2, 3])
def test_rp2_is_quasi_buchsbaum(p):
    # k[RP^2] is Buchsbaum.  In characteristic 2 the dense form of the
    # annihilator check would multiply cochains of 15 blocks [G]_2 -> [G]_3
    # (690 x 315), larger than the dense route's elimination cap; the block
    # route has no cap and must run
    G = _rp2_ring(p)
    verdict = quasi_buchsbaum_test(G, local_coh_table(G))
    assert verdict.status == "satisfied"


def _refuse(*args, **kwargs):
    raise AssertionError("a dense Koszul matrix was built")


def test_torus_verdict_builds_no_dense_koszul_matrix(monkeypatch):
    # on a monomial cone both Buchsbaum checks run block by block; every
    # dense Koszul matrix goes through koszul._assemble
    for module in (koszul, localcoh, descent):
        for name in ("chain_multiplication", "_assemble"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _refuse)
    report = descent_verdict(_surface_ring(TORUS_FACETS, 7, 32003).ideal)
    assert report.g_buchsbaum.status == "satisfied"
    assert report.g_quasi_buchsbaum.status == "satisfied"
    # Hochster: H^2_0 is the reduced H^1 of the torus
    assert report.table.dim(2, 0) == 2


def _refuse_walk(*args, **kwargs):
    raise AssertionError("a multidegree was listed")


def test_deep_torus_table_lists_no_multidegree(monkeypatch):
    # every column is read off the caps, whose multidegrees are counted in
    # closed form and never listed, however deep the window
    monkeypatch.setattr(multigraded._Engine, "multidegrees", _refuse_walk)
    monkeypatch.setattr(multigraded._Engine, "signature", _refuse_walk)
    table = local_coh_table(_surface_ring(TORUS_FACETS, 7, 32003),
                            cfg=StabilizationConfig(-20, 3))
    assert all(e.stabilized for e in table.entries.values())
    # Hochster: H^2_0 and H^3_0 are the reduced H^1 and H^2 of the torus;
    # in degree -k < 0 the 14 triangles, 21 edges and 7 vertices give
    # 14 C(k-1, 2) + 21 (k-1) + 7 = 7k^2
    assert {e.n: e.dim for e in table.nonzero_row(2)} == {0: 2}
    assert {e.n: e.dim for e in table.nonzero_row(3)} == {
        **{-k: 7 * k * k for k in range(1, 21)}, 0: 1}
    assert all(not table.nonzero_row(i) for i in (0, 1, 4, 5, 6, 7))


def test_bowtie_is_not_buchsbaum():
    # two triangles sharing the vertex a: the link of a is disconnected, so
    # H^2 is 1 in every window degree below 0, and the comparison map from
    # power 1 is zero onto it below -1
    R = PolyRing(tuple("abcde"), 32003)
    _, b, c, d, e = R.gens()
    report = descent_verdict(Ideal(R, [b * d, b * e, c * d, c * e]))
    assert {entry.n: entry.dim for entry in report.table.nonzero_row(2)} \
        == {n: 1 for n in range(-6, 0)}
    assert report.g_buchsbaum.status == "violated"
    assert [(w["i"], w["n"], w["rank"])
            for w in report.g_buchsbaum.witnesses] == [
        (2, n, 0) for n in range(-6, -1)]


@st.composite
def stanley_reisner_rings(draw):
    """k[D] over GF(p) for a random simplicial complex D on at most five
    vertices (the downward closure of a few random faces), and a window."""
    p = draw(st.sampled_from([2, 3, 32003]))
    nv = draw(st.integers(1, 5))
    facets = draw(st.lists(st.sets(st.integers(0, nv - 1), min_size=1),
                           max_size=5))
    faces = {frozenset(sub) for facet in facets for k in range(len(facet) + 1)
             for sub in itertools.combinations(sorted(facet), k)}
    faces.add(frozenset())
    R = PolyRing(tuple(f"x{v}" for v in range(nv)), p)
    # the minimal nonfaces generate the Stanley-Reisner ideal
    nonfaces = [S for k in range(1, nv + 1)
                for S in map(frozenset, itertools.combinations(range(nv), k))
                if S not in faces and all(S - {v} in faces for v in S)]
    G = GradedQuotientRing(Ideal(R, [
        R.monomial(tuple(int(v in S) for v in range(nv))) for S in nonfaces]))
    lo = draw(st.integers(-4, 0))
    return G, faces, StabilizationConfig(lo, draw(st.integers(lo, 2)),
                                         t_max=2, margin=1)


@settings(max_examples=60, deadline=None)
@given(stanley_reisner_rings())
def test_table_matches_hochster_formula(ring):
    G, faces, cfg = ring
    table = local_coh_table(G, cfg=cfg)
    assert all(e.stabilized for e in table.entries.values())
    assert {k: e.dim for k, e in table.entries.items()} == \
        oracles.hochster_table(faces, G.ring.nvars, G.p, cfg.degrees())


@pytest.mark.parametrize("p", [2, 3])
def test_rp2_table_matches_hochster_formula(p):
    G = _rp2_ring(p)
    faces = {frozenset(sub) for facet in RP2_FACETS for k in range(4)
             for sub in itertools.combinations(
                 [int(v) - 1 for v in facet], k)}
    table = local_coh_table(G)
    assert {k: e.dim for k, e in table.entries.items()} == \
        oracles.hochster_table(faces, 6, p, table.cfg.degrees())


@settings(max_examples=40, deadline=None)
@given(monomial_cones())
def test_empty_blocks_match_the_subset_scan(cone):
    # a block is found empty from its negative set and the leads alone, and
    # a nonempty one is built up from it; the scan over every subset must
    # agree on each block a table and both Buchsbaum checks built and on
    # every cap's settled block, and an empty block has no cohomology
    G, cfg = cone
    table = local_coh_table(G, cfg=cfg)
    if not G.is_zero_ring():
        stuckrad_test(G, table)
        quasi_buchsbaum_test(G, table)
    eng = multigraded.engine(G)
    for c in itertools.product(*(range(-1, r) for r in eng.rho)):
        eng.block((c, eng.rho))
    blocks = [(key[1], blk) for key, blk in eng._cache.items()
              if key[0] == "block"]
    assert blocks
    for sig, blk in blocks:
        assert blk.basis == oracles.scanned_block_basis(eng, sig)
        if not any(blk.basis):
            assert [blk.dim(q) for q in range(eng.m + 1)] == [0] * (eng.m + 1)


@settings(max_examples=60, deadline=None)
@given(st.one_of(monomial_cones().map(lambda cone: cone[0]),
                 stanley_reisner_rings().map(lambda ring: ring[0])))
def test_caps_match_the_full_product(G):
    # the box search visits only nonempty caps, and a cap spanning at most
    # two degrees takes its dimensions from basis sizes; listing every cap
    # and ranking its scanned block must keep the same nonzero vectors
    eng = multigraded.engine(G)
    assert eng.caps() == oracles.scanned_caps(eng)


@pytest.mark.parametrize("name", ["rp2-char2", "rp2-char3", "torus"])
def test_three_degree_caps_match_the_full_product(name):
    # RP^2 and the torus have caps whose block spans three degrees, so
    # those blocks are built and their inner differentials ranked
    eng = multigraded.engine(corpus.graded(name))
    assert eng.caps() == oracles.scanned_caps(eng)
    assert any(key[0] == "block" and any(blk.basis)
               for key, blk in eng._cache.items())


def test_two_degree_caps_build_no_block(monkeypatch):
    # every cap of x*y spans at most two degrees: its verdict builds no
    # block and eliminates nothing; on A_3's cone only the two comparison
    # maps build blocks (their two ends each) and rank
    built, rrefs, ranks = [], [], []
    real_init, real_rref, real_rank = (multigraded._Block.__init__,
                                       linalg.rref, linalg.rank)

    def counting_init(self, eng, sig):
        built.append(sig)
        real_init(self, eng, sig)

    def counting_rref(a, p):
        rrefs.append(a.shape)
        return real_rref(a, p)

    def counting_rank(a, p):
        if sys._getframe(1).f_globals["__name__"] == multigraded.__name__:
            ranks.append(a.shape)
        return real_rank(a, p)

    monkeypatch.setattr(multigraded._Block, "__init__", counting_init)
    monkeypatch.setattr(linalg, "rref", counting_rref)
    monkeypatch.setattr(linalg, "rank", counting_rank)
    R = PolyRing(("x", "y", "z"), 32003)
    x, y, z = R.gens()
    report = descent_verdict(Ideal(R, [x * y]))
    assert report.g_buchsbaum.status == "satisfied"
    assert (built, rrefs) == ([], [])
    report = descent_verdict(Ideal(R, [x**2, x * y, x * z - y**3, y**4,
                                       x * z**2]))
    assert report.g_buchsbaum.status == "satisfied"
    assert len(ranks) <= 2
    assert len(built) <= 4


def _random_complex(rng):
    """A seeded simplicial complex on 3-6 vertices: the downward closure of
    a few faces of 1-3 vertices, with every vertex a face."""
    nv = rng.randint(3, 6)
    faces = {frozenset()} | {frozenset([v]) for v in range(nv)}
    for _ in range(rng.randint(1, 2 * nv)):
        facet = rng.sample(range(nv), rng.randint(1, 3))
        faces |= {frozenset(sub) for k in range(1, len(facet) + 1)
                  for sub in itertools.combinations(facet, k)}
    return nv, faces


def _stanley_reisner_ring(faces, nv, p):
    """k[D] over GF(p), generated by the minimal nonfaces of D."""
    R = PolyRing(tuple(f"x{v}" for v in range(nv)), p)
    nonfaces = [S for k in range(1, nv + 1)
                for S in map(frozenset, itertools.combinations(range(nv), k))
                if S not in faces and all(S - {v} in faces for v in S)]
    return GradedQuotientRing(Ideal(R, [
        R.monomial(tuple(int(v in S) for v in range(nv))) for S in nonfaces]))


def test_buchsbaum_checks_match_schenzel_criterion():
    # k[D] is Buchsbaum exactly when D is pure with Cohen-Macaulay links;
    # on these complexes both checks follow the criterion either way
    rng = random.Random(23)
    held = failed = 0
    for _ in range(220):
        nv, faces = _random_complex(rng)
        p = rng.choice([2, 3, 32003])
        G = _stanley_reisner_ring(faces, nv, p)
        table = local_coh_table(G)
        expected = ("satisfied" if oracles.schenzel_buchsbaum(faces, p)
                    else "violated")
        got = (stuckrad_test(G, table).status,
               quasi_buchsbaum_test(G, table).status)
        assert got == (expected, expected), (sorted(map(sorted, faces)), p)
        held += expected == "satisfied"
        failed += expected == "violated"
    assert held >= 20 and failed >= 20, (held, failed)


def test_family_verdict_visits_only_live_blocks(monkeypatch):
    # on A_3's cone 5 of the 30 caps carry cohomology: the table sums over
    # those, and the Buchsbaum checks rank and build a block map only where
    # both ends have cohomology
    ranks, maps = [], []
    real_rank = linalg.rank

    def counting_rank(a, p):
        if sys._getframe(1).f_globals["__name__"] == multigraded.__name__:
            ranks.append(a.shape)
        return real_rank(a, p)

    real_map = multigraded._Engine._build_block_map

    def counting_map(self, q, src, tgt):
        maps.append((q, src, tgt))
        return real_map(self, q, src, tgt)

    monkeypatch.setattr(linalg, "rank", counting_rank)
    monkeypatch.setattr(multigraded._Engine, "_build_block_map", counting_map)
    R = PolyRing(("x", "y", "z"), 32003)
    x, y, z = R.gens()
    A = Ideal(R, [x**2, x * y, x * z - y**3, y**4, x * z**2])
    report = descent_verdict(A)
    assert report.g_buchsbaum.status == "satisfied"
    assert len(ranks) <= 5
    assert len(maps) <= 2
    eng = multigraded.engine(GradedQuotientRing(initial_forms_ideal(A)))
    assert math.prod(r + 1 for r in eng.rho) == 30
    assert len(eng.caps()) == 5


@pytest.mark.parametrize("name", ["rp2-char2", "rp2-char3", "torus",
                                  "bowtie"])
def test_named_complexes_match_schenzel_criterion(name):
    # the faces of k[D] are the subsets containing no generator's support
    case = corpus.by_name(name)
    nv = len(case.variables)
    supports = [frozenset(case.variables.index(v) for v in g.split("*"))
                for g in case.generators]
    faces = {frozenset(S) for k in range(nv + 1)
             for S in itertools.combinations(range(nv), k)
             if not any(g <= set(S) for g in supports)}
    G, table = corpus.graded(name), corpus.full_table(name)
    expected = ("satisfied"
                if oracles.schenzel_buchsbaum(faces, case.characteristic)
                else "violated")
    assert expected == ("violated" if name == "bowtie" else "satisfied")
    assert stuckrad_test(G, table).status == expected
    assert quasi_buchsbaum_test(G, table).status == expected
