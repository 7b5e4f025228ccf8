"""Multidegree blocks for monomial cones against the dense Koszul path."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
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
    f_map,
    koszul_cohomology_piece,
    local_coh_table,
    transition_map,
)
from formring import koszul, localcoh, multigraded


@st.composite
def monomial_cones(draw):
    """GF(p)[x..] modulo a few random monomials, with a small window.

    Powers stay low because the dense oracle eliminates whole internal
    degrees; four variables get the lowest.
    """
    p = draw(st.sampled_from([2, 5, 32003]))
    nv = draw(st.integers(2, 4))
    R = PolyRing(tuple("xyzw"[:nv]), p)
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        exps = tuple(draw(st.integers(0, 2)) for _ in range(nv))
        if any(exps):
            gens.append(R.monomial(exps))
    lo = draw(st.integers(-3, 0))
    hi = draw(st.integers(lo, lo + 3))
    t_max = draw(st.integers(2, 6 - nv))
    cfg = StabilizationConfig(lo, hi, t_max=t_max, margin=1)
    return GradedQuotientRing(Ideal(R, gens)), cfg


@settings(max_examples=40, deadline=None)
@given(monomial_cones())
def test_blocks_match_dense_oracle(cone):
    G, cfg = cone
    assert G.monomial
    try:
        table = local_coh_table(G, cfg=cfg)
        t_max = localcoh._effective_t_max(G, cfg)
        for (i, n), entry in table.entries.items():
            dense = oracles.dense_local_coh_piece(G, i, n, cfg)
            assert (entry.dim, entry.power, entry.stabilized,
                    entry.history) == (dense.dim, dense.power,
                                       dense.stabilized, dense.history)
            for t in range(1, t_max + 1):
                got = koszul_cohomology_piece(KoszulComplexSpec(G, t), i, n)
                assert np.array_equal(
                    got.representatives,
                    oracles.dense_piece(G, t, i, n).representatives)
                if t < t_max:
                    assert np.array_equal(
                        transition_map(G, t, i, n).matrix,
                        oracles.dense_transition_matrix(G, t, i, n))
            if entry.dim:
                ours = f_map(G, i, n, entry.power)
                theirs = oracles.dense_f_map(G, i, n, entry.power)
                assert ours.rank() == theirs.rank()
                assert np.array_equal(ours.matrix, theirs.matrix)
        if G.is_zero_ring():
            return
        for i in range(min(G.krull_dimension(), table.i_max + 1)):
            ok, extra = annihilator_is_irrelevant(G, i, table)
            if ok is not None:
                assert extra == oracles.annihilator_witnesses_per_column(
                    G, i, table)
    finally:
        oracles.dense_piece.cache_clear()
        oracles.dense_transition_matrix.cache_clear()


@settings(max_examples=40, deadline=None)
@given(monomial_cones())
def test_settle_power_bounds_detector(cone):
    # T(n) is the largest power any window entry can still change at, so
    # the detector with two more powers settles every entry by T(n), at the
    # dimension the blocks give at T(n)
    G, small = cone
    t_max = multigraded.settle_power(G, small.n_lo) + 2
    table = local_coh_table(G, cfg=StabilizationConfig(
        small.n_lo, small.n_hi, t_max=t_max, margin=2))
    for (i, n), entry in table.entries.items():
        assert entry.stabilized
        assert entry.power <= multigraded.settle_power(G, n)
        assert entry.dim == multigraded.colimit_dims(G, n)[i]


def test_permuted_sequence_keeps_dense_path():
    G = corpus.graded("line-with-point")
    nonzero = 0
    for i in range(3):
        for n in range(-3, 3):
            spec = KoszulComplexSpec(G, 2, sequence=(1, 0))
            piece = koszul_cohomology_piece(spec, i, n)
            assert np.array_equal(piece.representatives,
                                  koszul._dense_representatives(spec, i, n))
            plain = koszul_cohomology_piece(KoszulComplexSpec(G, 2), i, n)
            assert piece.dim == plain.dim
            nonzero += piece.dim > 0
    assert nonzero >= 3


def test_non_monomial_cone_is_dense():
    R = PolyRing(("x", "y", "z"), 32003)
    x, y, z = R.gens()
    G = GradedQuotientRing(Ideal(R, [(x + y) * (y + z)]))
    assert not G.monomial
    assert corpus.graded("surface").monomial


def test_skew_lines_table():
    table = corpus.full_table("skew-lines")
    assert table.stabilized()
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
    eng = multigraded._engine(GradedQuotientRing(Ideal(R, gens)))
    assert eng.rho == tuple(rho)
    got = eng.multidegrees(n, lowest)
    assert got == tuple(oracles.box_multidegrees(rho, n, lowest))
    assert eng.multidegrees(n, lowest) is got


# the 6-vertex real projective plane: its triangles that are not facets are
# the minimal nonfaces, since every edge is a face
RP2_FACETS = ("124", "126", "135", "136", "145", "234", "235", "256", "346",
              "456")


def _rp2_ring(p):
    R = PolyRing(tuple(f"x{v}" for v in range(1, 7)), p)
    nonfaces = [tri for tri in itertools.combinations("123456", 3)
                if "".join(tri) not in RP2_FACETS]
    assert len(nonfaces) == 10
    return GradedQuotientRing(Ideal(R, [
        R.monomial(tuple(int(str(v) in tri) for v in range(1, 7)))
        for tri in nonfaces]))


@pytest.mark.parametrize("p", [2, 3])
def test_rp2_default_table_depends_on_the_characteristic(p):
    # Hochster: H^2_0 and H^3_0 are the reduced H^1 and H^2 of RP^2 over
    # GF(p), 1 in characteristic 2 and 0 in characteristic 3
    table = local_coh_table(_rp2_ring(p))
    assert table.stabilized()
    assert (table.cfg.n_lo, table.cfg.n_hi) == (-6, 9)
    h0 = 1 if p == 2 else 0
    assert table.dim(2, 0) == table.dim(3, 0) == h0
    assert {e.n: e.dim for e in table.nonzero_row(3)} == {
        -6: 181, -5: 126, -4: 81, -3: 46, -2: 21, -1: 6,
        **({0: 1} if p == 2 else {})}
    assert table.nonzero_row(2) == ([table.entry(2, 0)] if p == 2 else [])
    assert all(not table.nonzero_row(i) for i in (0, 1, 4, 5, 6))
