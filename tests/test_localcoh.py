"""Stabilized Koszul colimits: the local cohomology table layer."""

import dataclasses

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import corpus
import oracles
from formring import koszul, linalg, localcoh, multigraded
from formring import (
    CohomologyTable,
    GradedQuotientRing,
    Ideal,
    PolyRing,
    StabilizationConfig,
    ZeroRingError,
    annihilator_is_irrelevant,
    descent_verdict,
    h0_via_saturation,
    initial_forms_ideal,
    local_coh_piece,
    local_coh_table,
    monomials_of_degree,
    saturation_exponent,
    stuckrad_test,
)

P = 32003


def quotient(names, builder):
    R = PolyRing(names, P)
    return GradedQuotientRing(Ideal(R, builder(*R.gens())))


def free(names):
    return quotient(names, lambda *g: [])


def cfg(lo, hi, t_max=8, margin=2):
    return StabilizationConfig(n_lo=lo, n_hi=hi, t_max=t_max, margin=margin)


def unsettled_cone():
    """A cone that is not monomial, (x*y + y^2, x^2 - y^2), whose dense
    detector cannot settle four entries under `TIGHT`."""
    return quotient(("x", "y", "z"),
                    lambda x, y, z: [x**2 + 2 * x * y + y**2, x * y + y**2])


TIGHT = cfg(-3, 1, t_max=3, margin=2)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StabilizationConfig(n_lo=0, n_hi=-1, t_max=8, margin=2)
        with pytest.raises(ValueError):
            StabilizationConfig(n_lo=0, n_hi=1, t_max=8, margin=0)
        with pytest.raises(ValueError):
            StabilizationConfig(n_lo=0, n_hi=1, t_max=2, margin=2)

    def test_default_for_zero_ring(self):
        R = PolyRing(("x",), P)
        G = GradedQuotientRing(Ideal(R, [R.one()]))
        c = StabilizationConfig.default_for(G)
        assert (c.n_lo, c.n_hi) == (-1, 1)

    def test_default_window_covers_generators(self):
        G = quotient(("x", "y"), lambda x, y: [x**2, y**3])
        c = StabilizationConfig.default_for(G)
        assert c.n_lo <= -(G.krull_dimension() + 1)
        assert c.n_hi >= G.max_generator_degree()

    def test_degrees_range(self):
        assert list(cfg(-2, 1).degrees()) == [-2, -1, 0, 1]

    @pytest.mark.parametrize("r, t_max", [(3, 12), (4, 12), (5, 12),
                                          (6, 12), (7, 12)])
    def test_default_t_max_reaches_settle_power(self, r, t_max):
        # the default t_max stays 12 on the r-family, and every entry of
        # the default table is still read, stable, at its T(n)
        G = GradedQuotientRing(initial_forms_ideal(
            corpus.build_ideal(corpus.r_family_case(r))))
        table = local_coh_table(G)
        assert table.cfg.t_max == t_max
        assert table.stabilized()
        assert all(e.power == multigraded.settle_power(G, e.n)
                   for e in table.entries.values())

    def test_default_t_max_of_non_monomial_cone(self):
        G = quotient(("x", "y", "z"), lambda x, y, z: [x * y - z**2, x**3])
        assert not G.monomial
        assert StabilizationConfig.default_for(G).t_max == 12


class TestStabilizedPieces:
    """The dense detector's trailing run, called directly: a table of a
    monomial cone reads every entry at T(n) instead."""

    def test_late_arrival_not_mistaken_for_zero(self):
        # [0 : x^t] in degree 0 of k[x]/(x^3) is zero for t = 1, 2 and k
        # for t >= 3; the trailing-run rule must report dim 1, power 3,
        # not a "stable zero" read off the early history
        G = quotient(("x",), lambda x: [x**3])
        entry = localcoh._detected(G, 0, 0, cfg(-1, 3))
        assert entry.history[:3] == (0, 0, 1)
        assert entry.dim == 1
        assert entry.power == 3
        assert entry.stabilized

    def test_artinian_auto_extends_power_range(self):
        # t_max=3 alone could never give the power-3 entry a margin-2 run;
        # Artinian rings extend the range to top_degree + margin + 2
        G = quotient(("x",), lambda x: [x**3])
        entry = localcoh._detected(G, 0, 0, cfg(-1, 3, t_max=3, margin=2))
        assert entry.stabilized
        assert entry.power == 3
        assert len(entry.history) >= 6

    def test_free_one_var_tail_powers(self):
        G = free(("x",))
        for n in (-4, -3, -2, -1):
            entry = local_coh_piece(G, 1, n, cfg(-4, 3))
            assert entry.dim == 1
            assert entry.power == -n
            assert entry.stabilized
        assert local_coh_piece(G, 1, 0, cfg(-4, 3)).dim == 0

    def test_unstable_when_window_outruns_t_max(self):
        # [H^2]_{-8} of k[x,y] first appears at t = 4; with t_max = 4 the
        # last transition is not yet an isomorphism, so no trailing run
        G = free(("x", "y"))
        entry = localcoh._detected(G, 2, -8, cfg(-8, -8, t_max=4, margin=2))
        assert entry.history == (0, 0, 0, 1)
        assert not entry.stabilized


class TestTables:
    def test_r3_cone_table(self):
        table = corpus.full_table("cone-r3")
        assert table.stabilized()
        assert {n: d for n, d in
                ((e.n, e.dim) for e in table.nonzero_row(0))} == {1: 1, 3: 1}
        h1 = {e.n: e.dim for e in table.nonzero_row(1)}
        assert h1 == {-5: 3, -4: 3, -3: 3, -2: 3, -1: 3, 0: 2, 1: 1}
        assert table.nonzero_row(2) == []
        assert table.nonzero_row(3) == []
        assert table.row_length(0) == 2
        assert table.row_finite_length(0)

    def test_free_two_vars_table(self):
        table = corpus.full_table("free-2")
        assert table.stabilized()
        assert table.nonzero_row(0) == []
        assert table.nonzero_row(1) == []
        assert {e.n: e.dim for e in table.nonzero_row(2)} == \
            {-4: 3, -3: 2, -2: 1}
        # the tail keeps growing below the window: not finite length
        assert not table.row_finite_length(2)

    def test_mixed_dimension_table(self):
        table = corpus.full_table("mixed-dimension")
        h1 = {e.n: e.dim for e in table.nonzero_row(1)}
        assert h1 == {n: 1 for n in range(-4, 1)}
        h2 = {e.n: e.dim for e in table.nonzero_row(2)}
        assert h2 == {-4: 3, -3: 2, -2: 1}
        assert not table.row_finite_length(1)

    def test_row0_matches_saturation_oracle_everywhere(self):
        for case in corpus.FULL_TABLE_CASES:
            table = corpus.full_table(case.name)
            G = corpus.graded(case.name)
            oracle = oracles.saturation_h0_dims(
                G, range(case.window[0], case.window[1] + 1))
            got = {n: table.dim(0, n) for n in oracle}
            assert got == oracle, case.name

    def test_second_build_reuses_cached_ranks(self, monkeypatch):
        # the detector's transition maps come from the ring's cache the
        # second time, and each map keeps its rank
        G = unsettled_cone()
        first = local_coh_table(G)
        assert any(e.settled_by == localcoh.DETECTOR
                   for e in first.entries.values())
        calls = []
        real_rank = linalg.rank

        def counting_rank(a, p):
            calls.append(a.shape)
            return real_rank(a, p)

        monkeypatch.setattr(linalg, "rank", counting_rank)
        second = local_coh_table(G)
        assert calls == []
        assert second.as_rows() == first.as_rows()

    def test_positions_row_shifts_by_index(self):
        table = corpus.full_table("cone-r3")
        pos = dict(table.positions_row(1))
        assert pos[(-1) + 1] == 3  # entry at n=-1 sits at position 0
        assert pos[1 + 1] == 1

    def test_i_max_beyond_variable_count_rejected(self):
        with pytest.raises(ValueError):
            local_coh_table(free(("x",)), i_max=2, cfg=cfg(-2, 1))

    def test_complete_flag(self):
        G = quotient(("x",), lambda x: [x**2])
        full = local_coh_table(G, cfg=cfg(-2, 2))
        assert full.complete
        partial = local_coh_table(free(("x", "y")), i_max=1, cfg=cfg(-2, 1))
        assert not partial.complete

    @pytest.mark.parametrize("r", [6, 7])
    def test_default_family_table_is_stable(self, r):
        # T(-4) = 12 at r = 6 and T(-4) = 13, T(-3) = 12 at r = 7: a
        # trailing run ending at the default t_max 12 could not settle them
        G = GradedQuotientRing(initial_forms_ideal(
            corpus.build_ideal(corpus.r_family_case(r))))
        table = local_coh_table(G)
        assert table.stabilized()
        assert {e.n: e.dim for e in table.nonzero_row(0)} == {1: 1, r: 1}
        assert table.dim(1, -4) == table.dim(1, -3) == r
        wide = dataclasses.replace(table.cfg, t_max=24)
        assert table.as_rows() == local_coh_table(G, cfg=wide).as_rows()

    def test_aggregate_stabilized_false_when_entry_unstable(self):
        table = local_coh_table(unsettled_cone(), cfg=TIGHT)
        assert not table.stabilized()
        assert not table.row_stabilized(2)
        assert table.row_stabilized(0)


class TestSyntheticTables:
    def test_from_literal(self):
        table = CohomologyTable.synthetic_from({(1, 2): 10, (2, 0): 1})
        assert table.synthetic and table.complete
        assert table.dim(1, 2) == 10
        assert table.dim(2, 0) == 1
        assert table.dim(0, 0) == 0
        assert table.stabilized()
        assert table.row_finite_length(1)
        assert table.row_length(1) == 10

    def test_positions(self):
        table = CohomologyTable.synthetic_from({(1, 2): 10, (2, 0): 1})
        assert table.positions_row(1) == [(3, 10)]
        assert table.positions_row(2) == [(2, 1)]


class TestH0Saturation:
    def test_r3(self):
        G = corpus.graded("cone-r3")
        assert h0_via_saturation(G) == {1: 1, 3: 1}
        # on the cone x*z is a generator, so x*M lands straight inside:
        # one quotient step saturates (the e=2 certificate is a feature of
        # the filtered side, not of the cone)
        assert saturation_exponent(G) == 1

    def test_thick_line_internal_structure(self):
        G = corpus.graded("thick-line")
        assert h0_via_saturation(G) == {2: 1, 3: 1}
        assert saturation_exponent(G) == 2

    def test_line_with_point(self):
        G = corpus.graded("line-with-point")
        assert h0_via_saturation(G) == {1: 1}
        assert saturation_exponent(G) == 1

    def test_artinian_is_everything(self):
        G = corpus.graded("chain-artinian")
        assert h0_via_saturation(G) == {0: 1, 1: 1, 2: 1}

    def test_zero_ring(self):
        R = PolyRing(("x",), P)
        G = GradedQuotientRing(Ideal(R, [R.one()]))
        assert h0_via_saturation(G) == {}


class TestAnnihilator:
    def test_socle_only_h0_passes(self):
        G = corpus.graded("line-with-point")
        table = corpus.full_table("line-with-point")
        ok, witnesses = annihilator_is_irrelevant(G, 0, table)
        assert ok is True
        assert witnesses == []

    def test_thick_line_fails_with_witness(self):
        # the degree-2 torsion class x^2 survives multiplication by y
        G = corpus.graded("thick-line")
        table = corpus.full_table("thick-line")
        ok, witnesses = annihilator_is_irrelevant(G, 0, table)
        assert ok is False
        names = {w[0] for w in witnesses}
        degrees = {w[1] for w in witnesses}
        assert "y" in names
        assert 2 in degrees

    def test_witnesses_match_per_column_solves(self):
        G = corpus.graded("thick-line")
        table = corpus.full_table("thick-line")
        ok, witnesses = annihilator_is_irrelevant(G, 0, table)
        assert ok is False
        assert witnesses == oracles.annihilator_witnesses_per_column(
            G, 0, table)

    def test_inconclusive_on_unstable_row(self):
        G = unsettled_cone()
        table = local_coh_table(G, cfg=TIGHT)
        ok, reasons = annihilator_is_irrelevant(G, 1, table)
        assert ok is None
        assert reasons == ["entry (i=1, n=-2) not stabilized"]


class TestZeroRing:
    def test_table_of_zero_ring(self):
        R = PolyRing(("x",), P)
        G = GradedQuotientRing(Ideal(R, [R.one()]))
        table = local_coh_table(G, cfg=cfg(-1, 1))
        assert table.as_rows() == [[i, n, 0]
                                   for i in range(2) for n in (-1, 0, 1)]


class TestInitialIdealRoute:
    """Non-monomial cones read their columns off the table of S/in(I)."""

    @staticmethod
    def quadric_cone():
        # x*y after a generic linear change of coordinates
        R = PolyRing(("x", "y", "z"), P)
        x, y, z = R.gens()
        return Ideal(R, [(3 * x + 5 * y + 7 * z) * (2 * x + 11 * y + 13 * z)])

    def test_quadric_needs_no_koszul_piece(self, monkeypatch):
        A = self.quadric_cone()

        def refuse(*args):
            raise AssertionError("a Koszul piece was computed")

        monkeypatch.setattr(localcoh, "koszul_cohomology_piece", refuse)
        monkeypatch.setattr(koszul, "_build_piece", refuse)
        report = descent_verdict(A, cfg=cfg(-3, 1, t_max=5))
        assert report.table.nonzero_rows() == [[2, -3, 5], [2, -2, 3],
                                               [2, -1, 1]]
        assert report.g_buchsbaum.satisfied
        assert report.g_quasi_buchsbaum.satisfied
        entry = report.table.entry(2, -1)
        assert (entry.settled_by, entry.power, entry.history) == (
            localcoh.COLUMN_SUM, None, ())
        assert report.table.entry(1, -1).settled_by == localcoh.ZERO_BOUND

    def test_proved_entry_replaces_tight_t_max(self):
        # the dense detector cannot settle H^2_{-3} of the quadric by t_max
        # 3; its in(I) column fixes it
        G = GradedQuotientRing(initial_forms_ideal(self.quadric_cone()))
        tight = cfg(-3, -3, t_max=3)
        assert not localcoh._detected(G, 2, -3, tight).stabilized
        entry = local_coh_piece(G, 2, -3, tight)
        assert entry.stabilized and entry.dim == 5

    def test_nonzero_entry_below_dim_keeps_detector(self):
        # (x+y)^2, (x+y)*y has in(I) = (x^2, x*y): in degree 1 only H^0 of
        # S/in(I) is nonzero, but H^0 lies below dim G = 1, where the
        # comparison maps need a detector power
        G = quotient(("x", "y"), lambda x, y: [(x + y)**2, (x + y) * y])
        assert not G.monomial
        assert multigraded.colimit_dims(G, 1) == (1, 0, 0)
        table = local_coh_table(G, cfg=cfg(-2, 2))
        entry = table.entry(0, 1)
        assert (entry.settled_by, entry.dim, entry.power) == (
            localcoh.DETECTOR, 1, 1)
        assert stuckrad_test(G, table).satisfied

    def test_annihilator_skips_zero_target(self, monkeypatch):
        # the same ring: its H^0 entry in degree 1 multiplies into degree 2,
        # which is proved zero, so no Koszul piece of degree 2 is needed
        G = quotient(("x", "y"), lambda x, y: [(x + y)**2, (x + y) * y])
        table = local_coh_table(G, cfg=cfg(-2, 2))
        assert table.entry(0, 2).settled_by == localcoh.ZERO_BOUND
        degrees = []
        real = koszul._dense_representatives

        def recording(spec, i, n):
            degrees.append(n)
            return real(spec, i, n)

        monkeypatch.setattr(koszul, "_dense_representatives", recording)
        assert annihilator_is_irrelevant(G, 0, table) == (True, [])
        assert 2 not in degrees

    def test_fixed_top_row_takes_detector_power(self):
        # annihilator_is_irrelevant at i >= dim reads its maps at the
        # detector's power, since a fixed value has none
        G = GradedQuotientRing(initial_forms_ideal(self.quadric_cone()))
        c = cfg(-3, 1, t_max=5)
        table = local_coh_table(G, cfg=c)
        dense = CohomologyTable(
            {k: localcoh._detected(G, *k, c) for k in table.entries},
            table.i_max, c, complete=True)
        assert dense.stabilized()
        assert annihilator_is_irrelevant(G, 2, table) == \
            annihilator_is_irrelevant(G, 2, dense)


@st.composite
def non_monomial_cones(draw):
    """GF(p)[x,y,z] modulo one to three random forms, the first with two
    or more terms, whose reduced basis is not all monomials."""
    p = draw(st.sampled_from([2, 5, 32003]))
    R = PolyRing(("x", "y", "z"), p)
    gens = []
    for k in range(draw(st.integers(1, 3))):
        monos = monomials_of_degree(R, draw(st.integers(1, 3)))
        chosen = draw(st.lists(st.sampled_from(monos), min_size=2 - min(k, 1),
                               max_size=3, unique=True))
        gens.append(R.from_terms(
            {m: draw(st.integers(1, p - 1)) for m in chosen}))
    G = GradedQuotientRing(Ideal(R, gens))
    assume(not G.monomial)
    lo = draw(st.integers(-3, 0))
    return G, cfg(lo, draw(st.integers(lo, lo + 3)), t_max=6, margin=2)


def _alternating(dims):
    return sum((-1) ** i * d for i, d in enumerate(dims))


@settings(max_examples=30, deadline=None)
@given(non_monomial_cones())
def test_in_ideal_bounds_against_dense_detector(cone):
    G, c = cone
    table = local_coh_table(G, cfg=c)
    try:
        dense = {k: oracles.dense_local_coh_piece(G, *k, c)
                 for k in table.entries}
    finally:
        oracles.dense_piece.cache_clear()
        oracles.dense_transition_matrix.cache_clear()
    for n in c.degrees():
        bounds = multigraded.colimit_dims(G, n)
        column = [dense[(i, n)] for i in range(4)]
        for i, d in enumerate(column):
            entry = table.entry(i, n)
            if d.stabilized:
                assert d.dim <= bounds[i]
            if entry.settled_by == localcoh.DETECTOR:
                assert entry == d
                continue
            assert entry.stabilized
            assert (entry.power, entry.history) == (None, ())
            if d.stabilized:
                assert entry.dim == d.dim
        if all(d.stabilized for d in column):
            assert _alternating(d.dim for d in column) == _alternating(bounds)
    dense_table = CohomologyTable(dense, 3, c, complete=True)
    for i in range(4):
        if dense_table.row_stabilized(i):
            assert annihilator_is_irrelevant(G, i, table) == \
                annihilator_is_irrelevant(G, i, dense_table)
