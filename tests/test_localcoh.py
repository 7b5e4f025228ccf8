"""Stabilized Koszul colimits: the local cohomology table layer."""

import dataclasses
from math import comb

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

import corpus
import oracles
from formring import koszul, linalg, localcoh, multigraded
from formring import (
    CohomologyTable,
    FormringError,
    GradedQuotientRing,
    Ideal,
    PolyRing,
    StabilizationConfig,
    ZeroRingError,
    annihilator_is_irrelevant,
    descent_verdict,
    initial_forms_ideal,
    local_coh_piece,
    local_coh_table,
    monomials_of_degree,
    quasi_buchsbaum_test,
    stuckrad_test,
)
from oracles import h0_via_saturation, saturation_exponent

P = 32003


def quotient(names, builder):
    R = PolyRing(names, P)
    return GradedQuotientRing(Ideal(R, builder(*R.gens())))


def free(names):
    return quotient(names, lambda *g: [])


def cfg(lo, hi, t_max=8, margin=2):
    return StabilizationConfig(n_lo=lo, n_hi=hi, t_max=t_max, margin=margin)


def unsettled_cone():
    """A cone that is not monomial, (x*y + y^2, x^2 - y^2), on which the
    trailing-run detector cannot settle four entries under `TIGHT`."""
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
        assert all(e.stabilized for e in table.entries.values())
        assert all(e.power == multigraded.engine(G).settle_power(e.n)
                   for e in table.entries.values())

    def test_default_t_max_of_non_monomial_cone(self):
        G = quotient(("x", "y", "z"), lambda x, y, z: [x * y - z**2, x**3])
        assert not G.monomial
        assert StabilizationConfig.default_for(G).t_max == 12


class TestStabilizedPieces:
    """Each entry is read once, at T(n).  The trailing-run detector over the
    powers 1..t_max survives as the reference `oracles.dense_local_coh_piece`
    and is checked here too."""

    def test_late_arrival_not_mistaken_for_zero(self):
        # [0 : x^t] in degree 0 of k[x]/(x^3) is zero for t = 1, 2 and k
        # for t >= 3; the trailing-run rule must report dim 1, power 3,
        # not a "stable zero" read off the early history, and T(0) = 3
        G = quotient(("x",), lambda x: [x**3])
        detected = oracles.dense_local_coh_piece(G, 0, 0, cfg(-1, 3))
        assert detected.history[:3] == (0, 0, 1)
        assert (detected.dim, detected.power, detected.stabilized) == (
            1, 3, True)
        entry = local_coh_piece(G, 0, 0)
        assert (entry.dim, entry.power) == (1, 3)

    def test_artinian_auto_extends_power_range(self):
        # t_max=3 alone could never give the power-3 entry a margin-2 run;
        # the detector extends it on Artinian rings to top_degree + margin
        # + 2
        G = quotient(("x",), lambda x: [x**3])
        entry = oracles.dense_local_coh_piece(G, 0, 0,
                                              cfg(-1, 3, t_max=3, margin=2))
        assert entry.stabilized
        assert entry.power == 3
        assert len(entry.history) >= 6

    def test_free_one_var_tail_powers(self):
        G = free(("x",))
        for n in (-4, -3, -2, -1):
            entry = local_coh_piece(G, 1, n)
            assert entry.dim == 1
            assert entry.power == -n
            assert entry.stabilized
        assert local_coh_piece(G, 1, 0).dim == 0

    def test_unstable_when_window_outruns_t_max(self):
        # [H^2]_{-8} of k[x,y] first appears at t = 4; with t_max = 4 the
        # detector's last transition is not yet an isomorphism, so it sees
        # no trailing run.  The exact read takes T(-8) = 7 and gives 7
        G = free(("x", "y"))
        detected = oracles.dense_local_coh_piece(
            G, 2, -8, cfg(-8, -8, t_max=4, margin=2))
        assert detected.history == (0, 0, 0, 1)
        assert not detected.stabilized
        entry = local_coh_piece(G, 2, -8)
        assert (entry.dim, entry.power, entry.stabilized) == (7, 7, True)

    def test_index_outside_the_complex_rejected(self):
        with pytest.raises(FormringError, match=r"index 3 outside \[0, 2\]"):
            local_coh_piece(free(("x", "y")), 3, 0)


class TestTables:
    def test_r3_cone_table(self):
        table = corpus.full_table("cone-r3")
        assert all(e.stabilized for e in table.entries.values())
        assert {n: d for n, d in
                ((e.n, e.dim) for e in table.nonzero_row(0))} == {1: 1, 3: 1}
        h1 = {e.n: e.dim for e in table.nonzero_row(1)}
        assert h1 == {-5: 3, -4: 3, -3: 3, -2: 3, -1: 3, 0: 2, 1: 1}
        assert table.nonzero_row(2) == []
        assert table.nonzero_row(3) == []
        assert table.row_length(0) == 2
        assert table.row_support(0) == (1, 3)

    def test_free_two_vars_table(self):
        table = corpus.full_table("free-2")
        assert all(e.stabilized for e in table.entries.values())
        assert table.nonzero_row(0) == []
        assert table.nonzero_row(1) == []
        assert {e.n: e.dim for e in table.nonzero_row(2)} == \
            {-4: 3, -3: 2, -2: 1}
        # the tail keeps growing below the window: not finite length
        assert table.row_length(2) is None

    def test_mixed_dimension_table(self):
        table = corpus.full_table("mixed-dimension")
        h1 = {e.n: e.dim for e in table.nonzero_row(1)}
        assert h1 == {n: 1 for n in range(-4, 1)}
        h2 = {e.n: e.dim for e in table.nonzero_row(2)}
        assert h2 == {-4: 3, -3: 2, -2: 1}
        assert table.row_length(1) is None

    def test_row0_matches_saturation_oracle_everywhere(self):
        for case in corpus.FULL_TABLE_CASES:
            table = corpus.full_table(case.name)
            G = corpus.graded(case.name)
            oracle = oracles.saturation_h0_dims(
                G, range(case.window[0], case.window[1] + 1))
            got = {n: table.dim(0, n) for n in oracle}
            assert got == oracle, case.name

    def test_second_build_reuses_cached_ranks(self, monkeypatch):
        # the entries read by elimination at T(n) and the block ranks of
        # the in(I) bounds come from the ring's caches the second time
        G = unsettled_cone()
        first = local_coh_table(G)
        assert any(e.settled_by == localcoh.SETTLE_POWER
                   for e in first.entries.values())
        calls = []
        real_rref = linalg.rref

        def counting_rref(a, p):
            calls.append(a.shape)
            return real_rref(a, p)

        monkeypatch.setattr(linalg, "rref", counting_rref)
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

    def test_negative_i_max_rejected(self):
        with pytest.raises(ValueError, match="^i_max must be >= 0$"):
            local_coh_table(free(("x",)), i_max=-1, cfg=cfg(-2, 1))

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
        assert all(e.stabilized for e in table.entries.values())
        assert {e.n: e.dim for e in table.nonzero_row(0)} == {1: 1, r: 1}
        assert table.dim(1, -4) == table.dim(1, -3) == r
        wide = dataclasses.replace(table.cfg, t_max=24)
        assert table.as_rows() == local_coh_table(G, cfg=wide).as_rows()

    def test_aggregate_stabilized_false_when_entry_unstable(self):
        # the detector's entries under TIGHT leave four unstable; the
        # computed table's entries are all exact and equal the default
        # configuration's on the same window
        G = unsettled_cone()
        table = local_coh_table(G, cfg=TIGHT)
        try:
            dense = CohomologyTable(
                {k: oracles.dense_local_coh_piece(G, *k, TIGHT)
                 for k in table.entries}, table.i_max, TIGHT, complete=True)
        finally:
            oracles.dense_piece.cache_clear()
            oracles.dense_transition_matrix.cache_clear()
        assert not all(e.stabilized for e in dense.entries.values())
        assert all(e.stabilized for e in table.entries.values())
        wide = dataclasses.replace(TIGHT, t_max=12)
        assert table.as_rows() == local_coh_table(G, cfg=wide).as_rows()
        assert table.dim(1, -3) == 1


class TestSyntheticTables:
    def test_from_literal(self):
        table = CohomologyTable.synthetic_from({(1, 2): 10, (2, 0): 1})
        assert table.synthetic and table.complete
        assert table.dim(1, 2) == 10
        assert table.dim(2, 0) == 1
        assert table.dim(0, 0) == 0
        assert all(e.stabilized for e in table.entries.values())
        assert table.row_support(1) == (-1, 0, 1, 2, 3)
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
        # the rows the detector left unstable under TIGHT are exact now, so
        # the check decides: z moves the H^1 classes of (x + y)*(x, y),
        # which lie in every degree <= 0
        G = unsettled_cone()
        table = local_coh_table(G, cfg=TIGHT)
        ok, witnesses = annihilator_is_irrelevant(G, 1, table)
        assert ok is False
        assert [(name, n) for name, n, _ in witnesses] == [
            ("z", -3), ("z", -2), ("z", -1)]
        assert witnesses == oracles.annihilator_witnesses_per_column(
            G, 1, table)


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
        monkeypatch.setattr(koszul, "koszul_cohomology_piece", refuse)
        report = descent_verdict(A, cfg=cfg(-3, 1, t_max=5))
        assert report.table.nonzero_rows() == [[2, -3, 5], [2, -2, 3],
                                               [2, -1, 1]]
        assert report.g_buchsbaum.satisfied
        assert report.g_quasi_buchsbaum.satisfied
        entry = report.table.entry(2, -1)
        G = GradedQuotientRing.of(initial_forms_ideal(A))
        assert (entry.settled_by, entry.power, entry.history) == (
            localcoh.COLUMN_SUM, multigraded.engine(G).settle_power(-1), ())
        assert report.table.entry(1, -1).settled_by == localcoh.ZERO_BOUND

    def test_proved_entry_replaces_tight_t_max(self):
        # the detector cannot settle H^2_{-3} of the quadric by t_max 3;
        # its in(I) column fixes it
        G = GradedQuotientRing(initial_forms_ideal(self.quadric_cone()))
        tight = cfg(-3, -3, t_max=3)
        try:
            assert not oracles.dense_local_coh_piece(
                G, 2, -3, tight).stabilized
        finally:
            oracles.dense_piece.cache_clear()
            oracles.dense_transition_matrix.cache_clear()
        entry = local_coh_piece(G, 2, -3)
        assert entry.stabilized and entry.dim == 5

    def test_nonzero_entry_below_dim_keeps_detector(self):
        # (x+y)^2, (x+y)*y has in(I) = (x^2, x*y): in degree 1 only H^0 of
        # S/in(I) is nonzero, so its column fixes H^0_1 = 1 below dim G = 1
        # too, and the comparison map is read at T(1) = 1 all the same
        G = quotient(("x", "y"), lambda x, y: [(x + y)**2, (x + y) * y])
        assert not G.monomial
        assert multigraded.engine(G).colimit_dims(1) == (1, 0, 0)
        table = local_coh_table(G, cfg=cfg(-2, 2))
        entry = table.entry(0, 1)
        assert (entry.settled_by, entry.dim, entry.power) == (
            localcoh.COLUMN_SUM, 1, 1)
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
        # a value fixed by its column still carries T(n), and the
        # annihilator check at i >= dim reads its maps there; the same
        # check at the detector's powers moves the same (variable, degree)
        # pairs
        G = GradedQuotientRing(initial_forms_ideal(self.quadric_cone()))
        c = cfg(-3, 1, t_max=5)
        table = local_coh_table(G, cfg=c)
        assert all(e.power == multigraded.engine(G).settle_power(e.n)
                   for e in table.entries.values())
        try:
            dense = CohomologyTable(
                {k: oracles.dense_local_coh_piece(G, *k, c)
                 for k in table.entries}, table.i_max, c, complete=True)
        finally:
            oracles.dense_piece.cache_clear()
            oracles.dense_transition_matrix.cache_clear()
        assert all(e.stabilized for e in dense.entries.values())
        ours, theirs = (annihilator_is_irrelevant(G, 2, t)
                        for t in (table, dense))
        assert ours[0] == theirs[0]
        assert {w[:2] for w in ours[1]} == {w[:2] for w in theirs[1]}


def skew_lines(x, y, z, w):
    return [x * z, x * w, y * z, y * w]


def rational_quartic(x, y, z, w):
    return [x * w - y * z, y**3 - x**2 * z, z**3 - y * w**2,
            x * z**2 - y**2 * w]


class TestNamedCones:
    """Cones that are not monomial, whose open entries each take one
    elimination at T(n), on the default window."""

    XYZW = ("x", "y", "z", "w")

    def test_generic_skew_lines(self, monkeypatch):
        # the work is pinned by the eliminations it takes, not by a clock:
        # 17 eliminations of 88,562 cells in all, where the trailing-run
        # detector took 271 of 3,377,325
        cells = []
        rref = linalg.rref

        def counted(mat, p, *args, **kwargs):
            cells.append(mat.size)
            return rref(mat, p, *args, **kwargs)

        monkeypatch.setattr(linalg, "rref", counted)
        R = PolyRing(self.XYZW, P)
        G = GradedQuotientRing(Ideal(
            R, skew_lines(*corpus.generic_forms(R, 3))))
        table = local_coh_table(G)
        assert not G.monomial
        assert len(cells) <= 20 and sum(cells) <= 100_000
        assert table.nonzero_rows() == local_coh_table(
            quotient(self.XYZW, skew_lines)).nonzero_rows() == [
            [1, 0, 1], [2, -5, 8], [2, -4, 6], [2, -3, 4], [2, -2, 2]]
        assert stuckrad_test(G, table).satisfied
        assert quasi_buchsbaum_test(G, table).satisfied

    def test_generic_rational_quartic(self):
        # h^1(I_C(1)) = 1 and h^1(O_C(-k)) = 4k - 1 of a rational quartic
        R = PolyRing(self.XYZW, P)
        G = GradedQuotientRing(Ideal(
            R, rational_quartic(*corpus.generic_forms(R, 5))))
        assert not G.monomial
        assert local_coh_table(G).nonzero_rows() == [[1, 1, 1]] + [
            [2, -k, 4 * k - 1] for k in range(5, 0, -1)]

    def test_q4_rows_by_kunneth(self):
        # Q = (x + y)*(x, y): H^0 = k in degree 1 and H^1 of the line
        # x + y = 0 in k[x, y], each tensored with H^2 of k[z, w]
        G = quotient(self.XYZW,
                     lambda x, y, z, w: [x * y + y**2, x**2 - y**2])
        assert not G.monomial
        table = local_coh_table(G)
        assert (table.cfg.n_lo, table.cfg.n_hi) == (-6, 7)
        assert table.nonzero_rows() == (
            [[2, n, -n] for n in range(-6, 0)]
            + [[3, n, comb(-n - 1, 2)] for n in range(-6, -2)])


@st.composite
def non_monomial_cones(draw):
    """GF(p)[x,y,z] or GF(p)[x,y,z,w] modulo one to three random forms, the
    first with two or more terms, whose reduced basis is not all monomials,
    a window and a margin.

    The trailing-run detector eliminates whole internal degrees n + t*i at
    every power up to t_max = T(n_lo) + margin + 1.  So the window ends at
    the top degree D = sum rho_j - m of S/in(I), where T(D) = 1, and reaches
    at most two degrees below it; in four variables the forms are at most
    quadrics and the cone has dimension at most 2, so that the pieces of
    the powers up to t_max stay under the dense route's size cap.
    """
    p = draw(st.sampled_from([2, 5, 32003]))
    nv = draw(st.integers(3, 4))
    R = PolyRing(("x", "y", "z", "w")[:nv], p)
    gens = []
    for k in range(draw(st.integers(nv - 2, 3))):
        monos = monomials_of_degree(R, draw(st.integers(1, 6 - nv)))
        chosen = draw(st.lists(st.sampled_from(monos), min_size=2 - min(k, 1),
                               max_size=3, unique=True))
        gens.append(R.from_terms(
            {m: draw(st.integers(1, p - 1)) for m in chosen}))
    G = GradedQuotientRing(Ideal(R, gens))
    assume(not G.monomial and not G.is_zero_ring())
    assume(nv == 3 or G.krull_dimension() <= 2)
    top = multigraded.engine(G).degree_bound()
    lo = top - draw(st.integers(0, 5 - nv))
    margin = draw(st.integers(1, 2))
    return G, cfg(lo, top, t_max=margin + 1, margin=margin)


def _alternating(dims):
    return sum((-1) ** i * d for i, d in enumerate(dims))


@seed(21)
@settings(max_examples=30, deadline=None)
@given(non_monomial_cones())
def test_in_ideal_bounds_against_dense_detector(cone):
    # every entry, read once at T(n), equals what the trailing-run detector
    # settles with t_max = T(n_lo) + margin + 1 >= T(n) + margin + 1, lies
    # under its S/in(I) bound, and each column keeps the bounds'
    # alternating sum (Grothendieck-Serre); the annihilator check at T(n)
    # gives the witnesses of one solve per column
    G, c = cone
    m = G.ring.nvars
    table = local_coh_table(G, cfg=c)
    eng = multigraded.engine(G)
    reach = dataclasses.replace(
        c, t_max=eng.settle_power(c.n_lo) + c.margin + 1)
    try:
        for n in c.degrees():
            bounds = eng.colimit_dims(n)
            for i in range(m + 1):
                entry = table.entry(i, n)
                d = oracles.dense_local_coh_piece(G, i, n, reach)
                assert d.stabilized and d.power <= entry.power
                assert entry.power == eng.settle_power(n)
                assert (entry.stabilized, entry.history) == (True, ())
                assert entry.dim == d.dim <= bounds[i]
            column = [table.dim(i, n) for i in range(m + 1)]
            assert _alternating(column) == _alternating(bounds)
        for i in range(m + 1):
            ok, witnesses = annihilator_is_irrelevant(G, i, table)
            assert witnesses == oracles.annihilator_witnesses_per_column(
                G, i, table)
            assert ok == (not witnesses)
    finally:
        oracles.dense_piece.cache_clear()
        oracles.dense_transition_matrix.cache_clear()
