"""Mechanical checkers for the descent criteria and the full pipeline."""

import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import oracles
from formring import (
    DEGREVLEX,
    CohomologyTable,
    FormringError,
    GradedQuotientRing,
    Ideal,
    NotInIrrelevantError,
    PolyRing,
    SaturationLimitError,
    StabilizationConfig,
    ZeroRingError,
    buchberger,
    degree_gap_check,
    descent_verdict,
    initial_forms_ideal,
    intersect,
    length_comparison_check,
    local_coh_table,
    local_h0_report,
    quasi_buchsbaum_test,
    stuckrad_test,
    two_diagonal_check,
)
from formring import KoszulComplexSpec, descent, groebner, multigraded
from oracles import h0_via_saturation, saturate

P = 32003


def quotient(names, builder):
    R = PolyRing(names, P)
    return GradedQuotientRing(Ideal(R, builder(*R.gens())))


def unsettled_cone():
    """(x*y + y^2, x^2 - y^2): a cone that is not monomial, so the entries
    its S/in(I) bounds leave open are eliminated at T(n)."""
    return quotient(("x", "y", "z"),
                    lambda x, y, z: [x**2 + 2 * x * y + y**2, x * y + y**2])


def A_ideal(names, builder):
    R = PolyRing(names, P)
    return Ideal(R, builder(*R.gens()))


SYNTHETIC = {(1, 2): 10, (2, 0): 1}


class TestTwoDiagonal:
    def test_synthetic_admissible_pair(self):
        table = CohomologyTable.synthetic_from(SYNTHETIC)
        v = two_diagonal_check(table, 2)
        assert v.satisfied
        assert v.data["admissible_k"] == {"kind": "finite", "values": [3, 4]}

    def test_synthetic_beyond_rows_allowed(self):
        # synthetic tables are complete by fiat: absent rows are zero
        table = CohomologyTable.synthetic_from(SYNTHETIC)
        v = two_diagonal_check(table, 5)
        assert v.satisfied
        # rows 1 and 2 now both constrain: {3,4} meet {2,3} leaves {3}
        assert v.data["admissible_k"] == {"kind": "finite", "values": [3]}

    def test_r3_empty_is_violation(self):
        table = corpus.full_table("cone-r3")
        v = two_diagonal_check(table, 1)
        assert v.violated
        assert v.data["admissible_k"] == {"kind": "finite", "values": []}
        # positions 1 and 3 in row 0 cannot share a two-diagonal band
        ps = {c[2] for c in v.data["row_constraints"]}  # rows [i, n, p, dim]
        assert ps == {1, 3}

    def test_line_with_point_window_scoped_yes(self):
        table = corpus.full_table("line-with-point")
        v = two_diagonal_check(table, 1)
        assert v.satisfied
        assert v.data["admissible_k"]["values"] == [1, 2]
        assert v.scope["window"] == list(corpus.by_name(
            "line-with-point").window)

    def test_no_constraints_means_all(self):
        table = corpus.full_table("surface")
        v = two_diagonal_check(table, 2)
        assert v.satisfied
        assert v.data["admissible_k"]["kind"] != "finite" or \
            v.data["admissible_k"]["values"]

    def test_tail_row_lower_bound(self):
        # row t only bounds k from below: its position 7 floor collides
        # with the {3, 4} band the row-0 entry allows, emptying the set
        table = CohomologyTable.synthetic_from({(0, 3): 1, (2, 5): 1})
        v = two_diagonal_check(table, 2)
        assert v.violated
        assert v.data["tail_min_allowed"] == 7
        assert v.data["admissible_k"] == {"kind": "finite", "values": []}

    def test_tail_row_compatible_floor(self):
        # same shape, but the floor sits inside the allowed band
        table = CohomologyTable.synthetic_from({(0, 3): 1, (2, 2): 1})
        v = two_diagonal_check(table, 2)
        assert v.satisfied
        assert v.data["tail_min_allowed"] == 4
        assert v.data["admissible_k"]["values"] == [4]

    def test_t_beyond_computed_rows_rejected(self):
        table = corpus.full_table("free-2")  # complete (i_max = nvars)
        v = two_diagonal_check(table, 2)  # fine: t == dimension
        assert v.status in {"satisfied", "violated"}
        partial = local_coh_table(
            corpus.graded("free-2"), i_max=1,
            cfg=StabilizationConfig(n_lo=-2, n_hi=1, t_max=6, margin=2))
        with pytest.raises(ValueError):
            two_diagonal_check(partial, 2)


class TestDegreeGap:
    def test_synthetic_single_violation(self):
        table = CohomologyTable.synthetic_from(SYNTHETIC)
        v = degree_gap_check(table, 5)
        assert v.violated
        assert v.data["violations"] == [
            {"i": 1, "j": 2, "p": 3, "q": 2, "dim_i": 10, "dim_j": 1}]

    def test_synthetic_no_violation_small_t(self):
        # with t = 2 only rows below 2 pair up; row 2 is out of scope
        table = CohomologyTable.synthetic_from(SYNTHETIC)
        v = degree_gap_check(table, 2)
        assert v.satisfied

    def test_real_ring_clean(self):
        table = corpus.full_table("cone-r3")
        assert degree_gap_check(table, 1).satisfied


class TestStuckrad:
    def test_r3_positive(self):
        G = corpus.graded("cone-r3")
        v = stuckrad_test(G, corpus.full_table("cone-r3"))
        assert v.satisfied
        assert v.data["dimension"] == 1
        assert all(flag == 1 for _, _, flag in v.data["surjectivity"])

    def test_line_with_point_positive(self):
        G = corpus.graded("line-with-point")
        assert stuckrad_test(G, corpus.full_table("line-with-point")).satisfied

    def test_thick_line_negative(self):
        G = corpus.graded("thick-line")
        v = stuckrad_test(G, corpus.full_table("thick-line"))
        assert v.violated
        failing = [(i, n) for i, n, flag in v.data["surjectivity"] if not flag]
        assert (0, 2) in failing

    def test_artinian_trivial(self):
        G = corpus.graded("chain-artinian")
        v = stuckrad_test(G, corpus.full_table("chain-artinian"))
        assert v.satisfied
        assert v.data["surjectivity"] == []

    def test_zero_ring_rejected(self):
        R = PolyRing(("x",), P)
        G = GradedQuotientRing(Ideal(R, [R.one()]))
        with pytest.raises(ZeroRingError):
            stuckrad_test(G, CohomologyTable.synthetic_from({}))

    def test_unstable_rows_above_dimension_do_not_poison(self):
        # the trailing-run detector could not settle row 2 in this tight
        # configuration; every row is exact now, and only rows below the
        # dimension (0 and 1, both zero here) are consulted
        G = unsettled_cone()
        tight = local_coh_table(
            G, cfg=StabilizationConfig(n_lo=-3, n_hi=-3, t_max=3, margin=2))
        assert G.krull_dimension() == 2
        assert all(e.stabilized for e in tight.entries.values())
        assert [tight.dim(i, -3) for i in range(4)] == [0, 1, 2, 0]
        v = stuckrad_test(G, tight)
        assert v.violated
        assert v.witnesses == [{"i": 1, "n": -3, "rank": 0, "dim": 1}]

    def test_inconclusive_on_unstable_consulted_row(self):
        # the rows [H^1]_{-2} and [H^1]_{-1} that the detector could not
        # settle by t_max = 3 are read at T(n), so the verdict under the
        # tight configuration is decided and equals the default one's on
        # the same window
        G = unsettled_cone()
        tight = StabilizationConfig(n_lo=-3, n_hi=1, t_max=3, margin=2)
        v = stuckrad_test(G, local_coh_table(G, cfg=tight))
        wide = stuckrad_test(G, local_coh_table(
            G, cfg=StabilizationConfig(n_lo=-3, n_hi=1)))
        assert v.violated
        assert (v.witnesses, v.data) == (wide.witnesses, wide.data)
        assert [w["n"] for w in v.witnesses] == [-3, -2, -1]


class TestQuasiBuchsbaum:
    def test_line_with_point_positive(self):
        G = corpus.graded("line-with-point")
        assert quasi_buchsbaum_test(
            G, corpus.full_table("line-with-point")).satisfied

    def test_r3_positive(self):
        G = corpus.graded("cone-r3")
        assert quasi_buchsbaum_test(G, corpus.full_table("cone-r3")).satisfied

    def test_thick_line_negative_with_witness(self):
        G = corpus.graded("thick-line")
        v = quasi_buchsbaum_test(G, corpus.full_table("thick-line"))
        assert v.violated
        assert any(w["variable"] == "y" and w["n"] == 2 for w in v.witnesses)


class TestLocalH0Report:
    def test_family_r3(self):
        I = A_ideal(("x", "y", "z"),
                    lambda x, y, z: [x**2, x * y, x * z - y**3, y**4,
                                     x * z**2])
        rep = local_h0_report(I)
        assert rep.socle_dim == 1
        assert rep.torsion_dim == 2
        assert rep.torsion_dims_by_order == {1: 1, 3: 1}
        assert rep.socle_dims_by_order == {3: 1}
        assert rep.saturation_exponent == 2
        assert rep.f0_surjective is False
        certs = {c["generator"]: c["exponent"] for c in rep.certificates}
        assert certs.get("x") == 2
        assert certs.get("y^3") == 1

    @pytest.mark.parametrize("r", [6, 7])
    def test_family_large_r(self, r):
        I = A_ideal(("x", "y", "z"),
                    lambda x, y, z: [x**2, x * y, x * z - y**r, y ** (r + 1),
                                     x * z**2])
        cone = initial_forms_ideal(I)
        assert sorted(str(g) for g in cone.groebner_basis().elements) == \
            sorted(["x^2", "x*y", "x*z", f"y^{r + 1}", f"y^{r}*z"])
        rep = local_h0_report(I)
        assert rep.f0_surjective is False
        certs = {c["generator"]: c["exponent"] for c in rep.certificates}
        assert certs.get("x") == 2

    @pytest.mark.parametrize("builder", [
        lambda x, y, z: [x**2, x * y, x * z - y**3, y**4, x * z**2],
        lambda x, y, z: [y - x**2],
        lambda x, y, z: [x**3, x**2 * y**2],
        lambda x, y, z: [x**2, x * y],
    ], ids=["family-r3", "parabola", "thick-line", "line-with-point"])
    def test_socle_starts_the_saturation_chain(self, builder):
        # the package has no quotient chain, yet the report's exponent and
        # torsion are those of the oracle chain
        I = A_ideal(("x", "y", "z"), builder)
        rep = local_h0_report(I)
        m = Ideal(I.ring, I.ring.gens())
        torsion, s = saturate(I, m)
        assert rep.saturation_exponent == s
        assert rep.torsion_generators == [
            str(g) for g in torsion.generators if not I.contains(g)]

    def test_cm_parabola_vacuous(self):
        I = A_ideal(("x", "y"), lambda x, y: [y - x**2])
        rep = local_h0_report(I)
        assert rep.socle_dim == 0
        assert rep.torsion_dim == 0
        assert rep.f0_surjective is True
        assert rep.certificates == []

    def test_one_var_square(self):
        # in one variable the irrelevant ideal is principal, so the
        # saturation of (x^2) is the unit ideal: the torsion is all of
        # A = {1, x} and the degree-0 comparison map misses the class of 1
        I = A_ideal(("x",), lambda x: [x**2])
        rep = local_h0_report(I)
        assert rep.socle_dim == 1
        assert rep.torsion_dim == 2
        assert rep.torsion_dims_by_order == {0: 1, 1: 1}
        assert rep.socle_dims_by_order == {1: 1}
        assert rep.f0_surjective is False

    def test_homogeneous_matches_graded_oracle(self):
        # on homogeneous input the filtered and graded sides coincide
        I = A_ideal(("x", "y"), lambda x, y: [x**3, x**2 * y**2])
        rep = local_h0_report(I)
        G = corpus.graded("thick-line")
        assert rep.torsion_dims_by_order == h0_via_saturation(G)
        assert rep.torsion_dim == 2

    def test_unit_ideal_rejected(self):
        R = PolyRing(("x",), P)
        with pytest.raises(NotInIrrelevantError):
            local_h0_report(Ideal(R, [R.one() + R.variable("x")]))

    def test_order_filtration_cap(self, monkeypatch):
        message = ("a torsion order or annihilating exponent exceeds the "
                   "cap of 1")
        family = A_ideal(("x", "y", "z"),
                         lambda x, y, z: [x**2, x * y, x * z - y**3, y**4,
                                          x * z**2])
        # x^2 * m: the torsion class x^2 has exponent 1 but order 2
        cone = A_ideal(("x", "y", "z"),
                       lambda x, y, z: [x**3, x**2 * y, x**2 * z])
        point = A_ideal(("x", "y"), lambda x, y: [x**2, x * y])
        assert local_h0_report(family).saturation_exponent == 2
        rep = local_h0_report(cone)
        assert rep.torsion_dims_by_order == {2: 1}
        assert rep.saturation_exponent == 1
        monkeypatch.setattr(descent, "SATURATION_CAP", 1)
        # fresh ideals: a report is kept on the ideal it was computed for
        for I in (Ideal(J.ring, J.generators) for J in (family, cone)):
            with pytest.raises(SaturationLimitError) as info:
                local_h0_report(I)
            assert str(info.value) == message
            assert info.value.cap == 1
        # exponent 1 and order 1 stay inside the cap
        assert local_h0_report(point).torsion_dims_by_order == {1: 1}


def _gf5_ideal():
    R = PolyRing(("x", "y", "z"), 5)
    x, y, z = R.gens()
    return Ideal(R, [x**2 * y**2 * z**2 - 2 * y**3 * z**3 - x * y**3 * z,
                     x * y**3 * z**3 - 2 * y**2,
                     x**2 * y**2 * z**2 + y**2 * z**3 + x * z**2,
                     -x**2 * y**2 * z**2 + 2 * x**2 * y - y * z**2])


def _family(r):
    return A_ideal(("x", "y", "z"),
                   lambda x, y, z: [x**2, x * y, x * z - y**r, y**(r + 1),
                                    x * z**2])


def _h0_outcome(route, I):
    """The report bytes, or the type of the error the route raises."""
    try:
        return json.dumps(route(I).to_dict())
    except FormringError as exc:
        return type(exc).__name__


def _all_variable_outcome(I):
    """`_h0_outcome` of the report from the all-variable torsion ideal."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(descent, "_torsion_ideal", lambda A: (
            oracles.all_variable_torsion_ideal(A), None))
        return _h0_outcome(descent._torsion_report, I)


PINNED_H0_CASES = {
    # T = (x - 1) is not inside m: its cone is the unit ideal
    "x(x-1)": lambda: A_ideal(("x",), lambda x: [x * (x - 1)]),
    # m-primary, so T is the whole ring
    "x^2,y": lambda: A_ideal(("x", "y"), lambda x, y: [x**2, y]),
    **{f"family-r{r}": (lambda r=r: _family(r)) for r in range(3, 8)},
    "gf5": _gf5_ideal,
}


@pytest.mark.parametrize("case", sorted(PINNED_H0_CASES))
def test_h0_report_matches_chain_oracle_pinned(case):
    # a fresh Ideal per route, so neither reads the other's cached bases
    build = PINNED_H0_CASES[case]
    assert _h0_outcome(local_h0_report, build()) == _h0_outcome(
        oracles.chain_local_h0_report, build())


def test_h0_report_pinned_values():
    rep = local_h0_report(PINNED_H0_CASES["x(x-1)"]())
    assert rep.torsion_generators == ["x - 1"]
    assert rep.torsion_dims_by_order == {0: 1}
    primary = local_h0_report(PINNED_H0_CASES["x^2,y"]())
    assert primary.torsion_generators == ["1"]
    assert primary.torsion_dims_by_order == {0: 1, 1: 1}
    assert primary.saturation_exponent == 2
    gf5 = local_h0_report(_gf5_ideal())
    assert gf5.torsion_dims_by_order == {1: 1, 2: 2, 3: 2, 4: 1}
    assert gf5.socle_generators == ["y*z^3"]
    assert gf5.saturation_exponent == 4


@st.composite
def ideals_inside_m(draw):
    """A few sparse generators without constant term over GF(p)."""
    p = draw(st.sampled_from([2, 5, 32003]))
    nv = draw(st.integers(1, 3))
    R = PolyRing(tuple("xyz"[:nv]), p)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            exps = tuple(draw(st.integers(0, 3)) for _ in range(nv))
            if any(exps):
                terms[exps] = draw(st.integers(1, p - 1))
        gens.append(R.from_terms(terms))
    return R, gens


@settings(max_examples=40, deadline=None)
@given(ideals_inside_m())
def test_h0_report_matches_chain_oracle(case):
    R, gens = case
    assert _h0_outcome(local_h0_report, Ideal(R, gens)) == _h0_outcome(
        oracles.chain_local_h0_report, Ideal(R, gens))


@st.composite
def nonhomogeneous_ideals(draw):
    """Generators without constant term in x, y, z over GF(p); the first
    has terms of two different degrees."""
    p = draw(st.sampled_from([2, 3, 32003]))
    R = PolyRing(("x", "y", "z"), p)
    monomial = st.tuples(*[st.integers(0, 3)] * 3).filter(any)
    coeff = st.integers(1, p - 1)
    low = draw(monomial)
    high = draw(monomial.filter(lambda e: sum(e) != sum(low)))
    gens = [R.from_terms({low: draw(coeff), high: draw(coeff)})]
    for _ in range(draw(st.integers(0, 2))):
        gens.append(R.from_terms({e: draw(coeff) for e in draw(
            st.lists(monomial, min_size=1, max_size=3))}))
    return R, gens


@settings(max_examples=40, deadline=None)
@given(nonhomogeneous_ideals())
def test_cone_without_h0_means_no_torsion(case):
    # the shortcut's claim, against the quotient chain: when S/in(IG) has
    # no H^0, (A : m^inf) = A; and on every draw the report is the one the
    # all-variable elimination route gives
    R, gens = case
    if descent._cone_h0_top(Ideal(R, gens)) is None:
        A = Ideal(R, gens)
        torsion, _ = saturate(A, Ideal(R, R.gens()))
        assert torsion.equals(A)
    assert _h0_outcome(local_h0_report, Ideal(R, gens)) == \
        _all_variable_outcome(Ideal(R, gens))


def test_cone_shortcut_fires_only_without_torsion():
    assert descent._cone_h0_top(PINNED_H0_CASES["x(x-1)"]()) is not None
    assert descent._cone_h0_top(_family(3)) == 3
    N = A_ideal(("x", "y", "z"), lambda x, y, z: [x**2 - 5 * y**3, z])
    assert descent._cone_h0_top(N) is None


@st.composite
def torsion_ideals(draw):
    """A few sparse generators inside m and g*m for a monomial g, so most
    draws have torsion; half of them are intersected with a component
    away from the origin, (x_j - 1, x_k)."""
    p = draw(st.sampled_from([3, 32003]))
    nv = draw(st.integers(2, 3))
    R = PolyRing(tuple("xyz"[:nv]), p)
    monomial = st.tuples(*[st.integers(0, 3)] * nv).filter(any)
    coeff = st.integers(1, p - 1)
    gens = [R.from_terms({e: draw(coeff) for e in draw(
        st.lists(monomial, min_size=1, max_size=3))})
        for _ in range(draw(st.integers(1, 2)))]
    g = R.monomial(draw(st.tuples(*[st.integers(0, 2)] * nv)))
    gens += [g * x for x in R.gens()]
    if draw(st.booleans()):
        j, k = draw(st.permutations(range(nv)))[:2]
        far = Ideal(R, [R.variable(j) - R.one(), R.variable(k)])
        gens = list(intersect(Ideal(R, gens), far).generators)
    return R, gens


@settings(max_examples=40, deadline=None)
@given(torsion_ideals())
def test_certified_torsion_matches_all_variable_route(case):
    # fresh Ideals per route, so neither reads the other's cached bases
    R, gens = case
    torsion, _ = descent._torsion_ideal(Ideal(R, gens))
    reference = oracles.all_variable_torsion_ideal(Ideal(R, gens))
    assert torsion.groebner_basis(DEGREVLEX).elements == \
        reference.groebner_basis(DEGREVLEX).elements
    assert _h0_outcome(local_h0_report, Ideal(R, gens)) == \
        _all_variable_outcome(Ideal(R, gens))


def test_family_torsion_takes_one_saturation(monkeypatch):
    # z is the one variable without a pure power among the cone's leads;
    # (A : z^inf) is certified as T, so nothing is intersected
    calls = []
    saturate_by_variable = descent.saturate_by_variable

    def counting(ideal, j):
        calls.append(j)
        return saturate_by_variable(ideal, j)

    def forbidden(*args):
        raise AssertionError("intersect ran")

    monkeypatch.setattr(descent, "saturate_by_variable", counting)
    monkeypatch.setattr(descent, "intersect", forbidden)
    rep = local_h0_report(_family(3))
    assert calls == [2]
    assert rep.torsion_generators == ["x", "y^3"]
    assert [c["exponent"] for c in rep.certificates] == [2, 1]


def test_far_component_report_pinned(monkeypatch):
    # P = (x, y - 1) ∩ (x, y)^2: every variable has a pure power among the
    # cone's leads, and the unit ideal fails the certificate, so T comes
    # from the saturations by x, which is (1) and skipped, and by y
    def forbidden(*args):
        raise AssertionError("intersect ran")

    monkeypatch.setattr(descent, "intersect", forbidden)
    P = A_ideal(("x", "y"), lambda x, y: [x**2, x * y, y**3 - y**2])
    rep = local_h0_report(P)
    assert rep.torsion_generators == ["y - 1", "x"]
    assert rep.torsion_dim == 3
    assert [c["exponent"] for c in rep.certificates] == [2, 1]
    assert rep.socle_generators == ["x", "y^2 - y"]


def test_socle_and_torsion_ideals_keep_their_reduced_basis(monkeypatch):
    seen = []
    dims_by_order = descent._dims_by_order

    def recording(A, J, total):
        seen.append(J)
        return dims_by_order(A, J, total)

    monkeypatch.setattr(descent, "_dims_by_order", recording)
    assert not local_h0_report(_family(3)).f0_surjective
    socle, torsion = seen
    for J in (socle, torsion):
        assert J._gb_cache[DEGREVLEX].elements == buchberger(
            J.generators, DEGREVLEX)


@settings(max_examples=40, deadline=None)
@given(ideals_inside_m())
def test_annihilating_exponent_matches_monomial_loop(case):
    # the torsion generators die at some finite power; a variable may not
    R, gens = case
    I = Ideal(R, gens)
    for g in [*descent._torsion_ideal(I)[0].generators, *R.gens()]:
        assert descent._minimal_annihilating_exponent(I, g, 6) == \
            oracles.monomial_loop_annihilating_exponent(I, g, 6)


def _gf5_s12_ideal():
    R = PolyRing(("x", "y", "z"), 5)
    x, y, z = R.gens()
    return Ideal(R, [-2 * x**3 * y**3 * z**2 - 2 * x**2 * y**2 * z**3
                     + 2 * x * y**3,
                     -x**3 * y * z**3 - 2 * x**2 * y**2 * z,
                     x**3 * z**2 + z**3])


def test_annihilating_exponents_pinned_at_s12():
    rep = local_h0_report(_gf5_s12_ideal())
    assert rep.saturation_exponent == 12
    assert (rep.torsion_dim, rep.socle_dim) == (14, 2)
    exponents = [c["exponent"] for c in rep.certificates]
    assert exponents == [12, 11, 10, 3, 4, 8, 1, 12]
    I = _gf5_s12_ideal()
    gens = [g for g in descent._torsion_ideal(I)[0].generators
            if not I.contains(g)]
    assert [oracles.monomial_loop_annihilating_exponent(
        I, g, groebner.SATURATION_CAP) for g in gens] == exponents


class TestLengthComparison:
    def test_equal_r3(self):
        I = A_ideal(("x", "y", "z"),
                    lambda x, y, z: [x**2, x * y, x * z - y**3, y**4,
                                     x * z**2])
        rep = local_h0_report(I)
        v = length_comparison_check(corpus.full_table("cone-r3"), rep)
        assert v.satisfied
        assert v.data["length_graded"] == 2
        assert v.data["length_filtered"] == 2
        assert v.data["equal"] is True

    def test_inconclusive_without_finite_row(self):
        # free ring: row 0 of S/in(I) has no live cap, so its length is 0
        # whatever the window; the comparison is never inconclusive
        I = A_ideal(("x", "y"), lambda x, y: [])
        table = local_coh_table(
            corpus.graded("free-2"), i_max=0,
            cfg=StabilizationConfig(n_lo=-2, n_hi=1, t_max=6, margin=2))
        rep = local_h0_report(I)
        v = length_comparison_check(table, rep)
        assert v.satisfied
        assert (v.data["length_graded"], v.data["length_filtered"]) == (0, 0)


class TestDescentVerdict:
    def test_family_r3_not_buchsbaum_downstairs(self):
        I = A_ideal(("x", "y", "z"),
                    lambda x, y, z: [x**2, x * y, x * z - y**3, y**4,
                                     x * z**2])
        rep = descent_verdict(I)
        assert rep.dimension == 1
        assert rep.g_buchsbaum.satisfied
        assert rep.g_quasi_buchsbaum.satisfied
        assert rep.two_diagonal.violated
        assert rep.a_h0.f0_surjective is False
        assert rep.a_buchsbaum == "no"
        assert "dimension one" in rep.a_buchsbaum_source
        assert rep.length_0.satisfied

    def test_parabola_yes(self):
        rep = descent_verdict(A_ideal(("x", "y"), lambda x, y: [y - x**2]))
        assert rep.dimension == 1
        assert rep.a_buchsbaum == "yes"

    def test_homogeneous_both_sides_buchsbaum(self):
        rep = descent_verdict(A_ideal(("x", "y"),
                                      lambda x, y: [x**2, x * y]))
        assert rep.a_buchsbaum == "yes"
        assert rep.two_diagonal.satisfied
        assert rep.g_buchsbaum.satisfied

    def test_surface_descent_path(self):
        rep = descent_verdict(A_ideal(("x", "y", "z"),
                                      lambda x, y, z: [x * y]))
        assert rep.dimension == 2
        assert rep.two_diagonal.satisfied
        assert rep.g_buchsbaum.satisfied
        assert rep.a_buchsbaum == "yes"
        assert "descent" in rep.a_buchsbaum_source

    def test_mixed_dimension_undecided(self):
        rep = descent_verdict(A_ideal(("x", "y", "z"),
                                      lambda x, y, z: [x * z, y * z]))
        assert rep.dimension == 2
        assert rep.two_diagonal.violated
        assert rep.a_buchsbaum == "undecided"
        assert rep.finiteness_below_dim == "not verified in window"

    def test_h0_past_the_window_is_read_whole(self):
        # H^0 of this cone lives in degrees 1 and 3, and the window -1..2
        # misses degree 3: the row is summed over its caps' degrees
        rep = descent_verdict(
            A_ideal(("x", "y", "z"), lambda x, y, z: [
                x**2, x * y, x * z, y**4, y**3 * z]),
            cfg=StabilizationConfig(-1, 2))
        assert rep.length_0.satisfied
        assert (rep.length_0.data["length_graded"],
                rep.length_0.data["length_filtered"]) == (2, 2)

    @pytest.mark.parametrize("window", [(1, 2), (0, 7)])
    def test_bowtie_window_without_its_infinite_row_is_undecided(self,
                                                                 window):
        # the bowtie's H^2 is 1 in every degree below 0, out of these
        # windows, and it is not Buchsbaum
        I, _ = _bowtie()
        rep = descent_verdict(I, cfg=StabilizationConfig(*window))
        assert rep.a_buchsbaum == "undecided"
        assert rep.a_buchsbaum_source.endswith(
            "row 2 has no proved finite length")
        assert rep.finiteness_below_dim == "not verified in window"

    @pytest.mark.parametrize("window", [(1, 2), (0, 7)])
    @pytest.mark.parametrize("change", ["b+d", "generic"])
    def test_changed_bowtie_window_without_its_infinite_row_is_undecided(
            self, change, window):
        # the bowtie after b -> b + d, or after a generic change, is not
        # monomial and not Buchsbaum; its in(I) has an infinite H^2, so
        # Sbarra's bound leaves G's row 2 open, though both window edges
        # vanish
        R = PolyRing(tuple("abcde"), P)
        a, b, c, d, e = R.gens()
        if change == "b+d":
            b = b + d
        else:
            a, b, c, d, e = corpus.generic_forms(R, 3)
        I = Ideal(R, [b * d, b * e, c * d, c * e])
        rep = descent_verdict(I, cfg=StabilizationConfig(*window))
        assert not GradedQuotientRing.of(initial_forms_ideal(I)).monomial
        assert rep.a_buchsbaum == "undecided"
        assert rep.a_buchsbaum_source.endswith(
            "row 2 has no proved finite length")
        assert rep.finiteness_below_dim == "not verified in window"

    @pytest.mark.parametrize("window, missing", [
        ((-3, -1), "row 1 is supported outside -3..-1"),
        ((0, 0), "row 2 is zero in 0..0"),
        ((-2, 0), None)])
    def test_skew_lines_descent_needs_what_the_checks_read(self, window,
                                                           missing):
        # H^1 = k in degree 0 and H^2 in degrees -3 and -2; the degree
        # bound is 0
        rep = descent_verdict(
            A_ideal(("x", "y", "z", "w"),
                    lambda x, y, z, w: [x * z, x * w, y * z, y * w]),
            cfg=StabilizationConfig(*window))
        if missing is None:
            assert rep.a_buchsbaum == "yes"
        else:
            assert rep.a_buchsbaum == "undecided"
            assert rep.a_buchsbaum_source.endswith(missing)

    @pytest.mark.parametrize("window, status", [
        ((-3, 1), "undecided"), ((-3, 2), "yes")])
    def test_row_d_top_degree_needs_the_degree_bound(self, window, status):
        # H^0 = k x in degree 1 on the CM surface y^2 z = 0 in k[y, z, w];
        # H^2 tops out at degree 0, but only the bound 2 proves that
        rep = descent_verdict(
            A_ideal(("x", "y", "z", "w"), lambda x, y, z, w: [
                x**2, x * y, x * z, x * w, y**2 * z]),
            cfg=StabilizationConfig(*window))
        assert rep.a_buchsbaum == status
        if status == "undecided":
            assert rep.a_buchsbaum_source.endswith(
                "row 2 may be nonzero up to degree 2")

    def test_cohen_macaulay_surface_needs_no_rows(self):
        rep = descent_verdict(A_ideal(("x", "y", "z"),
                                      lambda x, y, z: [x * y]),
                              cfg=StabilizationConfig(0, 3))
        assert rep.a_buchsbaum == "yes"

    def test_generic_skew_lines_leave_row_1_open(self):
        # in(I) has an infinite H^1, so Sbarra's bound leaves G's row 1
        # open: both edges of the default window vanish, but that proves
        # no finite length, and the answer waits on G's own finiteness
        R = PolyRing(("x", "y", "z", "w"), P)
        x, y, z, w = corpus.generic_forms(R, 3)
        rep = descent_verdict(Ideal(R, [x * z, x * w, y * z, y * w]))
        assert rep.table.positions_row(1) == [(1, 1)]
        assert rep.table.row_support(1) is None
        assert rep.a_buchsbaum == "undecided"
        assert rep.a_buchsbaum_source.endswith(
            "row 1 has no proved finite length")

    def test_artinian_yes(self):
        rep = descent_verdict(A_ideal(("x",), lambda x: [x**3]))
        assert rep.dimension == 0
        assert rep.a_buchsbaum == "yes"
        assert rep.finiteness_below_dim == "trivial: dimension zero"

    def test_report_serializes(self):
        import json

        rep = descent_verdict(A_ideal(("x", "y"), lambda x, y: [x**2, x * y]))
        out = rep.to_dict()
        assert json.dumps(out, sort_keys=True)
        assert out["higher_length_equalities"] == "not checked"


# -- verdicts that need no elimination on the filtered side ----------------

def _coords_quadric():
    # l1 * l2 for two generic linear forms: all six terms of the product
    R = PolyRing(("x", "y", "z"), P)
    x, y, z = R.gens()
    return (Ideal(R, [(3 * x + 5 * y + 7 * z) * (2 * x + 11 * y + 13 * z)]),
            StabilizationConfig(-3, 1, t_max=5))


def _bowtie():
    R = PolyRing(tuple("abcde"), P)
    _, b, c, d, e = R.gens()
    return Ideal(R, [b * d, b * e, c * d, c * e]), None


def _seeded_complex(nv):
    # a pure 2-complex: 4 nv seeded triangles on nv vertices, closed
    # downwards; its minimal nonfaces generate the Stanley-Reisner ideal
    facets = random.Random(1).sample(
        list(itertools.combinations(range(nv), 3)), 4 * nv)
    faces = {frozenset(sub) for facet in facets for k in range(4)
             for sub in itertools.combinations(facet, k)}
    R = PolyRing(tuple(f"x{v}" for v in range(nv)), P)
    nonfaces = [S for k in range(1, nv + 1)
                for S in map(frozenset, itertools.combinations(range(nv), k))
                if S not in faces and all(S - {v} in faces for v in S)]
    return Ideal(R, [R.monomial(tuple(int(v in S) for v in range(nv)))
                     for S in nonfaces])


def _ten_vertex_complex():
    return _seeded_complex(10), None


def _n_ideal():
    # not homogeneous: its cone (x^2, z) is eliminated before the patch
    I = A_ideal(("x", "y", "z"), lambda x, y, z: [x**2 - 5 * y**3, z])
    initial_forms_ideal(I)
    return I, None


# sha256 of json.dumps(descent_verdict(...).to_dict(), sort_keys=True), as
# the elimination route gives it
NO_ELIMINATION_CASES = {
    "coords-quadric": (_coords_quadric, "0a87c54c6441bcdba4241a1a76f0b97f"
                       "5340c019253bcfe94665b950216f3de9"),
    "N": (_n_ideal, "c14ffe3249e39c6c801dd351320764ca"
          "d856f640a25e5be26d7465e484d8355c"),
    "bowtie": (_bowtie, "0e4355b83cb3edaf849463da7efc4f0c"
               "2c821dcc0699712bbb8db5fe389c9405"),
    "10-vertex": (_ten_vertex_complex, "a62fbc0b8bcbedafb998f9c363bf8226"
                  "3cb4954c4500bf70429e6cdd322d0118"),
}


@pytest.mark.parametrize("case", sorted(NO_ELIMINATION_CASES))
def test_verdict_bytes_without_elimination(monkeypatch, case):
    build, digest = NO_ELIMINATION_CASES[case]
    I, cfg = build()
    real = groebner.buchberger

    def no_elimination(generators, order=None):
        assert order != groebner.ELIM_LAST, "an elimination ran"
        return real(generators, order)

    def forbidden(*args):
        raise AssertionError("saturate_by_variable ran")

    monkeypatch.setattr(groebner, "buchberger", no_elimination)
    monkeypatch.setattr(descent, "saturate_by_variable", forbidden)
    text = json.dumps(descent_verdict(I, cfg=cfg).to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# the same digest for the seeded complex (14): its Buchsbaum checks read
# 128 live caps, where a walk lists 38,760 multidegrees for the classes and
# 6,476 for the comparison ranks
SEEDED_COMPLEX_14_DIGEST = ("a701734545b6f844ba41d2d1f70a6041"
                            "09f6b89b2a9311d160bf0fbf6e6d3d83")


def _refuse_walk(*args, **kwargs):
    raise AssertionError("a multidegree was listed")


def test_verdicts_list_no_multidegree(monkeypatch):
    # both Buchsbaum checks read their blocks off the live caps at T(n)
    monkeypatch.setattr(multigraded._Engine, "multidegrees", _refuse_walk)
    torus = descent_verdict(corpus.build_ideal(corpus.by_name("torus")))
    assert torus.g_buchsbaum.status == "satisfied"
    assert torus.g_quasi_buchsbaum.status == "satisfied"
    text = json.dumps(descent_verdict(_seeded_complex(14)).to_dict(),
                      sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        SEEDED_COMPLEX_14_DIGEST


def test_bowtie_terms_expand_to_the_dense_witnesses():
    # written back into the dense cochain order, the bowtie's witness terms
    # give the report as it was when each witness was a dense vector
    I, cfg = _bowtie()
    report = descent_verdict(I, cfg=cfg).to_dict()
    G = GradedQuotientRing.of(initial_forms_ideal(I))
    names = G.ring.variables
    witnesses = report["g_quasi_buchsbaum"]["witnesses"]
    assert witnesses
    for w in witnesses:
        spec = KoszulComplexSpec(
            G, multigraded.engine(G).settle_power(w["n"]))
        labels = oracles.cochain_labels(spec, w["i"], w["n"])
        index = {(tuple(names[j] for j in J), str(G.ring.monomial(mono))): k
                 for k, (J, mono) in enumerate(labels)}
        vec = [0] * len(labels)
        for subset, mono, c in w.pop("terms"):
            vec[index[tuple(subset), mono]] = c
        w["representative"] = vec
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "41bc37d448287c1252e710557742917464609dda642efcda7c3a79c7f744dbf9")


@pytest.mark.parametrize("build", [_bowtie, _ten_vertex_complex])
def test_monomial_verdict_lists_no_graded_basis(monkeypatch, build):
    # a monomial cone's witnesses are read off their blocks, so no degree
    # of the cone is listed
    degrees = []
    real = GradedQuotientRing.graded_basis

    def recording(self, n):
        degrees.append(n)
        return real(self, n)

    monkeypatch.setattr(GradedQuotientRing, "graded_basis", recording)
    I, cfg = build()
    descent_verdict(I, cfg=cfg)
    assert degrees == []


def test_seeded_complex_report_is_small():
    # 18 witnesses of at most 4 terms each; as dense vectors of up to
    # 95,964 entries the report took 2.6 MB
    report = descent_verdict(_seeded_complex(12)).to_dict()
    witnesses = report["g_quasi_buchsbaum"]["witnesses"]
    assert len(witnesses) == 18
    assert max(len(w["terms"]) for w in witnesses) <= 4
    assert len(json.dumps(report, sort_keys=True)) < 100_000
