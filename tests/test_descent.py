"""Mechanical checkers for the descent criteria and the full pipeline."""

import pytest

import corpus
from formring import (
    CohomologyTable,
    GradedQuotientRing,
    Ideal,
    NotInIrrelevantError,
    PolyRing,
    SaturationLimitError,
    StabilizationConfig,
    ZeroRingError,
    degree_gap_check,
    descent_verdict,
    initial_forms_ideal,
    length_comparison_check,
    local_coh_table,
    local_h0_report,
    quasi_buchsbaum_test,
    stuckrad_test,
    two_diagonal_check,
)
from formring import descent

P = 32003


def quotient(names, builder):
    R = PolyRing(names, P)
    return GradedQuotientRing(Ideal(R, builder(*R.gens())))


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
        # row 2 is unstable in this tight configuration, but only rows
        # below the dimension (0 and 1, both stably zero) are consulted
        G = corpus.graded("free-2")
        bad = local_coh_table(
            G, cfg=StabilizationConfig(n_lo=-8, n_hi=-8, t_max=4, margin=2))
        v = stuckrad_test(G, bad)
        assert v.satisfied

    def test_inconclusive_on_unstable_consulted_row(self):
        # [H^0]_2 of the thick line first moves at t = 2; with t_max = 3
        # the trailing isomorphism run is too short to certify stability
        G = corpus.graded("thick-line")
        bad = local_coh_table(
            G, cfg=StabilizationConfig(n_lo=2, n_hi=2, t_max=3, margin=2))
        assert not bad.row_stabilized(0)
        v = stuckrad_test(G, bad)
        assert v.inconclusive


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
        from formring import h0_via_saturation

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
        I = A_ideal(("x", "y", "z"),
                    lambda x, y, z: [x**2, x * y, x * z - y**3, y**4,
                                     x * z**2])
        x, y, _ = I.ring.gens()
        # the class of y^3 has order 3, so the filtration needs 4 steps
        assert descent._order_histogram(I, [y**3, x], P) == {1: 1, 3: 1}
        monkeypatch.setattr(descent, "SATURATION_CAP", 1)
        with pytest.raises(SaturationLimitError) as info:
            descent._order_histogram(I, [y**3, x], P)
        assert str(info.value) == (
            "saturation did not stabilize within 1 quotient steps")
        assert info.value.cap == 1


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
        I = A_ideal(("x", "y"), lambda x, y: [])
        # free ring: graded row 0 is zero but [G]_n never vanishes above;
        # use the mixed-dimension table whose row 0 is fine, then fake by
        # asking against a table whose row 0 lacks finite support evidence
        table = local_coh_table(
            corpus.graded("free-2"), i_max=0,
            cfg=StabilizationConfig(n_lo=-2, n_hi=1, t_max=6, margin=2))
        rep = local_h0_report(I)
        v = length_comparison_check(table, rep)
        assert v.status in {"satisfied", "inconclusive"}


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
