"""Buchberger engine, ideal operations, and initial-forms computation."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from formring import (
    DEGREVLEX,
    ELIM_LAST,
    LEX,
    GroebnerBasis,
    Ideal,
    NotInIrrelevantError,
    PolyRing,
    buchberger,
    ideal_quotient,
    initial_forms_ideal,
    intersect,
    normal_form,
    s_polynomial,
    saturate,
    standard_monomials,
)

P = 32003


def ring(*names, p=P, order=DEGREVLEX):
    return PolyRing(names, p, order)


class TestBuchberger:
    def test_monomial_ideal_is_its_own_basis(self):
        R = ring("x", "y", "z")
        x, y, z = R.gens()
        gens = [x**2, x * y, x * z, y**4, y**3 * z]
        gb = buchberger(gens, DEGREVLEX)
        assert {str(g) for g in gb} == {str(g) for g in gens}

    def test_zero_generators_dropped(self):
        R = ring("x", "y")
        x, _ = R.gens()
        gb = buchberger([R.zero(), x, R.zero()], DEGREVLEX)
        assert [str(g) for g in gb] == ["x"]

    def test_empty_ideal(self):
        R = ring("x")
        assert buchberger([], DEGREVLEX) == []

    def test_twisted_cubic_lex_normal_forms(self):
        # variables ordered so lex eliminates z, then y, leaving x
        R = ring("z", "y", "x", order=LEX)
        z, y, x = R.gens()
        I = Ideal(R, [y - x**2, z - x**3])
        for a in range(3):
            for b in range(3):
                nf = I.normal_form(y**a * z**b)
                assert nf == x ** (2 * a + 3 * b)

    def test_s_polynomial_cancels_leads(self):
        R = ring("x", "y")
        x, y = R.gens()
        f = x**2 + y
        g = x * y + x
        s = s_polynomial(f, g, DEGREVLEX)
        # leads x^2, xy have lcm x^2 y; both lead terms cancel
        assert s.degree() < 3 or s.leading_monomial(DEGREVLEX) != (2, 1)

    def test_normal_form_of_generator_is_zero(self):
        R = ring("x", "y", "z")
        x, y, z = R.gens()
        I = Ideal(R, [x**2, x * y, x * z - y**3, y**4, x * z**2])
        assert I.normal_form(y**4).is_zero()

    def test_normal_form_is_linear(self):
        R = ring("x", "y")
        x, y = R.gens()
        I = Ideal(R, [x**2 - y])
        f, g = x**3 + y, x * y + 1
        assert I.normal_form(f + g) == I.normal_form(f) + I.normal_form(g)

    def test_reduced_basis_unique_under_generator_shuffle(self):
        R = ring("x", "y", "z")
        x, y, z = R.gens()
        gens = [x * z - y**2, x**2 - y, y * z - x]
        base = [str(g) for g in buchberger(gens, DEGREVLEX)]
        for perm in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
            other = [str(g) for g in buchberger([gens[i] for i in perm],
                                                DEGREVLEX)]
            assert other == base

    def test_membership_via_normal_form(self):
        R = ring("x", "y")
        x, y = R.gens()
        I = Ideal(R, [x**2 + y**2, x * y])
        # (x^2 + y^2)*x - x*y*y = x^3
        assert I.normal_form(x**3).is_zero()
        assert not I.normal_form(x).is_zero()


class TestIdealOperations:
    def test_quotient_principal(self):
        R = ring("x", "y")
        x, y = R.gens()
        q = ideal_quotient(Ideal(R, [x**2]), Ideal(R, [x]))
        assert [str(g) for g in q.groebner_basis().elements] == ["x"]

    def test_quotient_by_irrelevant(self):
        R = ring("x", "y")
        x, y = R.gens()
        q = ideal_quotient(Ideal(R, [x**2, x * y]), Ideal(R, [x, y]))
        assert [str(g) for g in q.groebner_basis().elements] == ["x"]

    def test_intersection(self):
        R = ring("x", "y")
        x, y = R.gens()
        both = intersect(Ideal(R, [x]), Ideal(R, [y]))
        assert [str(g) for g in both.groebner_basis().elements] == ["x*y"]

    def test_saturation_with_exponent(self):
        R = ring("x", "y")
        x, y = R.gens()
        sat, s = saturate(Ideal(R, [x**2, x * y]), Ideal(R, [x, y]))
        assert [str(g) for g in sat.groebner_basis().elements] == ["x"]
        assert s == 1

    def test_saturation_exponent_two(self):
        R = ring("x", "y")
        x, y = R.gens()
        sat, s = saturate(Ideal(R, [x**3, x**2 * y**2]), Ideal(R, [x, y]))
        # x^2*y^2 and x^3 both kill x^2 against M^2, but x itself never
        # multiplies into the ideal (x*y^k has x-degree 1)
        assert [str(g) for g in sat.groebner_basis().elements] == ["x^2"]
        assert s == 2

    def test_saturation_chain_containment(self):
        R = ring("x", "y")
        x, y = R.gens()
        I = Ideal(R, [x**3 * y, x * y**3])
        M = Ideal(R, [x, y])
        prev = I
        for _ in range(4):
            nxt = ideal_quotient(prev, M)
            # chain is ascending: every element of prev stays inside nxt
            for g in prev.groebner_basis().elements:
                assert nxt.normal_form(g).is_zero()
            prev = nxt


class TestHilbert:
    def test_two_planes_hilbert(self):
        R = ring("x", "y", "z")
        x, y, z = R.gens()
        I = Ideal(R, [x * z, y * z])
        assert len(standard_monomials(I, 0)) == 1
        for n in range(1, 6):
            assert len(standard_monomials(I, n)) == n + 2

    def test_standard_monomials_match_count(self):
        R = ring("x", "y")
        x, y = R.gens()
        I = Ideal(R, [x**2, x * y, y**3])
        dims = [len(standard_monomials(I, n)) for n in range(4)]
        assert dims == [1, 2, 1, 0]


class TestInitialForms:
    def test_family_r3(self):
        R = ring("x", "y", "z")
        x, y, z = R.gens()
        I = Ideal(R, [x**2, x * y, x * z - y**3, y**4, x * z**2])
        cone = initial_forms_ideal(I)
        assert sorted(str(g) for g in cone.groebner_basis().elements) == \
            sorted(["x^2", "x*y", "x*z", "y^4", "y^3*z"])

    @pytest.mark.parametrize("r", [4, 5])
    def test_family_general_r(self, r):
        R = ring("x", "y", "z")
        x, y, z = R.gens()
        I = Ideal(R, [x**2, x * y, x * z - y**r, y ** (r + 1), x * z**2])
        cone = initial_forms_ideal(I)
        assert sorted(str(g) for g in cone.groebner_basis().elements) == \
            sorted(["x^2", "x*y", "x*z", f"y^{r + 1}", f"y^{r}*z"])

    def test_parabola(self):
        R = ring("x", "y")
        x, y = R.gens()
        cone = initial_forms_ideal(Ideal(R, [y - x**2]))
        assert [str(g) for g in cone.groebner_basis().elements] == ["y"]

    def test_homogeneous_ideal_is_fixed(self):
        R = ring("x", "y", "z")
        x, y, z = R.gens()
        I = Ideal(R, [x * z - y**2, x**2 * y - z**3])
        cone = initial_forms_ideal(I)
        assert sorted(str(g) for g in cone.groebner_basis().elements) == \
            sorted(str(g) for g in I.groebner_basis().elements)

    def test_node_curve(self):
        # y^2 - x^2 - x^3: lowest form y^2 - x^2 (the two branch directions)
        R = ring("x", "y")
        x, y = R.gens()
        cone = initial_forms_ideal(Ideal(R, [y**2 - x**2 - x**3]))
        assert [str(g) for g in cone.groebner_basis().elements] == \
            ["x^2 - y^2"]

    def test_requires_irrelevant_ideal(self):
        R = ring("x")
        x, = R.gens()
        with pytest.raises(NotInIrrelevantError):
            initial_forms_ideal(Ideal(R, [x + 1]))

    def test_cone_dims_match_filtration_oracle(self):
        import oracles

        R = ring("x", "y", "z")
        x, y, z = R.gens()
        I = Ideal(R, [x**2, x * y, x * z - y**3, y**4, x * z**2])
        cone = initial_forms_ideal(I)
        got = [len(standard_monomials(cone, n)) for n in range(8)]
        assert got == oracles.cone_dims_oracle(I, 7)


# --- independent Groebner routes --------------------------------------------

@st.composite
def small_ideals(draw):
    """A ring over GF(p) with a few sparse generators of low degree."""
    p = draw(st.sampled_from([2, 5, 32003]))
    nv = draw(st.integers(2, 3))
    R = PolyRing(tuple("xyz"[:nv]), p)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            exps = tuple(draw(st.integers(0, 2)) for _ in range(nv))
            terms[exps] = draw(st.integers(1, p - 1))
        gens.append(R.from_terms(terms))
    return gens


def _terms(basis):
    return [sorted(g.terms.items()) for g in basis]


@settings(max_examples=60, deadline=None)
@given(small_ideals(), st.sampled_from([DEGREVLEX, LEX, ELIM_LAST]))
def test_buchberger_matches_naive_pair_loop(gens, order):
    # the naive loop exceeds this budget on about one ideal in a hundred;
    # the sympy comparison below has no budget
    expected = oracles.naive_buchberger(gens, order, max_spolys=100)
    assume(expected is not None)
    assert _terms(buchberger(gens, order)) == _terms(expected)


@settings(max_examples=40, deadline=None)
@given(small_ideals(), st.sampled_from([(DEGREVLEX, "grevlex"),
                                        (LEX, "lex")]))
def test_buchberger_matches_sympy(gens, orders):
    sympy = pytest.importorskip("sympy")
    order, sympy_order = orders
    R = gens[0].ring
    p = R.characteristic
    syms = sympy.symbols(R.variables)

    def to_sympy(f):
        return sum((c * sympy.prod([s**e for s, e in zip(syms, exps)])
                    for exps, c in f.terms.items()), sympy.Integer(0))

    theirs = sympy.groebner([to_sympy(g) for g in gens], *syms,
                            order=sympy_order, modulus=p)
    expected = sorted(sorted((m, int(c) % p) for m, c in poly.terms())
                      for poly in theirs.polys)
    assert sorted(_terms(buchberger(gens, order))) == expected
