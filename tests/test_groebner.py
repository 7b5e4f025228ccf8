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
    Polynomial,
    buchberger,
    initial_forms_ideal,
    intersect,
    normal_form,
    s_polynomial,
    saturate_by_variable,
    standard_monomials,
)
from formring import groebner
from oracles import ideal_quotient, saturate

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


    def test_basis_keeps_its_leads(self, monkeypatch):
        # a Groebner basis reduces by (lead, element) pairs built once
        R = ring("x", "y", "z")
        x, y, z = R.gens()
        gb = Ideal(R, [x**2 - y * z, x * y - z**2]).groebner_basis()
        f = x**3 * y + 2 * x * y * z**2 + z**4
        calls = []
        real = Polynomial.leading_monomial

        def counting(self, order=None):
            calls.append(self)
            return real(self, order)

        monkeypatch.setattr(Polynomial, "leading_monomial", counting)
        got = gb.normal_form(f)
        assert calls == []
        assert got == normal_form(f, gb.elements, gb.order)


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

    def test_saturation_by_variable(self):
        R = ring("x", "y")
        x, y = R.gens()
        I = Ideal(R, [x**3 * y, x * y**3])
        assert [str(g) for g in saturate_by_variable(I, 0).generators] == [
            "y"]
        # x(x - 1) : x^inf is x - 1, a generator with a constant term
        assert [str(g) for g in saturate_by_variable(
            Ideal(R, [x * (x - 1)]), 0).generators] == ["x - 1"]

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

    def test_homogeneous_ideal_is_fixed(self, monkeypatch):
        R = ring("x", "y", "z")
        x, y, z = R.gens()
        I = Ideal(R, [x * z - y**2, x**2 * y - z**3])
        real = groebner.buchberger

        def no_elimination(generators, order=None):
            assert order != ELIM_LAST, "an elimination ran"
            return real(generators, order)

        # a homogeneous ideal is its own cone: no elimination runs
        monkeypatch.setattr(groebner, "buchberger", no_elimination)
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


def test_cone_is_kept_on_the_ideal(monkeypatch):
    R = ring("x", "y", "z")
    x, y, z = R.gens()
    I = Ideal(R, [x**2, x * y, x * z - y**3, y**4, x * z**2])
    cone = initial_forms_ideal(I)
    calls = []
    real = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger",
                        lambda *a: calls.append(a) or real(*a))
    assert initial_forms_ideal(I) is cone
    # the cone's generators are its reduced basis, already known
    assert cone.groebner_basis().elements == list(cone.generators)
    assert calls == []


@st.composite
def homogeneous_ideals(draw):
    """A few homogeneous generators of positive degree over GF(p)."""
    p = draw(st.sampled_from([2, 3, 32003]))
    nv = draw(st.integers(1, 4))
    R = PolyRing(tuple("xyzw"[:nv]), p)
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        degree = draw(st.integers(1, 3))
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            exps = [0] * nv
            for _ in range(degree):
                exps[draw(st.integers(0, nv - 1))] += 1
            terms[tuple(exps)] = draw(st.integers(1, p - 1))
        gens.append(R.from_terms(terms))
    return R, gens


@settings(max_examples=60, deadline=None)
@given(homogeneous_ideals())
def test_homogeneous_cone_matches_elimination_route(case):
    # a homogeneous ideal is its own cone; both routes give its reduced
    # DEGREVLEX basis, term for term and in the same order
    R, gens = case
    cone = initial_forms_ideal(Ideal(R, gens))
    eliminated = groebner._cone_by_elimination(Ideal(R, gens))
    assert _terms(cone.generators) == _terms(eliminated)
    assert [str(g) for g in cone.generators] == [str(g) for g in eliminated]


@st.composite
def nonhomogeneous_ideals(draw):
    """Generators without constant term over GF(p); the first has terms of
    two different degrees."""
    p = draw(st.sampled_from([2, 3, 32003]))
    nv = draw(st.integers(2, 3))
    R = PolyRing(tuple("xyz"[:nv]), p)
    monomial = st.tuples(*[st.integers(0, 3)] * nv).filter(any)
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
def test_lazard_forms_need_no_pair_loop(case):
    # the initial forms of the elim_last basis are already a DEGREVLEX
    # basis of the cone: a Buchberger run on them gives what reducing them
    # gives
    R, gens = case
    ext = R.extended()
    gb = buchberger([groebner._homogenize(g, ext) for g in gens], ELIM_LAST)
    forms = [groebner._dehomogenize(g, R).initial_form() for g in gb]
    assert _terms(buchberger(forms, DEGREVLEX)) == _terms(
        groebner._reduce_basis([f.monic(DEGREVLEX) for f in forms],
                               DEGREVLEX))


def test_cone_of_a_homogeneous_saturation_runs_no_buchberger(monkeypatch):
    R = ring("x", "y", "z")
    x, y, z = R.gens()
    I = Ideal(R, [x**2, x * y, x * z - y**3, y**4, x * z**2])
    torsion = saturate_by_variable(I, 2)
    assert [str(g) for g in torsion.generators] == ["x", "y^3"]

    def forbidden(*args):
        raise AssertionError("buchberger ran")

    monkeypatch.setattr(groebner, "buchberger", forbidden)
    assert initial_forms_ideal(torsion).generators == torsion.generators


# --- independent Groebner routes --------------------------------------------

@st.composite
def small_ideals(draw, max_vars=3):
    """A ring over GF(p) with a few sparse generators of low degree."""
    p = draw(st.sampled_from([2, 5, 32003]))
    nv = draw(st.integers(2, max_vars))
    R = PolyRing(tuple("xyzw"[:nv]), p)
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
@given(small_ideals(max_vars=4), st.sampled_from([DEGREVLEX, LEX, ELIM_LAST]))
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
    order, sympy_order = orders
    assert sorted(_terms(buchberger(gens, order))) == _sympy_basis(
        gens, sympy_order)


def _sympy_basis(gens, sympy_order):
    """sympy's reduced basis, as sorted term lists with coefficients mod p."""
    sympy = pytest.importorskip("sympy")
    R = gens[0].ring
    p = R.characteristic
    syms = sympy.symbols(R.variables)

    def to_sympy(f):
        return sum((c * sympy.prod([s**e for s, e in zip(syms, exps)])
                    for exps, c in f.terms.items()), sympy.Integer(0))

    theirs = sympy.groebner([to_sympy(g) for g in gens], *syms,
                            order=sympy_order, modulus=p)
    return sorted(sorted((m, int(c) % p) for m, c in poly.terms())
                  for poly in theirs.polys)


def test_lex_example_within_an_spoly_budget(monkeypatch):
    # choosing the pair of smallest lcm degree formed 562 S-polynomials
    # here; choosing by sugar forms 83
    R = ring("x", "y", "z", order=LEX)
    x, y, z = R.gens()
    gens = [2485 * x**2 * y * z**2 + 747 * x * y**2 + 106 * z,
            2302 * y**2 * z**2 + 3456 * x * y**2 + 455 * x**2,
            -11259 * x**2 * y**2 + 3777 * x * y**2 * z + 647 * y]
    formed = []
    real = groebner.s_polynomial

    def budgeted(*args):
        formed.append(args)
        if len(formed) > 150:
            raise AssertionError("over the S-polynomial budget")
        return real(*args)

    monkeypatch.setattr(groebner, "s_polynomial", budgeted)
    basis = buchberger(gens, LEX)
    monkeypatch.undo()
    assert sorted(_terms(basis)) == _sympy_basis(gens, "lex")


@settings(max_examples=40, deadline=None)
@given(small_ideals(), st.integers(0, 2))
def test_saturate_by_variable_matches_quotient_chain(gens, j):
    R = gens[0].ring
    j = j % R.nvars
    I = Ideal(R, gens)
    chain, _ = saturate(I, Ideal(R, [R.variable(j)]))
    assert saturate_by_variable(I, j).equals(chain)


@settings(max_examples=40, deadline=None)
@given(small_ideals(), st.integers(0, 2))
def test_elimination_results_keep_their_reduced_basis(gens, j):
    R = gens[0].ring
    j = j % R.nvars
    I = Ideal(R, gens)
    for J in (saturate_by_variable(I, j),
              intersect(I, Ideal(R, [R.variable(j)]))):
        assert _terms(J._gb_cache[DEGREVLEX].elements) == _terms(
            buchberger(J.generators, DEGREVLEX))


# --- the kernel builds its results without validation ----------------------

def assert_meets_invariant(f):
    """Exponent tuples of length nvars, coefficients in [1, p), and terms the
    validating constructor keeps unchanged."""
    ring = f.ring
    assert all(len(e) == ring.nvars and min(e) >= 0 for e in f.terms)
    assert all(1 <= c < ring.characteristic for c in f.terms.values())
    assert Polynomial(ring, f.terms).terms == f.terms


@settings(max_examples=60, deadline=None)
@given(small_ideals(max_vars=4), st.sampled_from([DEGREVLEX, LEX, ELIM_LAST]))
def test_kernel_results_match_max_scan_and_arithmetic(gens, order):
    gens = [g for g in gens if not g.is_zero()]
    assume(gens)
    R = gens[0].ring
    products = [x * g for x in R.gens() for g in gens]
    for f in gens:
        for g in gens:
            s = s_polynomial(f, g, order)
            assert_meets_invariant(s)
            assert s == oracles.arith_s_polynomial(f, g, order)
    # any basis, Groebner or not: the heap and the scan reduce alike
    for f in products:
        r = normal_form(f, gens, order)
        assert_meets_invariant(r)
        assert r.terms == oracles.max_scan_normal_form(f, gens, order).terms
    gb = buchberger(gens, order)
    for g in gb:
        assert_meets_invariant(g)
    for f in products:
        assert normal_form(f, gb, order).is_zero()


@settings(max_examples=60, deadline=None)
@given(small_ideals(max_vars=4), st.sampled_from([DEGREVLEX, LEX, ELIM_LAST]),
       st.randoms(use_true_random=False))
def test_reduce_basis_in_one_pass(gens, order, rng):
    gb = buchberger(gens, order)
    assume(gb)
    R = gb[0].ring
    leads = [g.leading_monomial(order) for g in gb]
    # the same leads with tails in the lead ideal, plus redundant multiples:
    # still a Groebner basis, neither minimal nor reduced
    untidy = []
    for g, lg in zip(gb, leads):
        for h, lh in zip(gb, leads):
            for x in [R.one(), *R.gens()]:
                m = x * h
                if order.greater(lg, m.leading_monomial(order)):
                    g = g + m * rng.randrange(1, R.characteristic)
        untidy.append(g * rng.randrange(1, R.characteristic))
    untidy += [x * g for x in R.gens() for g in gb]
    rng.shuffle(untidy)
    reduced = groebner._reduce_basis(untidy, order)
    assert [g.terms for g in reduced] == [g.terms for g in gb]
    for g in reduced:
        lead = g.leading_monomial(order)
        assert g.terms[lead] == 1
        assert not any(groebner._monomial_divides(lm, e)
                       for e in g.terms if e != lead
                       for lm in leads)
