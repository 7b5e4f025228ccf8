"""Sparse polynomial arithmetic over prime fields and term orders."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from formring import (
    AmbientMismatchError,
    DEGREVLEX,
    ELIM_LAST,
    LEX,
    MAX_CHARACTERISTIC,
    PolyRing,
    Polynomial,
    TermOrder,
    poly,
)


def ring2(p=32003):
    return PolyRing(("x", "y"), p)


class TestRingConstruction:
    def test_rejects_composite_characteristic(self):
        with pytest.raises(ValueError):
            PolyRing(("x",), 6)

    def test_rejects_characteristic_at_cap(self):
        with pytest.raises(ValueError):
            PolyRing(("x",), MAX_CHARACTERISTIC + 7)

    def test_characteristic_bound_before_primality(self):
        # 2**61 - 1 is prime: trial division on it would run for minutes
        with pytest.raises(ValueError, match=r"2\*\*30"):
            poly.check_characteristic(2**61 - 1)
        with pytest.raises(ValueError, match="not prime"):
            poly.check_characteristic(6)
        assert poly.check_characteristic(32003) == 32003

    def test_accepts_large_prime_below_cap(self):
        p = (1 << 30) - 35
        R = PolyRing(("x",), p)
        x = R.variable("x")
        assert ((p - 1) * x + x).is_zero()  # (p-1)x + x = px = 0
        assert (p - 1) * x + 2 * x == x

    def test_duplicate_variables_rejected(self):
        with pytest.raises(ValueError):
            PolyRing(("x", "x"), 5)

    def test_ambient_mismatch(self):
        a = ring2().variable("x")
        b = PolyRing(("x", "y"), 7).variable("x")
        with pytest.raises(AmbientMismatchError):
            _ = a + b


class TestArithmetic:
    def test_frobenius_mod_2(self):
        R = PolyRing(("x", "y"), 2)
        x, y = R.gens()
        assert (x + y) ** 2 == x**2 + y**2

    def test_zero_coefficients_dropped(self):
        R = ring2(5)
        x, _ = R.gens()
        f = 3 * x + 2 * x
        assert f.is_zero()
        assert dict(f) == {}

    def test_pow_and_repeated_mul_agree(self):
        R = ring2()
        x, y = R.gens()
        f = x + 2 * y + 1
        g = R.one()
        for _ in range(5):
            g = g * f
        assert g == f**5

    def test_subtraction_and_int_coercion(self):
        R = ring2(7)
        x, y = R.gens()
        assert (x - x).is_zero()
        assert 1 - x == R.one() - x
        assert (x * y - y * x).is_zero()


class TestDegreesAndForms:
    def test_initial_form_is_lowest_component(self):
        R = ring2()
        x, y = R.gens()
        f = y - x**2
        assert f.initial_form() == y
        assert f.min_degree() == 1
        assert f.degree() == 2

    def test_initial_form_of_homogeneous_is_itself(self):
        R = ring2()
        x, y = R.gens()
        f = x * y + y**2
        assert f.initial_form() == f
        assert f.is_homogeneous()

    def test_zero_polynomial_degrees(self):
        R = ring2()
        z = R.zero()
        assert z.degree() is None
        assert z.min_degree() is None


class TestTermOrders:
    def test_degrevlex_example(self):
        # x^2*y > x*y^2 (same degree; revlex on last-variable exponent)
        assert DEGREVLEX.greater((2, 1), (1, 2))
        # degree dominates
        assert DEGREVLEX.greater((0, 3), (2, 0))

    def test_lex_example(self):
        assert LEX.greater((1, 0), (0, 5))

    def test_elim_last_prioritizes_final_variable(self):
        # triples (a, b, h): h dominates, then degrevlex on the rest
        assert ELIM_LAST.greater((0, 0, 2), (5, 5, 1))
        assert ELIM_LAST.greater((2, 1, 1), (1, 2, 1))

    def test_leading_monomial_by_order(self):
        R = ring2()
        x, y = R.gens()
        f = x + y**3
        assert f.leading_monomial(DEGREVLEX) == (0, 3)
        assert f.leading_monomial(LEX) == (1, 0)

    def test_monic(self):
        R = ring2(7)
        x, _ = R.gens()
        f = 3 * x**2 + 6 * x
        m = f.monic()
        assert m.leading_coefficient() == 1
        assert m == x**2 + 2 * x

    def test_str_rendering(self):
        R = ring2()
        x, y = R.gens()
        assert str(x**2 * y - y) in {"x^2*y - y", "-y + x^2*y"}
        assert str(R.zero()) == "0"
        assert str(R.constant(5)) == "5"


# --- hypothesis: ring axioms -------------------------------------------------

PRIMES = [2, 3, 5, 101, 32003]


@st.composite
def polynomials(draw, ring):
    nterms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(nterms):
        exps = tuple(draw(st.integers(0, 3)) for _ in range(ring.nvars))
        coeff = draw(st.integers(0, ring.characteristic - 1))
        terms[exps] = coeff
    return ring.from_terms(terms)


@st.composite
def ring_and_polys(draw, count):
    p = draw(st.sampled_from(PRIMES))
    nv = draw(st.integers(1, 3))
    ring = PolyRing(tuple("xyz"[:nv]), p)
    return ring, [draw(polynomials(ring)) for _ in range(count)]


@settings(max_examples=120, deadline=None)
@given(ring_and_polys(3))
def test_ring_axioms(data):
    _, (f, g, h) = data
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=80, deadline=None)
@given(ring_and_polys(2))
def test_degree_laws(data):
    ring, (f, g) = data
    prod = f * g
    if not f.is_zero() and not g.is_zero() and not prod.is_zero():
        assert prod.degree() <= f.degree() + g.degree()
        assert prod.min_degree() >= f.min_degree() + g.min_degree()
    assert sum(ring.from_terms({m: c for m, c in [t]})
               for t in f) + ring.zero() == f


@settings(max_examples=80, deadline=None)
@given(ring_and_polys(1), st.sampled_from([DEGREVLEX, LEX]))
def test_term_order_total_on_support(data, order):
    _, (f,) = data
    monos = [m for m, _ in f]
    for a in monos:
        for b in monos:
            if a != b:
                assert order.greater(a, b) != order.greater(b, a)
            else:
                assert not order.greater(a, b)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 32003]).flatmap(
    lambda p: polynomials(PolyRing(("x", "y", "z"), p))))
def test_str_matches_term_loop(f):
    assert str(f) == oracles.term_loop_str(f)


# --- hypothesis: results built without validation ---------------------------

def _validated(ring, pairs):
    """Sum of (exponents, coefficient) pairs through the validating
    constructor."""
    out = {}
    for exps, c in pairs:
        out[exps] = out.get(exps, 0) + c
    return Polynomial(ring, out)


@st.composite
def ring_and_polys4(draw):
    p = draw(st.sampled_from(PRIMES))
    nv = draw(st.integers(1, 4))
    ring = PolyRing(tuple("xyzw"[:nv]), p)
    return ring, draw(polynomials(ring)), draw(polynomials(ring))


@settings(max_examples=150, deadline=None)
@given(ring_and_polys4(), st.integers(-10**6, 10**6), st.integers(-3, 3),
       st.sampled_from([DEGREVLEX, LEX, ELIM_LAST]))
def test_arithmetic_results_meet_the_invariant(data, k, m, order):
    ring, f, g = data
    p = ring.characteristic
    neg_g = [(e, -c) for e, c in g]
    expected = [
        (f + g, [*f, *g]),
        (f - g, [*f, *neg_g]),
        (-g, neg_g),
        (f * g, [(tuple(a + b for a, b in zip(ea, eb)), ca * cb)
                 for ea, ca in f for eb, cb in g]),
    ]
    for c in (k, m * p):  # m * p is 0 mod p
        scaled = [(e, a * c) for e, a in f]
        expected += [(f * c, scaled), (c * f, scaled),
                     (f + c, [*f, ((0,) * ring.nvars, c)]),
                     (c - f, [((0,) * ring.nvars, c), *((e, -a) for e, a in f)])]
    if not f.is_zero():
        inv = pow(f.leading_coefficient(order), -1, p)
        expected.append((f.monic(order), [(e, a * inv) for e, a in f]))
    for result, pairs in expected:
        assert all(len(e) == ring.nvars and min(e, default=0) >= 0
                   for e in result.terms)
        assert all(1 <= c < p for c in result.terms.values())
        assert result.terms == Polynomial(ring, result.terms).terms
        assert result.terms == _validated(ring, pairs).terms


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=1,
                max_size=12, unique=True),
       st.sampled_from([DEGREVLEX, LEX, ELIM_LAST]))
def test_heap_key_reverses_the_order(monos, order):
    by_heap = sorted(monos, key=order.heap_key)
    assert by_heap == sorted(monos, key=order.key, reverse=True)
