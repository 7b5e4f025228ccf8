"""Graded quotient rings and degreewise linear maps."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from formring import (
    DEGREVLEX,
    LEX,
    GradedQuotientRing,
    GroebnerBasis,
    Ideal,
    NotHomogeneousError,
    PolyRing,
    StabilizationConfig,
    ZeroRingError,
    initial_forms_ideal,
    local_coh_table,
    monomials_of_degree,
    normal_form,
)
from formring import groebner, koszul, linalg

P = 32003


def quotient(names, gen_builder):
    R = PolyRing(names, P)
    gens = gen_builder(*R.gens())
    return GradedQuotientRing(Ideal(R, gens))


class TestConstruction:
    def test_rejects_nonhomogeneous_ideal(self):
        R = PolyRing(("x", "y"), P)
        x, y = R.gens()
        with pytest.raises(NotHomogeneousError):
            GradedQuotientRing(Ideal(R, [y - x**2]))

    def test_zero_ring(self):
        R = PolyRing(("x",), P)
        G = GradedQuotientRing(Ideal(R, [R.one()]))
        assert G.is_zero_ring()
        assert G.dim(0) == 0
        with pytest.raises(ZeroRingError):
            G.krull_dimension()

    @pytest.mark.parametrize("order", [DEGREVLEX, LEX])
    def test_zero_ring_is_read_off_the_reduced_basis(self, order):
        # the ring decides it once from its DEGREVLEX basis; the ideal asks
        # its basis in the ring's own order
        R = PolyRing(("x", "y"), P, order)
        x, y = R.gens()
        for gens in ([x * y, x**2 - y**2, x**3], [x, y, R.one()],
                     [x**2 + x * y, y**2], [x + y, x - y]):
            G = GradedQuotientRing(Ideal(R, gens))
            assert G.is_zero_ring() == Ideal(R, gens).is_whole_ring()
        assert not GradedQuotientRing(Ideal(R, [x * y])).is_zero_ring()
        assert GradedQuotientRing(Ideal(R, [R.one()])).is_zero_ring()

    def test_graded_basis_and_dims(self):
        G = quotient(("x", "y"), lambda x, y: [x**2, x * y])
        assert [str(G.ideal.ring.monomial(m)) for m in G.graded_basis(1)] == \
            ["x", "y"]
        assert [G.dim(n) for n in range(5)] == [1, 2, 1, 1, 1]
        assert G.dim(-1) == 0

    def test_dim_matches_hilbert_function(self):
        G = quotient(("x", "y", "z"), lambda x, y, z: [x * z, y * z])
        # dim [S/(xz, yz)]_n = n + 2 for n >= 1
        assert [G.dim(n) for n in range(6)] == [1, 3, 4, 5, 6, 7]


class TestCoordinates:
    def test_roundtrip(self):
        G = quotient(("x", "y"), lambda x, y: [x**2])
        R = G.ideal.ring
        x, y = R.gens()
        f = 3 * x * y + 5 * y**2
        vec = G.coordinates(f, 2)
        back = G.element_from_coordinates(vec, 2)
        assert G.ideal.normal_form(back - f).is_zero()

    def test_class_reduction(self):
        # x^2 is in the ideal: its class is zero
        G = quotient(("x", "y"), lambda x, y: [x**2])
        R = G.ideal.ring
        x, _ = R.gens()
        assert not G.coordinates(x**2, 2).any()

    def test_wrong_degree_rejected(self):
        G = quotient(("x", "y"), lambda x, y: [x**2])
        R = G.ideal.ring
        x, _ = R.gens()
        with pytest.raises(NotHomogeneousError):
            G.coordinates(x, 2)

    def test_zero_class_term_of_wrong_degree_rejected(self):
        # x^3 lies in (x^2), so its class is zero, but it is not in degree 2
        G = quotient(("x", "y"), lambda x, y: [x**2])
        x, y = G.ideal.ring.gens()
        with pytest.raises(NotHomogeneousError):
            G.coordinates(x**3 + y**2, 2)


class TestMultiplication:
    def test_family_r3_x_kills_degree_one(self):
        # relations x^2, xy, xz make multiplication by x vanish on degree 1
        G = quotient(("x", "y", "z"),
                     lambda x, y, z: [x**2, x * y, x * z, y**4, y**3 * z])
        R = G.ideal.ring
        x = R.variable("x")
        m = G.mult_matrix(x, 1)
        assert m.shape[1] == 3
        assert not m.any()

    def test_mult_map_composes(self):
        G = quotient(("x", "y"), lambda x, y: [x**3])
        R = G.ideal.ring
        x, y = R.gens()
        by_x = G.mult_matrix(x, 1)
        by_xy = G.mult_matrix(x * y, 1)
        by_y_after = G.mult_matrix(y, 2)
        composed = linalg.matmul(by_y_after, by_x, G.p)
        assert np.array_equal(composed, by_xy)

    def test_isomorphism_flags(self):
        G = quotient(("x",), lambda x: [x**4])
        R = G.ideal.ring
        x, = R.gens()
        m = G.mult_matrix(x, 2)  # [G]_2 -> [G]_3, both dim 1
        assert m.shape == (1, 1) and linalg.rank(m, G.p) == 1
        top = G.mult_matrix(x, 3)  # [G]_3 -> [G]_4 = 0
        assert top.shape == (0, 1)
        assert linalg.rank(top, G.p) < top.shape[1]


class TestInvariants:
    def test_krull_dimensions(self):
        cases = [
            ((("x", "y"), lambda x, y: [x**2, x * y]), 1),
            ((("x", "y"), lambda x, y: [x**2, x * y, y**3]), 0),
            ((("x", "y", "z"), lambda x, y, z: [x * y]), 2),
            ((("x", "y", "z"), lambda x, y, z: []), 3),
            # pure powers whose Hilbert function is still growing far past
            # the generator degree
            ((("x", "y", "z"), lambda x, y, z: [x**10, y**10]), 1),
            ((("x", "y", "z"), lambda x, y, z: [x**8, y**8]), 1),
        ]
        for (names, builder), want in cases:
            assert quotient(names, builder).krull_dimension() == want

    def test_top_degree_artinian(self):
        G = quotient(("x", "y"), lambda x, y: [x**2, x * y, y**3])
        assert G.top_degree() == 2

    def test_dimension_of_many_variables_reads_the_caps(self):
        # (x_i x_j : i < j) in 24 variables: d = 1 from its 25 live caps; a
        # scan of the 2^24 variable subsets would not end within the timeout
        code = ("import itertools; from formring import GradedQuotientRing,"
                " Ideal, PolyRing; R = PolyRing(tuple(f'x{j}' for j in"
                " range(24)), 32003); x = R.gens(); print(GradedQuotientRing("
                "Ideal(R, [a * b for a, b in itertools.combinations(x, 2)]))"
                ".krull_dimension())")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=30)
        assert (proc.returncode, proc.stdout) == (0, "1\n")

    def test_max_generator_degree(self):
        G = quotient(("x", "y"), lambda x, y: [x**2, y**3])
        assert G.max_generator_degree() == 3


def _homogeneous(draw, R, degree, max_terms):
    monos = monomials_of_degree(R, degree)
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        mono = draw(st.sampled_from(monos))
        terms[mono] = draw(st.integers(1, R.characteristic - 1))
    return R.from_terms(terms)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_dimension_and_top_degree_match_the_scans(data):
    # read off the live caps, against the subset scan and the degree loop
    draw = data.draw
    nv = draw(st.integers(2, 6))
    R = PolyRing(tuple(f"x{j}" for j in range(nv)),
                 draw(st.sampled_from([2, 3, 32003])))
    gens = [_homogeneous(draw, R, draw(st.integers(1, 3)), 2)
            for _ in range(draw(st.integers(1, nv + 1)))]
    G = GradedQuotientRing(Ideal(R, gens))
    assume(not G.is_zero_ring())
    d = oracles.subset_scan_dimension(G)
    assert G.krull_dimension() == d
    if d == 0:
        assert G.top_degree() == oracles.degree_loop_top_degree(G)


def _graded_quotient(draw):
    """GF(p)[x..] modulo random homogeneous forms, at least one of them not
    a monomial; sometimes plus every monomial of one degree, so that some
    graded pieces vanish."""
    p = draw(st.sampled_from([2, 5, 32003]))
    nv = draw(st.integers(2, 4))
    R = PolyRing(tuple("xyzw"[:nv]), p)
    top = 3 if nv < 4 else 2
    gens = [_homogeneous(draw, R, draw(st.integers(1, top)), 4)
            for _ in range(draw(st.integers(1, 3)))]
    if all(len(g.terms) < 2 for g in gens):
        quadrics = monomials_of_degree(R, 2)
        gens.append(R.from_terms({quadrics[0]: 1, quadrics[-1]: 1}))
    if draw(st.booleans()):
        k = draw(st.integers(2, 4))
        gens += [R.monomial(m) for m in monomials_of_degree(R, k)]
    return GradedQuotientRing(Ideal(R, gens))


def _nf_coordinates(G, f, n):
    nf = normal_form(f, G.gb.elements, G.gb.order)
    return np.array([nf.terms.get(m, 0) for m in G.graded_basis(n)],
                    dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_table_matches_normal_form_oracle(data):
    draw = data.draw
    G = _graded_quotient(draw)
    for _ in range(4):
        e = draw(st.integers(0, 2))
        n = draw(st.integers(-1, 5))
        f = _homogeneous(draw, G.ring, e, draw(st.sampled_from([1, 3])))
        got = G.mult_matrix(f, n)
        want = oracles.nf_mult_matrix(G, f, n)
        assert got.shape == want.shape
        assert np.array_equal(got, want), (str(f), n)
        if n >= 0:
            g = _homogeneous(draw, G.ring, n, 3)
            assert np.array_equal(G.coordinates(g, n),
                                  _nf_coordinates(G, g, n)), (str(g), n)


def test_dense_koszul_path_runs_no_normal_form(monkeypatch):
    # (x*y - z^2, x^3): its Groebner basis is not monomial, and in degrees
    # 1..4 both H^0 and H^1 of S/in(I) are nonzero, so those columns are
    # not fixed by in(I) and take the dense Koszul path
    R = PolyRing(("x", "y", "z"), P)
    x, y, z = R.gens()
    G = GradedQuotientRing(initial_forms_ideal(Ideal(R, [x * y - z**2,
                                                         x**3])))
    assert not G.monomial

    def refuse(*args):
        raise AssertionError("graded normal form went through normal_form")

    dense_calls = []
    real = koszul._dense_representatives

    def counting(spec, i, n):
        dense_calls.append((spec.t, i, n))
        return real(spec, i, n)

    monkeypatch.setattr(GroebnerBasis, "normal_form", refuse)
    monkeypatch.setattr(groebner, "normal_form", refuse)
    monkeypatch.setattr(koszul, "_dense_representatives", counting)
    table = local_coh_table(G, cfg=StabilizationConfig(-1, 3, t_max=5))
    assert {(i, n) for _, i, n in dense_calls} == {
        (i, n) for i in (0, 1) for n in (1, 2, 3)}
    assert [table.dim(1, n) for n in range(-1, 4)] == [6, 5, 3, 1, 0]
