"""Graded quotient rings and degreewise linear maps."""

import numpy as np
import pytest

from formring import (
    GradedQuotientRing,
    Ideal,
    NotHomogeneousError,
    PolyRing,
    ZeroRingError,
)

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


class TestMultiplication:
    def test_family_r3_x_kills_degree_one(self):
        # relations x^2, xy, xz make multiplication by x vanish on degree 1
        G = quotient(("x", "y", "z"),
                     lambda x, y, z: [x**2, x * y, x * z, y**4, y**3 * z])
        R = G.ideal.ring
        x = R.variable("x")
        m = G.mult_matrix(x, 1)
        assert m.source_dim == 3
        assert not m.matrix.any()
        assert m.rank() == 0

    def test_mult_map_composes(self):
        G = quotient(("x", "y"), lambda x, y: [x**3])
        R = G.ideal.ring
        x, y = R.gens()
        by_x = G.mult_matrix(x, 1)
        by_xy = G.mult_matrix(x * y, 1)
        by_y_after = G.mult_matrix(y, 2)
        composed = by_y_after.compose(by_x)
        assert np.array_equal(composed.matrix, by_xy.matrix)

    def test_isomorphism_flags(self):
        G = quotient(("x",), lambda x: [x**4])
        R = G.ideal.ring
        x, = R.gens()
        m = G.mult_matrix(x, 2)  # [G]_2 -> [G]_3, both dim 1
        assert m.is_isomorphism()
        top = G.mult_matrix(x, 3)  # [G]_3 -> [G]_4 = 0
        assert top.target_dim == 0
        assert top.is_surjective()
        assert not top.is_injective()


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

    def test_max_generator_degree(self):
        G = quotient(("x", "y"), lambda x, y: [x**2, y**3])
        assert G.max_generator_degree() == 3
