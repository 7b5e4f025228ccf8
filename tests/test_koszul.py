"""Koszul cochain complexes, their cohomology, and comparison maps."""

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
    cochain_dim,
    comparison_rank,
    differential,
    koszul_cohomology_piece,
    linalg,
)
from formring import koszul, multigraded, transition_cochain
from formring.errors import SizeLimitError
from formring.koszul import chain_multiplication

P = 32003


def quotient(names, builder):
    R = PolyRing(names, P)
    return GradedQuotientRing(Ideal(R, builder(*R.gens())))


def free(names):
    return quotient(names, lambda *g: [])


def is_coboundary(spec, i, n, vec):
    return oracles.solve(differential(spec, i - 1, n), vec, P) is not None


def express_in_cohomology(spec, piece, vecs):
    """Coordinates of cocycle classes in the piece's representative basis,
    one solve against [d_in | representatives]."""
    return oracles.coordinates(differential(spec, piece.i - 1, piece.n),
                               piece.representatives, vecs, P)


def piece_dim(G, i, n, t):
    return koszul_cohomology_piece(KoszulComplexSpec(G, t), i, n).dim


class TestCochainSpaces:
    def test_dims_free_two_vars(self):
        spec = KoszulComplexSpec(free(("x", "y")), 1)
        # [K^p]_n = C(2,p) * dim [G]_{n+p}
        assert cochain_dim(spec, 0, 0) == 1
        assert cochain_dim(spec, 1, 0) == 2 * 2
        assert cochain_dim(spec, 2, 0) == 3
        assert cochain_dim(spec, 3, 0) == 0

    def test_dims_scale_with_power(self):
        G = free(("x", "y"))
        for t in (1, 2, 3):
            spec = KoszulComplexSpec(G, t)
            assert cochain_dim(spec, 1, 0) == 2 * (t + 1)
            assert cochain_dim(spec, 2, -1) == 2 * t

    def test_labels_in_combinations_order(self):
        spec = KoszulComplexSpec(free(("x", "y", "z")), 1)
        labels = oracles.cochain_labels(spec, 2, 0)
        subsets = [lab[0] for lab in labels]
        expected = list(itertools.combinations(range(3), 2))
        assert sorted(set(subsets), key=expected.index) == expected

    def test_differential_squares_to_zero(self):
        G = quotient(("x", "y"), lambda x, y: [x**2, x * y])
        for t in (1, 2):
            spec = KoszulComplexSpec(G, t)
            for n in range(-2, 3):
                d0 = differential(spec, 0, n)
                d1 = differential(spec, 1, n)
                if d0.size and d1.size:
                    assert not linalg.matmul(d1, d0, P).any()


class TestCohomology:
    def test_socle_piece(self):
        G = quotient(("x", "y"), lambda x, y: [x**2, x * y])
        piece = koszul_cohomology_piece(KoszulComplexSpec(G, 1), 0, 1)
        assert piece.dim == 1

    def test_free_one_var_top_row(self):
        # [H^1(x^t; k[x])]_n is k exactly when -t <= n <= -1
        G = free(("x",))
        for t in (1, 2, 3, 4):
            spec = KoszulComplexSpec(G, t)
            for n in range(-5, 2):
                want = 1 if -t <= n <= -1 else 0
                assert koszul_cohomology_piece(spec, 1, n).dim == want

    def test_index_out_of_range_rejected(self):
        spec = KoszulComplexSpec(free(("x",)), 1)
        from formring import FormringError
        with pytest.raises(FormringError):
            koszul_cohomology_piece(spec, 2, 0)

    def test_euler_characteristic_spot(self):
        G = quotient(("x", "y"), lambda x, y: [x**2, x * y, y**3])
        for t in (1, 2):
            spec = KoszulComplexSpec(G, t)
            for n in range(-4, 4):
                chain = sum((-1) ** p * cochain_dim(spec, p, n)
                            for p in range(3))
                coh = sum((-1) ** i *
                          koszul_cohomology_piece(spec, i, n).dim
                          for i in range(3))
                assert chain == coh

    def test_permutation_invariance_dims(self):
        # (x*z, y*z) with the variables permuted: same dims every time
        for seq in itertools.permutations(range(3)):
            G = quotient(("x", "y", "z"), lambda *g: [
                g[seq[0]] * g[seq[2]], g[seq[1]] * g[seq[2]]])
            spec = KoszulComplexSpec(G, 2)
            dims = [koszul_cohomology_piece(spec, i, 0).dim
                    for i in range(4)]
            assert dims == [0, 1, 0, 0], (seq, dims)

    def test_representatives_are_cocycles_not_coboundaries(self):
        G = quotient(("x", "y"), lambda x, y: [x**2, x * y])
        spec = KoszulComplexSpec(G, 1)
        piece = koszul_cohomology_piece(spec, 1, 0)
        assert piece.dim == 2
        d1 = differential(spec, 1, 0)
        for j in range(piece.dim):
            rep = piece.representatives[:, j]
            assert not linalg.matmul(d1, rep.reshape(-1, 1), P).any()
            assert not is_coboundary(spec, 1, 0, rep)

    def test_express_in_cohomology_roundtrip(self):
        G = quotient(("x", "y"), lambda x, y: [x**2, x * y])
        spec = KoszulComplexSpec(G, 1)
        piece = koszul_cohomology_piece(spec, 1, 0)
        assert piece.dim == 2
        rep = piece.representatives[:, 0]
        coords = express_in_cohomology(spec, piece, rep)
        assert coords is not None and coords.tolist() == [1, 0]
        # shifting by a coboundary leaves the class unchanged
        d0 = differential(spec, 0, 0)
        shifted = (rep + d0[:, 0]) % P
        assert express_in_cohomology(spec, piece, shifted).tolist() == [1, 0]
        # a block of columns gives the one-column answers side by side
        other = (piece.representatives[:, 1] + 2 * rep) % P
        block = express_in_cohomology(spec, piece,
                                      np.column_stack([shifted, other]))
        singles = [express_in_cohomology(spec, piece, v)
                   for v in (shifted, other)]
        assert block.tolist() == np.column_stack(singles).tolist()
        assert block.tolist() == [[1, 2], [0, 1]]
        # modulo the coboundaries the two classes keep rank 2, and a
        # coboundary column reads zero
        mod = linalg.modulo(d0, np.column_stack([shifted, other, d0[:, 0]]),
                            P)
        assert mod.shape == (2, 3)
        assert mod[:, :2].any(axis=0).all() and not mod[:, 2].any()


def settle_power(G, n):
    return multigraded.engine(G).settle_power(n)


class TestComparisonMaps:
    def test_transition_iso_when_socle_stable(self):
        # the socle class x of (x^2, x*y) is there at every power, and the
        # comparison map from power 1 keeps it
        G = quotient(("x", "y"), lambda x, y: [x**2, x * y])
        assert comparison_rank(G, 0, 1) == 1
        for power in (1, 2, 3, 4):
            assert piece_dim(G, 0, 1, power) == 1
            assert oracles.walk_comparison_rank(G, 0, 1, power) == 1

    def test_transition_matches_multiplier_on_h1_free(self):
        # k[x]: [H^1(x^t)]_{-t} = k -> [H^1(x^(t+1))]_{-t} = k is
        # multiplication by x, which is nonzero on these classes
        G = free(("x",))
        spec, nxt = KoszulComplexSpec(G, 2), KoszulComplexSpec(G, 3)
        src = koszul_cohomology_piece(spec, 1, -2)
        tgt = koszul_cohomology_piece(nxt, 1, -2)
        assert src.dim == tgt.dim == 1
        moved = linalg.matmul(transition_cochain(spec, 1, -2),
                              src.representatives, P)
        coords = express_in_cohomology(nxt, tgt, moved)
        assert linalg.rank(coords, P) == 1

    def test_transition_zero_out_of_support(self):
        # k[x]: [H^1(x)]_{-1} = k -> [H^1(x^2)]_{-1} = k is mult by x;
        # on x-torsion-free classes this stays injective.  T(-1) = 1, so
        # the map into [H^1_M]_{-1} is the identity
        G = free(("x",))
        assert settle_power(G, -1) == 1
        assert comparison_rank(G, 1, -1) == 1
        assert oracles.walk_comparison_rank(G, 1, -1, 2) == 1

    def test_f_map_power_one_is_identity(self):
        # T(1) = 1 on (x^2, x*y), so the comparison map in degree 1 is the
        # identity of [H^0(x)]_1
        G = quotient(("x", "y"), lambda x, y: [x**2, x * y])
        assert settle_power(G, 1) == 1
        assert comparison_rank(G, 0, 1) == 1
        # the comparison cochain of exponent 0 is the identity
        spec = KoszulComplexSpec(G, 1)
        assert np.array_equal(transition_cochain(spec, 0, 1, 0),
                              linalg.identity(G.dim(1)))

    def test_f_map_surjective_buchsbaum_example(self):
        G = quotient(("x", "y"), lambda x, y: [x**2, x * y])
        assert comparison_rank(G, 0, 1) == piece_dim(G, 0, 1,
                                                     settle_power(G, 1))
        for power in (1, 2, 3):
            assert oracles.walk_comparison_rank(G, 0, 1, power) == \
                piece_dim(G, 0, 1, power)

    def test_f_map_not_surjective_thick_line(self):
        # socle at degree 3 only, but stable H^0 also holds the degree-2
        # class: the comparison map misses it
        G = quotient(("x", "y"), lambda x, y: [x**3, x**2 * y**2])
        assert settle_power(G, 2) == 2
        assert (piece_dim(G, 0, 2, 1), piece_dim(G, 0, 2, 2)) == (0, 1)
        assert comparison_rank(G, 0, 2) == 0
        assert oracles.walk_comparison_rank(G, 0, 2, 3) == 0

    def test_comparison_rank_of_a_non_monomial_cone_ranks_f_map(self):
        # one comparison cochain to T(n) against the composite of the
        # dense transition maps, one power at a time
        G = quotient(("x", "y", "z"),
                     lambda x, y, z: [x * y + y**2, x**2 - y**2])
        assert not G.monomial
        try:
            ranks = {(i, n): linalg.rank(oracles.dense_f_map(
                         G, i, n, settle_power(G, n)), G.p)
                     for i in range(3) for n in range(-2, 3)}
        finally:
            oracles.dense_piece.cache_clear()
            oracles.dense_transition_matrix.cache_clear()
        assert any(ranks.values())
        assert ranks == {key: koszul.comparison_rank(G, *key)
                         for key in ranks}


class TestChainMultiplication:
    def test_variable_kills_socle_class(self):
        G = quotient(("x", "y"), lambda x, y: [x**2, x * y])
        spec = KoszulComplexSpec(G, 1)
        piece = koszul_cohomology_piece(spec, 0, 1)
        rep = piece.representatives[:, 0].reshape(-1, 1)
        mult = chain_multiplication(spec, 0, 1, 0)
        moved = linalg.matmul(mult, rep, P)[:, 0]
        assert is_coboundary(spec, 0, 2, moved)

    def test_block_structure(self):
        G = free(("x", "y"))
        spec = KoszulComplexSpec(G, 1)
        mat = chain_multiplication(spec, 1, 0, 1)
        # two identical diagonal blocks of mult-by-y: [G]_1 -> [G]_2
        blk = G.mult_matrix(G.ring.variable(1), 1)
        assert mat.shape == (2 * blk.shape[0], 2 * blk.shape[1])
        assert np.array_equal(mat[:blk.shape[0], :blk.shape[1]], blk)
        assert not mat[:blk.shape[0], blk.shape[1]:].any()


@st.composite
def koszul_cones(draw):
    """GF(p)[x..] modulo a few random monomials or a few random forms with
    up to three terms, and a power t."""
    p = draw(st.sampled_from([2, 5, 32003]))
    nv = draw(st.integers(1, 3))
    R = PolyRing(("x", "y", "z")[:nv], p)
    most_terms = draw(st.sampled_from([1, 3]))
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        degree = draw(st.integers(1, 3))
        terms = {}
        for _ in range(draw(st.integers(1, most_terms))):
            picks = draw(st.lists(st.integers(0, nv - 1), min_size=degree,
                                  max_size=degree))
            exps = tuple(picks.count(j) for j in range(nv))
            terms[exps] = draw(st.integers(1, p - 1))
        gens.append(R.from_terms(terms))
    G = GradedQuotientRing(Ideal(R, gens))
    return KoszulComplexSpec(G, draw(st.integers(1, 3)))


@settings(max_examples=80, deadline=None)
@given(koszul_cones(), st.integers(-1, 3), st.integers(-3, 3), st.data())
def test_assembled_matrices_match_column_oracle(spec, q, n, data):
    q = min(q, spec.m)
    assert np.array_equal(differential(spec, q, n),
                          oracles.column_differential(spec, q, n))
    if q >= 0:
        step = data.draw(st.integers(0, 2))
        assert np.array_equal(
            transition_cochain(spec, q, n, step),
            oracles.column_transition_cochain(spec, q, n, step))
        j = data.draw(st.integers(0, spec.m - 1))
        assert np.array_equal(
            chain_multiplication(spec, q, n, j),
            oracles.column_chain_multiplication(spec, q, n, j))


def test_dense_elimination_over_the_cap_raises(monkeypatch):
    G = quotient(("x", "y", "z"), lambda x, y, z: [x * y + y ** 2])
    assert not G.monomial
    spec = KoszulComplexSpec(G, 1)
    assert koszul_cohomology_piece(spec, 0, 0).dim == 0
    monkeypatch.setattr(koszul, "MAX_DENSE_CELLS", 134)
    # [H^1]_0 would eliminate d: [K^1]_0 -> [K^2]_0, 15 x 9
    with pytest.raises(SizeLimitError, match="15 x 9"):
        koszul_cohomology_piece(spec, 1, 0)
    # the cap is on elimination: the matrices themselves are still built,
    # and a piece kept from before stays readable
    assert differential(spec, 1, 0).shape == (15, 9)
    assert chain_multiplication(spec, 1, 0, 0).shape == (15, 9)
    assert koszul_cohomology_piece(spec, 0, 0).dim == 0


def test_dense_comparison_guards_both_differentials_at_the_power(monkeypatch):
    # the generic skew lines: the power-1 piece's differentials (at most
    # 36 x 16) fit under the cap, but at T(0) = 2 the comparison reads the
    # 24 x 1 differential into [K^1]_0 and checks its image against the
    # 60 x 24 one out of it, which is over the cap
    R = PolyRing(("x", "y", "z", "w"), P)
    x, y, z, w = corpus.generic_forms(R, 3)
    G = GradedQuotientRing(Ideal(R, [x * z, x * w, y * z, y * w]))
    assert not G.monomial
    assert settle_power(G, 0) == 2
    monkeypatch.setattr(koszul, "MAX_DENSE_CELLS", 1000)
    with pytest.raises(SizeLimitError, match="^a 60 x 24 Koszul differential "
                       "has more than 1000 cells$"):
        comparison_rank(G, 1, 0)
