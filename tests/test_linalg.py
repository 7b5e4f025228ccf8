"""Exact dense linear algebra over prime fields."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formring import linalg
from oracles import coordinates, greedy_quotient_columns, loop_kernel, solve

PRIMES = [2, 3, 5, 32003]


def random_matrix(rng, rows, cols, p):
    return rng.integers(0, p, size=(rows, cols), dtype=np.int64)


class TestRref:
    def test_identity_is_fixed(self):
        for p in PRIMES:
            r, pivots = linalg.rref(linalg.identity(3), p)
            assert np.array_equal(r, linalg.identity(3))
            assert pivots == [0, 1, 2]

    def test_known_2x3(self):
        a = np.array([[1, 2, 3], [2, 4, 7]], dtype=np.int64)
        r, pivots = linalg.rref(a, 5)
        assert pivots == [0, 2]
        assert np.array_equal(r, np.array([[1, 2, 0], [0, 0, 1]]))

    def test_mod2_pivoting(self):
        a = np.array([[2, 1], [1, 1]], dtype=np.int64)
        r, pivots = linalg.rref(a, 2)
        # first column reduces to (0,1): pivot found by row swap
        assert pivots == [0, 1]
        assert np.array_equal(r, linalg.identity(2))

    def test_pivots_pick_quotient_columns(self):
        sub = np.array([[1], [0], [0]], dtype=np.int64)
        vecs = np.array([[1, 0, 0], [1, 1, 1], [0, 0, 1]], dtype=np.int64)
        _, pivots = linalg.rref(np.hstack([sub, vecs]), 7)
        # the first and third vecs columns enlarge the span; the second is
        # redundant after the first
        assert pivots == [0, 1, 3]

    def test_rref_idempotent(self):
        rng = np.random.default_rng(7)
        for p in PRIMES:
            a = random_matrix(rng, 5, 7, p)
            r, _ = linalg.rref(a, p)
            r2, _ = linalg.rref(r, p)
            assert np.array_equal(r, r2)


class TestRankKernel:
    def test_rank_empty(self):
        assert linalg.rank(linalg.zeros(0, 4), 5) == 0
        assert linalg.rank(linalg.zeros(4, 0), 5) == 0

    def test_kernel_shapes(self):
        k = linalg.kernel(linalg.zeros(0, 3), 7)
        assert k.shape == (3, 3)
        k = linalg.kernel(linalg.zeros(3, 0), 7)
        assert k.shape == (0, 0)

    def test_rank_nullity(self):
        rng = np.random.default_rng(11)
        for p in PRIMES:
            for _ in range(20):
                rows, cols = rng.integers(1, 7, size=2)
                a = random_matrix(rng, rows, cols, p)
                r = linalg.rank(a, p)
                ker = linalg.kernel(a, p)
                assert r + ker.shape[1] == cols
                if ker.shape[1]:
                    assert not linalg.matmul(a, ker, p).any()
                # kernel basis columns are independent
                assert linalg.rank(ker, p) == ker.shape[1]


class TestMatmulSolve:
    def test_matmul_matches_python_ints(self):
        rng = np.random.default_rng(17)
        p = 32003
        a = random_matrix(rng, 4, 5, p)
        b = random_matrix(rng, 5, 3, p)
        got = linalg.matmul(a, b, p)
        want = [[sum(int(a[i, k]) * int(b[k, j]) for k in range(5)) % p
                 for j in range(3)] for i in range(4)]
        assert got.tolist() == want

    def test_matmul_chunked_path(self):
        # force the chunked branch with a large p and wide inner dimension
        p = (1 << 30) - 35  # prime near the cap
        inner = 8
        a = np.full((2, inner), p - 1, dtype=np.int64)
        b = np.full((inner, 2), p - 1, dtype=np.int64)
        got = linalg.matmul(a, b, p)
        assert (got == (inner * (p - 1) * (p - 1)) % p).all()

    def test_solve_consistent(self):
        rng = np.random.default_rng(19)
        for p in PRIMES:
            a = random_matrix(rng, 5, 4, p)
            x = random_matrix(rng, 4, 1, p)
            b = linalg.matmul(a, x, p)
            got = solve(a, b, p)
            assert got is not None
            assert np.array_equal(linalg.matmul(a, got, p), b)

    def test_solve_inconsistent_returns_none(self):
        a = np.array([[1, 0], [0, 0]], dtype=np.int64)
        b = np.array([0, 1], dtype=np.int64)
        assert solve(a, b, 5) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_kernel_property(rows, cols, data):
    p = data.draw(st.sampled_from([2, 5, 97]))
    entries = data.draw(st.lists(st.integers(0, p - 1),
                                 min_size=rows * cols,
                                 max_size=rows * cols))
    a = np.array(entries, dtype=np.int64).reshape(rows, cols)
    ker = linalg.kernel(a, p)
    assert np.array_equal(ker, loop_kernel(a, p))
    assert linalg.rank(a, p) + ker.shape[1] == cols
    if rows and ker.shape[1]:
        assert not linalg.matmul(a, ker, p).any()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(0, 3), st.integers(0, 4), st.data())
def test_pivots_match_greedy_rank_loop(rows, nsub, nvecs, data):
    p = data.draw(st.sampled_from([2, 5, 97]))
    entries = data.draw(st.lists(st.integers(0, p - 1),
                                 min_size=rows * (nsub + nvecs),
                                 max_size=rows * (nsub + nvecs)))
    a = np.array(entries, dtype=np.int64).reshape(rows, nsub + nvecs)
    sub, vecs = a[:, :nsub], a[:, nsub:]
    _, pivots = linalg.rref(a, p)
    picked = [c - nsub for c in pivots if c >= nsub]
    assert picked == greedy_quotient_columns(sub, vecs, p)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 5), st.integers(0, 3), st.integers(0, 4),
       st.sampled_from([2, 5, 97]), st.integers(0, 2**32 - 1))
@example(rows=3, nin=0, nvecs=2, p=5, seed=1)  # no coboundaries
@example(rows=3, nin=2, nvecs=0, p=5, seed=1)  # no vectors
@example(rows=0, nin=2, nvecs=3, p=2, seed=1)  # the zero space
def test_modulo_matches_per_column_solves(rows, nin, nvecs, p, seed):
    # about half the columns are coboundaries, so both answers occur
    rng = np.random.default_rng(seed)
    d_in = random_matrix(rng, rows, nin, p)
    vecs = random_matrix(rng, rows, nvecs, p)
    hit = rng.integers(0, 2, size=nvecs).astype(bool)
    vecs[:, hit] = linalg.matmul(d_in, random_matrix(rng, nin, nvecs, p),
                                 p)[:, hit]
    got = linalg.modulo(d_in, vecs, p)
    assert got.shape == (linalg.rank(np.hstack([d_in, vecs]), p)
                         - linalg.rank(d_in, p), nvecs)
    assert linalg.rank(got, p) == got.shape[0]
    for k in range(nvecs):
        assert (not got[:, k].any()) == (solve(d_in, vecs[:, k], p)
                                         is not None)


def _complex(rng, nin, mid, nout, r, p):
    """d_in (mid x nin) of rank at most r, and d_out (nout x mid) whose rows
    lie in the left null space of d_in, so d_out @ d_in = 0."""
    d_in = linalg.matmul(random_matrix(rng, mid, r, p),
                         random_matrix(rng, r, nin, p), p)
    left = linalg.kernel(d_in.T, p)
    d_out = linalg.matmul(random_matrix(rng, nout, left.shape[1], p),
                          left.T, p)
    return d_in, d_out


def _assert_cohomology_is_greedy(d_in, d_out, p):
    assert not linalg.matmul(d_out, d_in, p).any()
    ker = loop_kernel(d_out, p)
    got = linalg.cohomology(d_in, d_out, p)
    assert np.array_equal(got, ker[:, greedy_quotient_columns(d_in, ker, p)])
    assert got.shape[1] == ker.shape[1] - linalg.rank(d_in, p)
    return got


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 4), st.integers(0, 5), st.integers(0, 4),
       st.integers(0, 3), st.sampled_from([2, 5, 32003]),
       st.integers(0, 2**32 - 1))
def test_cohomology_matches_greedy_quotient(nin, mid, nout, r, p, seed):
    rng = np.random.default_rng(seed)
    _assert_cohomology_is_greedy(*_complex(rng, nin, mid, nout, r, p), p)


@pytest.mark.parametrize("nin, mid, nout", [
    (0, 3, 2),  # d_in has no columns: the kernel itself
    (2, 3, 0),  # d_out has no rows: everything modulo the image
    (2, 0, 2),  # d_out has no columns: the zero space
])
def test_cohomology_empty_shapes(nin, mid, nout):
    rng = np.random.default_rng(5)
    d_in, d_out = _complex(rng, nin, mid, nout, 2, 5)
    got = _assert_cohomology_is_greedy(d_in, d_out, 5)
    if nin == 0:
        assert np.array_equal(got, loop_kernel(d_out, 5))
    if nout == 0:
        assert got.shape == (mid, mid - linalg.rank(d_in, 5))
    if mid == 0:
        assert got.shape == (0, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.integers(0, 5), st.integers(0, 4),
       st.integers(0, 3), st.sampled_from([2, 5, 32003]),
       st.integers(0, 2**32 - 1))
def test_coordinates_recover_a_combination(nin, mid, nout, r, p, seed):
    # reps @ c + d_in @ y has coordinates c: zero exactly on coboundaries
    rng = np.random.default_rng(seed)
    d_in, d_out = _complex(rng, nin, mid, nout, r, p)
    reps = linalg.cohomology(d_in, d_out, p)
    coeffs = random_matrix(rng, reps.shape[1], 3, p)
    shift = random_matrix(rng, d_in.shape[1], 3, p)
    vecs = (linalg.matmul(reps, coeffs, p)
            + linalg.matmul(d_in, shift, p)) % p
    assert np.array_equal(coordinates(d_in, reps, vecs, p), coeffs)
    assert not coordinates(
        d_in, reps, linalg.matmul(d_in, shift, p), p).any()


def test_coordinates_outside_the_span_and_with_no_classes():
    d_in = np.array([[1], [0], [0]], dtype=np.int64)
    reps = np.array([[0], [1], [0]], dtype=np.int64)
    assert coordinates(d_in, reps, np.array([0, 0, 1]), 5) is None
    assert coordinates(d_in, reps, np.array([3, 2, 0]), 5).tolist() \
        == [2]
    # no classes: an empty answer of the vectors' shape, nothing eliminated
    empty = linalg.zeros(3, 0)
    assert coordinates(d_in, empty, np.array([0, 0, 1]), 5).shape \
        == (0,)
    assert coordinates(d_in, empty, linalg.zeros(3, 2), 5).shape \
        == (0, 2)
