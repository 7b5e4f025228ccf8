"""Graded quotient rings G = S/I with per-degree bases and matrices.

Each graded piece [G]_n carries the basis of standard monomials (degree-n
monomials outside the lead-term ideal), sorted descending by the ring's term
order.  Bases and matrices are cached write-once; all values are immutable.
Caches are plain dicts filled idempotently, so concurrent readers are safe
under the interpreter lock.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import linalg
from .errors import NotHomogeneousError, ZeroRingError
from .groebner import DEGREVLEX, GroebnerBasis, Ideal, standard_monomials
from .poly import Monomial, Polynomial, require_homogeneous


class GradedVectorSpaceMap:
    """A map between two graded pieces, stored as a (target x source) matrix.

    The matrix is never modified after construction, so the rank is computed
    once and kept.
    """

    def __init__(self, matrix: np.ndarray, p: int):
        self.matrix = matrix
        self.p = p
        self._rank: int | None = None

    @property
    def source_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def target_dim(self) -> int:
        return self.matrix.shape[0]

    def rank(self) -> int:
        if self._rank is None:
            self._rank = linalg.rank(self.matrix, self.p)
        return self._rank

    def is_surjective(self) -> bool:
        return self.rank() == self.target_dim

    def is_injective(self) -> bool:
        return self.rank() == self.source_dim

    def is_isomorphism(self) -> bool:
        return self.source_dim == self.target_dim and self.is_surjective()

    def compose(self, inner: "GradedVectorSpaceMap") -> "GradedVectorSpaceMap":
        """self o inner (apply inner first)."""
        if inner.target_dim != self.source_dim:
            raise ValueError("composition dimension mismatch")
        return GradedVectorSpaceMap(
            linalg.matmul(self.matrix, inner.matrix, self.p), self.p)


class GradedQuotientRing:
    """S/I for a homogeneous ideal I, with exact degreewise linear algebra."""

    def __init__(self, ideal: Ideal):
        if not ideal.is_homogeneous():
            raise NotHomogeneousError("the defining ideal must be homogeneous")
        self.ideal = ideal
        self.ring = ideal.ring
        self.p = self.ring.characteristic
        self.gb: GroebnerBasis = ideal.groebner_basis(DEGREVLEX)
        self._basis_cache: dict[int, list[Monomial]] = {}
        self._index_cache: dict[int, dict[Monomial, int]] = {}
        self._mult_cache: dict = {}
        self._dim_cache: int | None = None
        self._koszul_cache: dict = {}

    # -- bases -------------------------------------------------------------

    def graded_basis(self, n: int) -> list[Monomial]:
        """Standard monomials of degree n, descending by the ring order."""
        basis = self._basis_cache.get(n)
        if basis is None:
            basis = standard_monomials(self.ideal, n) if n >= 0 else []
            self._basis_cache[n] = basis
            self._index_cache[n] = {m: i for i, m in enumerate(basis)}
        return basis

    def dim(self, n: int) -> int:
        return len(self.graded_basis(n))

    def coordinates(self, f: Polynomial, n: int) -> np.ndarray:
        """Coordinate column of the class of homogeneous f in [G]_n."""
        nf = self.gb.normal_form(f)
        self.graded_basis(n)
        index = self._index_cache[n]
        vec = np.zeros(len(index), dtype=np.int64)
        for exps, c in nf.terms.items():
            if sum(exps) != n:
                raise NotHomogeneousError(
                    f"class of {f} does not live purely in degree {n}")
            vec[index[exps]] = c
        return vec

    def element_from_coordinates(self, vec, n: int) -> Polynomial:
        basis = self.graded_basis(n)
        terms = {m: int(c) for m, c in zip(basis, vec) if int(c) % self.p}
        return Polynomial(self.ring, terms)

    # -- multiplication ----------------------------------------------------

    def mult_matrix(self, f: Polynomial, n: int) -> GradedVectorSpaceMap:
        """Multiplication by homogeneous f as a map [G]_n -> [G]_{n+deg f}."""
        e = require_homogeneous(f)
        key = (tuple(sorted(f.terms.items())), n)
        hit = self._mult_cache.get(key)
        if hit is not None:
            return hit
        source = self.graded_basis(n)
        target_degree = n + e
        target = self.graded_basis(target_degree)
        index = self._index_cache[target_degree]
        mat = linalg.zeros(len(target), len(source))
        for j, mono in enumerate(source):
            prod = self.gb.normal_form(f * self.ring.monomial(mono))
            for exps, c in prod.terms.items():
                mat[index[exps], j] = c
        out = GradedVectorSpaceMap(mat, self.p)
        self._mult_cache[key] = out
        return out

    # -- global invariants ---------------------------------------------------

    def is_zero_ring(self) -> bool:
        return self.ideal.is_whole_ring()

    def max_generator_degree(self) -> int:
        return self.gb.max_degree()

    def krull_dimension(self) -> int:
        """dim S/in(I), which equals dim S/I: the size of a largest set of
        variables that contains the support of no lead monomial."""
        if self._dim_cache is not None:
            return self._dim_cache
        if self.is_zero_ring():
            raise ZeroRingError("the zero ring has no Krull dimension")
        nvars = self.ring.nvars
        supports = [{v for v, e in enumerate(lead) if e}
                    for lead in self.gb.leading_monomials()]
        self._dim_cache = max(
            size for size in range(nvars + 1)
            for free in itertools.combinations(range(nvars), size)
            if not any(s <= set(free) for s in supports))
        return self._dim_cache

    def top_degree(self) -> int:
        """Largest n with [G]_n != 0 (only for 0-dimensional rings)."""
        if self.krull_dimension() != 0:
            raise ValueError("top_degree needs a 0-dimensional ring")
        n = 0
        last = -1
        while self.dim(n) != 0:
            last = n
            n += 1
        return last

    def __repr__(self) -> str:
        return f"GradedQuotientRing({self.ring} / {self.ideal!r})"
