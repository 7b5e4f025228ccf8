"""Graded quotient rings G = S/I with per-degree bases and matrices.

Each graded piece [G]_n carries the basis of standard monomials (degree-n
monomials outside the lead-term ideal), sorted descending by the ring's term
order.  Graded normal forms are read off one table per degree: the
coordinates in [G]_d of every degree-d monomial, filled in a single sweep
(see `_normal_forms`).  Coordinates and multiplication matrices are sums of
table rows; no graded normal form runs the general division algorithm.
Bases, tables and matrices are cached write-once; all values are immutable.
Caches are plain dicts filled idempotently, so concurrent readers are safe
under the interpreter lock.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import linalg, multigraded
from .errors import NotHomogeneousError, ZeroRingError
from .groebner import (DEGREVLEX, GroebnerBasis, Ideal, _monomial_divides,
                       _monomials_of_degree, standard_monomials)
from .poly import Monomial, Polynomial, require_homogeneous

if TYPE_CHECKING:
    import numpy as np


class GradedQuotientRing:
    """S/I for a homogeneous ideal I, with exact degreewise linear algebra."""

    def __init__(self, ideal: Ideal):
        if not ideal.is_homogeneous():
            raise NotHomogeneousError("the defining ideal must be homogeneous")
        self.ideal = ideal
        self.ring = ideal.ring
        self.p = self.ring.characteristic
        self.gb: GroebnerBasis = ideal.groebner_basis(DEGREVLEX)
        # a monomial cone: its Koszul complexes split into multidegree blocks
        self.monomial = all(len(g.terms) == 1 for g in self.gb)
        # only the unit ideal has a basis element with the lead 1
        self._zero_ring = any(not any(lead)
                              for lead in self.gb.leading_monomials())
        # (lead, tail monomials, negated tail coefficients) per basis element;
        # ints until the first table, so a ring that reads none builds no array
        self._rules = [
            (lead, [v for v in g.terms if v != lead],
             [-c % self.p for v, c in g.terms.items() if v != lead])
            for lead, g in zip(self.gb.leading_monomials(), self.gb)]
        self._rule_rows: list[np.ndarray] | None = None
        self._basis_cache: dict[int, list[Monomial]] = {}
        self._index_cache: dict[int, dict[Monomial, int]] = {}
        self._nf_cache: dict[int, tuple[dict[Monomial, int], np.ndarray]] = {}
        self._mult_cache: dict = {}
        self._koszul_cache: dict = {}

    @classmethod
    def of(cls, ideal: Ideal) -> "GradedQuotientRing":
        """S/ideal, built once and kept on `ideal`: every caller that holds
        the same Ideal shares its bases, tables and Koszul caches."""
        if ideal._graded is None:
            ideal._graded = cls(ideal)
        return ideal._graded

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
        """Coordinate column of the class of f in [G]_n.

        Every term of f must have degree n, even one whose class is zero.
        """
        if any(sum(exps) != n for exps in f.terms):
            raise NotHomogeneousError(f"{f} does not live purely in degree {n}")
        vec = linalg.zeros(self.dim(n))
        if vec.size:
            rows, nf = self._normal_forms(n)
            for exps, c in f.terms.items():
                vec = (vec + c * nf[rows[exps]]) % self.p
        return vec

    def element_from_coordinates(self, vec, n: int) -> Polynomial:
        basis = self.graded_basis(n)
        terms = {m: int(c) for m, c in zip(basis, vec) if int(c) % self.p}
        return Polynomial(self.ring, terms)

    # -- multiplication ----------------------------------------------------

    def _normal_forms(self, d: int) -> tuple[dict[Monomial, int], np.ndarray]:
        """The coordinates in [G]_d of every degree-d monomial: row k of the
        table belongs to the monomial that the returned dict maps to k.

        One sweep in ascending DEGREVLEX order fills the table.  A standard
        monomial gets its unit vector.  Any other monomial u is shift * lead
        of the first basis element g whose lead divides u, so its row is
        -sum c * row(shift * v) over the tail terms c * v of g, mod p.  The
        reduced basis of a homogeneous ideal is monic and homogeneous, so
        every shift * v is a smaller degree-d monomial whose row is already
        filled.  Normal forms are unique, so each row holds exactly the
        coordinates of the monomial's normal form.
        """
        hit = self._nf_cache.get(d)
        if hit is not None:
            return hit
        if self._rule_rows is None:
            self._rule_rows = [linalg.matrix([coeffs])
                               for _, _, coeffs in self._rules]
        self.graded_basis(d)
        index = self._index_cache[d]
        monos = _monomials_of_degree(self.ring.nvars, DEGREVLEX, d)[::-1]
        rows = {u: k for k, u in enumerate(monos)}
        nf = linalg.zeros(len(monos), len(index))
        for k, u in enumerate(monos):
            if u in index:
                nf[k, index[u]] = 1
                continue
            (lead, tail, _), coeffs = next(
                (rule, row) for rule, row in zip(self._rules, self._rule_rows)
                if _monomial_divides(rule[0], u))
            shifted = [rows[tuple(a + b - e for a, b, e in zip(u, v, lead))]
                       for v in tail]
            nf[k] = linalg.matmul(coeffs, nf[shifted], self.p)[0]
        self._nf_cache[d] = rows, nf
        return rows, nf

    def mult_matrix(self, f: Polynomial, n: int) -> np.ndarray:
        """Multiplication by homogeneous f, [G]_n -> [G]_{n+deg f}, as a
        read-only (target x source) matrix."""
        e = require_homogeneous(f)
        key = (tuple(sorted(f.terms.items())), n)
        hit = self._mult_cache.get(key)
        if hit is not None:
            return hit
        source = self.graded_basis(n)
        target_degree = n + e
        mat = linalg.zeros(self.dim(target_degree), len(source))
        if mat.size:
            rows, nf = self._normal_forms(target_degree)
            for exps, c in f.terms.items():
                moved = [rows[tuple(a + b for a, b in zip(exps, mono))]
                         for mono in source]
                mat = (mat + c * nf[moved].T) % self.p
        mat.flags.writeable = False  # shared by every caller of this key
        self._mult_cache[key] = mat
        return mat

    # -- global invariants ---------------------------------------------------

    def is_zero_ring(self) -> bool:
        return self._zero_ring

    def max_generator_degree(self) -> int:
        return self.gb.max_degree()

    def krull_dimension(self) -> int:
        """d = dim S/I = dim S/in(I), the largest i with H^i_M(G) != 0
        (Grothendieck's vanishing and non-vanishing theorems; Bruns-Herzog
        3.5.7): the largest i some live cap of the block engine carries."""
        if self.is_zero_ring():
            raise ZeroRingError("the zero ring has no Krull dimension")
        return max(i for dims in multigraded.engine(self).caps().values()
                   for i, x in enumerate(dims) if x)

    def top_degree(self) -> int:
        """Largest n with [G]_n != 0 (only for 0-dimensional rings): such a G
        is its own H^0_M and has the Hilbert function of S/in(I)."""
        if self.krull_dimension() != 0:
            raise ValueError("top_degree needs a 0-dimensional ring")
        return max(multigraded.engine(self).row_support(0))

    def __repr__(self) -> str:
        return f"GradedQuotientRing({self.ring} / {self.ideal!r})"
