"""Independent oracles the frozen expectations are checked against.

Each oracle reaches the same quantity as some production code path by a
deliberately different route, so agreement is evidence rather than
tautology:

* ``cone_dims_oracle`` measures the graded layers of the degree
  filtration directly (standard-monomial counts of ``I + m^k``), never
  touching the homogenize/eliminate/dehomogenize pipeline.
* ``socle_dims_oracle`` computes degreewise kernels of the stacked
  multiplication-by-variable maps, never touching colon ideals.
* ``quotient_h0_dims`` computes ``(I : M)/I`` dimensions from ideal
  arithmetic, never touching Koszul complexes.
* ``greedy_quotient_columns`` admits columns one at a time by recomputing
  the rank, never reading pivot positions.
* ``naive_buchberger`` re-sorts every pair on every pop and prunes only by
  the product criterion, never using the Gebauer-Moeller update.
* ``annihilator_witnesses_per_column`` asks ``is_coboundary`` once per
  moved representative column, never sharing an elimination.
"""

from __future__ import annotations

import numpy as np

from formring import (GradedQuotientRing, Ideal, KoszulComplexSpec,
                      chain_multiplication, ideal_quotient, is_coboundary,
                      koszul_cohomology_piece, normal_form, s_polynomial,
                      standard_monomials)
from formring import linalg
from formring.groebner import _reduce_basis


def _degree_ideal(ideal: Ideal, k: int) -> Ideal:
    """The ideal plus all monomials of total degree ``k``."""

    ring = ideal.ring
    from formring.groebner import monomials_of_degree

    extra = [ring.monomial(m) for m in monomials_of_degree(ring, k)]
    return Ideal(ring, list(ideal.generators) + extra)


def _codim(ideal: Ideal, k: int) -> int:
    """Total dimension of ring/(ideal + all degree-k monomials)."""

    j = _degree_ideal(ideal, k)
    return sum(len(standard_monomials(j, d)) for d in range(k))


def cone_dims_oracle(ideal: Ideal, n_max: int) -> list[int]:
    """Graded dimensions of the degree filtration's layers, degrees 0..n_max.

    Layer n is (m^n + I)/(m^{n+1} + I); its dimension is the difference of
    the two finite quotient dimensions.  This is the defining filtration,
    computed without any initial-forms machinery.
    """

    codims = [_codim(ideal, k) for k in range(n_max + 2)]
    return [codims[n + 1] - codims[n] for n in range(n_max + 1)]


def socle_dims_oracle(G: GradedQuotientRing, degrees) -> dict[int, int]:
    """Degreewise dimension of the kernel of all variable multiplications."""

    out = {}
    for n in degrees:
        dim = G.dim(n)
        if dim == 0:
            out[n] = 0
            continue
        blocks = [G.mult_matrix(v, n).matrix for v in G.ring.gens()]
        stacked = np.vstack(blocks) if blocks else linalg.zeros(0, dim)
        out[n] = dim - linalg.rank(stacked, G.p)
    return out


def quotient_h0_dims(G: GradedQuotientRing, degrees) -> dict[int, int]:
    """Degreewise dimension of (I : M)/I via pure ideal arithmetic."""

    I = G.ideal
    M = Ideal(I.ring, [I.ring.variable(v) for v in I.ring.variables])
    colon = ideal_quotient(I, M)
    return {
        n: len(standard_monomials(I, n)) - len(standard_monomials(colon, n))
        for n in degrees
    }


def saturation_h0_dims(G: GradedQuotientRing, degrees,
                       cap: int = 50) -> dict[int, int]:
    """Degreewise dimension of (I : M^inf)/I by iterating ideal quotients.

    Deliberately re-iterates ``ideal_quotient`` here instead of calling the
    library's saturation helper, so the chain logic is independent too.
    """

    I = G.ideal
    M = Ideal(I.ring, [I.ring.variable(v) for v in I.ring.variables])
    current = I
    for _ in range(cap):
        nxt = ideal_quotient(current, M)
        if [str(g) for g in nxt.groebner_basis().elements] == \
                [str(g) for g in current.groebner_basis().elements]:
            break
        current = nxt
    else:
        raise RuntimeError("saturation oracle did not stabilize")
    return {
        n: len(standard_monomials(I, n)) - len(standard_monomials(current, n))
        for n in degrees
    }


def greedy_quotient_columns(sub: np.ndarray, vecs: np.ndarray,
                            p: int) -> list[int]:
    """Indices of the columns of ``vecs`` that enlarge span(sub + earlier).

    Scans left to right and keeps a column when appending it raises the
    rank: a basis of span(sub + vecs) modulo span(sub).
    """

    picked: list[int] = []
    current = sub
    base_rank = linalg.rank(sub, p)
    for j in range(vecs.shape[1]):
        cand = np.hstack([current, vecs[:, j : j + 1]])
        if linalg.rank(cand, p) > base_rank:
            current = cand
            base_rank += 1
            picked.append(j)
    return picked


def naive_buchberger(generators, order, max_spolys=None):
    """Reduced Groebner basis by the textbook pair loop.

    All pairs are kept in one list that is re-sorted by (lcm total degree,
    i, j) before every pop; only coprime-lead pairs are skipped.  Returns
    None once more than ``max_spolys`` S-polynomials would be reduced: on a
    few small random ideals this loop runs for minutes.
    """

    basis = [g.monic(order) for g in generators if not g.is_zero()]
    if not basis:
        return []

    def lm(i):
        return max(basis[i].terms, key=order.key)

    def lcm(a, b):
        return tuple(max(x, y) for x, y in zip(a, b))

    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        pairs.sort(key=lambda ij: (sum(lcm(lm(ij[0]), lm(ij[1]))), ij))
        i, j = pairs.pop(0)
        a, b = lm(i), lm(j)
        if lcm(a, b) == tuple(x + y for x, y in zip(a, b)):
            continue
        if max_spolys is not None:
            if max_spolys == 0:
                return None
            max_spolys -= 1
        s = normal_form(s_polynomial(basis[i], basis[j], order), basis, order)
        if s.is_zero():
            continue
        basis.append(s.monic(order))
        new = len(basis) - 1
        pairs.extend((k, new) for k in range(new))
    return _reduce_basis(basis, order)


def annihilator_witnesses_per_column(G, i, table):
    """The witnesses of ``annihilator_is_irrelevant``, one solve per column.

    Assumes every consulted entry is stabilized.
    """

    witnesses = []
    for entry in table.row(i):
        if entry.dim == 0:
            continue
        target = table.entry(i, entry.n + 1)
        t_star = entry.power if target is None else max(entry.power,
                                                        target.power)
        spec = KoszulComplexSpec(G, t_star)
        piece = koszul_cohomology_piece(spec, i, entry.n)
        for j, name in enumerate(G.ring.variables):
            mult = chain_multiplication(spec, i, entry.n, j)
            for col in range(piece.dim):
                vec = piece.representatives[:, col]
                moved = linalg.matmul(mult, vec.reshape(-1, 1), G.p)[:, 0]
                if not is_coboundary(spec, i, entry.n + 1, moved):
                    witnesses.append((name, entry.n, [int(c) for c in vec]))
    return witnesses
