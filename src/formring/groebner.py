"""Buchberger's algorithm and the ideal operations built on it.

Everything here is deterministic: the pair queue is a heap ordered by lcm
total degree with ties broken by pair index, reduction always uses the first
applicable divisor in the stored basis order, and reduced bases are sorted by
(degree, term-order key) ascending.  Reduced Groebner bases are unique, so
ideal equality is tested by comparing them.

Each new basis element goes through the pair criteria of the
Gebauer-Moeller update (Gebauer and Moeller 1988): of its new pairs, one
whose lcm is a multiple of another new pair's lcm is dropped, and so is one
with coprime leads (product criterion); an old pair is dropped when the new
lead divides its lcm and the two lcms through the new element both differ
from it (chain criterion).  Every element stays a reducer and a pair
partner.  The full update also retires the elements whose lead the new lead
divides; that changes which divisor reduces first, and under lex it made
some small random ideals run for minutes.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterable, Sequence

from .errors import (AmbientMismatchError, NotInIrrelevantError,
                     SaturationLimitError)
from .poly import (DEGREVLEX, ELIM_LAST, Monomial, PolyRing, Polynomial,
                   TermOrder)


def _monomial_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def _monomial_quot(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def _coprime(a: Monomial, b: Monomial) -> bool:
    return not any(x and y for x, y in zip(a, b))


def normal_form(f: Polynomial, basis: Sequence[Polynomial],
                order: TermOrder | None = None) -> Polynomial:
    """Fully reduce f: no term of the result is divisible by any basis lead.

    Canonical (independent of the division bookkeeping) when `basis` is a
    Groebner basis for `order`.
    """
    order = order or f.ring.order
    ring = f.ring
    p = ring.characteristic
    leads = [(g.leading_monomial(order), g) for g in basis if not g.is_zero()]
    remainder: dict[Monomial, int] = {}
    work = dict(f.terms)
    while work:
        mono = max(work, key=order.key)
        coeff = work[mono]
        for lm, g in leads:
            if _monomial_divides(lm, mono):
                # subtracting scale * shift * g cancels mono exactly
                shift = _monomial_quot(mono, lm)
                scale = coeff * pow(g.terms[lm], -1, p)
                for ge, gc in g.terms.items():
                    key = tuple(x + y for x, y in zip(ge, shift))
                    val = (work.get(key, 0) - scale * gc) % p
                    if val:
                        work[key] = val
                    elif key in work:
                        del work[key]
                break
        else:
            remainder[mono] = coeff
            del work[mono]
    return Polynomial(ring, remainder)


def s_polynomial(f: Polynomial, g: Polynomial,
                 order: TermOrder | None = None) -> Polynomial:
    order = order or f.ring.order
    lf, lg = f.leading_monomial(order), g.leading_monomial(order)
    lcm = _monomial_lcm(lf, lg)
    mf = f.ring.monomial(_monomial_quot(lcm, lf),
                         pow(f.terms[lf], -1, f.ring.characteristic))
    mg = g.ring.monomial(_monomial_quot(lcm, lg),
                         pow(g.terms[lg], -1, g.ring.characteristic))
    return mf * f - mg * g


def buchberger(generators: Sequence[Polynomial],
               order: TermOrder | None = None) -> list[Polynomial]:
    """Reduced Groebner basis (monic, tail-reduced, sorted ascending).

    Pair selection: smallest lcm total degree first, ties by pair index,
    from a heap.  Pairs are pruned by the Gebauer-Moeller update.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return []
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise AmbientMismatchError("generators from different rings")
    order = order or ring.order

    basis: list[Polynomial] = []
    leads: list[Monomial] = []
    queue: list[tuple[int, int, int, Monomial]] = []  # (deg lcm, i, j, lcm)

    def update(h: Polynomial) -> None:
        """Gebauer-Moeller: add h and its useful pairs, prune old pairs."""
        nonlocal queue
        new = len(basis)
        lh = h.leading_monomial(order)
        fresh = [(g, _monomial_lcm(lg, lh)) for g, lg in enumerate(leads)]
        basis.append(h)
        leads.append(lh)
        # drop a new pair whose lcm is a multiple of another new pair's lcm
        # (of equal lcms the last survives), then the coprime ones
        kept: list[tuple[int, Monomial]] = []
        for k, (g, lcm) in enumerate(fresh):
            if _coprime(leads[g], lh) or not any(
                    _monomial_divides(other, lcm)
                    for _, other in itertools.chain(fresh[k + 1:], kept)):
                kept.append((g, lcm))
        # an old pair is covered when lh divides its lcm and both lcms
        # through h differ from it
        queue = [(d, i, j, lcm) for d, i, j, lcm in queue
                 if not (_monomial_divides(lh, lcm)
                         and _monomial_lcm(leads[i], lh) != lcm
                         and _monomial_lcm(leads[j], lh) != lcm)]
        queue.extend((sum(lcm), g, new, lcm) for g, lcm in kept
                     if not _coprime(leads[g], lh))
        heapq.heapify(queue)

    for g in gens:
        update(g.monic(order))
    while queue:
        _, i, j, _ = heapq.heappop(queue)
        s = normal_form(s_polynomial(basis[i], basis[j], order), basis, order)
        if not s.is_zero():
            update(s.monic(order))

    return _reduce_basis(basis, order)


def _reduce_basis(basis: list[Polynomial], order: TermOrder) -> list[Polynomial]:
    # minimalize: drop elements whose lead is divisible by another lead
    keep: list[Polynomial] = []
    leads = [g.leading_monomial(order) for g in basis]
    for i, g in enumerate(basis):
        li = leads[i]
        redundant = False
        for j, ljm in enumerate(leads):
            if i == j:
                continue
            if _monomial_divides(ljm, li) and (ljm != li or j < i):
                redundant = True
                break
        if not redundant:
            keep.append(g)
    # tail-reduce each against the others until stable
    changed = True
    while changed:
        changed = False
        for i in range(len(keep)):
            others = keep[:i] + keep[i + 1:]
            r = normal_form(keep[i], others, order).monic(order)
            if r.terms != keep[i].terms:
                keep[i] = r
                changed = True
    keep.sort(key=lambda g: (g.degree(), order.key(g.leading_monomial(order))))
    return keep


class GroebnerBasis:
    """A reduced Groebner basis together with its order."""

    def __init__(self, elements: list[Polynomial], order: TermOrder):
        self.elements = elements
        self.order = order

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def normal_form(self, f: Polynomial) -> Polynomial:
        return normal_form(f, self.elements, self.order)

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def leading_monomials(self) -> list[Monomial]:
        return [g.leading_monomial(self.order) for g in self.elements]

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.elements)

    def max_degree(self) -> int:
        return max((g.degree() for g in self.elements), default=0)


class Ideal:
    """An ideal presented by generators, with cached Groebner bases."""

    def __init__(self, ring: PolyRing, generators: Iterable[Polynomial]):
        gens = tuple(generators)
        for g in gens:
            if g.ring != ring:
                raise AmbientMismatchError("generator outside the ambient ring")
        self.ring = ring
        self.generators = gens
        self._gb_cache: dict[TermOrder, GroebnerBasis] = {}

    def groebner_basis(self, order: TermOrder | None = None) -> GroebnerBasis:
        order = order or self.ring.order
        gb = self._gb_cache.get(order)
        if gb is None:
            gb = GroebnerBasis(buchberger(self.generators, order), order)
            self._gb_cache[order] = gb
        return gb

    def normal_form(self, f: Polynomial, order: TermOrder | None = None) -> Polynomial:
        return self.groebner_basis(order).normal_form(f)

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def is_zero(self) -> bool:
        return len(self.groebner_basis()) == 0

    def is_whole_ring(self) -> bool:
        gb = self.groebner_basis()
        return len(gb) == 1 and gb.elements[0] == self.ring.one()

    def is_homogeneous(self) -> bool:
        if all(g.is_homogeneous() for g in self.generators):
            return True
        return self.groebner_basis(DEGREVLEX).is_homogeneous()

    def in_irrelevant(self) -> bool:
        """Contained in (x_1..x_n), i.e. every generator has zero constant term."""
        return all(g.constant_term() == 0 for g in self.generators)

    def equals(self, other: "Ideal") -> bool:
        if self.ring != other.ring:
            raise AmbientMismatchError("ideals in different rings")
        a = self.groebner_basis(DEGREVLEX).elements
        b = other.groebner_basis(DEGREVLEX).elements
        return a == b

    def __repr__(self) -> str:
        return f"Ideal({', '.join(str(g) for g in self.generators)})"


# -- homogenization and the form ideal -------------------------------------

def _homogenize(f: Polynomial, ext: PolyRing) -> Polynomial:
    d = f.degree()
    terms = {exps + (d - sum(exps),): c for exps, c in f.terms.items()}
    return Polynomial(ext, terms)


def _dehomogenize(f: Polynomial, ring: PolyRing) -> Polynomial:
    # homogeneous input: distinct terms keep distinct x-parts, no collisions
    return Polynomial(ring, {exps[:-1]: c for exps, c in f.terms.items()})


def initial_forms_ideal(ideal: Ideal) -> Ideal:
    """Ideal generated by the lowest-degree forms of all members.

    Computed by homogenizing the generators with an auxiliary last variable,
    taking a Groebner basis under the order that eliminates that variable
    (elim_last: homogenizer exponent compared first), dehomogenizing and
    keeping the lowest-degree form of each basis element.  With the
    homogenizer dominant, the lead of a homogeneous element sits in its
    minimal original-degree part, which is what makes the lowest forms of the
    basis generate the whole form ideal.
    """
    if not ideal.in_irrelevant():
        raise NotInIrrelevantError(
            "initial forms need an ideal inside the irrelevant maximal ideal")
    ring = ideal.ring
    nonzero = [g for g in ideal.generators if not g.is_zero()]
    if not nonzero:
        return Ideal(ring, ())
    ext = ring.extended()
    homog = [_homogenize(g, ext) for g in nonzero]
    gb = buchberger(homog, ELIM_LAST)
    forms = [_dehomogenize(g, ring).initial_form() for g in gb]
    return Ideal(ring, buchberger(forms, DEGREVLEX))


# -- elimination, intersection, quotient, saturation ------------------------

def _eliminate_last(gens: Sequence[Polynomial],
                    ring: PolyRing) -> list[Polynomial]:
    gb = buchberger(gens, ELIM_LAST)
    kept = [g for g in gb if all(e[-1] == 0 for e in g.terms)]
    return [Polynomial(ring, {e[:-1]: c for e, c in g.terms.items()}) for g in kept]


def intersect(a: Ideal, b: Ideal) -> Ideal:
    """a ∩ b via t*a + (1-t)*b and elimination of the auxiliary t."""
    if a.ring != b.ring:
        raise AmbientMismatchError("ideals in different rings")
    ring = a.ring
    ext = ring.extended()
    t = ext.variable(ext.nvars - 1)
    lift = lambda f: Polynomial(ext, {e + (0,): c for e, c in f.terms.items()})
    gens = [t * lift(f) for f in a.generators if not f.is_zero()]
    gens += [(ext.one() - t) * lift(g) for g in b.generators if not g.is_zero()]
    if not gens:
        return Ideal(ring, ())
    return Ideal(ring, _eliminate_last(gens, ring))


def _divide_exact(f: Polynomial, d: Polynomial, order: TermOrder) -> Polynomial:
    """f / d for f in (d); division must be exact."""
    ring = f.ring
    p = ring.characteristic
    ld = d.leading_monomial(order)
    inv = pow(d.terms[ld], -1, p)
    q: dict[Monomial, int] = {}
    work = dict(f.terms)
    while work:
        mono = max(work, key=order.key)
        if not _monomial_divides(ld, mono):
            raise ValueError("inexact division")
        shift = _monomial_quot(mono, ld)
        c = work[mono] * inv % p
        q[shift] = c
        for de, dc in d.terms.items():
            key = tuple(x + y for x, y in zip(de, shift))
            val = (work.get(key, 0) - c * dc) % p
            if val:
                work[key] = val
            elif key in work:
                del work[key]
    return Polynomial(ring, q)


def _quotient_by_poly(a: Ideal, f: Polynomial) -> Ideal:
    meet = intersect(a, Ideal(a.ring, (f,)))
    order = a.ring.order
    return Ideal(a.ring, [_divide_exact(g, f, order) for g in meet.generators])


def ideal_quotient(a: Ideal, b: Ideal) -> Ideal:
    """(a : b) = {f : f*b ⊆ a}."""
    if a.ring != b.ring:
        raise AmbientMismatchError("ideals in different rings")
    nonzero = [g for g in b.generators if not g.is_zero()]
    if not nonzero:
        return Ideal(a.ring, (a.ring.one(),))
    result: Ideal | None = None
    for f in nonzero:
        q = _quotient_by_poly(a, f)
        result = q if result is None else intersect(result, q)
    return result


# steps `saturate` and the order filtration may take before they give up
SATURATION_CAP = 50


def saturate(a: Ideal, b: Ideal) -> tuple[Ideal, int]:
    """(a : b^inf) and the stabilization exponent s with (a:b^s) = (a:b^(s+1))."""
    current = a
    for s in range(SATURATION_CAP + 1):
        nxt = ideal_quotient(current, b)
        if nxt.equals(current):
            return current, s
        current = nxt
    raise SaturationLimitError(SATURATION_CAP)


# -- standard monomials ----------------------------------------------------

def monomials_of_degree(ring: PolyRing, n: int) -> list[Monomial]:
    """All degree-n exponent tuples, sorted descending by the ring order."""
    if n < 0:
        return []
    v = ring.nvars
    out: list[Monomial] = []
    for bars in itertools.combinations(range(n + v - 1), v - 1):
        exps = []
        prev = -1
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(n + v - 2 - prev)
        out.append(tuple(exps))
    out.sort(key=ring.order.key, reverse=True)
    return out


def standard_monomials(ideal: Ideal, n: int) -> list[Monomial]:
    """Degree-n monomials outside the lead-term ideal, descending ring order."""
    leads = ideal.groebner_basis(DEGREVLEX).leading_monomials()
    return [m for m in monomials_of_degree(ideal.ring, n)
            if not any(_monomial_divides(lm, m) for lm in leads)]
