"""Buchberger's algorithm and the ideal operations built on it.

Everything here is deterministic: the pair queue is a heap ordered by sugar
with ties broken by pair index, reduction always uses the first applicable
divisor in the stored basis order, and reduced bases are sorted by
(degree, term-order key) ascending.  Reduced Groebner bases are unique, so
ideal equality is tested by comparing them.

A pair's sugar is the degree its S-polynomial would have on homogenized
input (Giovini et al., "One sugar cube, please", ISSAC 1991): an input's
sugar is its degree, a pair's the larger of sugar + deg lcm - deg lead over
its two elements, and a new element takes its pair's.  On homogeneous input
it is the lcm degree; under lex, choosing by lcm degree took minutes.

`normal_form` keeps the terms still to reduce in a heap on
`TermOrder.heap_key`, so each step pops the greatest one; a reduction step
only adds smaller terms.  `_reduce_basis` tail-reduces a minimal basis in
one pass: each normal form keeps its lead (no other lead divides it) and
leaves every other term outside the lead ideal, and a basis element with
those two properties is unique, so a second pass would change nothing.
The kernel builds its results with `Polynomial._trusted`.

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

import functools
import heapq
import itertools
import math
from operator import add, le, mul, sub
from typing import Iterable, Sequence

from .errors import AmbientMismatchError, NotInIrrelevantError, SizeLimitError
from .poly import (DEGREVLEX, ELIM_LAST, Monomial, PolyRing, Polynomial,
                   TermOrder)


def _monomial_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def _monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def _monomial_quot(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(sub, a, b))


def _coprime(a: Monomial, b: Monomial) -> bool:
    return not any(map(mul, a, b))


def normal_form(f: Polynomial, basis: Sequence[Polynomial],
                order: TermOrder | None = None,
                leads: Sequence[tuple[Monomial, Polynomial]] | None = None
                ) -> Polynomial:
    """Fully reduce f: no term of the result is divisible by any basis lead.

    Canonical (independent of the division bookkeeping) when `basis` is a
    Groebner basis for `order`.  A caller that reduces by the same basis
    many times passes its (lead, element) pairs as `leads`, in basis order
    and without zero elements, so they are not rebuilt on every call.
    """
    order = order or f.ring.order
    ring = f.ring
    p = ring.characteristic
    hkey = order.heap_key
    if leads is None:
        leads = [(g.leading_monomial(order), g) for g in basis
                 if not g.is_zero()]
    remainder: dict[Monomial, int] = {}
    work = dict(f.terms)
    # every term of work is in the heap; a cancelled term leaves a stale
    # entry behind, skipped when it comes up
    heap = [(hkey(m), m) for m in work]
    heapq.heapify(heap)
    while heap:
        mono = heapq.heappop(heap)[1]
        coeff = work.pop(mono, 0)
        if not coeff:
            continue
        for lm, g in leads:
            if _monomial_divides(lm, mono):
                # subtracting scale * shift * g cancels mono exactly; every
                # other term it touches is smaller than mono
                shift = _monomial_quot(mono, lm)
                lc = g.terms[lm]
                scale = coeff if lc == 1 else coeff * pow(lc, -1, p)
                for ge, gc in g.terms.items():
                    if ge == lm:
                        continue
                    key = tuple(map(add, ge, shift))
                    old = work.get(key)
                    val = ((old or 0) - scale * gc) % p
                    if val:
                        if old is None:
                            heapq.heappush(heap, (hkey(key), key))
                        work[key] = val
                    elif old is not None:
                        del work[key]
                break
        else:
            remainder[mono] = coeff
    return Polynomial._trusted(
        ring, remainder, (order, next(iter(remainder))) if remainder else None)


def s_polynomial(f: Polynomial, g: Polynomial,
                 order: TermOrder | None = None) -> Polynomial:
    """Built in one dict; the two lead terms cancel, so neither is formed."""
    order = order or f.ring.order
    f._check_ambient(g)
    p = f.ring.characteristic
    lf, lg = f.leading_monomial(order), g.leading_monomial(order)
    lcm = _monomial_lcm(lf, lg)
    out: dict[Monomial, int] = {}
    for h, lh, sign in ((f, lf, 1), (g, lg, -1)):
        shift = _monomial_quot(lcm, lh)
        scale = sign * pow(h.terms[lh], -1, p)
        for e, c in h.terms.items():
            if e == lh:
                continue
            key = tuple(map(add, e, shift))
            val = (out.get(key, 0) + scale * c) % p
            if val:
                out[key] = val
            elif key in out:
                del out[key]
    return Polynomial._trusted(f.ring, out)


def buchberger(generators: Sequence[Polynomial],
               order: TermOrder | None = None) -> list[Polynomial]:
    """Reduced Groebner basis (monic, tail-reduced, sorted ascending).

    Pair selection: smallest sugar first, ties by pair index, from a heap.
    Pairs are pruned by the Gebauer-Moeller update.
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
    sugars: list[int] = []
    reducers: list[tuple[Monomial, Polynomial]] = []  # normal_form's leads
    queue: list[tuple[int, int, int, Monomial]] = []  # (sugar, i, j, lcm)

    def update(h: Polynomial, sugar: int) -> None:
        """Gebauer-Moeller: add h and its useful pairs, prune old pairs."""
        nonlocal queue
        new = len(basis)
        lh = h.leading_monomial(order)
        fresh = [(g, _monomial_lcm(lg, lh)) for g, lg in enumerate(leads)]
        basis.append(h)
        leads.append(lh)
        sugars.append(sugar)
        reducers.append((lh, h))
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
        queue.extend((sum(lcm) + max(sugars[g] - sum(leads[g]),
                                     sugar - sum(lh)), g, new, lcm)
                     for g, lcm in kept if not _coprime(leads[g], lh))
        heapq.heapify(queue)

    for g in gens:
        update(g.monic(order), g.degree())
    while queue:
        sugar, i, j, _ = heapq.heappop(queue)
        s = normal_form(s_polynomial(basis[i], basis[j], order), basis, order,
                        reducers)
        if not s.is_zero():
            update(s.monic(order), sugar)

    return _reduce_basis(basis, order)


def _reduce_basis(basis: list[Polynomial], order: TermOrder) -> list[Polynomial]:
    # minimalize: drop elements whose lead is divisible by another lead (of
    # equal leads the first stays)
    leads = [g.leading_monomial(order) for g in basis]
    pairs = [(li, g) for i, (li, g) in enumerate(zip(leads, basis))
             if not any(_monomial_divides(lj, li) and (lj != li or j < i)
                        for j, lj in enumerate(leads) if j != i)]
    # tail-reduce each against the others, in one pass (module docstring)
    for i, (lm, g) in enumerate(pairs):
        pairs[i] = lm, normal_form(g, (), order, pairs[:i] + pairs[i + 1:]
                                   ).monic(order)
    keep = [g for _, g in pairs]
    keep.sort(key=lambda g: (g.degree(), order.key(g.leading_monomial(order))))
    return keep


class GroebnerBasis:
    """A reduced Groebner basis together with its order."""

    def __init__(self, elements: list[Polynomial], order: TermOrder):
        self.elements = elements
        self.order = order
        self._leads = [(g.leading_monomial(order), g) for g in elements
                       if not g.is_zero()]

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def normal_form(self, f: Polynomial) -> Polynomial:
        return normal_form(f, self.elements, self.order, self._leads)

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def leading_monomials(self) -> list[Monomial]:
        return [lead for lead, _ in self._leads]

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
        self._cone: Ideal | None = None  # set by initial_forms_ideal
        self._graded = None  # S/self, set by GradedQuotientRing.of
        self._h0 = None  # set by descent.local_h0_report

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


def _reduced_ideal(ring: PolyRing, basis: list[Polynomial]) -> Ideal:
    """The Ideal of a reduced DEGREVLEX basis, which it keeps as one."""
    ideal = Ideal(ring, basis)
    ideal._gb_cache[DEGREVLEX] = GroebnerBasis(basis, DEGREVLEX)
    return ideal


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

    A homogeneous ideal is its own cone: its basis is its reduced DEGREVLEX
    basis, so no elimination runs.  Any other ideal goes through
    `_cone_by_elimination`.

    The cone is kept on `ideal`, and its generators are its reduced
    DEGREVLEX basis, so neither is computed twice.
    """
    if not ideal.in_irrelevant():
        raise NotInIrrelevantError(
            "initial forms need an ideal inside the irrelevant maximal ideal")
    if ideal._cone is None:
        if all(g.is_homogeneous() for g in ideal.generators):
            basis = ideal.groebner_basis(DEGREVLEX).elements
        else:
            basis = _cone_by_elimination(ideal)
        ideal._cone = _reduced_ideal(ideal.ring, basis)
    return ideal._cone


def _cone_by_elimination(ideal: Ideal) -> list[Polynomial]:
    """The reduced DEGREVLEX basis of the cone of any ideal inside M.

    Homogenize the generators with an auxiliary last variable, take a
    Groebner basis under the order that eliminates that variable
    (elim_last: homogenizer exponent compared first), dehomogenize and keep
    the lowest-degree form of each basis element.  With the homogenizer
    dominant, the lead of a homogeneous element sits in its minimal
    original-degree part, ties by degrevlex: Lazard's method for the local
    degree order (Greuel and Pfister, A Singular Introduction to Commutative
    Algebra), so the forms are already a DEGREVLEX basis of the cone.
    """
    ring = ideal.ring
    ext = ring.extended()
    gb = buchberger([_homogenize(g, ext) for g in ideal.generators
                     if not g.is_zero()], ELIM_LAST)
    forms = [_dehomogenize(g, ring).initial_form() for g in gb]
    return _reduce_basis([f.monic(DEGREVLEX) for f in forms], DEGREVLEX)


# -- elimination, intersection, saturation by a variable -------------------

def _lift(f: Polynomial, ext: PolyRing) -> Polynomial:
    """f in the ring with the auxiliary last variable appended."""
    return Polynomial(ext, {e + (0,): c for e, c in f.terms.items()})


def _eliminate_last(gens: Sequence[Polynomial], ring: PolyRing) -> Ideal:
    """The elimination ideal of the last variable t; the t-free part of a
    reduced elim_last basis is its reduced DEGREVLEX basis."""
    gb = buchberger(gens, ELIM_LAST)
    kept = [Polynomial(ring, {e[:-1]: c for e, c in g.terms.items()})
            for g in gb if all(e[-1] == 0 for e in g.terms)]
    return _reduced_ideal(ring, kept)


def intersect(a: Ideal, b: Ideal) -> Ideal:
    """a ∩ b via t*a + (1-t)*b and elimination of the auxiliary t."""
    if a.ring != b.ring:
        raise AmbientMismatchError("ideals in different rings")
    ring = a.ring
    ext = ring.extended()
    t = ext.variable(ext.nvars - 1)
    gens = [t * _lift(f, ext) for f in a.generators if not f.is_zero()]
    gens += [(ext.one() - t) * _lift(g, ext) for g in b.generators
             if not g.is_zero()]
    if not gens:
        return Ideal(ring, ())
    return _eliminate_last(gens, ring)


def saturate_by_variable(a: Ideal, j: int) -> Ideal:
    """(a : x_j^inf): one elimination of t from a + (1 - t*x_j).

    The elimination starts from a's Groebner basis, not its generators.
    """
    ring = a.ring
    ext = ring.extended()
    t = ext.variable(ext.nvars - 1)
    gens = [_lift(f, ext) for f in a.groebner_basis()]
    gens.append(ext.one() - t * _lift(ring.variable(j), ext))
    return _eliminate_last(gens, ring)


# the largest saturation exponent and torsion order `local_h0_report`
# accepts (its certificates stop at a0 + 1 below it)
SATURATION_CAP = 50


# -- standard monomials ----------------------------------------------------

# the most monomials one degree may list: a larger degree ends in a guard
MAX_MONOMIALS = 1_000_000


def monomials_of_degree(ring: PolyRing, n: int) -> tuple[Monomial, ...]:
    """All degree-n exponent tuples, sorted descending by the ring order."""
    return _monomials_of_degree(ring.nvars, ring.order, n)


@functools.lru_cache(maxsize=None)
def _monomials_of_degree(v: int, order: TermOrder,
                         n: int) -> tuple[Monomial, ...]:
    if n < 0:
        return ()
    if math.comb(n + v - 1, v - 1) > MAX_MONOMIALS:
        raise SizeLimitError(f"degree {n} in {v} variables has more than "
                             f"{MAX_MONOMIALS} monomials")
    out: list[Monomial] = []
    for bars in itertools.combinations(range(n + v - 1), v - 1):
        exps = []
        prev = -1
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(n + v - 2 - prev)
        out.append(tuple(exps))
    out.sort(key=order.key, reverse=True)
    return tuple(out)


def standard_monomials(ideal: Ideal, n: int) -> list[Monomial]:
    """Degree-n monomials outside the lead-term ideal, descending ring order."""
    leads = ideal.groebner_basis(DEGREVLEX).leading_monomials()
    return [m for m in monomials_of_degree(ideal.ring, n)
            if not any(_monomial_divides(lm, m) for lm in leads)]
