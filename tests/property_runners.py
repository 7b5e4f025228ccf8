"""Seeded randomized property suites.

Each runner draws its own instances from a seeded generator, checks one
algebraic identity per case, and returns the number of cases checked, so
the acceptance gate can demand a case count while unit tests reuse the
same code at smaller sizes.  A failure raises AssertionError carrying the
instance that broke.
"""

from __future__ import annotations

import random

from formring import (
    DEGREVLEX,
    LEX,
    GradedQuotientRing,
    Ideal,
    KoszulComplexSpec,
    PolyRing,
    buchberger,
    cochain_dim,
    differential,
    koszul_cohomology_piece,
    linalg,
    normal_form,
    s_polynomial,
)
from oracles import ideal_quotient, saturate

PRIMES = (2, 3, 5, 32003)
NAMES = ("x", "y", "z")


def _random_ring(rng: random.Random) -> PolyRing:
    nv = rng.randint(1, 3)
    return PolyRing(NAMES[:nv], rng.choice(PRIMES))


def _random_monomial(rng: random.Random, ring: PolyRing, degree: int):
    exps = [0] * ring.nvars
    for _ in range(degree):
        exps[rng.randrange(ring.nvars)] += 1
    return tuple(exps)


def _random_homogeneous(rng: random.Random, ring: PolyRing, degree: int):
    terms = {}
    for _ in range(rng.randint(1, 2)):
        coeff = rng.randint(1, ring.characteristic - 1)
        terms[_random_monomial(rng, ring, degree)] = coeff
    return ring.from_terms(terms)


def _random_graded_quotient(rng: random.Random) -> GradedQuotientRing:
    ring = _random_ring(rng)
    gens = []
    for _ in range(rng.randint(0, 3)):
        gens.append(_random_homogeneous(rng, ring, rng.randint(1, 3)))
    return GradedQuotientRing(Ideal(ring, gens))


def _random_polynomial(rng: random.Random, ring: PolyRing):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        coeff = rng.randint(1, ring.characteristic - 1)
        terms[_random_monomial(rng, ring, rng.randint(0, 3))] = coeff
    return ring.from_terms(terms)


def run_dd_zero(n_cases: int, seed: int = 101) -> int:
    """Composing adjacent Koszul differentials always gives zero."""
    rng = random.Random(seed)
    checked = 0
    while checked < n_cases:
        G = _random_graded_quotient(rng)
        spec = KoszulComplexSpec(G, rng.randint(1, 2))
        i = rng.randint(0, G.ring.nvars - 1)
        n = rng.randint(-2, 3)
        lo = differential(spec, i, n)
        hi = differential(spec, i + 1, n)
        if lo.size and hi.size:
            prod = linalg.matmul(hi, lo, G.p)
            assert not prod.any(), (
                f"d o d != 0 for {G.ideal} i={i} n={n} t={spec.t}")
        checked += 1
    return checked


def run_euler_identity(n_cases: int, seed: int = 202) -> int:
    """Alternating sums of cochain and cohomology dimensions agree."""
    rng = random.Random(seed)
    checked = 0
    while checked < n_cases:
        G = _random_graded_quotient(rng)
        spec = KoszulComplexSpec(G, rng.randint(1, 2))
        n = rng.randint(-2, 3)
        m = G.ring.nvars
        chain = sum((-1) ** p * cochain_dim(spec, p, n)
                    for p in range(m + 1))
        coh = sum((-1) ** i * koszul_cohomology_piece(spec, i, n).dim
                  for i in range(m + 1))
        assert chain == coh, (
            f"Euler identity failed for {G.ideal} n={n} t={spec.t}: "
            f"{chain} != {coh}")
        checked += 1
    return checked


def _permute_variables(G: GradedQuotientRing, perm) -> GradedQuotientRing:
    """S/I with variable j renamed to variable perm[j] in every generator."""
    ring = G.ring

    def move(exps):
        out = [0] * ring.nvars
        for j, e in enumerate(exps):
            out[perm[j]] = e
        return tuple(out)

    return GradedQuotientRing(Ideal(ring, [
        ring.from_terms({move(exps): c for exps, c in g.terms.items()})
        for g in G.ideal.generators]))


def run_permutation_invariance(n_cases: int, seed: int = 303) -> int:
    """Cohomology dimensions ignore the ordering of the ring's variables."""
    rng = random.Random(seed)
    checked = 0
    while checked < n_cases:
        G = _random_graded_quotient(rng)
        m = G.ring.nvars
        perm = list(range(m))
        rng.shuffle(perm)
        t = rng.randint(1, 2)
        n = rng.randint(-2, 3)
        base = KoszulComplexSpec(G, t)
        moved = KoszulComplexSpec(_permute_variables(G, perm), t)
        for i in range(m + 1):
            a = koszul_cohomology_piece(base, i, n).dim
            b = koszul_cohomology_piece(moved, i, n).dim
            assert a == b, (
                f"permuting the variables changed dims for {G.ideal} i={i} "
                f"n={n} t={t} perm={perm}: {a} != {b}")
        checked += 1
    return checked


def run_buchberger_criterion(n_cases: int, seed: int = 404) -> int:
    """Every S-polynomial of a computed basis reduces to zero against it,
    and every input generator is a member."""
    rng = random.Random(seed)
    checked = 0
    while checked < n_cases:
        ring = _random_ring(rng)
        order = rng.choice([DEGREVLEX, LEX])
        gens = [_random_polynomial(rng, ring)
                for _ in range(rng.randint(1, 3))]
        basis = buchberger(gens, order)
        for a in range(len(basis)):
            for b in range(a + 1, len(basis)):
                s = s_polynomial(basis[a], basis[b], order)
                rem = normal_form(s, basis, order)
                assert rem.is_zero(), (
                    f"S-pair not reducing for {gens} order={order}")
        for g in gens:
            assert normal_form(g, basis, order).is_zero(), (
                f"input generator escaped its own basis: {gens}")
        checked += 1
    return checked


def run_saturation_chains(n_cases: int, seed: int = 505) -> int:
    """Colon powers ascend, stabilize at the saturation, and stay stable."""
    rng = random.Random(seed)
    checked = 0
    while checked < n_cases:
        ring = _random_ring(rng)
        gens = []
        for _ in range(rng.randint(1, 3)):
            f = _random_polynomial(rng, ring)
            if f.constant_term() != 0:
                f = f - ring.constant(f.constant_term())
            if not f.is_zero():
                gens.append(f)
        if not gens:
            continue
        I = Ideal(ring, gens)
        M = Ideal(ring, ring.gens())
        sat, s = saturate(I, M)
        current = I
        for _ in range(s):
            nxt = ideal_quotient(current, M)
            for g in current.groebner_basis().elements:
                assert nxt.normal_form(g).is_zero(), (
                    f"colon chain not ascending for {gens}")
            current = nxt
        # after s steps the chain has reached the saturation exactly
        want = [str(g) for g in sat.groebner_basis().elements]
        got = [str(g) for g in current.groebner_basis().elements]
        assert want == got, f"saturation mismatch for {gens}: {got} != {want}"
        again = ideal_quotient(sat, M)
        assert [str(g) for g in again.groebner_basis().elements] == want, (
            f"saturation not stable for {gens}")
        checked += 1
    return checked


ALL_RUNNERS = {
    "koszul_dd_zero": run_dd_zero,
    "euler_identity": run_euler_identity,
    "permutation_invariance": run_permutation_invariance,
    "buchberger_criterion": run_buchberger_criterion,
    "saturation_chains": run_saturation_chains,
}
