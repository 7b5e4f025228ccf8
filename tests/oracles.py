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
  the product criterion, never using the Gebauer-Moeller update.  It calls
  nothing from ``groebner``: ``max_scan_normal_form`` picks each next
  term by a scan of the whole remainder (never a heap),
  ``arith_s_polynomial`` is built with ``Polynomial`` arithmetic (never one
  dict), and the basis is tail-reduced until a pass changes nothing (never
  a single pass).
* ``solve`` and ``coordinates`` solve [d_in | reps] x = vecs for a class's
  coordinates in a basis of representatives, never reading a class off the
  rows of one [d_in | vecs] elimination as ``linalg.modulo`` does.
* ``annihilator_witnesses_per_column`` solves against the coboundaries
  once per moved representative column of a dense piece, never sharing an
  elimination.
* ``dense_piece``, ``dense_transition_matrix``, ``dense_local_coh_piece``
  and ``dense_f_map`` eliminate the whole Koszul matrices in internal degree
  n, never splitting a monomial cone into multidegree blocks.
  ``dense_local_coh_piece`` is the trailing-run detector: it reads the
  pieces and transition maps of every power up to t_max and trusts a run of
  transition isomorphisms of at least ``margin`` powers, never reading an
  entry at the settle power T(n) alone.  ``dense_f_map`` composes the
  transition maps one power at a time, never moving a class by one
  cochain map.
* ``walk_comparison_rank`` and ``walk_classes`` walk every multidegree of
  degree n at any power, never reading a multidegree off a live cap or
  composing the -1 coordinates of one.  They are the block engine's
  earlier readers of the two Buchsbaum checks.
* ``block_local_coh_piece`` runs the same detector on a monomial cone's
  multidegree blocks, for cones too large for the dense matrices: it ranks
  each transition t -> t + 1 block by block, never reading an entry at
  T(n) alone or a block dimension off a cap vector.
* ``char_loop_tokenize`` scans session text one character at a time with
  ``str.isdigit``/``str.isalpha``, never using a regular expression.  It
  is the lexer's earlier form: it accepts non-ASCII letters and digits,
  and its end-of-input column after a trailing comment is the comment's
  first column, so it agrees with ``dsl.tokenize`` only on the rest of
  ASCII input.
* ``term_loop_str`` prints a polynomial with its own per-term loop, never
  calling ``poly.render_terms``.
* ``nf_mult_matrix`` fills a multiplication matrix one column at a time,
  each column one ``normal_form`` call on ``f`` times a basis monomial,
  never reading ``GradedQuotientRing``'s per-degree normal-form table.
* ``column_differential``, ``column_transition_cochain`` and
  ``column_chain_multiplication`` build the dense Koszul matrices one
  column at a time, each column the ``coordinates`` of f times a basis
  monomial, with f built by ``Polynomial`` powers and products, never
  placing a whole ``mult_matrix`` block.
* ``cochain_labels`` spells out the dense storage order that every
  matrix above is written in; ``dense_terms`` labels a dense cochain's
  nonzero entries by it, as the witnesses' terms are listed.
* ``loop_kernel`` fills the null-space basis entry by entry from the
  ``rref`` pivots, never with one vectorized assignment.
* ``chain_local_h0_report`` builds the filtered-side report from the
  saturation chain of ``ideal_quotient`` steps and measures each order
  filtration step with a Groebner basis of ``I + m^j``, never reading a
  tangent-cone Hilbert function or a socle kernel.
* ``all_variable_torsion_ideal`` intersects the saturations by every
  variable, never stopping on an annihilating-exponent certificate or
  reading the tangent cone.
* ``monomial_loop_annihilating_exponent`` asks ``contains`` of g*u for
  every monomial u of each degree, never reducing a variable times the
  previous degree's normal forms.
* ``box_multidegrees`` walks the whole box of multidegrees and keeps the
  tuples of the right total degree, never bounding a coordinate by what
  the remaining ones can reach.
* ``enumerated_colimit_dims`` lists every multidegree of degree n, takes
  its block signature at T(n) on an engine of its own and sums the
  representative counts of the blocks, never counting the multidegrees of
  a cap in closed form or reading a block dimension off ranks.
* ``scanned_block_basis`` lists a block's basis subsets from the definition,
  one subset at a time: the capped exponent vector of each subset, checked
  for a negative entry and against every lead, never reading a bitmask or
  deciding emptiness from the negative set alone.
* ``scanned_caps`` lists every cap of the full product
  prod_j [-1, rho_j - 1], takes each settled block's basis from
  ``scanned_block_basis`` and its dimensions from ranks of the signed
  differentials mod p in plain Python, never searching the box or reading
  a dimension off basis sizes.
* ``subset_scan_dimension`` is the largest set of variables that contains
  the support of no lead monomial, found by scanning every subset, and
  ``degree_loop_top_degree`` counts ``dim(n)`` up from 0 until it
  vanishes; neither reads the block engine's live caps.  They are
  ``GradedQuotientRing``'s earlier ``krull_dimension`` and ``top_degree``.
* ``hochster_table`` reads the local cohomology table of a Stanley-Reisner
  ring off Hochster's formula, from simplicial boundary ranks mod p in
  plain Python, never building a Koszul complex or a multidegree block.
* ``schenzel_buchsbaum`` decides whether a Stanley-Reisner ring is
  Buchsbaum by Schenzel's criterion on the complex's links, never reading a
  cohomology table or a comparison map.
* ``ideal_quotient``, ``saturate``, ``h0_via_saturation`` and
  ``saturation_exponent`` are the quotient chain: (a : b) is the
  intersection over b's generators f of (a ∩ (f))/f, iterated until it
  stops, never saturating by one variable at a time, certifying a
  torsion ideal or reading the tangent cone.  ``h0_via_saturation`` is
  the independent route to row 0 of a table.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from math import comb
from types import SimpleNamespace

import numpy as np

from formring import (GradedQuotientRing, Ideal, KoszulComplexSpec,
                      StabilizedEntry, chain_multiplication, differential,
                      intersect, koszul_cohomology_piece, normal_form,
                      saturate_by_variable, standard_monomials,
                      transition_cochain)
from formring import groebner, koszul, linalg, multigraded
from formring.descent import LocalH0Report, _coefficient_matrix
from formring.dsl import Token
from formring.errors import (AmbientMismatchError, NotInIrrelevantError,
                             ParseError, SaturationLimitError)
from formring.groebner import (SATURATION_CAP, _monomial_divides,
                               _monomial_quot, monomials_of_degree)
from formring.poly import Monomial, Polynomial, TermOrder


# -- the quotient chain ----------------------------------------------------

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


def saturate(a: Ideal, b: Ideal) -> tuple[Ideal, int]:
    """(a : b^inf) and the stabilization exponent s with (a:b^s) = (a:b^(s+1))."""
    current = a
    for s in range(SATURATION_CAP + 1):
        nxt = ideal_quotient(current, b)
        if nxt.equals(current):
            return current, s
        current = nxt
    raise SaturationLimitError(SATURATION_CAP)


def h0_via_saturation(G: GradedQuotientRing) -> dict[int, int]:
    """Graded dimensions of (I : M^inf)/I: the independent route to row 0.

    Every generator g of the saturation satisfies M^s g inside I, so the
    quotient lives in degrees at most maxdeg(saturation) + s - 1; scanning
    through that bound sees the full support even across internal gaps.
    """
    if G.is_zero_ring():
        return {}
    irrelevant = Ideal(G.ring, G.ring.gens())
    sat, s = saturate(G.ideal, irrelevant)
    bound = sat.groebner_basis().max_degree() + max(s, 1)
    dims: dict[int, int] = {}
    for n in range(bound + 1):
        diff = G.dim(n) - len(standard_monomials(sat, n))
        if diff:
            dims[n] = diff
    return dims


def saturation_exponent(G: GradedQuotientRing) -> int:
    irrelevant = Ideal(G.ring, G.ring.gens())
    _, s = saturate(G.ideal, irrelevant)
    return s


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
        blocks = [G.mult_matrix(v, n) for v in G.ring.gens()]
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


def _lead(f, order):
    return max(f.terms, key=order.key)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def max_scan_normal_form(f, basis, order):
    """Fully reduce ``f`` by ``basis``, the greatest remaining term found by
    a scan of the whole remainder at every step; each term is reduced by the
    first basis element whose lead divides it."""

    p = f.ring.characteristic
    leads = [(_lead(g, order), g) for g in basis if not g.is_zero()]
    remainder = {}
    work = dict(f.terms)
    while work:
        mono = max(work, key=order.key)
        coeff = work.pop(mono)
        for lm, g in leads:
            if _divides(lm, mono):
                scale = coeff * pow(g.terms[lm], -1, p)
                for ge, gc in g.terms.items():
                    if ge != lm:
                        key = tuple(x + y - z for x, y, z in zip(ge, mono, lm))
                        work[key] = (work.get(key, 0) - scale * gc) % p
                        if not work[key]:
                            del work[key]
                break
        else:
            remainder[mono] = coeff
    return Polynomial(f.ring, remainder)


def arith_s_polynomial(f, g, order):
    """The S-polynomial as ``u*f - v*g`` in ``Polynomial`` arithmetic."""

    ring = f.ring
    p = ring.characteristic
    lf, lg = _lead(f, order), _lead(g, order)
    lcm = tuple(max(x, y) for x, y in zip(lf, lg))
    u = ring.monomial([x - y for x, y in zip(lcm, lf)], pow(f.terms[lf], -1, p))
    v = ring.monomial([x - y for x, y in zip(lcm, lg)], pow(g.terms[lg], -1, p))
    return u * f - v * g


def _monic(f, order):
    return f * pow(f.terms[_lead(f, order)], -1, f.ring.characteristic)


def naive_buchberger(generators, order, max_spolys=None):
    """Reduced Groebner basis by the textbook pair loop.

    All pairs are kept in one list that is re-sorted by (lcm total degree,
    i, j) before every pop; only coprime-lead pairs are skipped.  Returns
    None once more than ``max_spolys`` S-polynomials would be reduced: on a
    few small random ideals this loop runs for minutes.  The basis is then
    minimalized and tail-reduced until a whole pass changes nothing.
    """

    basis = [_monic(g, order) for g in generators if not g.is_zero()]
    if not basis:
        return []

    def lm(i):
        return _lead(basis[i], order)

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
        s = max_scan_normal_form(arith_s_polynomial(basis[i], basis[j], order),
                                 basis, order)
        if s.is_zero():
            continue
        basis.append(_monic(s, order))
        new = len(basis) - 1
        pairs.extend((k, new) for k in range(new))

    leads = [_lead(g, order) for g in basis]
    basis = [g for i, g in enumerate(basis)
             if not any(_divides(leads[j], leads[i])
                        and (leads[j] != leads[i] or j < i)
                        for j in range(len(basis)) if j != i)]
    changed = True
    while changed:
        changed = False
        for i, g in enumerate(basis):
            r = _monic(max_scan_normal_form(g, basis[:i] + basis[i + 1:],
                                            order), order)
            if r != g:
                basis[i] = r
                changed = True
    basis.sort(key=lambda g: (g.degree(), order.key(_lead(g, order))))
    return basis


def solve(a: np.ndarray, b: np.ndarray, p: int):
    """One solution x of a @ x = b (columns of b solved jointly), or None."""
    if b.ndim == 1:
        b = b.reshape(-1, 1)
        squeeze = True
    else:
        squeeze = False
    aug = linalg.stack([a % p, b % p])
    r, pivots = linalg.rref(aug, p)
    ncols = a.shape[1]
    if any(pc >= ncols for pc in pivots):
        return None
    x = linalg.zeros(ncols, b.shape[1])
    for i, pc in enumerate(pivots):
        x[pc] = r[i, ncols:]
    return x[:, 0] if squeeze else x


def coordinates(d_in: np.ndarray, reps: np.ndarray, vecs: np.ndarray,
                p: int) -> np.ndarray | None:
    """Coordinates of cocycles modulo im(d_in) in the basis `reps`.

    `reps` are the columns `cohomology` returns; `vecs` is one cocycle or a
    block of cocycle columns, and the answer has the same shape with one row
    per representative: the rows past d_in of a solution of
    [d_in | reps] x = vecs.  They are unique, and all zero exactly when the
    class is a coboundary.  None when some column is not a cocycle class.
    """
    if reps.shape[1] == 0 or vecs.size == 0:
        return linalg.zeros(reps.shape[1], *vecs.shape[1:])
    sol = solve(linalg.stack([d_in, reps]), vecs, p)
    return None if sol is None else sol[d_in.shape[1]:]


def annihilator_witnesses_per_column(G, i, table):
    """The witnesses of ``annihilator_is_irrelevant``, one solve per column,
    each the nonzero entries of its dense column labelled by
    ``cochain_labels``.

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
        piece = dense_piece(G, t_star, i, entry.n)
        d_in = differential(spec, i - 1, entry.n + 1)
        for j, name in enumerate(G.ring.variables):
            mult = chain_multiplication(spec, i, entry.n, j)
            for col in range(piece.dim):
                vec = piece.representatives[:, col]
                moved = linalg.matmul(mult, vec.reshape(-1, 1), G.p)[:, 0]
                if solve(d_in, moved, G.p) is None:
                    witnesses.append((name, entry.n, [
                        [[G.ring.variables[l] for l in J],
                         str(G.ring.monomial(mono)), c]
                        for J, mono, c in dense_terms(spec, i, entry.n, vec)]))
    return witnesses


def dense_terms(spec, q, n, vec):
    """The nonzero entries of the dense cochain ``vec`` of [K^q]_n as
    (subset, monomial, coefficient), in the order of ``cochain_labels``."""

    return [(J, mono, int(c))
            for (J, mono), c in zip(cochain_labels(spec, q, n), vec) if c]


@lru_cache(maxsize=None)
def dense_piece(G, t, i, n):
    """[H^i(x^t; G)]_n from the kernel and image of the dense differentials:
    its ``dim`` and dense ``representatives``."""

    reps = koszul._dense_representatives(KoszulComplexSpec(G, t), i, n)
    return SimpleNamespace(i=i, n=n, dim=reps.shape[1], representatives=reps)


@lru_cache(maxsize=None)
def dense_transition_matrix(G, t, i, n):
    """The transition map t -> t + 1 on the dense pieces, in coordinates."""

    src, tgt = dense_piece(G, t, i, n), dense_piece(G, t + 1, i, n)
    moved = linalg.matmul(transition_cochain(KoszulComplexSpec(G, t), i, n),
                          src.representatives, G.p)
    mat = coordinates(
        differential(KoszulComplexSpec(G, t + 1), i - 1, n),
        tgt.representatives, moved, G.p)
    assert mat is not None, "transition image is not a cocycle class"
    return mat


def dense_f_map(G, i, n, power):
    """The composite of the dense transition maps from t = 1 to ``power``."""

    acc = linalg.identity(dense_piece(G, 1, i, n).dim)
    for t in range(1, power):
        acc = linalg.matmul(dense_transition_matrix(G, t, i, n), acc, G.p)
    return acc


def _detector_t_max(G, cfg):
    """cfg.t_max, raised on a 0-dimensional ring past the top degree.

    There every cochain block in degree n lives in ring degree >= n + t, so
    every row vanishes for good once t passes the top degree minus n; t_max
    is raised past that, plus the margin, so the settled tail shows even at
    the window's left end.
    """

    if not G.is_zero_ring() and G.krull_dimension() == 0:
        top = G.top_degree()
        return max(cfg.t_max, top - min(cfg.n_lo, 0) + cfg.margin + 2)
    return cfg.t_max


def _trailing_run(i, n, dims, iso, cfg):
    """The entry at the start of the trailing run of isomorphisms."""

    t_max = len(dims)
    start = t_max
    while start > 1 and iso[start - 2]:
        start -= 1
    return StabilizedEntry(i=i, n=n, dim=dims[start - 1], power=start,
                           stabilized=t_max - start >= cfg.margin,
                           history=tuple(dims), settled_by="detector")


def dense_local_coh_piece(G, i, n, cfg):
    """The entry the trailing-run detector reads off the dense pieces and
    transition maps of the powers 1..t_max."""

    t_max = _detector_t_max(G, cfg)
    dims = [dense_piece(G, t, i, n).dim for t in range(1, t_max + 1)]
    iso = []
    for t in range(1, t_max):
        mat = dense_transition_matrix(G, t, i, n)
        iso.append(mat.shape[0] == mat.shape[1]
                   and linalg.rank(mat, G.p) == mat.shape[0])
    return _trailing_run(i, n, dims, iso, cfg)


def block_local_coh_piece(G, i, n, cfg):
    """The same detector on a monomial cone's multidegree blocks.

    The dimensions are those of ``koszul_cohomology_piece`` at each power;
    the transition t -> t + 1 keeps every multidegree a with -t <= a_j <
    rho_j, so it is an isomorphism when both dimensions equal the sum of
    its block ranks.
    """

    eng = multigraded.engine(G)
    t_max = _detector_t_max(G, cfg)
    dims = [koszul_cohomology_piece(KoszulComplexSpec(G, t), i, n).dim
            for t in range(1, t_max + 1)]
    iso = []
    for t in range(1, t_max):
        rank = sum(linalg.rank(eng.block_map(i, eng.signature(a, t),
                                             eng.signature(a, t + 1)), G.p)
                   for a in eng.multidegrees(n, -t))
        iso.append(dims[t - 1] == dims[t] == rank)
    return _trailing_run(i, n, dims, iso, cfg)


def walk_comparison_rank(G, i, n, power):
    """Rank of [H^i(x; G)]_n -> [H^i(x^power; G)]_n on a monomial cone,
    summed over blocks.

    From block signature(a, 1) to signature(a, power) the cochain map
    is (L, b) -> (L, b + (power - 1) 1_L).  At power 1 only
    multidegrees with every a_j >= -1 occur.
    """

    eng = multigraded.engine(G)
    rank = 0
    for a in eng.multidegrees(n, -1):
        src, tgt = eng.signature(a, 1), eng.signature(a, power)
        if eng.dims(tgt)[i] and eng.dims(src)[i]:
            rank += eng.block_map(i, src, tgt).shape[0]
    return rank


def walk_classes(G, t, i, n):
    """(a, k, terms) for column k of block a's representatives of
    [H^i(x^t; G)]_n on a monomial cone, with its nonzero terms (L, b, c),
    c e_L x^b for b = a + t 1_L, in block order.  A class's last term is its
    kernel vector's free one; the classes are sorted by it in the dense
    order (`koszul`): by L, then by reversed b, which is DEGREVLEX
    descending.
    """

    eng = multigraded.engine(G)
    found = []
    for a in eng.multidegrees(n, -t):
        sig = eng.signature(a, t)
        # a settled block's cap tells, with no block built, when it
        # has no class
        if sig[1] == eng.rho and not eng.dims(sig)[i]:
            continue
        blk = eng.block(sig)
        reps = blk.cohomology(i)
        for k in range(reps.shape[1]):
            found.append((a, k, [
                (L, tuple(x + t * (j in L) for j, x in enumerate(a)),
                 int(c))
                for L, c in zip(blk.basis[i], reps[:, k]) if c]))
    return sorted(found, key=lambda cls: (cls[2][-1][0],
                                          cls[2][-1][1][::-1]))


def char_loop_tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text[i:i + 2] == "..":
            tokens.append(Token("punct", "..", line, col))
            i += 2
            col += 2
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in ";,=^*+-(){}:":
            tokens.append(Token("punct", c, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


def term_loop_str(f) -> str:
    if not f.terms:
        return "0"
    p = f.ring.characteristic
    parts: list[tuple[str, str]] = []
    for exps, c in f.sorted_terms():
        signed = c if c <= p // 2 else c - p
        sign = "-" if signed < 0 else "+"
        mag = abs(signed)
        factors = []
        for name, e in zip(f.ring.variables, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def nf_mult_matrix(G, f, n):
    """Multiplication by homogeneous ``f`` on [G]_n, column by column."""

    source = G.graded_basis(n)
    target_degree = n + f.degree()
    target = G.graded_basis(target_degree)
    index = {m: i for i, m in enumerate(target)}
    mat = linalg.zeros(len(target), len(source))
    for j, mono in enumerate(source):
        prod = normal_form(f * G.ring.monomial(mono), G.gb.elements,
                           G.gb.order)
        for exps, c in prod.terms.items():
            mat[index[exps], j] = c
    return mat


def _column_by_column(G, src_sets, tgt_sets, degree, shift, images):
    """The map e_J * u -> sum of sign * (f * u) e_K over (K, sign, f) in
    ``images(J)``, for u a basis monomial of [G]_degree, one column each."""

    size = G.dim(degree + shift)
    tgt = {K: b for b, K in enumerate(tgt_sets)}
    labels = [(J, mono) for J in src_sets for mono in G.graded_basis(degree)]
    mat = linalg.zeros(len(tgt_sets) * size, len(labels))
    for c, (J, mono) in enumerate(labels):
        u = G.ring.monomial(mono)
        for K, sign, f in images(J):
            b = tgt[K]
            mat[b * size:(b + 1) * size, c] += sign * G.coordinates(
                f * u, degree + shift)
    return mat % G.p


def _exterior(m, q):
    return list(itertools.combinations(range(m), q)) if q >= 0 else []


def cochain_labels(spec, q, n):
    """The dense storage order of [K^q]_n: (subset, monomial) labels,
    subsets in combinations order, each followed by the graded basis."""

    block = spec.G.graded_basis(n + spec.t * q)
    return [(J, mono) for J in _exterior(spec.m, q) for mono in block]


def column_differential(spec, q, n):
    """``koszul.differential`` at degree q, column by column."""

    m, t, x = spec.m, spec.t, spec.G.ring.gens()
    return _column_by_column(
        spec.G, _exterior(m, q), _exterior(m, q + 1), n + t * q, t,
        lambda J: [(tuple(sorted(J + (j,))),
                    (-1) ** len([l for l in J if l < j]), x[j] ** t)
                   for j in range(m) if j not in J])


def column_transition_cochain(spec, q, n, step=1):
    """``koszul.transition_cochain`` at degree q, column by column."""

    x = spec.G.ring.gens()

    def images(J):
        f = spec.G.ring.one()
        for j in J:
            f = f * x[j] ** step
        return [(J, 1, f)]

    subsets = _exterior(spec.m, q)
    return _column_by_column(spec.G, subsets, subsets, n + spec.t * q,
                             step * q, images)


def column_chain_multiplication(spec, q, n, var_index):
    """``koszul.chain_multiplication`` at degree q, column by column."""

    subsets = _exterior(spec.m, q)
    xj = spec.G.ring.gens()[var_index]
    return _column_by_column(spec.G, subsets, subsets, n + spec.t * q, 1,
                             lambda J: [(J, 1, xj)])


def loop_kernel(a, p):
    """``linalg.kernel`` as a double loop over free and pivot columns."""

    nrows, ncols = a.shape
    if ncols == 0:
        return linalg.zeros(0, 0)
    if nrows == 0:
        return linalg.identity(ncols)
    r, pivots = linalg.rref(a, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = linalg.zeros(ncols, len(free))
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for i, pc in enumerate(pivots):
            basis[pc, k] = (-int(r[i, fc])) % p
    return basis


def _order_histogram(ideal, basis, p):
    """Dimensions of the induced order filtration on span(basis).

    The order of a class is the largest j with some representative inside
    the j-th power of the irrelevant ideal, computed as the kernel drop of
    span(basis) mapped into ring/(ideal + irrelevant^j).
    """

    k = len(basis)
    if k == 0:
        return {}
    ring = ideal.ring

    def filtration_dim(j):
        gens = list(ideal.generators) + [
            ring.monomial(m) for m in monomials_of_degree(ring, j)]
        layer = Ideal(ring, gens)
        forms = [layer.normal_form(g) for g in basis]
        return k - linalg.rank(_coefficient_matrix(forms), p)

    hist = {}
    prev = k  # every class lies in the 0-th filtration step
    for j in range(1, groebner.SATURATION_CAP + 2):
        cur = filtration_dim(j)
        if prev - cur:
            hist[j - 1] = prev - cur
        prev = cur
        if cur == 0:
            return hist
    raise SaturationLimitError(groebner.SATURATION_CAP)


def _span_dims(ideal, reps, p):
    """Rank and by-order histogram of the normal-form classes of reps."""

    forms = [nf for nf in (ideal.normal_form(g) for g in reps) if nf]
    chosen = [forms[c] for c in linalg.rref(_coefficient_matrix(forms), p)[1]]
    return len(chosen), _order_histogram(ideal, chosen, p)


def chain_local_h0_report(A_ideal):
    """``local_h0_report`` from the saturation chain A, (A : m), ...

    (A : m) is the socle ideal, and the chain goes on from it until it
    stops; s counts its steps.  Both histograms come from
    ``_order_histogram``.
    """

    ring = A_ideal.ring
    p = ring.characteristic
    if not A_ideal.in_irrelevant():
        raise NotInIrrelevantError(
            "the input ideal must lie inside the irrelevant ideal")
    irrelevant = Ideal(ring, ring.gens())
    socle_ideal = ideal_quotient(A_ideal, irrelevant)
    if socle_ideal.equals(A_ideal):
        torsion_ideal, s = A_ideal, 0
    else:
        torsion_ideal, s = saturate(socle_ideal, irrelevant)
        s += 1
        if s > groebner.SATURATION_CAP:
            raise SaturationLimitError(groebner.SATURATION_CAP)
    f0 = socle_ideal.equals(torsion_ideal)
    socle_dim, socle_hist = _span_dims(
        A_ideal, list(socle_ideal.generators), p)
    torsion_gens = list(torsion_ideal.generators)
    reps = [g * ring.monomial(m) for g in torsion_gens
            for e in range(max(s, 1)) for m in monomials_of_degree(ring, e)]
    torsion_dim, torsion_hist = _span_dims(A_ideal, reps, p)
    certificates = [
        {"generator": str(g),
         "exponent": monomial_loop_annihilating_exponent(A_ideal, g,
                                                         max(s, 1))}
        for g in torsion_gens if not A_ideal.contains(g)]

    def strings(ideal):
        return [str(g) for g in ideal.generators if not A_ideal.contains(g)]

    return LocalH0Report(
        socle_dim=socle_dim, torsion_dim=torsion_dim,
        socle_generators=strings(socle_ideal),
        torsion_generators=strings(torsion_ideal),
        socle_dims_by_order=socle_hist, torsion_dims_by_order=torsion_hist,
        certificates=certificates, saturation_exponent=s, f0_surjective=f0)


def all_variable_torsion_ideal(A_ideal):
    """(A : m^inf) as the intersection of the (A : x_j^inf) over every
    variable; A itself as soon as one of them is A."""

    torsion = None
    for j in range(A_ideal.ring.nvars):
        factor = saturate_by_variable(A_ideal, j)
        if all(A_ideal.contains(g) for g in factor.generators):
            return A_ideal
        torsion = factor if torsion is None else intersect(torsion, factor)
    return torsion


def monomial_loop_annihilating_exponent(ideal, g, cap):
    """The least e <= cap with g*u in the ideal for every monomial u of
    degree e, or None."""

    ring = ideal.ring
    for e in range(cap + 1):
        if all(ideal.contains(g * ring.monomial(m))
               for m in monomials_of_degree(ring, e)):
            return e
    return None


def box_multidegrees(rho, n, lowest):
    """Multidegrees of total degree n with lowest <= a_j < rho_j, in
    ``itertools.product`` order over the first m - 1 coordinates."""

    for head in itertools.product(*(range(lowest, r) for r in rho[:-1])):
        last = n - sum(head)
        if lowest <= last < rho[-1]:
            yield head + (last,)


def enumerated_colimit_dims(G, n):
    """dim [H^i_M(S/in(I))]_n for i = 0..m: the multidegrees a of degree n
    with -T(n) <= a_j < rho_j, one count per block signature at T(n)."""

    eng = multigraded._Engine(G)
    t = eng.settle_power(n)
    shared = Counter(eng.signature(a, t) for a in eng.multidegrees(n, -t))
    shared.pop(None, None)
    blocks = [(eng.block(sig), k) for sig, k in shared.items()]
    return tuple(sum(k * blk.cohomology(i).shape[1] for blk, k in blocks)
                 for i in range(eng.m + 1))


def scanned_block_basis(eng, sig):
    """The basis subsets L of each size of the block with signature
    ``sig = (outside, inside)``: x^b with b_j = inside_j on L and outside_j
    off it must have b >= 0 and no lead dividing it."""

    outside, inside = sig

    def standard(L):
        b = [inside[j] if j in L else outside[j] for j in range(eng.m)]
        return min(b, default=0) >= 0 and not any(
            all(u <= x for u, x in zip(lead, b)) for lead in eng.leads)

    return [[L for L in itertools.combinations(range(eng.m), q)
             if standard(L)] for q in range(eng.m + 1)]


def scanned_caps(eng):
    """{c: block dimensions} for each cap c, -1 <= c_j < rho_j, whose
    settled block (c, rho) has some nonzero H^q."""

    live = {}
    for c in itertools.product(*(range(-1, r) for r in eng.rho)):
        basis = scanned_block_basis(eng, (c, eng.rho))
        # ranks[q + 1] is the rank of d_q; e_L goes to the sum over j outside
        # L of (-1)^#{l in L : l < j} e_(L + j)
        ranks = [0] * (eng.m + 2)
        for q in range(eng.m):
            index = {L: k for k, L in enumerate(basis[q + 1])}
            rows = []
            for L in basis[q]:
                row = [0] * len(index)
                for j in range(eng.m):
                    up = tuple(sorted(L + (j,)))
                    if j not in L and up in index:
                        row[index[up]] = (-1) ** sum(l < j for l in L)
                rows.append(row)
            ranks[q + 1] = _rank_mod_p(rows, eng.p)
        dims = tuple(len(basis[q]) - ranks[q + 1] - ranks[q]
                     for q in range(eng.m + 1))
        if any(dims):
            live[c] = dims
    return live


def subset_scan_dimension(G):
    """dim S/in(I): the size of a largest set of variables that contains
    the support of no lead monomial."""
    nvars = G.ring.nvars
    supports = [{v for v, e in enumerate(lead) if e}
                for lead in G.gb.leading_monomials()]
    return max(
        size for size in range(nvars + 1)
        for free in itertools.combinations(range(nvars), size)
        if not any(s <= set(free) for s in supports))


def degree_loop_top_degree(G):
    """Largest n with [G]_n != 0, for a 0-dimensional G."""
    n = 0
    last = -1
    while G.dim(n) != 0:
        last = n
        n += 1
    return last


def _rank_mod_p(rows, p):
    """Rank of an integer matrix, given as a list of rows, over GF(p)."""

    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((k for k in range(rank, len(rows)) if rows[k][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for k, row in enumerate(rows):
            if k != rank and row[c]:
                rows[k] = [(a - row[c] * b) % p
                           for a, b in zip(row, rows[rank])]
        rank += 1
    return rank


def reduced_cohomology_dims(faces, p):
    """dim of the reduced cohomology of a simplicial complex over GF(p), as
    {q: dim} for q = -1..dim; ``faces`` holds the empty face."""

    by_size = {}
    for face in faces:
        by_size.setdefault(len(face), []).append(tuple(sorted(face)))

    def boundary_rank(s):
        # the boundary from faces of size s to faces of size s - 1
        if s == 0 or s not in by_size:
            return 0
        index = {f: k for k, f in enumerate(by_size[s - 1])}
        rows = []
        for face in by_size[s]:
            row = [0] * len(index)
            for k in range(s):
                row[index[face[:k] + face[k + 1:]]] = (-1) ** k
            rows.append(row)
        return _rank_mod_p(rows, p)

    top = max(by_size)
    ranks = [boundary_rank(s) for s in range(top + 2)]
    return {s - 1: len(by_size[s]) - ranks[s] - ranks[s + 1]
            for s in range(top + 1)}


def hochster_table(faces, nvars, p, degrees):
    """dim [H^i_m(k[D])]_n for i = 0..nvars and n in ``degrees``, where D is
    the simplicial complex ``faces`` (its empty face included) on vertices
    0..nvars - 1 and k = GF(p).

    Hochster's formula (Bruns-Herzog 5.3.8): the multidegree a <= 0 with
    negative support F contributes dim H~^(i - |F| - 1)(lk F) when F is a
    face, and there are C(-n - 1, |F| - 1) such a of total degree n < 0.
    """

    faces = {frozenset(face) for face in faces}
    links = {
        F: reduced_cohomology_dims(
            [g for g in faces if not g & F and g | F in faces], p)
        for F in faces}
    table = {}
    for i in range(nvars + 1):
        for n in degrees:
            if n > 0:
                dim = 0
            elif n == 0:
                dim = links[frozenset()].get(i - 1, 0)
            else:
                dim = sum(comb(-n - 1, len(F) - 1)
                          * links[F].get(i - len(F) - 1, 0)
                          for F in faces if F)
            table[(i, n)] = dim
    return table


def schenzel_buchsbaum(faces, p):
    """Is k[D] Buchsbaum over k = GF(p), for the simplicial complex
    ``faces`` (its empty face included)?

    Schenzel (1981): exactly when D is pure and, for every nonempty face F,
    the reduced cohomology of lk F vanishes below dim lk F.
    """

    faces = {frozenset(face) for face in faces}
    facets = [F for F in faces if not any(F < G for G in faces)]
    if len({len(F) for F in facets}) > 1:
        return False
    for F in faces:
        if not F:
            continue
        link = [g for g in faces if not g & F and g | F in faces]
        top = max(len(g) for g in link) - 1
        if any(dim for q, dim in reduced_cohomology_dims(link, p).items()
               if q < top):
            return False
    return True
