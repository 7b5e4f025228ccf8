"""Koszul cohomology of monomial cones, one multidegree block at a time.

When the DEGREVLEX Groebner basis of G = S/J is all monomials, K(x^t; G)
splits into Z^m-graded blocks, Takayama's degree complexes (Takayama 2005;
Miller and Sturmfels, Combinatorial Commutative Algebra, ch. 13).  In
multidegree a, the degree-p cochains have the basis e_L * x^b for the subsets
L of size p with b = a + t*1_L >= 0 and x^b outside J.  The differential
sends it to the sum over j outside L of sign(j, L) e_(L+j) * x^(b + t e_j),
so its entries are 0/±1 lookups, and the comparison map to power t + s
sends (L, b) to (L, b + s 1_L) inside the same multidegree.

Whether x^b lies in J depends only on min(b_j, rho_j), where rho_j is the
largest exponent of x_j among the generators of J.  Hence:

* a block with some a_j >= rho_j is acyclic (x_j^t pairs L with L + j), so
  only multidegrees with a_j < rho_j are visited;
* a block is empty for t < -min(a), and once also t >= max_j(rho_j - a_j)
  it no longer changes with t and its comparison maps are the identity;
* a block is fixed by its signature: per variable, the capped exponent
  outside L and inside L.  Each signature is eliminated once per ring.

Every multidegree of total degree n with all a_j < rho_j has
a_j >= n - sum_k (rho_k - 1) + rho_j - 1, so each of them has settled once
t >= T(n) = max(1, sum_j rho_j - m + 1 - n): [H^i(x^T(n); G)]_n is exactly
[H^i_M(G)]_n (`settle_power`, `colimit_dims`), and no [H^i_M(G)]_n with
n > sum_j rho_j - m is nonzero (`degree_bound`).  Every table entry of a
monomial cone is read this way.  The engine reads only the lead monomials
of the ring's reduced basis, so for a cone that is not monomial the same
values are those of S/in(I), which bound its table.

At t = T(n) the same bound gives a_j + t >= rho_j, so the inside part of
every signature is rho itself, and a_j >= rho_j - t >= -t, so every
multidegree has a signature: the block of a is fixed by its cap,
c_j = max(a_j, -1).  A cap c with k coordinates at -1 and s = sum of its
other coordinates minus n is shared by the ways of writing s as k negated
parts a_j <= -1, that is comb(s - 1, k - 1) multidegrees when s >= k >= 1,
and one when k = s = 0.  So `colimit_dims` sums each cap's block dimensions
times that count and never lists a multidegree.  A cap with k >= 1 adds to
every degree n <= sum(c) - k, so row i has finite length exactly when no
such cap has H^i != 0, and then it lives in the degrees sum(c) of its caps,
all in [0, `degree_bound`] (`row_support`).  A block's dimensions are
size - rank(d_q) - rank(d_(q-1)); its representatives are eliminated only
when a map or a class asks for them.

Most blocks are empty, and that is decided without listing subsets.  Let
K = {j : outside_j < 0}.  Every basis subset L contains K, and x^b only
grows with L, since inside_j >= outside_j.  So the basis subsets are closed
downward above K, and the block is empty exactly when K's own x^b lies in
J: one divisibility test per lead.  For a squarefree in(I) this says the
block of a cap is empty exactly when K is not a face of the complex of
in(I), as in Hochster's formula.  A nonempty block's basis is built up from
K one index at a time, and a subset whose x^b lies in J is never extended.

The settled block of a cap c has K's x^b = x^u with u_j = c_j, or rho_j
where c_j = -1, so the caps are the points u of the box prod_j [0, rho_j]
and a cap's block is empty exactly when x^u lies in J.  Membership in J only
grows with u, so `caps()` searches the box one coordinate at a time, and
each coordinate's loop stops at the first value whose monomial, with the
later coordinates at 0, lies in J: it visits the nonempty caps and their
boundary alone.  The lowest degree of a nonempty block, |K|, holds K alone,
so d_|K| has rank 1 exactly when some K + {j} is a basis subset.  On a cap,
K + S has its x^b in J exactly when some lead's set {j : lead_j > u_j} lies
inside S, so the leads' sets of one and two elements give the sizes of
degrees |K| + 1 and |K| + 2.  When the latter is 0 the block spans at most
two degrees, and its dimensions are 1 - r and size(|K| + 1) - r for that
rank r: no block is built and nothing is eliminated.  Only a cap whose
block spans three or more degrees (RP^2, the torus) builds its block, and
only its inner differentials are eliminated.  The engine keeps the live
caps, those whose settled block has some nonzero H^i, with their dimension
vectors, and each column sums over them alone: on the r-family's cone at
r = 3, 5 of the 30 caps.  They also give d = dim S/in(I), the largest i a
live cap carries, and an Artinian ring's top degree, row 0's largest.

The two Buchsbaum checks read at T(n) off the live caps and list no
multidegree.  Every map they ask about keeps each basis subset L and moves
a block to one block (`block_map`): the moved representatives modulo the
target block's coboundaries (`linalg.modulo`), with the target's own
representatives never eliminated.  So the map's rank is the sum of the
blocks' row counts, and a class maps to a coboundary exactly when its
column there is zero.  At power 1 every a_j >= -1, so a multidegree is its
own cap, and Stueckrad's criterion sums one map to T(n) per live cap of
degree n (`comparison_rank`).  The classes lie in the multidegrees of the
live caps, one per way of writing s above (`classes`); each witness is its
class's nonzero terms (L, x^(a + T(n) 1_L), coefficient), read off its
block.  The annihilator test sends block a to block a + e_j by x_j, settled
as T(n) >= T(n + 1) (`moved_classes`).  A map with a zero side has rank 0
and sends every class to a coboundary, so only blocks with H^i != 0 at both
ends are ranked or mapped, and a settled block reads its dimensions off its
cap (`dims`), so it is built only when its classes are needed.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING

from . import groebner, linalg
from .errors import FormringError, SizeLimitError

if TYPE_CHECKING:
    import numpy as np


class _Block:
    """The degree complex of one signature: basis per degree, cohomology."""

    def __init__(self, eng: "_Engine", sig: tuple):
        outside, inside = sig
        m = eng.m
        self.eng = eng
        self._cohomology: dict[int, np.ndarray] = {}
        self._dims: list[int] | None = None
        # L's monomial x^b has b_j = inside_j on L and outside_j off it, and
        # inside_j >= max(outside_j, 0) since -t <= a_j < rho_j.  So b >= 0
        # asks L to cover K, the negative coordinates, and x^b only grows
        # with L: when K's own x^b lies in J, the block is empty.
        self.basis = [[] for _ in range(m + 1)]
        low = tuple(c if o < 0 else o for o, c in zip(outside, inside))
        if any(all(l <= b for l, b in zip(lead, low)) for lead in eng.leads):
            self._dims = [0] * (m + 1)
            return
        # Otherwise a lead divides x^b exactly when it fits under `inside`
        # and L covers the j with lead_j above outside_j: x^b is standard
        # when L contains none of those.  The standard L are closed downward
        # above K, so each is reached from K by adding indices in increasing
        # order through standard subsets.
        required = [_mask(j for j in range(m) if lead[j] > outside[j])
                    for lead in eng.leads
                    if all(l <= c for l, c in zip(lead, inside))]
        negative = tuple(j for j in range(m) if outside[j] < 0)
        level = [(negative, _mask(negative), -1)]
        while level:
            self.basis[len(level[0][0])] = sorted(L for L, _, _ in level)
            grown = []
            for L, mask, last in level:
                for j in range(last + 1, m):
                    wider = mask | 1 << j
                    if wider != mask and not any(wider & r == r
                                                 for r in required):
                        grown.append((tuple(sorted(L + (j,))), wider, j))
            level = grown

    def size(self, q: int) -> int:
        return len(self.basis[q]) if 0 <= q <= self.eng.m else 0

    def differential(self, q: int) -> np.ndarray:
        """d: degree q -> degree q + 1 in block coordinates."""
        mat = linalg.zeros(self.size(q + 1), self.size(q))
        if mat.size:
            row = {L: k for k, L in enumerate(self.basis[q + 1])}
            for c, L in enumerate(self.basis[q]):
                for j in range(self.eng.m):
                    r = None if j in L else row.get(tuple(sorted(L + (j,))))
                    if r is not None:
                        below = sum(1 for l in L if l < j)
                        mat[r, c] = self.eng.p - 1 if below % 2 else 1
        return mat

    def cohomology(self, q: int) -> np.ndarray:
        """Representative columns of H^q."""
        hit = self._cohomology.get(q)
        if hit is None:
            hit = self._cohomology[q] = linalg.cohomology(
                self.differential(q - 1), self.differential(q), self.eng.p)
        return hit

    def dim(self, q: int) -> int:
        """dim H^q: size(q) - rank(d_q) - rank(d_(q-1)), all q at once.

        The lowest nonempty degree holds K alone, so its differential has
        rank 1 exactly when the next degree is nonempty; only the
        differentials above it are eliminated."""
        if self._dims is None:
            # ranks[d + 1] is the rank of d_d for d = -1..m; a differential
            # with an empty side is never built
            ranks = [0 if not (self.size(d) and self.size(d + 1))
                     else 1 if not self.size(d - 1)
                     else linalg.rank(self.differential(d), self.eng.p)
                     for d in range(-1, self.eng.m + 1)]
            self._dims = [self.size(d) - ranks[d + 1] - ranks[d]
                          for d in range(self.eng.m + 1)]
        return self._dims[q]


class _Engine:
    """Per-ring blocks, block maps and assembled answers, each built once."""

    def __init__(self, G):
        m = G.ring.nvars
        self.m, self.p = m, G.p
        self.leads = G.gb.leading_monomials()
        self.rho = tuple(max((lead[j] for lead in self.leads), default=0)
                         for j in range(m))
        self._cache: dict[tuple, object] = {}

    def _memo(self, key: tuple, build):
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = build()
        return hit

    def multidegrees(self, n: int, lowest: int, j: int = 0):
        """Multidegrees of total degree n with lowest <= a_j < rho_j, in
        lexicographic order, one at a time (from coordinate j on)."""
        # coordinates j + 1.. can still add up to anything in [low, high]
        rest = self.rho[j + 1:]
        low, high = lowest * len(rest), sum(rest) - len(rest)
        for x in range(max(lowest, n - high), min(self.rho[j], n - low + 1)):
            tails = self.multidegrees(n - x, lowest, j + 1) if rest else [()]
            for tail in tails:
                yield (x,) + tail

    def signature(self, a: tuple[int, ...], t: int):
        """The block of multidegree a at a power t >= -min(a)."""
        return (tuple(x if x >= 0 else -1 for x in a),
                tuple(min(x + t, r) for x, r in zip(a, self.rho)))

    def block(self, sig) -> _Block:
        return self._memo(("block", sig), lambda: _Block(self, sig))

    def block_map(self, q: int, src, tgt) -> np.ndarray:
        """Induced map on H^q from block `src` to block `tgt` of the cochain
        map that keeps each basis subset L: (L, b) -> (L, b + c), as
        `linalg.modulo` of the moved representatives against the target's
        coboundaries (the identity when a block maps to itself).

        The comparison map to a higher power (c = s 1_L) and
        multiplication by x_j (c = e_j, into multidegree a + e_j) both have
        this form."""
        return self._memo(("map", q, src, tgt),
                          lambda: self._build_block_map(q, src, tgt))

    def _build_block_map(self, q: int, src_sig, tgt_sig) -> np.ndarray:
        src, tgt = self.block(src_sig), self.block(tgt_sig)
        src_reps = src.cohomology(q)
        if src_sig == tgt_sig:
            return linalg.identity(src_reps.shape[1])
        # (L, b) -> (L, b + c): kept when it stays a standard monomial
        row = {L: k for k, L in enumerate(tgt.basis[q])}
        cochain = linalg.zeros(tgt.size(q), src.size(q))
        for c, L in enumerate(src.basis[q]):
            if L in row:
                cochain[row[L], c] = 1
        moved = linalg.matmul(cochain, src_reps, self.p)
        if linalg.matmul(tgt.differential(q), moved, self.p).any():
            raise FormringError("block map image is not a cocycle class")
        return linalg.modulo(tgt.differential(q - 1), moved, self.p)

    def comparison_rank(self, i: int, n: int) -> int:
        """Rank of [H^i(x; G)]_n -> [H^i_M(G)]_n at T(n): one block map per
        live cap c of degree n with H^i != 0.  At power 1 a multidegree has
        every a_j >= -1, so it is its own cap, and its block signature(c, 1)
        maps to (c, rho) by (L, b) -> (L, b + (T(n) - 1) 1_L).
        """
        rank = 0
        for c, dims in self.caps().items():
            src = self.signature(c, 1)
            if sum(c) == n and dims[i] and self.dims(src)[i]:
                rank += self.block_map(i, src, (c, self.rho)).shape[0]
        return rank

    def dim(self, t: int, i: int, n: int) -> int:
        """dim [H^i(x^t; G)]_n, summed over its blocks as the walk lists
        them; past `groebner.MAX_MONOMIALS` multidegrees it raises
        `SizeLimitError`."""
        cap, total = groebner.MAX_MONOMIALS, 0
        for count, a in enumerate(self.multidegrees(n, -t), 1):
            if count > cap:
                raise SizeLimitError(f"degree {n} at power {t} has more than "
                                     f"{cap} multidegrees")
            total += self.dims(self.signature(a, t))[i]
        return total

    def classes(self, i: int, n: int) -> list[tuple]:
        """(a, k, terms) for column k of block a's representatives of
        [H^i(x^T(n); G)]_n, a running over its live caps' compositions, with
        its nonzero terms (L, b, c), c e_L x^b for b = a + T(n) 1_L, in block
        order.  A class's last term is its kernel vector's free one; the
        classes are sorted by it in the dense order (`koszul`): by L, then
        by reversed b, which is DEGREVLEX descending."""
        def build():
            t, found = self.settle_power(n), []
            for c in [c for c, dims in self.caps().items() if dims[i]]:
                k = c.count(-1)
                for part in _compositions(sum(c) + k - n, k):
                    rest = iter(part)
                    a = tuple(x if x >= 0 else -next(rest) for x in c)
                    blk = self.block((c, self.rho))
                    for col, rep in enumerate(blk.cohomology(i).T):
                        found.append((a, col, [
                            (L, tuple(x + t * (j in L) for j, x in
                                      enumerate(a)), int(v))
                            for L, v in zip(blk.basis[i], rep) if v]))
            return sorted(found, key=lambda cls: (cls[2][-1][0],
                                                  cls[2][-1][1][::-1]))
        return self._memo(("classes", i, n), build)

    def moved_classes(self, i: int, n: int) -> list[tuple]:
        """(j, terms) for each class of `classes(i, n)` that x_j does not
        move into a coboundary of degree n + 1, in (variable, class) order.

        x_j keeps L and sends block (cap(a), rho) to (cap(a + e_j), rho), as
        T(n) >= T(n + 1); the target is acyclic once a_j + 1 >= rho_j.
        """
        t, moved = self.settle_power(n), []
        for j in range(self.m):
            for a, k, terms in self.classes(i, n):
                if a[j] + 1 >= self.rho[j]:
                    continue
                up = a[:j] + (a[j] + 1,) + a[j + 1:]
                target = self.signature(up, t)
                if not self.dims(target)[i]:
                    continue  # every image there is a coboundary
                block = self.block_map(i, self.signature(a, t), target)
                if block[:, k].any():
                    moved.append((j, terms))
        return moved

    def degree_bound(self) -> int:
        """sum_j (rho_j - 1): every visited multidegree has a_j < rho_j."""
        return sum(self.rho) - self.m

    def settle_power(self, n: int) -> int:
        """T(n): from this power on every block of degree n has settled."""
        return max(1, self.degree_bound() + 1 - n)

    def caps(self) -> dict:
        """{c: block dimensions} for each cap c with -1 <= c_j < rho_j
        whose settled block (c, rho) has some nonzero H^i."""
        def build():
            live = {}
            for u in self._standard_box():
                c = tuple(-1 if x == r else x for x, r in zip(u, self.rho))
                dims = self._cap_dims(c, u)
                if any(dims):
                    live[c] = dims
            return live
        return self._memo(("caps",), build)

    def dims(self, sig) -> tuple[int, ...]:
        """dim H^q of the block `sig` for q = 0..m; a settled block (c, rho)
        reads its cap's, so none is built for it."""
        outside, inside = sig
        if inside == self.rho:
            return self.caps().get(outside, (0,) * (self.m + 1))
        blk = self.block(sig)
        return tuple(blk.dim(q) for q in range(self.m + 1))

    def _standard_box(self) -> list[tuple[int, ...]]:
        """The u in prod_j [0, rho_j] with x^u outside J, found one
        coordinate at a time.  Coordinate j of a prefix stops at the first
        value whose monomial, with the later coordinates 0, lies in J: every
        larger value and every completion of the prefix lies in J too.  The
        prefix itself is standard, so only a lead whose last nonzero
        exponent is at j can fit under that monomial."""
        ending = [[] for _ in range(self.m)]
        for lead in self.leads:
            last = max((j for j, e in enumerate(lead) if e), default=0)
            ending[last].append(lead)
        found = []

        def search(prefix):
            j = len(prefix)
            if j == self.m:
                found.append(prefix)
                return
            stop = min((lead[j] for lead in ending[j]
                        if all(l <= x for l, x in zip(lead, prefix))),
                       default=self.rho[j] + 1)
            for x in range(stop):
                search(prefix + (x,))

        search(())
        return found

    def _cap_dims(self, c: tuple, u: tuple) -> tuple[int, ...]:
        """The settled block dimensions of the cap c whose low monomial x^u
        is standard: u_j = c_j, or rho_j where c_j = -1."""
        m, rho = self.m, self.rho
        k = c.count(-1)
        # raising the coordinates S outside K to rho puts x^u in J exactly
        # when some lead's excess set lies inside S
        excess = [[j for j in range(m) if lead[j] > u[j]]
                  for lead in self.leads]
        blocked = {e[0] for e in excess if len(e) == 1}
        up = [j for j in range(m) if u[j] < rho[j] and j not in blocked]
        pairs = {tuple(e) for e in excess
                 if len(e) == 2 and not blocked.intersection(e)}
        if len(pairs) < math.comb(len(up), 2):
            # some K + {j, j'} is standard: three or more degrees
            blk = self.block((c, rho))
            return tuple(blk.dim(i) for i in range(m + 1))
        rank = int(bool(up))
        dims = [0] * (m + 1)
        dims[k] = 1 - rank
        if up:
            dims[k + 1] = len(up) - rank
        return tuple(dims)

    def colimit_dims(self, n: int) -> tuple[int, ...]:
        """dim [H^i_M(S/in(I))]_n for i = 0..m, read off at T(n): each live
        cap's block dimensions, times the multidegrees of degree n that
        share it."""
        def build():
            dims = [0] * (self.m + 1)
            for c, cap_dims in self.caps().items():
                k, s = c.count(-1), sum(x for x in c if x >= 0) - n
                count = (math.comb(s - 1, k - 1) if s >= k >= 1
                         else int(k == s == 0))
                for i, d in enumerate(cap_dims):
                    dims[i] += count * d
            return tuple(dims)
        return self._memo(("colimit", n), build)

    def row_support(self, i: int) -> tuple[int, ...] | None:
        """The degrees sum(c) of the live caps c with H^i != 0, where row i
        of S/in(I) is nonzero, or None when one of them has a -1 coordinate
        and so makes the row infinite (module docstring)."""
        carrying = [c for c, dims in self.caps().items() if dims[i]]
        if any(-1 in c for c in carrying):
            return None
        return tuple(sorted({sum(c) for c in carrying}))


def _mask(subset) -> int:
    return sum(1 << j for j in subset)


def _compositions(s: int, k: int) -> list[tuple[int, ...]]:
    """The ways of writing s as k positive parts (module docstring)."""
    if k == 0 or s < k:
        return [()] if k == s == 0 else []
    return [tuple(b - a for a, b in zip((0,) + cut, cut + (s,)))
            for cut in itertools.combinations(range(1, s), k - 1)]


def engine(G) -> _Engine:
    """The engine of G's reduced basis's leads, built once per ring."""
    eng = G._koszul_cache.get("multigraded")
    if eng is None:
        eng = G._koszul_cache["multigraded"] = _Engine(G)
    return eng
