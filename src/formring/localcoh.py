"""Local cohomology pieces as stabilized colimits of Koszul cohomology.

[H^i_M(G)]_n is the colimit over t of [H^i(x^t; G)]_n along the transition
maps.  Each entry is computed for every power up to t_max and declared
stabilized when the trailing run of transition isomorphisms ending at t_max
has length at least `margin`; the reported power is the start of that run.
For 0-dimensional rings t_max is raised above the top socle degree, which
makes the answer exact there.  In general this is a windowed heuristic: a
run of isomorphisms longer than margin that breaks beyond t_max would be
trusted wrongly, so entries always carry their power and stabilized flag and
nothing downstream consumes an unstable value silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .graded import GradedQuotientRing
from .groebner import Ideal, saturate, standard_monomials
from .koszul import (KoszulComplexSpec, chain_multiplication, differential,
                     koszul_cohomology_piece, transition_map)


@dataclass(frozen=True)
class StabilizationConfig:
    """Window of internal degrees plus colimit stabilization controls."""

    n_lo: int
    n_hi: int
    t_max: int = 12
    margin: int = 2

    def __post_init__(self):
        if self.n_lo > self.n_hi:
            raise ValueError("empty degree window")
        if self.margin < 1:
            raise ValueError("margin must be >= 1")
        if self.t_max < self.margin + 1:
            raise ValueError("t_max must exceed margin")

    @classmethod
    def default_for(cls, G: GradedQuotientRing) -> "StabilizationConfig":
        if G.is_zero_ring():
            return cls(-1, 1)
        dim = G.krull_dimension()
        maxdeg = max(G.max_generator_degree(), 1)
        return cls(-(dim + 3), 2 * maxdeg + 3)

    def degrees(self) -> range:
        return range(self.n_lo, self.n_hi + 1)


@dataclass
class StabilizedEntry:
    """One (i, n) entry of the local cohomology table."""

    i: int
    n: int
    dim: int
    power: int
    stabilized: bool
    history: tuple[int, ...]

    def as_row(self) -> list[int]:
        return [self.i, self.n, self.dim]


def _effective_t_max(G: GradedQuotientRing, cfg: StabilizationConfig) -> int:
    if G.is_zero_ring():
        return cfg.t_max
    if G.krull_dimension() == 0:
        # Every cochain block in window degree n lives in ring degree
        # >= n + t, so all rows vanish for good once t exceeds
        # top_degree - n; add the margin so the detector can see the
        # settled tail even at the leftmost window degree.
        floor = G.top_degree() - min(cfg.n_lo, 0) + cfg.margin + 2
        return max(cfg.t_max, G.top_degree() + cfg.margin + 2, floor)
    return cfg.t_max


def local_coh_piece(G: GradedQuotientRing, i: int, n: int,
                    cfg: StabilizationConfig) -> StabilizedEntry:
    """Stabilized colimit entry for [H^i_M(G)]_n."""
    t_max = _effective_t_max(G, cfg)
    dims = []
    for t in range(1, t_max + 1):
        dims.append(koszul_cohomology_piece(KoszulComplexSpec(G, t), i, n).dim)
    iso = [transition_map(G, t, i, n).is_isomorphism()
           for t in range(1, t_max)]
    start = t_max
    while start > 1 and iso[start - 2]:
        start -= 1
    run = t_max - start
    stable = run >= cfg.margin
    return StabilizedEntry(i=i, n=n, dim=dims[start - 1], power=start,
                           stabilized=stable, history=tuple(dims))


class CohomologyTable:
    """Entries (i, internal degree n) -> stabilized dimensions over a window.

    Internal degrees are stored; checkers convert to diagonal positions
    p = n + i through positions_row, the single conversion site.
    """

    def __init__(self, entries: dict[tuple[int, int], StabilizedEntry],
                 i_max: int, cfg: StabilizationConfig,
                 synthetic: bool = False, complete: bool = False):
        self.entries = entries
        self.i_max = i_max
        self.cfg = cfg
        self.synthetic = synthetic
        # complete: rows above i_max are identically zero (synthetic tables
        # by fiat; computed tables when i_max reaches the variable count,
        # beyond which every cochain space vanishes).
        self.complete = synthetic or complete

    @classmethod
    def synthetic_from(cls,
                       literal: dict[tuple[int, int], int]) -> "CohomologyTable":
        """A fully specified table: absent entries are genuinely zero."""
        if literal:
            i_max = max(i for i, _ in literal)
            lo = min(n for _, n in literal) - 1
            hi = max(n for _, n in literal) + 1
        else:
            i_max, lo, hi = 0, -1, 1
        cfg = StabilizationConfig(lo, hi, t_max=3, margin=1)
        entries = {}
        for i in range(i_max + 1):
            for n in range(lo, hi + 1):
                d = literal.get((i, n), 0)
                entries[(i, n)] = StabilizedEntry(
                    i=i, n=n, dim=d, power=1, stabilized=True, history=(d,))
        return cls(entries, i_max, cfg, synthetic=True)

    def entry(self, i: int, n: int) -> StabilizedEntry | None:
        return self.entries.get((i, n))

    def dim(self, i: int, n: int) -> int | None:
        e = self.entry(i, n)
        return None if e is None else e.dim

    def row(self, i: int) -> list[StabilizedEntry]:
        return [self.entries[(i, n)] for n in self.cfg.degrees()
                if (i, n) in self.entries]

    def row_stabilized(self, i: int) -> bool:
        return all(e.stabilized for e in self.row(i))

    def nonzero_row(self, i: int) -> list[StabilizedEntry]:
        return [e for e in self.row(i) if e.dim != 0]

    def positions_row(self, i: int) -> list[tuple[int, int]]:
        """Nonzero entries of row i as (diagonal position p = n + i, dim)."""
        return [(e.n + i, e.dim) for e in self.nonzero_row(i)]

    def row_finite_length(self, i: int) -> bool:
        """Support visibly finite: boundary entries vanish, row stabilized."""
        if self.synthetic:
            return True
        if not self.row_stabilized(i):
            return False
        lo, hi = self.cfg.n_lo, self.cfg.n_hi
        dlo, dhi = self.dim(i, lo), self.dim(i, hi)
        return dlo == 0 and dhi == 0

    def row_length(self, i: int) -> int | None:
        if not self.row_finite_length(i):
            return None
        return sum(e.dim for e in self.row(i))

    def stabilized(self) -> bool:
        return all(e.stabilized for e in self.entries.values())

    def as_rows(self) -> list[list[int]]:
        """Sorted [i, n, dim] triples for every entry (zeros included)."""
        return [self.entries[k].as_row() for k in sorted(self.entries)]

    def nonzero_rows(self) -> list[list[int]]:
        return [r for r in self.as_rows() if r[2] != 0]


def local_coh_table(G: GradedQuotientRing, i_max: int | None = None,
                    cfg: StabilizationConfig | None = None) -> CohomologyTable:
    """Table of stabilized [H^i_M(G)]_n for 0 <= i <= i_max, n in the window."""
    cfg = cfg or StabilizationConfig.default_for(G)
    m = G.ring.nvars
    if i_max is None:
        i_max = m
    if i_max > m:
        raise ValueError(f"i_max {i_max} exceeds the number of variables {m}")
    entries = {}
    for i in range(i_max + 1):
        for n in cfg.degrees():
            entries[(i, n)] = local_coh_piece(G, i, n, cfg)
    return CohomologyTable(entries, i_max, cfg, complete=(i_max == m))


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


def annihilator_is_irrelevant(G: GradedQuotientRing, i: int,
                              table: CohomologyTable):
    """Does every variable multiply [H^i_M(G)] to zero?

    Returns (True, []), (False, witnesses) or (None, reasons) when some entry
    is unstable.  A witness is (variable name, internal degree, representative
    coordinates); the check multiplies stabilized Koszul representatives by
    each variable and asks whether the image is a coboundary at a power where
    both source and target entries have settled.
    """
    witnesses = []
    for entry in table.row(i):
        if entry.dim == 0:
            continue
        if not entry.stabilized:
            return None, [f"entry (i={i}, n={entry.n}) not stabilized"]
        target = table.entry(i, entry.n + 1)
        if target is not None and not target.stabilized:
            return None, [f"entry (i={i}, n={entry.n + 1}) not stabilized"]
        t_star = entry.power
        if target is not None:
            t_star = max(t_star, target.power)
        spec = KoszulComplexSpec(G, t_star)
        piece = koszul_cohomology_piece(spec, i, entry.n)
        d_in = differential(spec, i - 1, entry.n + 1)
        off = d_in.shape[1]
        for j, name in enumerate(G.ring.variables):
            mult = chain_multiplication(spec, i, entry.n, j)
            moved = linalg.matmul(mult, piece.representatives, G.p)
            # a moved column is a coboundary exactly when its rref column
            # vanishes in every row whose pivot lies in the moved block
            r, pivots = linalg.rref(np.hstack([d_in, moved]), G.p)
            rows = [k for k, c in enumerate(pivots) if c >= off]
            for col in range(piece.dim):
                if r[rows, off + col].any():
                    vec = piece.representatives[:, col]
                    witnesses.append(
                        (name, entry.n, [int(c) for c in vec]))
    if witnesses:
        return False, witnesses
    return True, []
