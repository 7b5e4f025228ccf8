"""Local cohomology tables, each entry read exactly at one Koszul power.

[H^i_M(G)]_n is the colimit over t of [H^i(x^t; G)]_n along the transition
maps.  Every entry of a computed table is read at the single power
T(n) = `settle_power(n)` of the block engine (`multigraded.engine(G)`), and
that reading is exact on every cone, monomial or not.

The Cech-Koszul double complex of a graded G gives a spectral sequence
E_1^{p,q} = K^p(x^t; H^q_M(G)) => H^{p+q}(x^t; G) (Brodmann-Sharp, Local
Cohomology).  In internal degree n its term E_1^{p,q} is a sum of copies
of [H^q_M(G)]_(n + t p).  Let a*(G) be the largest degree in which some
H^q_M(G) is nonzero.  Once t > a*(G) - n, every column p >= 1 vanishes in
degree n, and the natural map [H^q(x^t; G)]_n -> [H^q_M(G)]_n is an
isomorphism for every q.  Sbarra's bound
a*(S/I) <= a*(S/in(I)) <= sum_j rho_j - m (Sbarra 2001; the engine's
`degree_bound`) makes T(n) such a t.  Since T(n) >= T(n + 1),
the same power also reads the degree n + 1 a variable multiplies the entry
into, which is where the annihilator test looks.

A monomial cone reads its entry off the multidegree blocks (the engine's
`colimit_dims`).  A cone G = S/I that is not monomial first
reads its column off the exact table of S/in(I).  In every degree,
dim [H^i_M(S/I)]_n <= dim [H^i_M(S/in(I))]_n (Sbarra 2001), and S/I and
S/in(I) share a Hilbert function, so by the Grothendieck-Serre formula
(Bruns-Herzog 4.4) their columns have the same alternating sum.  So an
entry whose bound is 0 is proved zero, and an entry whose bound is the only
nonzero one of its column equals that bound.  Every other entry is one
dense elimination, [H^i(x^T(n); G)]_n through `koszul_cohomology_piece`.

The same bound gives whole rows (`CohomologyTable.row_length`): when row i
of S/in(I) has finite length, G's row lives in its degrees (the engine's
`row_support`), inside the window or not.  H^0 always has finite length.

The stabilization controls t_max and margin of `StabilizationConfig` are
accepted and echoed in report scopes, but they change no computed entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import multigraded
from .errors import FormringError
from .graded import GradedQuotientRing
from .koszul import KoszulComplexSpec, koszul_cohomology_piece, moved_classes


@dataclass(frozen=True)
class StabilizationConfig:
    """Window of internal degrees; t_max and margin are only echoed in
    report scopes."""

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
        """The default window; t_max and margin keep their defaults."""
        if G.is_zero_ring():
            return cls(-1, 1)
        dim = G.krull_dimension()
        maxdeg = max(G.max_generator_degree(), 1)
        return cls(-(dim + 3), 2 * maxdeg + 3)

    def degrees(self) -> range:
        return range(self.n_lo, self.n_hi + 1)


# How an entry's value was settled (StabilizedEntry.settled_by).
SETTLE_POWER = "settle power"  # read exactly at power T(n)
ZERO_BOUND = "zero bound"      # its bound from S/in(I) is 0
COLUMN_SUM = "column sum"      # the only nonzero bound of its column
SYNTHETIC = "synthetic"        # given by a synthetic table


@dataclass
class StabilizedEntry:
    """One (i, n) entry of the local cohomology table.

    A computed entry carries `power` T(n), the power its maps are read at,
    also when the in(I) bounds settled its value.  It is always
    `stabilized` and records no `history`.
    """

    i: int
    n: int
    dim: int
    power: int
    stabilized: bool
    history: tuple[int, ...]
    settled_by: str

    def as_row(self) -> list[int]:
        return [self.i, self.n, self.dim]


def local_coh_piece(G: GradedQuotientRing, i: int,
                    n: int) -> StabilizedEntry:
    """[H^i_M(G)]_n, read exactly at power T(n); see the module docstring."""
    if not 0 <= i <= G.ring.nvars:
        raise FormringError(
            f"cohomology index {i} outside [0, {G.ring.nvars}]")
    eng = multigraded.engine(G)
    bounds, power = eng.colimit_dims(n), eng.settle_power(n)
    dim, rule = bounds[i], SETTLE_POWER
    if not G.monomial:
        if bounds[i] == 0:
            rule = ZERO_BOUND
        elif bounds.count(0) == len(bounds) - 1:
            rule = COLUMN_SUM
        else:
            dim = koszul_cohomology_piece(KoszulComplexSpec(G, power),
                                          i, n).dim
    return StabilizedEntry(i=i, n=n, dim=dim, power=power, stabilized=True,
                           history=(), settled_by=rule)


class CohomologyTable:
    """Entries (i, internal degree n) -> stabilized dimensions over a window.

    Internal degrees are stored; checkers convert to diagonal positions
    p = n + i through positions_row, the single conversion site.  A
    computed table keeps its ring G, whose rows reach past the window.
    """

    def __init__(self, entries: dict[tuple[int, int], StabilizedEntry],
                 i_max: int, cfg: StabilizationConfig,
                 synthetic: bool = False, complete: bool = False,
                 G: GradedQuotientRing | None = None):
        self.entries = entries
        self.i_max = i_max
        self.cfg = cfg
        self.synthetic = synthetic
        # complete: rows above i_max are identically zero (synthetic tables
        # by fiat; computed tables when i_max reaches the variable count,
        # beyond which every cochain space vanishes).
        self.complete = synthetic or complete
        self.G = G

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
                    i=i, n=n, dim=d, power=1, stabilized=True, history=(d,),
                    settled_by=SYNTHETIC)
        return cls(entries, i_max, cfg, synthetic=True)

    def entry(self, i: int, n: int) -> StabilizedEntry | None:
        return self.entries.get((i, n))

    def dim(self, i: int, n: int) -> int | None:
        e = self.entry(i, n)
        return None if e is None else e.dim

    def row(self, i: int) -> list[StabilizedEntry]:
        return [self.entries[(i, n)] for n in self.cfg.degrees()
                if (i, n) in self.entries]

    def nonzero_row(self, i: int) -> list[StabilizedEntry]:
        return [e for e in self.row(i) if e.dim != 0]

    def positions_row(self, i: int) -> list[tuple[int, int]]:
        """Nonzero entries of row i as (diagonal position p = n + i, dim)."""
        return [(e.n + i, e.dim) for e in self.nonzero_row(i)]

    def row_support(self, i: int) -> tuple[int, ...] | None:
        """Degrees outside which row i is zero, or None when it has no
        proved finite length (module docstring); a synthetic table's rows
        live in its window."""
        if self.G is not None:
            return multigraded.engine(self.G).row_support(i)
        return tuple(self.cfg.degrees()) if self.synthetic else None

    def row_length(self, i: int) -> int | None:
        """Sum of row i over `row_support`: the table's entries in the
        window, `local_coh_piece` outside it; None with no support."""
        support = self.row_support(i)
        if support is None:
            return None
        return sum(self.dim(i, n) if (i, n) in self.entries
                   else local_coh_piece(self.G, i, n).dim for n in support)

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
    if i_max < 0:
        raise ValueError("i_max must be >= 0")
    if i_max > m:
        raise ValueError(f"i_max {i_max} exceeds the number of variables {m}")
    entries = {}
    for i in range(i_max + 1):
        for n in cfg.degrees():
            entries[(i, n)] = local_coh_piece(G, i, n)
    return CohomologyTable(entries, i_max, cfg, complete=(i_max == m), G=G)


def annihilator_is_irrelevant(G: GradedQuotientRing, i: int,
                              table: CohomologyTable):
    """Does every variable multiply [H^i_M(G)] to zero?

    Returns (True, []) or (False, witnesses).  A witness is (variable
    name, internal degree, terms): the nonzero terms [subset, monomial,
    coefficient] of the class's representative; the check multiplies
    the Koszul representatives of each nonzero entry by each variable and
    asks whether the image is a coboundary at the entry's power T(n), which
    also settles the target degree n + 1.  `koszul.moved_classes` picks the
    route: block by block on a monomial cone, the dense Koszul matrices on
    any other, both reading the moved classes modulo the coboundaries
    (`linalg.modulo`).
    """
    witnesses = []
    names = G.ring.variables
    for entry in table.row(i):
        if entry.dim == 0:
            continue
        target = table.entry(i, entry.n + 1)
        if target is not None and target.settled_by == ZERO_BOUND:
            continue  # every x_j maps into a piece proved zero
        witnesses.extend((names[j], entry.n,
                          [[[names[l] for l in L], str(G.ring.monomial(b)), c]
                           for L, b, c in terms])
                         for j, terms in moved_classes(G, i, entry.n))
    return not witnesses, witnesses

