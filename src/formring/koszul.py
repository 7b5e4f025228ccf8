"""Graded Koszul cochain complexes on powers of the variables.

For a graded quotient G with m variables and a power t, the complex is built
on the sequence x_1^t, .., x_m^t.  Exterior basis elements e_J are indexed
by sorted subsets J of variable positions in lexicographic
(itertools.combinations) order; inserting j into J carries the sign
(-1)^(number of entries of J below j).  With deg x_j^t = t the piece
[K^p]_n is a sum of copies of [G]_{n + t p}, one per subset, so each complex
piece at internal degree n is finite and exact linear algebra applies.

The cochain map e_J -> (prod_{j in J} x_j)^s e_J from power t to power
t + s commutes with both differentials (`transition_cochain`).  From t = 1
to the power T(n) of an entry it induces the comparison map into the
colimit, whose rank is Stueckrad's criterion (`comparison_rank`); the
annihilator test multiplies by each variable (`moved_classes`).  Both read
T(n) off the block engine and ask how the moved cocycles stand modulo the
coboundaries (`linalg.modulo`).

The cone alone picks one of two routes.  A monomial cone is computed by
`multigraded`, one multidegree block at a time, and builds no dense matrix.
Every other cone takes the dense route: the matrices of a whole internal
degree, assembled from the ring's multiplication matrices
(`GradedQuotientRing.mult_matrix`) and eliminated at once.  The dense
route raises `SizeLimitError` before it builds a differential of more
than `MAX_DENSE_CELLS` cells to eliminate.  A piece's representatives are
always the dense route's, eliminated when first read, and only this module
knows their storage order: `cochain_terms` reads a cochain back as the
terms c e_J x^b that witnesses are given in on both routes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import linalg, multigraded
from .errors import FormringError, SizeLimitError
from .graded import GradedQuotientRing

if TYPE_CHECKING:
    import numpy as np

# Most cells in a differential the dense route eliminates; skew lines in P^3
# need 288 x 288.
MAX_DENSE_CELLS = 200_000


@dataclass(frozen=True)
class KoszulComplexSpec:
    """The complex K(x^t; G) at one power t >= 1."""

    G: GradedQuotientRing
    t: int = 1

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("power t must be >= 1")

    @property
    def m(self) -> int:
        return self.G.ring.nvars

    @property
    def sequence(self) -> tuple[int, ...]:
        """The variable order of the sequence: always the plain one."""
        return tuple(range(self.m))


@dataclass
class CohomologyPiece:
    """[H^i(x^t; G)]_n with chosen cocycle representatives.

    `representatives` has one column per class, written in the cochain basis
    of [K^i]_n; together with the coboundaries they span the cocycles.
    """

    spec: KoszulComplexSpec
    i: int
    n: int
    dim: int

    @property
    def representatives(self) -> np.ndarray:
        return _representatives(self.spec, self.i, self.n)


def _subsets(m: int, p: int) -> list[tuple[int, ...]]:
    if p < 0 or p > m:
        return []
    return list(itertools.combinations(range(m), p))


def cochain_dim(spec: KoszulComplexSpec, p: int, n: int) -> int:
    subsets = _subsets(spec.m, p)
    if not subsets:
        return 0
    return len(subsets) * spec.G.dim(n + spec.t * p)


def _cached(spec: KoszulComplexSpec, kind: str, key, build):
    cache = spec.G._koszul_cache
    full_key = (kind, spec.t) + key
    hit = cache.get(full_key)
    if hit is None:
        hit = cache[full_key] = build()
    return hit


def differential(spec: KoszulComplexSpec, p: int, n: int) -> np.ndarray:
    """Matrix of d: [K^p]_n -> [K^(p+1)]_n.

    At p = -1 this is the map from the zero space: a matrix with no columns.
    """
    return _cached(spec, "diff", (p, n), lambda: _build_differential(spec, p, n))


def _build_differential(spec: KoszulComplexSpec, p: int, n: int) -> np.ndarray:
    m, t, G = spec.m, spec.t, spec.G
    src_sets = _subsets(m, p)
    tgt_pos = {K: b for b, K in enumerate(_subsets(m, p + 1))}
    blocks = []
    for j in range(m):
        places = [(tgt_pos[tuple(sorted(J + (j,)))], a,
                   (-1) ** sum(l < j for l in J))
                  for a, J in enumerate(src_sets) if j not in J]
        blocks.append((G.ring.monomial([t * (k == j) for k in range(m)]),
                       places))
    return _assemble(G, len(tgt_pos), len(src_sets), n + t * p, t, blocks)


def _assemble(G: GradedQuotientRing, nrows: int, ncols: int, degree: int,
              shift: int, blocks) -> np.ndarray:
    """An nrows x ncols grid of blocks [G]_degree -> [G]_(degree + shift):
    for each (f, places) in `blocks` and (row, col, sign) in places, block
    (row, col) is sign times multiplication by f; every other block is 0."""
    src, tgt = G.dim(degree), G.dim(degree + shift)
    mat = linalg.zeros(nrows * tgt, ncols * src)
    if mat.size:
        for f, places in blocks:
            mult = G.mult_matrix(f, degree)
            for row, col, sign in places:
                mat[row * tgt:(row + 1) * tgt,
                    col * src:(col + 1) * src] = sign * mult % G.p
    return mat


def koszul_cohomology_piece(spec: KoszulComplexSpec, i: int, n: int) -> CohomologyPiece:
    """[H^i]_n as kernel mod image, with representative cocycle columns."""
    if i < 0 or i > spec.m:
        raise FormringError(f"cohomology index {i} outside [0, {spec.m}]")
    return _cached(spec, "piece", (i, n), lambda: _build_piece(spec, i, n))


def _build_piece(spec: KoszulComplexSpec, i: int, n: int) -> CohomologyPiece:
    if spec.G.monomial:
        dim = multigraded.engine(spec.G).dim(spec.t, i, n)
    else:
        dim = _representatives(spec, i, n).shape[1]
    return CohomologyPiece(spec, i, n, dim)


def _representatives(spec: KoszulComplexSpec, i: int, n: int) -> np.ndarray:
    return _cached(spec, "reps", (i, n),
                   lambda: _dense_representatives(spec, i, n))


def _check_size(spec: KoszulComplexSpec, i: int, n: int) -> None:
    """Refuse a differential into or out of [K^i]_n over the cap."""
    for q in (i - 1, i):
        rows, cols = cochain_dim(spec, q + 1, n), cochain_dim(spec, q, n)
        if rows * cols > MAX_DENSE_CELLS:
            raise SizeLimitError(f"a {rows} x {cols} Koszul differential has "
                                 f"more than {MAX_DENSE_CELLS} cells")


def _dense_representatives(spec: KoszulComplexSpec, i: int,
                           n: int) -> np.ndarray:
    _check_size(spec, i, n)
    p = spec.G.p
    d_out = differential(spec, i, n)
    d_in = differential(spec, i - 1, n)
    if d_in.shape[1] and d_out.shape[0]:
        assert not linalg.matmul(d_out, d_in, p).any(), "d o d != 0"
    return linalg.cohomology(d_in, d_out, p)


def cochain_terms(spec: KoszulComplexSpec, p: int, n: int,
                  vec: np.ndarray) -> list[tuple]:
    """The nonzero entries of a cochain of [K^p]_n as terms (J, b, c), the
    cochain c e_J x^b, in storage order."""
    basis = spec.G.graded_basis(n + spec.t * p)
    labels = [(J, b) for J in _subsets(spec.m, p) for b in basis]
    return [(J, b, int(c)) for (J, b), c in zip(labels, vec) if c]


def transition_cochain(spec: KoszulComplexSpec, pdeg: int, n: int,
                       step: int = 1) -> np.ndarray:
    """Cochain-level map [K^pdeg(x^t)]_n -> [K^pdeg(x^(t+step))]_n,
    e_J -> (prod_{j in J} x_j)^step e_J."""
    return _cached(spec, "trans", (pdeg, n, step),
                   lambda: _build_transition(spec, pdeg, n, step))


def _build_transition(spec: KoszulComplexSpec, pdeg: int, n: int,
                      step: int) -> np.ndarray:
    G, m = spec.G, spec.m
    subsets = _subsets(m, pdeg)
    blocks = [(G.ring.monomial([step * (k in J) for k in range(m)]),
               [(a, a, 1)])
              for a, J in enumerate(subsets)]
    return _assemble(G, len(subsets), len(subsets), n + spec.t * pdeg,
                     step * pdeg, blocks)


def chain_multiplication(spec: KoszulComplexSpec, i: int, n: int,
                         var_index: int) -> np.ndarray:
    """Multiplication by the variable class: [K^i]_n -> [K^i]_{n+1}."""
    G = spec.G
    count = len(_subsets(spec.m, i))
    places = [(a, a, 1) for a in range(count)]
    return _assemble(G, count, count, n + spec.t * i, 1,
                     [(G.ring.variable(var_index), places)])


def comparison_rank(G: GradedQuotientRing, i: int, n: int) -> int:
    """Rank of the comparison map [H^i(x; G)]_n -> [H^i(x^T(n); G)]_n.

    A monomial cone sums the ranks of its live caps' blocks
    (`multigraded._Engine.comparison_rank`).  Any other cone moves the
    power-1 representatives by the one cochain map e_J -> (prod_{j in J}
    x_j)^(T(n) - 1) e_J and counts the rank of the moved cocycles modulo
    the coboundaries at T(n) (`linalg.modulo`).
    """
    eng = multigraded.engine(G)
    if G.monomial:
        return eng.comparison_rank(i, n)
    power = eng.settle_power(n)
    spec, top = KoszulComplexSpec(G, 1), KoszulComplexSpec(G, power)
    src = koszul_cohomology_piece(spec, i, n)
    moved = linalg.matmul(transition_cochain(spec, i, n, power - 1),
                          src.representatives, G.p)
    _check_size(top, i, n)
    if linalg.matmul(differential(top, i, n), moved, G.p).any():
        raise FormringError("comparison image is not a cocycle class")
    return linalg.modulo(differential(top, i - 1, n), moved, G.p).shape[0]


def moved_classes(G: GradedQuotientRing, i: int, n: int) -> list[tuple]:
    """(j, terms) for each class of [H^i(x^T(n); G)]_n that x_j does not
    move into a coboundary of degree n + 1, in (variable, class) order.

    A monomial cone asks block by block (`multigraded._Engine.moved_classes`);
    any other cone moves the dense representatives, one `linalg.modulo` per
    variable, and reads each class's terms with `cochain_terms`.
    """
    eng = multigraded.engine(G)
    if G.monomial:
        return eng.moved_classes(i, n)
    spec = KoszulComplexSpec(G, eng.settle_power(n))
    reps = koszul_cohomology_piece(spec, i, n).representatives
    d_in = differential(spec, i - 1, n + 1)
    moved = []
    for j in range(G.ring.nvars):
        mult = chain_multiplication(spec, i, n, j)
        images = linalg.modulo(d_in, linalg.matmul(mult, reps, G.p), G.p)
        moved.extend((j, cochain_terms(spec, i, n, reps[:, col]))
                     for col in range(reps.shape[1]) if images[:, col].any())
    return moved
