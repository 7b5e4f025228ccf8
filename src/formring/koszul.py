"""Graded Koszul cochain complexes on powers of the variables.

For a graded quotient G with m variables and a power t, the complex is built
on the sequence x_1^t, .., x_m^t (optionally permuted).  Exterior basis
elements e_J are indexed by sorted subsets J of sequence positions in
lexicographic (itertools.combinations) order; inserting j into J carries the
sign (-1)^(number of entries of J below j).  With deg x_j^t = t the piece
[K^p]_n is a sum of copies of [G]_{n + t p}, one per subset, so each complex
piece at internal degree n is finite and exact linear algebra applies.

Transition to power t+1 is the cochain map e_J -> (prod_{j in J} x_j) e_J,
which commutes with both differentials and induces the comparison maps on
cohomology; their composite from t=1 to a stabilization power is the
canonical comparison map into the colimit.

Two routes give the same bytes.  A monomial cone in the plain variable
order is computed by `multigraded`, one multidegree block at a time, and
its pieces and transition matrices are scattered into the storage order
above.  Every other cone, and every permuted sequence, takes the dense
route: the matrices of a whole internal degree, read off the ring's
per-degree normal-form table (`GradedQuotientRing.mult_matrix`), and
eliminated at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg, multigraded
from .errors import FormringError
from .graded import GradedQuotientRing, GradedVectorSpaceMap
from .poly import Polynomial


@dataclass(frozen=True)
class KoszulComplexSpec:
    """The complex K(x_seq^t; G) at one power t >= 1."""

    G: GradedQuotientRing
    t: int = 1
    sequence: tuple[int, ...] = ()

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("power t must be >= 1")
        m = self.G.ring.nvars
        seq = self.sequence or tuple(range(m))
        if sorted(seq) != list(range(m)):
            raise ValueError("sequence must be a permutation of the variables")
        object.__setattr__(self, "sequence", tuple(seq))

    @property
    def m(self) -> int:
        return len(self.sequence)

    def generator(self, j: int) -> Polynomial:
        """The j-th sequence element x_seq[j]^t."""
        exps = [0] * self.m
        exps[self.sequence[j]] = self.t
        return self.G.ring.monomial(exps)

    def multiplier(self, subset: tuple[int, ...]) -> Polynomial:
        """prod of the plain variables indexed by the subset (degree-1 each)."""
        out = self.G.ring.one()
        for j in subset:
            out = out * self.G.ring.variable(self.sequence[j])
        return out


@dataclass
class CohomologyPiece:
    """[H^i(x^t; G)]_n with chosen cocycle representatives.

    `representatives` has one column per class, written in the cochain basis
    of [K^i]_n; together with the coboundaries they span the cocycles.
    """

    i: int
    n: int
    dim: int
    representatives: np.ndarray


def _subsets(m: int, p: int) -> list[tuple[int, ...]]:
    if p < 0 or p > m:
        return []
    return list(itertools.combinations(range(m), p))


def _insert_sign(j: int, subset: tuple[int, ...]) -> int:
    below = sum(1 for l in subset if l < j)
    return -1 if below % 2 else 1


def cochain_dim(spec: KoszulComplexSpec, p: int, n: int) -> int:
    subsets = _subsets(spec.m, p)
    if not subsets:
        return 0
    return len(subsets) * spec.G.dim(n + spec.t * p)


def cochain_labels(spec: KoszulComplexSpec, p: int, n: int):
    """Basis labels (subset, monomial) in storage order."""
    block = spec.G.graded_basis(n + spec.t * p)
    return [(J, mono) for J in _subsets(spec.m, p) for mono in block]


def _cached(spec: KoszulComplexSpec, kind: str, key, build):
    cache = spec.G._koszul_cache
    full_key = (kind, spec.sequence, spec.t) + key
    hit = cache.get(full_key)
    if hit is None:
        hit = build()
        cache[full_key] = hit
    return hit


def differential(spec: KoszulComplexSpec, p: int, n: int) -> np.ndarray:
    """Matrix of d: [K^p]_n -> [K^(p+1)]_n.

    At p = -1 this is the map from the zero space: a matrix with no columns.
    """
    return _cached(spec, "diff", (p, n), lambda: _build_differential(spec, p, n))


def _build_differential(spec: KoszulComplexSpec, p: int, n: int) -> np.ndarray:
    m, t, G = spec.m, spec.t, spec.G
    src_sets = _subsets(m, p)
    tgt_sets = _subsets(m, p + 1)
    src_block = G.dim(n + t * p)
    tgt_block = G.dim(n + t * (p + 1))
    mat = linalg.zeros(len(tgt_sets) * tgt_block, len(src_sets) * src_block)
    if not src_sets or not tgt_sets or src_block == 0:
        return mat
    tgt_pos = {J: k for k, J in enumerate(tgt_sets)}
    for a, J in enumerate(src_sets):
        for j in range(m):
            if j in J:
                continue
            K = tuple(sorted(J + (j,)))
            sign = _insert_sign(j, J)
            mult = G.mult_matrix(spec.generator(j), n + t * p).matrix
            b = tgt_pos[K]
            rows = slice(b * tgt_block, (b + 1) * tgt_block)
            cols = slice(a * src_block, (a + 1) * src_block)
            mat[rows, cols] = (mat[rows, cols] + sign * mult) % G.p
    return mat


def koszul_cohomology_piece(spec: KoszulComplexSpec, i: int, n: int) -> CohomologyPiece:
    """[H^i]_n as kernel mod image, with representative cocycle columns."""
    if i < 0 or i > spec.m:
        raise FormringError(f"cohomology index {i} outside [0, {spec.m}]")
    return _cached(spec, "piece", (i, n), lambda: _build_piece(spec, i, n))


def _blockwise(spec: KoszulComplexSpec) -> bool:
    """Monomial cone in the plain variable order: take the block route."""
    return spec.G.monomial and spec.sequence == tuple(range(spec.m))


def _build_piece(spec: KoszulComplexSpec, i: int, n: int) -> CohomologyPiece:
    if _blockwise(spec):
        reps = multigraded.representatives(spec.G, spec.t, i, n)
    else:
        reps = _dense_representatives(spec, i, n)
    return CohomologyPiece(i=i, n=n, dim=reps.shape[1], representatives=reps)


def _dense_representatives(spec: KoszulComplexSpec, i: int,
                           n: int) -> np.ndarray:
    p = spec.G.p
    d_out = differential(spec, i, n)
    d_in = differential(spec, i - 1, n)
    if d_in.shape[1] and d_out.shape[0]:
        assert not linalg.matmul(d_out, d_in, p).any(), "d o d != 0"
    ker = linalg.kernel(d_out, p)
    # kernel columns at pivots of [d_in | ker]: a basis of ker modulo image
    _, pivots = linalg.rref(np.hstack([d_in, ker]), p)
    off = d_in.shape[1]
    return ker[:, [c - off for c in pivots if c >= off]]


def transition_cochain(spec: KoszulComplexSpec, pdeg: int, n: int) -> np.ndarray:
    """Cochain-level map [K^pdeg(x^t)]_n -> [K^pdeg(x^(t+1))]_n."""
    return _cached(spec, "trans", (pdeg, n),
                   lambda: _build_transition(spec, pdeg, n))


def _build_transition(spec: KoszulComplexSpec, pdeg: int, n: int) -> np.ndarray:
    G, t = spec.G, spec.t
    subsets = _subsets(spec.m, pdeg)
    src_block = G.dim(n + t * pdeg)
    tgt_block = G.dim(n + (t + 1) * pdeg)
    mat = linalg.zeros(len(subsets) * tgt_block, len(subsets) * src_block)
    for a, J in enumerate(subsets):
        if src_block == 0 or tgt_block == 0:
            continue
        if pdeg == 0:
            block = linalg.identity(src_block)
        else:
            block = G.mult_matrix(spec.multiplier(J), n + t * pdeg).matrix
        rows = slice(a * tgt_block, (a + 1) * tgt_block)
        cols = slice(a * src_block, (a + 1) * src_block)
        mat[rows, cols] = block
    return mat


def chain_multiplication(spec: KoszulComplexSpec, i: int, n: int,
                         var_index: int) -> np.ndarray:
    """Multiplication by the variable class: [K^i]_n -> [K^i]_{n+1}."""
    G, t = spec.G, spec.t
    subsets = _subsets(spec.m, i)
    src_block = G.dim(n + t * i)
    tgt_block = G.dim(n + 1 + t * i)
    mat = linalg.zeros(len(subsets) * tgt_block, len(subsets) * src_block)
    if src_block and tgt_block:
        block = G.mult_matrix(G.ring.variable(var_index), n + t * i).matrix
        for a in range(len(subsets)):
            rows = slice(a * tgt_block, (a + 1) * tgt_block)
            cols = slice(a * src_block, (a + 1) * src_block)
            mat[rows, cols] = block
    return mat


def express_in_cohomology(spec: KoszulComplexSpec, piece: CohomologyPiece,
                          vecs: np.ndarray) -> np.ndarray | None:
    """Coordinates of cocycle classes in the piece's representative basis.

    `vecs` is one cocycle or a block of cocycle columns; the answer has the
    same shape with one row per representative.  The coordinates are unique
    because the representatives are independent modulo the coboundaries.
    """
    if piece.dim == 0 or vecs.size == 0:
        return np.zeros((piece.dim,) + vecs.shape[1:], dtype=np.int64)
    d_in = differential(spec, piece.i - 1, piece.n)
    sol = linalg.solve(np.hstack([d_in, piece.representatives]), vecs,
                       spec.G.p)
    if sol is None:
        return None
    return sol[d_in.shape[1]:]


def is_coboundary(spec: KoszulComplexSpec, i: int, n: int,
                  vec: np.ndarray) -> bool:
    return linalg.solve(differential(spec, i - 1, n), vec,
                        spec.G.p) is not None


def transition_map(G: GradedQuotientRing, t: int, i: int,
                   n: int) -> GradedVectorSpaceMap:
    """Induced map [H^i(x^t)]_n -> [H^i(x^(t+1))]_n on representative bases."""
    spec = KoszulComplexSpec(G, t)
    return _cached(spec, "hmap", (i, n),
                   lambda: _build_transition_map(G, spec, i, n))


def _build_transition_map(G: GradedQuotientRing, spec: KoszulComplexSpec,
                          i: int, n: int) -> GradedVectorSpaceMap:
    if _blockwise(spec):
        mat = multigraded.transition_matrix(G, spec.t, i, n)
    else:
        mat = _dense_transition_matrix(
            spec, koszul_cohomology_piece(spec, i, n),
            koszul_cohomology_piece(KoszulComplexSpec(G, spec.t + 1), i, n))
    return GradedVectorSpaceMap(mat, G.p)


def _dense_transition_matrix(spec: KoszulComplexSpec, src: CohomologyPiece,
                             tgt: CohomologyPiece) -> np.ndarray:
    """The transition from src at power t to tgt at t + 1, in coordinates."""
    nxt = KoszulComplexSpec(spec.G, spec.t + 1)
    moved = linalg.matmul(transition_cochain(spec, src.i, src.n),
                          src.representatives, spec.G.p)
    mat = express_in_cohomology(nxt, tgt, moved)
    if mat is None:
        raise FormringError("transition image is not a cocycle class")
    return mat


def f_map(G: GradedQuotientRing, i: int, n: int,
          power: int) -> GradedVectorSpaceMap:
    """Composite comparison map [H^i(x; G)]_n -> [H^i(x^power; G)]_n.

    `power` should be a stabilization power produced by the colimit layer, so
    the target piece computes the limit value.
    """
    if power < 1:
        raise ValueError("power must be >= 1")
    start = koszul_cohomology_piece(KoszulComplexSpec(G, 1), i, n)
    acc = GradedVectorSpaceMap(linalg.identity(start.dim), G.p)
    for t in range(1, power):
        acc = transition_map(G, t, i, n).compose(acc)
    return acc
