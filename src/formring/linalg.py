"""Dense exact linear algebra over a prime field.

Matrices are numpy int64 arrays with every entry reduced into [0, p).  Vectors
are columns: a map from an s-dimensional space to an r-dimensional space is an
(r, s) matrix.  All arithmetic is integer arithmetic followed by reduction mod
p; no floating point is used.  Intermediate products never exceed p**2 * chunk
with chunk chosen to fit int64, so results are exact for any p < 2**30.

Pivoting is deterministic: columns are scanned left to right and the first row
with a nonzero entry becomes the pivot row.

This is the one module that imports numpy, and it does so inside each
function, on first use, not at module load.  A formring run is mostly
start-up, and a verdict that builds no matrix (on x*y, whose caps span at
most two degrees, or on a product of two generic linear forms) never needs
numpy; once loaded, the import costs a dictionary lookup per call.  Other
modules reach arrays through the helpers here and name `np.ndarray` only for
type checkers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# Largest inner-product block whose accumulated products fit in int64.
_INT64_BUDGET = 2**62


def zeros(*shape: int) -> np.ndarray:
    import numpy as np
    return np.zeros(shape, dtype=np.int64)


def identity(n: int) -> np.ndarray:
    import numpy as np
    return np.eye(n, dtype=np.int64)


def matrix(rows: list[list[int]]) -> np.ndarray:
    """The int64 matrix with the given rows (entries already reduced)."""
    import numpy as np
    return np.array(rows, dtype=np.int64)


def stack(blocks: list[np.ndarray], axis: int = 1) -> np.ndarray:
    """Blocks side by side (axis 1) or one above another (axis 0)."""
    import numpy as np
    return np.concatenate(blocks, axis=axis)


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact product (a @ b) mod p, chunked so int64 never overflows."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    inner = a.shape[1]
    if inner == 0:
        return zeros(a.shape[0], b.shape[1])
    if p * p * inner < _INT64_BUDGET:
        return (a @ b) % p
    chunk = max(1, _INT64_BUDGET // (p * p))
    acc = zeros(a.shape[0], b.shape[1])
    for s in range(0, inner, chunk):
        acc = (acc + a[:, s : s + chunk] @ b[s : s + chunk, :]) % p
    return acc


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot column indices.

    Column j is a pivot exactly when it is not in the span of the columns
    left of it.  So the pivots of [sub | vecs] that fall in the vecs block
    pick the columns a left-to-right greedy scan would admit: a basis of
    span(sub + vecs) modulo span(sub).
    """
    import numpy as np
    r = np.array(a, dtype=np.int64) % p
    nrows, ncols = r.shape
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        lead = row + int(nz[0])
        if lead != row:
            r[[row, lead]] = r[[lead, row]]
        inv = pow(int(r[row, col]), -1, p)
        r[row] = (r[row] * inv) % p
        others = r[:, col].copy()
        others[row] = 0
        # entries are < p, so the outer product stays below p**2 < 2**62
        r -= np.outer(others, r[row])
        r %= p
        pivots.append(col)
        row += 1
    return r, pivots


def rank(a: np.ndarray, p: int) -> int:
    if a.shape[0] == 0 or a.shape[1] == 0:
        return 0
    return len(rref(a, p)[1])


def kernel(a: np.ndarray, p: int) -> np.ndarray:
    """Columns form a basis of the null space {v : a @ v = 0}."""
    nrows, ncols = a.shape
    if ncols == 0:
        return zeros(0, 0)
    if nrows == 0:
        return identity(ncols)
    r, pivots = rref(a, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = zeros(ncols, len(free))
    basis[free, range(len(free))] = 1
    basis[pivots, :] = -r[:len(pivots), free] % p
    return basis


def cohomology(d_in: np.ndarray, d_out: np.ndarray, p: int) -> np.ndarray:
    """Columns forming a basis of ker(d_out) modulo im(d_in).

    They are the kernel columns at the pivots of [d_in | ker]; d_out @ d_in
    must be zero.
    """
    ker = kernel(d_out, p)
    if not ker.shape[1] or not d_in.shape[1]:
        return ker
    _, pivots = rref(stack([d_in, ker]), p)
    off = d_in.shape[1]
    return ker[:, [c - off for c in pivots if c >= off]]


def modulo(d_in: np.ndarray, vecs: np.ndarray, p: int) -> np.ndarray:
    """The columns of `vecs` modulo im(d_in), in echelon form.

    The rows of rref([d_in | vecs]) whose pivots fall in the vecs block, cut
    down to that block.  Their count is the rank of vecs modulo im(d_in),
    and column k is zero exactly when vecs[:, k] lies in im(d_in): the kept
    rows vanish on the d_in block, whose pivot columns span the others.
    """
    if not vecs.shape[0] or not vecs.shape[1]:
        return zeros(0, vecs.shape[1])
    off = d_in.shape[1]
    r, pivots = rref(stack([d_in, vecs]), p)
    return r[[k for k, c in enumerate(pivots) if c >= off], off:]
