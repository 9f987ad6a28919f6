"""Matrix arithmetic over the coordinate algebras: the hot numeric path.

Everything here works on coordinate arrays of shape (n, n, k) or batched
(B, n, n, k).  A coordinate matrix a acts on the left as a real (n k, n k)
block matrix whose (i, j) block is left multiplication by the entry a_ij, so
the product ab is that block matrix times b laid out as an (n k, n) real
matrix: one batched `@`.  The product is bilinear in the entries, so the
same path serves every tag, the octonions included.  An unbatched left
factor against a batched right one builds its block matrix once.

The quadratic map U_a b = {a, b, a} is the one kernel that depends on the
tag.  Over R, C and H the algebra is associative and U_a b = a b a: two
block products.  Over the octonions a b a is not U_a b, and the map comes
from Jordan products, U_a b = 2 a o (a o b) - (a o a) o b: three of them.
"""

import numpy as np

from . import cayley


def _left_blocks(a):
    """(..., n k, n k) real matrix of left multiplication by the coordinate matrix a.

    Block (i, j) is sum_c a_ij,c L[c] with L = `cayley.left_mult_mats`.
    """
    n, k = a.shape[-2], a.shape[-1]
    lead = a.shape[:-3]
    blocks = np.matmul(a, cayley.left_mult_mats(k).reshape(k, k * k)).reshape(lead + (n, n, k, k))
    return blocks.swapaxes(-3, -2).reshape(lead + (n * k, n * k))


def matmul(a, b):
    """Batched matrix product with coordinate-algebra entries."""
    n, m, k = b.shape[-3:]
    cols = b.swapaxes(-1, -2).reshape(b.shape[:-3] + (n * k, m))
    out = np.matmul(_left_blocks(a), cols)
    return out.reshape(out.shape[:-2] + (n, k, m)).swapaxes(-1, -2)


def jordan_mul(a, b):
    """Jordan product (ab + ba) / 2 on coordinate arrays."""
    ab = matmul(a, b)
    ba = matmul(b, a)
    return 0.5 * (ab + ba)


def quadratic(a, b):
    """Quadratic map U_a b = {a, b, a}: a b a for the associative tags (k <= 4), Jordan products for octonions."""
    if a.shape[-1] <= 4:
        return matmul(a, matmul(b, a))
    return 2.0 * jordan_mul(a, jordan_mul(a, b)) - jordan_mul(jordan_mul(a, a), b)


def embed_real(a):
    """Real symmetric embedding of hermitian coordinate matrices.

    Each entry becomes its left-multiplication block, so an (n, n, k) hermitian
    element maps to a symmetric (n k, n k) real matrix whose eigenvalues are the
    element's eigenvalues with multiplicity k.  Only valid for the associative
    tags (k <= 4); octonion left multiplication is not a representation.
    """
    k = a.shape[-1]
    if k > 4:
        raise ValueError("real embedding requires an associative coordinate algebra")
    return _left_blocks(a)


def extract_from_real(m, n, k):
    """Inverse of `embed_real` on matrices that lie in the embedded image.

    Reads each block's first column (left multiplication by q sends e_0 to q).
    """
    blocks = m.reshape(m.shape[:-2] + (n, k, n, k))
    return np.ascontiguousarray(np.swapaxes(blocks[..., :, :, :, 0], -1, -2))


def hermitize(a):
    """Symmetrize an arbitrary coordinate matrix into its hermitian part."""
    at = np.swapaxes(a, -2, -3).copy()
    at[..., 1:] = -at[..., 1:]
    return 0.5 * (a + at)
