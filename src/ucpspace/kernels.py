"""Matrix arithmetic over the coordinate algebras: the hot numeric path.

Everything here works on coordinate arrays of shape (n, n, k) or batched
(B, n, n, k).  Entries multiply through the algebra's structure tensor, so one
einsum contraction serves every tag, the octonions included.
"""

import numpy as np

from . import cayley


def matmul(a, b):
    """Batched matrix product with coordinate-algebra entries."""
    k = a.shape[-1]
    t = cayley.structure_tensor(k)
    return np.einsum("...ijp,...jmq,pqr->...imr", a, b, t)


def jordan_mul(a, b):
    """Jordan product (ab + ba) / 2 on coordinate arrays."""
    ab = matmul(a, b)
    ba = matmul(b, a)
    return 0.5 * (ab + ba)


def triple(a, b, c):
    """Jordan triple {a, b, c} = a o (b o c) - b o (c o a) + c o (a o b)."""
    return jordan_mul(a, jordan_mul(b, c)) - jordan_mul(b, jordan_mul(c, a)) + jordan_mul(c, jordan_mul(a, b))


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
    mats = cayley.left_mult_mats(k)
    blocks = np.einsum("...ijc,cpq->...ipjq", a, mats)
    return blocks.reshape(a.shape[:-3] + (a.shape[-3] * k, a.shape[-2] * k))


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
