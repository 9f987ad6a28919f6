"""Coordinate algebras R, C, H, O via the Cayley-Dickson doubling construction.

A number with k coordinates (k in {1, 2, 4, 8}) is a float vector against the
basis e_0..e_{k-1}, with e_0 the real unit.  Doubling pairs (a, b) of
k/2-coordinate numbers and multiplies by

    (a, b) (c, d) = (a c - conj(d) b,  d a + b conj(c))

which fixes the sign conventions everywhere downstream (in particular
e_1 e_2 = e_3).  The full octonion table is written out in
docs/octonion-table.md and locked by a golden test.

Basis products are precomputed into index/sign tables; the dense structure
tensor T[p, q, r] (+-1 where e_p e_q = +-e_r, else 0) drives products of
coordinate numbers, and left-multiplication matrices drive the coordinate
matrix kernels and the real symmetric embedding of hermitian matrices.
"""

from functools import lru_cache

import numpy as np

from .errors import SizeError

# coordinate dimension per algebra tag; O3 elements use the same coordinates as O
COORD_DIM = {"R": 1, "C": 2, "H": 4, "O": 8}

_VALID_DIMS = (1, 2, 4, 8)


def _basis_product(p, q, k):
    """Sign and index of e_p e_q in the k-dimensional algebra."""
    if k == 1:
        return 1, 0
    h = k // 2
    if p < h and q < h:
        return _basis_product(p, q, h)
    if p < h and q >= h:
        # (a, 0)(0, d) = (0, d a)
        s, r = _basis_product(q - h, p, h)
        return s, r + h
    if p >= h and q < h:
        # (0, b)(c, 0) = (0, b conj(c))
        s, r = _basis_product(p - h, q, h)
        cs = 1 if q == 0 else -1
        return s * cs, r + h
    # (0, b)(0, d) = (-conj(d) b, 0)
    cs = 1 if q - h == 0 else -1
    s, r = _basis_product(q - h, p - h, h)
    return -cs * s, r


@lru_cache(maxsize=None)
def mul_tables(k):
    """(index, sign) int64/float64 tables with e_p e_q = sign[p,q] e_{index[p,q]}."""
    if k not in _VALID_DIMS:
        raise SizeError(f"coordinate dimension must be one of {_VALID_DIMS}, got {k}")
    idx = np.empty((k, k), dtype=np.int64)
    sgn = np.empty((k, k), dtype=np.float64)
    for p in range(k):
        for q in range(k):
            s, r = _basis_product(p, q, k)
            idx[p, q] = r
            sgn[p, q] = s
    idx.setflags(write=False)
    sgn.setflags(write=False)
    return idx, sgn


@lru_cache(maxsize=None)
def structure_tensor(k):
    """Dense (k, k, k) tensor T with (x y)_r = sum_pq x_p y_q T[p, q, r]."""
    idx, sgn = mul_tables(k)
    t = np.zeros((k, k, k))
    for p in range(k):
        for q in range(k):
            t[p, q, idx[p, q]] = sgn[p, q]
    t.setflags(write=False)
    return t


@lru_cache(maxsize=None)
def left_mult_mats(k):
    """(k, k, k) array L with L[c] the matrix of left multiplication by e_c.

    L[c][r, m] is the e_r coefficient of e_c e_m, the structure tensor's
    T[c, m, r], so for x with coordinates x_c the matrix sum_c x_c L[c] sends
    y to x y.  Conjugation transposes: L[conj] = L^T, which is what makes
    hermitian matrices embed symmetrically.
    """
    mats = np.ascontiguousarray(structure_tensor(k).transpose(0, 2, 1))
    mats.setflags(write=False)
    return mats


def conj(x):
    """Coordinate conjugate: real part kept, imaginary coordinates negated."""
    out = np.array(x, dtype=np.float64, copy=True)
    out[..., 1:] = -out[..., 1:]
    return out


def multiply(x, y):
    """Product of two coordinate numbers (broadcasts over leading axes)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    k = x.shape[-1]
    return np.einsum("...p,...q,pqr->...r", x, y, structure_tensor(k))


def norm2(x):
    """Composition-algebra norm n(x) = x conj(x) = sum of squared coordinates."""
    x = np.asarray(x, dtype=np.float64)
    return np.einsum("...p,...p->...", x, x)


def unit(k, index=0):
    """Basis element e_index as a coordinate vector."""
    e = np.zeros(k)
    e[index] = 1.0
    return e


def table_text(k=8):
    """Human-readable multiplication table, used for docs and the golden test."""
    idx, sgn = mul_tables(k)
    names = [f"e{i}" for i in range(k)]
    width = max(len(n) for n in names) + 1
    head = " " * (width + 1) + " ".join(n.rjust(width) for n in names)
    lines = [head]
    for p in range(k):
        cells = []
        for q in range(k):
            s = "-" if sgn[p, q] < 0 else " "
            cells.append((s + names[idx[p, q]]).rjust(width))
        lines.append(names[p].rjust(width) + "  " + " ".join(cells))
    return "\n".join(lines) + "\n"
