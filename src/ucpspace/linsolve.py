"""Dense Gaussian elimination over exact rationals.

Matrices are lists of lists of Fractions.  Zero tests are exact, and a
column's pivot is its first nonzero entry.
"""

from fractions import Fraction


def rref(rows):
    """Reduced row echelon form (in place on a copy). Returns (rows, pivot_cols)."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= len(m):
            break
        best = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if best is None:
            continue
        m[r], m[best] = m[best], m[r]
        piv = m[r][c]
        m[r] = [v / piv for v in m[r]]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f != 0:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(rows):
    return len(rref(rows)[1])


def solve_affine(a_rows, b):
    """All solutions of A x = b as (x0, nullspace_basis), or None if inconsistent.

    x0 is a particular solution; the basis is a list of vectors spanning the
    solution directions.
    """
    if not a_rows:
        return None
    n = len(a_rows[0])
    aug = [list(r) + [bi] for r, bi in zip(a_rows, b)]
    red, pivots = rref(aug)
    if n in pivots:
        return None  # pivot in the rhs column: inconsistent
    x0 = [Fraction(0)] * n
    piv_rows = {c: i for i, c in enumerate(pivots)}
    for c, i in piv_rows.items():
        x0[c] = red[i][n]
    free = [c for c in range(n) if c not in piv_rows]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for c, i in piv_rows.items():
            v[c] = -red[i][fc]
        basis.append(v)
    return x0, basis


def independent_subset(vectors):
    """Indices of the first maximal linearly independent subset, taken greedily in order.

    They are the pivot columns of the vectors set side by side as columns; on
    a matroid the greedy choice is the lexicographically smallest basis.
    Entries are converted to Fractions first, so integer vectors stay exact.
    """
    return rref([[Fraction(x) for x in col] for col in zip(*vectors)])[1]
