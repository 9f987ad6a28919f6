"""Dense Gaussian elimination over exact rationals or floats.

Matrices are lists of lists.  With Fraction entries comparisons are exact
(tol=0); with float entries pass a tolerance and pivoting goes by magnitude.
Sizes here are tiny (tens of rows), so clarity beats asymptotics.
"""

from fractions import Fraction


def _is_zero(x, tol):
    return x == 0 if tol == 0 else abs(x) <= tol


def rref(rows, tol=0):
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
        # choose pivot: exact mode takes the first nonzero, float mode the largest
        best = None
        for i in range(r, len(m)):
            if not _is_zero(m[i][c], tol):
                if tol == 0:
                    best = i
                    break
                if best is None or abs(m[i][c]) > abs(m[best][c]):
                    best = i
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


def rank(rows, tol=0):
    return len(rref(rows, tol)[1])


def solve_affine(a_rows, b, tol=0):
    """All solutions of A x = b as (x0, nullspace_basis), or None if inconsistent.

    x0 is a particular solution; the basis is a list of vectors spanning the
    solution directions.  Exact with Fractions, tolerance-pivoted with floats.
    """
    if not a_rows:
        return None
    n = len(a_rows[0])
    aug = [list(r) + [bi] for r, bi in zip(a_rows, b)]
    red, pivots = rref(aug, tol)
    if n in pivots:
        return None  # pivot in the rhs column: inconsistent
    zero = Fraction(0) if tol == 0 else 0.0
    one = Fraction(1) if tol == 0 else 1.0
    x0 = [zero] * n
    piv_rows = {c: i for i, c in enumerate(pivots)}
    for c, i in piv_rows.items():
        x0[c] = red[i][n]
    free = [c for c in range(n) if c not in piv_rows]
    basis = []
    for fc in free:
        v = [zero] * n
        v[fc] = one
        for c, i in piv_rows.items():
            v[c] = -red[i][fc]
        basis.append(v)
    return x0, basis


def independent_subset(vectors, tol=0):
    """Indices of a maximal linearly independent subset, scanned in order."""
    chosen = []
    rows = []
    for i, v in enumerate(vectors):
        trial = rows + [list(v)]
        if rank(trial, tol) == len(trial):
            chosen.append(i)
            rows = trial
    return chosen
