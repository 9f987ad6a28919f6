"""Exact row reduction: one fraction-free Gauss-Jordan elimination on sparse integer rows.

`rref`, `rank`, `solve_affine_ints` and `independent_subset` run `_eliminate`.
Each input row is scaled once to coprime integers and kept as a dict over its
nonzero columns.  Rows join one at a time: a row is cleared in the pivot
columns found so far, its leading column becomes a new pivot, and that column
is cleared from the earlier pivot rows.  The update is `_clear`: r <- a r - b p
in place, touching only the nonzero entries of the pivot row p (and scaling r
when a is not 1), then `_primitive` divides the row by the gcd of its
entries, so no fraction is ever formed (the integer-preserving elimination of
Bareiss 1968, with gcd division in place of his exact divisor).  These two
are the row kernel of the exact core: `exactlp`'s simplex pivots its tableau
rows with them too.  Fractions are built once, from the reduced rows (none by
`solve_affine_ints`).  The reduced row echelon form is canonical, so the order
in which rows join does not change it, and a column's pivot is the leading
entry of a row.

Entries must be exact: int or Fraction (any `numbers.Rational`); any other
entry raises TypeError.  There is no float mode.  `scale_to_ints` is the
sparse rational-to-integer scaling of the exact core, for `exactlp` too.  The
dense forms are scaled where they are built: a `statespace.State` is its
integer form, and `synthesis._scaled` scales the synthesis value rows.
"""

import math
from fractions import Fraction
from numbers import Rational

_ZERO = Fraction(0)


def scale_to_ints(row):
    """The row times den, the lcm of its denominators, as ({column: int} over its nonzero entries, den).

    The sparse rows of the exact core turn into integers here: every
    entry must be a `numbers.Rational` (int, Fraction, numpy int), and any
    other entry (float, numpy float, str, complex) raises TypeError.
    """
    nz = {}
    for j, v in enumerate(row):
        # int and Fraction first: the ABC check of `Rational` is slow on the hot path
        t = type(v)
        if t is int:
            if v:
                nz[j] = (v, 1)
        elif t is Fraction:
            p, q = v.as_integer_ratio()
            if p:
                nz[j] = (p, q)
        elif isinstance(v, Rational):
            if v:
                nz[j] = (int(v.numerator), int(v.denominator))
        else:
            raise TypeError(f"exact rational required, got {t.__name__}")
    den = math.lcm(*(q for _, q in nz.values()))
    if den == 1:
        return {j: p for j, (p, _) in nz.items()}, 1
    return {j: p * (den // q) for j, (p, q) in nz.items()}, den


def _int_row(row):
    """The row scaled to coprime integers, as {column: entry} over its nonzero entries."""
    return _primitive(scale_to_ints(row)[0])


def _primitive(row):
    """The row divided, in place, by the gcd of its entries; returned."""
    g = math.gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g
    return row


def _clear(r, p, c):
    """r <- a r - b p in place, with coprime a > 0 and b so that r[c] = 0; returned primitive."""
    g = math.gcd(r[c], p[c])
    a, b = p[c] // g, r[c] // g
    if a != 1:
        for j in r:
            r[j] *= a
    for j, v in p.items():
        w = r.get(j, 0) - b * v
        if w:
            r[j] = w
        else:
            del r[j]
    return _primitive(r)


def _eliminate(rows):
    """Gauss-Jordan on the rows.  Returns (pivots, kept).

    `pivots` maps each pivot column to its reduced row: coprime integers, positive
    at that column and zero at every other pivot column.  `kept` lists the indices
    of the rows that added a pivot, each independent of the rows before it.
    """
    pivots, kept = {}, []
    for i, row in enumerate(rows):
        r = _int_row(row)
        for c in [c for c in r if c in pivots]:
            r = _clear(r, pivots[c], c)
        if not r:
            continue
        c = min(r)
        if r[c] < 0:
            r = {j: -v for j, v in r.items()}
        for k, p in pivots.items():
            if c in p:
                pivots[k] = _clear(p, r, c)
        pivots[c] = r
        kept.append(i)
    return pivots, kept


def rref(rows):
    """Reduced row echelon form as (rows, pivot_cols): the pivot rows in column order, then zero rows."""
    rows = list(rows)
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots, _ = _eliminate(rows)
    cols = sorted(pivots)
    out = []
    for c in cols:
        row, q = [_ZERO] * ncols, pivots[c][c]
        for j, v in pivots[c].items():
            row[j] = Fraction(v, q)
        out.append(row)
    out += [[_ZERO] * ncols for _ in range(len(rows) - len(cols))]
    return out, cols


def rank(rows):
    return len(_eliminate(rows)[0])


def solve_affine(a_rows, b):
    """All solutions of A x = b as (x0, nullspace_basis), or None if inconsistent: `solve_affine_ints` over L.

    x0 is a particular solution, zero on the free columns; the basis has one
    vector per free column, 1 there and 0 on the other free columns.
    """
    sol = solve_affine_ints(a_rows, b)
    if sol is None:
        return None
    x0, basis, den = sol
    return [Fraction(v, den) for v in x0], [[Fraction(v, den) for v in bvec] for bvec in basis]


def solve_affine_ints(a_rows, b):
    """The same solutions as (X0, B, L), x0 = X0 / L and the basis B / L over integers, or None.

    L is the lcm of the pivot entries: each reduced row is primitive, so that is the
    lcm of the solution's denominators, and X0, B and L have no common factor.
    """
    if not a_rows:
        return None
    n = len(a_rows[0])
    pivots, _ = _eliminate([list(r) + [bi] for r, bi in zip(a_rows, b)])
    if n in pivots:
        return None  # pivot in the rhs column: inconsistent
    den = math.lcm(*(row[c] for c, row in pivots.items()))
    x0 = [0] * n
    basis = {fc: [den if j == fc else 0 for j in range(n)] for fc in range(n) if fc not in pivots}
    for c, row in pivots.items():
        scale = den // row[c]
        for j, v in row.items():
            if j == n:
                x0[c] = v * scale
            elif j != c:
                basis[j][c] = -v * scale
    return x0, list(basis.values()), den


def independent_subset(vectors):
    """Indices of the first maximal linearly independent subset, taken greedily in order.

    They are the pivot columns of the vectors set side by side as columns; on
    a matroid the greedy choice is the lexicographically smallest basis.
    """
    return _eliminate(vectors)[1]
