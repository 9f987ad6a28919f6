"""Dense Fraction references that the package's integer forms are compared against."""

from fractions import Fraction


def equality_rows(space):
    """The state equations as dense (row, rhs) Fraction pairs: unit mass, then the additivity rows.

    One row e + f - (e + f) per orthogonal pair e <= f with a defined sum, in
    that order; a row equal to an earlier additivity row is dropped.
    """
    n = space.n_events
    rows = []
    unit_row = [Fraction(0)] * n
    unit_row[space.unit] = Fraction(1)
    rows.append((tuple(unit_row), Fraction(1)))
    seen = set()
    st = space.sum_table
    for e in range(n):
        for f in range(e, n):
            if space.ortho[e, f] and st[e, f] >= 0:
                s = int(st[e, f])
                row = [Fraction(0)] * n
                row[e] += 1
                row[f] += 1
                row[s] -= 1
                key = tuple(row)
                if any(v != 0 for v in key) and key not in seen:
                    seen.add(key)
                    rows.append((key, Fraction(0)))
    return rows
