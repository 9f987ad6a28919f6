"""Exact rational linear programming: dense two-phase simplex, Bland's rule.

All verdict-bearing optimizations in the toolkit run through this solver with
`fractions.Fraction` data, so results are exact and anti-cycling is guaranteed
(Bland's rule).  Problems here are tiny (a few dozen variables), so a full
dense tableau is the right tool.

Interface:

    solve_lp(c, a_eq, b_eq, maximize=False) -> LpResult

minimizes (or maximizes) c.x subject to A x = b and x >= 0, the one form it
takes: write a free variable as x+ - x-, a lower bound x >= lo as lo + x', and
an upper bound x <= hi as a row x + s = hi with a slack s >= 0.  An infeasible
problem carries a Farkas certificate y (y.A <= 0 on every column while
y.b > 0), replayable via `verify_farkas`.

The start is the slack basis.  After rows with b < 0 are negated, a
column that is a unit vector on a row starts basic on that row
(the lowest such column wins), such as a slack of the caller's inequality
rows.  Only the remaining rows get an artificial, and phase 1 minimizes their
sum; with none, phase 1 is skipped.  A negated row's slack reads -1, so that
row keeps its artificial.  At an infeasible phase-1 optimum the objective row
holds cost - y.A, so y is read off each row's starting column:
y_i = 1 - (reduced cost of its artificial), or
y_i = -(reduced cost of the column it started on).  A certificate that fails
`verify_farkas` raises UcpError; exact arithmetic never produces one.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import UcpError

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
UNBOUNDED = "UNBOUNDED"


@dataclass
class Farkas:
    """Infeasibility certificate: y.b > 0, y.A <= 0 for Ax=b, x>=0 (rows with b < 0 negated)."""

    a_rows: list
    b: list
    y: list


@dataclass
class LpResult:
    status: str
    x: list | None
    objective: Fraction | None
    farkas: Farkas | None = None


def verify_farkas(cert):
    """Replay a Farkas certificate exactly."""
    yb = sum(yi * bi for yi, bi in zip(cert.y, cert.b))
    if yb <= 0:
        return False
    ncols = len(cert.a_rows[0]) if cert.a_rows else 0
    weighted = [(yi, row) for yi, row in zip(cert.y, cert.a_rows) if yi]
    for j in range(ncols):
        col = sum(yi * row[j] for yi, row in weighted if row[j])
        if col > 0:
            return False
    return True


def _to_fraction(v):
    return v if isinstance(v, Fraction) else Fraction(v)


def _pivot(tab, basis, r, c):
    """Pivot on (r, c); the other rows change only in the pivot row's nonzero columns."""
    piv = tab[r][c]
    prow = tab[r] = [v / piv if v else v for v in tab[r]]
    nonzero = [(j, v) for j, v in enumerate(prow) if v]
    for i, row in enumerate(tab):
        f = row[c]
        if i != r and f:
            for j, v in nonzero:
                row[j] -= f * v
    basis[r] = c


def _simplex(tab, basis, ncols):
    """Bland-rule simplex on a tableau whose last row is the objective (min)."""
    while True:
        obj = tab[-1]
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            return OPTIMAL
        leave = None
        best = None
        for i in range(len(tab) - 1):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return UNBOUNDED
        _pivot(tab, basis, leave, enter)


def solve_lp(c, a_eq, b_eq, maximize=False):
    """Exact LP over Fractions: min (or max) c.x with A x = b, x >= 0. See module docstring."""
    sign = -1 if maximize else 1
    cost = [sign * _to_fraction(cj) for cj in c]
    ncols, m = len(c), len(a_eq)
    a = [[_to_fraction(v) for v in coeffs] for coeffs in a_eq]
    b = [_to_fraction(rhs) for rhs in b_eq]
    for i in range(m):
        if b[i] < 0:
            a[i] = [-v for v in a[i]]
            b[i] = -b[i]

    # starting basis: a unit column on a row (lowest index first) starts basic
    # there; every other row gets an artificial, which phase 1 drives to zero
    start = [None] * m
    for j in range(ncols):
        hits = [i for i in range(m) if a[i][j] != 0]
        if len(hits) == 1 and a[hits[0]][j] == 1 and start[hits[0]] is None:
            start[hits[0]] = j
    art_rows = [i for i in range(m) if start[i] is None]
    for k, i in enumerate(art_rows):
        start[i] = ncols + k
    width = ncols + len(art_rows)
    tab = [a[i] + [Fraction(int(start[i] == k)) for k in range(ncols, width)] + [b[i]] for i in range(m)]
    basis = list(start)
    if art_rows:
        # phase-1 objective: sum of artificials, expressed over nonbasic columns
        obj = [Fraction(0)] * (width + 1)
        for i in art_rows:
            obj = [o - v for o, v in zip(obj, tab[i])]
        for j in range(ncols, width):
            obj[j] = Fraction(0)
        tab.append(obj)
        _simplex(tab, basis, width)
        w = -tab[-1][-1]
        if w > 0:
            # the objective row keeps the form cost_row - y.rows, so y_i is read
            # off row i's starting column: 1 - entry under an artificial (cost 1),
            # minus the entry under an original column (cost 0)
            y = [int(j >= ncols) - tab[-1][j] for j in start]
            cert = Farkas(a_rows=a, b=b, y=y)
            if not verify_farkas(cert):
                raise UcpError("phase 1 produced a Farkas certificate that does not verify")
            return LpResult(INFEASIBLE, None, None, cert)

    # drive artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= ncols:
            pivot_col = next((j for j in range(ncols) if tab[i][j] != 0), None)
            if pivot_col is not None:
                _pivot(tab, basis, i, pivot_col)
    # rows still basic in an artificial are identically zero: drop them
    keep = [i for i in range(m) if basis[i] < ncols]
    tab = [[tab[i][j] for j in range(ncols)] + [tab[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2
    obj = cost + [Fraction(0)]
    tab.append(obj)
    for i, bi in enumerate(basis):
        f = tab[-1][bi]
        if f != 0:
            tab[-1] = [a2 - f * b2 for a2, b2 in zip(tab[-1], tab[i])]
    status = _simplex(tab, basis, ncols)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None)
    x = [Fraction(0)] * ncols
    for i, bi in enumerate(basis):
        x[bi] = tab[i][-1]
    return LpResult(OPTIMAL, x, -sign * tab[-1][-1])
