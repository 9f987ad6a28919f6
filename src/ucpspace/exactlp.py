"""Exact rational linear programming: two-phase simplex on sparse integer rows, Bland's rule.

All verdict-bearing optimizations in the toolkit run through this solver, so
results are exact and anti-cycling is guaranteed (Bland's rule).

Interface:

    prepare(scaled, ncols) -> LpSystem
    solve_lp(c, a_eq, b_eq, maximize=False) -> LpResult

`solve_lp` minimizes (or maximizes) c.x subject to A x = b and x >= 0, the one
form it takes: write a free variable as x+ - x-, a lower bound x >= lo as lo +
x', and an upper bound x <= hi as a row x + s = hi with a slack s >= 0.  Every
entry of c, A and b must be a `numbers.Rational` (int, Fraction, numpy int);
any other entry raises TypeError.  An infeasible problem carries a Farkas
certificate y (y.A <= 0 on every column while y.b > 0), replayable via
`verify_farkas`.  Phase 1 reads only A and b: `prepare` runs it once for a
system solved for many costs, and `solve_lp` takes that `LpSystem` as a_eq.

The tableau holds no fraction (the integer-preserving pivoting of Edmonds
1967 and Bareiss 1968, with gcd division in place of their exact divisor),
and it runs on `linsolve`'s row kernel.  Each row is a {column: int} dict
over its nonzero entries, built from the scaled row `prepare` takes, its rhs
under the reserved key _RHS, and primitive: a positive multiple of the true
tableau row, and the multiple is the row's entry in its basic column (where
the true row holds 1).  The objective row is one more such
dict, which also keeps its denominator den > 0 under _DEN and stands for its
entries / den.  A pivot on (r, c) first negates row r if its entry at c is
negative, then clears column c of every other row and of the objective with
`linsolve._clear` (r <- a r - b p, divided by the gcd of its entries; the
objective's den is scaled by a, and divided by the same gcd).  The ratio
test compares rhs_i / a_i by cross-multiplication, both a_i > 0, and breaks
ties on the lower basis index.  Since every comparison reads the sign of the
true value, Bland's rule takes the pivots the Fraction tableau takes, and x,
the objective and y come out the same.  Fractions are built only for the
returned x, objective and Farkas y (and the rows the certificate replays).

The start is the slack basis, set in `prepare`.  After rows with b < 0 are
negated, a column that is a unit vector on a row starts basic on that row (the
lowest such column wins), such as a slack of the caller's inequality rows.
Only the remaining rows get an artificial, and phase 1 minimizes their sum;
with none, phase 1 is skipped.  A negated row's slack reads -1, so that row
keeps its artificial.  The tableau after phase 1 is the `LpSystem`, which
each phase 2 copies (`_clear` updates rows in place).  At an infeasible
phase-1 optimum the objective row holds cost - y.A, so y is read off each
row's starting column: y_i = 1 - (reduced cost of its artificial), or
y_i = -(reduced cost of the column it started on).  A certificate that fails
`verify_farkas` raises UcpError; exact arithmetic never produces one.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .errors import UcpError
from .linsolve import _clear, scale_to_ints

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
UNBOUNDED = "UNBOUNDED"

# reserved keys of a tableau row: its rhs, and the objective row's denominator
_RHS, _DEN = -1, -2


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


def _pivot(rows, basis, obj, r, c):
    """Pivot on (r, c); obj is the objective row, or None when it is not kept."""
    prow = rows[r]
    if prow[c] < 0:
        prow = rows[r] = {j: -v for j, v in prow.items()}
    for i, row in enumerate(rows):
        if i != r and c in row:
            _clear(row, prow, c)
    if obj is not None and c in obj:
        _clear(obj, prow, c)
    basis[r] = c


def _simplex(rows, basis, obj, ncols):
    """Bland-rule simplex minimizing the objective row over the first ncols columns."""
    while True:
        enter = next((j for j in range(ncols) if obj.get(j, 0) < 0), None)
        if enter is None:
            return OPTIMAL
        leave = None
        for i, row in enumerate(rows):
            a = row.get(enter, 0)
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # rhs / a against the best ratio so far, by cross-multiplication
                # (both denominators are positive)
                lhs, rhs = row.get(_RHS, 0) * rows[leave][enter], rows[leave].get(_RHS, 0) * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            return UNBOUNDED
        _pivot(rows, basis, obj, leave, enter)


@dataclass
class LpSystem:
    """A x = b, x >= 0 after phase 1: the tableau rows and their basis, or the INFEASIBLE result."""

    ncols: int
    rows: list
    basis: list
    infeasible: LpResult | None


def prepare(scaled, ncols):
    """The system of the rows, each with its rhs at column ncols as ({column: int}, den), the
    form `scale_to_ints` gives; phase 1 runs here, once. See module docstring."""
    m = len(scaled)
    flip = [-1 if nz.get(ncols, 0) < 0 else 1 for nz, _ in scaled]  # negates b < 0

    # starting basis: a unit column on a row (lowest index first) starts basic
    # there; every other row gets an artificial, which phase 1 drives to zero
    hits = [[] for _ in range(ncols)]
    for i, (nz, _) in enumerate(scaled):
        for j in nz:
            if j < ncols:
                hits[j].append(i)
    start = [None] * m
    for j, rows_j in enumerate(hits):
        if len(rows_j) == 1:
            i = rows_j[0]
            nz, den = scaled[i]
            if start[i] is None and flip[i] * nz[j] == den:
                start[i] = j
    art_rows = [i for i in range(m) if start[i] is None]
    for k, i in enumerate(art_rows):
        start[i] = ncols + k
    # fresh rows: _clear updates them in place, and the certificate is built from `scaled`.
    # Each row holds den, at its artificial or its unit column, so it is primitive: for each
    # prime power p^k of den, the entry whose denominator had p^k is not divisible by p.
    rows = []
    for (nz, den), f, j0 in zip(scaled, flip, start):
        row = {j if j < ncols else _RHS: f * v for j, v in nz.items()}
        if j0 >= ncols:
            row[j0] = den  # the artificial's 1, times the row's multiple
        rows.append(row)
    basis = list(start)
    if art_rows:
        # phase 1: the sum of the artificials, cleared on the basis (minus the
        # sum of the artificial rows, zero on the artificials)
        width = ncols + len(art_rows)
        obj = dict.fromkeys(range(ncols, width), 1)
        obj[_DEN] = 1
        for i in art_rows:
            _clear(obj, rows[i], start[i])
        _simplex(rows, basis, obj, width)
        if obj.get(_RHS, 0) < 0:
            # the objective row keeps the form cost_row - y.rows, so y_i is read
            # off row i's starting column: 1 - entry under an artificial (cost 1),
            # minus the entry under an original column (cost 0)
            y = [int(j >= ncols) - Fraction(obj.get(j, 0), obj[_DEN]) for j in start]
            a_rows = [[Fraction(f * nz.get(j, 0), q) for j in range(ncols)] for (nz, q), f in zip(scaled, flip)]
            b = [Fraction(f * nz.get(ncols, 0), q) for (nz, q), f in zip(scaled, flip)]
            cert = Farkas(a_rows=a_rows, b=b, y=y)
            if not verify_farkas(cert):
                raise UcpError("phase 1 produced a Farkas certificate that does not verify")
            return LpSystem(ncols, None, None, LpResult(INFEASIBLE, None, None, cert))

        # drive artificials out of the basis where possible
        for i in range(m):
            if basis[i] >= ncols:
                pivot_col = min((j for j in rows[i] if 0 <= j < ncols), default=None)
                if pivot_col is not None:
                    _pivot(rows, basis, None, i, pivot_col)
        # rows still basic in an artificial are zero outside the artificials: drop
        # them; phase 2 enters no artificial, so their columns stay out of the basis
        keep = [i for i in range(m) if basis[i] < ncols]
        rows = [rows[i] for i in keep]
        basis = [basis[i] for i in keep]
    return LpSystem(ncols, rows, basis, None)


def solve_lp(c, a_eq, b_eq, maximize=False):
    """Exact LP: min (or max) c.x with A x = b, x >= 0, a_eq an `LpSystem` or rows. See module docstring."""
    sign = -1 if maximize else 1
    cost, cost_den = scale_to_ints(c)
    system = a_eq if isinstance(a_eq, LpSystem) else prepare(
        [scale_to_ints(chain(row, (rhs,))) for row, rhs in zip(a_eq, b_eq)], len(c))
    if system.infeasible is not None:
        return system.infeasible

    # phase 2, on a copy of the system's tableau: _pivot and _clear update it in place
    rows, basis = [dict(row) for row in system.rows], list(system.basis)
    obj = {j: sign * v for j, v in cost.items()}
    obj[_DEN] = cost_den
    for row, bi in zip(rows, basis):
        if bi in obj:
            _clear(obj, row, bi)
    if _simplex(rows, basis, obj, system.ncols) == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None)
    x = [Fraction(0)] * system.ncols
    for row, bi in zip(rows, basis):
        x[bi] = Fraction(row.get(_RHS, 0), row[bi])
    return LpResult(OPTIMAL, x, -sign * Fraction(obj.get(_RHS, 0), obj[_DEN]))
