"""Exact rational simplex: optima, certificates, the slack start, and the classic cycling trap."""

import collections
import copy
import math
from fractions import Fraction

import numpy as np
import pytest

import reference
from ucpspace import exactlp, instances, orthospace, statespace
from ucpspace.errors import UcpError
from ucpspace.linsolve import scale_to_ints

F = Fraction


# x + s_x = 1 and y + s_y = 1 over (x, y, s_x, s_y): the rows of x, y <= 1 with their slacks
UNIT_BOX = [[F(1), F(0), F(1), F(0)], [F(0), F(1), F(0), F(1)]]


def test_simple_optimum():
    # min x + 2y on the segment x + y = 1, 0 <= x, y <= 1
    res = exactlp.solve_lp([F(1), F(2), F(0), F(0)], [[F(1), F(1), F(0), F(0)]] + UNIT_BOX, [F(1), F(1), F(1)])
    assert res.status == exactlp.OPTIMAL
    assert res.objective == 1
    assert res.x[:2] == [F(1), F(0)]


def test_maximize():
    res = exactlp.solve_lp(
        [F(1), F(2), F(0), F(0)],
        [[F(1), F(1), F(0), F(0)]] + UNIT_BOX,
        [F(1), F(1), F(1)],
        maximize=True,
    )
    assert res.status == exactlp.OPTIMAL
    assert res.objective == 2
    assert res.x[:2] == [F(0), F(1)]


def test_infeasible_with_farkas():
    # x + y = 2 with x, y in [0, 1/2]
    res = exactlp.solve_lp(
        [F(0)] * 4,
        [[F(1), F(1), F(0), F(0)]] + UNIT_BOX,
        [F(2), F(1, 2), F(1, 2)],
    )
    assert res.status == exactlp.INFEASIBLE
    assert res.farkas is not None
    assert exactlp.verify_farkas(res.farkas)
    # the two upper-bound rows start on their slacks, and the certificate needs them
    starts = _slack_start_rows(res.farkas.a_rows)
    assert starts == [1, 2]
    assert all(res.farkas.y[i] != 0 for i in starts)


def test_unbounded():
    # min -x over x >= 0, no constraint binding it
    res = exactlp.solve_lp([F(-1), F(0)], [[F(0), F(1)]], [F(0)])
    assert res.status == exactlp.UNBOUNDED


def test_beale_cycling_example_terminates():
    # the standard cycling instance for naive pivot rules; the optimum is -1/20
    c = [F(-3, 4), F(150), F(-1, 50), F(6), F(0), F(0), F(0)]
    a = [
        [F(1, 4), F(-60), F(-1, 25), F(9), F(1), F(0), F(0)],
        [F(1, 2), F(-90), F(-1, 50), F(3), F(0), F(1), F(0)],
        [F(0), F(0), F(1), F(0), F(0), F(0), F(1)],
    ]
    b = [F(0), F(0), F(1)]
    res = exactlp.solve_lp(c, a, b)
    assert res.status == exactlp.OPTIMAL
    assert res.objective == F(-1, 20)


def test_degenerate_vertex():
    # three planes through one vertex: redundancy must not break phase 2; the
    # last three rows are x_i + s_i = 1
    c = [F(1), F(1), F(1)] + [F(0)] * 3
    a = [
        [F(1), F(0), F(0)] + [F(0)] * 3,
        [F(0), F(1), F(0)] + [F(0)] * 3,
        [F(1), F(1), F(0)] + [F(0)] * 3,
    ] + [[F(int(j == i)) for j in range(3)] * 2 for i in range(3)]
    b = [F(0), F(0), F(0)] + [F(1)] * 3
    res = exactlp.solve_lp(c, a, b)
    assert res.status == exactlp.OPTIMAL
    assert res.objective == 0


def test_objective_exactness():
    # 1/3 + 1/7 style arithmetic stays exact end to end
    res = exactlp.solve_lp(
        [F(1, 3), F(1, 7)],
        [[F(1), F(1)]],
        [F(1)],
    )
    assert res.status == exactlp.OPTIMAL
    assert res.objective == F(1, 7)
    assert res.x == [F(0), F(1)]


def _slack_start_rows(a_rows):
    """Rows of a standard-form matrix that hold a unit column, so start on it."""
    return [
        i
        for i, row in enumerate(a_rows)
        if any(v == 1 and all(r[j] == 0 for k, r in enumerate(a_rows) if k != i) for j, v in enumerate(row))
    ]


def _all_artificial_lp(c, a_eq, b_eq, maximize):
    """Reference: the textbook two-phase simplex with one artificial on every row.

    Returns (status, objective); pivots and Bland's rule are the Fraction reference's,
    only the starting basis differs.
    """
    sign = -1 if maximize else 1
    ncols, m = len(c), len(a_eq)
    tab = []
    for i, (row, rhs) in enumerate(zip(a_eq, b_eq)):
        flip = -1 if rhs < 0 else 1
        tab.append([flip * v for v in row] + [F(int(k == i)) for k in range(m)] + [flip * rhs])
    tab.append([-sum(col) for col in zip(*tab)])
    tab[-1][ncols : ncols + m] = [F(0)] * m
    basis = list(range(ncols, ncols + m))
    reference.fraction_simplex(tab, basis, ncols + m)
    if tab[-1][-1] != 0:
        return exactlp.INFEASIBLE, None
    for i in range(m):
        if basis[i] >= ncols:
            j = next((j for j in range(ncols) if tab[i][j] != 0), None)
            if j is not None:
                reference.fraction_pivot(tab, basis, i, j)
    keep = [i for i in range(m) if basis[i] < ncols]
    tab = [tab[i][:ncols] + [tab[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    obj = [sign * cj for cj in c] + [F(0)]
    for i, bi in enumerate(basis):
        f = obj[bi]
        obj = [o - f * v for o, v in zip(obj, tab[i])]
    tab.append(obj)
    if reference.fraction_simplex(tab, basis, ncols) == exactlp.UNBOUNDED:
        return exactlp.UNBOUNDED, None
    return exactlp.OPTIMAL, -sign * tab[-1][-1]


_BOUND_KINDS = ("free", "lower", "upper", "box")


def _random_lp(rng):
    """A small LP over x >= 0, drawn over variables of mixed bound kinds; some rows carry a slack of their own.

    Each drawn variable v gets columns of its own: a free v is x+ - x-, and v >= lo is
    lo + x' with lo moved to the right-hand sides (the objective's constant is dropped).
    An upper bound v <= hi is the row v + s = hi with a slack s >= 0 of its own, after
    the m random rows; "upper" leaves v free below, "box" bounds it by lo.
    Returns the LP, the maximize flag, the random rows given a slack, and m."""
    n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    signs, shifts, uppers = [], [], []
    for j in range(n):
        lo, width = int(rng.integers(-2, 2)), int(rng.integers(0, 3))
        kind = _BOUND_KINDS[int(rng.integers(4))]
        free = kind in ("free", "upper")
        signs.append((1, -1) if free else (1,))
        shifts.append(0 if free else lo)
        if kind in ("upper", "box"):
            uppers.append((j, lo + width if kind == "box" else lo))

    def columns(coeffs):
        """A row over the drawn variables as (its entries over their columns, its value at the shifts)."""
        return [F(int(cj) * s) for cj, ss in zip(coeffs, signs) for s in ss], sum(int(cj) * lo for cj, lo in zip(coeffs, shifts))

    drawn = [columns(rng.integers(-2, 3, size=n)) for _ in range(m)]
    a_eq = [row for row, _ in drawn]
    b_eq = [F(int(rng.integers(-3, 4)), int(rng.integers(1, 3))) - shift for _, shift in drawn]
    # a slack on row i: a fresh variable >= 0 with coefficient 1 on that row only
    slacked = [i for i in range(m) if rng.integers(2)]
    for i in slacked:
        for r, row in enumerate(a_eq):
            row.append(F(int(r == i)))
    c_drawn = rng.integers(-2, 3, size=n + len(slacked))
    c = columns(c_drawn[:n])[0] + [F(int(v)) for v in c_drawn[n:]]
    for j, hi in uppers:
        for row in a_eq:
            row.append(F(0))
        row, shift = columns([int(k == j) for k in range(n)])
        a_eq.append(row + [F(0)] * (len(c) - len(row)) + [F(1)])
        b_eq.append(F(hi - shift))
        c.append(F(0))
    return c, a_eq, b_eq, bool(rng.integers(2)), slacked, m


def test_slack_start_matches_all_artificial_reference():
    rng = np.random.default_rng(20261018)
    seen = {exactlp.OPTIMAL: 0, exactlp.INFEASIBLE: 0, exactlp.UNBOUNDED: 0}
    slack_start = flipped = mixed = slack_y = 0
    for _ in range(400):
        c, a_eq, b_eq, maximize, slacked, m = _random_lp(rng)
        res = exactlp.solve_lp(c, a_eq, b_eq, maximize=maximize)
        assert (res.status, res.objective) == _all_artificial_lp(c, a_eq, b_eq, maximize), (c, a_eq, b_eq)
        seen[res.status] += 1
        # a slack row with rhs < 0 is flipped, so its slack reads -1 and it keeps an artificial
        starts = [i for i in slacked if b_eq[i] >= 0]
        slack_start += bool(starts)
        flipped += len(starts) < len(slacked)
        mixed += 0 < len(starts) < m
        if res.status == exactlp.INFEASIBLE:
            assert exactlp.verify_farkas(res.farkas)
            assert len(res.farkas.a_rows[0]) == len(c)
            slack_y += any(res.farkas.y[i] != 0 for i in _slack_start_rows(res.farkas.a_rows))
        elif res.status == exactlp.OPTIMAL:
            assert sum(ci * xi for ci, xi in zip(c, res.x)) == res.objective
            assert all(sum(a * x for a, x in zip(row, res.x)) == b for row, b in zip(a_eq, b_eq))
            assert all(x >= 0 for x in res.x)
    assert min(seen.values()) >= 20, seen
    assert min(slack_start, flipped, mixed, slack_y) >= 20, (slack_start, flipped, mixed, slack_y)


def test_unverifiable_certificate_is_an_error(monkeypatch):
    monkeypatch.setattr(exactlp, "verify_farkas", lambda cert: False)
    with pytest.raises(UcpError, match="does not verify"):
        # x = 2 with x + s = 1, x, s >= 0
        exactlp.solve_lp([F(0), F(0)], [[F(1), F(0)], [F(1), F(1)]], [F(2), F(1)])


def test_feasible_slack_start_skips_phase_one(monkeypatch):
    # the MO_4 uniqueness sweep: every LP slice holds x0 inside the box, so each
    # solve_lp starts on the slacks and runs the simplex once, for phase 2; the
    # polytope decides each slice once, so only its 8 distinct MULTIPLE atom slices
    # reach the LPs, a min and a max each
    space = instances.mo_orthospace(4)
    poly = statespace.build_state_polytope(space)
    runs = []
    simplex = exactlp._simplex

    def counting_simplex(*args):
        runs[-1] += 1
        return simplex(*args)

    def counting_solve_lp(*args, **kwargs):
        runs.append(0)
        return exactlp.solve_lp(*args, **kwargs)

    monkeypatch.setattr(exactlp, "_simplex", counting_simplex)
    monkeypatch.setattr(statespace, "solve_lp", counting_solve_lp)
    verdicts = [
        statespace.check_conditional_uniqueness(poly, mu, e).verdict
        for mu in poly.generators
        for e in space.events()
        if mu[e] != 0
    ]
    assert set(verdicts) == {statespace.UNIQUE, statespace.MULTIPLE}
    assert len(runs) == 16
    assert set(runs) == {1}


def _recording(monkeypatch, module, name):
    """Record the (row, column) of every call to module.<name>, a pivot taking them last."""
    seen, original = [], getattr(module, name)

    def recording(*args):
        seen.append(args[-2:])
        return original(*args)

    monkeypatch.setattr(module, name, recording)
    return seen


def _big_denominators(rng, c, a_eq, b_eq):
    """The LP with rows (rhs too) and columns (cost too) scaled by positive rationals with terms up to 10^12.

    About half the rows and half the columns are scaled, so a slack column scaled
    by neither stays a unit column and can still start basic.
    """
    def ratio():
        return F(int(rng.integers(1, 10**12)), int(rng.integers(1, 10**12)))

    cols = [ratio() if rng.integers(2) else F(1) for _ in c]
    rows = [ratio() if rng.integers(2) else F(1) for _ in a_eq]
    a_eq = [[r * s * v for s, v in zip(cols, row)] for r, row in zip(rows, a_eq)]
    return [s * v for s, v in zip(cols, c)], a_eq, [r * v for r, v in zip(rows, b_eq)]


def _assert_same_as_reference(lp, maximize, pivots):
    int_pivots, ref_pivots = pivots
    int_pivots.clear()
    ref_pivots.clear()
    res = exactlp.solve_lp(*lp, maximize=maximize)
    ref = reference.fraction_solve_lp(*lp, maximize=maximize)
    assert (res.status, res.x, res.objective) == (ref.status, ref.x, ref.objective), lp
    assert int_pivots == ref_pivots, lp
    if res.status == exactlp.OPTIMAL:
        assert all(type(v) is F for v in res.x) and type(res.objective) is F
    if res.status == exactlp.INFEASIBLE:
        assert (res.farkas.y, res.farkas.a_rows, res.farkas.b) == (ref.farkas.y, ref.farkas.a_rows, ref.farkas.b)
        assert all(type(v) is F for v in res.farkas.y)
    return res.status


def test_integer_rows_match_fraction_reference(monkeypatch):
    # the same status, x, objective, Farkas vector and the same pivots, in order,
    # as the dense Fraction tableau: on small random LPs, and on the same LPs
    # rescaled to denominators up to 10^12
    pivots = (_recording(monkeypatch, exactlp, "_pivot"), _recording(monkeypatch, reference, "fraction_pivot"))
    rng = np.random.default_rng(20261020)
    seen = {exactlp.OPTIMAL: 0, exactlp.INFEASIBLE: 0, exactlp.UNBOUNDED: 0}
    for k in range(3000):
        c, a_eq, b_eq, maximize, _, _ = _random_lp(rng)
        seen[_assert_same_as_reference((c, a_eq, b_eq), maximize, pivots)] += 1
        if k % 10 == 0:
            _assert_same_as_reference(_big_denominators(rng, c, a_eq, b_eq), maximize, pivots)
    assert min(seen.values()) >= 300, seen


def test_tableau_rows_stay_coprime_and_positive_at_their_basis(monkeypatch):
    # after every pivot each row is primitive and positive in its basic column,
    # zero in every other basic column, and the objective row is reduced with
    # den > 0 and zero in every basic column
    pivot, checked = exactlp._pivot, []

    def checking_pivot(rows, basis, obj, r, c):
        pivot(rows, basis, obj, r, c)
        for i, row in enumerate(rows):
            assert math.gcd(*row.values()) == 1
            assert row.get(basis[i], 0) > 0
            assert all(row.get(b, 0) == 0 for k, b in enumerate(basis) if k != i)
        if obj is not None:
            assert obj[exactlp._DEN] > 0 and math.gcd(*obj.values()) == 1
            assert all(obj.get(b, 0) == 0 for b in basis)
        checked.append(obj is None)

    monkeypatch.setattr(exactlp, "_pivot", checking_pivot)
    rng = np.random.default_rng(20261021)
    for _ in range(600):
        c, a_eq, b_eq, maximize, _, _ = _random_lp(rng)
        exactlp.solve_lp(c, a_eq, b_eq, maximize=maximize)
        exactlp.solve_lp(*_big_denominators(rng, c, a_eq, b_eq), maximize=maximize)
    # both kinds of pivot ran: simplex pivots and pivots that drive an artificial out
    assert checked.count(False) >= 1000 and checked.count(True) >= 20, (checked.count(False), checked.count(True))


def test_starting_rows_are_primitive(monkeypatch):
    # every row is primitive whenever a simplex phase starts; the starting rows need no gcd
    # division: each holds its row's multiple den, at its artificial or its unit column,
    # which leaves no common prime factor
    simplex, checked = exactlp._simplex, []

    def checking_simplex(rows, basis, obj, ncols):
        assert all(math.gcd(*row.values()) == 1 for row in rows)
        checked.append(obj)
        return simplex(rows, basis, obj, ncols)

    monkeypatch.setattr(exactlp, "_simplex", checking_simplex)
    rng = np.random.default_rng(20261022)
    for _ in range(600):
        c, a_eq, b_eq, maximize, _, _ = _random_lp(rng)
        exactlp.solve_lp(c, a_eq, b_eq, maximize=maximize)
        exactlp.solve_lp(*_big_denominators(rng, c, a_eq, b_eq), maximize=maximize)
    assert len(checked) >= 1200


@pytest.mark.parametrize("bad", [0.1, np.float64(0.5), "1/2", complex(1, 0)], ids=["float", "float64", "str", "complex"])
@pytest.mark.parametrize("where", ["c", "a", "b"])
def test_inexact_entry_raises(bad, where):
    # a float is not turned into its binary fraction: every non-Rational entry is a TypeError
    lp = {"c": [F(0)], "a": [[F(1)]], "b": [F(1, 10)]}
    lp[where] = [bad] if where != "a" else [[bad]]
    with pytest.raises(TypeError, match="exact rational required"):
        exactlp.solve_lp(lp["c"], lp["a"], lp["b"])


def test_numpy_integers_are_exact():
    res = exactlp.solve_lp([np.int64(1), np.int32(3)], [[np.int64(2), np.int64(3)]], [np.int64(7)], maximize=True)
    assert res.status == exactlp.OPTIMAL
    assert res.x == [F(0), F(7, 3)] and res.objective == 7
    assert all(type(v) is F for v in res.x) and type(res.objective) is F
    assert res == exactlp.solve_lp([F(1), F(3)], [[F(2), F(3)]], [F(7)], maximize=True)


def _prepared(c, a_eq, b_eq):
    """The LP's rows as one prepared system, scaled as solve_lp scales them."""
    return exactlp.prepare([scale_to_ints([*row, rhs]) for row, rhs in zip(a_eq, b_eq)], len(c))


def _fields(res):
    cert = res.farkas and (res.farkas.y, res.farkas.a_rows, res.farkas.b)
    return res.status, res.x, res.objective, cert


def test_shared_system_matches_one_shot():
    # every min and max cost solved on one shared prepared system equals a fresh one-shot
    # solve_lp: status, x, objective and the Farkas y, a_rows and b; the prepared rows and
    # basis are left as they were, so the next cost starts from the same phase-1 tableau
    rng = np.random.default_rng(20261023)
    seen = {exactlp.OPTIMAL: 0, exactlp.INFEASIBLE: 0, exactlp.UNBOUNDED: 0}
    for k in range(1500):
        c, a_eq, b_eq, _, _, _ = _random_lp(rng)
        lps = [(c, a_eq, b_eq)] + ([_big_denominators(rng, c, a_eq, b_eq)] if k % 10 == 0 else [])
        for c, a_eq, b_eq in lps:
            system = _prepared(c, a_eq, b_eq)
            before = copy.deepcopy(system)
            costs = [c] + [[F(int(v)) for v in rng.integers(-2, 3, size=len(c))] for _ in range(2)]
            for cost in costs:
                for maximize in (False, True):
                    res = exactlp.solve_lp(cost, system, None, maximize=maximize)
                    assert _fields(res) == _fields(exactlp.solve_lp(cost, a_eq, b_eq, maximize=maximize)), (cost, a_eq)
                    seen[res.status] += 1
            assert system == before
    assert min(seen.values()) >= 500, seen


def _phase_runs(monkeypatch):
    """Count exactlp._simplex runs apart: inside a statespace.solve_lp call (phase 2) and outside one (phase 1
    while a system is prepared); also count the solve_lp calls."""
    runs = collections.Counter()
    simplex, solve = exactlp._simplex, statespace.solve_lp

    def counting_simplex(*args):
        runs["inside" if runs["open"] else "outside"] += 1
        return simplex(*args)

    def counting_solve_lp(*args, **kwargs):
        runs["calls"] += 1
        runs["open"] += 1
        try:
            return solve(*args, **kwargs)
        finally:
            runs["open"] -= 1

    monkeypatch.setattr(exactlp, "_simplex", counting_simplex)
    monkeypatch.setattr(statespace, "solve_lp", counting_solve_lp)
    return runs


def test_listed_state_slice_runs_phase_one_once(monkeypatch):
    # a UNIQUE slice of listed states makes 2n solve_lp calls, each one phase 2, and its
    # convex-coefficient rows need artificials, so phase 1 runs, once, when the system is
    # prepared; an EMPTY slice stops at its first LP, after that one phase 1
    runs = _phase_runs(monkeypatch)
    space = orthospace.boolean_orthospace(3)
    gens = statespace.build_state_polytope(space).generators
    mu = instances.boolean_state([F(1, 5), F(3, 10), F(1, 2)])
    v = statespace.check_conditional_uniqueness(statespace.generated_polytope(space, list(gens)), mu, 3)
    assert v.verdict == statespace.UNIQUE
    assert (runs["calls"], runs["inside"], runs["outside"]) == (2 * space.n_events, 2 * space.n_events, 1)
    runs.clear()
    v = statespace.check_conditional_uniqueness(statespace.generated_polytope(space, gens[:2]), mu, space.unit)
    assert v.verdict == statespace.EMPTY
    assert (runs["calls"], runs["inside"], runs["outside"]) == (1, 0, 1)


def test_cross_state_slices_run_phase_one_once_each(monkeypatch):
    # every slice of the MO_4 cross-polytope states: 2n solve_lp calls for each UNIQUE slice, and
    # one phase 1 per slice, since convex-coefficient rows start on artificials
    runs = _phase_runs(monkeypatch)
    space = instances.mo_orthospace(4)
    poly = statespace.generated_polytope(space, instances.cross_states(4))
    slices = 0
    for mu in poly.generators:
        for e in space.events():
            if mu[e] != 0:
                before = runs["calls"]
                v = statespace.check_conditional_uniqueness(poly, mu, e)
                assert v.verdict == statespace.UNIQUE
                slices += runs["calls"] > before
    assert slices == len(poly._verdicts) > 1
    assert runs["calls"] == runs["inside"] == slices * 2 * space.n_events
    assert runs["outside"] == slices
