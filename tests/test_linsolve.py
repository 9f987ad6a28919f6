"""Exact linear algebra over lists of Fractions."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from ucpspace import linsolve

F = Fraction


def test_rref_identity():
    rows = [[F(2), F(0)], [F(0), F(3)]]
    red, pivots = linsolve.rref(rows)
    assert red == [[F(1), F(0)], [F(0), F(1)]]
    assert pivots == [0, 1]


def test_rank():
    assert linsolve.rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert linsolve.rank([[F(1), F(0)], [F(0), F(1)]]) == 2
    assert linsolve.rank([]) == 0


def test_solve_affine_underdetermined():
    a = [[F(1), F(1), F(0)]]
    sol = linsolve.solve_affine(a, [F(1)])
    assert sol is not None
    x0, basis = sol
    assert len(basis) == 2
    for v in [x0] + [[a + b for a, b in zip(x0, bv)] for bv in basis]:
        assert v[0] + v[1] == 1


def test_solve_affine_inconsistent():
    a = [[F(1), F(1)], [F(2), F(2)]]
    assert linsolve.solve_affine(a, [F(1), F(3)]) is None


def test_solve_affine_empty_rows():
    assert linsolve.solve_affine([], []) is None
    assert linsolve.solve_affine_ints([], []) is None


def test_integer_solution_denominator_is_the_lcm_of_the_pivots():
    # pivot entries 2, 2 and 3 (then 4 and 6): L is their lcm, not their product, so X0, B and L share no factor
    assert linsolve.solve_affine_ints([[2, 0, 0], [0, 2, 0], [0, 0, 3]], [1, 1, 1]) == ([3, 3, 2], [], 6)
    assert linsolve.solve_affine_ints([[4, 0, 1], [0, 6, 1]], [1, 1]) == ([3, 2, 0], [[-3, -2, 12]], 12)
    assert linsolve.solve_affine_ints([[F(1, 2), 0], [0, 1]], [F(1, 3), 1]) == ([2, 3], [], 3)
    assert linsolve.solve_affine_ints([[1, 1], [2, 2]], [1, 3]) is None


def test_independent_subset():
    vecs = [[F(1), F(0)], [F(2), F(0)], [F(0), F(1)], [F(1), F(1)]]
    assert linsolve.independent_subset(vecs) == [0, 2]


fractions = st.fractions(min_value=-50, max_value=50, max_denominator=10)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(fractions, min_size=3, max_size=3), min_size=1, max_size=4))
def test_rref_preserves_row_space_rank(rows):
    red, pivots = linsolve.rref(rows)
    assert len(pivots) == linsolve.rank(rows)
    # reduced rows with a pivot have a leading 1 in the pivot column
    for i, c in enumerate(pivots):
        assert red[i][c] == 1
        for j in range(len(pivots)):
            if j != i:
                assert red[j][c] == 0


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.lists(fractions, min_size=2, max_size=2), min_size=2, max_size=2),
    st.lists(fractions, min_size=2, max_size=2),
)
def test_solutions_verify(a, x_true):
    b = [sum(r[j] * x_true[j] for j in range(2)) for r in a]
    sol = linsolve.solve_affine(a, b)
    assert sol is not None
    x0, basis = sol
    for r, bi in zip(a, b):
        assert sum(ri * xi for ri, xi in zip(r, x0)) == bi
        for v in basis:
            assert sum(ri * vi for ri, vi in zip(r, v)) == 0


def greedy_by_rank(vectors):
    """The per-candidate loop independent_subset replaced: keep a vector when it raises the rank."""
    chosen, rows = [], []
    for i, v in enumerate(vectors):
        trial = rows + [[F(x) for x in v]]
        if linsolve.rank(trial) == len(trial):
            chosen.append(i)
            rows = trial
    return chosen


@st.composite
def vector_lists(draw, entries):
    """Vectors of one length, with integer combinations of earlier ones inserted among them."""
    dim = draw(st.integers(1, 5))
    vecs = draw(st.lists(st.lists(entries, min_size=dim, max_size=dim), min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        coeffs = draw(st.lists(st.integers(-9, 9), min_size=len(vecs), max_size=len(vecs)))
        combo = [sum(c * v[j] for c, v in zip(coeffs, vecs)) for j in range(dim)]
        vecs.insert(draw(st.integers(0, len(vecs))), combo)
    return vecs


@settings(max_examples=100, deadline=None)
@given(vector_lists(fractions))
def test_independent_subset_matches_rank_loop_on_fractions(vecs):
    assert linsolve.independent_subset(vecs) == greedy_by_rank(vecs)


@settings(max_examples=100, deadline=None)
@given(vector_lists(st.integers(-9, 9)))
def test_independent_subset_matches_rank_loop_on_ints(vecs):
    # plain ints, as the double-description rows are
    assert linsolve.independent_subset(vecs) == greedy_by_rank(vecs)


def dense_rref(rows):
    """The dense Fraction Gauss-Jordan elimination the integer routine replaced, as a reference."""
    m = [[F(v) for v in r] for r in rows]
    if not m:
        return m, []
    pivots, r = [], 0
    for c in range(len(m[0])):
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


def dense_solve_affine(a_rows, b):
    """solve_affine over dense_rref, as it read before the integer routine."""
    if not a_rows:
        return None
    n = len(a_rows[0])
    red, pivots = dense_rref([list(r) + [bi] for r, bi in zip(a_rows, b)])
    if n in pivots:
        return None
    x0 = [F(0)] * n
    piv_rows = {c: i for i, c in enumerate(pivots)}
    for c, i in piv_rows.items():
        x0[c] = red[i][n]
    basis = []
    for fc in (c for c in range(n) if c not in piv_rows):
        v = [F(0)] * n
        v[fc] = F(1)
        for c, i in piv_rows.items():
            v[c] = -red[i][fc]
        basis.append(v)
    return x0, basis


# mostly zeros, then small integers and rationals with denominators up to 10^12
sparse_entries = st.one_of(
    st.just(0), st.just(F(0)), st.just(0), st.integers(-3, 3),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**12),
)


@st.composite
def sparse_matrices(draw, min_cols=1):
    """Sparse rational rows with zero rows and rational combinations of earlier rows among them."""
    ncols = draw(st.integers(min_cols, 7))
    rows = draw(st.lists(st.lists(sparse_entries, min_size=ncols, max_size=ncols), min_size=1, max_size=7))
    for _ in range(draw(st.integers(0, 3))):
        coeffs = draw(st.lists(st.fractions(max_denominator=10**12), min_size=len(rows), max_size=len(rows)))
        rows.insert(draw(st.integers(0, len(rows))), [sum(F(c) * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    return rows


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
def test_rref_equals_dense_fraction_rref(rows):
    red, pivots = linsolve.rref(rows)
    assert (red, pivots) == dense_rref(rows)
    assert all(type(v) is F for r in red for v in r)
    assert linsolve.rank(rows) == len(pivots)


@settings(max_examples=150, deadline=None)
@given(sparse_matrices(min_cols=2), st.data())
def test_solve_affine_equals_dense_fraction_solve(rows, data):
    # the last column is the rhs: consistent when it is a combination of the others, often not otherwise
    a_rows, b = [r[:-1] for r in rows], [r[-1] for r in rows]
    if data.draw(st.booleans()):
        x = data.draw(st.lists(st.fractions(max_denominator=10**12), min_size=len(a_rows[0]), max_size=len(a_rows[0])))
        b = [sum(F(v) * xv for v, xv in zip(r, x)) for r in a_rows]
    sol = linsolve.solve_affine(a_rows, b)
    assert sol == dense_solve_affine(a_rows, b)
    if sol is not None:
        assert all(type(v) is F for vec in [sol[0], *sol[1]] for v in vec)
    # the integer form: the same solutions over the lcm of their denominators
    assert linsolve.solve_affine_ints(a_rows, b) == reference.integer_param(dense_solve_affine(a_rows, b))


@pytest.mark.parametrize("bad", [0.5, np.float64(1.0), "1/2", complex(1, 0)], ids=["float", "float64", "str", "complex"])
def test_inexact_entry_raises(bad):
    rows = [[F(1), 2], [bad, F(1, 3)]]
    with pytest.raises(TypeError, match="exact rational required"):
        linsolve.rref(rows)
    with pytest.raises(TypeError, match="exact rational required"):
        linsolve.rank(rows)
    with pytest.raises(TypeError, match="exact rational required"):
        linsolve.independent_subset(rows)
    with pytest.raises(TypeError, match="exact rational required"):
        linsolve.solve_affine([[F(1), 2], [F(0), 1]], [bad, F(1)])


def test_numpy_integers_are_exact():
    rows = [[np.int64(2), np.int64(4)], [np.int64(1), np.int64(3)]]
    assert linsolve.rref(rows) == ([[F(1), F(0)], [F(0), F(1)]], [0, 1])
