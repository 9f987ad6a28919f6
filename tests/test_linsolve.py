"""Exact linear algebra over lists of Fractions."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

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
    # plain ints, as the double-description rows are: int / int division would leave the exact lane
    assert linsolve.independent_subset(vecs) == greedy_by_rank(vecs)
