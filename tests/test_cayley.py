"""Composition-algebra coordinate arithmetic, locked against the golden table."""

from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ucpspace import cayley
from ucpspace.errors import SizeError

import pytest

DOC = Path(__file__).resolve().parents[1] / "docs" / "octonion-table.md"


def test_golden_table_matches_docs():
    text = DOC.read_text()
    start = text.index("```") + 3
    end = text.index("```", start)
    golden = text[start:end].strip("\n")
    assert cayley.table_text(8).strip("\n") == golden


def test_real_and_complex_tables():
    idx, sgn = cayley.mul_tables(2)
    # i * i = -1
    assert idx[1, 1] == 0 and sgn[1, 1] == -1
    idx1, sgn1 = cayley.mul_tables(1)
    assert idx1[0, 0] == 0 and sgn1[0, 0] == 1


def test_quaternion_products():
    # i j = k, j i = -k
    i, j, k = cayley.unit(4, 1), cayley.unit(4, 2), cayley.unit(4, 3)
    assert np.array_equal(cayley.multiply(i, j), k)
    assert np.array_equal(cayley.multiply(j, i), -k)


def test_e1_e2_is_e3():
    e1, e2, e3 = (cayley.unit(8, c) for c in (1, 2, 3))
    assert np.array_equal(cayley.multiply(e1, e2), e3)


def test_unit_is_identity():
    x = np.arange(1.0, 9.0)
    one = cayley.unit(8)
    assert np.array_equal(cayley.multiply(x, one), x)
    assert np.array_equal(cayley.multiply(one, x), x)


def test_x_times_conj_is_norm():
    x = np.array([1.0, -2.0, 0.5, 3.0, -1.0, 0.0, 2.0, -0.5])
    prod = cayley.multiply(x, cayley.conj(x))
    expect = np.zeros(8)
    expect[0] = cayley.norm2(x)
    assert np.allclose(prod, expect, atol=1e-12)


def test_bad_dimension_rejected():
    with pytest.raises(SizeError):
        cayley.mul_tables(3)


coords = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=8, max_size=8
).map(np.array)


@settings(max_examples=200, deadline=None)
@given(coords, coords)
def test_norm_multiplicative(x, y):
    lhs = cayley.norm2(cayley.multiply(x, y))
    rhs = cayley.norm2(x) * cayley.norm2(y)
    assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


@settings(max_examples=200, deadline=None)
@given(coords, coords)
def test_alternative_laws(x, y):
    # x(xy) = (xx)y and (yx)x = y(xx): octonions are alternative though not associative
    xx = cayley.multiply(x, x)
    lhs = cayley.multiply(x, cayley.multiply(x, y))
    rhs = cayley.multiply(xx, y)
    assert np.allclose(lhs, rhs, atol=1e-7)
    lhs2 = cayley.multiply(cayley.multiply(y, x), x)
    rhs2 = cayley.multiply(y, xx)
    assert np.allclose(lhs2, rhs2, atol=1e-7)


@settings(max_examples=100, deadline=None)
@given(coords, coords)
def test_conj_antihomomorphism(x, y):
    lhs = cayley.conj(cayley.multiply(x, y))
    rhs = cayley.multiply(cayley.conj(y), cayley.conj(x))
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_left_mult_mats_agree_with_multiply():
    rng = np.random.default_rng(5)
    for k in (1, 2, 4, 8):
        mats = cayley.left_mult_mats(k)
        x, y = rng.normal(size=k), rng.normal(size=k)
        lx = np.einsum("c,crm->rm", x, mats)
        assert np.allclose(lx @ y, cayley.multiply(x, y), atol=1e-12)


def test_left_mult_mats_match_tables():
    # L[c, r, m] is sign[c, m] at r = index[c, m] and 0 elsewhere; the array is read-only
    for k in (1, 2, 4, 8):
        idx, sgn = cayley.mul_tables(k)
        mats = cayley.left_mult_mats(k)
        want = np.zeros((k, k, k))
        for c in range(k):
            for m in range(k):
                want[c, idx[c, m], m] = sgn[c, m]
        assert np.array_equal(mats, want)
        assert not mats.flags.writeable


def test_structure_tensor_consistent_with_tables():
    for k in (2, 4, 8):
        idx, sgn = cayley.mul_tables(k)
        t = cayley.structure_tensor(k)
        for p in range(k):
            for q in range(k):
                row = np.zeros(k)
                row[idx[p, q]] = sgn[p, q]
                assert np.array_equal(t[p, q], row)
