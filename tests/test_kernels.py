"""Coordinate matrix kernels against entry-by-entry references."""

import numpy as np
import pytest

from ucpspace import cayley, kernels


def random_coord_matrix(rng, n, k, batch=()):
    return rng.normal(size=batch + (n, n, k))


def reference_matmul(a, b):
    """(ab)_im = sum_j a_ij b_jm, one cayley.multiply per entry pair."""
    n = a.shape[-2]
    out = np.zeros(a.shape)
    for *batch, i, m in np.ndindex(a.shape[:-1]):
        for j in range(n):
            out[(*batch, i, m)] += cayley.multiply(a[(*batch, i, j)], b[(*batch, j, m)])
    return out


def einsum_matmul(a, b):
    """The former kernel: one three-operand einsum through the structure tensor."""
    return np.einsum("...ijp,...jmq,pqr->...imr", a, b, cayley.structure_tensor(a.shape[-1]))


def einsum_jordan_mul(a, b):
    return 0.5 * (einsum_matmul(a, b) + einsum_matmul(b, a))


def einsum_triple(a, b, c):
    j = einsum_jordan_mul
    return j(a, j(b, c)) - j(b, j(c, a)) + j(c, j(a, b))


# (batch of a, batch of b): single, batched, and each side broadcast against the other
SHAPES = [((), ()), ((5,), (5,)), ((), (5,)), ((5,), ())]


def assert_matches(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("k", [1, 2, 4, 8])
@pytest.mark.parametrize("batches", SHAPES)
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e4])
def test_matmul_and_jordan_match_einsum(k, batches, scale, rng):
    a = scale * random_coord_matrix(rng, 3, k, batch=batches[0])
    b = scale * random_coord_matrix(rng, 3, k, batch=batches[1])
    assert_matches(kernels.matmul(a, b), einsum_matmul(a, b))
    assert_matches(kernels.matmul(b, a), einsum_matmul(b, a))
    assert_matches(kernels.jordan_mul(a, b), einsum_jordan_mul(a, b))


@pytest.mark.parametrize("k", [1, 2, 4, 8])
@pytest.mark.parametrize("batches", SHAPES)
def test_triple_matches_einsum(k, batches, rng):
    # kernels.quadratic(e, x) is the triple {e, x, e}: e x e on the associative tags, Jordan products
    # on the octonions.  The conditioning shape: an unbatched event around a batched or single middle,
    # and the reverse.
    for scale in (1e-3, 1.0, 1e4):
        e = scale * kernels.hermitize(random_coord_matrix(rng, 3, k, batch=batches[0]))
        x = scale * kernels.hermitize(random_coord_matrix(rng, 3, k, batch=batches[1]))
        assert_matches(kernels.quadratic(e, x), einsum_triple(e, x, e))
        assert_matches(kernels.quadratic(x, e), einsum_triple(x, e, x))


@pytest.mark.parametrize("k", [1, 2, 4, 8])
@pytest.mark.parametrize("n", [2, 3])
def test_matmul_paths_agree(k, n, rng):
    a = random_coord_matrix(rng, n, k)
    b = random_coord_matrix(rng, n, k)
    assert np.allclose(kernels.matmul(a, b), reference_matmul(a, b), atol=1e-12)


def test_matmul_batched(rng):
    a = random_coord_matrix(rng, 3, 4, batch=(5,))
    b = random_coord_matrix(rng, 3, 4, batch=(5,))
    ref = reference_matmul(a, b)
    got = kernels.matmul(a, b)
    assert got.shape == ref.shape == (5, 3, 3, 4)
    assert np.allclose(got, ref, atol=1e-12)


def test_matmul_matches_scalar_complex(rng):
    # complex tag: coordinate product must equal the ordinary complex product
    n = 3
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    ac = np.stack([a.real, a.imag], axis=-1)
    bc = np.stack([b.real, b.imag], axis=-1)
    prod = kernels.matmul(ac, bc)
    ref = a @ b
    assert np.allclose(prod[..., 0], ref.real, atol=1e-12)
    assert np.allclose(prod[..., 1], ref.imag, atol=1e-12)


def test_jordan_mul_symmetric(rng):
    a = kernels.hermitize(random_coord_matrix(rng, 3, 2))
    b = kernels.hermitize(random_coord_matrix(rng, 3, 2))
    ab = kernels.jordan_mul(a, b)
    assert np.allclose(ab, kernels.jordan_mul(b, a), atol=1e-12)
    assert np.allclose(ab, kernels.hermitize(ab), atol=1e-12)


def test_triple_linear_in_outer_slots(rng):
    # polarization of the quadratic map: U_{a+c} b - U_a b - U_c b = {a, b, c} + {c, b, a}
    for k in (1, 2, 4, 8):
        a, b, c = (kernels.hermitize(random_coord_matrix(rng, 3, k)) for _ in range(3))
        lhs = kernels.quadratic(a + c, b) - kernels.quadratic(a, b) - kernels.quadratic(c, b)
        assert_matches(lhs, einsum_triple(a, b, c) + einsum_triple(c, b, a))


@pytest.mark.parametrize("k", [1, 2, 4])
def test_embed_real_roundtrip(k, rng):
    a = kernels.hermitize(random_coord_matrix(rng, 3, k))
    m = kernels.embed_real(a)
    assert np.allclose(m, m.T, atol=1e-12)
    back = kernels.extract_from_real(m, 3, k)
    assert np.allclose(back, a, atol=1e-12)


@pytest.mark.parametrize("k", [2, 4])
def test_embed_real_is_homomorphism(k, rng):
    a = random_coord_matrix(rng, 2, k)
    b = random_coord_matrix(rng, 2, k)
    lhs = kernels.embed_real(kernels.matmul(a, b))
    rhs = kernels.embed_real(a) @ kernels.embed_real(b)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_embed_real_rejects_octonions(rng):
    a = random_coord_matrix(rng, 3, 8)
    with pytest.raises(ValueError):
        kernels.embed_real(a)


def test_hermitize_fixes_hermitian():
    e = np.zeros((2, 2, 2))
    e[0, 0, 0] = 1.0
    assert np.array_equal(kernels.hermitize(e), e)
