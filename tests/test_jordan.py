"""Hermitian matrix algebras over the four coordinate rings, with spectra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucpspace import cayley, jordan, kernels
from ucpspace.errors import SizeError
from ucpspace.jordan import (
    check_norm_laws,
    diag,
    eigenvalues,
    element,
    hermitian_basis,
    identity,
    inner,
    is_idempotent,
    jordan_product,
    operator_norm,
    quadratic,
    random_hermitian,
    random_projection,
    spectral_decomposition,
    trace,
    zero,
)


def qubit_e():
    return diag("C", [1, 0])


def qubit_f():
    c = np.zeros((2, 2, 2))
    c[:, :, 0] = 0.5
    return element("C", c)


class TestProduct:
    def test_idempotent(self):
        e = qubit_e()
        assert np.allclose(jordan_product(e, e).coords, e.coords, atol=1e-12)

    def test_worked_product(self):
        # e o f has entries [[1/2, 1/4], [1/4, 0]]
        ef = jordan_product(qubit_e(), qubit_f())
        expect = np.zeros((2, 2, 2))
        expect[:, :, 0] = [[0.5, 0.25], [0.25, 0.0]]
        assert np.allclose(ef.coords, expect, atol=1e-12)

    def test_unit(self, rng):
        for tag, n in (("R", 3), ("C", 3), ("H", 2), ("O3", 3)):
            a = random_hermitian(tag, n, rng)
            assert np.allclose(
                jordan_product(identity(tag, n), a).coords, a.coords, atol=1e-12
            )

    def test_commutative(self, rng):
        a = random_hermitian("H", 3, rng)
        b = random_hermitian("H", 3, rng)
        assert np.allclose(
            jordan_product(a, b).coords, jordan_product(b, a).coords, atol=1e-12
        )

    def test_mismatched_algebras_rejected(self):
        with pytest.raises(SizeError):
            jordan_product(identity("R", 2), identity("C", 2))


class TestTriple:
    """The triple {a, b, a} with equal outer slots, as the quadratic map U_a b."""

    def test_worked_triple(self):
        # {e, f, e} = efe = [[1/2, 0], [0, 0]]
        t = quadratic(qubit_e(), qubit_f())
        expect = np.zeros((2, 2, 2))
        expect[0, 0, 0] = 0.5
        assert np.allclose(t.coords, expect, atol=1e-12)

    def test_unit_outer(self, rng):
        b = random_hermitian("C", 3, rng)
        i = identity("C", 3)
        assert np.allclose(quadratic(i, b).coords, b.coords, atol=1e-12)

    def test_idempotent_middle_unit(self):
        e = qubit_e()
        t = quadratic(e, identity("C", 2))
        assert np.allclose(t.coords, e.coords, atol=1e-12)

    def test_matches_associative_oracle(self, rng):
        # over C the quadratic map is literally aba in complex arithmetic
        a = random_hermitian("C", 3, rng)
        b = random_hermitian("C", 3, rng)
        am = a.coords[..., 0] + 1j * a.coords[..., 1]
        bm = b.coords[..., 0] + 1j * b.coords[..., 1]
        ref = am @ bm @ am
        t = quadratic(a, b)
        assert np.allclose(t.coords[..., 0], ref.real, atol=1e-10)
        assert np.allclose(t.coords[..., 1], ref.imag, atol=1e-10)


class TestSpectra:
    def test_diagonal_real(self):
        s = spectral_decomposition(diag("R", [2, -1]))
        assert np.allclose(s.values, [-1, 2])
        frames = [f.coords[..., 0] for f in s.frame]
        assert np.allclose(frames[0], [[0, 0], [0, 1]], atol=1e-12)
        assert np.allclose(frames[1], [[1, 0], [0, 0]], atol=1e-12)

    def test_projection_spectrum(self):
        s = spectral_decomposition(qubit_f())
        assert np.allclose(s.values, [0, 1], atol=1e-12)

    def test_albert_diagonal(self):
        s = spectral_decomposition(diag("O3", [0.3, 1.7, -2.0]))
        assert np.allclose(s.values, [-2.0, 0.3, 1.7], atol=1e-10)
        for f in s.frame:
            assert is_idempotent(f)

    def test_frame_reconstructs(self, rng):
        for tag, n in (("R", 3), ("C", 3), ("H", 2), ("O3", 3)):
            a = random_hermitian(tag, n, rng)
            s = spectral_decomposition(a)
            recon = sum(
                (v * f for v, f in zip(s.values, s.frame)), zero(tag, n)
            )
            assert np.allclose(recon.coords, a.coords, atol=1e-7)
            total = sum(s.frame, zero(tag, n))
            assert np.allclose(total.coords, identity(tag, n).coords, atol=1e-7)

    def test_frame_orthogonal(self, rng):
        a = random_hermitian("C", 4, rng)
        s = spectral_decomposition(a)
        for i, f in enumerate(s.frame):
            for j, g in enumerate(s.frame):
                prod = jordan_product(f, g)
                target = f.coords if i == j else 0 * prod.coords
                assert np.allclose(prod.coords, target, atol=1e-8)

    def test_multiplicity(self):
        s = spectral_decomposition(diag("C", [1, 1, 0]))
        assert s.multiplicity == [2, 1] or s.multiplicity == [1, 2]
        assert sum(s.multiplicity) == 3


class TestNorm:
    def test_unit_norm(self):
        assert operator_norm(identity("C", 3)) == pytest.approx(1.0)

    def test_diag_norm(self):
        assert operator_norm(diag("R", [2, -1])) == pytest.approx(2.0)

    def test_worked_sum_norm(self):
        v = operator_norm(qubit_e() + qubit_f())
        assert v == pytest.approx(1 + 1 / np.sqrt(2), abs=1e-10)

    def test_eigenvalues_of_sum(self):
        vals = eigenvalues(qubit_e() + qubit_f())
        assert np.allclose(sorted(vals), [1 - 1 / np.sqrt(2), 1 + 1 / np.sqrt(2)], atol=1e-10)


class TestNormLaws:
    @pytest.mark.parametrize("tag,n", [("R", 3), ("C", 3), ("H", 3)])
    def test_random_pairs(self, tag, n, rng):
        for _ in range(50):
            a = random_hermitian(tag, n, rng)
            b = random_hermitian(tag, n, rng)
            assert check_norm_laws(a, b).passed(1e-9)

    def test_unit_pair_exact(self):
        i = identity("C", 2)
        rep = check_norm_laws(i, i)
        assert rep.jordan_identity_residual <= 1e-14
        assert rep.square_norm_residual <= 1e-14

    def test_albert_pairs(self, rng):
        for _ in range(25):
            a = random_hermitian("O3", 3, rng)
            b = random_hermitian("O3", 3, rng)
            rep = check_norm_laws(a, b)
            assert rep.jordan_identity_residual <= 1e-8
            assert rep.passed(1e-8)


class TestProjections:
    def test_diag_projection(self):
        assert is_idempotent(qubit_e())

    def test_half_identity_not(self):
        assert not is_idempotent(0.5 * identity("C", 2))

    def test_albert_rank_one(self):
        # p = v v* for a unit octonion column embeds as a rank-1 idempotent
        rng = np.random.default_rng(3)
        v = rng.normal(size=8)
        v /= np.sqrt(cayley.norm2(v))
        c = np.zeros((3, 3, 8))
        c[0, 0, 0] = cayley.norm2(v)
        c[1, 1, 0] = 0.0
        c[0, 1] = cayley.conj(v) * 0.0
        # simplest embedding: diag block with vv* in the top corner
        p = diag("O3", [1, 0, 0])
        top = cayley.multiply(v, cayley.conj(v))
        assert np.allclose(top, p.coords[0, 0] * cayley.norm2(v), atol=1e-10)
        assert is_idempotent(p)

    def test_random_projection_idempotent(self, rng):
        for tag in ("R", "C", "H"):
            p = random_projection(tag, 3, rng)
            assert is_idempotent(p)
            vals = eigenvalues(p)
            assert np.all((np.abs(vals) < 1e-8) | (np.abs(vals - 1) < 1e-8))

    def test_random_projection_rank(self, rng):
        p = random_projection("C", 4, rng, rank=2)
        assert trace(p) == pytest.approx(2.0, abs=1e-8)


class TestBasis:
    @pytest.mark.parametrize(
        "tag,n,dim", [("R", 2, 3), ("C", 2, 4), ("H", 2, 6), ("C", 3, 9), ("O3", 3, 27)]
    )
    def test_dimension(self, tag, n, dim):
        assert len(hermitian_basis(tag, n)) == dim

    def test_orthonormal(self):
        basis = hermitian_basis("C", 3)
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                assert inner(a, b) == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


class TestValidation:
    def test_non_hermitian_rejected(self):
        c = np.zeros((2, 2, 2))
        c[0, 1, 0] = 1.0  # no conjugate partner below the diagonal
        with pytest.raises(SizeError):
            element("C", c)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, bad):
        # a NaN defect compares false against any tolerance, so the check is written to fail on it
        c = np.zeros((2, 2, 1))
        c[0, 0, 0] = bad
        with pytest.raises(SizeError):
            element("R", c)

    def test_octonion_size_pinned(self):
        with pytest.raises(SizeError):
            zero("O3", 2)


class TestCubicDeterminant:
    def test_newton_identity_on_diagonals(self):
        # the cubic invariants reproduce elementary symmetric functions
        a = diag("O3", [1.5, -0.5, 2.0])
        t1, s2, d3 = jordan.characteristic_cubic(a)
        assert t1 == pytest.approx(3.0, abs=1e-12)
        assert s2 == pytest.approx(1.5 * -0.5 + 1.5 * 2 + -0.5 * 2, abs=1e-10)
        assert d3 == pytest.approx(1.5 * -0.5 * 2.0, abs=1e-10)

    def test_det_vanishes_on_idempotents_with_kernel(self):
        p = diag("O3", [1, 1, 0])
        assert jordan.octonion_det(p) == pytest.approx(0.0, abs=1e-12)

    def test_cubic_matches_eigenvalues(self, rng):
        a = random_hermitian("O3", 3, rng)
        t1, s2, d3 = jordan.characteristic_cubic(a)
        vals = eigenvalues(a)
        assert np.sum(vals) == pytest.approx(t1, abs=1e-7)
        assert np.prod(vals) == pytest.approx(d3, abs=1e-7)

    def test_degenerate_spectra_stay_clean(self, rng):
        # generic rank-1 idempotents have a double eigenvalue at zero; the
        # closed-form cubic must not smear it to the sqrt-epsilon scale
        for _ in range(20):
            p = jordan.random_frame("O3", 3, rng)[0]
            vals = np.sort(eigenvalues(p))
            assert np.max(np.abs(vals - [0.0, 0.0, 1.0])) <= 1e-12


# scales 1e-9 .. 1e6, log-uniform
scales = st.floats(min_value=-9.0, max_value=6.0).map(lambda e: 10.0**e)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def complex_as_octonion(c):
    """A 3x3 complex hermitian element inside the Albert algebra (first two coordinates of eight)."""
    coords = np.zeros((3, 3, 8))
    coords[..., :2] = c.coords
    return element("O3", coords)


class TestSpectraAtEveryScale:
    def test_small_octonion_keeps_three_eigenvalues(self):
        a = random_hermitian("O3", 3, np.random.default_rng(0))
        s = spectral_decomposition(a * 1e-8)
        assert s.multiplicity == [1, 1, 1]
        assert np.allclose(s.values * 1e8, eigenvalues(a), rtol=1e-9, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(jordan.TAGS), seeds, scales)
    def test_spectrum_scales_with_the_element(self, tag, seed, scale):
        a = random_hermitian(tag, 3, np.random.default_rng(seed))
        ref = spectral_decomposition(a)
        got = spectral_decomposition(a * scale)
        radius = np.max(np.abs(ref.values))
        assert got.multiplicity == ref.multiplicity
        assert np.max(np.abs(got.values / scale - ref.values)) <= 1e-9 * radius
        assert np.max(np.abs(eigenvalues(a * scale) / scale - eigenvalues(a))) <= 1e-9 * radius

    @settings(max_examples=60, deadline=None)
    @given(seeds, scales, st.integers(1, 4), st.integers(1, 8))
    def test_complex_stack_spectra_equal_the_real_embedding(self, seed, scale, n, count):
        # the complex n x n eigvalsh against the real 2n x 2n embedding, whose eigenvalues come in pairs
        rng = np.random.default_rng(seed)
        coords = np.stack([random_hermitian("C", n, rng).coords for _ in range(count)]) * scale
        want = np.linalg.eigvalsh(kernels.embed_real(coords))[..., ::2]
        got = jordan.batched_eigenvalues("C", coords)
        radius = np.max(np.abs(want), axis=-1, keepdims=True)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * radius)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(jordan.TAGS), seeds, scales)
    def test_scaled_projection_keeps_its_double_eigenvalue(self, tag, seed, scale):
        p = random_projection(tag, 3, np.random.default_rng(seed), rank=1) * scale
        s = spectral_decomposition(p)
        assert s.multiplicity == [2, 1]
        assert np.max(np.abs(s.values - [0.0, scale])) <= 1e-9 * scale

    @settings(max_examples=60, deadline=None)
    @given(seeds, scales)
    def test_octonion_cubic_matches_the_complex_path(self, seed, scale):
        c = random_hermitian("C", 3, np.random.default_rng(seed)) * scale
        o = complex_as_octonion(c)
        want = spectral_decomposition(c)
        got = spectral_decomposition(o)
        radius = np.max(np.abs(want.values))
        assert got.multiplicity == want.multiplicity
        assert np.max(np.abs(got.values - want.values)) <= 1e-9 * radius
        assert np.max(np.abs(eigenvalues(o) - eigenvalues(c))) <= 1e-9 * radius
