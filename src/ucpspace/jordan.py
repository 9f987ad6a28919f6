"""Hermitian matrices under the symmetrized product, up to the 3x3 octonions.

Elements carry a tag: "R", "C", "H" (any size n) or "O3" (octonion entries,
size 3 only; larger octonion hermitian matrices do not close under the
symmetrized product).  Coordinates live in an (n, n, k) float array against
the Cayley-Dickson basis; the diagonal is real and opposite entries are
conjugate.

The product is a o b = (ab + ba) / 2 and the quadratic map is

    U_a b = {a, b, a} = 2 a o (a o b) - (a o a) o b

which for associative tags collapses to aba.  Spectral theory:

    R/C/H   real symmetric embedding by left-multiplication blocks, then
            LAPACK eigh; eigenvalues arrive k-fold and cluster projectors are
            pulled back through the embedding
    O3      eigenvalues are the roots of the characteristic cubic
            t^3 - tr(a) t^2 + sigma(a) t - det(a), with sigma the quadratic
            trace coefficient and det the Freudenthal cubic form; the frame
            comes from Lagrange interpolation in a (single-element
            subalgebras are associative, so the polynomials are unambiguous)

Both tolerances are relative to the element's spectral radius, so a
decomposition behaves the same at every scale: nearby eigenvalues merge
within CLUSTER_TOL (1e-9) of it; if the frame fails to reconstruct the
element within RESIDUAL_TOL (1e-7) of it the decomposition raises
DecompositionError rather than returning junk.
"""

from dataclasses import dataclass

import numpy as np

from . import cayley, kernels
from .errors import DecompositionError, SizeError

TAGS = ("R", "C", "H", "O3")

_TAG_DIM = {"R": 1, "C": 2, "H": 4, "O3": 8}

CLUSTER_TOL = 1e-9
RESIDUAL_TOL = 1e-7
# entrywise bound on a o a - a for an idempotent a
IDEMPOTENT_TOL = 1e-8


def coord_dim(tag):
    try:
        return _TAG_DIM[tag]
    except KeyError:
        raise SizeError(f"unknown algebra tag {tag!r}") from None


@dataclass(frozen=True)
class JordanElement:
    tag: str
    n: int
    coords: np.ndarray

    def __post_init__(self):
        k = coord_dim(self.tag)
        if self.tag == "O3" and self.n != 3:
            raise SizeError("octonion hermitian elements exist only at size 3")
        c = np.asarray(self.coords, dtype=np.float64)
        if c.shape != (self.n, self.n, k):
            raise SizeError(f"coords must have shape ({self.n}, {self.n}, {k})")
        object.__setattr__(self, "coords", c)

    def __add__(self, other):
        _same(self, other)
        return JordanElement(self.tag, self.n, self.coords + other.coords)

    def __sub__(self, other):
        _same(self, other)
        return JordanElement(self.tag, self.n, self.coords - other.coords)

    def __mul__(self, scalar):
        return JordanElement(self.tag, self.n, self.coords * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return JordanElement(self.tag, self.n, -self.coords)


def _same(a, b):
    if a.tag != b.tag or a.n != b.n:
        raise SizeError("operands live in different algebras")


def element(tag, coords):
    """Wrap and validate hermitian coordinates, within 1e-8 entrywise."""
    e = JordanElement(tag, np.asarray(coords).shape[0], coords)
    d = np.max(np.abs(e.coords - kernels.hermitize(e.coords)))
    if not d <= 1e-8:  # a NaN or infinite entry fails too
        raise SizeError(f"coordinates are not hermitian (defect {d:.2e})")
    return e


def identity(tag, n):
    k = coord_dim(tag)
    c = np.zeros((n, n, k))
    for i in range(n):
        c[i, i, 0] = 1.0
    return JordanElement(tag, n, c)


def zero(tag, n):
    return JordanElement(tag, n, np.zeros((n, n, coord_dim(tag))))


def diag(tag, values):
    n = len(values)
    c = np.zeros((n, n, coord_dim(tag)))
    for i, v in enumerate(values):
        c[i, i, 0] = float(v)
    return JordanElement(tag, n, c)


def jordan_product(a, b):
    _same(a, b)
    return JordanElement(a.tag, a.n, kernels.jordan_mul(a.coords, b.coords))


def quadratic(a, b):
    """U_a b = {a, b, a}."""
    _same(a, b)
    return JordanElement(a.tag, a.n, kernels.quadratic(a.coords, b.coords))


def trace(a):
    return float(np.sum(a.coords[np.arange(a.n), np.arange(a.n), 0]))


def inner(a, b):
    """Trace form tr(a o b); equals the Euclidean coordinate inner product."""
    _same(a, b)
    return float(np.sum(a.coords * b.coords))


def max_abs(a):
    return float(np.max(np.abs(a.coords))) if a.coords.size else 0.0


def is_idempotent(a):
    """a o a = a within IDEMPOTENT_TOL entrywise."""
    return float(np.max(np.abs(kernels.jordan_mul(a.coords, a.coords) - a.coords))) <= IDEMPOTENT_TOL


def hermitian_basis(tag, n):
    """Orthonormal basis of the hermitian space under the trace form.

    Diagonal units first, then for each i < j and each coordinate one
    off-diagonal element scaled by 1/sqrt(2).  Length n + n(n-1)k/2.
    """
    k = coord_dim(tag)
    out = []
    for i in range(n):
        c = np.zeros((n, n, k))
        c[i, i, 0] = 1.0
        out.append(JordanElement(tag, n, c))
    r = 1.0 / np.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            for q in range(k):
                c = np.zeros((n, n, k))
                c[i, j, q] = r
                c[j, i, q] = r if q == 0 else -r
                out.append(JordanElement(tag, n, c))
    return out


def basis_coords(a, basis):
    return np.array([inner(b, a) for b in basis])


def operator_matrix(fn, tag, n):
    """Real matrix of a linear map on hermitian space, over `hermitian_basis`."""
    basis = hermitian_basis(tag, n)
    cols = [basis_coords(fn(b), basis) for b in basis]
    return np.stack(cols, axis=1)


@dataclass
class Spectrum:
    """Ascending eigenvalues with an orthogonal idempotent frame.

    values[i] belongs to frame[i] with the given multiplicity; the frame sums
    to the identity and reconstructs the element as sum(values[i] * frame[i]).
    """

    values: np.ndarray
    frame: list
    multiplicity: list


def _cluster(sorted_vals, tol):
    groups = []
    start = 0
    for i in range(1, len(sorted_vals) + 1):
        if i == len(sorted_vals) or sorted_vals[i] - sorted_vals[i - 1] > tol:
            groups.append((start, i))
            start = i
    return groups


def _radius(sorted_vals):
    return max(abs(float(sorted_vals[0])), abs(float(sorted_vals[-1])))


def _check_residual(a, spectrum):
    acc = np.zeros_like(a.coords)
    for v, p in zip(spectrum.values, spectrum.frame):
        acc += v * p.coords
    resid = float(np.max(np.abs(acc - a.coords)))
    if resid > RESIDUAL_TOL * _radius(spectrum.values):
        raise DecompositionError(f"frame reconstruction residual {resid:.2e}")
    return spectrum


def spectral_decomposition(a):
    k = coord_dim(a.tag)
    n = a.n
    off = a.coords.copy()
    for i in range(n):
        off[i, i, :] = 0.0
    diag_imag = a.coords[np.arange(n), np.arange(n), 1:]
    if np.max(np.abs(off)) == 0.0 and (diag_imag.size == 0 or np.max(np.abs(diag_imag)) == 0.0):
        return _spectral_diagonal(a)
    spectral = _spectral_octonion if a.tag == "O3" else _spectral_embedded
    return _check_residual(a, spectral(a))


def _spectral_diagonal(a):
    # exact path: eigenvalues are the diagonal entries themselves
    d = a.coords[np.arange(a.n), np.arange(a.n), 0]
    order = np.argsort(d, kind="stable")
    svals = d[order]
    values, frame, mult = [], [], []
    for s, e in _cluster(svals, CLUSTER_TOL * _radius(svals)):
        members = order[s:e]
        c = np.zeros_like(a.coords)
        for i in members:
            c[i, i, 0] = 1.0
        values.append(svals[s] if e - s == 1 else float(np.mean(svals[s:e])))
        frame.append(JordanElement(a.tag, a.n, c))
        mult.append(e - s)
    return Spectrum(np.array(values), frame, mult)


def _spectral_embedded(a):
    k = coord_dim(a.tag)
    m = kernels.embed_real(a.coords)
    w, v = np.linalg.eigh(m)
    values, frame, mult = [], [], []
    for s, e in _cluster(w, CLUSTER_TOL * _radius(w)):
        if (e - s) % k:
            # eigenvalues of the embedding always arrive k-fold; a ragged
            # cluster means two true eigenvalues straddle the tolerance
            raise DecompositionError("cluster width inconsistent with the embedding multiplicity")
        vecs = v[:, s:e]
        p = vecs @ vecs.T
        values.append(float(np.mean(w[s:e])))
        frame.append(JordanElement(a.tag, a.n, kernels.extract_from_real(p, a.n, k)))
        mult.append((e - s) // k)
    return Spectrum(np.array(values), frame, mult)


def octonion_det(a):
    """Freudenthal cubic form of a 3x3 octonion hermitian element.

    With diagonal (d0, d1, d2) and upper entries x = a[0,1], y = a[0,2],
    z = a[1,2]:  d0 d1 d2 - d0 n(z) - d1 n(y) - d2 n(x) + 2 Re((z conj(y)) x).
    The real part of a triple product is association-free, so the grouping is
    immaterial; this one is fixed for reproducibility.
    """
    c = np.asarray(a.coords if isinstance(a, JordanElement) else a, dtype=np.float64)
    d0, d1, d2 = c[..., 0, 0, 0], c[..., 1, 1, 0], c[..., 2, 2, 0]
    x, y, z = c[..., 0, 1, :], c[..., 0, 2, :], c[..., 1, 2, :]
    cross = cayley.multiply(cayley.multiply(z, cayley.conj(y)), x)[..., 0]
    return d0 * d1 * d2 - d0 * cayley.norm2(z) - d1 * cayley.norm2(y) - d2 * cayley.norm2(x) + 2.0 * cross


def characteristic_cubic(a):
    """(t1, s2, d3): coefficients of t^3 - t1 t^2 + s2 t - d3, of an O3 element or of each in a coordinate stack."""
    c = np.asarray(a.coords if isinstance(a, JordanElement) else a, dtype=np.float64)
    d = np.arange(3)
    t1 = c[..., d, d, 0].sum(axis=-1)
    t2 = kernels.jordan_mul(c, c)[..., d, d, 0].sum(axis=-1)
    s2 = 0.5 * (t1 * t1 - t2)
    return t1, s2, octonion_det(c)


def _cubic_roots(t1, s2, d3):
    """Real roots of t^3 - t1 t^2 + s2 t - d3, ascending (trig form)."""
    p = s2 - t1 * t1 / 3.0
    q = -2.0 * t1**3 / 27.0 + t1 * s2 / 3.0 - d3
    shift = t1 / 3.0
    # p = -sum_{i<j} (l_i - l_j)^2 / 6 while t1^2 - 2 s2 = sum_i l_i^2: a
    # (near-)triple root is a spread that vanishes relative to the scale
    if p >= -1e-14 * (t1 * t1 - 2.0 * s2):
        return np.array([shift, shift, shift])
    r = np.sqrt(-p / 3.0)
    arg = np.clip(3.0 * q / (2.0 * p * r), -1.0, 1.0)
    phi = np.arccos(arg)
    ys = 2.0 * r * np.cos((phi - 2.0 * np.pi * np.arange(3)) / 3.0)
    roots = np.sort(ys + shift)
    # coefficient noise splits a double root symmetrically by the square root
    # of the noise, relative to the spectral radius; the pair mean cancels
    # the split to first order
    close = 32.0 * np.sqrt(np.finfo(np.float64).eps) * _radius(roots)
    if roots[2] - roots[0] <= close:
        roots[:] = np.mean(roots)
    elif roots[1] - roots[0] <= close:
        roots[:2] = 0.5 * (roots[0] + roots[1])
    elif roots[2] - roots[1] <= close:
        roots[1:] = 0.5 * (roots[1] + roots[2])
    return roots


def _spectral_octonion(a):
    t1, s2, d3 = characteristic_cubic(a)
    roots = _cubic_roots(t1, s2, d3)
    groups = _cluster(roots, CLUSTER_TOL * _radius(roots))
    ident = identity(a.tag, a.n)
    reps = [float(np.mean(roots[s:e])) for s, e in groups]
    mult = [e - s for s, e in groups]
    if len(groups) == 1:
        return Spectrum(np.array(reps), [ident], mult)
    a2 = jordan_product(a, a)
    frame = []
    for i, li in enumerate(reps):
        others = [reps[j] for j in range(len(reps)) if j != i]
        if len(others) == 1:
            mu = others[0]
            p = (a - mu * ident) * (1.0 / (li - mu))
        else:
            mu, nu = others
            p = (a2 - (mu + nu) * a + (mu * nu) * ident) * (1.0 / ((li - mu) * (li - nu)))
        frame.append(p)
    return Spectrum(np.array(reps), frame, mult)


def operator_norm(a):
    """Largest absolute eigenvalue."""
    return float(batched_operator_norm(a.tag, a.coords[None])[0])


def eigenvalues(a):
    """Distinct-with-multiplicity eigenvalue array, ascending, without the frame."""
    return batched_eigenvalues(a.tag, a.coords[None])[0]


@dataclass
class NormLawReport:
    """The three norm laws plus the defining identity of the product."""

    submultiplicative_slack: float  # ||a||*||b|| - ||a o b||, should be >= -tol
    square_norm_residual: float  # | ||a o a|| - ||a||^2 |
    square_sum_slack: float  # ||a^2 + b^2|| - ||a^2||, should be >= -tol
    jordan_identity_residual: float  # ||a^2 o (a o b) - a o (a^2 o b)||

    def passed(self, tol=1e-8):
        return (
            self.submultiplicative_slack >= -tol
            and self.square_norm_residual <= tol
            and self.square_sum_slack >= -tol
            and self.jordan_identity_residual <= tol
        )


def check_norm_laws(a, b):
    ab = jordan_product(a, b)
    a2 = jordan_product(a, a)
    b2 = jordan_product(b, b)
    na, nb = operator_norm(a), operator_norm(b)
    lhs = jordan_product(a2, ab)
    rhs = jordan_product(a, jordan_product(a2, b))
    return NormLawReport(
        submultiplicative_slack=na * nb - operator_norm(ab),
        square_norm_residual=abs(operator_norm(a2) - na * na),
        square_sum_slack=operator_norm(a2 + b2) - operator_norm(a2),
        jordan_identity_residual=operator_norm(lhs - rhs),
    )


def random_hermitian(tag, n, rng, scale=1.0):
    k = coord_dim(tag)
    raw = rng.uniform(-scale, scale, size=(n, n, k))
    return JordanElement(tag, n, kernels.hermitize(raw))


def random_frame(tag, n, rng):
    """Primitive idempotent frame from a generic random element."""
    for _ in range(8):
        s = spectral_decomposition(random_hermitian(tag, n, rng))
        if len(s.frame) == n:
            return s.frame
    raise DecompositionError("could not draw a generic element with simple spectrum")


def random_projection(tag, n, rng, rank=None):
    """Random idempotent of the given rank (default: uniform over 1..n-1)."""
    if rank is None:
        rank = int(rng.integers(1, n)) if n > 1 else 1
    frame = random_frame(tag, n, rng)
    picks = rng.permutation(n)[:rank]
    c = np.zeros((n, n, coord_dim(tag)))
    for i in picks:
        c += frame[int(i)].coords
    return JordanElement(tag, n, c)


def complement_projection(p):
    return identity(p.tag, p.n) - p


# ---------------------------------------------------------------------------
# batched sweep helpers (stacked coordinate arrays through kernels.py)


def batched_eigenvalues(tag, coords):
    """(B, n) ascending eigenvalues for a stacked coordinate array."""
    if tag == "O3":
        return np.array([_cubic_roots(*cubic) for cubic in zip(*characteristic_cubic(coords))]).reshape(-1, 3)
    k = coord_dim(tag)
    w = np.linalg.eigvalsh(kernels.embed_real(coords))
    return w[..., ::k]


def batched_operator_norm(tag, coords):
    return np.max(np.abs(batched_eigenvalues(tag, coords)), axis=-1, initial=0.0)
