"""Ready-made event systems and state families used across checks and tests.

Abstract side: Boolean algebras with their classical states, and the
horizontal-sum spaces MO_k (k incomparable complement pairs sharing 0 and the
unit) whose full polytope famously fails conditional uniqueness.

Matrix side: projection lists in 2x2 / 3x3 hermitian algebras bundled with
density states.  Each instance carries per-event densities e / tr(e) plus a
spanning family (identity perturbed by traceless basis directions), so the
pairing between events and states has full rank and the generator sup-norm
attains operator norms on primitive elements.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import cayley, jordan, lueders, orthospace, statespace


def mo_orthospace(k):
    """MO_k: events [0, a_1, a_1', ..., a_k, a_k', unit]; only complements are orthogonal."""
    return orthospace.horizontal_sum([orthospace.boolean_orthospace(2)] * k)


def cross_states(k):
    """The 2k cross-polytope states of MO_k: one block at (1, 0) or (0, 1), every other block at (1/2, 1/2).

    Block i at (1, 0) comes before block i at (0, 1), block by block.  They are
    the rational points +-e_i of the spin factor's state ball.
    """
    half = Fraction(1, 2)
    blocks = [[half] * i + [p] + [half] * (k - 1 - i) for i in range(k) for p in (Fraction(1), Fraction(0))]
    return [statespace.State((Fraction(0), *(v for p in ps for v in (p, 1 - p)), Fraction(1))) for ps in blocks]


def boolean_state(weights):
    """Classical state on boolean_orthospace(len(weights)) from atom weights."""
    w = [Fraction(x) for x in weights]
    if sum(w) != 1:
        raise ValueError("atom weights must sum to 1")
    n = len(w)
    values = []
    for mask in range(1 << n):
        values.append(sum(w[a] for a in range(n) if mask >> a & 1))
    return statespace.State(tuple(values))


def boolean_vertex_states(n_atoms):
    """The n Dirac states: unit mass on one atom."""
    out = []
    for a in range(n_atoms):
        out.append(boolean_state([Fraction(1 if i == a else 0) for i in range(n_atoms)]))
    return out


@dataclass
class MatrixInstance:
    """Projection list in a matrix algebra, with density states and the pairing."""

    tag: str
    n: int
    system: orthospace.ProjectionEventSystem
    densities: lueders.DensityStack

    @property
    def space(self):
        return self.system.space

    @property
    def elements(self):
        return self.system.elements

    def value_rows(self):
        """(n_states, n_events) array of tr(rho e)."""
        flat_e = np.stack([el.coords.reshape(-1) for el in self.elements])
        return self.densities.coords.reshape(len(self.densities), -1) @ flat_e.T


def _spanning_densities(tag, n):
    """Identity perturbed along traceless basis directions, as a (B, n, n, k) stack; spans with the mixed state.

    The first entry is the maximally mixed state.  `instance_from_projections`
    checks the stack as densities.
    """
    ident = jordan.identity(tag, n)
    out = [ident * (1.0 / n)]
    for b in jordan.hermitian_basis(tag, n):
        traceless = b - (jordan.trace(b) / n) * ident
        if jordan.max_abs(traceless) < 1e-12:
            continue
        out.append((ident + 0.4 * traceless) * (1.0 / n))
    return np.stack([el.coords for el in out])


def instance_from_projections(tag, n, projections):
    """Close a projection list into an event system; densities e / tr(e) plus a spanning family.

    All densities are checked once, as one DensityStack.
    """
    system = orthospace.projection_orthospace(projections)
    events = np.stack([el.coords for el in system.elements])
    d = np.arange(n)
    traces = events[:, d, d, 0].sum(axis=1)
    massive = traces > 0.5
    normalized = events[massive] * (1.0 / traces[massive])[:, None, None, None]
    densities = lueders.DensityStack(tag, np.concatenate([normalized, _spanning_densities(tag, n)]))
    return MatrixInstance(tag=tag, n=n, system=system, densities=densities)


def _frame_events(frame):
    """All partial sums of an orthogonal frame: singles and pairs (complements)."""
    out = list(frame)
    for i in range(len(frame)):
        for j in range(i + 1, len(frame)):
            out.append(frame[i] + frame[j])
    return out


def qubit_instance(bases=3):
    """2x2 complex projections from the three Pauli bases, plus 0 and the identity."""
    tag, n = "C", 2
    pz = jordan.diag(tag, [1.0, 0.0])
    px = jordan.element(tag, np.array([[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]))
    py = jordan.element(tag, np.array([[[0.5, 0.0], [0.0, -0.5]], [[0.0, 0.5], [0.5, 0.0]]]))
    ident = jordan.identity(tag, n)
    projections = [jordan.zero(tag, n), ident]
    for p in (pz, px, py)[:bases]:
        projections.extend([p, ident - p])
    return instance_from_projections(tag, n, projections)


def qutrit_instance(seed=5):
    """3x3 complex projections: the diagonal frame plus three generic frames, all closed up."""
    tag, n = "C", 3
    rng = np.random.default_rng(seed)
    projections = [jordan.zero(tag, n), jordan.identity(tag, n)]
    diag_frame = [jordan.diag(tag, [1.0 if i == j else 0.0 for i in range(n)]) for j in range(n)]
    projections.extend(_frame_events(diag_frame))
    for _ in range(3):
        projections.extend(_frame_events(jordan.random_frame(tag, n, rng)))
    return instance_from_projections(tag, n, projections)


def _rank1_from_vector(tag, v):
    """Projection onto the line spanned by a unit coordinate column v (n, k)."""
    n = v.shape[0]
    c = np.empty((n, n, v.shape[1]))
    for i in range(n):
        for j in range(n):
            c[i, j] = cayley.multiply(v[i], cayley.conj(v[j]))
    return jordan.JordanElement(tag, n, c)


def sparse_conditioning_instance():
    """3x3 instance too poor to represent a compressed event.

    Events: 0, identity, the rank-2 diagonal e, its complement, one generic
    rank-1 f with complement.  Compressing f by e lands outside the span of
    every orthogonal family available here.
    """
    tag, n = "C", 3
    rng = np.random.default_rng(13)
    e = jordan.diag(tag, [1.0, 1.0, 0.0])
    v = rng.normal(size=(n, 2))
    v /= np.sqrt(np.sum(v * v))
    f = _rank1_from_vector(tag, v)
    ident = jordan.identity(tag, n)
    projections = [jordan.zero(tag, n), ident, e, ident - e, f, ident - f]
    return instance_from_projections(tag, n, projections)


def enriched_conditioning_instance():
    """The sparse instance extended by the spectral projections of {e,f,e}."""
    base = sparse_conditioning_instance()
    e, f = base.elements[2], base.elements[4]
    compressed = jordan.quadratic(e, f)
    spec = jordan.spectral_decomposition(compressed)
    ident = jordan.identity(base.tag, base.n)
    g = None
    for value, p in zip(spec.values, spec.frame):
        if abs(value) > 1e-8 and abs(jordan.trace(p) - 1.0) < 1e-6:
            g = p
    if g is None:
        raise RuntimeError("compressed element lost its rank-1 part")
    ec = ident - e
    projections = [el for el in base.elements]
    # f is orthogonal to e - g (its overlap with e lies along g), so the sum
    # f + (e - g) and its complement are forced into the closure as well
    projections.extend([g, ident - g, g + ec, e - g, f + e - g, ident - (f + e - g)])
    return instance_from_projections(base.tag, base.n, projections)


def sparse_sum_instance():
    """Qubit instance with only the z and x bases: e + f has no spectral events."""
    return qubit_instance(bases=2)


def enriched_sum_instance():
    """z and x bases extended by the spectral projections of pz + px."""
    base = qubit_instance(bases=2)
    pz, px = base.elements[2], base.elements[4]
    spec = jordan.spectral_decomposition(pz + px)
    ident = jordan.identity(base.tag, base.n)
    projections = [el for el in base.elements]
    w = spec.frame[-1]
    projections.extend([w, ident - w])
    return instance_from_projections(base.tag, base.n, projections)
