"""Lüders conditioning in hermitian matrix algebras.

For an idempotent e the compression U_e x = {e, x, e} is a positive linear
projection with U_e(identity) = e; in associative coordinates it is x -> exe.
Conditioning a density element renormalizes its compression, which is exactly
the Lüders rule  mu(f|e) = <rho, {e,f,e}> / <rho, e>.

Operator-level checks materialize U_e as a real matrix over the orthonormal
hermitian basis, so composition identities reduce to matrix arithmetic:

    comparable pairs   e <= f:  U_e U_f = U_f U_e = U_e,  U_e f = e = U_f e
    orthogonal pairs   e _|_ f: both compositions vanish, U_e f = 0 = U_f e

and the two-sided conditioning symmetry says {e,f,e} + {e',f',e'} equals the
same expression with e and f exchanged.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import jordan, kernels, orthospace
from .errors import ConditioningUndefinedError, PreconditionError, SizeError

IDEMPOTENT_TOL = 1e-8
MASS_THRESHOLD = 1e-12


def _require_idempotent(e, tol=IDEMPOTENT_TOL):
    if not jordan.is_idempotent(e, tol):
        raise PreconditionError("compression requires an idempotent element")


def compression_matrix(e):
    """U_e as a real matrix over the orthonormal hermitian basis."""
    _require_idempotent(e)
    return jordan.operator_matrix(lambda x: jordan.triple_product(e, x, e), e.tag, e.n)


def _density_errors(tag, coords):
    """Per density of a stack: the PreconditionError of its first failed check, or None.

    A density has trace 1 within 1e-12 and no eigenvalue below -1e-10.
    """
    d = np.arange(coords.shape[-2])
    traces = coords[:, d, d, 0].sum(axis=1).tolist()
    floors = jordan.batched_eigenvalues(tag, coords)[:, 0].tolist()
    errors = []
    for tr, w in zip(traces, floors):
        # negated comparisons, so that a NaN fails them
        if not abs(tr - 1.0) <= 1e-12:
            errors.append(PreconditionError(f"density trace is {tr!r}, not 1"))
        elif not w >= -1e-10:
            errors.append(PreconditionError(f"density has negative eigenvalue {w:.2e}"))
        else:
            errors.append(None)
    return errors


def _check_densities(tag, coords):
    """Raise the error of the first density of a (B, n, n, k) stack that fails: one `_density_errors` call."""
    first = next((error for error in _density_errors(tag, coords) if error is not None), None)
    if first is not None:
        raise first


@dataclass(frozen=True)
class DensityState:
    """Positive trace-one element pairing with the algebra via the trace form."""

    element: jordan.JordanElement

    def __post_init__(self):
        _check_densities(self.element.tag, self.element.coords[None])

    @classmethod
    def _checked(cls, element):
        """The DensityState of an element already checked as part of a DensityStack."""
        state = object.__new__(cls)
        object.__setattr__(state, "element", element)
        return state

    @property
    def tag(self):
        return self.element.tag

    @property
    def n(self):
        return self.element.n

    def expect(self, x):
        return jordan.inner(self.element, x)


class DensityStack(Sequence):
    """Densities of one algebra as a (B, n, n, k) coordinate stack, checked once as a stack.

    The constructor makes one `_density_errors` call and raises the first
    failure with the message DensityState gives it.  Item l is the DensityState
    of coords[l], not checked again; a slice is a DensityStack.
    """

    def __init__(self, tag, coords):
        coords = np.asarray(coords, dtype=np.float64)
        _check_densities(tag, coords)
        self.tag, self.coords = tag, coords

    @property
    def n(self):
        return self.coords.shape[1]

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return DensityStack(self.tag, self.coords[i])
        return DensityState._checked(jordan.JordanElement(self.tag, self.n, self.coords[i]))


def density_from(el):
    """Normalize a nonzero positive element to trace one."""
    tr = jordan.trace(el)
    if tr <= MASS_THRESHOLD:
        raise ConditioningUndefinedError("element has (near-)zero trace")
    return DensityState(el * (1.0 / tr))


def _compressions(coords, events, threshold):
    """(conditionals, masses, traces) over every (event, density) pair; see `condition_stack`.

    The conditionals are {e, rho, e} / tr, not yet checked as densities, and
    hold the unnormalized compression where `_undefined` names an error.
    """
    for e in events:
        _require_idempotent(e)
        if coords.shape[1:] != e.coords.shape:
            raise SizeError("operands live in different algebras")
    es = np.stack([e.coords for e in events])[:, None]
    masses = np.sum(coords * es, axis=(2, 3, 4))
    comp = np.empty(masses.shape + coords.shape[1:])
    for block in orthospace.pair_blocks(len(es), len(coords)):
        comp[block] = kernels.triple(es[block], coords, es[block])
    d = np.arange(coords.shape[1])
    traces = comp[:, :, d, d, 0].sum(axis=-1)
    live = (masses > threshold) & (traces > MASS_THRESHOLD)
    return comp * (1.0 / np.where(live, traces, 1.0))[..., None, None, None], masses, traces


def _undefined(mass, trace, threshold):
    """The ConditioningUndefinedError of a pair with this mass and compression trace, or None."""
    if mass <= threshold:
        return ConditioningUndefinedError(f"event mass {mass:.2e} at or below threshold {threshold:.0e}")
    if trace <= MASS_THRESHOLD:
        return ConditioningUndefinedError("element has (near-)zero trace")
    return None


def condition_stack(coords, events, threshold=MASS_THRESHOLD):
    """Lüders conditionals of a (B, n, n, k) stack of densities under each of a list of events.

    Returns (conditionals, errors): the (E, B, n, n, k) stack of {e, rho, e} / tr
    over every (event, density) pair, and errors[i][l], the exception of the
    first failed check of density l under event i, or None.  The pairs are
    compressed by `kernels.triple` calls over blocks of events, each block
    holding at most `orthospace._PAIR_BLOCK` pairs (or one event).  In order
    the checks are: mass <rho, e> above `threshold`, compression trace above
    MASS_THRESHOLD, and the density checks of the result.  The idempotency of
    each event is checked once and raises.  Each compression is normalized by
    its own trace, which equals the mass in exact arithmetic; dividing by the
    separately rounded mass leaves a trace error that grows as the mass shrinks.
    """
    conds, masses, traces = _compressions(coords, events, threshold)
    undefined = (masses <= threshold) | (traces <= MASS_THRESHOLD)
    errors = np.full(masses.shape, None, dtype=object)
    errors[~undefined] = _density_errors(events[0].tag, conds[~undefined])
    for i, l in zip(*np.nonzero(undefined)):
        errors[i, l] = _undefined(masses[i, l], traces[i, l], threshold)
    return conds, errors.tolist()


def condition(rho, e, threshold=MASS_THRESHOLD):
    """Lüders conditional rho_e = {e, rho, e} / <rho, e>, checked once, as a one-density DensityStack."""
    conds, masses, traces = _compressions(rho.element.coords[None], [e], threshold)
    error = _undefined(masses[0, 0], traces[0, 0], threshold)
    if error is not None:
        raise error
    return DensityStack(e.tag, conds[0])[0]


def conditional_probability(rho, f, e, threshold=MASS_THRESHOLD):
    """mu(f|e) without materializing the conditional state."""
    _require_idempotent(e)
    mass = rho.expect(e)
    if mass <= threshold:
        raise ConditioningUndefinedError(f"event mass {mass:.2e} at or below threshold {threshold:.0e}")
    return rho.expect(jordan.triple_product(e, f, e)) / mass


LEQ = "leq"
GEQ = "geq"
ORTHOGONAL = "orthogonal"


def classify_pair(e, f, tol=IDEMPOTENT_TOL):
    """leq / geq / orthogonal, or None when no compression identity applies.

    Order is the cone order (f - e positive); orthogonality is a vanishing
    product.  For idempotents e <= f and e _|_ f are mutually exclusive unless
    e = 0, where the orthogonal reading is used.
    """
    if jordan.max_abs(jordan.jordan_product(e, f)) <= tol:
        return ORTHOGONAL
    diff = f - e
    w = jordan.eigenvalues(diff)
    if float(w[0]) >= -tol:
        return LEQ
    if float(w[-1]) <= tol:
        return GEQ
    return None


@dataclass
class CompressionIdentityReport:
    """Residuals of the four composition identities for one ordered pair."""

    relation: str
    compose_left: float  # ||U_e U_f - expected||
    compose_right: float  # ||U_f U_e - expected||
    image_f: float  # ||U_e f - expected||
    image_e: float  # ||U_f e - expected||

    def worst(self):
        return max(self.compose_left, self.compose_right, self.image_f, self.image_e)

    def passed(self, tol=1e-10):
        return self.worst() <= tol


def check_compression_identities(e, f, tol=IDEMPOTENT_TOL):
    """Verify the comparable/orthogonal composition identities for (e, f)."""
    _require_idempotent(e)
    _require_idempotent(f)
    relation = classify_pair(e, f, tol)
    if relation is None:
        raise PreconditionError("elements are neither comparable nor orthogonal")
    if relation == GEQ:
        e, f = f, e
        relation = LEQ
    ue = compression_matrix(e)
    uf = compression_matrix(f)
    if relation == LEQ:
        target_ops, tf, te = ue, e, e
    else:
        target_ops, tf, te = np.zeros_like(ue), jordan.zero(e.tag, e.n), jordan.zero(e.tag, e.n)
    return CompressionIdentityReport(
        relation=relation,
        compose_left=float(np.linalg.norm(ue @ uf - target_ops, 2)),
        compose_right=float(np.linalg.norm(uf @ ue - target_ops, 2)),
        image_f=jordan.operator_norm(jordan.triple_product(e, f, e) - tf),
        image_e=jordan.operator_norm(jordan.triple_product(f, e, f) - te),
    )


def symmetry_sides(e, f):
    """({e,f,e} + {e',f',e'},  {f,e,f} + {f',e',f'}) for complement-primed pairs."""
    ec, fc = jordan.complement_projection(e), jordan.complement_projection(f)
    lhs = jordan.triple_product(e, f, e) + jordan.triple_product(ec, fc, ec)
    rhs = jordan.triple_product(f, e, f) + jordan.triple_product(fc, ec, fc)
    return lhs, rhs


def batched_symmetry_residual(tag, es, fs):
    """Symmetry defect norms for stacked projection coordinate arrays."""
    n = es.shape[-3]
    ident = jordan.identity(tag, n).coords
    ecs, fcs = ident - es, ident - fs
    lhs = kernels.triple(es, fs, es) + kernels.triple(ecs, fcs, ecs)
    rhs = kernels.triple(fs, es, fs) + kernels.triple(fcs, ecs, fcs)
    return jordan.batched_operator_norm(tag, lhs - rhs)


def random_positive(tag, n, rng, scale=1.0):
    """Random element of the positive cone (a square)."""
    h = jordan.random_hermitian(tag, n, rng, scale)
    return jordan.jordan_product(h, h)
