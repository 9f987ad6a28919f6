"""Finite-support observables over an event system.

An observable allocates pairwise-orthogonal events to finitely many distinct
real values, with the events summing to the unit: the finite form of a
bounded spectral measure.  Its expectation in a state is the value-weighted
event probability, and its representing element in the synthetic dual has
norm equal to the spectral radius.

Not every element of the dual represents an observable: compressed event
images and sums of observables may admit no spectral resolution over the
events at hand.  NOT-REPRESENTABLE is a first-class verdict here, never an
error, and the sparse/enriched instance pairs exist to exhibit both answers.

The certainty order asks whether every state certain of e is certain of f,
and if so whether pi(f) - pi(e) is positive in the model.  The states certain
of e form a face of the state polytope, so the generator list (the vertices,
for a full polytope) answers the first question without an LP, exactly: the
generators are exact states.

At finite dimension a bounded monotone sequence of primitive elements has
finitely many distinct terms, so the countable monotone-continuity variants
of the state axioms hold vacuously; no runtime check exists for them.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linsolve, orthospace, synthesis
from .errors import PreconditionError, StructuralError, SynthesisError
# solve_lp is not called here; perfbench/tracing.py rebinds observables.solve_lp by name
from .exactlp import solve_lp  # noqa: F401

REPRESENTABLE = "REPRESENTABLE"
NOT_REPRESENTABLE = "NOT-REPRESENTABLE"


@dataclass(frozen=True)
class PrimitiveElement:
    """Real combination of pairwise-orthogonal events."""

    terms: tuple  # (coefficient, event) pairs


@dataclass(frozen=True)
class FiniteObservable:
    """Spectral measure with finite support: distinct values on an event partition."""

    space: orthospace.OrthoSpace
    support: tuple  # (value, event) pairs, events orthogonal and summing to the unit

    def values(self):
        return tuple(v for v, _ in self.support)


def observable(space, support):
    """Normalize raw (value, event) pairs into an observable.

    Zero events are dropped, duplicate values merge by summing their events,
    and missing mass is completed with an explicit value-0 term on the
    complement of the total, so the support always partitions the unit.
    """
    merged = {}
    order = []
    for v, e in support:
        e = int(e)
        if not (0 <= e < space.n_events):
            raise StructuralError(f"event {e} out of range")
        if not np.isfinite(float(v)):
            raise StructuralError("non-finite observable value")
        if e == space.zero:
            continue
        if v not in merged:
            merged[v] = []
            order.append(v)
        merged[v].append(e)
    out = []
    for v in order:
        events = merged[v]
        total = orthospace.iterated_sum(space, events)
        if total is None:
            raise StructuralError(f"events for value {v} have no sum in the system")
        if total != space.zero:
            out.append((v, total))
    carried = orthospace.iterated_sum(space, [e for _, e in out])
    if carried is None:
        raise StructuralError("support events are not pairwise summable")
    if carried != space.unit:
        rest = space.comp(carried)
        zero_v = next((v for v, _ in out if v == 0), None)
        if zero_v is None:
            exact = all(isinstance(v, (Fraction, int)) for v, _ in out)
            out.append((Fraction(0) if exact else 0.0, rest))
        else:
            out = [
                (v, e if v != 0 else space.sum_of(e, rest))
                for v, e in out
            ]
            if any(e is None for _, e in out):
                raise StructuralError("zero-value event cannot absorb the missing mass")
    events = [e for _, e in out]
    for i, e in enumerate(events):
        for f in events[i + 1 :]:
            if not space.ortho[e, f]:
                raise StructuralError(f"support events {e} and {f} are not orthogonal")
    return FiniteObservable(space=space, support=tuple(out))


def indicator(space, e):
    """Observable that is 1 on e and 0 elsewhere."""
    return observable(space, [(Fraction(1), e)])


def spectral_radius(x):
    """Largest absolute value in the support."""
    if not x.support:
        raise PreconditionError("empty observable support")
    return max(abs(v) for v, _ in x.support)


def _check_state(x, mu):
    if len(mu) != x.space.n_events:
        raise PreconditionError("state is indexed by a different event system")


def expectation(x, mu):
    """Value-weighted probability sum in the given state."""
    _check_state(x, mu)
    return sum(v * mu[e] for v, e in x.support)


def representing_element(synth, x):
    """Dual-space element with matching expectations; norm = spectral radius.

    The norm identity is verified against the synthetic sup-norm (exactly on
    the rational lane, within FLOAT_TOL times max(1, radius) on the float lane)
    and a violation raises, since it signals a generator family too poor to
    see the observable's extremes.
    """
    if synth.space is not x.space:
        raise PreconditionError("observable lives on a different event system")
    coords = synth.zeros()
    for v, e in x.support:
        coords = coords + synth.pi(e) * v
    radius = spectral_radius(x)
    attained = synth.norm(coords)
    if abs(attained - radius) > (0 if synth.exact else synthesis.FLOAT_TOL * max(1.0, abs(float(radius)))):
        raise SynthesisError(f"synthetic norm {attained} differs from the spectral radius {radius}")
    return coords


# ---------------------------------------------------------------------------
# representability of compressed events and of sums


@dataclass
class RepresentabilityVerdict:
    """Outcome of hunting a spectral resolution for a dual-space element."""

    verdict: str
    target: np.ndarray
    primitive: PrimitiveElement = None
    observable: FiniteObservable = None
    family: tuple = None
    in_event_span: bool = False
    residual: float = 0.0

    @property
    def representable(self):
        return self.verdict == REPRESENTABLE


def _solve_over_family(synth, family, target):
    """Coefficients expanding target over the family's pi-columns, or None."""
    mat = np.stack([synth.pi(g) for g in family], axis=1)
    if synth.exact:
        sol = linsolve.solve_affine(mat.tolist(), list(target))
        return None if sol is None else sol[0]
    b = np.asarray(target, dtype=np.float64)
    s, *_ = np.linalg.lstsq(mat, b, rcond=None)
    if np.linalg.norm(mat @ s - b) > synthesis.FLOAT_TOL * max(1.0, np.linalg.norm(b)):
        return None
    return s


def _span_diagnostic(synth, target):
    try:
        synth.event_coords(target)
        return True
    except SynthesisError:
        return False


def check_conditioned_representability(model, e, f):
    """Does the compressed image U_e pi(f) resolve over some orthogonal family?

    Tries every maximal orthogonal family with an exact (or residual-checked)
    linear solve and returns the first primitive decomposition found, or
    NOT-REPRESENTABLE with a span diagnostic separating "outside the event
    span entirely" from "in the span but never orthogonally".
    """
    synth = model.synth
    target = model.u_apply(e, synth.pi(f))
    for family in orthospace.maximal_orthogonal_families(synth.space):
        coeffs = _solve_over_family(synth, family, target)
        if coeffs is None:
            continue
        terms = tuple(
            (c, g) for c, g in zip(coeffs, family) if (c != 0 if synth.exact else abs(c) > synthesis.FLOAT_TOL)
        )
        return RepresentabilityVerdict(
            verdict=REPRESENTABLE,
            target=target,
            primitive=PrimitiveElement(terms=terms),
            family=tuple(family),
            in_event_span=True,
        )
    return RepresentabilityVerdict(
        verdict=NOT_REPRESENTABLE,
        target=target,
        in_event_span=_span_diagnostic(synth, target),
    )


def check_sum_representability(model, obs_y, obs_z):
    """Is there an observable whose expectations are those of obs_y + obs_z?

    The representing element of the sum must resolve over an orthogonal
    family summing to the unit; the resolved coefficients become the value
    list of the sum observable.  Verified against the generator expectations
    before returning: on the float lane within FLOAT_TOL times max(1, the sum
    of the two spectral radii), which bounds every expectation.
    """
    synth = model.synth
    space = synth.space
    target = representing_element(synth, obs_y) + representing_element(synth, obs_z)
    scale = 1.0 if synth.exact else max(1.0, float(spectral_radius(obs_y) + spectral_radius(obs_z)))
    for family in orthospace.maximal_orthogonal_families(space):
        if orthospace.iterated_sum(space, family) != space.unit:
            continue
        coeffs = _solve_over_family(synth, family, target)
        if coeffs is None:
            continue
        try:
            obs = observable(space, tuple(zip(coeffs, family)))
        except StructuralError:
            continue
        worst = 0.0
        for row in synth.pairing_values():
            gap = expectation(obs_y, row) + expectation(obs_z, row) - expectation(obs, row)
            worst = max(worst, abs(float(gap)))
        if worst > synthesis.FLOAT_TOL * scale:
            continue
        return RepresentabilityVerdict(
            verdict=REPRESENTABLE,
            target=target,
            observable=obs,
            family=tuple(family),
            in_event_span=True,
            residual=worst,
        )
    return RepresentabilityVerdict(
        verdict=NOT_REPRESENTABLE,
        target=target,
        in_event_span=_span_diagnostic(synth, target),
    )


# ---------------------------------------------------------------------------
# certainty order


@dataclass
class CertaintyOrderVerdict:
    """Certainty implication versus the synthetic order for one event pair."""

    e: int
    f: int
    hypothesis_holds: bool  # every state certain of e is certain of f
    hypothesis_vacuous: bool  # no state is certain of e at all
    order_holds: bool = None  # pi(f) - pi(e) >= 0, only when the hypothesis holds
    min_value: object = None

    @property
    def passed(self):
        return (not self.hypothesis_holds) or bool(self.order_holds)


def check_certainty_order(synth, polytope, e, f):
    """If every state certain of e is certain of f, the order must agree.

    mu(e) <= 1 holds on the whole polytope, so {mu : mu(e) = 1} is a face of
    it, and mu(f) takes its minimum over that face at a vertex: a scan of the
    generators decides the hypothesis, listed states or the full polytope's
    vertices (CapacityError past the state table or enumeration work caps).
    The generators are exact states, and their values compare exactly.
    """
    certain = [g for g in polytope.generators if g[e] == 1]
    if not certain:
        return CertaintyOrderVerdict(e=e, f=f, hypothesis_holds=False, hypothesis_vacuous=True)
    low = min(g[f] for g in certain)
    holds = low == 1
    verdict = CertaintyOrderVerdict(e=e, f=f, hypothesis_holds=holds, hypothesis_vacuous=False, min_value=low)
    if holds:
        verdict.order_holds = synth.is_positive(synth.pi(f) - synth.pi(e))
    return verdict


def check_certainty_order_all(synth, polytope):
    """Every ordered pair of events, aggregated: (verdicts, all_passed)."""
    verdicts = []
    for e in synth.space.events():
        for f in synth.space.events():
            if e == f:
                continue
            verdicts.append(check_certainty_order(synth, polytope, e, f))
    return verdicts, all(v.passed for v in verdicts)
