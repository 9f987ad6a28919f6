"""States on an orthospace, exactly.

A state assigns a rational probability to every event: 1 on the unit, additive
on orthogonal pairs, values in [0, 1].  Everything in this module runs over
`fractions.Fraction`, so verdicts are exact: the full state polytope is cut
out by equality rows plus box bounds, vertices are enumerated exactly, and
uniqueness questions are settled by exact bound propagation where it pins the
conditional, else by the in-repo rational simplex.

A full polytope has one parametrization x = x0 + B t, its equality rows
reduced once; pins substitute into it, and vertex enumeration and every exact
LP run over its [0, 1] box rows in t.  Only the Farkas certificate of an EMPTY
slice uses rows in event coordinates, so it replays without a row reduction.

Two polytope modes:

    FULL       all states of the orthospace (equality rows + [0,1] box), with
               optional exact vertex enumeration (event count <= 64)
    GENERATED  the convex hull of an explicit list of states (restricted
               state-space models)

Countable-additivity and continuity variants of the state axioms are vacuous
at finite event counts: every state here is trivially countably additive and
every monotone net of events is eventually constant.  That fact is documented
here once; no runtime check exists for it.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import linsolve, orthospace
from .errors import (
    CapacityError,
    ConditioningUndefinedError,
    PreconditionError,
    UcpError,
)
from .exactlp import INFEASIBLE, OPTIMAL, LpResult, solve_lp

FULL = "FULL"
GENERATED = "GENERATED"

UNIQUE = "UNIQUE"
MULTIPLE = "MULTIPLE"
EMPTY = "EMPTY"

_COMBO_CAP = 500_000
_VERTEX_CAP = 1_000_000
_VERTEX_EVENT_CAP = 64
# Bound-propagation sweeps before a slice goes to the LPs.  Every conditional
# of Boolean 3 and 4 atoms reaches its fixpoint in two; rows whose bounds only
# shrink geometrically would otherwise sweep without end.
_PROPAGATION_SWEEPS = 16


def _frac(v):
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"exact rational required, got {type(v).__name__}")


@dataclass(frozen=True)
class State:
    """Event-indexed probability vector. Exact when every value is a Fraction."""

    values: tuple

    def __getitem__(self, e):
        return self.values[e]

    def __len__(self):
        return len(self.values)

    @property
    def exact(self):
        return all(isinstance(v, (Fraction, int)) for v in self.values)

    @staticmethod
    def exact_from(values):
        return State(tuple(_frac(v) for v in values))


def is_state(space, state):
    """Exact state check. Returns (ok, violations); each violation is replayable.

    Violation shapes: ("length", got, want), ("unit", value),
    ("range", event, value), ("additivity", e, f, value, expected).
    """
    n = space.n_events
    viol = []
    if len(state) != n:
        return False, [("length", len(state), n)]
    vals = [_frac(v) for v in state.values]
    if vals[space.unit] != 1:
        viol.append(("unit", vals[space.unit]))
    for e in range(n):
        if not (0 <= vals[e] <= 1):
            viol.append(("range", e, vals[e]))
    st = space.sum_table
    for e in range(n):
        for f in range(e, n):
            if space.ortho[e, f] and st[e, f] >= 0:
                s = int(st[e, f])
                if vals[e] + vals[f] != vals[s]:
                    viol.append(("additivity", e, f, vals[e] + vals[f], vals[s]))
    return not viol, viol


def equality_rows(space):
    """Defining equalities of the state set: unit mass plus additivity rows."""
    n = space.n_events
    rows = []
    unit_row = [Fraction(0)] * n
    unit_row[space.unit] = Fraction(1)
    rows.append((tuple(unit_row), Fraction(1)))
    seen = set()
    st = space.sum_table
    for e in range(n):
        for f in range(e, n):
            if space.ortho[e, f] and st[e, f] >= 0:
                s = int(st[e, f])
                row = [Fraction(0)] * n
                row[e] += 1
                row[f] += 1
                row[s] -= 1
                key = tuple(row)
                if any(v != 0 for v in key) and key not in seen:
                    seen.add(key)
                    rows.append((key, Fraction(0)))
    return rows


@dataclass
class StatePolytope:
    space: orthospace.OrthoSpace
    mode: str
    eq_rows: list | None = None
    generators: list | None = field(default=None)
    # FULL mode: eq_rows as (((event, coeff), ...), rhs) over the nonzero
    # coefficients, built once here for the bound propagation of every slice.
    sparse_rows: list | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.mode == FULL:
            self.sparse_rows = [
                (tuple((j, a) for j, a in enumerate(r) if a != 0), rhs) for r, rhs in self.eq_rows
            ]

    @property
    def exact(self):
        return self.generators is None or all(g.exact for g in self.generators)

    @functools.cached_property
    def _parametrization(self):
        """FULL mode: all solutions of eq_rows as (x0, nullspace basis), or None."""
        return linsolve.solve_affine([list(r) for r, _ in self.eq_rows], [b for _, b in self.eq_rows])

    def pin(self, events=(), values=()):
        """FULL mode: (x0, B) of the solutions with x_f = v on the given events, or None.

        Row reduction is canonical: this equals reducing eq_rows plus the pin rows.
        """
        sol = self._parametrization
        if sol is None or not events:
            return sol
        x0, basis = sol
        rows = [[v[f] for v in basis] for f in events]
        sub = linsolve.solve_affine(rows, [t - x0[f] for f, t in zip(events, values)])
        if sub is None:
            return None
        t0, dirs = sub
        return _point(x0, basis, t0), [_point([0] * len(x0), basis, c) for c in dirs]

    def affine_dim(self):
        """Dimension of the affine hull candidate (FULL mode: nullity of the rows)."""
        if self.mode == FULL:
            sol = self._parametrization
            return -1 if sol is None else len(sol[1])
        pts = [g.values for g in self.generators]
        if not pts:
            return -1
        diffs = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
        return linsolve.rank(diffs) if diffs else 0


def build_state_polytope(space, with_vertices=True):
    """FULL polytope; vertices enumerated exactly when the space is small enough."""
    poly = StatePolytope(space=space, mode=FULL, eq_rows=equality_rows(space))
    if with_vertices and space.n_events <= _VERTEX_EVENT_CAP:
        poly.generators = [State(tuple(v)) for v in _enumerate_vertices(poly._parametrization)]
    return poly


def generated_polytope(space, states):
    """Convex hull of an explicit generator list (restricted state spaces)."""
    return StatePolytope(space=space, mode=GENERATED, generators=list(states))


def _point(x0, basis, t):
    """x0 + B t, in event coordinates (most entries of B and t are zero)."""
    terms = [(bvec, tv) for bvec, tv in zip(basis, t) if tv]
    return [x0[i] + sum(bvec[i] * tv for bvec, tv in terms if bvec[i]) for i in range(len(x0))]


def _box_rows(x0, basis):
    """The [0, 1] box as rows alpha.t <= beta over t; None when a fixed coordinate leaves it."""
    ineq = []
    for i in range(len(x0)):
        coeffs = tuple(bvec[i] for bvec in basis)
        if all(c == 0 for c in coeffs):
            if not (0 <= x0[i] <= 1):
                return None
            continue
        ineq.append((coeffs, 1 - x0[i]))
        ineq.append((tuple(-c for c in coeffs), x0[i]))
    return ineq


def optimize(param, cost, maximize=False):
    """Exact LP: minimize (or maximize) cost.x over {x = x0 + B t in [0, 1]^n}.

    `param` is (x0, B), or None for an empty set.  The variables are t (free)
    plus one slack per box row; the LpResult carries x and the objective in
    event coordinates, and no certificate.
    """
    ineq = None if param is None else _box_rows(*param)
    if ineq is None:
        return LpResult(INFEASIBLE, None, None)
    x0, basis = param
    cost = [Fraction(c) for c in cost]
    d, m = len(basis), len(ineq)
    a_eq = [list(coeffs) + [Fraction(int(j == r)) for j in range(m)] for r, (coeffs, _) in enumerate(ineq)]
    c_t = [sum(c * b for c, b in zip(cost, bvec) if c) for bvec in basis] + [Fraction(0)] * m
    res = solve_lp(c_t, a_eq, [beta for _, beta in ineq], [(None, None)] * d + [(0, None)] * m, maximize=maximize)
    if res.status != OPTIMAL:
        return LpResult(res.status, None, None)
    offset = sum(c * v for c, v in zip(cost, x0) if c)
    return LpResult(OPTIMAL, _point(x0, basis, res.x[:d]), res.objective + offset)


def _enumerate_vertices(param):
    """Exact vertex enumeration of {x0 + B t in [0,1]^n}. Order is deterministic."""
    ineq = None if param is None else _box_rows(*param)
    if ineq is None:
        return []
    x0, basis = param
    n, d = len(x0), len(basis)
    if d == n:
        # no constraints beyond the box itself: the vertices are the corners
        if 2**n > _VERTEX_CAP:
            raise CapacityError("vertex count exceeds the cap")
        return [
            tuple(Fraction((mask >> i) & 1) for i in range(n))
            for mask in range(2**n)
        ]
    if d == 0:
        return [tuple(x0)]
    m = len(ineq)
    if math.comb(m, d) > _COMBO_CAP:
        raise CapacityError(f"vertex enumeration over C({m},{d}) combinations exceeds the cap")
    seen = set()
    out = []
    for combo in itertools.combinations(range(m), d):
        rows = [list(ineq[i][0]) for i in combo]
        rhs = [ineq[i][1] for i in combo]
        t = linsolve.solve_unique(rows, rhs)
        if t is None:
            continue
        if any(sum(c * tv for c, tv in zip(coeffs, t)) > beta for coeffs, beta in ineq):
            continue
        x = tuple(_point(x0, basis, t))
        if x not in seen:
            seen.add(x)
            out.append(x)
            if len(out) > _VERTEX_CAP:
                raise CapacityError("vertex count exceeds the cap")
    return out


@dataclass
class SeparationReport:
    """Do the generators tell every pair of events apart?"""

    passed: bool
    witness: tuple | None = None  # (e, f, per-generator values)


def check_separation(polytope):
    """States separate events: no two events agree on every generator."""
    gens = polytope.generators
    if gens is None:
        raise PreconditionError("separation check needs generators (vertices or an explicit list)")
    n = polytope.space.n_events
    seen = {}
    for e in range(n):
        key = tuple(g[e] for g in gens)
        if key in seen:
            return SeparationReport(False, (seen[key], e, key))
        seen[key] = e
    return SeparationReport(True)


@dataclass
class ConditionalSlice:
    """States compatible with conditioning mu on e: nu(f) = mu(f)/mu(e) on f < e."""

    polytope: StatePolytope
    mu: State
    event: int
    constraint_events: list
    targets: list

    def satisfied_by(self, nu):
        ok, _ = is_state(self.polytope.space, nu)
        if not ok:
            return False
        return all(nu[f] == t for f, t in zip(self.constraint_events, self.targets))


def conditional_slice(polytope, mu, e, family=None):
    """Build the conditioning constraints.

    `family` optionally overrides the constrained events (default: every f that
    precedes e in the orthogonality sense).  Zero mass on e is an error.
    """
    space = polytope.space
    me = _frac(mu[e])
    if me == 0:
        raise ConditioningUndefinedError(f"event {e} has zero probability under the given state")
    if family is None:
        family = [f for f in range(space.n_events) if orthospace.precedes(space, f, e)]
    targets = [_frac(mu[f]) / me for f in family]
    return ConditionalSlice(polytope, mu, e, list(family), targets)


@dataclass
class ConditionalVerdict:
    verdict: str
    conditional: State | None = None
    witnesses: tuple | None = None  # (nu1, nu2, event) for MULTIPLE
    certificate: object | None = None  # Farkas object for EMPTY
    slice_dim: int | None = None


def _slice_rows(slc):
    rows = list(slc.polytope.eq_rows)
    n = slc.polytope.space.n_events
    for f, t in zip(slc.constraint_events, slc.targets):
        row = [Fraction(0)] * n
        row[f] = Fraction(1)
        rows.append((tuple(row), t))
    return rows


def _propagate(slc):
    """Exact interval bound propagation over the slice rows inside [0, 1]^n.

    LP presolve bound tightening (Andersen & Andersen, "Presolving in linear
    programming", 1995): each equality row bounds every one of its coordinates
    by the activity range of the others.  Returns the point when a fixpoint
    pins every coordinate, else None: a contradiction, a coordinate left free,
    or no fixpoint within _PROPAGATION_SWEEPS sweeps.
    """
    n = slc.polytope.space.n_events
    lo = [Fraction(0)] * n
    hi = [Fraction(1)] * n
    for f, t in zip(slc.constraint_events, slc.targets):
        if not (lo[f] <= t <= hi[f]):
            return None
        lo[f] = hi[f] = t
    for _ in range(_PROPAGATION_SWEEPS):
        changed = False
        for terms, b in slc.polytope.sparse_rows:
            amin = amax = 0
            for j, a in terms:
                if a > 0:
                    amin, amax = amin + lo[j] * a, amax + hi[j] * a
                else:
                    amin, amax = amin + hi[j] * a, amax + lo[j] * a
            if amin > b or amax < b:
                return None
            if amin == amax:
                continue  # every coordinate of the row is pinned
            # with the other coordinates in their bounds, a x_j = b - (their activity)
            # lies in [b - amax + max(a lo_j, a hi_j), b - amin + min(a lo_j, a hi_j)]
            for j, a in terms:
                if a > 0:
                    new_lo, new_hi = (b - amax) / a + hi[j], (b - amin) / a + lo[j]
                else:
                    new_lo, new_hi = (b - amin) / a + hi[j], (b - amax) / a + lo[j]
                if new_lo > lo[j]:
                    lo[j], changed = new_lo, True
                if new_hi < hi[j]:
                    hi[j], changed = new_hi, True
                if lo[j] > hi[j]:
                    return None
        if not changed:
            return lo if lo == hi else None
    return None


def _feasibility_certificate(rows, n):
    res = solve_lp([Fraction(0)] * n, [list(r) for r, _ in rows], [b for _, b in rows], bounds=[(0, 1)] * n)
    return res.farkas if res.status == INFEASIBLE else None


def check_conditional_uniqueness(polytope, mu, e, family=None):
    """Is the conditional of mu under e unique within the polytope?

    FULL mode first propagates interval bounds through the slice's equality
    rows inside the [0, 1] box, exactly.  When that pins every event, the
    pinned point is replayed against the slice (is_state plus the conditioning
    targets) and returned as UNIQUE with no LP.  Otherwise (a contradiction or
    a coordinate left free) it pins the targets in the polytope's one
    parametrization and bounds each remaining free coordinate by exact LPs;
    the event evaluations are affine and injective in those coordinates, so
    "every free coordinate pinned" is equivalent to the per-event min = max
    criterion.  Only the LPs give MULTIPLE witnesses; EMPTY carries a Farkas
    certificate over the slice's rows in event coordinates.  `slice_dim` is
    the nullity of the slice's equality rows either way.
    GENERATED mode runs the per-event LPs in convex-coefficient space directly.
    """
    slc = conditional_slice(polytope, mu, e, family)
    if polytope.mode == GENERATED:
        return _uc_generated(slc)
    return _uc_full(slc)


def _uc_full(slc):
    sub = slc.polytope.pin(slc.constraint_events, slc.targets)
    d = -1 if sub is None else len(sub[1])
    pinned = _propagate(slc)
    if pinned is not None:
        nu = State(tuple(pinned))
        if not slc.satisfied_by(nu):
            raise UcpError("bound propagation pinned a point outside the conditional slice")
        return ConditionalVerdict(UNIQUE, conditional=nu, slice_dim=d)
    n = slc.polytope.space.n_events
    feas = optimize(sub, [0] * n)
    if feas.status == INFEASIBLE:
        return ConditionalVerdict(EMPTY, certificate=_feasibility_certificate(_slice_rows(slc), n), slice_dim=d)
    for bvec in sub[1]:
        # an rref direction is 1 on its own free event, which is its last nonzero entry
        cost = [0] * n
        cost[max(i for i, v in enumerate(bvec) if v != 0)] = 1
        lo = optimize(sub, cost)
        hi = optimize(sub, cost, maximize=True)
        if lo.status != OPTIMAL or hi.status != OPTIMAL:
            raise UcpError("bounded slice reported unbounded; inconsistent tables")
        if lo.objective != hi.objective:
            nu1, nu2 = State(tuple(lo.x)), State(tuple(hi.x))
            g = next(i for i in range(n) if nu1[i] != nu2[i])
            return ConditionalVerdict(MULTIPLE, witnesses=(nu1, nu2, g), slice_dim=d)
    # every free coordinate is pinned, so the slice is the single point found
    return ConditionalVerdict(UNIQUE, conditional=State(tuple(feas.x)), slice_dim=d)


def _uc_generated(slc):
    if not slc.polytope.exact:
        raise PreconditionError("generator-list uniqueness check needs exact rational generators")
    gens = slc.polytope.generators
    n = slc.polytope.space.n_events
    g = len(gens)
    a_eq = [[Fraction(1)] * g]
    b_eq = [Fraction(1)]
    for f, t in zip(slc.constraint_events, slc.targets):
        a_eq.append([_frac(gen[f]) for gen in gens])
        b_eq.append(t)
    bounds = [(0, None)] * g

    feas = solve_lp([Fraction(0)] * g, a_eq, b_eq, bounds)
    if feas.status == INFEASIBLE:
        return ConditionalVerdict(EMPTY, certificate=feas.farkas, slice_dim=None)

    def to_state(lam):
        return State(tuple(sum(_frac(gen[i]) * l for gen, l in zip(gens, lam)) for i in range(n)))

    for ev in range(n):
        c = [_frac(gen[ev]) for gen in gens]
        lo = solve_lp(c, a_eq, b_eq, bounds)
        hi = solve_lp(c, a_eq, b_eq, bounds, maximize=True)
        if lo.objective != hi.objective:
            nu1, nu2 = to_state(lo.x), to_state(hi.x)
            return ConditionalVerdict(MULTIPLE, witnesses=(nu1, nu2, ev), slice_dim=None)
    return ConditionalVerdict(UNIQUE, conditional=to_state(feas.x), slice_dim=None)


def unique_conditional(polytope, mu, e):
    """The unique conditional state, or an error naming the obstruction."""
    v = check_conditional_uniqueness(polytope, mu, e)
    if v.verdict == UNIQUE:
        return v.conditional
    raise PreconditionError(f"conditional of the given state under event {e} is {v.verdict}")


def state_with_mass_one(polytope, e):
    """Some state giving event e probability 1, or None (exact feasibility LP)."""
    n = polytope.space.n_events
    if polytope.mode == FULL:
        res = optimize(polytope.pin([e], [Fraction(1)]), [0] * n)
        return State(tuple(res.x)) if res.status == OPTIMAL else None
    gens = polytope.generators
    g = len(gens)
    a_eq = [[Fraction(1)] * g, [_frac(gen[e]) for gen in gens]]
    b_eq = [Fraction(1), Fraction(1)]
    res = solve_lp([Fraction(0)] * g, a_eq, b_eq, [(0, None)] * g)
    if res.status != OPTIMAL:
        return None
    return State(tuple(sum(_frac(gen[i]) * l for gen, l in zip(gens, res.x)) for i in range(n)))


@dataclass
class MixtureReport:
    """Conditioning a mixture: weights rescale by the conditioned masses."""

    passed: bool
    mixture: State
    lhs: State
    rhs: State


def mix_states(mu, nu, s):
    s = _frac(s)
    return State(tuple(s * _frac(a) + (1 - s) * _frac(b) for a, b in zip(mu.values, nu.values)))


def check_mixture_identity(polytope, mu, nu, s, e):
    """Exact check that conditioning commutes with mixing.

    The conditional of s mu + (1-s) nu under e equals the mixture of the two
    conditionals reweighted by s mu(e) and (1-s) nu(e); a component with zero
    mass on e contributes nothing.  Conditionals must be unique wherever the
    relevant mass is positive, else PreconditionError.
    """
    s = _frac(s)
    if not (0 < s < 1):
        raise PreconditionError("mixing weight must be strictly between 0 and 1")
    mix = mix_states(mu, nu, s)
    total = s * _frac(mu[e]) + (1 - s) * _frac(nu[e])
    if total == 0:
        raise ConditioningUndefinedError("mixture puts zero mass on the conditioning event")
    lhs = unique_conditional(polytope, mix, e)
    n = polytope.space.n_events
    acc = [Fraction(0)] * n
    for state, w in ((mu, s * _frac(mu[e])), (nu, (1 - s) * _frac(nu[e]))):
        if w != 0:
            cond = unique_conditional(polytope, state, e)
            for i in range(n):
                acc[i] += w * _frac(cond[i])
    rhs = State(tuple(v / total for v in acc))
    return MixtureReport(lhs.values == rhs.values, mix, lhs, rhs)
