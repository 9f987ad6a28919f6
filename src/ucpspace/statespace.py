"""States on an orthospace, exactly.

A state assigns a rational probability to every event: 1 on the unit, additive
on orthogonal pairs, values in [0, 1].  Everything in this module is exact,
in one form per object: a `State` is its values as integer numerators over L,
the lcm of their denominators (`State.integers`), and a conditional slice is
its coprime masses (mu(e), mu(f), ...); their Fractions are views, built on
first read.  `is_state`, mixing, the mixture identity, the slice lookup, bound
propagation and the replay of a point against a slice run on those integers.
The full state polytope is cut out by the state equations plus box bounds,
vertices are enumerated exactly, and uniqueness questions are settled by bound
propagation where it pins the conditional, else by the in-repo rational
simplex.  The state equations are one padded integer table per space,
`state_table`.  One stacked check over it, `state_failures`, is `is_state`,
the replay of a point against a slice and synthesis' check of its generator
rows; every other reader of the equations reads that table too.

A full polytope has one parametrization x = (X0 + B t) / D, its state equations
reduced once by `linsolve.solve_affine_ints` into integer numerators X0, B over
one positive denominator D, the (values, denominator) form `synthesis` uses.
Pins solve into it the same way (only for a slice that propagation leaves
open) and give a slice the same form; vertex enumeration and every exact LP
run over its [0, 1] box rows in t, built from those integers with no Fraction.
An LP optimum t = T / L or a vertex maps back to events as integers over D L.
Vertices come from the double description method over those rows, in integer
arithmetic, and are listed in the order of each vertex's lexicographically
smallest independent set of tight box rows.  The LP that finds a slice EMPTY
also gives its Farkas certificate, moved into event coordinates so it replays
without a row reduction.

A `StatePolytope` is the convex hull of its listed states when it has them (a
restricted state-space model), else the full polytope of all states.  The full
polytope enumerates its vertices the first time its `generators` are read,
when its state table has at most _TABLE_CAP entries; past that, the read
raises CapacityError, and _VERTEX_CAP bounds the enumeration's own work.  One LP
loop, `_lp_verdict`, decides every slice that propagation leaves open in
either kind, over one LP system per slice whose phase 1 runs once: the box
rows in t for the full polytope, convex coefficients of the listed states otherwise.

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
from typing import NamedTuple

import numpy as np

from . import linsolve, orthospace
from .errors import (
    CapacityError,
    ConditioningUndefinedError,
    PreconditionError,
    UcpError,
)
from .exactlp import INFEASIBLE, OPTIMAL, Farkas, prepare, solve_lp, verify_farkas

UNIQUE = "UNIQUE"
MULTIPLE = "MULTIPLE"
EMPTY = "EMPTY"

_VERTEX_CAP = 1_000_000
# entries (state equations times events) of the largest state table whose full polytope is enumerated
_TABLE_CAP = 1_000_000
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


@dataclass(frozen=True, init=False)
class State:
    """An exact event-indexed probability vector, held as its one integer form.

    `integers` is (numerators, L): a tuple of ints over L > 0, the lcm of the
    values' reduced denominators.  The form is canonical, so two states are
    equal, and hash equal, exactly when their values are.  `State(values)`
    takes Fractions, ints or p/q strings; any other value (a float, a numpy
    number, a complex) raises TypeError.  `values` is a Fraction view of the
    form, built on first read.
    """

    integers: tuple

    def __init__(self, values):
        object.__setattr__(self, "integers", _integers([_frac(v) for v in values]))

    @classmethod
    def from_integers(cls, ints, den):
        """The state with values ints / den (den != 0)."""
        state = cls.__new__(cls)
        object.__setattr__(state, "integers", _lowest(ints, den))
        return state

    @functools.cached_property
    def values(self):
        ints, den = self.integers
        return tuple(Fraction(v, den) for v in ints)

    def __getitem__(self, e):
        return self.values[e]

    def __len__(self):
        return len(self.integers[0])


class StateTable(NamedTuple):
    """The state equations as one padded table: row r is sum_k signs[r, k] x[events[r, k]] = rhs[r].

    Row 0 is x_unit = 1; then each distinct additivity equation, in the
    row-major order of the first orthogonal pair e <= f that gives it, with
    events (e, f, e + f): that pair names it in `is_state`.  When e + f is e
    or f the row cancels to the other one, whose sign alone is nonzero; an
    event at coefficient 2 (e + e != e) is listed twice.
    """

    events: np.ndarray  # (R, 3) int64
    signs: np.ndarray  # (R, 3) int64, each -1, 0 or +1
    rhs: np.ndarray  # (R,) int64

    def dense(self, n):
        """The rows as an (R, n) integer array over the n events."""
        out = np.zeros((len(self.rhs), n), dtype=np.int64)
        np.add.at(out, (np.arange(len(self.rhs))[:, None], self.events), self.signs)
        return out


def state_table(space):
    """The space's state equations as one `StateTable`, built on the first call and kept on the space."""
    if space.state_table is None:
        st = space.sum_table
        es, fs = np.nonzero(space.ortho & (st >= 0))
        eqs = {}
        for e, f, s in zip(es.tolist(), fs.tolist(), st[es, fs].tolist()):
            if e <= f:
                # when e + f is e or f itself, x_e + x_f - x_{e+f} cancels to the other one
                key, signs = ((e,), (1, 0, 0)) if s == f else ((f,), (0, 1, 0)) if s == e else ((e, f, s), (1, 1, -1))
                eqs.setdefault(key, (e, f, s, *signs))
        rows = np.array([(space.unit,) * 3 + (1, 0, 0), *eqs.values()], dtype=np.int64)
        space.state_table = StateTable(rows[:, :3], rows[:, 3:], np.eye(1, len(rows), dtype=np.int64)[0])
    return space.state_table


def state_failures(table, x, den, tol):
    """(k, n) and (k, R) masks: the events of each row of x outside [0, 1], and the state equations it breaks.

    x is a (k, n) stack over den, a scalar or a (k, 1) column: Python-int
    numerators in an object array, exact with tol 0, or floats within tol.
    """
    den = np.asarray(den, dtype=x.dtype)
    residual = (x[:, table.events] * table.signs).sum(axis=2) - den * table.rhs
    return (x < -tol) | (x > den + tol), abs(residual) > tol


def check_states(space, states):
    """`is_state` of each state, from one stacked `state_failures` call."""
    n, table = space.n_events, state_table(space)
    fit = [s.integers for s in states if len(s) == n]
    x = np.array([ints for ints, _ in fit], dtype=object).reshape(-1, n)
    den = np.array([scale for _, scale in fit], dtype=object).reshape(-1, 1)
    out, broken = state_failures(table, x, den, 0)
    viols = {}
    for i in np.flatnonzero(out.any(axis=1) | broken.any(axis=1)).tolist():
        v, d = x[i], den[i, 0]
        viols[i] = [("unit", Fraction(v[space.unit], d))] if broken[i, 0] else []
        viols[i] += [("range", e, Fraction(v[e], d)) for e in np.flatnonzero(out[i]).tolist()]
        viols[i] += [("additivity", e, f, Fraction(v[e] + v[f], d), Fraction(v[s], d))
                     for e, f, s in table.events[1:][broken[i, 1:]].tolist()]
    rows = iter(range(len(fit)))
    checked = [viols.get(next(rows), []) if len(s) == n else [("length", len(s), n)] for s in states]
    return [(not viol, viol) for viol in checked]


def is_state(space, state):
    """Exact state check. Returns (ok, violations); each violation is replayable.

    It checks the length, then the unit, the [0, 1] range of every event and
    each equation of the `state_table` once: a violated equation is named by
    its first orthogonal pair e <= f.  Violation shapes: ("length", got, want),
    ("unit", value), ("range", event, value), ("additivity", e, f, value, expected).
    """
    return check_states(space, [state])[0]


@dataclass
class StatePolytope:
    """The convex hull of the `listed` states, or with none listed every state of the space."""

    space: orthospace.OrthoSpace
    listed: list | None = None
    # check_conditional_uniqueness verdicts by (event, constraint events, (mu(e), mu(f), ...) as coprime
    # integers): one per slice
    _verdicts: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # the events that precede each event, by event: the default conditioning family
    _families: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # full polytope: rank of the pin rows over the parametrization's nullspace basis, by constraint events
    _pin_ranks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @functools.cached_property
    def generators(self):
        """The listed states, or the full polytope's vertices, enumerated exactly on first read.

        Past _TABLE_CAP state table entries the full polytope has none to give: CapacityError.
        """
        if self.listed is not None:
            return self.listed
        n, rows = self.space.n_events, len(state_table(self.space).rhs)
        if rows * n > _TABLE_CAP:
            raise CapacityError(f"the full state polytope of {n} events has no enumerated vertices: its state table "
                                f"of {rows} x {n} = {rows * n} entries is past the cap of {_TABLE_CAP} entries; "
                                "nothing was checked")
        return [State.from_integers(*v) for v in _enumerate_vertices(self._parametrization)]

    @functools.cached_property
    def rows(self):
        """The table's rows as (events at +1, events at -1, rhs) tuples: the view bound propagation sweeps."""
        t = state_table(self.space)
        return [((e, f), (s,), b) if c < 0 else ((e,) if a else (f,), (), b)
                for (e, f, s), (a, _, c), b in zip(t.events.tolist(), t.signs.tolist(), t.rhs.tolist())]

    @functools.cached_property
    def _parametrization(self):
        """All solutions of the state equations as (X0, B, D), x = (X0 + B t) / D, or None."""
        table = state_table(self.space)
        return linsolve.solve_affine_ints(table.dense(self.space.n_events).tolist(), table.rhs.tolist())

    def pin(self, events=(), values=()):
        """The solutions with x_f = v on the given events as (X0', B', D'), or None.

        The targets go into the parametrization's rows over t, B_f t = D v_f - X0_f,
        and one row reduction gives t = (T0 + C s) / L over integers.  Then
        X0' = X0 L + B T0, B' = B C and D' = D L, divided by their common gcd.  Row
        reduction is canonical: this equals reducing the state equations plus the pin
        rows, so each direction is still D' at its own free event, where X0' and the
        other directions are 0.
        """
        sol = self._parametrization
        if sol is None or not events:
            return sol
        x0, basis, den = sol
        rows = [[bvec[f] for bvec in basis] for f in events]
        sub = linsolve.solve_affine_ints(rows, [v * den - x0[f] for f, v in zip(events, values)])
        if sub is None:
            return None
        t0, dirs, scale = sub
        x0 = _combine([v * scale for v in x0], basis, t0)
        dirs = [_combine([0] * len(x0), basis, c) for c in dirs]
        den *= scale
        g = math.gcd(den, *x0, *itertools.chain(*dirs))
        if g > 1:
            x0, dirs, den = [v // g for v in x0], [[v // g for v in bvec] for bvec in dirs], den // g
        return x0, dirs, den


def build_state_polytope(space):
    """The full state polytope; its vertices are enumerated the first time `generators` is read."""
    return StatePolytope(space=space)


def generated_polytope(space, states):
    """Convex hull of an explicit generator list (restricted state spaces)."""
    return StatePolytope(space=space, listed=list(states))


def _lowest(ints, den):
    """ints / den (den != 0) as (numerators, L), L > 0 coprime to them: the lcm of the reduced denominators."""
    g = math.gcd(den, *ints) * (-1 if den < 0 else 1)
    return tuple(v // g for v in ints), den // g


def stack_integers(forms, n):
    """(values, d) of integer forms (ints, L) of length n: row i of the object array is ints_i * (d // L_i), d the
    lcm of the L_i."""
    d = math.lcm(*(den for _, den in forms))
    xn = np.array([[v * (d // den) for v in ints] for ints, den in forms], dtype=object)
    return xn.reshape(len(forms), n), d


def _integers(vals):
    """Rational values as (integers, L), a tuple of their numerators over L, the lcm of their denominators."""
    pairs = [v.as_integer_ratio() for v in vals]
    scale = math.lcm(*(q for _, q in pairs))
    return tuple(p * (scale // q) for p, q in pairs), scale


def _combine(acc, basis, ints):
    """acc + B T for an integer vector T, updated in place."""
    for bvec, tv in zip(basis, ints):
        if tv:
            for i, b in enumerate(bvec):
                if b:
                    acc[i] += b * tv
    return acc


def _event_point(param, ints, scale):
    """The events at t = T / L as (numerators, denominator): (X0 L + B T, D L), not reduced."""
    x0, basis, den = param
    return _combine([v * scale for v in x0], basis, ints), den * scale


def _moving(param):
    """(B_i, X0_i) of each event that some direction moves, in event order, or None.

    An event that no direction moves is fixed at X0_i / D; one outside [0, 1] gives None.
    """
    x0, basis, den = param
    rows = []
    for i, v in enumerate(x0):
        coeffs = [bvec[i] for bvec in basis]
        if any(coeffs):
            rows.append((coeffs, v))
        elif not 0 <= v <= den:
            return None
    return rows


def _box_lp(param):
    """A slice's [0, 1] box as an `exactlp.LpSystem` over (t, one slack per box row), or None.

    Each event that some direction moves gives the rows B_i t / D + s = 1 - X0_i / D
    and -B_i t / D + s' = X0_i / D, in event order; a fixed event outside [0, 1]
    gives None.  Each row with rhs beta goes to `prepare` as integers, never as
    Fractions: B_i / g, the slack's D / g and beta / g over D / g, for g the
    gcd of D, beta and B_i.  That is what `scale_to_ints` makes of the rational
    row, so a row with beta >= 0 starts basic on its slack.  The slacks come
    last, and the LP takes every variable >= 0.  That adds no constraint on t:
    each t_k is the event coordinate x_f at direction k's free event f, where
    direction k is D and X0 and the other directions are 0 (the form `pin`
    keeps), so the box row -x_f <= 0 already bounds t_k below.  An LP's x maps
    to events by `_event_point`.
    """
    moving = _moving(param)
    if moving is None:
        return None
    den, d, m = param[2], len(param[1]), 2 * len(moving)
    scaled = []
    for coeffs, v in moving:
        for sign, beta in ((1, den - v), (-1, v)):
            g = math.gcd(den, beta, *coeffs)
            entries = zip((*range(d), d + len(scaled), d + m), (*(sign * c for c in coeffs), den, beta))
            scaled.append(({j: a // g for j, a in entries if a}, den // g))
    return prepare(scaled, d + m)


def _primitive(vals):
    """The positive multiple of a nonzero rational vector with coprime integer entries."""
    ints = _integers(vals)[0]
    g = math.gcd(*ints)
    return tuple(v // g for v in ints)


def _double_description(rows, dim):
    """Extreme rays of the pointed cone {y : h.y <= 0 for every h in rows} in Z^dim.

    Double description (Motzkin et al. 1953; Fukuda & Prodon, "Double
    description method revisited", 1996).  The rays of the first dim
    independent rows are the columns of -R^-1; every other row is then added in
    turn.  Rays on its positive side go, rays on its hyperplane stay, and each
    adjacent pair across it gives a ray on the hyperplane.  Adjacency is the
    combinatorial test: the two zero sets share at least dim - 2 rows and no
    third ray's zero set contains their intersection.  Returns (ray, zero set)
    pairs, the zero set a bitmask over row indices.  Raises CapacityError
    before a row's pair scan would take the total work, pairs times rays summed
    over the rows, past _VERTEX_CAP.
    """
    first = linsolve.independent_subset(rows)
    red, _ = linsolve.rref([list(rows[i]) + [int(r == c) for c in range(dim)] for r, i in enumerate(first)])
    tight = sum(1 << i for i in first)
    rays = [(_primitive([-red[r][dim + j] for r in range(dim)]), tight & ~(1 << i)) for j, i in enumerate(first)]
    chosen, work = set(first), 0
    for i, h in enumerate(rows):
        if i in chosen:
            continue
        bit = 1 << i
        pos, neg, kept = [], [], []
        for ray, z in rays:
            v = sum(a * b for a, b in zip(h, ray) if a)
            if v > 0:
                pos.append((ray, z, v))
            elif v < 0:
                neg.append((ray, z, v))
                kept.append((ray, z))
            else:
                kept.append((ray, z | bit))
        # each pair across the row scans every ray and may add one, so capping this work caps the rays too
        work += len(pos) * len(neg) * len(rays)
        if work > _VERTEX_CAP:
            raise CapacityError("vertex enumeration: ray adjacency work exceeds the cap")
        zeros = [z for _, z in rays]
        for p, zp, vp in pos:
            for q, zq, vq in neg:
                common = zp & zq
                if common.bit_count() < dim - 2:
                    continue
                if any(z & common == common for z in zeros if z != zp and z != zq):
                    continue
                ray = [vp * b - vq * a for a, b in zip(p, q)]
                g = math.gcd(*ray)
                kept.append((tuple(v // g for v in ray), common | bit))
        rays = kept
    return rays


def _enumerate_vertices(param):
    """Exact vertex enumeration of {(X0 + B t) / D in [0,1]^n}, by double description.

    The box rows, times D as integer rows, scaled to primitive rows with repeats
    dropped, are homogenized with s >= 0: B_i t - (D - X0_i) s <= 0 and
    -B_i t - X0_i s <= 0.  The box is bounded, so this cone is pointed, and
    every extreme ray (y, s) has s > 0 and is a vertex t = y / s (an empty box
    leaves the cone {0}, with no rays).  Vertices come in the order of their
    lexicographically smallest independent d-subset of tight box rows: the
    order in which a scan of all d-subsets of the box rows, solving each, first
    meets them.  A simple vertex, with exactly d distinct tight rows, has them
    independent (its tight rows have rank d), so that subset is the first box
    row of each; only a degenerate vertex takes a row reduction for it.  Each
    vertex comes as integers over one denominator, not reduced: no Fraction.
    """
    moving = None if param is None else _moving(param)
    if moving is None:
        return []
    x0, basis, den = param
    n, d = len(x0), len(basis)
    if d == n:
        # no constraints beyond the box itself: the vertices are the corners
        if 2**n > _VERTEX_CAP:
            raise CapacityError("vertex count exceeds the cap")
        return [([(mask >> i) & 1 for i in range(n)], 1) for mask in range(2**n)]
    if d == 0:
        return [(list(x0), den)]
    index, row_of = {}, []
    for coeffs, v in moving:
        row_of.append(index.setdefault(_primitive((*coeffs, v - den)), len(index)))
        row_of.append(index.setdefault(_primitive((*(-c for c in coeffs), -v)), len(index)))
    rows = list(index) + [(0,) * d + (-1,)]
    keyed = []
    for y, z in _double_description(rows, d + 1):
        tight = [k for k, j in enumerate(row_of) if z >> j & 1]
        if z.bit_count() == d:
            first = {}
            for k in tight:
                first.setdefault(row_of[k], k)
            keyed.append((list(first.values()), y))
        else:
            picked = linsolve.independent_subset([rows[row_of[k]][:d] for k in tight])
            keyed.append(([tight[i] for i in picked], y))
    keyed.sort(key=lambda ky: ky[0])
    return [_event_point(param, y[:d], y[d]) for _, y in keyed]


@dataclass
class SeparationReport:
    """Do the generators tell every pair of events apart?"""

    passed: bool
    witness: tuple | None = None  # (e, f, per-generator values)


def check_separation(polytope):
    """States separate events: no two events agree on every generator.

    Each event is keyed by its numerators on the generators: the values of a
    generator share its one denominator, so equal numerators are equal
    values.  The witness is (e, f, the values of f on the generators), for
    the first f whose key an earlier event e has.
    """
    gens = polytope.generators
    keys = list(zip(*(g.integers[0] for g in gens))) if gens else [()] * polytope.space.n_events
    seen = {}
    for f, key in enumerate(keys):
        e = seen.setdefault(key, f)
        if e != f:
            return SeparationReport(False, (e, f, tuple(g[f] for g in gens)))
    return SeparationReport(True)


@dataclass
class ConditionalSlice:
    """States compatible with conditioning mu on e: nu(f) = mu(f)/mu(e) on f < e.

    It holds mu only through `masses`, (mu(e), mu(f), ...) as coprime integers
    with mu(e) > 0, so every verdict on it is a function of (event,
    constraint_events, masses).  mu(e) is the lcm of the reduced denominators
    mu(e) / gcd(mu(e), mu(f)) of the targets: that is mu(e) / gcd(every mass).
    """

    polytope: StatePolytope
    event: int
    constraint_events: list
    masses: tuple

    @property
    def targets(self):
        """The targets mu(f)/mu(e), one Fraction each."""
        return [Fraction(m, self.masses[0]) for m in self.masses[1:]]

    def satisfied_by(self, nu):
        """Exact membership: is nu in [0, 1], on every state equation and on every target?"""
        (x, scale), (me, *mf) = nu.integers, self.masses
        if len(x) != self.polytope.space.n_events:
            return False
        out, broken = state_failures(state_table(self.polytope.space), np.array([x], dtype=object), scale, 0)
        return not (out.any() or broken.any()) and all(x[f] * me == m * scale
                                                       for f, m in zip(self.constraint_events, mf))


def _conditioning(polytope, mu, e, family):
    """((mu(e), mu(f), ...) as coprime integers with mu(e) > 0, the constrained events f): by default
    every f that precedes e.  Read off mu's integer form; zero mass on e is an error."""
    x = mu.integers[0]
    if x[e] == 0:
        raise ConditioningUndefinedError(f"event {e} has zero probability under the given state")
    if family is None:
        families = polytope._families
        if e not in families:
            # f precedes e iff f is orthogonal to the complement of e: one column of the table
            space = polytope.space
            families[e] = np.flatnonzero(space.ortho[:, space.comp(e)]).tolist()
        family = families[e]
    fs, me = _lowest([x[f] for f in family], x[e])
    return (me, *fs), list(family)


def conditional_slice(polytope, mu, e, family=None):
    """Build the conditioning constraints.

    `family` optionally overrides the constrained events (default: every f that
    precedes e in the orthogonality sense).  Zero mass on e is an error.
    """
    masses, family = _conditioning(polytope, mu, e, family)
    return ConditionalSlice(polytope, e, family, masses)


@dataclass(frozen=True)
class ConditionalVerdict:
    verdict: str
    conditional: State | None = None
    witnesses: tuple | None = None  # (nu1, nu2, event) for MULTIPLE
    certificate: object | None = None  # Farkas object for EMPTY
    slice_dim: int | None = None


def _propagate(slc):
    """Exact interval bound propagation over the slice rows inside [0, 1]^n, on integers.

    LP presolve bound tightening (Andersen & Andersen, "Presolving in linear
    programming", 1995; Achterberg et al., "Presolve reductions in mixed integer
    programming", 2020): each equality row bounds every one of its coordinates
    by the activity range of the others.  Bounds are integers in units of 1/D,
    D = mu(e) of the slice's coprime masses, where each target event starts
    pinned at its own mass; each row lists its events at +1 and at -1, so each
    update is an integer add and nothing rounds.  An event listed twice
    (coefficient 2) is bounded as two variables with the same bounds: that
    relaxes the row, so every bound it derives still holds for the event.
    A row found with every coordinate pinned is left out of later sweeps.
    Returns the point as (integers, D) when a fixpoint pins every coordinate,
    else None: a contradiction, a coordinate left free, or no fixpoint within
    _PROPAGATION_SWEEPS sweeps.
    """
    scale, *masses = slc.masses
    n = slc.polytope.space.n_events
    lo = [0] * n
    hi = [scale] * n
    for f, t in zip(slc.constraint_events, masses):
        if not (lo[f] <= t <= hi[f]):
            return None
        lo[f] = hi[f] = t
    rows = slc.polytope.rows
    for _ in range(_PROPAGATION_SWEEPS):
        changed, unpinned = False, []
        for row in rows:
            plus, minus, b = row
            # the row's activity range, less its rhs
            amin = amax = -b * scale
            for j in plus:
                amin, amax = amin + lo[j], amax + hi[j]
            for j in minus:
                amin, amax = amin - hi[j], amax - lo[j]
            if amin > 0 or amax < 0:
                return None
            if amin == amax:
                continue  # every coordinate is pinned, and stays so (or propagation ends): later sweeps skip it
            unpinned.append(row)
            # with the other coordinates in their bounds, x_j lies in
            # [hi_j - amax, lo_j - amin] at +1 and in [hi_j + amin, lo_j + amax] at -1
            for events, dlo, dhi in ((plus, -amax, -amin), (minus, amin, amax)):
                for j in events:
                    new_lo, new_hi = hi[j] + dlo, lo[j] + dhi
                    if new_lo > lo[j]:
                        lo[j], changed = new_lo, True
                    if new_hi < hi[j]:
                        hi[j], changed = new_hi, True
                    if lo[j] > hi[j]:
                        return None
        if not changed:
            return (lo, scale) if lo == hi else None
        rows = unpinned
    return None


def _empty_verdict(slc, sub, farkas, d):
    """EMPTY, with a Farkas certificate in event coordinates for what emptied the slice.

    Multipliers up_i, down_i >= 0 on the box rows x_i <= 1 and -x_i <= 0: none
    for inconsistent pins (`sub` None), a 1 on a fixed coordinate outside
    [0, 1], else the first LP's Farkas vector `farkas`.  That vector leaves
    u = up - down with u.B_k >= 0 on each direction k of `sub`, the surplus
    resting on the LP's t_k >= 0; since t_k is x at direction k's free event
    f_k, where x0 is 0, adding u.B_k to down_{f_k} makes u orthogonal to every
    direction and keeps u.x0.  So one exact solve over the slice rows A x = b
    gives y with A^T y = u and b.y = u.x0 (b.y = 1 for inconsistent pins).
    Then y.b - sum(up) > 0, and (y, -up) certifies {A x = b, x + s = 1,
    x, s >= 0} empty (Farkas' lemma; Schrijver 1986, 7.3).  A certificate that
    cannot be built or does not verify raises UcpError.
    """
    n, table = slc.polytope.space.n_events, state_table(slc.polytope.space)
    # the slice's equations, scattered from the state table: the state equations, then one pin row per target
    rows = [*table.dense(n).tolist(), *np.eye(n, dtype=np.int64)[slc.constraint_events].tolist()]
    rhs = [*table.rhs.tolist(), *slc.targets]
    up, down = [Fraction(0)] * n, [Fraction(0)] * n
    yb = Fraction(1)
    if sub is not None:
        x0, basis, den = sub
        x0, basis = [Fraction(v, den) for v in x0], [[Fraction(v, den) for v in bvec] for bvec in basis]
        free = [i for i in range(n) if any(bvec[i] for bvec in basis)]
        if farkas is None:
            i = next(i for i, v in enumerate(x0) if not 0 <= v <= 1 and i not in free)
            (up if x0[i] > 1 else down)[i] = Fraction(1)
        else:
            # solve_lp negates the rows with beta_r < 0, so lambda_r = -y_r times row r's slack
            # entry; the slacks are the last columns, and the box rows come in (up, down) pairs
            m = len(farkas.y)
            lam = [-yr * row[r - m] for r, (yr, row) in enumerate(zip(farkas.y, farkas.a_rows))]
            for k, i in enumerate(free):
                up[i], down[i] = lam[2 * k], lam[2 * k + 1]
            # the LP's t_k >= 0 may carry part of the proof, u.B_k >= 0; t_k is x at
            # direction k's free event, where x0 is 0, so it moves to that event's down row
            for bvec in basis:
                f = max(i for i, v in enumerate(bvec) if v != 0)
                down[f] += sum((a - b) * v for a, b, v in zip(up, down, bvec) if v)
        yb = sum((a - b) * v for a, b, v in zip(up, down, x0))
    a_t = [*zip(*rows), rhs]
    sol = linsolve.solve_affine(a_t, [a - b for a, b in zip(up, down)] + [yb])
    if sol is not None:
        unit = [[Fraction(int(j == i)) for j in range(n)] * 2 for i in range(n)]
        cert = Farkas(a_rows=[r + [Fraction(0)] * n for r in rows] + unit, b=rhs + [Fraction(1)] * n,
                      y=sol[0] + [-v for v in up])
        if verify_farkas(cert):
            return ConditionalVerdict(EMPTY, certificate=cert, slice_dim=d)
    raise UcpError("an empty slice has no Farkas certificate in event coordinates; inconsistent tables")


def check_conditional_uniqueness(polytope, mu, e, family=None):
    """Is the conditional of mu under e unique within the polytope?

    The full polytope first propagates interval bounds through the state
    equations and the conditioning targets inside the [0, 1] box, in integers.
    When that pins every event, the pinned integers are replayed against the
    slice (range, every state equation, the targets) and returned as UNIQUE
    with no LP and no pinned parametrization: `slice_dim` is then the rank
    deficit of the pin rows over the polytope's nullspace basis.  Otherwise (a
    contradiction, a coordinate left free, or no fixpoint) it pins the targets
    in the polytope's one integer parametrization.  The slice is EMPTY with no
    LP when the pins are inconsistent or a fixed coordinate leaves [0, 1];
    else `_lp_verdict` decides it over the slice's box LP rows, built once,
    with one unit cost per free coordinate.  The event evaluations are affine
    and injective in those coordinates, so "every free coordinate pinned" is
    equivalent to the per-event min = max criterion.  EMPTY carries a Farkas
    certificate over the slice's rows and the box in event coordinates,
    derived from the first LP's with one exact solve.  `slice_dim` is the
    nullity of the slice's equality rows either way.  A polytope of listed
    states gives `_lp_verdict` its rows in convex-coefficient space and one
    cost per event, and its EMPTY keeps the first LP's Farkas vector.

    The verdict, with its conditional, witnesses, certificate and `slice_dim`,
    is a function of the slice: of e, the constrained events and their targets
    mu(f)/mu(e), and of mu through nothing else.  So each distinct slice is
    decided once per polytope, and every later call on it returns the same
    frozen verdict.  The slice is looked up by e, the constrained events and
    (mu(e), mu(f), ...) as coprime integers read off mu's integer form, the
    masses the slice holds; Fraction targets are built only for the LPs of a
    slice not decided yet.
    """
    masses, family = _conditioning(polytope, mu, e, family)
    key = (e, tuple(family), masses)
    verdict = polytope._verdicts.get(key)
    if verdict is None:
        slc = ConditionalSlice(polytope, e, family, masses)
        verdict = _uc_full(slc) if polytope.listed is None else _uc_generated(slc)
        polytope._verdicts[key] = verdict
    return verdict


def _lp_verdict(system, costs, point, d):
    """A slice's verdict from a min and a max LP per cost, each a phase 2 over one prepared `exactlp.LpSystem`.

    EMPTY when the first LP is infeasible, carrying its Farkas vector.  MULTIPLE
    at the first cost whose two optima differ: both optima as states (`point`
    maps an LP's x to one) and the first event where they differ.  UNIQUE
    otherwise, the state at the last optimum (`point([])` with no cost at all).
    `d` is the verdict's `slice_dim`.
    """
    x = []
    for cost in costs:
        lo = solve_lp(cost, system, None)
        # phase 1 found the system infeasible: its Farkas vector certifies an empty slice
        if lo.status == INFEASIBLE:
            return ConditionalVerdict(EMPTY, certificate=lo.farkas, slice_dim=d)
        hi = solve_lp(cost, system, None, maximize=True)
        if lo.status != OPTIMAL or hi.status != OPTIMAL:
            raise UcpError("bounded slice reported unbounded; inconsistent tables")
        if lo.objective != hi.objective:
            nu1, nu2 = point(lo.x), point(hi.x)
            g = next(i for i, (a, b) in enumerate(zip(nu1.values, nu2.values)) if a != b)
            return ConditionalVerdict(MULTIPLE, witnesses=(nu1, nu2, g), slice_dim=d)
        x = lo.x
    # every cost is pinned, so the slice is the single point found
    return ConditionalVerdict(UNIQUE, conditional=point(x), slice_dim=d)


def _uc_full(slc):
    pinned = _propagate(slc)
    if pinned is not None:
        conditional = State.from_integers(*pinned)
        if not slc.satisfied_by(conditional):
            raise UcpError("bound propagation pinned a point outside the conditional slice")
        # the pins are consistent, so the slice's nullity is the parametrization's
        # less the rank of the pin rows over it, which depends on the constrained events only
        basis = slc.polytope._parametrization[1]
        family = tuple(slc.constraint_events)
        ranks = slc.polytope._pin_ranks
        if family not in ranks:
            ranks[family] = linsolve.rank([[v[f] for v in basis] for f in family])
        d = len(basis) - ranks[family]
        return ConditionalVerdict(UNIQUE, conditional=conditional, slice_dim=d)
    sub = slc.polytope.pin(slc.constraint_events, slc.targets)
    d = -1 if sub is None else len(sub[1])
    # inconsistent pins or a fixed coordinate outside [0, 1] empty the slice with no
    # LP; with no free direction the slice is X0 / D alone
    system = None if sub is None else _box_lp(sub)
    if system is None:
        return _empty_verdict(slc, sub, None, d)
    # direction k is D at its free event and the other directions are 0 there, so t_k is that
    # event; the slacks cost 0
    costs = ([int(j == k) for j in range(system.ncols)] for k in range(d))
    verdict = _lp_verdict(system, costs, lambda x: State.from_integers(*_event_point(sub, *_integers(x[:d]))), d)
    return _empty_verdict(slc, sub, verdict.certificate, d) if verdict.verdict == EMPTY else verdict


def _generated_system(gens, events, targets):
    """The LP system, phase 1 run, of convex coefficients of the generators meeting each target on its event."""
    lp_rows = [(dict.fromkeys(range(len(gens) + 1), 1), 1)] + [
        linsolve.scale_to_ints([*(gen[f] for gen in gens), t]) for f, t in zip(events, targets)]
    return prepare(lp_rows, len(gens))


def in_polytope(polytope, nu):
    """Is the state nu in the polytope?  Always in the full one; in the hull of listed states exactly when
    `_generated_system` with nu's value on every event is feasible, one exact phase 1."""
    events = polytope.space.events()
    return polytope.listed is None or _generated_system(polytope.listed, events, nu.values).infeasible is None


def _uc_generated(slc):
    """Over convex coefficients lambda >= 0 of the generators: sum 1 and each target met, one cost per event."""
    gens = slc.polytope.generators
    # the generators' integer forms as rows over one denominator L: a conditional is sum_g lambda_g row_g / L
    rows, den = stack_integers([gen.integers for gen in gens], slc.polytope.space.n_events)

    def to_state(lam):
        p, q = _integers(lam)
        return State.from_integers((np.array(p, dtype=object) @ rows).tolist(), q * den)

    costs = ([gen[ev] for gen in gens] for ev in range(slc.polytope.space.n_events))
    return _lp_verdict(_generated_system(gens, slc.constraint_events, slc.targets), costs, to_state, None)


def unique_conditional(polytope, mu, e):
    """The unique conditional state, or an error naming the obstruction."""
    v = check_conditional_uniqueness(polytope, mu, e)
    if v.verdict == UNIQUE:
        return v.conditional
    raise PreconditionError(f"conditional of the given state under event {e} is {v.verdict}")


@dataclass
class MixtureReport:
    """Conditioning a mixture: weights rescale by the conditioned masses."""

    passed: bool
    mixture: State
    lhs: State
    rhs: State


def _mixture(mu, nu, s):
    """(s mu + (1 - s) nu, the numerators (a, b) of mu and nu, their integer weights (wa, wb)).

    With mu = a / la, nu = b / lb and s = p / q, the mixture is (wa a + wb b) /
    (q la lb) for wa = p lb and wb = (q - p) la.  States of different lengths
    raise PreconditionError.
    """
    if len(mu) != len(nu):
        raise PreconditionError(f"cannot mix states of {len(mu)} and {len(nu)} events")
    (a, la), (b, lb) = mu.integers, nu.integers
    p, q = _frac(s).as_integer_ratio()
    wa, wb = p * lb, (q - p) * la
    return State.from_integers([wa * x + wb * y for x, y in zip(a, b)], q * la * lb), (a, b), (wa, wb)


def mix_states(mu, nu, s):
    """s mu + (1 - s) nu, mixed on the integer forms.  States of different lengths raise PreconditionError."""
    return _mixture(mu, nu, s)[0]


def check_mixture_identity(polytope, mu, nu, s, e):
    """Exact check that conditioning commutes with mixing.

    The conditional of s mu + (1-s) nu under e equals the mixture of the two
    conditionals reweighted by s mu(e) and (1-s) nu(e); a component with zero
    mass on e contributes nothing.  Conditionals must be unique wherever the
    relevant mass is positive, else PreconditionError.  The weights, the
    reweighted sum and its division by the mass of e run on integer forms,
    and the right-hand side is built as its integer form.
    """
    s = _frac(s)
    if not (0 < s < 1):
        raise PreconditionError("mixing weight must be strictly between 0 and 1")
    mix, (a, b), (wa, wb) = _mixture(mu, nu, s)
    # s mu(e) and (1 - s) nu(e), and their sum, over one common denominator
    masses = wa * a[e], wb * b[e]
    total = sum(masses)
    if total == 0:
        raise ConditioningUndefinedError("mixture puts zero mass on the conditioning event")
    lhs = unique_conditional(polytope, mix, e)
    acc, den = [0] * len(mix), 1
    for state, w in zip((mu, nu), masses):
        if w != 0:
            cond, lc = unique_conditional(polytope, state, e).integers
            acc = [v * lc + w * den * c for v, c in zip(acc, cond)]
            den *= lc
    rhs = State.from_integers(acc, den * total)
    return MixtureReport(lhs == rhs, mix, lhs, rhs)
