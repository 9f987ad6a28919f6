"""Optimizations over a full state polytope against an x-space reference LP.

The package optimizes over the polytope's parametrization x = x0 + B t.  The
reference here solves the same problem in event coordinates: the equality
rows of the orthospace plus one row per pinned event, inside [0, 1]^n.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from reference import equality_rows
from ucpspace import instances, orthospace, statespace
from ucpspace.exactlp import INFEASIBLE, OPTIMAL, solve_lp, verify_farkas
from ucpspace.observables import check_certainty_order
from ucpspace.synthesis import abstract_synthetic_space


def reference_system(space, pins=()):
    """The rows of `reference_lp` over (x, s): the state equations, one row per pin (e, v), then x_i + s_i = 1."""
    n = space.n_events
    rows = equality_rows(space)
    a_eq = [list(r) + [F(0)] * n for r, _ in rows]
    b_eq = [b for _, b in rows]
    for e, v in pins:
        a_eq.append([F(int(i == e)) for i in range(2 * n)])
        b_eq.append(v)
    a_eq += [[F(int(j == i)) for j in range(n)] * 2 for i in range(n)]
    b_eq += [F(1)] * n
    return a_eq, b_eq


def reference_lp(space, cost, pins=()):
    """min cost.x over states x with x_e = v for each pin (e, v), in event coordinates.

    The variables are x and then one slack s_i per event: x_i <= 1 is the row x_i + s_i = 1.
    """
    n = space.n_events
    a_eq, b_eq = reference_system(space, pins)
    return solve_lp(list(cost) + [F(0)] * n, a_eq, b_eq)


SPACES = {
    "bool3": lambda: orthospace.boolean_orthospace(3),
    "mo3": lambda: instances.mo_orthospace(3),
    "mo4": lambda: instances.mo_orthospace(4),
}


@pytest.fixture(scope="module", params=list(SPACES))
def setup(request):
    space = SPACES[request.param]()
    poly = statespace.build_state_polytope(space)
    return space, poly, abstract_synthetic_space(space, poly.generators)


def test_certainty_order_matches_reference(setup):
    space, poly, synth = setup
    vacuous = 0
    for e in space.events():
        for f in space.events():
            cost = [F(int(i == f)) for i in range(space.n_events)]
            ref = reference_lp(space, cost, [(e, F(1))])
            v = check_certainty_order(synth, poly, e, f)
            assert v.hypothesis_vacuous == (ref.status == INFEASIBLE), (e, f)
            if ref.status == OPTIMAL:
                assert v.min_value == ref.objective, (e, f)
                assert v.hypothesis_holds == (ref.objective == 1), (e, f)
            vacuous += v.hypothesis_vacuous
    assert vacuous == space.n_events  # only the zero event is never certain


def _state_or_arbitrary_pins(space, poly, rng):
    """1-4 events below the unit; targets from a mixture of two vertices, or p/q with -1 <= p <= q + 1."""
    events = [f for f in space.events() if f != space.unit]
    family = sorted(int(f) for f in rng.choice(events, size=int(rng.integers(1, 5)), replace=False))
    if rng.integers(2):
        g, h = (poly.generators[int(i)] for i in rng.integers(len(poly.generators), size=2))
        w = F(int(rng.integers(5)), 4)
        return family, [w * g[f] + (1 - w) * h[f] for f in family]
    q = int(rng.integers(1, 5))
    return family, [F(int(rng.integers(-1, q + 2)), q) for _ in family]


def _b5_lp_pins(rng):
    """x_ab = alpha, x_bc = beta, x_bd = gamma on Boolean 5 atoms, atoms drawn at random.

    Every fixed coordinate stays in [0, 1] and one direction is free, and the slice is
    empty when x_b >= alpha + beta - 1 (from x_a + x_b + x_c <= 1) exceeds gamma, or
    x_e >= 0 fails: only an LP sees it.  Boolean 3 and 4 atoms and MO_3 have no such
    slice (a scan of every pair and triple of events with targets in quarters finds none).
    """
    a, b, c, d = (1 << int(i) for i in rng.permutation(5)[:4])
    return [a | b, b | c, b | d], [F(int(rng.integers(4, 9)), 8), F(int(rng.integers(4, 9)), 8),
                                   F(int(rng.integers(0, 4)), 8)]


def test_empty_exactly_when_reference_infeasible(monkeypatch):
    """Random pins: EMPTY exactly when the event-coordinate reference system is infeasible.

    An EMPTY certificate is checked to be over exactly the rows of `reference_system`,
    so its replay proves that system infeasible; a UNIQUE or MULTIPLE verdict's states
    meet the pins, so they prove it feasible.  Besides, on Boolean 3 and 4 atoms and
    MO_3 `reference_lp` itself must agree (on Boolean 5 atoms it takes seconds a call).
    """
    rng = np.random.default_rng(20261019)
    calls = []
    solve = statespace.solve_lp
    monkeypatch.setattr(statespace, "solve_lp", lambda *a, **kw: calls.append(1) or solve(*a, **kw))
    draws = []
    # Boolean 4 atoms gets fewer draws: its reference LP takes about 0.2 s a call
    for space, count in ((orthospace.boolean_orthospace(3), 60), (instances.mo_orthospace(3), 60),
                         (orthospace.boolean_orthospace(4), 20)):
        poly = statespace.build_state_polytope(space)
        draws += [(space, poly, *_state_or_arbitrary_pins(space, poly, rng)) for _ in range(count)]
    b5 = orthospace.boolean_orthospace(5)
    poly = statespace.build_state_polytope(b5)
    draws += [(b5, poly, *_b5_lp_pins(rng)) for _ in range(14)]
    sources = dict.fromkeys(("pins", "fixed", "lp"), 0)
    for space, poly, family, targets in draws:
        n = space.n_events
        vals = [F(0)] * n
        vals[space.unit] = F(1)
        for f, t in zip(family, targets):
            vals[f] = t
        calls.clear()
        v = statespace.check_conditional_uniqueness(poly, statespace.State(tuple(vals)), space.unit, family)
        pins = list(zip(family, targets))
        if v.verdict == statespace.EMPTY:
            assert len(calls) <= 1, pins
            sub = poly.pin(family, targets)
            sources["pins" if sub is None else "fixed" if statespace._box_lp(sub) is None else "lp"] += 1
            assert (v.certificate.a_rows, v.certificate.b) == reference_system(space, pins), pins
            assert verify_farkas(v.certificate), pins
        else:
            slc = statespace.ConditionalSlice(poly, space.unit, family, statespace._primitive([1, *targets]))
            states = [v.conditional] if v.verdict == statespace.UNIQUE else v.witnesses[:2]
            assert all(slc.satisfied_by(nu) for nu in states), pins
        if n <= 16:
            ref = reference_lp(space, [F(0)] * n, pins)
            assert (v.verdict == statespace.EMPTY) == (ref.status == INFEASIBLE), pins
    assert min(sources.values()) >= 10, sources
