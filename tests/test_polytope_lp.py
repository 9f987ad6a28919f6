"""Optimizations over a full state polytope against an x-space reference LP.

The package optimizes over the polytope's parametrization x = x0 + B t.  The
reference here solves the same problem in event coordinates: the equality
rows of the orthospace plus one row per pinned event, inside [0, 1]^n.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from ucpspace import instances, orthospace, statespace
from ucpspace.exactlp import INFEASIBLE, OPTIMAL, solve_lp
from ucpspace.observables import check_certainty_order, observable, observable_leq
from ucpspace.synthesis import abstract_synthetic_space


def reference_lp(space, cost, pins=()):
    """min cost.x over states x with x_e = v for each pin (e, v), in event coordinates."""
    n = space.n_events
    rows = statespace.equality_rows(space)
    a_eq = [list(r) for r, _ in rows]
    b_eq = [b for _, b in rows]
    for e, v in pins:
        a_eq.append([F(int(i == e)) for i in range(n)])
        b_eq.append(v)
    return solve_lp(list(cost), a_eq, b_eq, bounds=[(0, 1)] * n)


@pytest.fixture(scope="module", params=["bool3", "mo3"])
def setup(request):
    space = orthospace.boolean_orthospace(3) if request.param == "bool3" else instances.mo_orthospace(3)
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


def test_observable_leq_matches_reference():
    space = orthospace.boolean_orthospace(3)
    poly = statespace.build_state_polytope(space)
    synth = abstract_synthetic_space(space, poly.generators)
    rng = np.random.default_rng(314)
    atoms = [1, 2, 4]
    signs = set()
    for _ in range(20):
        # equal values merge their atoms, so the support events are not only atoms
        x = observable(space, [(F(int(rng.integers(-3, 4)), 2), a) for a in atoms])
        y = observable(space, [(F(int(rng.integers(-3, 4)), 2), a) for a in atoms])
        cost = [F(0)] * space.n_events
        for v, g in y.support:
            cost[g] += v
        for v, g in x.support:
            cost[g] -= v
        ref = reference_lp(space, cost)
        rep = observable_leq(synth, poly, x, y)
        assert rep.min_gap == ref.objective
        assert rep.expectation_route == (ref.objective >= 0)
        signs.add(ref.objective >= 0)
    assert signs == {True, False}


@pytest.mark.parametrize(
    "space",
    [orthospace.boolean_orthospace(3), instances.mo_orthospace(2), instances.mo_orthospace(3)],
    ids=["bool3", "mo2", "mo3"],
)
def test_state_with_mass_one_matches_reference(space):
    poly = statespace.build_state_polytope(space, with_vertices=False)
    for e in space.events():
        ref = reference_lp(space, [F(0)] * space.n_events, [(e, F(1))])
        nu = statespace.state_with_mass_one(poly, e)
        assert (nu is not None) == (ref.status == OPTIMAL), e
        if nu is not None:
            assert statespace.is_state(space, nu)[0]
            assert nu[e] == 1
