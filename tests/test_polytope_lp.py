"""Optimizations over a full state polytope against an x-space reference LP.

The package optimizes over the polytope's parametrization x = x0 + B t.  The
reference here solves the same problem in event coordinates: the equality
rows of the orthospace plus one row per pinned event, inside [0, 1]^n.
"""

from fractions import Fraction as F

import pytest

from ucpspace import instances, orthospace, statespace
from ucpspace.exactlp import INFEASIBLE, OPTIMAL, solve_lp
from ucpspace.observables import check_certainty_order
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
