"""Finite observables: radii, expectations, representability, order checks."""

from fractions import Fraction

import numpy as np
import pytest

from ucpspace import instances, jordan
from ucpspace.errors import PreconditionError, StructuralError
from ucpspace.observables import (
    NOT_REPRESENTABLE,
    check_certainty_order,
    check_certainty_order_all,
    check_conditioned_representability,
    check_sum_representability,
    distribution,
    expectation,
    indicator,
    observable,
    observable_leq,
    representing_element,
    spectral_radius,
)
from ucpspace.statespace import build_state_polytope
from ucpspace.synthesis import (
    abstract_synthetic_space,
    build_product_model,
    lueders_expansion_oracle,
    matrix_synthetic_space,
    polytope_expansion_oracle,
)

F = Fraction


@pytest.fixture(scope="module")
def bool2_synth(bool2):
    poly = build_state_polytope(bool2)
    return abstract_synthetic_space(bool2, poly.generators), poly


@pytest.fixture(scope="module")
def bool3_setup(bool3):
    poly = build_state_polytope(bool3)
    synth = abstract_synthetic_space(bool3, poly.generators)
    model = build_product_model(synth, polytope_expansion_oracle(synth, poly))
    return synth, poly, model


def matrix_model(instance):
    synth = matrix_synthetic_space(instance)
    return build_product_model(synth, lueders_expansion_oracle(synth, instance))


class TestObservableConstruction:
    def test_basic(self, bool2):
        x = observable(bool2, ((F(2), 1), (F(-1), 2)))
        assert set(x.values()) == {F(2), F(-1)}

    def test_zero_value_completion(self, bool2):
        # mass missing from the support comes back as a value-0 complement term
        x = observable(bool2, ((F(2), 1),))
        pairs = dict((e, v) for v, e in x.support)
        assert pairs[1] == F(2)
        assert pairs[2] == F(0)

    def test_duplicate_values_merge(self, bool3):
        # two atoms sharing a value fuse into their sum event
        x = observable(bool3, ((F(1), 1), (F(1), 2), (F(5), 4)))
        events = dict((v, e) for v, e in x.support)
        assert events[F(1)] == 3
        assert events[F(5)] == 4

    def test_zero_events_dropped(self, bool2):
        x = observable(bool2, ((F(7), 0), (F(1), 3)))
        assert all(e != 0 for _, e in x.support)

    def test_non_orthogonal_rejected(self, bool3):
        with pytest.raises(StructuralError):
            observable(bool3, ((F(1), 3), (F(2), 5)))  # events share atom 0


class TestSpectralRadius:
    def test_two_valued(self, bool2):
        x = observable(bool2, ((F(2), 1), (F(-1), 2)))
        assert spectral_radius(x) == 2

    def test_constant(self, bool2):
        c = observable(bool2, ((F(-7, 2), bool2.unit),))
        assert spectral_radius(c) == F(7, 2)

    def test_three_valued(self, bool3):
        x = observable(bool3, ((F(1, 2), 1), (F(-3), 2), (F(1), 4)))
        assert spectral_radius(x) == 3


class TestExpectation:
    def test_unit_observable(self, bool3):
        mu = instances.boolean_state([F(1, 5), F(3, 10), F(1, 2)])
        one = observable(bool3, ((F(1), bool3.unit),))
        assert expectation(one, mu) == 1

    def test_worked_weighted_sum(self, bool3):
        mu = instances.boolean_state([F(1, 5), F(3, 10), F(1, 2)])
        x = observable(bool3, ((F(1), 1), (F(2), 2), (F(3), 4)))
        assert expectation(x, mu) == F(23, 10)

    def test_indicator(self, bool3):
        mu = instances.boolean_state([F(1, 5), F(3, 10), F(1, 2)])
        for e in bool3.events():
            assert expectation(indicator(bool3, e), mu) == mu[e]

    def test_distribution_sums_to_one(self, bool3):
        mu = instances.boolean_state([F(1, 5), F(3, 10), F(1, 2)])
        x = observable(bool3, ((F(1), 1), (F(2), 2), (F(3), 4)))
        d = distribution(x, mu)
        assert sum(p for _, p in d) == 1

    def test_state_length_guard(self, bool3, bool2):
        mu = instances.boolean_state([F(1, 2), F(1, 2)])
        x = observable(bool3, ((F(1), 1),))
        with pytest.raises(PreconditionError):
            expectation(x, mu)


class TestRepresentingElement:
    def test_indicator_is_pi(self, bool2_synth):
        synth, _ = bool2_synth
        for e in synth.space.events():
            coords = representing_element(synth, indicator(synth.space, e))
            assert synth.norm(coords - synth.pi(e)) == 0

    def test_worked_two_valued(self, bool2_synth):
        synth, _ = bool2_synth
        x = observable(synth.space, ((F(2), 1), (F(-1), 2)))
        coords = representing_element(synth, x)
        assert sorted(coords) == [F(-1), F(2)]
        assert synth.norm(coords) == 2

    def test_zero_observable(self, bool2_synth):
        synth, _ = bool2_synth
        z = observable(synth.space, ((F(0), synth.space.unit),))
        coords = representing_element(synth, z)
        assert all(v == 0 for v in coords)


class TestConditionedRepresentability:
    def test_boolean_always(self, bool3_setup):
        _, _, model = bool3_setup
        space = model.synth.space
        for e in space.events():
            if e == space.zero:
                continue
            for f in space.events():
                v = check_conditioned_representability(model, e, f)
                assert v.representable, (e, f)

    def test_unit_target(self, qubit):
        model = matrix_model(qubit)
        space = model.synth.space
        for e in space.events():
            if e in (space.zero,):
                continue
            v = check_conditioned_representability(model, e, space.unit)
            assert v.representable

    def test_sparse_not_representable(self):
        inst = instances.sparse_conditioning_instance()
        model = matrix_model(inst)
        v = check_conditioned_representability(model, 2, 4)
        assert v.verdict == NOT_REPRESENTABLE
        assert not v.in_event_span

    def test_enriched_representable(self):
        inst = instances.enriched_conditioning_instance()
        model = matrix_model(inst)
        e_ix, f_ix = 2, 4
        v = check_conditioned_representability(model, e_ix, f_ix)
        assert v.representable
        # independent oracle: {e,f,e} is rank one, so the resolved value is
        # its nonzero eigenvalue and the carrying event is that eigenprojection
        e, f = inst.elements[e_ix], inst.elements[f_ix]
        lam = jordan.trace(jordan.triple_product(e, f, e))
        assert len(v.primitive.terms) == 1
        assert float(v.primitive.terms[0][0]) == pytest.approx(lam, abs=1e-8)


class TestSumRepresentability:
    def test_common_refinement(self, bool3_setup):
        _, _, model = bool3_setup
        space = model.synth.space
        y = observable(space, ((F(1), 1), (F(3), 2)))
        z = observable(space, ((F(2), 3),))
        v = check_sum_representability(model, y, z)
        assert v.representable
        mu = instances.boolean_state([F(1, 5), F(3, 10), F(1, 2)])
        assert expectation(v.observable, mu) == expectation(y, mu) + expectation(z, mu)

    def test_zero_addend(self, bool3_setup):
        _, _, model = bool3_setup
        space = model.synth.space
        y = observable(space, ((F(1), 1), (F(2), 2)))
        z = observable(space, ((F(0), space.unit),))
        v = check_sum_representability(model, y, z)
        assert v.representable

    def test_sparse_sum_blocked(self):
        inst = instances.sparse_sum_instance()
        model = matrix_model(inst)
        space = model.synth.space
        y = indicator(space, 2)
        z = indicator(space, 4)
        v = check_sum_representability(model, y, z)
        assert v.verdict == NOT_REPRESENTABLE
        # the sum lies in the event span; what is missing is a resolution
        assert v.in_event_span

    def test_enriched_sum_representable(self):
        inst = instances.enriched_sum_instance()
        model = matrix_model(inst)
        space = model.synth.space
        y = indicator(space, 2)
        z = indicator(space, 4)
        v = check_sum_representability(model, y, z)
        assert v.representable
        # oracle: eigenvalues of pz + px are 1 +/- 1/sqrt(2)
        got = sorted(float(val) for val in v.observable.values())
        expect = sorted([1 - 1 / np.sqrt(2), 1 + 1 / np.sqrt(2)])
        assert got == pytest.approx(expect, abs=1e-8)


class TestCertaintyOrder:
    def test_equal_events(self, bool3_setup):
        synth, poly, _ = bool3_setup
        v = check_certainty_order(synth, poly, 3, 3)
        assert v.passed

    def test_worked_comparable(self, bool3_setup):
        synth, poly, _ = bool3_setup
        v = check_certainty_order(synth, poly, 1, 3)
        assert v.hypothesis_holds and v.order_holds and v.passed

    def test_mo2_vacuous_hypothesis(self, mo2):
        poly = build_state_polytope(mo2)
        synth = abstract_synthetic_space(mo2, poly.generators)
        v = check_certainty_order(synth, poly, 1, 3)
        assert not v.hypothesis_holds
        assert not v.hypothesis_vacuous
        assert v.passed

    def test_all_pairs_boolean(self, bool3_setup):
        synth, poly, _ = bool3_setup
        verdicts, all_passed = check_certainty_order_all(synth, poly)
        assert verdicts
        assert all_passed

    def test_all_pairs_mo2(self, mo2):
        poly = build_state_polytope(mo2)
        synth = abstract_synthetic_space(mo2, poly.generators)
        verdicts, all_passed = check_certainty_order_all(synth, poly)
        assert all_passed


class TestObservableOrder:
    def test_dominating_pair(self, bool3_setup):
        synth, poly, _ = bool3_setup
        x = observable(synth.space, ((F(1), 1), (F(2), 2)))
        y = observable(synth.space, ((F(2), 1), (F(3), 2), (F(1), 4)))
        rep = observable_leq(synth, poly, x, y)
        assert rep.agree
        assert rep.holds

    def test_incomparable_pair(self, bool3_setup):
        synth, poly, _ = bool3_setup
        x = observable(synth.space, ((F(5), 1),))
        y = observable(synth.space, ((F(3), 2),))
        rep = observable_leq(synth, poly, x, y)
        assert rep.agree
        assert not rep.holds

    def test_routes_agree_random(self, bool3_setup, rng):
        synth, poly, _ = bool3_setup
        atoms = [1, 2, 4]
        for _ in range(20):
            vx = [F(int(rng.integers(-4, 5)), 2) for _ in atoms]
            vy = [F(int(rng.integers(-4, 5)), 2) for _ in atoms]
            x = observable(synth.space, tuple(zip(vx, atoms)))
            y = observable(synth.space, tuple(zip(vy, atoms)))
            rep = observable_leq(synth, poly, x, y)
            assert rep.agree
            assert rep.holds == all(a <= b for a, b in zip(vx, vy))
