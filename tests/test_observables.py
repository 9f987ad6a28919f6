"""Finite observables: radii, expectations, representability, order checks."""

import dataclasses
import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from ucpspace import instances, jordan, observables, orthospace
from ucpspace.errors import CapacityError, PreconditionError, StructuralError
from ucpspace.observables import (
    NOT_REPRESENTABLE,
    check_certainty_order,
    check_certainty_order_all,
    check_conditioned_representability,
    check_sum_representability,
    expectation,
    indicator,
    observable,
    representing_element,
    spectral_radius,
)
from ucpspace.statespace import build_state_polytope, generated_polytope, stack_integers
from ucpspace.synthesis import (
    FLOAT_TOL,
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
        lam = jordan.trace(jordan.quadratic(e, f))
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


@functools.cache
def qutrit_model(family_seed):
    return matrix_model(instances.qutrit_instance(seed=family_seed))


class TestFloatLaneScales:
    """The float lane's norm identity and sum check, for observables far from 1 in size."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_tolerances_scale_with_the_observables(self, data):
        # two observables on one unit-summing family, values of size 10^k for k in [-6, 12]: the
        # representing element's norm is the spectral radius and the sum resolves over the family
        model = qutrit_model(data.draw(st.sampled_from([5, 7671])))
        synth, space = model.synth, model.synth.space
        fams = [f for f in orthospace.maximal_orthogonal_families(space)
                if orthospace.iterated_sum(space, f) == space.unit]
        fam = data.draw(st.sampled_from(fams))
        scale = 10.0 ** data.draw(st.floats(-6, 12))
        value = st.floats(0.1, 1.0).flatmap(lambda v: st.sampled_from([v * scale, -v * scale]))
        y, z = (observable(space, [(data.draw(value), e) for e in fam]) for _ in range(2))
        radius = spectral_radius(y) + spectral_radius(z)
        coords = representing_element(synth, y)
        assert abs(synth.norm(coords) - spectral_radius(y)) <= FLOAT_TOL * spectral_radius(y)
        v = check_sum_representability(model, y, z)
        assert v.representable
        assert v.residual <= FLOAT_TOL * radius


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

    def test_near_certain_exact_state_is_not_certain(self, bool3):
        # mass 1 - 10^-9 on atom 0 lies within FLOAT_TOL of 1, but is not 1
        eps = Fraction(1, 10**9)
        gens = [instances.boolean_state([1 - eps, eps, 0])] + instances.boolean_vertex_states(3)[1:]
        poly = generated_polytope(bool3, gens)
        synth = abstract_synthetic_space(bool3, gens)
        v = check_certainty_order(synth, poly, 0b001, 0b010)
        assert v.hypothesis_vacuous and not v.hypothesis_holds and v.min_value is None
        # the atom-1 vertex is certain of atom 1 exactly, and of every event above it
        v = check_certainty_order(synth, poly, 0b010, 0b011)
        assert v.hypothesis_holds and not v.hypothesis_vacuous and v.min_value == 1 and v.order_holds

    def test_full_polytope_without_vertices_is_refused(self, bool3_setup):
        # MO_32 has 66 events and 2^32 vertices: its full polytope has no vertices to scan, whatever the model
        synth, _, _ = bool3_setup
        with pytest.raises(CapacityError, match="vertex enumeration.*cap"):
            check_certainty_order(synth, build_state_polytope(instances.mo_orthospace(32)), 1, 3)


def _tampered(synth, e, f):
    """synth with generator 0's value of f pushed below its value of e in the pairing."""
    pn, dp = synth.pairing
    pn = pn.copy()
    pn[0, f] = pn[0, e] - 1
    return dataclasses.replace(synth, pairing=(pn, dp))


CERTAINTY_CASES = {
    "B3": lambda: build_state_polytope(orthospace.boolean_orthospace(3)),
    "B4": lambda: build_state_polytope(orthospace.boolean_orthospace(4)),
    "MO_3": lambda: build_state_polytope(instances.mo_orthospace(3)),
    "MO_4": lambda: build_state_polytope(instances.mo_orthospace(4)),
    "MO_4-cross": lambda: generated_polytope(instances.mo_orthospace(4), instances.cross_states(4)),
}


class TestCertaintyTableMatchesScan:
    """check_certainty_order_all's one certainty table against the per-pair Fraction scan of
    reference.certainty_scan: every verdict field equal, min_value and order_holds included."""

    @pytest.mark.parametrize("case", list(CERTAINTY_CASES))
    def test_every_verdict(self, case):
        poly = CERTAINTY_CASES[case]()
        synth = abstract_synthetic_space(poly.space, poly.generators)
        verdicts, all_passed = check_certainty_order_all(synth, poly)
        events = poly.space.events()
        want = [reference.certainty_scan(synth, poly, e, f) for e in events for f in events if e != f]
        assert verdicts == want
        assert all_passed == all(v.passed for v in want)
        assert all(type(v.min_value) is Fraction for v in verdicts if not v.hypothesis_vacuous)

    def test_tampered_order_fails(self, bool3):
        # 1 precedes 3 on B3, so every state certain of atom 1 is certain of 3; a pairing whose column 3
        # drops below column 1 at generator 0 must fail the order there, and only for pairs holding there
        poly = build_state_polytope(bool3)
        synth = _tampered(abstract_synthetic_space(bool3, poly.generators), 1, 3)
        verdicts, all_passed = check_certainty_order_all(synth, poly)
        assert not all_passed
        assert [(v.e, v.f) for v in verdicts if not v.passed] == [(1, 3)]
        events = bool3.events()
        assert verdicts == [reference.certainty_scan(synth, poly, e, f) for e in events for f in events if e != f]

    def test_one_call_per_ordered_pair(self, monkeypatch):
        # check_certainty_order is called by module attribute, once per ordered pair: 56 on MO_3
        poly = CERTAINTY_CASES["MO_3"]()
        synth = abstract_synthetic_space(poly.space, poly.generators)
        calls = []
        original = observables.check_certainty_order

        def counted(*args, **kwargs):
            calls.append(args[2:4])
            return original(*args, **kwargs)

        monkeypatch.setattr(observables, "check_certainty_order", counted)
        verdicts, _ = check_certainty_order_all(synth, poly)
        assert len(calls) == len(verdicts) == 56

    def test_table_of_mixed_denominators(self, bool3):
        # generators over denominators 1, 3 and 4: the values compare over their lcm 12
        gens = [instances.boolean_state([F(1, 3), F(2, 3), 0]), instances.boolean_state([F(1, 4), 0, F(3, 4)]),
                instances.boolean_state([1, 0, 0])]
        poly = generated_polytope(bool3, gens)
        table = observables.certainty_table(poly)
        values, den = stack_integers([g.integers for g in gens], bool3.n_events)
        assert table.den == den == 12
        assert table.low[0b001] == values[2].tolist()
        assert table.low[0b010] is None
        synth = abstract_synthetic_space(bool3, gens)
        # generators 0 and 2 are certain of atoms 0 and 1 together; atom 0 has 1/3 and 1 there
        v = check_certainty_order(synth, poly, 0b011, 0b001, table)
        assert not v.hypothesis_vacuous and v.min_value == F(1, 3) and not v.hypothesis_holds
        v = check_certainty_order(synth, poly, 0b011, 0b111, table)
        assert v.hypothesis_holds and v.min_value == 1 and v.order_holds
        assert v == check_certainty_order(synth, poly, 0b011, 0b111)
