"""Density conditioning, compression identities, and the two-sided symmetry."""

import numpy as np
import pytest

from ucpspace import instances, jordan, lueders, orthospace
from ucpspace.errors import ConditioningUndefinedError, PreconditionError
from ucpspace.lueders import (
    DensityState,
    check_compression_identities,
    classify_pair,
    condition,
    conditional_probability,
    density_from,
)


def qubit_e():
    return jordan.diag("C", [1, 0])


def qubit_f():
    c = np.zeros((2, 2, 2))
    c[:, :, 0] = 0.5
    return jordan.element("C", c)


class TestCompression:
    def test_unit_argument(self):
        e = qubit_e()
        out = jordan.triple_product(e, jordan.identity("C", 2), e)
        assert np.allclose(out.coords, e.coords, atol=1e-12)

    def test_worked_compression(self):
        out = jordan.triple_product(qubit_e(), qubit_f(), qubit_e())
        expect = np.zeros((2, 2, 2))
        expect[0, 0, 0] = 0.5
        assert np.allclose(out.coords, expect, atol=1e-12)

    def test_fixed_point(self):
        e = qubit_e()
        assert np.allclose(jordan.triple_product(e, e, e).coords, e.coords, atol=1e-12)

    def test_requires_idempotent(self):
        with pytest.raises(PreconditionError):
            lueders.compression_matrix(0.5 * jordan.identity("C", 2))


class TestDensity:
    def test_trace_enforced(self):
        with pytest.raises(PreconditionError):
            DensityState(jordan.identity("C", 2))

    def test_positivity_enforced(self):
        with pytest.raises(PreconditionError):
            DensityState(jordan.diag("C", [1.5, -0.5]))

    def test_nan_trace_is_an_error(self):
        # the real eigensolver returns finite eigenvalues for this stack; the trace check must still fail
        coords = np.zeros((1, 2, 2, 1))
        coords[0, 0, 0, 0], coords[0, 1, 1, 0] = np.nan, 0.5
        (error,) = lueders._density_errors("R", coords)
        assert isinstance(error, PreconditionError) and "density trace is nan" in str(error)

    def test_density_from_normalizes(self):
        rho = density_from(jordan.diag("C", [2, 2]))
        assert jordan.trace(rho.element) == pytest.approx(1.0)

    def test_density_from_rejects_zero(self):
        with pytest.raises(ConditioningUndefinedError):
            density_from(jordan.zero("C", 2))


class TestConditioning:
    def test_worked_conditional_state(self):
        rho = density_from(jordan.identity("C", 2))
        out = condition(rho, qubit_e())
        assert np.allclose(out.element.coords, qubit_e().coords, atol=1e-12)

    def test_unit_event_echoes(self):
        rho = density_from(jordan.diag("C", [0.7, 0.3]))
        out = condition(rho, jordan.identity("C", 2))
        assert np.allclose(out.element.coords, rho.element.coords, atol=1e-12)

    def test_worked_probability(self):
        rho = density_from(jordan.identity("C", 2))
        assert conditional_probability(rho, qubit_f(), qubit_e()) == pytest.approx(0.5)

    def test_zero_mass_raises(self):
        rho = DensityState(jordan.diag("C", [0, 1]))
        with pytest.raises(ConditioningUndefinedError):
            condition(rho, qubit_e())

    def test_small_mass_conditionals_have_unit_trace(self):
        # this qutrit family has an event of mass 4.2e-6 under one density;
        # dividing the compression by the separately rounded mass left a trace
        # 7e-12 off one, which the density check rejects
        inst = instances.qutrit_instance(seed=7671)
        worst, masses = 0.0, []
        for rho in inst.densities:
            for e in inst.elements:
                mass = rho.expect(e)
                if mass <= lueders.MASS_THRESHOLD:
                    continue
                masses.append(mass)
                worst = max(worst, abs(jordan.trace(condition(rho, e).element) - 1.0))
        assert min(masses) < 1e-5
        assert worst <= 1e-14

    def test_probability_matches_conditioned_state(self, rng):
        rho = density_from(lueders.random_positive("C", 3, rng))
        e = jordan.random_projection("C", 3, rng, rank=2)
        f = jordan.random_projection("C", 3, rng)
        direct = conditional_probability(rho, f, e)
        via_state = condition(rho, e).expect(f)
        assert direct == pytest.approx(via_state, abs=1e-10)


def complex_matrix(coords):
    return coords[..., 0] + 1j * coords[..., 1]


class TestConditionStack:
    """The stacked conditioning against a per-density e rho e / tr in complex matrices."""

    def densities(self, rng, count):
        return np.stack([density_from(lueders.random_positive("C", 3, rng)).element.coords for _ in range(count)])

    @pytest.mark.parametrize("rank", [1, 2])
    def test_matches_per_density_reference(self, rank, rng):
        e = jordan.random_projection("C", 3, rng, rank=rank)
        stack = self.densities(rng, 7)
        conds, errors = lueders.condition_stack(stack, [e])
        assert errors == [[None] * 7]
        em = complex_matrix(e.coords)
        for rho, cond in zip(stack, conds[0]):
            ref = em @ complex_matrix(rho) @ em
            ref /= np.trace(ref).real
            assert np.max(np.abs(complex_matrix(cond) - ref)) <= 1e-13

    def test_single_density_is_condition(self, rng):
        e = jordan.random_projection("C", 3, rng)
        stack = self.densities(rng, 4)
        conds, _ = lueders.condition_stack(stack, [e])
        for rho, cond in zip(stack, conds[0]):
            one = condition(DensityState(jordan.JordanElement("C", 3, rho)), e)
            assert np.max(np.abs(one.element.coords - cond)) <= 1e-15

    def test_zero_mass_density_flagged_in_place(self, rng):
        e = jordan.diag("C", [1, 0, 0])
        stack = self.densities(rng, 3)
        stack[1] = jordan.diag("C", [0, 0.5, 0.5]).coords
        (errors,) = lueders.condition_stack(stack, [e])[1]
        assert errors[0] is None and errors[2] is None
        assert isinstance(errors[1], ConditioningUndefinedError)
        assert "event mass" in str(errors[1])

    def test_zero_mass_density_raises_through_the_oracle(self):
        from ucpspace import synthesis

        inst = instances.qubit_instance()
        synth = synthesis.matrix_synthetic_space(inst)
        oracle = synthesis.lueders_expansion_oracle(synth, inst)
        e = 2  # pz: the density of its complement has zero mass on it
        zero = [l for l in range(synth.n_states) if synth.pairing[l, e] <= lueders.MASS_THRESHOLD]
        live = [l for l in range(synth.n_states) if l not in zero]
        assert zero and live
        unit = [(inst.space.unit, live)]
        assert [len(x) for x in oracle(unit + [(e, live)])] == [len(live), len(live)]
        with pytest.raises(ConditioningUndefinedError, match="event mass"):
            oracle(unit + [(e, [live[0], zero[0], live[-1]])])

    def test_idempotency_checked_once_and_raises(self, rng):
        e = jordan.random_projection("C", 3, rng)
        with pytest.raises(PreconditionError, match="idempotent"):
            lueders.condition_stack(self.densities(rng, 2), [e, 0.5 * jordan.identity("C", 3)])

    def test_density_checks_per_entry(self):
        stack = np.stack([jordan.diag("C", [0.5, 0.5]).coords, jordan.diag("C", [1.5, -0.5]).coords,
                          jordan.diag("C", [1.0, 1.0]).coords])
        errors = lueders._density_errors("C", stack)
        assert errors[0] is None
        assert str(errors[1]).startswith("density has negative eigenvalue")
        assert str(errors[2]) == "density trace is 2.0, not 1"


class TestDensityStack:
    """One check over the stack against DensityState on one density at a time."""

    @staticmethod
    def first_error(tag, coords):
        for c in coords:
            try:
                DensityState(jordan.JordanElement(tag, c.shape[0], c))
            except PreconditionError as exc:
                return exc
        return None

    @pytest.mark.parametrize("tag", jordan.TAGS)
    @pytest.mark.parametrize("order", ["trace-first", "eigenvalue-first"])
    def test_raises_the_first_error_of_a_per_density_loop(self, tag, order, rng):
        good = [density_from(lueders.random_positive(tag, 3, rng)).element.coords for _ in range(6)]
        wrong_trace = 1.5 * good[0]
        negative = jordan.diag(tag, [1.2, 0.1, -0.3]).coords
        bad = [wrong_trace, negative] if order == "trace-first" else [negative, wrong_trace]
        coords = np.stack(good[:2] + bad[:1] + good[2:4] + bad[1:] + good[4:])
        want = self.first_error(tag, coords)
        with pytest.raises(PreconditionError) as got:
            lueders.DensityStack(tag, coords)
        assert type(got.value) is type(want)
        assert str(got.value) == str(want)
        assert str(want).startswith("density trace is" if order == "trace-first" else "density has negative eigenvalue")

    @pytest.fixture()
    def checked(self, monkeypatch):
        """The size of each stack that `_density_errors` checks, in call order."""
        sizes = []
        errors = lueders._density_errors
        monkeypatch.setattr(lueders, "_density_errors", lambda tag, c: sizes.append(len(c)) or errors(tag, c))
        return sizes

    def test_checks_once_and_hands_out_its_densities(self, rng, checked):
        coords = np.stack([density_from(lueders.random_positive("C", 3, rng)).element.coords for _ in range(5)])
        checked.clear()
        stack = lueders.DensityStack("C", coords)
        rhos = list(stack)
        assert checked == [5]
        assert len(stack) == 5 and stack.n == 3
        assert all(np.array_equal(rho.element.coords, c) for rho, c in zip(rhos, coords))
        assert isinstance(stack[1:3], lueders.DensityStack) and len(stack[1:3]) == 2

    def test_instance_checks_its_densities_once(self, checked):
        inst = instances.qutrit_instance(seed=11)
        assert checked == [len(inst.densities)]

    def test_condition_checks_its_conditional_once(self, checked):
        rho = density_from(jordan.diag("C", [0.7, 0.3]))
        checked.clear()
        condition(rho, qubit_e())
        assert checked == [1]


class TestStackedEvents:
    """Conditioning under a stack of events against one event at a time, in every algebra."""

    def family(self, tag, rng):
        densities = np.stack([density_from(lueders.random_positive(tag, 3, rng)).element.coords for _ in range(5)])
        events = [jordan.random_projection(tag, 3, rng, rank=1 + i % 2) for i in range(4)]
        # a density inside the complement of the first event: zero mass on it
        densities[0] = (jordan.complement_projection(events[0]) * 0.5).coords
        return densities, events

    @staticmethod
    def messages(errors):
        return [[None if x is None else (type(x), str(x)) for x in row] for row in errors]

    @pytest.mark.parametrize("tag", jordan.TAGS)
    def test_stack_equals_per_event_bit_for_bit(self, tag, rng):
        densities, events = self.family(tag, rng)
        conds, errors = lueders.condition_stack(densities, events)
        assert conds.shape == (len(events),) + densities.shape
        assert errors[0][0] is not None
        for i, e in enumerate(events):
            one, one_errors = lueders.condition_stack(densities, [e])
            assert np.array_equal(conds[i], one[0])
            assert self.messages(errors[i : i + 1]) == self.messages(one_errors)

    @pytest.mark.parametrize("tag", ["C", "O3"])
    def test_blocks_equal_one_block(self, tag, rng, monkeypatch):
        densities, events = self.family(tag, rng)
        whole, whole_errors = lueders.condition_stack(densities, events)
        monkeypatch.setattr(orthospace, "_PAIR_BLOCK", 2 * len(densities) - 1)  # one event per block
        blocked, blocked_errors = lueders.condition_stack(densities, events)
        assert np.array_equal(whole, blocked)
        assert self.messages(whole_errors) == self.messages(blocked_errors)


class TestPairClassification:
    def test_comparable(self):
        e = jordan.diag("C", [1, 0, 0])
        f = jordan.diag("C", [1, 1, 0])
        assert classify_pair(e, f) == lueders.LEQ
        assert classify_pair(f, e) == lueders.GEQ

    def test_orthogonal(self):
        assert classify_pair(jordan.diag("C", [1, 0]), jordan.diag("C", [0, 1])) == (
            lueders.ORTHOGONAL
        )

    def test_incomparable(self):
        assert classify_pair(qubit_e(), qubit_f()) is None


class TestCompressionIdentities:
    def test_equal_events(self):
        rep = check_compression_identities(qubit_e(), qubit_e())
        assert rep.passed(1e-12)

    def test_worked_comparable(self):
        e = jordan.diag("C", [1, 0, 0])
        f = jordan.diag("C", [1, 1, 0])
        rep = check_compression_identities(e, f)
        assert rep.relation == lueders.LEQ
        assert rep.passed(1e-10)

    def test_orthogonal_vanishing(self):
        rep = check_compression_identities(
            jordan.diag("C", [1, 0]), jordan.diag("C", [0, 1])
        )
        assert rep.relation == lueders.ORTHOGONAL
        assert rep.passed(1e-12)

    def test_incomparable_rejected(self):
        with pytest.raises(PreconditionError):
            check_compression_identities(qubit_e(), qubit_f())

    def test_all_pairs_qutrit(self, qutrit):
        events = qutrit.system.elements
        checked = 0
        for i, e in enumerate(events):
            for f in events[i + 1 :]:
                if classify_pair(e, f) is None:
                    continue
                rep = check_compression_identities(e, f)
                assert rep.passed(1e-10), (i, rep.worst())
                checked += 1
        assert checked > 0


def symmetry_residual(e, f):
    """Operator norm of the two-sided conditioning symmetry defect, one pair at a time."""
    lhs, rhs = lueders.symmetry_sides(e, f)
    return jordan.operator_norm(lhs - rhs)


class TestSymmetry:
    def test_commuting_diagonal_exact(self):
        e = jordan.diag("R", [1, 0, 0])
        f = jordan.diag("R", [1, 1, 0])
        assert symmetry_residual(e, f) == 0.0

    def test_worked_qubit_pair(self):
        e, f = qubit_e(), qubit_f()
        lhs, rhs = lueders.symmetry_sides(e, f)
        half = 0.5 * jordan.identity("C", 2)
        assert np.allclose(lhs.coords, half.coords, atol=1e-12)
        assert np.allclose(rhs.coords, half.coords, atol=1e-12)
        assert symmetry_residual(e, f) <= 1e-12

    @pytest.mark.parametrize("tag", ["R", "C", "H"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_random_pairs(self, tag, n, rng):
        for _ in range(40):
            e = jordan.random_projection(tag, n, rng)
            f = jordan.random_projection(tag, n, rng)
            assert symmetry_residual(e, f) <= 1e-9

    def test_batched_matches_loop(self, rng):
        es = np.stack([jordan.random_projection("C", 3, rng).coords for _ in range(10)])
        fs = np.stack([jordan.random_projection("C", 3, rng).coords for _ in range(10)])
        batch = lueders.batched_symmetry_residual("C", es, fs)
        for i in range(10):
            e = jordan.JordanElement("C", 3, es[i])
            f = jordan.JordanElement("C", 3, fs[i])
            assert batch[i] == pytest.approx(symmetry_residual(e, f), abs=1e-10)

