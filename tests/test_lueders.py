"""Density conditioning, compression identities, and the two-sided symmetry."""

import numpy as np
import pytest

from ucpspace import instances, jordan, lueders
from ucpspace.errors import ConditioningUndefinedError, PreconditionError
from ucpspace.lueders import (
    DensityState,
    check_compression_identities,
    check_compression_system,
    classify_pair,
    condition,
    conditional_probability,
    density_from,
    maximally_mixed,
    symmetry_residual,
    u_e,
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
        out = u_e(e, jordan.identity("C", 2))
        assert np.allclose(out.coords, e.coords, atol=1e-12)

    def test_worked_compression(self):
        out = u_e(qubit_e(), qubit_f())
        expect = np.zeros((2, 2, 2))
        expect[0, 0, 0] = 0.5
        assert np.allclose(out.coords, expect, atol=1e-12)

    def test_fixed_point(self):
        e = qubit_e()
        assert np.allclose(u_e(e, e).coords, e.coords, atol=1e-12)

    def test_requires_idempotent(self):
        with pytest.raises(PreconditionError):
            u_e(0.5 * jordan.identity("C", 2), qubit_f())


class TestDensity:
    def test_trace_enforced(self):
        with pytest.raises(PreconditionError):
            DensityState(jordan.identity("C", 2))

    def test_positivity_enforced(self):
        with pytest.raises(PreconditionError):
            DensityState(jordan.diag("C", [1.5, -0.5]))

    def test_density_from_normalizes(self):
        rho = density_from(jordan.diag("C", [2, 2]))
        assert jordan.trace(rho.element) == pytest.approx(1.0)

    def test_density_from_rejects_zero(self):
        with pytest.raises(ConditioningUndefinedError):
            density_from(jordan.zero("C", 2))


class TestConditioning:
    def test_worked_conditional_state(self):
        rho = maximally_mixed("C", 2)
        out = condition(rho, qubit_e())
        assert np.allclose(out.element.coords, qubit_e().coords, atol=1e-12)

    def test_unit_event_echoes(self):
        rho = density_from(jordan.diag("C", [0.7, 0.3]))
        out = condition(rho, jordan.identity("C", 2))
        assert np.allclose(out.element.coords, rho.element.coords, atol=1e-12)

    def test_worked_probability(self):
        rho = maximally_mixed("C", 2)
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
        es = jordan.batched_random_projections("C", 3, 10, rng)
        fs = jordan.batched_random_projections("C", 3, 10, rng)
        batch = lueders.batched_symmetry_residual("C", es, fs)
        for i in range(10):
            e = jordan.JordanElement("C", 3, es[i])
            f = jordan.JordanElement("C", 3, fs[i])
            assert batch[i] == pytest.approx(symmetry_residual(e, f), abs=1e-10)


class TestSystemAudit:
    def test_full_qutrit_lattice_passes(self, qutrit, rng):
        audit = check_compression_system(
            qutrit.system.elements,
            states=qutrit.densities,
            full_lattice=True,
            samples=40,
            rng=rng,
        )
        assert audit.closure_unit
        assert audit.closure_complement == []
        assert audit.closure_sums == []
        assert audit.spanning
        assert audit.passed(1e-8)

    def test_sparse_sublist_range_caveat(self, qutrit, rng):
        # without the full-lattice claim the range condition can only see the
        # listed sub-events, and rank-2 corners are under-spanned
        audit = check_compression_system(
            qutrit.system.elements,
            states=qutrit.densities,
            full_lattice=False,
            samples=10,
            rng=rng,
        )
        assert audit.range_caveat != ""
        assert any(a.range_residual > 1e-3 for a in audit.events)

    def test_missing_unit_detected(self):
        els = [jordan.zero("C", 2), jordan.diag("C", [1, 0]), jordan.diag("C", [0, 1])]
        audit = check_compression_system(els, expect_spanning=False)
        assert not audit.closure_unit
        assert not audit.passed(require_spanning=False)

    def test_invariance_of_concentrated_states(self, rng):
        e = jordan.diag("C", [1, 1, 0])
        els = [
            jordan.zero("C", 3),
            jordan.identity("C", 3),
            e,
            jordan.complement_projection(e),
        ]
        rho = DensityState(jordan.diag("C", [0.5, 0.5, 0.0]))
        audit = check_compression_system(els, states=[rho], expect_spanning=False, rng=rng)
        target = [a for a in audit.events if a.event == 2]
        assert target and 0 in target[0].invariance
        assert target[0].invariance[0] <= 1e-10

    def test_gap_witnesses_verify(self, rng):
        # the kernel of U_e holds sign-indefinite elements the complement
        # compression moves; each reported triple must replay
        out = lueders.compression_gap_witnesses(qubit_e(), samples=30, rng=rng)
        assert out
        e = qubit_e()
        ec = jordan.complement_projection(e)
        basis = jordan.hermitian_basis("C", 2)
        for x, ue_norm, gap in out:
            assert ue_norm <= 1e-9
            assert jordan.operator_norm(u_e(e, x)) <= 1e-8
            diff = u_e(ec, x) - x
            moved = float(np.linalg.norm(jordan.basis_coords(diff, basis)))
            assert gap > 1e-6 and moved == pytest.approx(gap, abs=1e-9)

    def test_gap_witnesses_empty_for_unit(self, rng):
        # U_identity has trivial kernel: nothing to report
        out = lueders.compression_gap_witnesses(
            jordan.identity("C", 2), samples=10, rng=rng
        )
        assert out == []
