"""Rebuilding the product from conditionals, on exact and matrix lanes."""

from fractions import Fraction

import numpy as np
import pytest

from ucpspace import instances, jordan, orthospace, statespace
from ucpspace.errors import SynthesisError
from ucpspace.statespace import build_state_polytope
from ucpspace.synthesis import (
    abstract_synthetic_space,
    build_product_model,
    check_box_equality,
    check_extreme_points,
    check_hull_density,
    check_laws_on_reconstruction,
    check_matrix_extremes,
    check_well_definedness,
    compare_products,
    compare_with_lueders,
    hull_membership,
    lueders_expansion_oracle,
    matrix_synthetic_space,
    polytope_expansion_oracle,
    scan_compression_fixed_points,
    scan_random_event_systems,
    verify_matrix_witness,
)

F = Fraction


@pytest.fixture(scope="module")
def bool2_model(bool2_session):
    synth, poly = bool2_session
    oracle = polytope_expansion_oracle(synth, poly)
    return build_product_model(synth, oracle)


@pytest.fixture(scope="session")
def bool2_session(bool2):
    poly = build_state_polytope(bool2)
    return abstract_synthetic_space(bool2, poly.generators), poly


@pytest.fixture(scope="session")
def bool3_session(bool3):
    poly = build_state_polytope(bool3)
    return abstract_synthetic_space(bool3, poly.generators), poly


@pytest.fixture(scope="session")
def bool3_model(bool3_session):
    synth, poly = bool3_session
    oracle = polytope_expansion_oracle(synth, poly)
    return build_product_model(synth, oracle)


@pytest.fixture(scope="session")
def qubit_synth(qubit):
    return matrix_synthetic_space(qubit)


@pytest.fixture(scope="session")
def qubit_model(qubit, qubit_synth):
    oracle = lueders_expansion_oracle(qubit_synth, qubit)
    return build_product_model(qubit_synth, oracle)


@pytest.fixture(scope="session")
def qutrit_synth(qutrit):
    return matrix_synthetic_space(qutrit)


@pytest.fixture(scope="session")
def qutrit_model(qutrit, qutrit_synth):
    oracle = lueders_expansion_oracle(qutrit_synth, qutrit)
    return build_product_model(qutrit_synth, oracle)


class TestSpaceConstruction:
    def test_bool2_dimension(self, bool2_session):
        synth, _ = bool2_session
        assert synth.dim == 2
        assert synth.exact

    def test_mo2_dimension(self, mo2):
        poly = build_state_polytope(mo2)
        synth = abstract_synthetic_space(mo2, poly.generators)
        assert synth.dim == 3

    def test_qubit_dimension(self, qubit_synth):
        # 2x2 hermitian over C has real dimension 4
        assert qubit_synth.dim == 4
        assert not qubit_synth.exact

    def test_qutrit_dimension(self, qutrit_synth):
        assert qutrit_synth.dim == 9

    def test_pi_injective_bool2(self, bool2_session):
        synth, _ = bool2_session
        cols = {tuple(synth.pi(e)) for e in synth.space.events()}
        assert len(cols) == synth.space.n_events

    def test_unit_coords_all_ones(self, bool3_session):
        synth, _ = bool3_session
        assert all(v == 1 for v in synth.unit_coords())

    def test_event_coords_roundtrip(self, qubit_synth):
        x = qubit_synth.pi(3)
        coeffs = qubit_synth.event_coords(x)
        recon = sum(
            c * qubit_synth.pi(e) for c, e in zip(coeffs, qubit_synth.basis_events)
        )
        assert qubit_synth.norm(x - recon) <= 1e-9

    def test_event_coords_rejects_outside(self, bool2):
        # with a redundant third generator the evaluation space outgrows the
        # event span, so off-span vectors exist
        poly = build_state_polytope(bool2)
        mid = statespace.mix_states(poly.generators[0], poly.generators[1], F(1, 2))
        synth = abstract_synthetic_space(bool2, list(poly.generators) + [mid])
        assert synth.n_states == 3 and synth.dim == 2
        bad = synth.zeros()
        bad[0] = F(1)  # evaluation row pattern no affine event combination hits
        with pytest.raises(SynthesisError):
            synth.event_coords(bad)


class TestCompressions:
    def test_unit_compression_is_identity(self, bool3_model):
        rep = bool3_model.compressions[bool3_model.synth.space.unit]
        assert np.array_equal(rep.matrix, bool3_model.synth.identity_matrix())

    def test_zero_compression_is_zero(self, bool3_model):
        rep = bool3_model.compressions[bool3_model.synth.space.zero]
        assert all(v == 0 for v in np.ravel(rep.matrix))

    def test_reports_pass(self, bool3_model):
        for rep in bool3_model.compressions.values():
            assert rep.passed(1e-12)

    def test_classical_truncation(self, bool3, bool3_model):
        # conditioning on e keeps the atoms of e and kills the rest
        synth = bool3_model.synth
        e = 3  # atoms 0 and 1
        out = bool3_model.u_apply(e, synth.pi(5))  # event {atom0, atom2}
        expect = synth.pi(1)  # only atom0 survives
        assert synth.norm(out - expect) == 0

    def test_matrix_compression_matches_triple(self, qubit, qubit_model):
        rep = compare_with_lueders(qubit_model, qubit)
        assert rep <= 1e-9


class TestProduct:
    def test_classical_pointwise(self, bool3, bool3_model):
        synth = bool3_model.synth
        for e in bool3.events():
            for f in bool3.events():
                prod = bool3_model.product(synth.pi(e), synth.pi(f))
                expect = synth.pi(e & f)  # bitmask intersection
                assert synth.norm(prod - expect) == 0

    def test_orthogonal_events_vanish(self, qubit, qubit_model):
        synth = qubit_model.synth
        space = qubit.system.space
        for e in space.events():
            f = space.comp(e)
            prod = qubit_model.product(synth.pi(e), synth.pi(f))
            assert synth.norm(prod) <= 1e-9

    def test_matches_jordan_oracle(self, qubit, qubit_model):
        assert compare_products(qubit_model, qubit) <= 1e-8

    def test_squares_of_events_are_events(self, qubit, qubit_model):
        synth = qubit_model.synth
        for e in qubit.system.space.events():
            p = synth.pi(e)
            assert synth.norm(qubit_model.product(p, p) - p) <= 1e-9

    def test_symmetry_residuals(self, qubit_model, bool3_model):
        worst, _ = bool3_model.worst_symmetry()
        assert worst == 0
        worst_q, _ = qubit_model.worst_symmetry()
        assert worst_q <= 1e-9


class TestWellDefinedness:
    def test_boolean_exact(self, bool3_model, rng):
        rep = check_well_definedness(bool3_model, samples=30, rng=rng)
        assert rep.passed(0)

    def test_qubit(self, qubit_model, rng):
        rep = check_well_definedness(qubit_model, samples=30, rng=rng)
        assert rep.passed(1e-8)


class TestLaws:
    def test_boolean_laws_exact(self, bool3_model, rng):
        rep = check_laws_on_reconstruction(bool3_model, pairs=40, rng=rng)
        assert rep.passed(0)

    def test_qubit_laws(self, qubit_model, rng):
        rep = check_laws_on_reconstruction(qubit_model, pairs=60, rng=rng)
        assert rep.passed(1e-8)

    def test_qutrit_laws(self, qutrit_model, rng):
        rep = check_laws_on_reconstruction(qutrit_model, pairs=40, rng=rng)
        assert rep.passed(1e-8)


class TestExtremePoints:
    def test_bool2_vertices_extreme(self, bool2_session):
        synth, _ = bool2_session
        for v in check_extreme_points(synth):
            assert v.extreme, v

    def test_matrix_events_extreme(self, qubit):
        for v in check_matrix_extremes(qubit):
            assert v.extreme

    def test_mixture_not_extreme(self):
        import types

        mixed = 0.2 * jordan.diag("C", [1, 0]) + 0.4 * jordan.identity("C", 2)
        stub = types.SimpleNamespace(tag="C", n=2, elements=[mixed], densities=[])
        (verdict,) = check_matrix_extremes(stub, events=[0])
        assert not verdict.extreme
        assert verdict.direction is not None

    def test_matrix_witness_replays(self, qubit):
        # build a non-extreme element by blending two events, then verify the witness
        import types

        e = jordan.diag("C", [1, 0])
        blend = 0.3 * e + 0.7 * jordan.jordan_product(e, e)  # still a projection: stays extreme
        soft = 0.5 * e + 0.25 * jordan.identity("C", 2)
        stub = types.SimpleNamespace(tag="C", n=2, elements=[soft], densities=[])
        verdicts = check_matrix_extremes(stub, events=[0])
        assert not verdicts[0].extreme
        assert verify_matrix_witness(stub, verdicts[0])


class TestHull:
    def test_bool2_box_equals_hull(self, bool2_session):
        synth, _ = bool2_session
        rep = check_box_equality(synth)
        assert rep.equal

    @pytest.mark.parametrize(
        "space",
        [orthospace.boolean_orthospace(2), orthospace.boolean_orthospace(3), instances.mo_orthospace(2),
         instances.mo_orthospace(3)],
        ids=["bool2", "bool3", "mo2", "mo3"],
    )
    def test_box_vertices_are_the_events(self, space):
        # Boolean: the 2^k corners of [0, 1]^k; MO_k: the 2k + 2 event images
        synth = abstract_synthetic_space(space, build_state_polytope(space).generators)
        rep = check_box_equality(synth)
        assert rep.vertices == rep.vertices_on_events == space.n_events
        assert rep.equal

    def test_bool2_membership(self, bool2_session):
        synth, _ = bool2_session
        # midpoint of zero and unit lies in the hull
        mid = (synth.pi(synth.space.zero) + synth.pi(synth.space.unit)) * F(1, 2)
        assert hull_membership(synth, mid)

    def test_density_report_exact(self, bool2_session, rng):
        synth, _ = bool2_session
        rep = check_hull_density(synth, samples=10, rng=rng)
        assert rep.lane == "exact"
        assert not rep.extreme_failures()
        assert rep.box is not None and rep.box.equal

    def test_density_report_matrix(self, qubit, qubit_synth, rng):
        rep = check_hull_density(qubit_synth, samples=10, rng=rng, instance=qubit)
        assert rep.lane == "matrix"
        assert not rep.extreme_failures()
        assert "limit" in rep.note


class TestScans:
    def test_no_fixed_point_witnesses_on_qubit(self, qubit_model, rng):
        scan = scan_compression_fixed_points(qubit_model, samples=25, rng=rng)
        assert scan.checked > 0
        assert scan.witnesses == []

    def test_no_fixed_point_witnesses_on_boolean(self, bool3_model, rng):
        scan = scan_compression_fixed_points(bool3_model, samples=25, rng=rng)
        assert scan.witnesses == []

    def test_random_event_system_scan(self):
        records = scan_random_event_systems(trials=6, seed=11)
        assert records
        for rec in records:
            if rec.mutated:
                assert not rec.axioms_passed
            if rec.worst_symmetry is not None:
                # survivors got through uniqueness, so a product model existed
                assert rec.conditionals_unique
                assert rec.worst_symmetry <= 1e-9


class TestBlockedSynthesis:
    def test_mo2_expansion_blocked(self, mo2):
        poly = build_state_polytope(mo2)
        synth = abstract_synthetic_space(mo2, poly.generators)
        oracle = polytope_expansion_oracle(synth, poly)
        with pytest.raises(SynthesisError) as err:
            build_product_model(synth, oracle)
        assert err.value.verdict.verdict == statespace.MULTIPLE
        assert err.value.event is not None
        assert err.value.generator is not None
