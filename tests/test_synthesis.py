"""Rebuilding the product from conditionals, on exact and matrix lanes."""

import copy
import dataclasses
import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from ucpspace import instances, jordan, linsolve, lueders, orthospace, statespace, synthesis
from ucpspace.errors import SynthesisError
from ucpspace.lueders import MASS_THRESHOLD
from ucpspace.statespace import build_state_polytope
from ucpspace.synthesis import (
    FLOAT_TOL,
    abstract_synthetic_space,
    build_compression,
    build_product_model,
    build_synthetic_space,
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
)

F = Fraction


def basis_cols(synth):
    """The pi-columns of the basis events, (n_states, dim), as values."""
    return synth.pairing_values()[:, list(synth.basis_events)]


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
        assert all(v == 1 for v in synth.pi(synth.space.unit))

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
        # a stack maps row by row, and one row outside fails the whole stack
        stack = np.array([synth.pi(e) * F(k + 1, 3) for k, e in enumerate(synth.space.events())])
        coords = synth.event_coords(stack)
        assert [list(c) for c in coords] == [list(synth.event_coords(x)) for x in stack]
        with pytest.raises(SynthesisError):
            synth.event_coords(np.array(list(stack) + [bad] + list(stack)))

    def test_event_coords_rejects_outside_float(self, qubit_synth):
        # 12 generators over a 4-dimensional event span: the left singular
        # vectors past the span are off it
        cols = basis_cols(qubit_synth)
        off = np.linalg.svd(cols)[0][:, qubit_synth.dim]
        with pytest.raises(SynthesisError):
            qubit_synth.event_coords(off)
        x = qubit_synth.pi(3) * 1e6
        # the residual tolerance is relative to the element's norm
        assert np.allclose(cols @ qubit_synth.event_coords(x + off * 1e-6), x, rtol=1e-12, atol=1e-6)
        with pytest.raises(SynthesisError):
            qubit_synth.event_coords(x + off * 1.0)

    def test_event_coords_stack_checks_every_row(self, qubit_synth, rng):
        cols = basis_cols(qubit_synth)
        off = np.linalg.svd(cols)[0][:, qubit_synth.dim]
        stack = rng.uniform(-1.0, 1.0, size=(50, qubit_synth.dim)) @ cols.T
        coords = qubit_synth.event_coords(stack)
        assert coords.shape == (50, qubit_synth.dim)
        assert np.allclose(coords @ cols.T, stack, rtol=0, atol=1e-12)
        stack[37] += off
        with pytest.raises(SynthesisError):
            qubit_synth.event_coords(stack)

    def test_event_coords_stack_scales_each_row(self, qubit_synth):
        # a 1e-6 off-span part is inside the tolerance of a 1e6-scale row and
        # outside that of a 1e-6-scale row, wherever the rows sit in the stack
        cols = basis_cols(qubit_synth)
        off = np.linalg.svd(cols)[0][:, qubit_synth.dim]
        big, small = qubit_synth.pi(3) * 1e6, qubit_synth.pi(5) * 1e-6
        qubit_synth.event_coords(np.stack([big + off * 1e-6, small]))
        for stack in ([big, small + off * 1e-6], [small + off * 1e-6, big]):
            with pytest.raises(SynthesisError):
                qubit_synth.event_coords(np.stack(stack))


def reference_state_row_error(space, rows):
    """The first problem the per-event-pair loop reports for float generator rows, or None."""
    for ix, row in enumerate(rows):
        r = np.asarray(row, dtype=np.float64)
        if abs(r[space.unit] - 1.0) > FLOAT_TOL or r.min() < -FLOAT_TOL or r.max() > 1 + FLOAT_TOL:
            return f"generator {ix} is not a state (mass or range)"
        for e in space.events():
            for f in space.events():
                s = space.sum_of(e, f)
                if s is not None and abs(r[e] + r[f] - r[s]) > FLOAT_TOL:
                    return f"generator {ix} is not additive on ({e}, {f})"
    return None


class TestStateRows:
    @pytest.mark.parametrize(
        "family, edits",
        [("qubit", [(4, 3, 0.01)]), ("qubit", [(2, 5, -0.02), (6, 1, 5.0)]), ("qubit", [(1, 2, 2.0), (3, 4, 0.01)]),
         ("qubit", [(7, 0, 0.5)]), ("qubit", [(5, 6, 1e-3)]), ("qutrit", [(3, 9, 1e-3), (20, 2, 0.01)])],
        ids=[f"edits{i}" for i in range(5)] + ["qutrit"],
    )
    def test_float_rows_report_the_first_problem_in_order(self, family, edits, request):
        inst = request.getfixturevalue(family)
        rows = np.array(inst.value_rows(), dtype=np.float64)
        for ix, e, delta in edits:
            rows[ix, e] += delta
        want = reference_state_row_error(inst.space, rows)
        assert want is not None
        with pytest.raises(SynthesisError) as got:
            build_synthetic_space(inst.space, rows, exact=False)
        assert str(got.value) == want


def reference_exact_row_error(space, rows):
    """The message of the first generator row that `is_state` rejects, checked row by row, or None."""
    for ix, row in enumerate(rows):
        ok, viol = statespace.is_state(space, statespace.State(tuple(F(v) for v in row)))
        if not ok:
            return f"generator {ix} is not a state: {viol[0]}"
    return None


class TestExactStateRows:
    # (generator, event, new value) edits on exact rows: a unit break, a range
    # break (which also breaks additivity), additivity breaks inside [0, 1], and
    # two broken generators, of which the first is named
    @pytest.mark.parametrize(
        "space_name, edits",
        [("bool3", [(1, 7, F(1, 2))]), ("bool3", [(2, 4, F(-1, 3))]), ("bool3", [(0, 3, F(1, 2))]),
         ("bool3", [(3, 6, F(4, 3)), (1, 5, F(1, 7))]), ("mo3", [(2, 1, F(2, 3))]), ("mo3", [(4, 0, F(1, 9))])],
        ids=["unit", "range", "additivity", "two-rows", "mo3-additivity", "mo3-zero"],
    )
    def test_messages_are_is_state_first_violation(self, space_name, edits):
        if space_name == "bool3":
            space = orthospace.boolean_orthospace(3)
            gens = build_state_polytope(space).generators
            rows = [list(g.values) for g in gens + [statespace.mix_states(gens[0], gens[2], F(2, 5))]]
        else:
            space = instances.mo_orthospace(3)
            rows = [list(g.values) for g in instances.cross_states(3)]
        for ix, e, v in edits:
            rows[ix][e] = v
        want = reference_exact_row_error(space, rows)
        assert want is not None
        with pytest.raises(SynthesisError) as got:
            build_synthetic_space(space, rows, exact=True)
        assert str(got.value) == want

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    @pytest.mark.parametrize("own", [0, 1], ids=["all-other", "mixed-lengths"])
    def test_states_of_another_space(self, bool2, bool3_poly, own, exact):
        # rows of another length are named with is_state's length violation, ragged lists too
        rows = [list(g.values) for g in bool3_poly.generators[:own] + build_state_polytope(bool2).generators]
        want = reference_exact_row_error(bool3_poly.space, rows)
        assert want == f"generator {own} is not a state: ('length', 4, 8)"
        with pytest.raises(SynthesisError) as got:
            build_synthetic_space(bool3_poly.space, rows, exact=exact)
        assert str(got.value) == want

    def test_equations_listed_once(self, bool3_poly, monkeypatch):
        # every row is checked in one pass: the state equations are listed once, not once per row
        gens, calls = bool3_poly.generators, []
        state_table = statespace.state_table
        monkeypatch.setattr(statespace, "state_table", lambda space: calls.append(1) or state_table(space))
        abstract_synthetic_space(bool3_poly.space, gens)
        assert len(calls) == 1


class TestCompressions:
    def test_unit_compression_is_identity(self, bool3_model):
        u = reference.values(bool3_model.compressions)[bool3_model.synth.space.unit]
        assert np.array_equal(u, np.eye(bool3_model.synth.n_states, dtype=int))

    def test_zero_compression_is_zero(self, bool3_model):
        u = reference.values(bool3_model.compressions)[bool3_model.synth.space.zero]
        assert all(v == 0 for v in np.ravel(u))

    def test_reports_pass(self, bool3_model):
        for rep in bool3_model.compression_reports.values():
            assert max(rep.idempotency, rep.unit_image, rep.invariance) <= 1e-12

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

    def test_worst_symmetry_matches_pairwise_scan(self, qubit_model, bool3_model):
        def pairwise(model):
            synth, worst, arg = model.synth, 0.0, None
            mults = reference.values(model.multipliers)
            for e in synth.space.events():
                for f in range(e + 1, synth.space.n_events):
                    r = synth.norm(mults[e] @ synth.pi(f) - mults[f] @ synth.pi(e))
                    if r > worst:
                        worst, arg = r, (e, f)
            return worst, arg

        assert bool3_model.worst_symmetry() == pairwise(bool3_model) == (0.0, None)
        worst, _ = qubit_model.worst_symmetry()
        assert worst == pytest.approx(pairwise(qubit_model)[0], abs=1e-15)
        # T_a = I and every other T_e = 0: the residual of (e, a) is |pi(e)|, with many exact ties
        synth = bool3_model.synth
        for a in (1, 5):
            mults = np.stack([np.eye(synth.n_states, dtype=object) * int(e == a) for e in synth.space.events()])
            tied = dataclasses.replace(bool3_model, multipliers=(mults, 1))
            assert tied.worst_symmetry() == pairwise(tied) == (1.0, (1, a) if a > 1 else (1, 2))


def reference_product(model, x, y):
    """x o y by the per-call formula: fresh coordinates of each factor, T = sum c_k T_{b_k}, symmetrized."""
    synth = model.synth
    cols = basis_cols(synth)
    mults = reference.values(model.multipliers)

    def multiplier_of(z):
        if synth.exact:
            coeffs = linsolve.solve_affine([list(r) for r in cols], list(z))[0]
        else:
            coeffs = np.linalg.lstsq(cols, np.asarray(z, dtype=np.float64), rcond=None)[0]
        return sum(mults[e] * c for c, e in zip(coeffs, synth.basis_events))

    half = F(1, 2) if synth.exact else 0.5
    return (multiplier_of(y) @ x + multiplier_of(x) @ y) * half


def random_primitive(synth, rng):
    """sum_g t_g pi(g) over a random maximal orthogonal family: t = k / 4, k in -8..8, on the exact lane, t
    uniform in [-1, 1] on the float lane."""
    fams = orthospace.maximal_orthogonal_families(synth.space)
    fam = fams[rng.integers(len(fams))]
    coeffs = [F(int(rng.integers(-8, 9)), 4) for _ in fam] if synth.exact else rng.uniform(-1.0, 1.0, size=len(fam))
    return sum((synth.pi(g) * c for g, c in zip(fam, coeffs)), synth.zeros())


def product_pairs(model, rng, samples=15):
    """Every pair of event images, then random primitives and products of them."""
    synth = model.synth
    pis = [synth.pi(e) for e in synth.space.events()]
    pairs = [(a, b) for a in pis for b in pis]
    for _ in range(samples):
        x, y = random_primitive(synth, rng), random_primitive(synth, rng)
        pairs += [(x, y), (model.product(x, x), y), (x, model.product(y, x))]
    return pairs


def float_model(family_seed):
    inst = instances.qubit_instance() if family_seed is None else instances.qutrit_instance(seed=family_seed)
    synth = matrix_synthetic_space(inst)
    return build_product_model(synth, lueders_expansion_oracle(synth, inst))


class TestProductEquivalence:
    """The structure-constant contraction against the per-call formula it replaces."""

    @pytest.mark.parametrize("model_name", ["bool2_model", "bool3_model"])
    def test_exact_lane_is_identical(self, request, model_name, rng):
        model = request.getfixturevalue(model_name)
        for x, y in product_pairs(model, rng):
            got, want = model.product(x, y), reference_product(model, x, y)
            assert all(isinstance(v, F) for v in got)
            assert list(got) == list(want)

    @pytest.mark.parametrize("family_seed", [None, 11, 7671])
    def test_float_lane_within_rounding(self, family_seed, rng):
        model = float_model(family_seed)
        for x, y in product_pairs(model, rng):
            got, want = model.product(x, y), reference_product(model, x, y)
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


class TestStackedProduct:
    """One product call on a stack of pairs against the same pairs one at a time."""

    @pytest.mark.parametrize("model_name", ["bool2_model", "bool3_model"])
    def test_exact_lane_rows_are_identical(self, request, model_name, rng):
        model = request.getfixturevalue(model_name)
        pairs = product_pairs(model, rng)
        got = model.product(np.array([x for x, _ in pairs]), np.array([y for _, y in pairs]))
        assert got.shape == (len(pairs), model.synth.n_states)
        for row, (x, y) in zip(got, pairs):
            assert all(isinstance(v, F) for v in row)
            assert list(row) == list(model.product(x, y))

    @pytest.mark.parametrize("family_seed", [None, 11, 7671])
    def test_float_lane_rows_within_rounding(self, family_seed, rng):
        model = float_model(family_seed)
        pairs = product_pairs(model, rng)
        got = model.product(np.array([x for x, _ in pairs]), np.array([y for _, y in pairs]))
        assert got.shape == (len(pairs), model.synth.n_states)
        for row, (x, y) in zip(got, pairs):
            want = model.product(x, y)
            assert np.max(np.abs(row - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


# coefficients p/q far from 1 on both sides: |p| <= 10^18, 1 <= q <= 10^12
far_fractions = st.builds(F, st.integers(-(10**18), 10**18), st.integers(1, 10**12))


@pytest.fixture(scope="module")
def redundant_models(bool2, bool3):
    """Vertex generators plus one mixture of the first two, so the evaluation space outgrows the event span."""
    models = []
    for space in (bool2, bool3):
        poly = build_state_polytope(space)
        gens = list(poly.generators)
        synth = abstract_synthetic_space(space, gens + [statespace.mix_states(gens[0], gens[1], F(1, 3))])
        models.append(build_product_model(synth, polytope_expansion_oracle(synth, poly)))
    return models


class TestExactLaneFarScales:
    """Integer-numerator products and coordinates of primitives at scales far from 1, against Fraction formulas."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_stack_matches_reference(self, bool2_model, bool3_model, redundant_models, data):
        model = data.draw(st.sampled_from([bool2_model, bool3_model, *redundant_models]))
        synth = model.synth
        fams = orthospace.maximal_orthogonal_families(synth.space)

        def primitive():
            x = synth.zeros()
            for g in data.draw(st.sampled_from(fams)):
                x = x + synth.pi(g) * data.draw(far_fractions)
            return x

        size = data.draw(st.integers(1, 4))
        xs = np.array([primitive() for _ in range(size)])
        ys = np.array([primitive() for _ in range(size)])
        got = model.product(xs, ys)
        assert got.shape == xs.shape
        for row, x, y in zip(got, xs, ys):
            assert all(isinstance(v, F) for v in row)
            assert list(row) == list(reference_product(model, x, y))
        coords = synth.event_coords(xs)
        assert coords.shape == (size, synth.dim)
        assert all(isinstance(v, F) for v in coords.flat)
        assert (coords @ basis_cols(synth).T == xs).all()
        if synth.n_states > synth.dim:
            # the mixture's value is fixed by the vertices' on the span, so moving it leaves the span
            bad = xs[0].copy()
            bad[-1] += data.draw(far_fractions.filter(bool))
            rows = list(xs)
            rows.insert(data.draw(st.integers(0, size)), bad)
            with pytest.raises(SynthesisError):
                synth.event_coords(np.array(rows))
            with pytest.raises(SynthesisError):
                model.product(np.array(rows), np.array(rows))


class TestWellDefinedness:
    def test_boolean_exact(self, bool3_model):
        assert check_well_definedness(bool3_model).passed(0)

    def test_qubit(self, qubit_model):
        assert check_well_definedness(qubit_model).passed(1e-8)

    @pytest.mark.parametrize("model_name", ["bool3_model", "qubit_model", "qutrit_model"])
    @pytest.mark.parametrize("block", [orthospace._PAIR_BLOCK, 1])
    def test_sum_triple_equals_pairwise_sweep(self, model_name, block, request, monkeypatch):
        model = request.getfixturevalue(model_name)
        synth, space = model.synth, model.synth.space
        mults, cols = reference.values(model.multipliers), basis_cols(synth)
        want = 0.0
        for e in space.events():
            for f in range(e, space.n_events):
                s = space.sum_of(e, f)
                if s is None or space.zero in (e, f):
                    continue
                delta = (mults[e] + mults[f] - mults[s]) @ cols
                want = max(want, max(abs(v) for v in delta.ravel()))
        monkeypatch.setattr(orthospace, "_PAIR_BLOCK", block)
        got = check_well_definedness(model).sum_triple_residual
        assert got == want


def assert_laws_match_reference(model, decided, pairs, seed, tol):
    """check_laws_on_reconstruction against the references: the decided residuals within tol of `decided`
    (reference.decided_laws(model); tol 0 asks for equal Fractions), the sampled square-norm law and slack
    equal to reference.sampled_norm_laws on the same draws, and the same draws taken from the seed."""
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    got = check_laws_on_reconstruction(model, pairs=pairs, rng=rng_got)
    for name, value in zip(("jordan_identity", "power_associativity", "unit_residual"), decided):
        if tol == 0:
            assert type(getattr(got, name)) is F, name
        assert abs(getattr(got, name) - value) <= tol, name
    assert (got.square_norm, got.square_sum_slack) == reference.sampled_norm_laws(model, pairs, rng_want)
    assert got.pairs == pairs
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


class TestLaws:
    @pytest.mark.parametrize("model_name, tol", [("bool3_model", 0), ("qubit_model", 1e-12), ("qutrit_model", 1e-12)])
    def test_stacked_sweep_matches_per_pair_reference(self, request, model_name, tol):
        # the decided laws, stacked over the basis tuples, against model.product on every tuple
        model = request.getfixturevalue(model_name)
        assert_laws_match_reference(model, reference.decided_laws(model), 25, 5, tol)

    def test_boolean_laws_exact(self, bool3_model, rng):
        rep = check_laws_on_reconstruction(bool3_model, pairs=40, rng=rng)
        assert rep.passed(0)

    def test_qubit_laws(self, qubit_model, rng):
        rep = check_laws_on_reconstruction(qubit_model, pairs=60, rng=rng)
        assert rep.passed(1e-8)

    def test_qutrit_laws(self, qutrit_model, rng):
        rep = check_laws_on_reconstruction(qutrit_model, pairs=40, rng=rng)
        assert rep.passed(1e-8)

    def test_two_products(self, bool3_model, qubit_model, monkeypatch):
        # the three polynomial laws are decided on the structure constants: only x^2 and y^2 are products
        calls = []
        product = synthesis.ProductModel.product
        monkeypatch.setattr(synthesis.ProductModel, "product", lambda *a: calls.append(1) or product(*a))
        for model in (bool3_model, qubit_model):
            calls.clear()
            check_laws_on_reconstruction(model, pairs=7, rng=np.random.default_rng(0))
            assert len(calls) == 2


class TestOneFormPerMatrix:
    def test_no_round_trips_on_the_exact_lane(self, bool3, monkeypatch):
        # the pairing and the coordinate map are scaled once each; the compressions, multipliers, structure
        # constants and sweeps stay (values, denominator) pairs from there on
        calls = []
        scaled = synthesis._scaled
        monkeypatch.setattr(synthesis, "_scaled", lambda arr: calls.append(1) or scaled(arr))
        poly = build_state_polytope(bool3)
        synth = abstract_synthetic_space(bool3, poly.generators)
        assert len(calls) <= 2
        calls.clear()
        model = build_product_model(synth, polytope_expansion_oracle(synth, poly))
        model.worst_symmetry()
        check_well_definedness(model)
        check_laws_on_reconstruction(model, pairs=7, rng=np.random.default_rng(0))
        model.basis_compressions()
        assert calls == []


@functools.cache
def cross_model(k):
    """The exact-lane model of MO_k over its cross-polytope states: the spin factor of dim k + 1."""
    space = instances.mo_orthospace(k)
    poly = statespace.generated_polytope(space, instances.cross_states(k))
    synth = abstract_synthetic_space(space, poly.generators)
    return build_product_model(synth, polytope_expansion_oracle(synth, poly))


def associator_failures(model):
    """How many ordered basis triples (a, b, c) have (a b) c != a (b c)."""
    basis = [model.synth.pi(b) for b in model.synth.basis_events]
    prod = model.product
    return sum(any(prod(prod(a, b), c) != prod(a, prod(b, c))) for a, b, c in itertools.product(basis, repeat=3))


DECIDED_FIELDS = ("jordan_identity", "power_associativity", "unit_residual")


class TestDecidedLaws:
    """The Jordan identity, power associativity and the unit law, decided on the structure constants."""

    @pytest.mark.parametrize("k, failures", [(2, 12), (3, 28), (4, None)])
    def test_spin_factors_are_jordan_not_associative(self, k, failures):
        model = cross_model(k)
        assert model.synth.dim == k + 1
        laws = check_laws_on_reconstruction(model, pairs=8, rng=np.random.default_rng(0))
        assert [getattr(laws, name) for name in DECIDED_FIELDS] == [0, 0, 0]
        assert all(type(getattr(laws, name)) is F for name in DECIDED_FIELDS)
        if failures is not None:
            assert associator_failures(model) == failures

    @pytest.mark.parametrize("name", ["bool3", "bool4", "bool5"])
    def test_boolean_algebras(self, name):
        laws = check_laws_on_reconstruction(exact_model(name), pairs=8, rng=np.random.default_rng(0))
        assert [getattr(laws, field) for field in DECIDED_FIELDS] == [0, 0, 0]

    def test_random_commutative_table(self):
        # symmetric random structure constants over the B3 basis: commutative, neither Jordan nor
        # power-associative, and without the unit
        model = copy.copy(exact_model("bool3"))
        synth = model.synth
        r = synth.dim
        cs = np.random.default_rng(3).integers(-3, 4, size=(r, r, r))
        cs = (cs + cs.transpose(1, 0, 2)).astype(object)
        pn, dp = synth.pairing
        model.table = (cs.reshape(r * r, r) @ pn[:, list(synth.basis_events)].T, dp)
        laws = check_laws_on_reconstruction(model, pairs=8, rng=np.random.default_rng(0))
        assert min(getattr(laws, name) for name in DECIDED_FIELDS) > 0
        assert [getattr(laws, name) for name in DECIDED_FIELDS] == list(reference.decided_laws(model))

    @pytest.mark.parametrize("family_seed", [None, 5, 7671])
    def test_float_lane_within_rounding(self, family_seed):
        laws = check_laws_on_reconstruction(float_model(family_seed), pairs=8, rng=np.random.default_rng(0))
        assert max(getattr(laws, name) for name in DECIDED_FIELDS) <= 1e-12


class TestBothLanesOnTheQubit:
    """One event system on both lanes: the qubit's events, with its six Pauli eigenstates listed exactly
    on the exact lane, and its densities and the Lueders oracle on the float lane."""

    @pytest.fixture(scope="class")
    def models(self, qubit, qubit_model):
        els = qubit.elements
        # values tr(p e) of each rank-one projection p: 0, 1/2 and 1
        states = [statespace.State(tuple(F(round(2 * jordan.inner(p, e)), 2) for e in els))
                  for p in els if abs(jordan.trace(p) - 1) < 1e-12]
        assert len(states) == 6 and all(v in (0, F(1, 2), 1) for s in states for v in s.values)
        synth = abstract_synthetic_space(qubit.space, states)
        poly = statespace.generated_polytope(qubit.space, states)
        return build_product_model(synth, polytope_expansion_oracle(synth, poly)), qubit_model

    def test_same_basis(self, models):
        exact, floats = models
        assert exact.synth.basis_events == floats.synth.basis_events == (1, 2, 4, 6)
        assert exact.synth.dim == floats.synth.dim == 4

    def test_compressions_agree(self, models):
        exact, floats = models
        w_exact, w_float = exact.basis_compressions(), floats.basis_compressions()
        assert all(type(v) is F for v in w_exact.flat)
        assert np.max(np.abs(w_exact.astype(np.float64) - w_float)) <= FLOAT_TOL

    def test_products_agree(self, models):
        # every event pair, read over basis_events
        coords = []
        for model in models:
            synth = model.synth
            es, fs = np.divmod(np.arange(synth.space.n_events ** 2), synth.space.n_events)
            x, y = np.stack([synth.pi(e) for e in es]), np.stack([synth.pi(f) for f in fs])
            coords.append(synth.event_coords(model.product(x, y)))
        assert all(type(v) is F for v in coords[0].flat)
        assert np.max(np.abs(coords[0].astype(np.float64) - coords[1])) <= FLOAT_TOL

    def test_symmetry_and_laws(self, models):
        exact, floats = models
        assert exact.worst_symmetry() == (0, None)
        assert floats.worst_symmetry()[0] <= FLOAT_TOL
        laws = [check_laws_on_reconstruction(m, pairs=8, rng=np.random.default_rng(0)) for m in models]
        assert [getattr(laws[0], name) for name in DECIDED_FIELDS] == [0, 0, 0]
        assert max(getattr(laws[1], name) for name in DECIDED_FIELDS) <= FLOAT_TOL


EXACT_SPACES = {
    "bool3": lambda: orthospace.boolean_orthospace(3),
    "bool4": lambda: orthospace.boolean_orthospace(4),
    "bool5": lambda: orthospace.boolean_orthospace(5),
    "mo1": lambda: instances.mo_orthospace(1),
}


@functools.cache
def exact_model(name):
    """The exact-lane model of a named space; "<space>-tampered" adds k/7 to every third multiplier.

    Every exact model built from states has zero residuals; the tampered ones
    have nonzero residuals of every kind, so a wrong magnitude shows.
    "<space>-mixed" adds the mixture 1/3 g_0 + 2/3 g_1 to the vertex generators,
    so the pairing has a denominator other than 1.
    """
    base, _, variant = name.partition("-")
    if variant == "mixed":
        space = EXACT_SPACES[base]()
        poly = build_state_polytope(space)
        gens = list(poly.generators)
        synth = abstract_synthetic_space(space, gens + [statespace.mix_states(gens[0], gens[1], F(1, 3))])
        return build_product_model(synth, polytope_expansion_oracle(synth, poly))
    if variant == "tampered":
        model = exact_model(base)
        rng = np.random.default_rng(17)
        n = model.synth.n_states
        mults = np.stack([
            t + np.array(rng.integers(-3, 4, size=(n, n)), dtype=object) * F(1, 7) if e % 3 == 1 else t
            for e, t in enumerate(reference.values(model.multipliers))
        ])
        return dataclasses.replace(model, multipliers=synthesis._scaled(mults))
    space = EXACT_SPACES[base]()
    poly = build_state_polytope(space)
    synth = abstract_synthetic_space(space, poly.generators)
    return build_product_model(synth, polytope_expansion_oracle(synth, poly))


@functools.cache
def decided_reference(name):
    """reference.decided_laws of exact_model(name), or of float_model(name) for an int or None."""
    return reference.decided_laws(exact_model(name) if isinstance(name, str) else float_model(name))


EXACT_NAMES = ["bool3", "bool4", "bool5", "mo1", "bool3-mixed", "bool3-tampered", "bool4-tampered"]
LAW_FIELDS = ("jordan_identity", "square_norm", "square_sum_slack", "power_associativity", "unit_residual")


class TestExactSweepsMatchFractionReferences:
    """The integer-numerator sweeps against Fraction references: equal values, equal draws."""

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    @pytest.mark.parametrize("name", EXACT_NAMES)
    def test_laws(self, name, seed):
        assert_laws_match_reference(exact_model(name), decided_reference(name), 8, seed, 0)

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    @pytest.mark.parametrize("name", EXACT_NAMES)
    def test_well_definedness(self, name, seed):
        # the sum-triple sweep bounds every regrouping: 2 (|F| - 1) times its residual, with coefficients
        # |c| <= 2 on a family F, and exactly 0 when it is 0
        got = check_well_definedness(exact_model(name)).sum_triple_residual
        triple, regroups = reference.well_definedness(exact_model(name), 30, np.random.default_rng(seed))
        assert type(got) is F and got == triple
        assert regroups
        for residual, size in regroups:
            assert residual <= 2 * (size - 1) * triple

    @pytest.mark.parametrize("name", EXACT_NAMES)
    def test_worst_symmetry(self, name):
        model = exact_model(name)
        worst, arg = model.worst_symmetry()
        assert type(worst) is F
        assert (worst, arg) == reference.worst_symmetry(model)

    def test_tampered_residuals_are_nonzero(self):
        for name in ("bool3-tampered", "bool4-tampered"):
            model = exact_model(name)
            # the slack is a minimum over the pairs, and a pair with y = 0 gives 0 on any model: as many
            # pairs as synthesize draws by default
            laws = check_laws_on_reconstruction(model, pairs=60, rng=np.random.default_rng(0))
            assert min(getattr(laws, f) for f in LAW_FIELDS if f != "square_sum_slack") > 0, name
            assert laws.square_sum_slack != 0
            assert check_well_definedness(model).sum_triple_residual > 0, name
            assert model.worst_symmetry()[0] > 0, name

    @pytest.mark.parametrize("name, one_call", [
        ("bool3", False), ("bool4", False), ("mo1", False), ("bool3-mixed", False), ("bool3-mixed", True),
    ], ids=["bool3", "bool4", "mo1", "bool3-mixed", "bool3-mixed-one-call"])
    def test_compression_residuals(self, name, one_call):
        # the oracle's expansions give zero residuals; random ones give nonzero residuals of every kind;
        # in one call every event's expansions go over one common denominator
        synth = exact_model(name).synth
        rng = np.random.default_rng(3)
        requests, answers = [], []
        for e in synth.space.events():
            generators = [l for l in range(synth.n_states) if synth.pi(e)[l] != 0]
            requests.append((e, generators))
            answers.append([[F(int(rng.integers(-5, 6)), int(rng.integers(1, 9))) for _ in range(synth.n_states)]
                            for _ in generators])

        def compressions(requests, rows):
            """{e: (U_e, report)} of one build_compression call, the expansions given as one pair."""
            pair, reports = build_compression(
                synth, requests, synthesis._scaled(np.array(rows, dtype=object).reshape(len(rows), synth.n_states)))
            return {e: (u, reports[e]) for e, u in enumerate(reference.values(pair))}

        if one_call:
            # as build_product_model asks: only the events that some generator gives mass
            massive = [i for i, (_, generators) in enumerate(requests) if generators]
            got = compressions([requests[i] for i in massive], [row for i in massive for row in answers[i]])
        else:
            got = {e: compressions([(e, generators)], x)[e] for (e, generators), x in zip(requests, answers)}
        seen = []
        for (e, generators), expansions in zip(requests, answers):
            matrix, *want = reference.compression(synth, e, generators, expansions)
            u, report = got[e]
            assert np.array_equal(u, matrix)
            residuals = [report.idempotency, report.unit_image, report.invariance]
            assert all(type(v) is F for v in residuals)
            assert residuals == want
            seen.append(residuals)
        assert all(max(kind) > 0 for kind in zip(*seen))


class TestFloatSweepsMatchReferences:
    """The float-lane sweeps against the reference sweeps on float arrays: equal draws.

    family_seed None is the qubit, any other the qutrit family of that seed.
    """

    @pytest.mark.parametrize("seed", [0, 7, 123])
    @pytest.mark.parametrize("family_seed", [None, 5, 11])
    def test_laws(self, family_seed, seed):
        # the decided laws' reference contracts in another order: equal up to rounding
        assert_laws_match_reference(float_model(family_seed), decided_reference(family_seed), 20, seed, 1e-12)

    @pytest.mark.parametrize("family_seed", [None, 5, 11])
    def test_worst_symmetry(self, family_seed):
        model = float_model(family_seed)
        assert model.worst_symmetry() == reference.worst_symmetry(model)


class TestExtremePoints:
    def test_bool2_vertices_extreme(self, bool2_session):
        synth, _ = bool2_session
        for v in check_extreme_points(synth):
            assert v.extreme, v

    @pytest.mark.parametrize(
        "weights",
        [[(F(3, 4), F(1, 4)), (F(1, 4), F(3, 4))], [(F(1), F(0)), (F(1, 2), F(1, 2))],
         [(F(2, 3), F(1, 3)), (F(1, 3), F(2, 3)), (F(1, 2), F(1, 2))]],
        ids=["mixed", "vertex-and-mixture", "mixed-dependent"],
    )
    def test_atoms_of_mixed_generators_are_not_extreme(self, bool2, weights):
        # only 0 and the unit are extreme; each atom image moves both ways along
        # a direction that keeps every binding generator at equality
        synth = abstract_synthetic_space(bool2, [instances.boolean_state(w) for w in weights])
        verdicts = check_extreme_points(synth)
        assert [v.extreme for v in verdicts] == [True, False, False, True]
        for v in verdicts[1:3]:
            x, d = synth.pi(v.event), v.direction
            assert any(d != 0)
            assert all(d[l] == 0 for l in range(synth.n_states) if x[l] in (0, 1))
            synth.event_coords(d)  # an element of the model
            eps = min(min(x[l], 1 - x[l]) / abs(d[l]) for l in range(synth.n_states) if d[l] != 0)
            assert eps > 0
            for y in (x + eps * d, x - eps * d):
                assert all(0 <= val <= 1 for val in y)

    def test_float_lane_raises(self, qubit_synth):
        with pytest.raises(SynthesisError, match="exact lane"):
            check_extreme_points(qubit_synth)

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


def reference_matrix_extremes(elements, tol=FLOAT_TOL):
    """(extreme, direction) of each element, one spectral decomposition each: spectrum in {0, 1},
    else min(lam, 1 - lam) times the eigenprojection of the first eigenvalue inside (tol, 1 - tol)."""
    out = []
    for x in elements:
        spec = jordan.spectral_decomposition(x)
        middle = next(((i, lam) for i, lam in enumerate(spec.values) if tol < lam < 1 - tol), None)
        extreme = middle is None and all(abs(lam) <= tol or abs(lam - 1) <= tol for lam in spec.values)
        direction = None if middle is None else min(middle[1], 1 - middle[1]) * spec.frame[middle[0]]
        out.append((extreme, direction))
    return out


def extreme_families():
    """Projection families (a qubit, a qutrit, a quaternionic 3x3) and stubs with non-projections."""
    import types

    rng = np.random.default_rng(23)
    h_frame = jordan.random_frame("H", 3, rng)
    h_family = instances.instance_from_projections(
        "H", 3, [jordan.zero("H", 3), jordan.identity("H", 3)] + instances._frame_events(h_frame))
    o_frame = jordan.random_frame("O3", 3, rng)
    o_elements = instances._frame_events(o_frame) + [
        0.5 * o_frame[0] + 0.25 * o_frame[1],  # eigenvalues 0.5, 0.25, 0: two inside (0, 1)
        o_frame[0] + 2.0 * o_frame[2],  # eigenvalue 2: neither extreme nor with a direction
        jordan.random_hermitian("O3", 3, rng, 0.3) + 0.5 * jordan.identity("O3", 3),
    ]
    mixed = 0.2 * jordan.diag("C", [1, 0]) + 0.4 * jordan.identity("C", 2)
    return {
        "qubit": instances.qubit_instance(),
        "qutrit": instances.qutrit_instance(seed=11),
        "H": h_family,
        "O3": types.SimpleNamespace(tag="O3", n=3, elements=o_elements),
        "mixed-stub": types.SimpleNamespace(tag="C", n=2, elements=[mixed, jordan.identity("C", 2)]),
    }


class TestStackedExtremes:
    """check_matrix_extremes (one batched spectrum) against one spectral decomposition per event."""

    @pytest.mark.parametrize("name", ["qubit", "qutrit", "H", "O3", "mixed-stub"])
    def test_verdicts_and_directions_match_per_event_reference(self, name):
        family = extreme_families()[name]
        got = check_matrix_extremes(family)
        want = reference_matrix_extremes(family.elements)
        assert [v.event for v in got] == list(range(len(family.elements)))
        assert [v.extreme for v in got] == [extreme for extreme, _ in want]
        for v, (_, direction) in zip(got, want):
            assert (v.direction is None) == (direction is None)
            if direction is not None:
                assert np.array_equal(v.direction.coords, direction.coords)
        if name in ("O3", "mixed-stub"):
            assert any(d is not None for _, d in want) and not all(extreme for extreme, _ in want)

    def test_event_subset_in_given_order(self):
        family = extreme_families()["O3"]
        events = [len(family.elements) - 1, 0, len(family.elements) - 3]
        got = check_matrix_extremes(family, events=events)
        want = reference_matrix_extremes([family.elements[e] for e in events])
        assert [v.event for v in got] == events
        assert [v.extreme for v in got] == [extreme for extreme, _ in want]


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
        # midpoint of zero and unit lies in the hull: pi(zero) + pi(unit) over 2 dp
        pn, dp = synth.pairing
        mid = pn[:, synth.space.zero] + pn[:, synth.space.unit]
        assert hull_membership(synth, (mid, 2 * dp))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_density_samples_equal_fraction_path(self, seed):
        # the cross-polytope states of MO_k: their hull is smaller than the interval, so samples fall on
        # both sides of it
        counts = []
        for k in (2, 3, 4):
            synth = abstract_synthetic_space(instances.mo_orthospace(k), instances.cross_states(k))
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            rep = check_hull_density(synth, rng=rng)
            counts.append((rep.samples_member, rep.samples_outside))
            assert counts[-1] == reference.fraction_density_samples(synth, 25, ref_rng)
            # the same draws, in the same order
            assert rng.integers(2**62) == ref_rng.integers(2**62)
        assert sum(m for m, _ in counts) > 0 and sum(o for _, o in counts) > 0, counts

    def test_membership_on_a_stack(self, bool3_session):
        synth, _ = bool3_session
        pn, dp = synth.pairing
        # pi(unit) / 2 and pi(unit) inside, -pi(unit) / 2 and 2 pi(unit) outside, over 2 dp
        unit = pn[:, synth.space.unit]
        stack = np.stack([unit, 2 * unit, -unit, 4 * unit])
        assert hull_membership(synth, (stack, 2 * dp)) == [True, True, False, False]
        assert [reference.fraction_hull_membership(synth, [F(v, 2 * dp) for v in x]) for x in stack.tolist()] == [
            True, True, False, False]
        assert hull_membership(synth, (unit, 2 * dp)) is True
        # over a denominator that dp does not divide: MO_2's cross states hold halves (dp = 2), and
        # 2 pi(unit) as integers over 1 lies outside while pi(unit) lies inside
        synth = abstract_synthetic_space(instances.mo_orthospace(2), instances.cross_states(2))
        assert synth.pairing[1] == 2
        assert hull_membership(synth, (np.array([[2] * 4, [1] * 4], dtype=object), 1)) == [False, True]

    def test_density_report_exact(self, bool2_session, rng):
        synth, _ = bool2_session
        rep = check_hull_density(synth, samples=10, rng=rng)
        assert rep.lane == "exact"
        assert all(v.extreme for v in rep.extremes)
        assert rep.box is not None and rep.box.equal

    def test_density_report_matrix(self, qubit, qubit_synth, rng):
        rep = check_hull_density(qubit_synth, samples=10, rng=rng, instance=qubit)
        assert rep.lane == "matrix"
        assert all(v.extreme for v in rep.extremes)
        assert "limit" in rep.note

    def test_density_report_float_without_instance_raises(self, qubit_synth, rng):
        with pytest.raises(SynthesisError, match="exact lane or a matrix instance"):
            check_hull_density(qubit_synth, samples=10, rng=rng)


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


@functools.cache
def generated_session(name):
    """(synth, polytope) of a named generator set.

    "<space>": the vertices of the full state polytope.  "<space>-dependent":
    the vertices plus mixtures of them, over the polytope they generate.
    "bool3-pair": the mixture (g_0 + g_1)/2 and g_2 of B3 over the FULL
    polytope, so a conditional leaves the generator span.
    """
    space = {"bool3": orthospace.boolean_orthospace(3), "bool4": orthospace.boolean_orthospace(4),
             "mo3": instances.mo_orthospace(3)}[name.partition("-")[0]]
    poly = build_state_polytope(space)
    gens = list(poly.generators)
    if name.endswith("-dependent"):
        gens += [statespace.mix_states(gens[0], gens[1], F(1, 3)), statespace.mix_states(gens[1], gens[2], F(1, 2))]
        poly = statespace.generated_polytope(space, gens)
    elif name == "bool3-pair":
        gens = [statespace.mix_states(gens[0], gens[1], F(1, 2)), gens[2]]
    return abstract_synthetic_space(space, gens), poly


def oracle_outcome(oracle, synth):
    """The oracle's expansions on build_product_model's requests, as rows of Fractions in request order, or the
    message and blocking pair it raises."""
    massive = synth.pairing[0] != 0
    requests = [(e, np.flatnonzero(massive[:, e]).tolist()) for e in synth.space.events() if massive[:, e].any()]
    try:
        values, d = oracle(requests)
    except SynthesisError as exc:
        return str(exc), getattr(exc, "generator", None), getattr(exc, "event", None)
    assert type(d) is int and all(type(v) in (int, F) for v in values.flat)
    assert len(values) == sum(len(generators) for _, generators in requests)
    return [[F(v, d) for v in row] for row in values.tolist()]


GENERATED_NAMES = ["bool3", "bool4", "mo3", "bool3-dependent", "bool4-dependent", "mo3-dependent", "bool3-pair"]


class TestGeneratorExpansion:
    """generator_coords, the oracle and _span_representation against one solve_affine per expansion."""

    @pytest.mark.parametrize("name", GENERATED_NAMES)
    def test_oracle_matches_per_pair_solve(self, name):
        synth, poly = generated_session(name)
        got = oracle_outcome(polytope_expansion_oracle(synth, poly), synth)
        assert got == oracle_outcome(reference.expansion_oracle(synth, poly), synth)
        blocked = {"mo3": "is MULTIPLE", "mo3-dependent": "is MULTIPLE", "bool3-pair": "outside the generator span"}
        assert (name in blocked) == isinstance(got, tuple)
        if name in blocked:
            assert blocked[name] in got[0]

    @pytest.mark.parametrize("name", GENERATED_NAMES)
    def test_span_representation_matches_per_generator_solve(self, name):
        synth, _ = generated_session(name)
        ids, b_mat = synthesis._span_representation(synth)
        want_ids, want = reference.span_representation(synth)
        assert ids == want_ids
        assert b_mat.shape == want.shape and all(type(v) is F for v in b_mat.flat)
        assert np.array_equal(b_mat, want)

    @pytest.mark.parametrize("name", GENERATED_NAMES)
    def test_stack_rows_match_per_row_solve(self, name, rng):
        synth, _ = generated_session(name)
        pn, dp = synth.pairing
        k = np.array(rng.integers(-4, 5, size=(6, synth.n_states)), dtype=object)
        cn, d = synth.generator_coords((k @ pn, 5 * dp))
        assert cn.shape == (6, synth.n_states)
        for x, c in zip(k @ synth.pairing_values() / 5, cn):
            assert [F(v, d) for v in c] == reference.generator_expansion(synth, x)

    @pytest.mark.parametrize("name", ["bool3", "bool3-dependent", "mo3-dependent"])
    def test_outside_the_span_raises(self, name):
        synth, _ = generated_session(name)
        pn, dp = synth.pairing
        # one event indicator off the row span: more events than independent generators
        off = next(np.eye(synth.space.n_events, dtype=int)[j].astype(object) for j in synth.space.events()
                   if reference.generator_expansion(synth, [F(int(j == i)) for i in synth.space.events()]) is None)
        with pytest.raises(SynthesisError, match="outside the generator span"):
            synth.generator_coords((off, 1))
        # one row outside fails the whole stack
        with pytest.raises(SynthesisError, match="outside the generator span"):
            synth.generator_coords((np.stack([pn[0], off * dp, pn[-1]]), dp))


def reference_lueders_expansions(instance, e_id):
    """Per-generator Lüders oracle: {e, rho_l, e} / tr, one density at a time, expanded by pinv.

    Returns {generator: expansion} over the generators with mass on the event, in order, and
    the first generator whose conditional lies outside the density span (or None).
    """
    flat = np.stack([d.element.coords.reshape(-1) for d in instance.densities])
    pinv = np.linalg.pinv(flat.T)
    e = instance.elements[e_id]
    out, outside = {}, None
    for l, rho in enumerate(instance.densities):
        if rho.expect(e) <= MASS_THRESHOLD:
            continue
        comp = jordan.quadratic(e, rho.element)
        target = (comp * (1.0 / jordan.trace(comp))).coords.reshape(-1)
        c = pinv @ target
        if np.linalg.norm(flat.T @ c - target) > FLOAT_TOL and outside is None:
            outside = l
        out[l] = c
    return out, outside


def reference_float_compression(synth, e, generators, expansions):
    """(U_e, idempotency, unit image, invariance) of one event, each residual from per-event products."""
    pairing = synth.pairing_values()
    u = np.zeros((synth.n_states, synth.n_states))
    if generators:
        u[generators] = pairing[generators, e][:, None] * np.asarray(expansions)
    drift = 0.0
    for l in np.flatnonzero(np.abs(pairing[:, e] - 1.0) <= 1e-10):
        drift = max(drift, float(np.max(np.abs(u[l] @ pairing - pairing[l]))))
    unit_image = float(np.max(np.abs(u @ synth.pi(synth.space.unit) - synth.pi(e))))
    return u, float(np.max(np.abs(u @ u - u))), unit_image, drift


class TestStackedFloatCompressions:
    """build_compression's (E, n, n) stack against one event at a time."""

    @pytest.mark.parametrize("family_seed", [None, 11, 7671])
    @pytest.mark.parametrize("noise", [0.0, 0.1])
    def test_residuals_match_per_event_reference(self, family_seed, noise):
        # the oracle's own expansions (residuals near 0), then perturbed ones (residuals of every kind)
        inst = instances.qubit_instance() if family_seed is None else instances.qutrit_instance(seed=family_seed)
        synth = matrix_synthetic_space(inst)
        massive = ~(synth.pairing_values() <= MASS_THRESHOLD)
        requests = [(e, np.flatnonzero(massive[:, e]).tolist()) for e in synth.space.events() if massive[:, e].any()]
        rng = np.random.default_rng(5)
        values, d = lueders_expansion_oracle(synth, inst)(requests)
        expansions = values + noise * rng.normal(size=values.shape)
        comps, reports = build_compression(synth, requests, (expansions, d))
        split = np.split(expansions, np.cumsum([len(generators) for _, generators in requests])[:-1])
        answers = {e: (generators, x) for (e, generators), x in zip(requests, split)}
        assert sorted(reports) == list(synth.space.events())
        seen = []
        for e in synth.space.events():
            u, *want = reference_float_compression(synth, e, *answers.get(e, ([], [])))
            report = reports[e]
            assert np.array_equal(reference.values(comps)[e], u)
            residuals = [report.idempotency, report.unit_image, report.invariance]
            assert all(type(v) is float for v in residuals)
            assert max(abs(a - b) for a, b in zip(residuals, want)) <= 1e-12
            seen.append(want)
        assert all((max(kind) > 1e-3) == bool(noise) for kind in zip(*seen))


class TestStackedLuedersOracle:
    """Compressions from the stacked oracle against the per-generator reference."""

    @pytest.mark.parametrize("family_seed", [None, 11, 7671])
    def test_compressions_match_per_generator_reference(self, family_seed):
        inst = instances.qubit_instance() if family_seed is None else instances.qutrit_instance(seed=family_seed)
        synth = matrix_synthetic_space(inst)
        model = build_product_model(synth, lueders_expansion_oracle(synth, inst))
        for e_id in synth.space.events():
            expansions, outside = reference_lueders_expansions(inst, e_id)
            assert outside is None
            want = np.zeros((synth.n_states, synth.n_states))
            for l, c in expansions.items():
                want[l] = synth.pi(e_id)[l] * c
            got = reference.values(model.compressions)[e_id]
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_one_oracle_call_per_event_with_mass(self, qubit, bool3_session):
        # one call per model, whose requests list every event with mass, in order
        synth_q = matrix_synthetic_space(qubit)
        synth_b, poly = bool3_session
        for synth, oracle in (
            (synth_q, lueders_expansion_oracle(synth_q, qubit)),
            (synth_b, polytope_expansion_oracle(synth_b, poly)),
        ):
            calls = []

            def counted(requests):
                calls.append([(e, list(generators)) for e, generators in requests])
                return oracle(requests)

            build_product_model(synth, counted)
            assert len(calls) == 1
            massive = [e for e in synth.space.events() if np.max(synth.pi(e)) > MASS_THRESHOLD]
            assert [e for e, _ in calls[0]] == massive
            for e, generators in calls[0]:
                assert generators == [l for l in range(synth.n_states) if synth.pi(e)[l] > MASS_THRESHOLD]

    @pytest.mark.parametrize("drop", ["spanning", "last3"])
    def test_outside_span_names_first_generator(self, drop):
        base = instances.sparse_conditioning_instance()
        spanning = len(instances._spanning_densities(base.tag, base.n))
        keep = len(base.densities) - (spanning if drop == "spanning" else 3)
        inst = instances.MatrixInstance(base.tag, base.n, base.system, base.densities[:keep])
        expected = None
        for e_id in inst.space.events():
            _, outside = reference_lueders_expansions(inst, e_id)
            if outside is not None:
                expected = outside
                break
        assert expected is not None
        synth = matrix_synthetic_space(inst)
        with pytest.raises(SynthesisError) as err:
            build_product_model(synth, lueders_expansion_oracle(synth, inst))
        assert str(err.value) == f"conditional of generator {expected} lies outside the density span"

    def test_first_failing_generator_in_order_raises(self, monkeypatch):
        # a conditioning failure and a span failure in one call: whichever (event, generator)
        # comes first in the requests' order is the one that raises
        base = instances.sparse_conditioning_instance()
        spanning = len(instances._spanning_densities(base.tag, base.n))
        inst = instances.MatrixInstance(base.tag, base.n, base.system, base.densities[: len(base.densities) - spanning])
        synth = matrix_synthetic_space(inst)
        oracle = lueders_expansion_oracle(synth, inst)
        e_id, outside = next(
            (e, out) for e in inst.space.events() if (out := reference_lueders_expansions(inst, e)[1]) is not None
        )
        other = next(l for l in range(synth.n_states) if l != outside and synth.pi(e_id)[l] > MASS_THRESHOLD)
        unit = (inst.space.unit, [other])  # conditions cleanly on its own
        stack = lueders.condition_stack
        failing = {}

        def with_failure(coords, events):
            conds, errors = stack(coords, events)
            i, l = failing["at"]
            errors[i][l] = lueders.ConditioningUndefinedError("stand-in failure")
            return conds, errors

        monkeypatch.setattr(lueders, "condition_stack", with_failure)
        failing["at"] = (1, other)
        with pytest.raises(lueders.ConditioningUndefinedError, match="stand-in"):
            oracle([unit, (e_id, [other, outside])])
        with pytest.raises(SynthesisError, match=f"generator {outside} lies outside"):
            oracle([unit, (e_id, [outside, other])])
        # an earlier event's failure raises before a later event's
        failing["at"] = (0, other)
        with pytest.raises(lueders.ConditioningUndefinedError, match="stand-in"):
            oracle([unit, (e_id, [outside, other])])
        with pytest.raises(SynthesisError, match=f"generator {outside} lies outside"):
            oracle([(e_id, [outside, other]), unit])

    def test_first_failing_pair_over_request_orders(self, monkeypatch):
        # conditioning failures on some (event, generator) pairs and conditionals outside
        # the density span on others: over shuffled events and generator orders, the
        # call raises what the first pair in request order raises on its own
        base = instances.sparse_conditioning_instance()
        spanning = len(instances._spanning_densities(base.tag, base.n))
        inst = instances.MatrixInstance(base.tag, base.n, base.system, base.densities[: len(base.densities) - spanning])
        synth = matrix_synthetic_space(inst)
        oracle = lueders_expansion_oracle(synth, inst)
        event_of = {id(inst.elements[e]): e for e in inst.space.events()}
        live = {e: [l for l in range(synth.n_states) if synth.pi(e)[l] > MASS_THRESHOLD]
                for e in inst.space.events()}
        live = {e: ls for e, ls in live.items() if ls}
        rng = np.random.default_rng(26)
        failing = {(e, int(rng.choice(ls))) for e, ls in live.items() if rng.integers(3) == 0}
        stack = lueders.condition_stack

        def with_failures(coords, events):
            conds, errors = stack(coords, events)
            for i, ev in enumerate(events):
                for l in range(len(errors[i])):
                    if (event_of[id(ev)], l) in failing:
                        errors[i][l] = lueders.ConditioningUndefinedError(f"stand-in failure at {event_of[id(ev)]}, {l}")
            return conds, errors

        monkeypatch.setattr(lueders, "condition_stack", with_failures)

        def alone(e, l):
            """What the pair raises on its own, as (type, message), or None."""
            try:
                oracle([(e, [l])])
            except (SynthesisError, lueders.ConditioningUndefinedError) as err:
                return type(err), str(err)
            return None

        outcome = {(e, l): alone(e, l) for e, ls in live.items() for l in ls}
        kinds = {None if v is None else v[0] for v in outcome.values()}
        assert kinds == {None, SynthesisError, lueders.ConditioningUndefinedError}
        seen = set()
        for _ in range(40):
            events = [e for e in rng.permutation(list(live)) if rng.integers(2)]
            requests = [(int(e), [int(l) for l in rng.permutation(live[e])[: int(rng.integers(1, len(live[e]) + 1))]])
                        for e in events]
            expected = next((outcome[e, l] for e, ls in requests for l in ls if outcome[e, l] is not None), None)
            seen.add(None if expected is None else expected[0])
            if expected is None:
                assert len(oracle(requests)[0]) == sum(len(ls) for _, ls in requests)
            else:
                with pytest.raises(expected[0]) as err:
                    oracle(requests)
                assert str(err.value) == expected[1]
        assert seen == kinds

    @pytest.mark.parametrize("family_seed", [None, 11, 7671])
    def test_compare_with_lueders_blocks_equal_one_block(self, family_seed, monkeypatch):
        inst = instances.qubit_instance() if family_seed is None else instances.qutrit_instance(seed=family_seed)
        synth = matrix_synthetic_space(inst)
        model = build_product_model(synth, lueders_expansion_oracle(synth, inst))
        whole = compare_with_lueders(model, inst)
        basis = len(jordan.hermitian_basis(inst.tag, inst.n))
        for block in (basis, 2 * basis + 1):  # one and two events per block
            monkeypatch.setattr(orthospace, "_PAIR_BLOCK", block)
            assert compare_with_lueders(model, inst) == whole
        assert whole <= 1e-9

    @pytest.mark.parametrize("family_seed", [None, 11])
    def test_oracle_blocks_equal_one_block(self, family_seed, monkeypatch):
        inst = instances.qubit_instance() if family_seed is None else instances.qutrit_instance(seed=family_seed)
        synth = matrix_synthetic_space(inst)
        whole = build_product_model(synth, lueders_expansion_oracle(synth, inst))
        monkeypatch.setattr(orthospace, "_PAIR_BLOCK", 1)
        blocked = build_product_model(synth, lueders_expansion_oracle(synth, inst))
        assert np.array_equal(whole.compressions[0], blocked.compressions[0])
        assert whole.compressions[1] == blocked.compressions[1]


class TestBasisCompressions:
    """W_e, the compressions over basis_events that the model dump writes."""

    @pytest.mark.parametrize("atoms", [3, 4, 5])
    def test_boolean_matches_generator_form(self, atoms):
        # the pairing of a Boolean space's vertices is the identity on its atoms, so W_e is U_e
        space = orthospace.boolean_orthospace(atoms)
        poly = build_state_polytope(space)
        synth = abstract_synthetic_space(space, poly.generators)
        model = build_product_model(synth, polytope_expansion_oracle(synth, poly))
        basis = model.basis_compressions()
        assert basis.shape == (space.n_events, synth.dim, synth.dim)
        for e in space.events():
            assert all(type(v) is Fraction for v in basis[e].flat)
            assert np.array_equal(basis[e], reference.values(model.compressions)[e])

    @pytest.mark.parametrize("family_seed", [None, 5, 11])
    def test_float_lane_reproduces_the_images(self, family_seed):
        inst = instances.qubit_instance() if family_seed is None else instances.qutrit_instance(seed=family_seed)
        synth = matrix_synthetic_space(inst)
        model = build_product_model(synth, lueders_expansion_oracle(synth, inst))
        basis = model.basis_compressions()
        assert basis.shape == (synth.space.n_events, synth.dim, synth.dim)
        cols = basis_cols(synth)
        for e in synth.space.events():
            u = reference.values(model.compressions)[e]
            assert np.max(np.abs(cols @ basis[e] - u @ cols)) <= FLOAT_TOL
            assert np.max(np.abs(basis[e] @ basis[e] - basis[e])) <= FLOAT_TOL

    def test_image_outside_the_span_names_its_event(self):
        # compressing the generic rank-1 event by the rank-2 diagonal one (event 2) leaves the span
        inst = instances.sparse_conditioning_instance()
        synth = matrix_synthetic_space(inst)
        model = build_product_model(synth, lueders_expansion_oracle(synth, inst))
        cols = basis_cols(synth)

        def leaves_span(u):
            images = u @ cols
            return np.linalg.norm(cols @ np.linalg.lstsq(cols, images, rcond=None)[0] - images) > FLOAT_TOL

        assert [e for e in synth.space.events() if leaves_span(reference.values(model.compressions)[e])][0] == 2
        with pytest.raises(SynthesisError, match="^compression of event 2 maps A outside the event span$"):
            model.basis_compressions()
