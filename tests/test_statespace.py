"""Exact state polytopes, conditionals, and the uniqueness verdicts."""

import collections
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    equality_rows,
    fraction_box_rows,
    fraction_mix,
    fraction_mixture_identity,
    fraction_param,
    fraction_parametrization,
    fraction_pin,
    fraction_point,
    fraction_uc_full,
    integer_param,
    reference_is_state,
)
from ucpspace import exactlp, fileio, instances, linsolve, orthospace, statespace, synthesis
from ucpspace.errors import CapacityError, ConditioningUndefinedError, PreconditionError, UcpError
from ucpspace.statespace import (
    EMPTY,
    MULTIPLE,
    UNIQUE,
    State,
    build_state_polytope,
    check_conditional_uniqueness,
    check_mixture_identity,
    check_separation,
    generated_polytope,
    is_state,
    mix_states,
    unique_conditional,
)

F = Fraction

MO2_A, MO2_B = 1, 3  # atom event ids in the horizontal-sum layout


def uniform_mo2(mo2):
    # mass 1/2 on every proper event
    vals = [F(0)] * mo2.n_events
    vals[mo2.unit] = F(1)
    for e in range(mo2.n_events):
        if e not in (mo2.zero, mo2.unit):
            vals[e] = F(1, 2)
    return State(tuple(vals))


class TestIsState:
    def test_uniform_on_two_atoms(self, bool2):
        mu = State(tuple(F(v) for v in [0, F(1, 2), F(1, 2), 1]))
        ok, viol = is_state(bool2, mu)
        assert ok and viol == []

    def test_unit_mass_violation(self, bool2):
        mu = State(tuple(F(v) for v in [0, F(1, 2), F(1, 2), F(9, 10)]))
        ok, viol = is_state(bool2, mu)
        assert not ok
        assert any(v[0] == "unit" for v in viol)

    def test_boolean3_additive_extension(self, bool3):
        mu = instances.boolean_state([F(1, 5), F(3, 10), F(1, 2)])
        ok, viol = is_state(bool3, mu)
        assert ok, viol

    def test_additivity_violation(self, bool3):
        mu = instances.boolean_state([F(1, 5), F(3, 10), F(1, 2)])
        vals = list(mu.values)
        vals[3] = F(9, 10)  # should be 1/5 + 3/10
        ok, viol = is_state(bool3, State(tuple(vals)))
        assert not ok
        assert any(v[0] == "additivity" for v in viol)

    def test_range_violation(self, bool2):
        mu = State(tuple(F(v) for v in [0, 2, -1, 1]))
        ok, viol = is_state(bool2, mu)
        assert not ok
        assert any(v[0] == "range" for v in viol)

    def test_length_violation(self, bool2):
        ok, viol = is_state(bool2, State(tuple(F(v) for v in [0, 1])))
        assert not ok and viol[0][0] == "length"


class TestPolytope:
    def test_segment_two_vertices(self, bool2_poly):
        assert len(bool2_poly.generators) == 2
        assert len(bool2_poly._parametrization[1]) == 1

    def test_mo2_square(self, mo2_poly):
        assert len(mo2_poly.generators) == 4
        assert len(mo2_poly._parametrization[1]) == 2
        corners = {(g[MO2_A], g[MO2_B]) for g in mo2_poly.generators}
        assert corners == {(F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1))}

    def test_boolean3_simplex(self, bool3_poly):
        assert len(bool3_poly.generators) == 3
        assert len(bool3_poly._parametrization[1]) == 2

    def test_vertices_are_states(self, mo2, mo2_poly):
        for g in mo2_poly.generators:
            ok, _ = is_state(mo2, g)
            assert ok

    def test_vertices_enumerated_once_on_first_read(self, monkeypatch):
        calls = []
        enumerate_vertices = statespace._enumerate_vertices
        monkeypatch.setattr(statespace, "_enumerate_vertices",
                            lambda param: calls.append(1) or enumerate_vertices(param))
        poly = build_state_polytope(orthospace.boolean_orthospace(4))
        assert calls == []
        assert poly.generators is poly.generators and len(poly.generators) == 4
        assert calls == [1]

    def test_past_vertex_cap_read_is_refused(self, monkeypatch):
        # Boolean 9 atoms has 512 events and 9,332 state equations: building its polytope enumerates
        # nothing, and reading its vertices names the table cap
        def refuse(param):
            raise AssertionError("vertices enumerated")

        monkeypatch.setattr(statespace, "_enumerate_vertices", refuse)
        poly = build_state_polytope(orthospace.boolean_orthospace(9))
        with pytest.raises(CapacityError, match="512 events.*past the cap of 1000000 entries"):
            poly.generators



def reference_vertices(param):
    """The enumeration before double description, caps aside: the C(m, d) subset loop.

    Every d box rows with a unique solution inside the box give a vertex, in subset order,
    on the Fraction form of the integer parametrization.
    """
    param = fraction_param(param)
    ineq = None if param is None else fraction_box_rows(*param)
    if ineq is None:
        return []
    x0, basis = param
    n, d = len(x0), len(basis)
    if d == n:
        return [tuple(F((mask >> i) & 1) for i in range(n)) for mask in range(2**n)]
    if d == 0:
        return [tuple(x0)]
    seen, out = set(), []
    for combo in itertools.combinations(range(len(ineq)), d):
        sol = linsolve.solve_affine([list(ineq[i][0]) for i in combo], [ineq[i][1] for i in combo])
        if sol is None or sol[1]:
            continue
        t = sol[0]
        if any(sum(c * tv for c, tv in zip(coeffs, t)) > beta for coeffs, beta in ineq):
            continue
        x = tuple(fraction_point(x0, basis, t))
        if x not in seen:
            seen.add(x)
            out.append(x)
    return out


def reduction_path_vertices(param):
    """`_enumerate_vertices` for 0 < d < n with one row reduction per vertex, simple or not: the keys
    before simple vertices skipped the reduction."""
    moving = statespace._moving(param)
    if moving is None:
        return []
    x0, basis, den = param
    d = len(basis)
    index, row_of = {}, []
    for coeffs, v in moving:
        row_of.append(index.setdefault(statespace._primitive((*coeffs, v - den)), len(index)))
        row_of.append(index.setdefault(statespace._primitive((*(-c for c in coeffs), -v)), len(index)))
    rows = list(index) + [(0,) * d + (-1,)]
    keyed = []
    for y, z in statespace._double_description(rows, d + 1):
        tight = [k for k, j in enumerate(row_of) if z >> j & 1]
        picked = linsolve.independent_subset([rows[row_of[k]][:d] for k in tight])
        keyed.append(([tight[i] for i in picked], y))
    keyed.sort(key=lambda ky: ky[0])
    return [statespace._event_point(param, y[:d], y[d]) for _, y in keyed]


def fraction_vertices(param):
    """`_enumerate_vertices`, each (numerators, denominator) vertex as a tuple of Fractions."""
    return [tuple(F(v, den) for v in ints) for ints, den in statespace._enumerate_vertices(param)]


def _full_param(space):
    return build_state_polytope(space)._parametrization


def _box_span(space, monkeypatch, states=None):
    # the span that check_box_equality enumerates, recorded on its way in; the vertices' by default
    spans = []
    enumerate_vertices = statespace._enumerate_vertices

    def recording(param):
        spans.append(param)
        return enumerate_vertices(param)

    synth = synthesis.abstract_synthetic_space(space, states or build_state_polytope(space).generators)
    with monkeypatch.context() as m:
        m.setattr(statespace, "_enumerate_vertices", recording)
        synthesis.check_box_equality(synth)
    (span,) = spans
    return span


def _b4_pinned():
    # mu({a, b}) = 0: the box then forces x_a = x_b = 0, an equality no row states
    return build_state_polytope(orthospace.boolean_orthospace(4)).pin([0b0011], [F(0)])


def _b4_third():
    # mu({a, b}) = 1/3: a slice whose integer form has D' = 3
    return build_state_polytope(orthospace.boolean_orthospace(4)).pin([0b0011], [F(1, 3)])


def _b5_empty_case():
    # Boolean 5 atoms with a state whose conditional under the unit on these three
    # events is empty, though only an LP sees it (TestBoundPropagation.test_first_lp_decides_empty)
    space = orthospace.boolean_orthospace(5)
    vals = [F(0)] * space.n_events
    vals[space.unit], vals[0b00011], vals[0b00110], vals[0b01010] = F(1), F(3, 4), F(3, 4), F(1, 4)
    return space, State(tuple(vals)), [0b00011, 0b00110, 0b01010]


def _b5_empty_slice():
    # the slice of TestBoundPropagation.test_first_lp_decides_empty
    space, mu, family = _b5_empty_case()
    return build_state_polytope(space).pin(family, [mu[f] for f in family])


def _stateless():
    text = fileio.format_orthospace(orthospace.boolean_orthospace(2)).rstrip("\n") + "\northo 3 3\nsum 3 3 3\n"
    return _full_param(fileio.parse_orthospace(text))


class TestVertexEnumeration:
    """Double description against the subset loop it replaced: same vertices, same order."""

    @pytest.mark.parametrize(
        "make",
        [lambda k=k: _full_param(orthospace.boolean_orthospace(k)) for k in (2, 3, 4)]
        + [lambda k=k: _full_param(instances.mo_orthospace(k)) for k in (2, 3, 4, 5)]
        + [_b4_pinned, _b4_third, _b5_empty_slice, _stateless],
        ids=["bool2", "bool3", "bool4", "mo2", "mo3", "mo4", "mo5", "bool4-pinned", "bool4-third", "bool5-empty",
             "stateless"],
    )
    def test_same_vertices_as_subset_loop(self, make):
        param = make()
        assert fraction_vertices(param) == reference_vertices(param)

    def test_non_integral_forms(self, monkeypatch):
        # D' = 3 on the pinned Boolean 4 slice, whose vertices are in thirds, and D = 2 on the
        # span of MO_2's cross-polytope states, whose box vertices are 0/1 points
        third, span = _b4_third(), _box_span(instances.mo_orthospace(2), monkeypatch, instances.cross_states(2))
        assert third[2] == 3 and span[2] == 2
        for param in (third, span):
            assert fraction_vertices(param) == reference_vertices(param)
        assert any(v.denominator == 3 for x in fraction_vertices(third) for v in x)

    @pytest.mark.parametrize(
        "space",
        [orthospace.boolean_orthospace(2), orthospace.boolean_orthospace(3), instances.mo_orthospace(2),
         instances.mo_orthospace(3)],
        ids=["bool2", "bool3", "mo2", "mo3"],
    )
    def test_box_span_same_as_subset_loop(self, space, monkeypatch):
        span = _box_span(space, monkeypatch)
        assert fraction_vertices(span) == reference_vertices(span)

    def test_simple_vertex_keys_equal_the_row_reduction(self, monkeypatch):
        # a simple vertex takes its key without a row reduction; every ordering equals the one that
        # reduces the tight rows of each vertex, on degenerate (Boolean) and simple (MO) polytopes
        params = [_full_param(orthospace.boolean_orthospace(k)) for k in (3, 4, 5)]
        params += [_full_param(instances.mo_orthospace(k)) for k in (2, 3, 4, 5)]
        params += [_b4_third()] + [_box_span(space, monkeypatch) for space in (
            orthospace.boolean_orthospace(2), orthospace.boolean_orthospace(3), instances.mo_orthospace(2),
            instances.mo_orthospace(3))]
        params.append(_box_span(instances.mo_orthospace(2), monkeypatch, instances.cross_states(2)))
        reduced = 0
        for param in params:
            x0, basis, _ = param
            if 0 < len(basis) < len(x0):
                reduced += 1
                assert statespace._enumerate_vertices(param) == reduction_path_vertices(param)
        assert reduced >= 10

    @pytest.mark.parametrize("space, calls", [(instances.mo_orthospace(4), 1), (orthospace.boolean_orthospace(4), 5)],
                             ids=["mo4", "bool4"])
    def test_row_reductions_only_for_degenerate_vertices(self, space, calls, monkeypatch):
        # MO_4's 16 vertices are simple: the double description's first rows are the one reduction;
        # Boolean 4's 4 vertices are degenerate and take one each
        param = _full_param(space)
        seen = []
        independent_subset = linsolve.independent_subset

        def counting(vectors):
            seen.append(len(vectors))
            return independent_subset(vectors)

        monkeypatch.setattr(linsolve, "independent_subset", counting)
        verts = statespace._enumerate_vertices(param)
        monkeypatch.setattr(linsolve, "independent_subset", independent_subset)
        assert len(seen) == calls and len(verts) == {1: 16, 5: 4}[calls]
        assert verts == reduction_path_vertices(param)

    def test_special_cases(self):
        assert len(statespace._enumerate_vertices(_b4_pinned())) == 2
        assert statespace._enumerate_vertices(_b5_empty_slice()) == []
        assert _stateless() is None

    @pytest.mark.parametrize("space, count", [(orthospace.boolean_orthospace(5), 5), (instances.mo_orthospace(8), 256)],
                             ids=["bool5", "mo8"])
    def test_past_the_subset_loop(self, space, count):
        verts = fraction_vertices(_full_param(space))
        assert len(verts) == len(set(verts)) == count
        assert all(is_state(space, State(v))[0] for v in verts)

    def test_work_cap(self):
        # MO_11's pair scans sum to 1.4M ray visits, past the cap of 1M; MO_10's (351k) are not
        with pytest.raises(CapacityError, match="work"):
            statespace._enumerate_vertices(_full_param(instances.mo_orthospace(11)))

    def test_ray_cap(self, monkeypatch):
        param = _full_param(instances.mo_orthospace(3))
        monkeypatch.setattr(statespace, "_VERTEX_CAP", 3)
        with pytest.raises(CapacityError):
            statespace._enumerate_vertices(param)


FORM_SPACES = {
    **{f"bool{k}": functools.partial(orthospace.boolean_orthospace, k) for k in range(2, 6)},
    **{f"mo{k}": functools.partial(instances.mo_orthospace, k) for k in range(2, 6)},
    "coefficient-two": lambda: coefficient_two_space(),
}


def _assert_unit_free_columns(x0, basis, den):
    """Each direction is D (that is, 1) at its last nonzero event, which is 0 in X0 and in every other direction."""
    for k, bvec in enumerate(basis):
        f = max(i for i, v in enumerate(bvec) if v)
        assert bvec[f] == den
        assert x0[f] == 0
        assert all(other[f] == 0 for j, other in enumerate(basis) if j != k)


class TestParametrizationForm:
    """t_k is the event coordinate at direction k's free event, so the box LP may take t >= 0 as its LP form,
    and _uc_full's cost on that event bounds t_k."""

    @pytest.mark.parametrize("name", list(FORM_SPACES))
    def test_directions_are_unit_on_their_free_events(self, name):
        poly = build_state_polytope(FORM_SPACES[name]())
        space, gens = poly.space, poly.generators
        _assert_unit_free_columns(*poly._parametrization)
        rng = random.Random(name)
        for _ in range(25):
            # targets read off an affine combination of the vertices meet the state equations,
            # so the pins are consistent, though they may leave [0, 1]
            weights = [rng.randint(-2, 6) for _ in gens]
            weights[rng.randrange(len(gens))] += 1 - sum(weights)
            family = rng.sample(range(space.n_events), rng.randint(1, 4))
            targets = [sum(w * g[f] for w, g in zip(weights, gens)) for f in family]
            sub = poly.pin(family, targets)
            assert sub is not None, (family, targets)
            _assert_unit_free_columns(*sub)


class TestSeparation:
    def test_boolean2_full(self, bool2_poly):
        assert check_separation(bool2_poly).passed

    def test_mo2_full(self, mo2_poly):
        assert check_separation(mo2_poly).passed

    def test_mo2_uniform_only_fails(self, mo2):
        poly = generated_polytope(mo2, [uniform_mo2(mo2)])
        report = check_separation(poly)
        assert not report.passed
        e, f, _ = report.witness
        assert e != f

    def test_needs_generators(self):
        # MO_32 has 66 events and 2^32 vertices: its full polytope has no vertices to scan
        with pytest.raises(CapacityError, match="vertex enumeration.*cap"):
            check_separation(build_state_polytope(instances.mo_orthospace(32)))


class TestConditionalUniqueness:
    def test_boolean3_always_unique_classical(self, bool3, bool3_poly):
        mu = instances.boolean_state([F(1, 5), F(3, 10), F(1, 2)])
        for e in bool3.events():
            if mu[e] == 0:
                continue
            v = check_conditional_uniqueness(bool3_poly, mu, e)
            assert v.verdict == UNIQUE
            for f in bool3.events():
                assert v.conditional[f] == mu[f & e] / mu[e]

    def test_unit_conditioning_returns_state(self, bool3, bool3_poly):
        mu = instances.boolean_state([F(1, 5), F(3, 10), F(1, 2)])
        v = check_conditional_uniqueness(bool3_poly, mu, bool3.unit)
        assert v.verdict == UNIQUE
        assert v.conditional.values == mu.values

    def test_worked_conditional(self, bool3, bool3_poly):
        # atoms (a, b, c) with weights (1/5, 3/10, 1/2), conditioned on a + b
        mu = instances.boolean_state([F(1, 5), F(3, 10), F(1, 2)])
        cond = unique_conditional(bool3_poly, mu, 3)
        assert (cond[1], cond[2], cond[4]) == (F(2, 5), F(3, 5), F(0))

    def test_mo2_uniform_multiple(self, mo2, mo2_poly):
        v = check_conditional_uniqueness(mo2_poly, uniform_mo2(mo2), MO2_A)
        assert v.verdict == MULTIPLE
        nu1, nu2, event = v.witnesses
        assert nu1[event] != nu2[event]
        vals = {nu1[MO2_B], nu2[MO2_B]}
        assert vals == {F(0), F(1)}
        for nu in (nu1, nu2):
            ok, _ = is_state(mo2, nu)
            assert ok
            assert nu[MO2_A] == 1

    def test_mo2_slice_dimension(self, mo2, mo2_poly):
        v = check_conditional_uniqueness(mo2_poly, uniform_mo2(mo2), MO2_A)
        assert v.slice_dim == 1

    def test_boolean_slice_dimension_zero(self, bool3_poly):
        mu = instances.boolean_state([F(1, 5), F(3, 10), F(1, 2)])
        v = check_conditional_uniqueness(bool3_poly, mu, 3)
        assert v.slice_dim == 0

    def test_zero_mass_raises(self, bool3_poly):
        mu = instances.boolean_state([F(0), F(1, 2), F(1, 2)])
        with pytest.raises(ConditioningUndefinedError):
            check_conditional_uniqueness(bool3_poly, mu, 1)

    def test_generated_mode_agrees(self, bool3, bool3_poly):
        mu = instances.boolean_state([F(1, 5), F(3, 10), F(1, 2)])
        gen = generated_polytope(bool3, list(bool3_poly.generators))
        v = check_conditional_uniqueness(gen, mu, 3)
        assert v.verdict == UNIQUE
        assert v.conditional[1] == F(2, 5)

    def test_float_generators_raise_type_error(self, bool3_poly):
        # listed states are exact: a float one is refused where it is built, before any LP
        for g in bool3_poly.generators:
            with pytest.raises(TypeError, match="exact rational required, got float"):
                State(tuple(float(v) for v in g.values))

    def test_generated_mode_lp_count(self, bool3, bool3_poly, monkeypatch):
        # a min and a max LP per event and no separate feasibility LP: a UNIQUE
        # slice takes 2n solves, and an EMPTY one stops at the first min LP,
        # whose phase 1 certifies it
        calls = []
        solve = statespace.solve_lp
        monkeypatch.setattr(statespace, "solve_lp", lambda *a, **kw: calls.append(1) or solve(*a, **kw))
        mu = instances.boolean_state([F(1, 5), F(3, 10), F(1, 2)])
        v = check_conditional_uniqueness(generated_polytope(bool3, list(bool3_poly.generators)), mu, 3)
        assert v.verdict == UNIQUE and v.conditional[1] == F(2, 5)
        assert len(calls) == 2 * bool3.n_events
        calls.clear()
        two_atoms = instances.boolean_vertex_states(3)[:2]
        v = check_conditional_uniqueness(generated_polytope(bool3, two_atoms), mu, bool3.unit)
        assert v.verdict == EMPTY and exactlp.verify_farkas(v.certificate)
        assert len(calls) == 1

    def test_vertex_states_uc_boolean4(self, bool4, bool4_poly):
        for mu in bool4_poly.generators:
            for e in bool4.events():
                if mu[e] == 0:
                    continue
                v = check_conditional_uniqueness(bool4_poly, mu, e)
                assert v.verdict == UNIQUE


@pytest.fixture(scope="module")
def mo3_poly():
    return build_state_polytope(instances.mo_orthospace(3))


def _oracle_cases(space, poly):
    """Every vertex and two rational mixtures, each with every event of nonzero mass."""
    gens = poly.generators
    states = list(gens)
    states.append(mix_states(gens[0], gens[1], F(1, 3)))
    states.append(mix_states(gens[-1], mix_states(gens[0], gens[1], F(2, 5)), F(3, 7)))
    return [(mu, e) for mu in states for e in space.events() if e != space.zero and mu[e] != 0]


class TestBoundPropagation:
    """Propagation against the LP-only path, which a patched helper forces."""

    @pytest.mark.parametrize("name", ["bool3", "bool4", "mo3"])
    def test_same_verdicts_as_lp_only(self, name, request, monkeypatch):
        poly = request.getfixturevalue(f"{name}_poly")
        cases = _oracle_cases(poly.space, poly)
        with_prop = [check_conditional_uniqueness(poly, mu, e) for mu, e in cases]
        decided = [statespace._propagate(statespace.conditional_slice(poly, mu, e)) is not None for mu, e in cases]
        monkeypatch.setattr(statespace, "_propagate", lambda slc: None)
        # a fresh polytope: the first one would return the verdicts it has already decided
        fresh = build_state_polytope(poly.space)
        lp_only = [check_conditional_uniqueness(fresh, mu, e) for mu, e in cases]
        for (mu, e), a, b in zip(cases, with_prop, lp_only):
            assert (a.verdict, a.slice_dim, a.conditional) == (b.verdict, b.slice_dim, b.conditional), (mu, e)
            assert a.witnesses == b.witnesses
        if name == "mo3":
            assert {v.verdict for v in lp_only} == {UNIQUE, MULTIPLE}
        else:
            # every classical conditional is pinned, including slices of positive dimension
            assert all(decided)
            assert any(v.slice_dim > 0 for v in lp_only)

    def test_contradiction_still_gives_farkas_certificate(self, bool3, bool3_poly):
        # not a state: mu(a + b) = 1/2 = mu(a), so conditioning on a + b targets
        # x_a = 1, x_b = 1/2, x_{a+b} = 1, which additivity rejects; with the
        # family cut to {a, b} the rows are consistent but put 3/2 on a + b
        vals = [F(0)] * bool3.n_events
        vals[1], vals[2], vals[3], vals[bool3.unit] = F(1, 2), F(1, 4), F(1, 2), F(1)
        mu = State(tuple(vals))
        for family, dim in ((None, -1), ([1, 2], 0)):
            slc = statespace.conditional_slice(bool3_poly, mu, 3, family)
            assert statespace._propagate(slc) is None
            v = check_conditional_uniqueness(bool3_poly, mu, 3, family)
            assert v.verdict == EMPTY and v.slice_dim == dim
            assert exactlp.verify_farkas(v.certificate)

    def test_certificate_never_dropped(self, bool3, monkeypatch):
        # a certificate that does not verify is an error, not a missing certificate, for each
        # source of EMPTY: inconsistent pins, a fixed coordinate outside [0, 1], the first LP;
        # fresh polytopes, since the shared one has already decided the first two slices
        vals = [F(0)] * bool3.n_events
        vals[1], vals[2], vals[3], vals[bool3.unit] = F(1, 2), F(1, 4), F(1, 2), F(1)
        mu = State(tuple(vals))
        b5, mu5, family5 = _b5_empty_case()
        cases = [(build_state_polytope(bool3), mu, 3, None), (build_state_polytope(bool3), mu, 3, [1, 2]),
                 (build_state_polytope(b5), mu5, b5.unit, family5)]
        monkeypatch.setattr(statespace, "verify_farkas", lambda cert: False)
        for poly, m, e, family in cases:
            with pytest.raises(UcpError, match="no Farkas certificate"):
                check_conditional_uniqueness(poly, m, e, family)

    def test_first_lp_decides_empty(self, monkeypatch):
        # Boolean 5 atoms, events as atom bitmasks: x_{ab} = x_{bc} = 3/4 needs
        # x_b >= 1/2, while x_{bd} = 1/4 caps it at 1/4.  Every fixed coordinate
        # stays in [0, 1] and one direction is free, so only an LP sees it.
        space, mu, family = _b5_empty_case()
        poly = build_state_polytope(space)
        slc = statespace.conditional_slice(poly, mu, space.unit, family)
        assert statespace._propagate(slc) is None
        assert statespace._box_lp(poly.pin(family, slc.targets)) is not None
        costs = []
        solve = statespace.solve_lp

        def recording_solve(c, a_eq, b_eq, maximize=False):
            costs.append(c)
            return solve(c, a_eq, b_eq, maximize)

        monkeypatch.setattr(statespace, "solve_lp", recording_solve)
        v = check_conditional_uniqueness(poly, mu, space.unit, family)
        assert v.verdict == EMPTY and v.slice_dim == 1
        assert exactlp.verify_farkas(v.certificate)
        # the min LP of the one free coordinate reported it and certified it; no
        # feasibility LP ran first and no certificate LP after
        assert len(costs) == 1 and any(costs[0])

    def test_certificate_resting_on_free_coordinate_sign(self, monkeypatch):
        # the LP's t >= 0 is part of its system, so its Farkas vector may lean on it
        # rather than on the box row -x_f <= 0 at the free event f.  Add to the first
        # LP's certificate half its margin on the row x_f <= 1: still a valid Farkas
        # vector of that LP, with y.A < 0 on t.  EMPTY must still carry a certificate
        # in event coordinates.
        space, mu, family = _b5_empty_case()
        poly = build_state_polytope(space)
        x0, (bvec,), _ = poly.pin(family, [mu[f] for f in family])
        free = [i for i, v in enumerate(bvec) if v]
        up_row = 2 * free.index(free[-1])  # the box rows come in (up, down) pairs
        solve = statespace.solve_lp
        leaning = []

        def leaning_solve(c, a_eq, b_eq, maximize=False):
            res = solve(c, a_eq, b_eq, maximize)
            cert = res.farkas
            y = list(cert.y)
            assert cert.a_rows[up_row][0] == 1 and cert.b[up_row] == 1
            y[up_row] -= sum(yi * bi for yi, bi in zip(y, cert.b)) / 2
            cert = exactlp.Farkas(a_rows=cert.a_rows, b=cert.b, y=y)
            assert exactlp.verify_farkas(cert)
            leaning.append(sum(yi * row[0] for yi, row in zip(y, cert.a_rows)))
            return dataclasses.replace(res, farkas=cert)

        monkeypatch.setattr(statespace, "solve_lp", leaning_solve)
        v = check_conditional_uniqueness(poly, mu, space.unit, family)
        assert leaning[0] < 0
        assert v.verdict == EMPTY and v.slice_dim == 1
        assert exactlp.verify_farkas(v.certificate)

    def test_unique_without_vertices(self, bool4):
        poly = build_state_polytope(bool4)
        mu = instances.boolean_state([F(1, 10), F(2, 10), F(3, 10), F(4, 10)])
        v = check_conditional_uniqueness(poly, mu, 1)
        assert v.verdict == UNIQUE and v.slice_dim == 2
        assert v.conditional[1] == 1 and v.conditional[bool4.unit - 1] == 0


def propagated(slc):
    """statespace._propagate's pinned point (integers over D) as Fractions, or None."""
    pinned = statespace._propagate(slc)
    return None if pinned is None else [F(v, pinned[1]) for v in pinned[0]]


def fraction_propagate(slc):
    """The Fraction bound propagation the integer one replaced, as a reference; any row coefficients."""
    n = slc.polytope.space.n_events
    rows = [(tuple((j, a) for j, a in enumerate(r) if a != 0), rhs) for r, rhs in equality_rows(slc.polytope.space)]
    lo, hi = [F(0)] * n, [F(1)] * n
    for f, t in zip(slc.constraint_events, slc.targets):
        if not (lo[f] <= t <= hi[f]):
            return None
        lo[f] = hi[f] = t
    for _ in range(statespace._PROPAGATION_SWEEPS):
        changed = False
        for terms, b in rows:
            amin = amax = 0
            for j, a in terms:
                if a > 0:
                    amin, amax = amin + lo[j] * a, amax + hi[j] * a
                else:
                    amin, amax = amin + hi[j] * a, amax + lo[j] * a
            if amin > b or amax < b:
                return None
            if amin == amax:
                continue
            for j, a in terms:
                if a > 0:
                    new_lo, new_hi = (b - amax) / a + hi[j], (b - amin) / a + lo[j]
                else:
                    new_lo, new_hi = (b - amin) / a + hi[j], (b - amax) / a + lo[j]
                if new_lo > lo[j]:
                    lo[j], changed = new_lo, True
                if new_hi < hi[j]:
                    hi[j], changed = new_hi, True
                if lo[j] > hi[j]:
                    return None
        if not changed:
            return lo if lo == hi else None
    return None


def coefficient_two_space():
    """Boolean 3 with atom 1 orthogonal to itself and 1 + 1 = 6: the row 2 x_1 - x_6 = 0, event 1 listed twice."""
    text = fileio.format_orthospace(orthospace.boolean_orthospace(3)).rstrip("\n") + "\northo 1 1\nsum 1 1 6\n"
    return fileio.parse_orthospace(text)


PROPAGATION_SPACES = {
    "bool3": lambda: orthospace.boolean_orthospace(3),
    "bool4": lambda: orthospace.boolean_orthospace(4),
    "mo3": lambda: instances.mo_orthospace(3),
    "mo4": lambda: instances.mo_orthospace(4),
}


@functools.cache
def _propagation_poly(name):
    return build_state_polytope(PROPAGATION_SPACES[name]())


@st.composite
def propagation_slices(draw):
    """A conditional slice of a random state, or random pins; targets may leave [0, 1], denominators to 10^12."""
    poly = _propagation_poly(draw(st.sampled_from(sorted(PROPAGATION_SPACES))))
    space, gens = poly.space, poly.generators
    # small weights give coordinates of unlike denominators, large ones denominators near 10^7
    weights = draw(st.lists(st.one_of(st.integers(0, 6), st.integers(0, 10**6)), min_size=len(gens),
                            max_size=len(gens)).filter(any))
    mu = State(tuple(sum(F(w, sum(weights)) * g[i] for w, g in zip(weights, gens)) for i in range(space.n_events)))
    if draw(st.booleans()):
        e = draw(st.sampled_from([e for e in space.events() if mu[e] != 0]))
        return statespace.conditional_slice(poly, mu, e)
    events = draw(st.lists(st.integers(0, space.n_events - 1), unique=True, max_size=space.n_events))
    targets = []
    for f in events:
        kind = draw(st.sampled_from(["state", "state", "state", "shifted", "random"]))
        if kind == "state":
            targets.append(mu[f])
        elif kind == "shifted":
            targets.append(mu[f] + draw(st.sampled_from([F(-1), F(1), F(1, 10**12), F(-1, 10**12)])))
        else:
            targets.append(draw(st.fractions(min_value=-1, max_value=2, max_denominator=10**12)))
    return _pinned_slice(poly, events, targets)


def _pinned_slice(poly, events, targets):
    """The slice under the unit that pins each event at its target: masses (1, targets...) made coprime."""
    return statespace.ConditionalSlice(poly, poly.space.unit, events, statespace._primitive([1, *targets]))


class TestIntegerPropagation:
    """Integer bound propagation against the Fraction propagation it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(propagation_slices())
    def test_equals_fraction_propagation(self, slc):
        assert propagated(slc) == fraction_propagate(slc)

    @pytest.mark.parametrize("name", sorted(PROPAGATION_SPACES))
    def test_equals_fraction_propagation_on_oracle_cases(self, name):
        poly = _propagation_poly(name)
        slices = [statespace.conditional_slice(poly, mu, e) for mu, e in _oracle_cases(poly.space, poly)]
        results = [propagated(slc) for slc in slices]
        assert results == [fraction_propagate(slc) for slc in slices]
        # both outcomes occur: pinned points and slices left to the LPs
        assert any(r is None for r in results) == name.startswith("mo")
        assert any(r is not None for r in results)

    def test_targets_of_unlike_denominators(self, bool3_poly):
        # atoms 1/2 and 1/3 pin the third at 1/6: the unit of the integer bounds is 1/6,
        # a multiple of neither target's denominator
        slc = _pinned_slice(bool3_poly, [1, 2], [F(1, 2), F(1, 3)])
        point = propagated(slc)
        assert point == fraction_propagate(slc)
        assert point[1:5] == [F(1, 2), F(1, 3), F(5, 6), F(1, 6)]

    def test_row_with_coefficient_two_is_propagated(self, monkeypatch):
        space = coefficient_two_space()
        poly = build_state_polytope(space)
        assert ((1, 1), (6,), 0) in poly.rows
        cases = _oracle_cases(space, poly)
        verdicts = [check_conditional_uniqueness(poly, mu, e) for mu, e in cases]
        pinned = 0
        for (mu, e), v in zip(cases, verdicts):
            slc = statespace.conditional_slice(poly, mu, e)
            point, reference = propagated(slc), fraction_propagate(slc)
            # where the Fraction propagation pins a point, the verdict has the same one
            if reference is not None:
                assert v.verdict == UNIQUE and list(v.conditional.values) == reference
            # the relaxed row derives only sound bounds, so a point the integer propagation
            # pins is the Fraction propagation's point too
            if point is not None:
                pinned += 1
                assert point == reference
        assert pinned
        monkeypatch.setattr(statespace, "_propagate", lambda slc: None)
        fresh = build_state_polytope(space)
        assert [_fields(check_conditional_uniqueness(fresh, mu, e)) for mu, e in cases] == [_fields(v) for v in verdicts]
        assert {v.verdict for v in verdicts} == {UNIQUE, EMPTY}

    @pytest.mark.parametrize("space, some_open", [(orthospace.boolean_orthospace(4), False),
                                                  (instances.mo_orthospace(5), True)], ids=["bool4", "mo5"])
    def test_pin_only_where_propagation_leaves_the_slice_open(self, space, some_open, monkeypatch):
        # the slices of `verify --states full`: every vertex under every event of nonzero mass
        poly = build_state_polytope(space)
        pin, calls = statespace.StatePolytope.pin, []
        monkeypatch.setattr(statespace.StatePolytope, "pin", lambda self, *a: calls.append(a) or pin(self, *a))
        open_slices = set()
        for mu in poly.generators:
            for e in space.events():
                if e == space.zero or mu[e] == 0:
                    continue
                slc = statespace.conditional_slice(poly, mu, e)
                before = len(calls)
                v = check_conditional_uniqueness(poly, mu, e)
                if statespace._propagate(slc) is not None:
                    assert len(calls) == before
                else:
                    open_slices.add((e, tuple(slc.targets)))
                    assert len(calls) - before <= 1
                sub = pin(poly, slc.constraint_events, slc.targets)
                assert v.slice_dim == (-1 if sub is None else len(sub[1]))
        assert len(calls) == len(open_slices)
        assert bool(open_slices) == some_open


def _random_pins(poly, rng):
    """Pins on 1-4 random events, their targets read off an affine combination of the vertices.

    The weights are small or up to 10^12, so the targets' denominators reach 10^12 and the
    pinned form has D' > 1; negative weights may put a target outside [0, 1], one target may
    be shifted off the combination, and a quarter of the draws are random fractions instead.
    """
    space, gens = poly.space, poly.generators
    events = rng.sample(range(space.n_events), rng.randint(1, 4))
    if rng.random() < 0.25:
        return events, [F(rng.randint(-10**12, 2 * 10**12), rng.randint(1, 10**12)) for _ in events]
    low = rng.choice([0, 0, -2])
    weights = [rng.choice([rng.randint(low, 6), rng.randint(low, 10**12)]) for _ in gens]
    if not sum(weights):
        weights[0] += 1
    targets = [sum(F(w, sum(weights)) * g[f] for w, g in zip(weights, gens)) for f in events]
    if rng.random() < 0.2:
        targets[rng.randrange(len(targets))] += rng.choice([F(1, 10**12), F(-1, 3)])
    return events, targets


def _b5_lp_pins(rng):
    """x_ab >= 1/2, x_bc >= 1/2 and x_bd < 1/2 on four random atoms of Boolean 5: often empty, and only an LP sees it."""
    a, b, c, d = (1 << i for i in rng.sample(range(5), 4))
    return [a | b, b | c, b | d], [F(rng.randint(4, 8), 8), F(rng.randint(4, 8), 8), F(rng.randint(0, 3), 8)]


class TestIntegerSlices:
    """The FULL slice path on the integer form (X0, B, D) against the Fraction path it replaced."""

    @pytest.mark.parametrize("space", [orthospace.boolean_orthospace(k) for k in (3, 4, 5)]
                             + [instances.mo_orthospace(k) for k in (3, 4)], ids=["b3", "b4", "b5", "mo3", "mo4"])
    def test_pins_equal_fraction_reference(self, space):
        # the parametrization and each pin, solved over integers, are the Fraction solutions over the
        # lcm of their denominators: on the slices of every vertex and two mixtures, and on random pins
        poly = build_state_polytope(space)
        assert poly._parametrization == integer_param(fraction_parametrization(poly))
        slices = [statespace.conditional_slice(poly, mu, e) for mu, e in _oracle_cases(space, poly)]
        rng = random.Random(space.n_events)
        pins = [(slc.constraint_events, slc.targets) for slc in slices] + [_random_pins(poly, rng) for _ in range(40)]
        for events, values in pins:
            assert poly.pin(events, values) == integer_param(fraction_pin(poly, events, values)), (events, values)
        assert any(poly.pin(events, values) is None for events, values in pins)
        assert any(sub is not None and sub[2] > 1 for sub in (poly.pin(*pin) for pin in pins))

    def test_verdicts_equal_fraction_path(self):
        rng = random.Random(20261020)
        slices = []
        for name in sorted(PROPAGATION_SPACES):
            poly = _propagation_poly(name)
            gens = poly.generators
            for _ in range(60):
                if rng.random() < 0.25:
                    mu = mix_states(rng.choice(gens), mix_states(rng.choice(gens), rng.choice(gens), F(2, 7)),
                                    F(rng.randint(1, 10**12 - 1), 10**12))
                    slices.append(statespace.conditional_slice(
                        poly, mu, rng.choice([e for e in poly.space.events() if mu[e] != 0])))
                else:
                    slices.append(_pinned_slice(poly, *_random_pins(poly, rng)))
        b5 = build_state_polytope(orthospace.boolean_orthospace(5))
        slices += [_pinned_slice(b5, *_b5_lp_pins(rng)) for _ in range(12)]
        seen = collections.Counter()
        for slc in slices:
            v = statespace._uc_full(slc)
            assert _fields(v) == _fields(fraction_uc_full(slc, fraction_propagate(slc))), (slc.constraint_events,
                                                                                          slc.targets)
            sub = slc.polytope.pin(slc.constraint_events, slc.targets)
            if v.verdict == EMPTY:
                seen["pins" if sub is None else "fixed" if statespace._box_lp(sub) is None else "lp"] += 1
            elif statespace._propagate(slc) is None:
                seen[v.verdict, sub[2] > 1] += 1
        # every source of EMPTY, and MULTIPLE slices in the LP's hands with D' > 1
        assert min(seen["pins"], seen["fixed"], seen["lp"], seen[MULTIPLE, True]) >= 5, seen

    def test_horizontal_sum_verdicts_are_unchanged(self):
        # two Boolean 3 blocks glued: conditioning a mixed state on a two-atom event pins its block at
        # fractions and leaves the other free, so the slice goes to the LPs with D' > 1 and its MULTIPLE
        # witnesses are fractional; a change to the slice arithmetic keeps every verdict byte-identical
        space = orthospace.horizontal_sum([orthospace.boolean_orthospace(3)] * 2)
        poly = build_state_polytope(space)
        g = poly.generators
        states = [mix_states(g[0], mix_states(g[2], g[4], F(2, 5)), F(1, 3)),
                  mix_states(g[1], mix_states(g[5], g[8], F(3, 7)), F(5, 11)), mix_states(g[3], g[6], F(1, 10**6))]
        verdicts = [check_conditional_uniqueness(poly, mu, e) for mu in states for e in space.events()
                    if e != space.zero and mu[e] != 0]
        assert any(v.verdict == MULTIPLE and any(x.denominator > 1 for x in v.witnesses[0].values) for v in verdicts)

        def vals(nu):
            return [str(x) for x in nu.values]

        def text(v):
            wit = v.witnesses and [vals(v.witnesses[0]), vals(v.witnesses[1]), v.witnesses[2]]
            cert = v.certificate and [[[str(x) for x in r] for r in v.certificate.a_rows],
                                      [str(x) for x in v.certificate.b], [str(x) for x in v.certificate.y]]
            return [v.verdict, v.conditional and vals(v.conditional), wit, v.slice_dim, cert]

        digest = hashlib.sha256(json.dumps([text(v) for v in verdicts]).encode()).hexdigest()
        assert digest == "e4299f32fa06888362d53d64f38f0a93200cc8517b5ac2cc689f6b0c32a4635c"

    def test_generated_verdicts_are_unchanged(self):
        # hulls of random vertex subsets, each conditioning a mixture of two vertices drawn mostly from outside
        # the subset: every verdict, its witnesses and its Farkas certificate stay byte-identical
        rng = random.Random(20261020)
        verdicts = []
        for space in (orthospace.boolean_orthospace(3), orthospace.boolean_orthospace(4),
                      instances.mo_orthospace(3), instances.mo_orthospace(4)):
            gens = build_state_polytope(space).generators
            for _ in range(70):
                subset = rng.sample(gens, rng.randint(1, len(gens)))
                pool = subset if rng.random() < 0.2 else gens
                mu = mix_states(rng.choice(pool), rng.choice(pool), F(rng.randint(1, 6), 7))
                e = rng.choice([e for e in space.events() if mu[e] != 0])
                verdicts.append(check_conditional_uniqueness(generated_polytope(space, subset), mu, e))
        seen = collections.Counter(v.verdict for v in verdicts)
        assert min(seen[EMPTY], seen[UNIQUE], seen[MULTIPLE]) >= 50, seen

        def vals(nu):
            return [str(x) for x in nu.values]

        def text(v):
            wit = v.witnesses and [vals(v.witnesses[0]), vals(v.witnesses[1]), v.witnesses[2]]
            cert = v.certificate and [[[str(x) for x in r] for r in v.certificate.a_rows],
                                      [str(x) for x in v.certificate.b], [str(x) for x in v.certificate.y]]
            return [v.verdict, v.conditional and vals(v.conditional), wit, v.slice_dim, cert]

        digest = hashlib.sha256(json.dumps([text(v) for v in verdicts]).encode()).hexdigest()
        assert digest == "33e79730e655e80f820bf69831072c55eb084eceb8321f986d7d787c8471568a"


ROW_SPACES = {
    **{f"bool{k}": functools.partial(orthospace.boolean_orthospace, k) for k in range(1, 7)},
    **{f"mo{k}": functools.partial(instances.mo_orthospace, k) for k in range(1, 9)},
    "qubit": lambda: instances.qubit_instance().space,
    "qutrit": lambda: instances.qutrit_instance().space,
    "coefficient-two": coefficient_two_space,
}

MEMBERSHIP_SPACES = {**PROPAGATION_SPACES, "coefficient-two": coefficient_two_space}


@functools.cache
def _membership_poly(name):
    return build_state_polytope(MEMBERSHIP_SPACES[name]())


@st.composite
def points_near_slices(draw):
    """A slice with targets read off an affine combination mu of the vertices, and a point near mu.

    mu is a state, or, with a negative weight, may meet every state equation and
    leave [0, 1].  The point is mu, mu with one coordinate off by one unit of its
    common denominator or by 10^-12, with one coordinate outside [0, 1], or with
    one random coordinate of denominator up to 10^12; a target may be off too.
    """
    poly = _membership_poly(draw(st.sampled_from(sorted(MEMBERSHIP_SPACES))))
    space, gens = poly.space, poly.generators
    weights = draw(st.lists(st.one_of(st.integers(0, 6), st.integers(0, 10**12), st.integers(-2, 0)),
                            min_size=len(gens), max_size=len(gens)).filter(sum))
    mu = [sum(F(w, sum(weights)) * g[i] for w, g in zip(weights, gens)) for i in range(space.n_events)]
    events = draw(st.lists(st.integers(0, space.n_events - 1), unique=True, max_size=4))
    targets = [mu[f] for f in events]
    if events and draw(st.booleans()):
        targets[draw(st.integers(0, len(events) - 1))] += draw(st.sampled_from([F(1, 10**12), F(-1, 3)]))
    nu = list(mu)
    i = draw(st.integers(0, space.n_events - 1))
    kind = draw(st.sampled_from(["state", "unit", "tiny", "outside", "random"]))
    if kind == "unit":
        nu[i] += draw(st.sampled_from([1, -1])) * F(1, math.lcm(*(v.denominator for v in mu)))
    elif kind == "tiny":
        nu[i] += draw(st.sampled_from([F(1, 10**12), F(-1, 10**12)]))
    elif kind == "outside":
        nu[i] = draw(st.sampled_from([F(-1, 2), F(3, 2), F(-1, 10**12), 1 + F(1, 10**12)]))
    elif kind == "random":
        nu[i] = draw(st.fractions(min_value=-1, max_value=2, max_denominator=10**12))
    return _pinned_slice(poly, events, targets), State(tuple(nu))


class TestStateRows:
    """The integer state equations against the dense Fraction rows they replaced."""

    @pytest.mark.parametrize("name", list(ROW_SPACES))
    def test_dense_rows_equal_reference(self, name):
        space = ROW_SPACES[name]()
        table = statespace.state_table(space)
        dense = [(tuple(row), b) for row, b in zip(table.dense(space.n_events).tolist(), table.rhs.tolist())]
        assert dense == equality_rows(space)

    @settings(max_examples=300, deadline=None)
    @given(points_near_slices())
    def test_membership_equals_is_state_and_targets(self, case):
        slc, nu = case
        expected = reference_is_state(slc.polytope.space, nu)[0] and all(
            nu[f] == t for f, t in zip(slc.constraint_events, slc.targets))
        assert slc.satisfied_by(nu) == expected

    @settings(max_examples=300, deadline=None)
    @given(points_near_slices())
    def test_is_state_reports_each_violated_equation_once(self, case):
        # the pair walk reports a violation per pair; is_state keeps the first pair of each equation
        space, nu = case[0].polytope.space, case[1]
        ok, viol = is_state(space, nu)
        want_ok, want = reference_is_state(space, nu)
        assert ok == want_ok and viol[:1] == want[:1]
        first = {}
        for v in want:
            if v[0] == "additivity":
                e, f, s = v[1], v[2], space.sum_of(v[1], v[2])
                row = [0] * space.n_events
                row[e] += 1
                row[f] += 1
                row[s] -= 1
                first.setdefault(tuple(row), v)
        assert viol == [v for v in want if v[0] != "additivity"] + list(first.values())

    def test_coefficient_two_equation_violated_once(self):
        # 2 x_1 - x_6 = 0 and the zero's x_0 = 0, which the pairs (0, f) all give, each fail once
        space = coefficient_two_space()
        vals = list(instances.boolean_state([F(1, 4), F(1, 4), F(1, 2)]).values)
        vals[0] = F(1, 2)
        ok, viol = is_state(space, State(tuple(vals)))
        assert not ok
        assert viol == [("additivity", 0, 0, F(1), F(1, 2)), ("additivity", 1, 1, F(1, 2), F(3, 4))]
        assert len(reference_is_state(space, State(tuple(vals)))[1]) > len(viol)


STACK_SPACES = {
    **{f"bool{k}": functools.partial(orthospace.boolean_orthospace, k) for k in range(3, 7)},
    "mo3": functools.partial(instances.mo_orthospace, 3),
    "coefficient-two": coefficient_two_space,
}


def _mixed_stack(space, seed):
    """Affine combinations of the vertices, each kept or broken in one of five ways, and one state too short."""
    gens = build_state_polytope(space).generators
    n, rng = space.n_events, random.Random(seed)
    stack = []
    for i in range(30):
        weights = [rng.choice([0, 1, 2, 5, 10**9]) for _ in gens]
        weights[rng.randrange(len(gens))] += rng.choice([1, -1]) if i % 3 == 2 else 1
        total = sum(weights) or 1
        vals = [sum(F(w, total) * g[j] for w, g in zip(weights, gens)) for j in range(n)]
        e = rng.randrange(n)
        kind = i % 6
        if kind == 1:
            vals[e] += F(1, rng.choice([3, 7, 10**12]))
        elif kind == 2:
            vals[space.unit] = F(rng.randrange(2, 9), 9)
        elif kind == 3:
            vals[e] = rng.choice([F(-1, 5), F(6, 5), 1 + F(1, 10**12)])
        elif kind == 4:
            vals[e], vals[(e + 1) % n] = vals[(e + 1) % n], vals[e]
        stack.append(State(tuple(vals)))
    stack.insert(rng.randrange(len(stack)), State(tuple(stack[0].values[:-1])))
    return stack


class TestStackedCheck:
    """One stacked residual check over the state table against the n^2 pair walk of the reference."""

    @pytest.mark.parametrize("name", list(STACK_SPACES))
    def test_stack_gives_each_row_the_reference_first_violation(self, name):
        space = STACK_SPACES[name]()
        stack = _mixed_stack(space, seed=len(name))
        got = statespace.check_states(space, stack)
        want = [reference_is_state(space, nu) for nu in stack]
        assert [(ok, viol[:1]) for ok, viol in got] == [(ok, viol[:1]) for ok, viol in want]
        # valid and invalid rows are mixed, and a row's verdict does not depend on its neighbours
        assert {ok for ok, _ in got} == {True, False}
        assert got == [is_state(space, nu) for nu in stack]

    def test_float_rows_are_checked_within_the_tolerance(self, bool3_poly):
        table = statespace.state_table(bool3_poly.space)
        rows = np.array([[float(v) for v in g.values] for g in bool3_poly.generators])
        rows[1] += 1e-9
        rows[2, 3] += 1e-7
        out, broken = statespace.state_failures(table, rows, 1.0, synthesis.FLOAT_TOL)
        assert out.any(axis=1).tolist() == [False, False, False]
        assert broken.any(axis=1).tolist() == [False, False, True]

    def test_b6_membership_equals_reference(self):
        poly = build_state_polytope(orthospace.boolean_orthospace(6))
        space, rng = poly.space, random.Random(6)
        gens = poly.generators
        checked = 0
        for _ in range(12):
            weights = [rng.randrange(1, 9) for _ in gens]
            mu = State(tuple(sum(F(w, sum(weights)) * g[j] for w, g in zip(weights, gens))
                             for j in range(space.n_events)))
            e = rng.choice([e for e in space.events() if mu[e] != 0 and e != space.zero])
            slc = statespace.conditional_slice(poly, mu, e)
            nu = list(check_conditional_uniqueness(poly, mu, e).conditional.values)
            f = rng.randrange(space.n_events)
            for shift in (0, F(1, 10**12), F(-1, 3)):
                point = State(tuple(v + shift if j == f else v for j, v in enumerate(nu)))
                want = reference_is_state(space, point)[0] and all(
                    point[g] == t for g, t in zip(slc.constraint_events, slc.targets))
                assert slc.satisfied_by(point) == want
                checked += want
        assert checked == 12


def _fields(v):
    return v.verdict, v.conditional, v.witnesses, v.slice_dim, v.certificate


class TestSliceCache:
    """A polytope decides each distinct conditional slice once and hands the verdict to every caller."""

    @pytest.mark.parametrize("space", [orthospace.boolean_orthospace(4), instances.mo_orthospace(3),
                                       instances.mo_orthospace(5)], ids=["bool4", "mo3", "mo5"])
    def test_cached_verdict_equals_fresh(self, space):
        poly = build_state_polytope(space)
        cases = _oracle_cases(space, poly)
        cached = [check_conditional_uniqueness(poly, mu, e) for mu, e in cases]
        fresh = build_state_polytope(space)
        for (mu, e), v in zip(cases, cached):
            assert _fields(v) == _fields(statespace._uc_full(statespace.conditional_slice(fresh, mu, e))), (mu, e)
        # some slices repeat (every state conditioned on an atom of a Boolean space has the same one),
        # so some of those verdicts came from the cache
        assert len({id(v) for v in cached}) < len(cases)

    def test_same_frozen_object(self, mo2, mo2_poly):
        v = check_conditional_uniqueness(mo2_poly, uniform_mo2(mo2), MO2_A)
        before = _fields(v)
        assert check_conditional_uniqueness(mo2_poly, uniform_mo2(mo2), MO2_A) is v
        assert _fields(v) == before and v.verdict == MULTIPLE
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.verdict = UNIQUE
        assert _fields(v) == before

    @pytest.mark.parametrize("k, pairs, slices", [(4, 80, 24), (5, 192, 42), (6, 448, 76)])
    def test_one_decision_per_slice(self, k, pairs, slices, monkeypatch):
        space = instances.mo_orthospace(k)
        poly = build_state_polytope(space)
        decided = []
        uc_full = statespace._uc_full

        def counting_uc_full(slc):
            decided.append(slc)
            return uc_full(slc)

        monkeypatch.setattr(statespace, "_uc_full", counting_uc_full)
        swept = [(mu, e) for mu in poly.generators for e in space.events() if e != space.zero and mu[e] != 0]
        for mu, e in swept:
            check_conditional_uniqueness(poly, mu, e)
        assert (len(swept), len(decided)) == (pairs, slices)
        assert len({(s.event, tuple(s.constraint_events), tuple(s.targets)) for s in decided}) == slices

    @pytest.mark.parametrize("space", [instances.mo_orthospace(4), orthospace.boolean_orthospace(4)],
                             ids=["mo4", "bool4"])
    def test_one_pin_rank_per_constraint_family(self, space, monkeypatch):
        # slice_dim of a propagated slice depends on its constrained events only: one rank each
        poly = build_state_polytope(space)
        gens = poly.generators
        states = list(gens) + [statespace.mix_states(a, b, F(1, 3)) for a, b in zip(gens, gens[1:])]
        swept = [(mu, e) for mu in states for e in space.events() if e != space.zero and mu[e] != 0]
        slices = [statespace.conditional_slice(poly, mu, e) for mu, e in swept]
        propagated = [slc for slc in slices if statespace._propagate(slc) is not None]
        families = {tuple(slc.constraint_events) for slc in propagated}
        calls = []
        rank = linsolve.rank

        def counting_rank(rows):
            calls.append(len(rows))
            return rank(rows)

        monkeypatch.setattr(linsolve, "rank", counting_rank)
        verdicts = [check_conditional_uniqueness(poly, mu, e) for mu, e in swept]
        monkeypatch.setattr(linsolve, "rank", rank)
        assert len(calls) == len(families) == len(poly._pin_ranks)
        assert len(families) < len({(s.event, tuple(s.constraint_events), tuple(s.targets)) for s in propagated})
        # every slice_dim equals the nullity of the slice rows, computed fresh by pinning the targets
        for slc, v in zip(slices, verdicts):
            assert v.slice_dim == len(poly.pin(slc.constraint_events, slc.targets)[1]), slc


class TestMixture:
    def test_identical_components(self, bool3_poly):
        mu = instances.boolean_state([F(1, 5), F(3, 10), F(1, 2)])
        rep = check_mixture_identity(bool3_poly, mu, mu, F(1, 2), 3)
        assert rep.passed
        assert rep.lhs.values == rep.rhs.values

    def test_worked_mixture(self, bool3_poly):
        mu = instances.boolean_state([F(1, 5), F(3, 10), F(1, 2)])
        nu = instances.boolean_state([F(1, 2), F(1, 4), F(1, 4)])
        rep = check_mixture_identity(bool3_poly, mu, nu, F(1, 2), 3)
        assert rep.passed

    def test_zero_mass_component(self, bool3_poly):
        mu = instances.boolean_state([F(1, 5), F(3, 10), F(1, 2)])
        nu = instances.boolean_state([F(0), F(0), F(1)])  # nu(a+b) = 0
        rep = check_mixture_identity(bool3_poly, mu, nu, F(1, 2), 3)
        assert rep.passed
        cond_mu = unique_conditional(bool3_poly, mu, 3)
        assert rep.lhs.values == cond_mu.values

    def test_bad_weight(self, bool3_poly):
        mu = instances.boolean_state([F(1, 5), F(3, 10), F(1, 2)])
        with pytest.raises(PreconditionError):
            check_mixture_identity(bool3_poly, mu, mu, F(3, 2), 3)

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(st.integers(0, 8), min_size=3, max_size=3).filter(
            lambda w: sum(w) > 0
        ),
        weights2=st.lists(st.integers(0, 8), min_size=3, max_size=3).filter(
            lambda w: sum(w) > 0
        ),
        s_num=st.integers(1, 3),
        e=st.integers(1, 7),
    )
    def test_mixture_random(self, bool3_poly, weights, weights2, s_num, e):
        tot1, tot2 = sum(weights), sum(weights2)
        mu = instances.boolean_state([F(w, tot1) for w in weights])
        nu = instances.boolean_state([F(w, tot2) for w in weights2])
        s = F(s_num, 4)
        mix = mix_states(mu, nu, s)
        if mix[e] == 0:
            return
        rep = check_mixture_identity(bool3_poly, mu, nu, s, e)
        assert rep.passed


def test_mix_states_convexity():
    a = State(tuple(F(v) for v in [0, 1]))
    b = State(tuple(F(v) for v in [1, 0]))
    m = mix_states(a, b, F(1, 4))
    assert m.values == (F(3, 4), F(1, 4))


def test_mix_states_refuses_states_of_different_lengths():
    b3, b2 = (build_state_polytope(orthospace.boolean_orthospace(k)).generators[0] for k in (3, 2))
    with pytest.raises(PreconditionError, match="8 and 4 events"):
        mix_states(b3, b2, F(1, 2))
    with pytest.raises(PreconditionError, match="4 and 8 events"):
        mix_states(b2, b3, F(1, 2))


def _outcome(fn, *args):
    """fn(*args), or the type of the UcpError it raises."""
    try:
        return fn(*args)
    except UcpError as exc:
        return type(exc)


class TestIntegerStates:
    """State values in one integer form: mixing and the mixture identity against the Fraction path."""

    @pytest.mark.parametrize("name", ["bool3", "bool4", "mo3"])
    def test_mixing_equals_fraction_path(self, name):
        rng = random.Random(20261021)
        space = {"bool3": orthospace.boolean_orthospace(3), "bool4": orthospace.boolean_orthospace(4),
                 "mo3": instances.mo_orthospace(3)}[name]
        poly = build_state_polytope(space)
        states = list(poly.generators)
        weights = [F(1, 10**6), F(10**6 - 1, 10**6), F(1, 2)]
        outcomes = collections.Counter()
        for _ in range(120):
            mu, nu = rng.choice(states), rng.choice(states)
            s = rng.choice(weights + [F(rng.randint(1, 10**12 - 1), 10**12), F(rng.randint(1, 3), 4)])
            mix = mix_states(mu, nu, s)
            assert mix.values == fraction_mix(mu, nu, s).values
            # the kept integer form is the one the values give
            assert mix.integers == State(mix.values).integers
            e = rng.choice([e for e in space.events() if e != space.zero])
            got = _outcome(check_mixture_identity, poly, mu, nu, s, e)
            want = _outcome(fraction_mixture_identity, poly, mu, nu, s, e)
            if isinstance(want, tuple):
                assert (got.passed, got.mixture, got.lhs, got.rhs) == want
                assert got.rhs.integers == State(got.rhs.values).integers
                outcomes["checked", got.passed] += 1
            else:
                assert got is want
                outcomes[want] += 1
            if rng.random() < 0.5:
                # mixtures of mixtures carry denominators up to 10^24 and more
                states.append(mix)
        assert max(q for st in states for q in (v.denominator for v in st.values)) >= 10**12
        assert outcomes["checked", True] >= 10 and not outcomes["checked", False], outcomes
        assert outcomes[ConditioningUndefinedError] >= 1, outcomes
        if name == "mo3":
            # MO_3 has MULTIPLE conditionals, which unique_conditional refuses
            assert outcomes[PreconditionError] >= 1, outcomes

    def test_slice_keys_equal_fraction_primitive(self):
        # over random mixtures, with the default family and a custom one: the slice key is the primitive
        # of the masses, which the slice holds; mu(e) > 0 is the lcm of the target denominators, and the
        # targets are mu(f)/mu(e)
        rng, custom = random.Random(7), 0
        for name in ("bool3", "bool4", "bool5", "mo3", "mo4"):
            poly = build_state_polytope(FORM_SPACES[name]())
            space, gens = poly.space, poly.generators
            for _ in range(40):
                mu = mix_states(rng.choice(gens), mix_states(rng.choice(gens), rng.choice(gens), F(3, 10**6)),
                                F(rng.randint(1, 10**12 - 1), 10**12))
                e = rng.choice([e for e in space.events() if mu[e] != 0])
                for family in (None, rng.sample(range(space.n_events), rng.randint(1, 4))):
                    masses, fs = statespace._conditioning(poly, mu, e, family)
                    assert masses == statespace._primitive([mu[e], *(mu[f] for f in fs)])
                    slc = statespace.conditional_slice(poly, mu, e, family)
                    assert slc.masses == masses and math.gcd(*masses) == 1 and masses[0] > 0
                    assert masses[0] == math.lcm(*(t.denominator for t in slc.targets))
                    assert slc.targets == [mu[f] / mu[e] for f in fs]
                    custom += family is not None and any(t.denominator > 1 for t in slc.targets)
        assert custom >= 10

    def test_integer_form(self):
        mu = State((F(0), F(1, 6), F(5, 6), 1))
        assert mu.integers == ((0, 1, 5, 6), 6)
        assert State.from_integers([0, 2, 10, 12], 12).integers == ((0, 1, 5, 6), 6)
        assert State.from_integers([0, -2, -10, -12], -12).integers == mu.integers
        assert State(("1/3", F(2, 3))).integers == ((1, 2), 3)

    @pytest.mark.parametrize("values", [(0.5, 0.5), (F(1, 2), 0.5), (F(1, 2), complex(0.5)),
                                        (F(1, 2), np.float64(0.5)), (F(1, 2), np.int64(1))])
    def test_float_state_has_no_integer_form(self, values):
        # no inexact value makes a State: it raises at construction
        with pytest.raises(TypeError, match="exact rational required"):
            State(values)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equal_and_hash_equal_exactly_when_values_are(self, data):
        fractions = st.fractions(min_value=-2, max_value=2, max_denominator=60)
        vals = data.draw(st.lists(fractions, min_size=1, max_size=5))
        other = data.draw(st.one_of(st.just(vals), st.lists(fractions, min_size=len(vals), max_size=len(vals)),
                                    st.lists(fractions, min_size=1, max_size=5)))
        a, b = State(tuple(vals)), State(tuple(other))
        assert (a == b) == (vals == other)
        assert a.values == tuple(vals) and b.values == tuple(other)
        if vals == other:
            assert hash(a) == hash(b)
        # the same values as ints where integral and as p/q strings give the same state
        for same in (State(tuple(int(v) if v.denominator == 1 else v for v in vals)),
                     State(tuple(str(v) for v in vals))):
            assert same == a and hash(same) == hash(a) and same.integers == a.integers
        # any nonzero multiple of the form, a negative denominator too, is the same canonical state
        ints, den = a.integers
        k = data.draw(st.integers(-6, 6).filter(bool))
        scaled = State.from_integers([v * k for v in ints], den * k)
        assert scaled == a and hash(scaled) == hash(a) and scaled.integers == a.integers
        assert den > 0 and math.gcd(den, *ints) == 1 and den == math.lcm(*(v.denominator for v in vals))
        # a State is a frozen value: its form cannot be rebound
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.integers = b.integers
