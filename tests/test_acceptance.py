"""Acceptance gate: one check per release criterion, one printed line each.

Each test exercises a criterion end to end at its stated tolerance and prints
`acceptance <label>: PASS|FAIL` outside the capture so the line shows in any
run. Timed criteria measure the whole block, not per call.
"""

import time
from fractions import Fraction as F

import numpy as np
import pytest

from ucpspace import (
    cayley,
    instances,
    jordan,
    lueders,
    observables,
    orthospace,
    statespace,
    synthesis,
)
from ucpspace.observables import NOT_REPRESENTABLE, indicator
from ucpspace.orthospace import OrthoSpace, boolean_orthospace, verify_orthospace
from ucpspace.statespace import build_state_polytope


def conclude(capfd, label, failures, elapsed=None, budget=None):
    if budget is not None and elapsed is not None and elapsed > budget:
        failures.append(f"runtime {elapsed:.2f}s exceeds {budget:g}s budget")
    verdict = "PASS" if not failures else "FAIL"
    note = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    with capfd.disabled():
        print(f"\nacceptance {label}: {verdict}{note}", flush=True)
    assert not failures, failures[:5]


@pytest.fixture(scope="module")
def qubit_model(qubit):
    synth = synthesis.matrix_synthetic_space(qubit)
    return synthesis.build_product_model(
        synth, synthesis.lueders_expansion_oracle(synth, qubit)
    )


@pytest.fixture(scope="module")
def qutrit_model(qutrit):
    synth = synthesis.matrix_synthetic_space(qutrit)
    return synthesis.build_product_model(
        synth, synthesis.lueders_expansion_oracle(synth, qutrit)
    )


def test_01_orthospace_axioms(capfd, qubit, qutrit):
    start = time.perf_counter()
    failures = []
    spaces = [boolean_orthospace(n) for n in range(1, 5)]
    spaces.append(instances.mo_orthospace(2))
    spaces.extend([qubit.system.space, qutrit.system.space])
    for ix, space in enumerate(spaces):
        report = verify_orthospace(space)
        if not report.passed or report.structural:
            failures.append(f"clean space {ix} rejected")

    base = boolean_orthospace(3)
    n = base.n_events

    def caught(mutant):
        report = verify_orthospace(mutant)
        return not report.passed or bool(report.structural)

    for e in range(n):
        for f in range(n):
            ortho = base.ortho.copy()
            ortho[e, f] = not ortho[e, f]
            if not caught(OrthoSpace(n, base.zero, base.unit, ortho, base.sum_table, base.complement)):
                failures.append(f"ortho flip ({e},{f}) undetected")
    for e in range(n):
        for f in range(n):
            old = int(base.sum_table[e, f])
            for new in range(-1, n):
                if new == old:
                    continue
                st = base.sum_table.copy()
                st[e, f] = new
                if not caught(OrthoSpace(n, base.zero, base.unit, base.ortho, st, base.complement)):
                    failures.append(f"sum rewrite ({e},{f})->{new} undetected")
    for e in range(n):
        for new in range(n):
            if new == int(base.complement[e]):
                continue
            comp = base.complement.copy()
            comp[e] = new
            if not caught(OrthoSpace(n, base.zero, base.unit, base.ortho, base.sum_table, comp)):
                failures.append(f"complement rewrite {e}->{new} undetected")
    conclude(capfd, "01 orthospace-axioms", failures, time.perf_counter() - start, 1.0)


def test_02_classical_conditioning(capfd):
    start = time.perf_counter()
    failures = []
    for n in range(1, 5):
        space = boolean_orthospace(n)
        polytope = build_state_polytope(space)
        for mu in instances.boolean_vertex_states(n):
            for e in space.events():
                if e == space.zero or mu[e] == 0:
                    continue
                verdict = statespace.check_conditional_uniqueness(polytope, mu, e)
                if verdict.verdict != statespace.UNIQUE:
                    failures.append(f"n={n} vertex under event {e}: {verdict.verdict}")
                    continue
                cond = verdict.conditional
                mass = F(mu[e])
                for f in space.events():
                    if F(cond[f]) != F(mu[f & e]) / mass:
                        failures.append(f"n={n} event {e}: wrong ratio at {f}")
                        break
    conclude(capfd, "02 classical-conditioning", failures, time.perf_counter() - start, 10.0)


def test_03_nonunique_control(capfd, mo2, mo2_poly):
    start = time.perf_counter()
    failures = []
    checked = 0
    for mu in mo2_poly.generators:
        for e in mo2.events():
            if e in (mo2.zero, mo2.unit) or mu[e] == 0:
                continue
            verdict = statespace.check_conditional_uniqueness(mo2_poly, mu, e)
            if verdict.verdict != statespace.MULTIPLE:
                failures.append(f"event {e}: expected MULTIPLE, got {verdict.verdict}")
                continue
            nu1, nu2, at = verdict.witnesses
            checked += 1
            for nu in (nu1, nu2):
                ok, viol = statespace.is_state(mo2, nu)
                if not ok:
                    failures.append(f"witness violates state axioms: {viol[:1]}")
                for f in mo2.events():
                    if orthospace.precedes(mo2, f, e) and F(nu[f]) != F(mu[f]) / F(mu[e]):
                        failures.append(f"witness disagrees below event {e} at {f}")
            if nu1[at] == nu2[at]:
                failures.append(f"witnesses coincide at claimed event {at}")
    if checked == 0:
        failures.append("no (vertex, event) pair exercised")
    conclude(capfd, "03 nonunique-control", failures, time.perf_counter() - start, 1.0)


def test_04_compression_symmetry(capfd, rng):
    start = time.perf_counter()
    failures = []
    for tag in ("R", "C", "H"):
        for n in (2, 3):
            es = np.stack(
                [jordan.random_projection(tag, n, rng).coords for _ in range(500)]
            )
            fs = np.stack(
                [jordan.random_projection(tag, n, rng).coords for _ in range(500)]
            )
            worst = float(np.max(lueders.batched_symmetry_residual(tag, es, fs)))
            if worst > 1e-9:
                failures.append(f"{tag} n={n}: residual {worst:.2e}")
    e = jordan.diag("C", [1, 0])
    coords = np.zeros((2, 2, 2))
    coords[:, :, 0] = 0.5
    f = jordan.element("C", coords)
    half_ident = jordan.identity("C", 2) * 0.5
    lhs, rhs = lueders.symmetry_sides(e, f)
    for side, name in ((lhs, "lhs"), (rhs, "rhs")):
        if jordan.max_abs(side - half_ident) > 1e-12:
            failures.append(f"worked pair {name} is not half the identity")
    conclude(capfd, "04 compression-symmetry", failures, time.perf_counter() - start, 30.0)


def test_05_compression_identities(capfd, qutrit):
    failures = []
    checked = 0
    els = qutrit.elements
    for i, e in enumerate(els):
        for j, f in enumerate(els):
            relation = lueders.classify_pair(e, f)
            if relation is None:
                continue
            checked += 1
            worst = lueders.check_compression_identities(e, f).worst()
            if worst > 1e-10:
                failures.append(f"pair ({i},{j}) {relation}: worst {worst:.2e}")
    if checked == 0:
        failures.append("no classifiable pairs found")
    conclude(capfd, "05 compression-identities", failures)


def test_06_synthetic_compressions(capfd, qubit, qutrit, qubit_model, qutrit_model):
    failures = []
    for inst, model, want in ((qubit, qubit_model, 4), (qutrit, qutrit_model, 9)):
        if model.synth.dim != want:
            failures.append(f"{inst.tag}{inst.n}: dim {model.synth.dim} != {want}")
        gap = synthesis.compare_with_lueders(model, inst)
        if gap > 1e-9:
            failures.append(f"{inst.tag}{inst.n}: compression mismatch {gap:.2e}")
    conclude(capfd, "06 synthetic-compressions", failures)


def test_07_product_reconstruction(capfd, qubit, qutrit):
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(7)
    for inst in (qubit, qutrit):
        synth = synthesis.matrix_synthetic_space(inst)
        model = synthesis.build_product_model(
            synth, synthesis.lueders_expansion_oracle(synth, inst)
        )
        gap = synthesis.compare_products(model, inst)
        if gap > 1e-8:
            failures.append(f"n={inst.n}: product mismatch {gap:.2e}")
        laws = synthesis.check_laws_on_reconstruction(model, pairs=200, rng=rng)
        if laws.jordan_identity > 1e-8:
            failures.append(f"n={inst.n}: jordan identity {laws.jordan_identity:.2e}")
        if laws.square_norm > 1e-8:
            failures.append(f"n={inst.n}: square norm {laws.square_norm:.2e}")
        if laws.square_sum_slack < -1e-8:
            failures.append(f"n={inst.n}: square sum slack {laws.square_sum_slack:.2e}")
        worst = synthesis.check_well_definedness(model)
        if worst > 1e-8:
            failures.append(f"n={inst.n}: well-definedness {worst:.2e}")
    # the exact lane on a spin factor: MO_3 over its cross-polytope states rebuilds a product that is not
    # associative, and every law holds exactly
    space = instances.mo_orthospace(3)
    polytope = statespace.generated_polytope(space, instances.cross_states(3))
    synth = synthesis.abstract_synthetic_space(space, polytope.generators)
    model = synthesis.build_product_model(synth, synthesis.polytope_expansion_oracle(synth, polytope))
    laws = synthesis.check_laws_on_reconstruction(model, pairs=200, rng=rng)
    if not laws.passed(0):
        failures.append(f"MO_3 cross states: laws {laws}")
    if synthesis.check_well_definedness(model) != 0:
        failures.append("MO_3 cross states: well-definedness")
    conclude(capfd, "07 product-reconstruction", failures, time.perf_counter() - start, 120.0)


def test_08_mixture_identity(capfd, rng):
    failures = []
    polytopes = {
        n: build_state_polytope(boolean_orthospace(n)) for n in (3, 4)
    }
    checked = 0
    while checked < 100:
        n = int(rng.choice([3, 4]))
        polytope = polytopes[n]
        space = polytope.space
        def draw_state():
            raw = [F(int(w)) for w in rng.integers(1, 9, n)]
            total = sum(raw)
            return instances.boolean_state([w / total for w in raw])

        mu, nu = draw_state(), draw_state()
        s = F(int(rng.integers(1, 8)), 8)
        e = int(rng.integers(1, space.n_events))
        mix = statespace.mix_states(mu, nu, s)
        if mix[e] == 0:
            continue
        report = statespace.check_mixture_identity(polytope, mu, nu, s, e)
        checked += 1
        if not report.passed or report.lhs != report.rhs:
            failures.append(f"n={n} event {e} s={s}: identity broken")
    conclude(capfd, "08 mixture-identity", failures)


def test_09_extreme_points(capfd, bool2, bool2_poly, bool3, bool3_poly, qubit, qutrit):
    failures = []
    synths = {
        "boolean2": synthesis.abstract_synthetic_space(bool2, bool2_poly.generators),
        "boolean3": synthesis.abstract_synthetic_space(bool3, bool3_poly.generators),
    }
    # exact lane: extremality inside the generated hull, which the box check
    # below ties to the full order interval
    for name, synth in synths.items():
        for verdict in synthesis.check_extreme_points(synth):
            if not verdict.extreme:
                failures.append(f"{name}: event {verdict.event} image not extreme")
    # matrix lane: the order interval itself is the reference body
    for name, inst in (("qubit", qubit), ("qutrit", qutrit)):
        for verdict in synthesis.check_matrix_extremes(inst):
            if not verdict.extreme:
                failures.append(f"{name}: event {verdict.event} not extreme in [0, 1]")
    box = synthesis.check_box_equality(synths["boolean2"])
    if not box.equal:
        failures.append("two-point hull does not equal the order interval")
    conclude(capfd, "09 extreme-points", failures)


def test_10_exceptional_algebra(capfd, rng):
    failures = []
    worst_jordan = 0.0
    for _ in range(500):
        a = jordan.random_hermitian("O3", 3, rng)
        b = jordan.random_hermitian("O3", 3, rng)
        worst_jordan = max(
            worst_jordan, jordan.check_norm_laws(a, b).jordan_identity_residual
        )
    if worst_jordan > 1e-8:
        failures.append(f"jordan identity residual {worst_jordan:.2e}")

    worst_norm = 0.0
    for _ in range(500):
        x = rng.standard_normal(8)
        y = rng.standard_normal(8)
        x /= np.sqrt(cayley.norm2(x))
        y /= np.sqrt(cayley.norm2(y))
        prod = cayley.multiply(x, y)
        worst_norm = max(
            worst_norm, abs(cayley.norm2(prod) - cayley.norm2(x) * cayley.norm2(y))
        )
    if worst_norm > 1e-12:
        failures.append(f"octonion norm multiplicativity {worst_norm:.2e}")

    a = jordan.diag("O3", [5, -2, 7])
    spec = jordan.spectral_decomposition(a)
    if list(spec.values) != [-2.0, 5.0, 7.0]:
        failures.append(f"diagonal eigenvalues inexact: {spec.values}")
    recon = sum(
        (p * float(v) for v, p in zip(spec.values, spec.frame)),
        jordan.zero("O3", 3),
    )
    if jordan.max_abs(recon - a) != 0.0:
        failures.append("diagonal spectral reconstruction inexact")

    for _ in range(10):
        frame = jordan.random_frame("O3", 3, rng)
        rho = lueders.DensityState(frame[0])
        e = frame[0] + frame[1]
        cond = lueders.condition(rho, e)
        drift = abs(jordan.trace(cond.element) - 1.0)
        if drift > 1e-10:
            failures.append(f"conditioned trace drift {drift:.2e}")
    conclude(capfd, "10 exceptional-algebra", failures)


def test_11_representability(capfd):
    failures = []

    def model_for(inst):
        synth = synthesis.matrix_synthetic_space(inst)
        return synthesis.build_product_model(
            synth, synthesis.lueders_expansion_oracle(synth, inst)
        )

    sparse = model_for(instances.sparse_conditioning_instance())
    verdict = observables.check_conditioned_representability(sparse, 2, 4)
    if verdict.verdict != NOT_REPRESENTABLE:
        failures.append(f"sparse conditioning: {verdict.verdict}")
    enriched = model_for(instances.enriched_conditioning_instance())
    verdict = observables.check_conditioned_representability(enriched, 2, 4)
    if not verdict.representable:
        failures.append(f"enriched conditioning: {verdict.verdict}")

    sparse_sum = model_for(instances.sparse_sum_instance())
    space = sparse_sum.synth.space
    verdict = observables.check_sum_representability(
        sparse_sum, indicator(space, 2), indicator(space, 4)
    )
    if verdict.verdict != NOT_REPRESENTABLE:
        failures.append(f"sparse sum: {verdict.verdict}")
    enriched_sum = model_for(instances.enriched_sum_instance())
    space = enriched_sum.synth.space
    verdict = observables.check_sum_representability(
        enriched_sum, indicator(space, 2), indicator(space, 4)
    )
    if not verdict.representable:
        failures.append(f"enriched sum: {verdict.verdict}")
    conclude(capfd, "11 representability", failures)
