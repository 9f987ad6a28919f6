"""Self-tests of the benchmark: checker, self-time arithmetic, seeded inputs, tracer, calibration.

    python3 -m pytest perfbench -q
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import calibration  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ucpspace import fileio, instances, orthospace  # noqa: E402


def _structured(argv):
    code, out, _ = run.run_cli(argv)
    return code, json.loads(out)


@pytest.fixture(scope="module")
def mo2_verify(tmp_path_factory):
    path = tmp_path_factory.mktemp("mo2") / "mo2.txt"
    path.write_text(fileio.format_orthospace(instances.mo_orthospace(2)))
    return _structured(["verify", "--input", str(path), "--states", "full", "axioms", "separation", "uniqueness"])


def test_checker_accepts_real_mo_report(mo2_verify):
    assert checks.verify_mo(2)(*mo2_verify) == []


def test_checker_flags_multiple_flipped_to_unique(mo2_verify):
    code, report = mo2_verify
    tampered = json.loads(json.dumps(report))
    tampered["uniqueness"][0]["verdict"] = "UNIQUE"
    assert any("expected MULTIPLE" in p for p in checks.verify_mo(2)(code, tampered))


def test_checker_flags_witness_that_is_not_a_state(mo2_verify):
    code, report = mo2_verify
    tampered = json.loads(json.dumps(report))
    rec = tampered["uniqueness"][0]
    other = next(f for f in range(1, 5) if f != rec["event"])
    rec["witnesses"][0][other] = "1/2"  # breaks additivity with its complement
    problems = checks.verify_mo(2)(code, tampered)
    assert any("is not a state" in p for p in problems)


def test_checker_flags_unique_flipped_to_multiple(tmp_path):
    space = orthospace.boolean_orthospace(2)
    path = tmp_path / "b2.txt"
    path.write_text(fileio.format_orthospace(space))
    code, report = _structured(["verify", "--input", str(path), "--states", "full", "--seed", "3",
                                "axioms", "separation", "uniqueness", "mixture"])
    check = checks.verify_boolean(2, 3, 50)
    assert check(code, report) == []
    tampered = dict(report, passed=False, uniqueness=[
        {"state": ["0", "1", "0", "1"], "state_index": 0, "event": 1, "verdict": "MULTIPLE"}])
    assert any("non-UNIQUE" in p for p in check(1, tampered))


def test_checker_flags_wrong_boolean_conditional(tmp_path):
    from fractions import Fraction

    space = orthospace.boolean_orthospace(2)
    mu = instances.boolean_state([Fraction(1, 3), Fraction(2, 3)])
    (tmp_path / "b2.txt").write_text(fileio.format_orthospace(space))
    (tmp_path / "mu.txt").write_text(fileio.format_states([mu]))
    code, report = _structured(["condition", "--input", str(tmp_path / "b2.txt"),
                                "--states", str(tmp_path / "mu.txt"), "3", "1"])
    check = checks.condition_boolean(2, mu, 3, 1)
    assert check(code, report) == []
    report["conditional"][1] = "1/2"
    assert check(code, report)


def test_self_time_on_hand_built_tree():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, None, 0),
        S("a", 1.0, 4.0, 0, 0),
        S("b", 3.0, 6.0, 0, 0),  # overlaps a: the children cover 1..6 once
        S("a.child", 2.0, 3.0, 1, 0),
        S("late", 8.0, 12.0, 0, 0),  # runs past its parent: only 8..10 counts
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])
    table = tracing.layer_table(spans, {})
    assert table["exactlp.solve_lp.calls"] == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    def files(seed, name):
        _, inputs = workloads.build(workload, seed, tmp_path / name)
        return {p.name: p.read_bytes() for p in inputs.files}

    first = files(11, "a")
    assert first == files(11, "b")
    assert first != files(12, "c")


def test_tracer_counts_layers_and_restores_modules(tmp_path):
    from ucpspace import exactlp, kernels, statespace

    originals = (statespace.solve_lp, kernels.matmul, statespace.check_conditional_uniqueness)
    path = tmp_path / "mo2.txt"
    path.write_text(fileio.format_orthospace(instances.mo_orthospace(2)))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        with tracer.span("op.verify", op=0):
            code, _, _ = run.run_cli(["verify", "--input", str(path), "--states", "full", "uniqueness"])
    finally:
        tracer.enabled = False
        tracer.uninstall()
    assert code == 1
    table = tracing.layer_table(tracer.spans, tracer.counts)
    assert table["exactlp.solve_lp.calls"] > 0
    assert table["statespace.verdict.MULTIPLE"] == 8  # (vertex, atom) pairs of MO_2
    verdicts = table["statespace.verdict.UNIQUE"] + table["statespace.verdict.MULTIPLE"]
    assert verdicts == table["statespace.check_conditional_uniqueness.calls"]
    assert table["statespace.build_state_polytope.vertices"] == 4
    assert table["kernels.matmul.calls"] == 0
    assert all(s.op == 0 for s in tracer.spans)
    assert (statespace.solve_lp, kernels.matmul, statespace.check_conditional_uniqueness) == originals
    assert statespace.solve_lp is exactlp.solve_lp


def test_known_defect_waives_only_its_own_problem():
    op = workloads.Op("synthesize", "synthesize mo3 full", checks.synthesize_blocked,
                      known_defect=workloads.CONDITIONAL_VERDICT_NOT_JSON)
    assert run.is_known_defect(op, [workloads.CONDITIONAL_VERDICT_NOT_JSON])
    # Once the crash is fixed, a wrong blocked record is a failure like any other.
    problems = checks.synthesize_blocked(1, {"passed": False, "blocked": {"generator": 0, "event": 1,
                                                                          "verdict": "UNIQUE"}})
    assert problems and not run.is_known_defect(op, problems)
    assert not run.is_known_defect(workloads.Op("verify", "v", checks.verify_mo(2)), ["anything"])


def test_cli_error_message_names_the_density_trace_defect():
    op = workloads.Op("condition", "condition qutrit density0", checks.condition_multiple, argv=["condition"],
                      known_defect=workloads.DENSITY_TRACE_TOLERANCE)
    problems = run.check_op(op, 2, "", "input error: density trace is 1.0000000000073912, not 1\n", None)
    assert run.is_known_defect(op, problems)
    assert not run.is_known_defect(op, run.check_op(op, 2, "", "input error: something else\n", None))


def test_calibration_pools_probe_samples_by_unit():
    ref = calibration.UNIT_REF_S
    sampler = calibration.Sampler()
    sampler.add(2 * ref * calibration.EDGE_UNITS)  # an edge probe at half speed
    sampler.add(4 * ref, 1)  # an in-op sample at a quarter speed
    sampler.spent = 0.5
    slowdown = (2 * calibration.EDGE_UNITS + 4) / (calibration.EDGE_UNITS + 1)
    assert sampler.slowdown() == pytest.approx(slowdown)
    # The in-op sample time is taken off before rescaling.
    assert sampler.calibrated(2.5) == pytest.approx(2.0 / slowdown)
    assert calibration.probe(1) > 0


def test_in_op_sampling_runs_during_the_block_only():
    sampler = calibration.Sampler()
    with sampler.inside():
        end = time.perf_counter() + 5 * calibration.INTERVAL_S
        while time.perf_counter() < end:
            pass
    units = sampler.units
    assert units >= 2 and sampler.spent > 0
    time.sleep(3 * calibration.INTERVAL_S)
    assert sampler.units == units
