"""Command-line driver: exit codes, worked examples, replay round trips."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F

import numpy as np
import pytest

from ucpspace import cli, fileio, instances, jordan, orthospace, statespace


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def complex_element(mat):
    mat = np.asarray(mat, dtype=complex)
    coords = np.zeros(mat.shape + (2,))
    coords[..., 0] = mat.real
    coords[..., 1] = mat.imag
    return jordan.element("C", coords)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")

    def put(name, text):
        path = d / name
        path.write_text(text)
        return str(path)

    paths = {}
    paths["bool3"] = put(
        "bool3.txt", fileio.format_orthospace(orthospace.boolean_orthospace(3))
    )
    paths["mo2"] = put("mo2.txt", fileio.format_orthospace(instances.mo_orthospace(2)))
    paths["mo3"] = put("mo3.txt", fileio.format_orthospace(instances.mo_orthospace(3)))
    paths["mo31"] = put("mo31.txt", fileio.format_orthospace(instances.mo_orthospace(31)))
    paths["mo32"] = put("mo32.txt", fileio.format_orthospace(instances.mo_orthospace(32)))
    paths["bool4"] = put("bool4.txt", fileio.format_orthospace(orthospace.boolean_orthospace(4)))
    paths["bool5"] = put("bool5.txt", fileio.format_orthospace(orthospace.boolean_orthospace(5)))
    paths["bool6"] = put("bool6.txt", fileio.format_orthospace(orthospace.boolean_orthospace(6)))
    coefficient_two = fileio.format_orthospace(orthospace.boolean_orthospace(3)).rstrip("\n")
    paths["coefficient_two"] = put("coefficient_two.txt", coefficient_two + "\northo 1 1\nsum 1 1 6\n")
    paths["bad"] = put("bad.txt", "orthospace v1\nevents x\n")
    paths["bool2"] = put("bool2.txt", fileio.format_orthospace(orthospace.boolean_orthospace(2)))
    # a decimal token where a state value must be exact
    paths["decimal_states"] = put("decimal_states.txt", "states v1\nn_events 4\nstate 0 0.5 0.5 1\n")

    mu = instances.boolean_state((F(1, 5), F(3, 10), F(1, 2)))
    paths["mu3"] = put("mu3.txt", fileio.format_states([mu]))
    paths["no_states"] = put("no_states.txt", "states v1\nn_events 8\n")
    # GENERATED states on MO_3: the six cross-polytope states (one block at (1, 0) or (0, 1),
    # the others at (1/2, 1/2)), then the vertex (1, 1, 1) and the point (1, 0, 1/2)
    def mo3_state(ps):
        return statespace.State((F(0), *(v for p in ps for v in (F(p), 1 - F(p))), F(1)))

    half = F(1, 2)
    cross = [mo3_state([half] * i + [v] + [half] * (2 - i)) for i in range(3) for v in (1, 0)]
    paths["mo3_generated"] = put("mo3_generated.txt", fileio.format_states(
        cross + [mo3_state([1, 1, 1]), mo3_state([1, 0, half])]))
    # Boolean 2 with the unit 3 orthogonal to itself and 3 + 3 = 3: additivity
    # forces mu(3) = 0 against the unit row, so no state exists
    stateless = fileio.format_orthospace(orthospace.boolean_orthospace(2)).rstrip("\n")
    paths["stateless"] = put("stateless.txt", stateless + "\northo 3 3\nsum 3 3 3\n")

    rho = complex_element([[0.5, 0], [0, 0.5]])
    e = complex_element([[1, 0], [0, 0]])
    f = complex_element([[0.5, 0.5], [0.5, 0.5]])
    ident = jordan.identity("C", 2)
    paths["qubit_cond"] = put(
        "qubit_cond.txt", fileio.format_elements([rho, e, f, ident])
    )

    pz = e
    px = f
    py = complex_element([[0.5, -0.5j], [0.5j, 0.5]])
    family = [jordan.zero("C", 2), ident]
    for p in (pz, px, py):
        family.extend([p, ident - p])
    paths["qubit_projs"] = put(
        "qubit_projs.txt", fileio.format_elements(family, header="projections v1")
    )

    paths["obs"] = put(
        "obs.txt", fileio.format_observable([(F(1, 2), 1), (F(-3), 2), (F(1), 4)])
    )
    paths["obs_ind"] = put(
        "obs_ind.txt", fileio.format_observable([(F(2), 1), (F(-1), 2)])
    )
    paths["diag"] = put("diag.txt", fileio.format_elements([jordan.diag("R", [2, -1])]))
    paths["albert"] = put(
        "albert.txt", fileio.format_elements([jordan.diag("O3", [1, 2, 3])])
    )
    return paths


class TestVerify:
    def test_boolean_axioms_pass(self, files):
        code, out, err = invoke(["verify", "--input", files["bool3"]])
        assert code == 0
        assert err == ""
        assert out.rstrip().endswith("verify: PASS")
        axiom_lines = [s for s in out.splitlines() if s.startswith("axiom ")]
        assert len(axiom_lines) == 6
        assert all(s.endswith(": pass") for s in axiom_lines)

    def test_full_check_suite(self, files):
        code, out, _ = invoke(
            [
                "verify",
                "--input",
                files["bool3"],
                "--states",
                "full",
                "axioms",
                "separation",
                "uniqueness",
                "mixture",
            ]
        )
        assert code == 0
        assert "separation: pass" in out
        assert "uniqueness: all conditionals UNIQUE" in out
        assert "mixture identity:" in out and "0 failures" in out

    def test_nonunique_conditionals_fail(self, files):
        code, out, _ = invoke(
            ["verify", "--input", files["mo2"], "--states", "full", "axioms", "uniqueness"]
        )
        assert code == 1
        assert "MULTIPLE" in out
        assert out.rstrip().endswith("verify: FAIL")

    @pytest.mark.parametrize("check", ["uniqueness", "mixture"])
    def test_past_vertex_cap_is_not_a_pass(self, files, check):
        # MO_32 has 66 events, past the 64-event vertex cap: no generators to check
        code, out, err = invoke(["verify", "--input", files["mo32"], "--states", "full", check])
        assert code == 2
        assert out == ""
        assert "66 events" in err and "64 events" in err

    def test_boolean10_past_vertex_cap_exits_promptly(self, tmp_path):
        # 1,024 events: the state equations are built, but no vertex enumeration or row reduction runs
        path = tmp_path / "bool10.txt"
        path.write_text(fileio.format_orthospace(orthospace.boolean_orthospace(10)))
        start = time.perf_counter()
        code, out, err = invoke(["verify", "--input", str(path), "--states", "full", "uniqueness"])
        assert time.perf_counter() - start < 10
        assert code == 2
        assert out == ""
        assert "1024 events" in err and "64 events" in err

    def test_past_ray_work_cap_exits_promptly(self, files):
        # MO_31 has 64 events, inside the event cap, and 2^31 vertices: the adjacency work cap refuses it
        start = time.perf_counter()
        code, out, err = invoke(["verify", "--input", files["mo31"], "--states", "full"])
        assert time.perf_counter() - start < 30
        assert code == 2
        assert out == ""
        assert "vertex enumeration" in err and "cap" in err

    def test_boolean5_full_polytope(self, files):
        # C(60, 4) subsets of box rows under the old enumeration (about 200 s); double description is one pass
        code, out, _ = invoke(["verify", "--input", files["bool5"], "--states", "full", "axioms", "separation"])
        assert code == 0
        assert "separation: pass (5 generators)" in out
        assert out.rstrip().endswith("verify: PASS")

    def test_empty_state_file_is_not_a_pass(self, files):
        code, out, err = invoke(
            ["verify", "--input", files["bool3"], "--states", files["no_states"], "uniqueness"]
        )
        assert code == 2
        assert out == ""
        assert "holds no states" in err

    @pytest.mark.parametrize("check", ["uniqueness", "separation", "mixture"])
    def test_space_without_states_is_not_a_pass(self, files, check):
        code, out, err = invoke(["verify", "--input", files["stateless"], "--states", "full", check])
        assert code == 2
        assert out == ""
        assert "has no states; nothing was checked" in err

    def test_axiom_failure_survives_a_blocked_check(self, files):
        # the stateless space fails two axioms; the uniqueness check it cannot
        # run is marked not checked and the verdict stays FAIL
        argv = ["verify", "--input", files["stateless"], "--states", "full", "axioms", "uniqueness"]
        code, out, _ = invoke(argv)
        assert code == 1
        assert "axiom difference-characterization: FAIL" in out
        assert "axiom unique-complement: FAIL" in out
        assert "not checked (uniqueness)" in out
        assert out.rstrip().endswith("verify: FAIL")
        code, out, _ = invoke(argv + ["--format", "structured"])
        report = json.loads(out)
        assert code == 1 and report["passed"] is False
        assert report["not_checked"]["checks"] == ["uniqueness"]
        assert not report["axioms"]["unique-complement"]["passed"]

    @pytest.mark.parametrize(
        "input_name, states, extra",
        [
            # a single state has nothing to mix
            ("bool3", "mu3", []),
            # every sampled MO_2 triple has zero mass or a MULTIPLE conditional
            ("mo2", "full", ["--seed", "2", "--samples", "5"]),
        ],
    )
    def test_unchecked_mixture_is_not_a_pass(self, files, input_name, states, extra):
        states = files.get(states, states)
        code, out, err = invoke(
            ["verify", "--input", files[input_name], "--states", states, *extra, "mixture"]
        )
        assert code == 2
        assert out == ""
        assert "nothing was checked" in err

    @pytest.mark.parametrize("states", ["full", "mu3"])
    def test_axioms_alone_load_no_states(self, files, monkeypatch, states):
        base = ["verify", "--input", files["bool3"], "--format", "structured"]
        code, plain, _ = invoke(base + ["axioms"])
        monkeypatch.setattr(cli, "_load_polytope", None)
        argv = base + ["--states", files.get(states, states), "axioms"]
        assert code == 0
        assert invoke(argv) == (code, plain, "")

    def test_malformed_input(self, files):
        code, out, err = invoke(["verify", "--input", files["bad"]])
        assert code == 2
        assert out == ""
        assert "line 2" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "--states", "{states}", "separation"],
        ["condition", "--states", "{states}", "1"],
        ["synthesize", "--states", "{states}"],
    ], ids=["verify", "condition", "synthesize"])
    def test_decimal_state_value_is_bad_input(self, files, argv):
        argv = [a.format(states=files["decimal_states"]) for a in argv]
        code, out, err = invoke([argv[0], "--input", files["bool2"], *argv[1:]])
        assert code == 2
        assert out == ""
        assert "input error: line 3: " in err and "decimal" in err

    def test_missing_file(self, files):
        code, _, err = invoke(["verify", "--input", files["bool3"] + ".nope"])
        assert code == 2
        assert "input error" in err

    def test_unknown_check_name(self, files):
        code, _, err = invoke(
            ["verify", "--input", files["bool3"], "--states", "full", "nonsense"]
        )
        assert code == 2
        assert "unknown check" in err


def first_record(report, edit):
    """The report as JSON with only its first uniqueness record (a MULTIPLE one on MO_2), edited."""
    rec = json.loads(json.dumps(report["uniqueness"][0]))
    edit(rec)
    return json.dumps(report | {"uniqueness": [rec]})


class TestReplay:
    def run_structured(self, files):
        code, out, _ = invoke(
            [
                "verify",
                "--input",
                files["mo2"],
                "--states",
                "full",
                "--format",
                "structured",
                "axioms",
                "uniqueness",
            ]
        )
        assert code == 1
        return json.loads(out), out

    def test_witnesses_reproduce(self, files, tmp_path):
        report, text = self.run_structured(files)
        assert len(report["uniqueness"]) == 8
        path = tmp_path / "report.json"
        path.write_text(text)
        code, out, _ = invoke(["verify", "--replay", str(path), "--input", files["mo2"]])
        assert code == 0
        assert "replay: 8/8 witnesses reproduced" in out
        assert "STALE" not in out

    def replay_tampered(self, files, tmp_path, tamper):
        report, _ = self.run_structured(files)
        tamper(report["uniqueness"][0])
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(report))
        code, out, _ = invoke(["verify", "--replay", str(path), "--input", files["mo2"]])
        assert code == 1
        assert "STALE" in out
        assert "replay: 7/8 witnesses reproduced" in out

    def test_tampered_report_goes_stale(self, files, tmp_path):
        self.replay_tampered(files, tmp_path, lambda rec: rec.update(verdict="UNIQUE"))

    def test_witness_that_is_not_a_state_goes_stale(self, files, tmp_path):
        # the verdict string still matches, and no target constrains the unit
        unit = instances.mo_orthospace(2).unit
        self.replay_tampered(files, tmp_path, lambda rec: rec["witnesses"][0].__setitem__(unit, "7"))

    def test_witness_off_the_slice_goes_stale(self, files, tmp_path):
        # a state, but not in the slice: mass 1/2 on every proper event misses the target 1 on the event
        mo2 = instances.mo_orthospace(2)
        uniform = ["0" if e == mo2.zero else "1" if e == mo2.unit else "1/2" for e in mo2.events()]
        self.replay_tampered(files, tmp_path, lambda rec: rec["witnesses"].__setitem__(0, uniform))

    def test_witness_event_at_an_equal_coordinate_goes_stale(self, files, tmp_path):
        def tamper(rec):
            nu1, nu2 = rec["witnesses"]
            rec["witness_event"] = next(i for i, (a, b) in enumerate(zip(nu1, nu2)) if a == b)

        self.replay_tampered(files, tmp_path, tamper)

    @pytest.mark.parametrize("corrupt", [
        lambda report: "{not json",
        lambda report: json.dumps(report | {"uniqueness": [{k: v for k, v in report["uniqueness"][0].items() if k != "event"}]}),
        lambda report: json.dumps(report | {"uniqueness": [report["uniqueness"][0] | {"event": 99}]}),
        lambda report: json.dumps(report | {"uniqueness": [report["uniqueness"][0] | {"event": 0}]}),
        lambda report: json.dumps(report | {"axioms": {"no-such-axiom": {"passed": False, "witnesses": [[1, 2]]}}}),
        lambda report: json.dumps(report | {"axioms": {"ortho-symmetry": {"passed": False, "witnesses": [[1, 99]]}}}),
        lambda report: json.dumps(report | {"axioms": {"ortho-symmetry": {"passed": False, "witnesses": [[-1, 2]]}}}),
        lambda report: json.dumps(report | {"axioms": {"sum-associativity": {"passed": False, "witnesses": [[1, 2]]}}}),
        lambda report: first_record(report, lambda rec: rec["state"].__setitem__(-1, "1.0")),
        lambda report: first_record(report, lambda rec: rec["state"].__setitem__(0, "abc")),
        lambda report: first_record(report, lambda rec: rec["witnesses"][0].__setitem__(0, 0)),
        lambda report: first_record(report, lambda rec: rec["witnesses"].__setitem__(0, None)),
        lambda report: first_record(report, lambda rec: rec["witnesses"][0].__setitem__(-1, "1.0")),
        lambda report: first_record(report, lambda rec: rec["witnesses"][0].pop()),
        lambda report: first_record(report, lambda rec: rec.pop("witnesses")),
        lambda report: first_record(report, lambda rec: rec.update(witness_event=99)),
    ], ids=["not-json", "record-without-event", "event-out-of-range", "event-zero-mass", "unknown-axiom-tag",
            "witness-out-of-range", "witness-negative", "witness-short", "state-decimal", "state-not-a-number",
            "multiple-witness-integer", "multiple-witness-null", "multiple-witness-decimal",
            "multiple-witness-one-short", "multiple-without-witnesses", "multiple-witness-event-out-of-range"])
    def test_malformed_report_is_bad_input(self, files, tmp_path, corrupt):
        # exit 1 is for witnesses that do not reproduce; a report that cannot be read is exit 2
        report, _ = self.run_structured(files)
        path = tmp_path / "malformed.json"
        path.write_text(corrupt(report))
        code, out, err = invoke(["verify", "--replay", str(path), "--input", files["mo2"]])
        assert code == 2
        assert out == ""
        assert "input error" in err
        assert "line 0" not in err  # a JSON report has no lines; the message names the field

    def test_generated_report_replays(self, files, tmp_path):
        # GENERATED mode: the witnesses are checked against the state equations as in FULL mode
        argv = ["verify", "--input", files["mo3"], "--states", files["mo3_generated"], "uniqueness"]
        code, out, _ = invoke(argv + ["--format", "structured"])
        assert code == 1
        path = tmp_path / "generated.json"
        path.write_text(out)
        code, out, _ = invoke(["verify", "--replay", str(path), "--states", files["mo3_generated"]])
        assert code == 0
        assert "STALE" not in out and "replay: 26/26 witnesses reproduced" in out

    def test_replay_enumerates_no_vertices(self, files, tmp_path, monkeypatch):
        _, text = self.run_structured(files)
        path = tmp_path / "report.json"
        path.write_text(text)
        monkeypatch.setattr(statespace, "_enumerate_vertices", None)
        for states in ([], ["--states", "full"]):
            code, out, _ = invoke(["verify", "--replay", str(path), "--input", files["mo2"], *states])
            assert code == 0
            assert "replay: 8/8 witnesses reproduced" in out

    def test_structured_output_is_deterministic(self, files):
        _, first = self.run_structured(files)
        _, second = self.run_structured(files)
        assert first == second

    def test_mo3_uniqueness_block_is_unchanged(self, files):
        # the MULTIPLE records and witnesses of MO_3; a refactor of the exact lane keeps them byte-identical
        code, out, _ = invoke(
            ["verify", "--input", files["mo3"], "--states", "full", "uniqueness", "--format", "structured"]
        )
        assert code == 1
        block = json.dumps(json.loads(out)["uniqueness"], sort_keys=True)
        digest = hashlib.sha256(block.encode()).hexdigest()
        assert digest == "342be6d1b74216ba5c2ffd360031936045bb97ab98b8e22e771da964c15ace00"

    def test_boolean4_report_is_unchanged(self, files):
        # every check on Boolean 4: the conditionals that bound propagation pins, in the
        # mixture block, and their slices; the whole report but the input path
        code, out, _ = invoke(
            ["verify", "--input", files["bool4"], "--states", "full", "--seed", "0", "--samples", "10",
             "axioms", "separation", "uniqueness", "mixture", "--format", "structured"]
        )
        assert code == 0
        report = json.loads(out)
        del report["input"]
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == "5e2a50b4afeefeb312322b3765fe64c4058ea2490a2e30a65a46a97a12115267"

    @pytest.mark.parametrize("input_name, checks, code, want", [
        # Boolean 3 with a state equation of coefficient 2 (2 x_1 - x_6 = 0): EMPTY and UNIQUE slices
        ("coefficient_two", ["uniqueness", "mixture"], 1,
         "ecd09ea5d574c93affefa5dac2ee287ece8ceb0625c42e94f6e3645946435006"),
        ("bool6", ["axioms", "separation", "uniqueness", "mixture"], 0,
         "b74df1f1c62181e57bf3daddc913382f15ce947c46f28737c7df714e594226c5"),
    ], ids=["coefficient-two", "bool6"])
    def test_report_is_unchanged(self, files, input_name, checks, code, want):
        got, out, _ = invoke(["verify", "--input", files[input_name], "--states", "full", "--seed", "0",
                              "--samples", "10", *checks, "--format", "structured"])
        assert got == code
        report = json.loads(out)
        del report["input"]
        assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == want

    def test_generated_report_is_unchanged(self, files):
        # GENERATED mode (states from a file): MULTIPLE records with their witnesses, and the
        # (state, event) pairs that have no record are UNIQUE; the whole report but the input path
        code, out, _ = invoke(["verify", "--input", files["mo3"], "--states", files["mo3_generated"],
                               "uniqueness", "--format", "structured"])
        assert code == 1
        report = json.loads(out)
        del report["input"]
        with open(files["mo3_generated"], encoding="utf-8") as fh:
            states = fileio.parse_states(fh.read())
        pairs = sum(1 for mu in states for e in range(1, len(mu.values)) if mu[e] != 0)
        verdicts = [rec["verdict"] for rec in report["uniqueness"]]
        assert set(verdicts) == {"MULTIPLE"} and 0 < len(verdicts) < pairs
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == "b63133fbf5f8daa3ffa04db239298241066250221dddb5aad809912101237575"


class TestCondition:
    def test_matrix_worked_example(self, files):
        code, out, _ = invoke(["condition", "--input", files["qubit_cond"], "1", "2"])
        assert code == 0
        assert "conditioned density trace: 1" in out
        assert "mu(f|e) = 0.5" in out

    def test_identity_event_echoes_density(self, files):
        code, out, _ = invoke(
            ["condition", "--input", files["qubit_cond"], "--format", "structured", "3"]
        )
        assert code == 0
        report = json.loads(out)
        coords = np.array(report["conditional"], dtype=float)
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = expected[1, 1, 0] = 0.5
        assert np.allclose(coords, expected, atol=1e-12)

    def test_abstract_atom_weights(self, files):
        code, out, _ = invoke(
            ["condition", "--input", files["bool3"], "--states", files["mu3"], "3", "1"]
        )
        assert code == 0
        assert "conditional atoms: (0.4, 0.6, 0)" in out
        assert "mu(f|e) = 0.4" in out
        assert "slice dimension: 0" in out

    def test_abstract_enumerates_no_vertices(self, files, monkeypatch):
        monkeypatch.setattr(statespace, "_enumerate_vertices", None)
        code, out, _ = invoke(
            ["condition", "--input", files["bool3"], "--states", files["mu3"], "3", "1"]
        )
        assert code == 0
        assert "mu(f|e) = 0.4" in out

    def test_zero_mass_event(self, files):
        code, _, err = invoke(
            ["condition", "--input", files["bool3"], "--states", files["mu3"], "0"]
        )
        assert code == 1
        assert "verified failure" in err

    def test_event_index_out_of_range(self, files):
        code, _, err = invoke(["condition", "--input", files["qubit_cond"], "9"])
        assert code == 2
        assert "event block index" in err

    @pytest.mark.parametrize("argv, message", [
        (["-1"], "event index must be in 0..7, got -1"),
        (["99"], "event index must be in 0..7, got 99"),
        (["3", "-2"], "observe index must be in 0..7, got -2"),
        (["3", "8"], "observe index must be in 0..7, got 8"),
    ], ids=["event-negative", "event-past-last", "observe-negative", "observe-past-last"])
    def test_abstract_index_out_of_range(self, files, argv, message):
        # an index outside the events is bad input, never wrapped around or left to crash
        code, out, err = invoke(["condition", "--input", files["bool3"], "--states", files["mu3"], *argv])
        assert code == 2
        assert out == ""
        assert message in err

    def test_event_argument_required(self, files):
        code, _, err = invoke(
            ["condition", "--input", files["bool3"], "--states", files["mu3"]]
        )
        assert code == 2
        assert "event argument" in err


class TestSpectrum:
    def test_observable_radius(self, files):
        code, out, _ = invoke(["spectrum", "--input", files["obs"]])
        assert code == 0
        assert "spectral radius: 3" in out
        assert "0.5 on event 1" in out

    def test_indicator_combination_radius(self, files):
        code, out, _ = invoke(["spectrum", "--input", files["obs_ind"]])
        assert code == 0
        assert "spectral radius: 2" in out

    def test_matrix_eigenvalues_ascending(self, files):
        code, out, _ = invoke(["spectrum", "--input", files["diag"]])
        assert code == 0
        assert "eigenvalues: -1, 2" in out
        assert "frame residual: 0" in out

    def test_exceptional_diagonal(self, files):
        code, out, _ = invoke(
            ["spectrum", "--input", files["albert"], "--format", "structured"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["eigenvalues"] == [1.0, 2.0, 3.0]
        assert report["multiplicity"] == [1, 1, 1]
        assert report["frame_residual"] <= 1e-7


class TestSynthesize:
    def test_boolean_dimension(self, files):
        code, out, _ = invoke(
            ["synthesize", "--input", files["bool3"], "--states", "full"]
        )
        assert code == 0
        assert "dim 3 over 8 events, 3 generators" in out
        assert out.rstrip().endswith("synthesize: PASS")
        dump_path = files["bool3"] + ".synth.json"
        assert os.path.exists(dump_path)
        with open(dump_path, encoding="utf-8") as fh:
            payload = fileio.parse_dump(fh.read())
        assert payload["dim"] == 3
        assert payload["exact"] is True

    def test_blocked_synthesis(self, files):
        code, out, _ = invoke(["synthesize", "--input", files["mo2"], "--states", "full"])
        assert code == 1
        assert "synthesis blocked" in out
        assert "MULTIPLE" in out

    def test_blocked_synthesis_structured(self, files):
        code, out, _ = invoke(
            ["synthesize", "--input", files["mo3"], "--states", "full", "--format", "structured"]
        )
        assert code == 1
        report = json.loads(out)
        assert report["passed"] is False
        assert report["blocked"]["verdict"] == "MULTIPLE"
        assert isinstance(report["blocked"]["generator"], int)

    def test_projection_family(self, files):
        code, out, _ = invoke(["synthesize", "--input", files["qubit_projs"]])
        assert code == 0
        assert "dim 4 over 8 events, 12 generators" in out
        assert "matches: lueders" in out
        assert out.rstrip().endswith("synthesize: PASS")
        with open(files["qubit_projs"] + ".synth.json", encoding="utf-8") as fh:
            payload = fileio.parse_dump(fh.read())
        assert payload["dim"] == 4
        assert payload["exact"] is False

    def test_structured_runs_identical(self, files):
        argv = [
            "synthesize",
            "--input",
            files["bool3"],
            "--states",
            "full",
            "--format",
            "structured",
        ]
        code_a, out_a, _ = invoke(argv)
        code_b, out_b, _ = invoke(argv)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_boolean3_report_is_unchanged(self, files):
        # the whole exact-lane report (laws, density, dump) but the input path;
        # a change to the product model or the exact lane keeps it byte-identical
        code, out, _ = invoke(
            ["synthesize", "--input", files["bool3"], "--states", "full", "--seed", "7", "--format", "structured"]
        )
        assert code == 0
        report = json.loads(out)
        del report["input"]
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == "f383f56db5a6ffaeb71cf47532dbdcccd0bdcdc68b62a29b2c0ac4cab42ddd4d"

    def test_boolean4_report_is_unchanged(self, files):
        # dimension 4 and larger denominators than Boolean 3: a second pin on
        # the exact-lane product and coordinate map
        code, out, _ = invoke(
            ["synthesize", "--input", files["bool4"], "--states", "full", "--seed", "7", "--format", "structured"]
        )
        assert code == 0
        report = json.loads(out)
        del report["input"]
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == "6b9bf86a9b1e3dee9463489d3b115f227fe33e84f7b64798755a0c2b07ddffca"

    def test_boolean5_report_is_unchanged(self, files):
        # dimension 5 and larger numerators again: a third pin on the exact lane's integer sweeps
        code, out, _ = invoke(
            ["synthesize", "--input", files["bool5"], "--states", "full", "--seed", "7", "--format", "structured"]
        )
        assert code == 0
        report = json.loads(out)
        del report["input"]
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == "fce7ae895c89924c9501d16fb2824f90f78922466e998758779407c3fac25515"

    @pytest.mark.parametrize("residual", ["symmetry", "slack"])
    def test_exact_lane_passes_only_on_exact_zeros(self, files, monkeypatch, residual):
        # a residual of 1e-9 is within the float tolerance but not zero: the exact lane fails it
        from ucpspace import synthesis

        if residual == "symmetry":
            monkeypatch.setattr(synthesis.ProductModel, "worst_symmetry", lambda self: (F(1, 10**9), (1, 2)))
        else:
            laws = synthesis.check_laws_on_reconstruction

            def nudged(model, **kwargs):
                report = laws(model, **kwargs)
                report.square_sum_slack = F(-1, 10**9)
                return report

            monkeypatch.setattr(synthesis, "check_laws_on_reconstruction", nudged)
        code, out, _ = invoke(["synthesize", "--input", files["bool3"], "--states", "full", "--format", "structured"])
        assert code == 1
        assert json.loads(out)["passed"] is False


class TestOptions:
    # argparse ends a call with bad options by exiting 2 after a usage message
    def usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        return capsys.readouterr().err

    @pytest.mark.parametrize(
        "input_name, extra, message",
        [
            ("bool3", ["--samples", "-3"], "--samples: expected a positive integer"),
            ("qubit_projs", ["--samples", "-3"], "--samples: expected a positive integer"),
            ("bool3", ["--samples", "0"], "--samples: expected a positive integer"),
            ("bool3", ["--tol", "0"], "--tol: expected a positive finite number"),
            ("bool3", ["--tol", "-1"], "--tol: expected a positive finite number"),
            ("bool3", ["--tol", "nan"], "--tol: expected a positive finite number"),
            ("bool3", ["--seed", "-1"], "--seed: expected a non-negative integer"),
        ],
    )
    def test_bad_synthesize_value(self, files, capsys, input_name, extra, message):
        states = ["--states", "full"] if input_name == "bool3" else []
        err = self.usage_error(capsys, ["synthesize", "--input", files[input_name], *states, *extra])
        assert message in err and "Traceback" not in err

    def test_bad_verify_samples(self, files, capsys):
        argv = ["verify", "--input", files["bool3"], "--states", "full", "--samples", "0", "mixture"]
        assert "--samples: expected a positive integer" in self.usage_error(capsys, argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--input", "x", "--tol", "-1", "--replay", "nowhere.json", "--samples", "-9",
             "--states", "full"],
            ["spectrum", "--input", "x", "--seed", "1"],
            ["condition", "--input", "x", "1", "2", "--replay", "f.json"],
            ["condition", "--input", "x", "--samples", "5", "1"],
            ["verify", "--input", "x", "--tol", "1e-6"],
        ],
        ids=["spectrum-all", "spectrum-seed", "condition-replay", "condition-samples", "verify-tol"],
    )
    def test_unread_option(self, capsys, argv):
        assert "unrecognized arguments" in self.usage_error(capsys, argv)


class TestEntryPoint:
    def test_module_invocation(self, files):
        proc = subprocess.run(
            [sys.executable, "-m", "ucpspace.cli", "verify", "--input", files["bool3"]],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "verify: PASS" in proc.stdout

    def test_decimal_state_file_exits_2(self, files):
        # in a real process an uncaught exception exits 1, which would read as a verified failure
        proc = subprocess.run(
            [sys.executable, "-m", "ucpspace.cli", "verify", "--input", files["bool2"],
             "--states", files["decimal_states"], "separation"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "input error: line 3: " in proc.stderr

    @pytest.mark.parametrize("command, text, where", [
        (["spectrum"], "matrix v1\ntag R\nn 2\n1 nan\nnan 0\n", "line 4: non-finite"),
        (["spectrum"], "matrix v1\ntag R\nn 2\n1 1e999\n1e999 0\n", "line 4: non-finite"),
        (["condition", "1", "2"], "projections v1\ntag R\nn 2\ncount 3\nnan 0\n0 0.5\n1 0\n0 0\n0 0\n0 1\n",
         "line 5: non-finite"),
        (["spectrum"], "observable v1\nterm 1e999 1\n", "line 2: bad value"),
        (["verify"], "orthospace v1\nn_events -1\nzero 0\nunit 0\n", "n_events must be in 1.."),
        (["spectrum"], "matrix v1\ntag R\nn 0\n", "line 3: n must be"),
        (["synthesize"], "matrix v1\ntag R\nn 0\n", "line 3: n must be"),
        (["spectrum"], "projections v1\ntag R\nn 2\ncount 0\n", "line 4: count must be"),
    ], ids=["matrix-nan", "matrix-overflow", "density-nan", "observable-overflow", "n-events-negative",
            "spectrum-n-zero", "synthesize-n-zero", "count-zero"])
    def test_non_finite_or_bad_size_exits_2(self, tmp_path, command, text, where):
        # each of these once printed nan or inf and passed, or raised an uncaught error (exit 1)
        path = tmp_path / "input.txt"
        path.write_text(text)
        proc = subprocess.run([sys.executable, "-m", "ucpspace.cli", command[0], "--input", str(path), *command[1:]],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"input error: {where}" in proc.stderr

    def test_numpy_is_the_only_dependency_imported(self):
        # the CLI, the clique search and the matrix kernel import nothing
        # outside the standard library, numpy and the package itself
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import numpy as np\n"
            "from ucpspace import cli, kernels, orthospace\n"
            "orthospace.maximal_orthogonal_families(orthospace.boolean_orthospace(3))\n"
            "kernels.matmul(np.ones((2, 2, 8)), np.ones((2, 2, 8)))\n"
            "loaded = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "print(sorted(loaded - set(sys.stdlib_module_names) - {'numpy', 'ucpspace'}))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_one_parser_serves_back_to_back_calls(self, files):
        # the parser is built once per process, so no parsed value may carry
        # over: each call must print what it prints with a freshly built parser
        calls = [
            ["verify", "--input", files["bool3"], "--states", "full", "--seed", "3", "--samples", "4",
             "--format", "structured", "axioms", "mixture"],
            ["condition", "--input", files["qubit_cond"], "--format", "structured", "1", "2"],
            ["synthesize", "--input", files["qubit_projs"], "--seed", "5", "--format", "structured"],
            ["verify", "--input", files["bool3"], "--format", "structured"],
            ["condition", "--input", files["qubit_cond"], "3"],
        ]
        back_to_back = [invoke(argv) for argv in calls]
        assert cli.build_parser() is cli.build_parser()
        for argv, got in zip(calls, back_to_back):
            cli.build_parser.cache_clear()
            assert invoke(argv) == got
        assert [code for code, _, _ in back_to_back] == [0, 0, 0, 0, 0]

    def test_command_required(self):
        with pytest.raises(SystemExit):
            cli.main([])
