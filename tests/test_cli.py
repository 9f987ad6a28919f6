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

from ucpspace import cli, fileio, instances, jordan, orthospace, statespace, synthesis
from ucpspace.errors import CapacityError, SynthesisError


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
    paths["mo4"] = put("mo4.txt", fileio.format_orthospace(instances.mo_orthospace(4)))
    paths["mo31"] = put("mo31.txt", fileio.format_orthospace(instances.mo_orthospace(31)))
    paths["mo32"] = put("mo32.txt", fileio.format_orthospace(instances.mo_orthospace(32)))
    paths["bool4"] = put("bool4.txt", fileio.format_orthospace(orthospace.boolean_orthospace(4)))
    paths["bool5"] = put("bool5.txt", fileio.format_orthospace(orthospace.boolean_orthospace(5)))
    paths["bool6"] = put("bool6.txt", fileio.format_orthospace(orthospace.boolean_orthospace(6)))
    coefficient_two = fileio.format_orthospace(orthospace.boolean_orthospace(3)).rstrip("\n")
    paths["coefficient_two"] = put("coefficient_two.txt", coefficient_two + "\northo 1 1\nsum 1 1 6\n")
    paths["bad"] = put("bad.txt", "orthospace v1\nevents x\n")
    paths["bool2"] = put("bool2.txt", fileio.format_orthospace(orthospace.boolean_orthospace(2)))
    paths["bool1"] = put("bool1.txt", fileio.format_orthospace(orthospace.boolean_orthospace(1)))
    # a decimal token where a state value must be exact
    paths["decimal_states"] = put("decimal_states.txt", "states v1\nn_events 4\nstate 0 0.5 0.5 1\n")

    mu = instances.boolean_state((F(1, 5), F(3, 10), F(1, 2)))
    paths["mu3"] = put("mu3.txt", fileio.format_states([mu]))
    mu = instances.boolean_state((F(1, 7), F(2, 7), F(3, 14), F(5, 14)))
    paths["mu4"] = put("mu4.txt", fileio.format_states([mu]))
    # a state of the coefficient-two space: its row 2 mu(1) = mu(6) holds at atoms (1/3, 1/6, 1/2)
    paths["coefficient_two_mu"] = put("coefficient_two_mu.txt",
                                      fileio.format_states([instances.boolean_state((F(1, 3), F(1, 6), F(1, 2)))]))
    paths["no_states"] = put("no_states.txt", "states v1\nn_events 8\n")
    # GENERATED states on MO_3: the six cross-polytope states, then the vertex (1, 1, 1) and the
    # point (1, 0, 1/2)
    def mo3_state(ps):
        return statespace.State((F(0), *(v for p in ps for v in (F(p), 1 - F(p))), F(1)))

    paths["mo3_mixed"] = put("mo3_mixed.txt", fileio.format_states([mo3_state([F(1, 3), F(2, 5), F(5, 7)])]))
    # two Boolean 3 blocks glued along 0 and 1, and a mixture of three of its vertices
    b3b3 = orthospace.horizontal_sum([orthospace.boolean_orthospace(3)] * 2)
    paths["b3b3"] = put("b3b3.txt", fileio.format_orthospace(b3b3))
    g = statespace.build_state_polytope(b3b3).generators
    mixed = statespace.mix_states(g[0], statespace.mix_states(g[2], g[4], F(2, 5)), F(1, 3))
    paths["b3b3_mixed"] = put("b3b3_mixed.txt", fileio.format_states([mixed]))

    cross = instances.cross_states(3)
    paths["mo3_cross"] = put("mo3_cross.txt", fileio.format_states(cross))
    paths["mo8"] = put("mo8.txt", fileio.format_orthospace(instances.mo_orthospace(8)))
    for k in (4, 8):
        paths[f"mo{k}_cross"] = put(f"mo{k}_cross.txt", fileio.format_states(instances.cross_states(k)))
    paths["mo3_generated"] = put("mo3_generated.txt", fileio.format_states(
        cross + [mo3_state([1, 1, 1]), mo3_state([1, 0, F(1, 2)])]))
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

    # the default qutrit family (seed 5): 35 generators, 26 events, dim 9
    paths["qutrit5"] = put("qutrit5.txt", fileio.format_elements(instances.qutrit_instance(seed=5).elements))
    # compressing its generic rank-1 event by the rank-2 diagonal one leaves the event span
    paths["sparse"] = put("sparse.txt", fileio.format_elements(instances.sparse_conditioning_instance().elements))

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

    def test_one_atom_has_one_state(self, files):
        # Boolean 1: the full polytope is the one state (0, 1), and every check on it passes
        code, out, _ = invoke(["verify", "--input", files["bool1"], "--states", "full", "axioms", "separation",
                               "uniqueness"])
        assert code == 0
        assert "separation: pass (1 generators)" in out
        assert "uniqueness: all conditionals UNIQUE" in out
        assert out.rstrip().endswith("verify: PASS")

    def test_nonunique_conditionals_fail(self, files):
        code, out, _ = invoke(
            ["verify", "--input", files["mo2"], "--states", "full", "axioms", "uniqueness"]
        )
        assert code == 1
        assert "MULTIPLE" in out
        assert out.rstrip().endswith("verify: FAIL")

    @pytest.mark.parametrize("check", ["uniqueness", "mixture"])
    def test_past_vertex_cap_is_not_a_pass(self, files, check):
        # MO_32 has 66 events and 2^32 vertices: the adjacency work cap refuses it, so no generators to check
        code, out, err = invoke(["verify", "--input", files["mo32"], "--states", "full", check])
        assert code == 2
        assert out == ""
        assert "vertex enumeration" in err and "cap" in err

    def test_boolean10_past_vertex_cap_exits_promptly(self, tmp_path):
        # 1,024 events and 28,503 state equations: the state table is built, but it is past the table cap,
        # so no vertex enumeration or row reduction runs
        path = tmp_path / "bool10.txt"
        path.write_text(fileio.format_orthospace(orthospace.boolean_orthospace(10)))
        start = time.perf_counter()
        code, out, err = invoke(["verify", "--input", str(path), "--states", "full", "uniqueness"])
        assert time.perf_counter() - start < 10
        assert code == 2
        assert out == ""
        assert "1024 events" in err and "past the cap of 1000000 entries" in err

    def test_boolean9_past_table_cap_exits_promptly(self, tmp_path):
        # 512 events and 9,332 state equations: 4.8M table entries, past the table cap
        path = tmp_path / "bool9.txt"
        path.write_text(fileio.format_orthospace(orthospace.boolean_orthospace(9)))
        start = time.perf_counter()
        code, out, err = invoke(["verify", "--input", str(path), "--states", "full", "uniqueness"])
        assert time.perf_counter() - start < 10
        assert code == 2
        assert out == ""
        assert "512 events" in err and "9332 x 512 = 4777984 entries" in err

    def test_boolean7_full_polytope_under_the_table_cap(self, tmp_path):
        # 128 events and 968 state equations: 123,904 table entries, under the table cap
        path = tmp_path / "bool7.txt"
        path.write_text(fileio.format_orthospace(orthospace.boolean_orthospace(7)))
        code, out, _ = invoke(["verify", "--input", str(path), "--states", "full", "--seed", "0", "--samples", "10",
                               "axioms", "separation", "uniqueness", "mixture"])
        assert code == 0
        lines = out.splitlines()
        assert "separation: pass (7 generators)" in lines
        assert "uniqueness: all conditionals UNIQUE" in lines
        assert lines[-1] == "verify: PASS"

    def test_past_ray_work_cap_exits_promptly(self, files):
        # MO_31 has 64 events, under the table cap, and 2^31 vertices: the adjacency work cap refuses it
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

    def test_listed_witness_outside_the_hull_goes_stale(self, files, tmp_path):
        # listed states: a witness must lie in their hull, not only in the slice of the whole state
        # space.  MO_3's first five vertices leave its other three out; the first record whose slice
        # holds two of those, differing at some event, is forged with them as its witnesses
        space = instances.mo_orthospace(3)
        verts = statespace.build_state_polytope(space).generators
        listed = tmp_path / "listed.txt"
        listed.write_text(fileio.format_states(verts[:5]))
        code, out, _ = invoke(["verify", "--input", files["mo3"], "--states", str(listed), "uniqueness",
                               "--format", "structured"])
        assert code == 1
        report = json.loads(out)
        assert len(report["uniqueness"]) == 14
        path = tmp_path / "listed.json"
        path.write_text(out)
        argv = ["verify", "--replay", str(path), "--states", str(listed)]
        code, out, _ = invoke(argv)
        assert code == 0
        assert "STALE" not in out and "replay: 14/14 witnesses reproduced" in out

        polytope = statespace.generated_polytope(space, verts[:5])
        for rec in report["uniqueness"]:
            mu = statespace.State(tuple(F(v) for v in rec["state"]))
            slc = statespace.conditional_slice(polytope, mu, rec["event"])
            outside = [v for v in verts[5:] if slc.satisfied_by(v)]
            if len(outside) == 2 and outside[0] != outside[1]:
                break
        else:
            pytest.fail("no record's slice holds two vertices that are not listed")
        nu1, nu2 = outside
        rec["witnesses"] = [[fileio._format_value(v) for v in nu.values] for nu in (nu1, nu2)]
        rec["witness_event"] = next(i for i, (a, b) in enumerate(zip(nu1.values, nu2.values)) if a != b)
        path.write_text(json.dumps(report))
        code, out, _ = invoke(argv)
        assert code == 1
        stale = [line for line in out.splitlines() if "STALE" in line]
        assert stale == [f"uniqueness witness (state {rec['state_index']}, event {rec['event']}): STALE"]
        assert "replay: 13/14 witnesses reproduced" in out

    def test_axiom_witnesses_replay(self, files, tmp_path):
        # the stateless space fails two axioms, each with one witness: they reproduce on that space
        # and go stale on Boolean 2, which passes every axiom
        code, out, _ = invoke(["verify", "--input", files["stateless"], "axioms", "--format", "structured"])
        assert code == 1
        report = json.loads(out)
        assert [tag for tag, v in sorted(report["axioms"].items()) if v["witnesses"]] == [
            "difference-characterization", "unique-complement"]
        path = tmp_path / "axioms.json"
        path.write_text(out)
        code, out, _ = invoke(["verify", "--replay", str(path)])
        assert code == 0
        assert "STALE" not in out and "replay: 2/2 witnesses reproduced" in out
        code, out, _ = invoke(["verify", "--replay", str(path), "--input", files["bool2"]])
        assert code == 1
        assert sum("STALE" in line for line in out.splitlines()) == 2
        assert "replay: 0/2 witnesses reproduced" in out

    @pytest.mark.parametrize("value", [0, 1, ["a"]], ids=["fd-zero", "fd-one", "list"])
    def test_report_input_that_is_not_a_string_is_bad_input(self, files, tmp_path, value):
        # open() would read 0 as stdin and close fd 1 of this process; a list raised TypeError
        report, _ = self.run_structured(files)
        path = tmp_path / "input.json"
        path.write_text(json.dumps(report | {"input": value}))
        code, out, err = invoke(["verify", "--replay", str(path)])
        assert code == 2
        assert out == ""
        assert "input error: the report's input must be a path string" in err
        os.fstat(1)

    @pytest.mark.parametrize("report", ["passing", "input-only"])
    def test_report_with_nothing_to_replay_is_bad_input(self, files, tmp_path, report):
        # a report with no witness and no record would replay 0/0: nothing was checked, so no PASS
        if report == "passing":
            code, text, _ = invoke(["verify", "--input", files["bool2"], "--format", "structured"])
            assert code == 0
        else:
            text = json.dumps({"input": files["bool2"]})
        path = tmp_path / "empty.json"
        path.write_text(text)
        code, out, err = invoke(["verify", "--replay", str(path)])
        assert code == 2
        assert out == ""
        assert "no axiom witnesses and no uniqueness records; nothing was checked" in err

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

    def test_mo4_report_is_unchanged(self, files):
        # the MO_4 verify of the mo-multiple benchmark: its vertices, MULTIPLE witnesses and UNIQUE slices
        code, out, _ = invoke(["verify", "--input", files["mo4"], "--states", "full", "axioms", "separation",
                               "uniqueness", "--format", "structured"])
        assert code == 1
        report = json.loads(out)
        del report["input"]
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == "fec8038e8b3f057e1d68b209aa48a32ff7c5596549004ed19ac225267c8458c2"

    @pytest.mark.parametrize("input_name, states, event, want", [
        # an atom pins its block at (1, 0), so the slice has D' = 1
        ("mo3", "mo3_mixed", 3, "03a6db0e79f4d0ecdbf5d190208afd8c7259b424dd5ebd10b9c8d5197402e308"),
        # a two-atom event pins its block at (5/11, 6/11): D' = 11 and fractional witnesses
        ("b3b3", "b3b3_mixed", 9, "7f08cd832be942164c24ec978479544aee2c815643198203f6f2bd7a8a8a5466"),
    ], ids=["mo3", "b3b3"])
    def test_multiple_condition_report_is_unchanged(self, files, input_name, states, event, want):
        code, out, _ = invoke(["condition", "--input", files[input_name], "--states", files[states],
                               "--format", "structured", str(event)])
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] == "MULTIPLE"
        del report["input"]
        assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == want

    @pytest.mark.parametrize("input_name, states, observe, codes, want", [
        # every conditional of a Boolean 4 state with four unlike atoms is UNIQUE
        ("bool4", "mu4", ["5"], {0}, "1c9965b14f91ecf194c0d0ad996b47c27ab17327b9984ca8de868369a584e098"),
        # the coefficient-two row empties the slices where mu(1) / mu(e) and mu(6) / mu(e) break it
        ("coefficient_two", "coefficient_two_mu", [], {0, 1},
         "551a2e6ba1be6c5afdaf87ba82b6e1671ec7798640b2fd83ae72059db49982d3"),
    ], ids=["bool4", "coefficient-two"])
    def test_unique_and_empty_condition_reports_are_unchanged(self, files, input_name, states, observe, codes, want):
        # one digest over (exit code, report less its input path) under every event of positive mass
        with open(files[states], encoding="utf-8") as fh:
            mu = fileio.parse_states(fh.read())[0]
        runs = []
        for e in range(len(mu)):
            if mu[e] != 0:
                code, out, _ = invoke(["condition", "--input", files[input_name], "--states", files[states],
                                       "--format", "structured", str(e), *observe])
                report = json.loads(out)
                del report["input"]
                assert report.get("verdict", "UNIQUE") == {0: "UNIQUE", 1: "EMPTY"}[code]
                runs.append([code, report])
        assert {code for code, _ in runs} == codes
        assert hashlib.sha256(json.dumps(runs, sort_keys=True).encode()).hexdigest() == want

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

    @pytest.mark.parametrize("k", [4, 8])
    def test_cross_state_report_is_unchanged(self, files, k):
        # the listed-state LP path: every conditional of the cross-polytope states is UNIQUE, so the
        # report holds no uniqueness record and MO_4 and MO_8 give the same bytes; the synthesize
        # guard on the same states pins the conditionals themselves
        code, out, _ = invoke(["verify", "--input", files[f"mo{k}"], "--states", files[f"mo{k}_cross"],
                               "axioms", "uniqueness", "--format", "structured"])
        assert code == 0
        report = json.loads(out)
        del report["input"]
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == "a47be24d07ff1169d6894fab439e9c0ccd35b96ceff180584659beded5365d9a"


def pairwise_atoms(space):
    """Minimal nonzero events, asking orthospace.precedes of every pair."""
    return [
        e for e in space.events()
        if e != space.zero
        and not any(f not in (space.zero, e) and orthospace.precedes(space, f, e) for f in space.events())
    ]


@pytest.mark.parametrize(
    "space",
    [orthospace.boolean_orthospace(3), orthospace.boolean_orthospace(4), instances.mo_orthospace(3),
     orthospace.horizontal_sum([orthospace.boolean_orthospace(2), orthospace.boolean_orthospace(3)])],
    ids=["bool3", "bool4", "mo3", "hsum-2-3"],
)
def test_atoms_match_the_pair_loop(space):
    atoms = cli._atoms(space)
    assert atoms == pairwise_atoms(space) and atoms
    assert all(type(a) is int for a in atoms)


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

    def test_invalid_later_state_is_bad_input(self, files, tmp_path):
        # only the first state is conditioned, but every state in the file must be a state
        mu = instances.boolean_state((F(1, 5), F(3, 10), F(1, 2)))
        path = tmp_path / "second_invalid.txt"
        path.write_text(fileio.format_states([mu, statespace.State(tuple(2 * v for v in mu.values))]))
        code, out, err = invoke(["condition", "--input", files["bool3"], "--states", str(path), "3", "1"])
        assert code == 2
        assert out == ""
        assert "state 1 is invalid" in err


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
    def test_past_vertex_cap_is_bad_input(self, files):
        # MO_32 has 66 events and 2^32 vertices: the adjacency work cap refuses it, so no generators to synthesize from
        code, out, err = invoke(["synthesize", "--input", files["mo32"], "--states", "full"])
        assert code == 2
        assert out == ""
        assert "vertex enumeration" in err and "cap" in err

    def test_space_without_states_is_bad_input(self, files):
        code, out, err = invoke(["synthesize", "--input", files["stateless"], "--states", "full"])
        assert code == 2
        assert out == ""
        assert "has no states; nothing was checked" in err

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
        assert digest == "399a8362ed3d611151e8a70162a1bf01932c46512ef9add2bd6fd41eaa2fc8b2"

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
        assert digest == "c55da8769bba32d32af30a69d898d055d646add78939337c0d8f2768cd05e375"

    def test_boolean5_report_is_unchanged(self, files):
        # dimension 5 and larger numerators again: a third pin on the exact lane's integer sweeps
        code, out, _ = invoke(
            ["synthesize", "--input", files["bool5"], "--states", "full", "--seed", "7", "--format", "structured"]
        )
        assert code == 0
        report = json.loads(out)
        del report["input"]
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == "178094400825d1cef0bb7f5ffb8f245a0466b2fb71076c7afb1e2f4cc6028342"

    def test_mo4_cross_report_is_unchanged(self, files):
        # listed states: the oracle's conditionals come from the listed-state LPs; the density
        # check fails (exit 1), and the laws and the dump are in the report too
        code, out, _ = invoke(["synthesize", "--input", files["mo4"], "--states", files["mo4_cross"], "--seed", "7",
                               "--format", "structured"])
        assert code == 1
        report = json.loads(out)
        del report["input"]
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == "49541d7cbc48761306ba8f68cc0e9c4fb4eae5df343afa1ea381eb75dd95e48b"

    @pytest.mark.parametrize("input_name, seed, want", [
        # the float lane: Lüders oracle, compressions, decided and sampled laws, density certificate, dump
        ("qubit_projs", "5", "96fb3cd9d0289ad7c6c32ce04f38ab92d37be68645274245203a89aad6b26bff"),
        ("qutrit5", "7", "a19515f46cf507c3b0e9365df019a47ae31b9dfafecded5a8d8c7647c649ab88"),
    ])
    def test_float_report_is_unchanged(self, files, input_name, seed, want):
        code, out, _ = invoke(
            ["synthesize", "--input", files[input_name], "--seed", seed, "--format", "structured"]
        )
        assert code == 0
        report = json.loads(out)
        del report["input"]
        assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == want

    def test_box_past_the_vertex_cap_is_not_checked(self, files, monkeypatch):
        # enumerating the interval's vertices would pass the cap: box equality is not checked (null), every
        # other check runs, and pass or fail follows the extreme points (2 of 8 on the MO_3 cross states)
        argv = ["synthesize", "--input", files["mo3"], "--states", files["mo3_cross"], "--format", "structured"]
        code, out, _ = invoke(argv)
        assert code == 1 and json.loads(out)["density"]["box_equal"] is False
        monkeypatch.setattr(statespace, "_VERTEX_CAP", 10)
        with pytest.raises(CapacityError):
            synthesis.check_box_equality(synthesis.abstract_synthetic_space(
                instances.mo_orthospace(3), instances.cross_states(3)))
        code, out, err = invoke(argv)
        assert code == 1 and err == ""
        report = json.loads(out)
        assert report["density"] == {**report["density"], "box_equal": None, "extreme": 2, "of": 8}
        assert report["passed"] is False and "failed_check" not in report
        assert set(report["laws"].values()) == {0.0} and "dump" in report
        code, out, _ = invoke(argv[:-2])
        assert code == 1
        assert "interval equals hull: not checked" in out

    def test_qutrit_dump_is_over_basis_events(self, files):
        # each compression is written as dim x dim over basis_events: about 98 KB here, where
        # n_states x n_states over the generators (35 x 35) made a 1.0 MB report
        code, out, _ = invoke(["synthesize", "--input", files["qutrit5"], "--seed", "7", "--format", "structured"])
        assert code == 0
        report = json.loads(out)
        dim = report["dim"]
        assert (dim, report["n_states"]) == (9, 35)
        compressions = report["dump"]["compressions"]
        assert len(compressions) == report["n_events"]
        assert all(np.shape(m) == (dim, dim) for m in compressions.values())
        assert len(out.encode()) < 150_000

    def test_failed_check_after_the_build_exits_1(self, files):
        # the model builds, but a law-sweep product leaves the event span: a failed check, not bad input
        code, out, err = invoke(["synthesize", "--input", files["sparse"], "--seed", "7", "--format", "structured"])
        assert code == 1
        assert "input error" not in err
        report = json.loads(out)
        assert report["passed"] is False
        assert report["failed_check"] == {"stage": "laws", "message": "element lies outside the event span"}
        assert "laws" not in report and "dump" not in report
        code, out, _ = invoke(["synthesize", "--input", files["sparse"], "--seed", "7"])
        assert code == 1
        assert out.splitlines()[-2:] == ["laws check failed: element lies outside the event span", "synthesize: FAIL"]

    @pytest.mark.parametrize("stage", ["dump", "density"])
    def test_failed_check_names_its_stage(self, files, monkeypatch, stage):
        def fails(*args, **kwargs):
            raise SynthesisError(f"stand-in {stage} failure")

        target = (synthesis.ProductModel, "basis_compressions") if stage == "dump" else (synthesis, "check_hull_density")
        monkeypatch.setattr(*target, fails)
        code, out, _ = invoke(["synthesize", "--input", files["qubit_projs"], "--format", "structured"])
        assert code == 1
        report = json.loads(out)
        assert report["passed"] is False
        assert report["failed_check"] == {"stage": stage, "message": f"stand-in {stage} failure"}

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



@pytest.mark.parametrize("argv", [
    ["verify", "--input", "{mo3}", "--states", "full", "uniqueness"],
    ["verify", "--input", "{mo4}", "--states", "full", "axioms", "separation", "uniqueness"],
    ["verify", "--input", "{bool4}", "--states", "full", "--seed", "0", "--samples", "10",
     "axioms", "separation", "uniqueness", "mixture"],
    ["verify", "--input", "{mo4}", "--states", "{mo4_cross}", "axioms", "uniqueness"],
    ["verify", "--input", "{mo3}", "--states", "{mo3_generated}", "uniqueness"],
    ["condition", "--input", "{mo3}", "--states", "{mo3_mixed}", "3"],
    ["condition", "--input", "{b3b3}", "--states", "{b3b3_mixed}", "9"],
    ["condition", "--input", "{bool4}", "--states", "{mu4}", "3", "5"],
    ["condition", "--input", "{qubit_cond}", "1", "2"],
    ["synthesize", "--input", "{bool3}", "--states", "full", "--seed", "7"],
    ["synthesize", "--input", "{mo4}", "--states", "{mo4_cross}", "--seed", "7"],
    ["synthesize", "--input", "{qubit_projs}", "--seed", "5"],
    ["synthesize", "--input", "{qutrit5}", "--seed", "7"],
], ids=["verify-mo3", "verify-mo4", "verify-bool4", "verify-mo4-cross", "verify-mo3-generated", "condition-mo3",
        "condition-b3b3", "condition-bool4", "condition-qubit", "synthesize-bool3", "synthesize-mo4-cross",
        "synthesize-qubit", "synthesize-qutrit"])
def test_structured_text_is_json_indent_2(files, argv):
    # the sha256 guards hash a re-encoding of the report, so they cannot see the printed text's
    # whitespace, separators or escapes: this pins those bytes to json's own sorted, indent-2 text
    _, out, _ = invoke([a.format(**files) for a in argv] + ["--format", "structured"])
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"

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
            ("bool3", ["--samples", "1.5"], "--samples: expected a positive integer"),
            ("bool3", ["--samples", "nan"], "--samples: expected a positive integer"),
            ("bool3", ["--seed", "x"], "--seed: expected a non-negative integer"),
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
            # the float lane's bound is synthesis.FLOAT_TOL, and no option sets it
            ["synthesize", "--input", "x", "--tol", "1e-6"],
        ],
        ids=["spectrum-all", "spectrum-seed", "condition-replay", "condition-samples", "verify-tol",
             "synthesize-tol"],
    )
    def test_unread_option(self, capsys, argv):
        assert "unrecognized arguments" in self.usage_error(capsys, argv)


class TestEntryPoint:
    @pytest.mark.parametrize("command", ["verify", "condition", "synthesize", "spectrum"])
    def test_input_required(self, command):
        code, out, err = invoke([command])
        assert code == 2
        assert out == ""
        assert f"input error: {command} needs --input" in err

    def test_module_invocation(self, files):
        proc = subprocess.run(
            [sys.executable, "-m", "ucpspace.cli", "verify", "--input", files["bool3"]],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "verify: PASS" in proc.stdout

    def test_failed_check_after_the_build_exits_1(self, files):
        proc = subprocess.run(
            [sys.executable, "-m", "ucpspace.cli", "synthesize", "--input", files["sparse"], "--seed", "7",
             "--format", "structured"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and "input error" not in proc.stderr
        assert json.loads(proc.stdout)["failed_check"]["stage"] == "laws"

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
