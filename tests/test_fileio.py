"""Structured text formats must round-trip bit-exactly and fail with line numbers."""

import json
from fractions import Fraction

import numpy as np
import pytest

from ucpspace import fileio, instances, jordan, orthospace, synthesis
from ucpspace.errors import ParseError
from ucpspace.statespace import build_state_polytope

F = Fraction


class TestOrthospaceFormat:
    @pytest.mark.parametrize("build", ["bool2", "bool3", "mo2"])
    def test_roundtrip_bit_exact(self, build, request):
        space = request.getfixturevalue(build)
        text = fileio.format_orthospace(space)
        back = fileio.parse_orthospace(text)
        assert back == space
        assert fileio.format_orthospace(back) == text

    def test_comments_and_blanks_ignored(self, bool2):
        text = fileio.format_orthospace(bool2)
        noisy = "# generated\n\n" + text.replace("\n", "\n# pad\n", 1)
        assert fileio.parse_orthospace(noisy) == bool2

    def test_bad_integer_line_numbered(self):
        with pytest.raises(ParseError, match=r"line 2"):
            fileio.parse_orthospace("orthospace v1\nn_events x\n")

    def test_missing_complement_rejected(self, bool2):
        text = fileio.format_orthospace(bool2)
        trimmed = "\n".join(
            ln for ln in text.splitlines() if not ln.startswith("comp 3")
        )
        with pytest.raises(ParseError):
            fileio.parse_orthospace(trimmed)

    def test_wrong_header(self):
        with pytest.raises(ParseError):
            fileio.parse_orthospace("states v1\n")

    @pytest.mark.parametrize("n", [-1, 0, orthospace.MAX_EVENTS + 1])
    def test_event_count_out_of_range(self, n):
        with pytest.raises(ParseError, match=r"n_events must be in 1\.\."):
            fileio.parse_orthospace(f"orthospace v1\nn_events {n}\nzero 0\nunit 0\n")


class TestStatesFormat:
    def test_roundtrip_rationals(self, bool3):
        mu = instances.boolean_state([F(1, 5), F(3, 10), F(1, 2)])
        nu = instances.boolean_state([F(1, 3), F(1, 3), F(1, 3)])
        text = fileio.format_states([mu, nu])
        back = fileio.parse_states(text)
        assert len(back) == 2
        assert back[0].values == mu.values
        assert back[1].values == nu.values
        assert fileio.format_states(back) == text

    def test_bad_fraction(self):
        with pytest.raises(ParseError, match=r"line"):
            fileio.parse_states("states v1\nstate 1/0\n")

    @pytest.mark.parametrize("token", ["0.5", "5e-1", "1.0"])
    def test_decimal_value_is_bad_input(self, token):
        # a state is exact; an observable still takes decimals (TestObservableFormat.test_float_values)
        with pytest.raises(ParseError, match=r"^line 3: .*decimal"):
            fileio.parse_states(f"states v1\nn_events 4\nstate 0 {token} 1/2 1\n")


class TestElementsFormat:
    def test_matrix_roundtrip(self):
        el = jordan.diag("R", [2, -1])
        text = fileio.format_elements([el])
        tag, n, els = fileio.parse_elements(text)
        assert (tag, n) == ("R", 2)
        assert np.array_equal(els[0].coords, el.coords)
        assert fileio.format_elements(els) == text

    def test_projections_roundtrip(self, qubit):
        text = fileio.format_elements(qubit.system.elements, header=fileio.PROJECTIONS_HEADER)
        tag, n, els = fileio.parse_elements(text)
        assert (tag, n) == ("C", 2)
        assert len(els) == len(qubit.system.elements)
        for a, b in zip(els, qubit.system.elements):
            assert np.array_equal(a.coords, b.coords)
        assert fileio.format_elements(els, header=fileio.PROJECTIONS_HEADER) == text

    def test_float_exactness(self):
        # repr round-trip keeps every bit of an awkward float
        c = np.zeros((2, 2, 2))
        c[0, 1, 0] = c[1, 0, 0] = 0.1 + 0.2  # 0.30000000000000004
        c[0, 1, 1] = 1 / 3
        c[1, 0, 1] = -1 / 3
        el = jordan.element("C", c)
        _, _, (back,) = fileio.parse_elements(fileio.format_elements([el]))
        assert np.array_equal(back.coords, el.coords)

    def test_bad_tag(self):
        with pytest.raises(ParseError):
            fileio.parse_elements("matrix v1\nalgebra X 2\n")

    @pytest.mark.parametrize("text, line", [
        ("matrix v1\ntag R\nn 2\n1 nan\nnan 0\n", 4),
        ("matrix v1\ntag R\nn 2\n1 0\n0 1e999\n", 5),
        ("matrix v1\ntag R\nn 0\n", 3),
        ("matrix v1\ntag R\nn -2\n", 3),
        ("projections v1\ntag R\nn 2\ncount 0\n", 4),
    ], ids=["nan", "overflow", "n-zero", "n-negative", "count-zero"])
    def test_bad_entries_and_sizes_line_numbered(self, text, line):
        with pytest.raises(ParseError, match=rf"^line {line}: "):
            fileio.parse_elements(text)

    def test_octonion_tag(self):
        el = jordan.diag("O3", [1, 0, 0])
        tag, n, (back,) = fileio.parse_elements(fileio.format_elements([el]))
        assert tag == "O3" and n == 3
        assert np.array_equal(back.coords, el.coords)


class TestObservableFormat:
    def test_roundtrip(self):
        support = ((F(2), 1), (F(-1), 2))
        text = fileio.format_observable(support)
        back = fileio.parse_observable(text)
        assert tuple(back) == support
        assert fileio.format_observable(back) == text

    def test_float_values(self):
        support = ((0.5, 1), (-3.25, 2))
        back = fileio.parse_observable(fileio.format_observable(support))
        assert tuple(back) == support

    @pytest.mark.parametrize("token", ["1e999", "-1.5e400"])
    def test_non_finite_value_rejected(self, token):
        with pytest.raises(ParseError, match=rf"^line 2: bad value '{token}'"):
            fileio.parse_observable(f"observable v1\nterm {token} 1\n")


class TestSniff:
    def test_headers_distinguish(self, bool2):
        assert fileio.sniff_header(fileio.format_orthospace(bool2)) == (
            fileio.ORTHOSPACE_HEADER
        )
        assert fileio.sniff_header("observable v1\n") == fileio.OBSERVABLE_HEADER
        assert fileio.sniff_header("") == ""
        assert fileio.sniff_header("# only comments\n") == ""


class TestSynthDump:
    def test_dump_roundtrip_exact(self, bool2):
        poly = build_state_polytope(bool2)
        synth = synthesis.abstract_synthetic_space(bool2, poly.generators)
        oracle = synthesis.polytope_expansion_oracle(synth, poly)
        model = synthesis.build_product_model(synth, oracle)
        payload = fileio.synth_dump(model)
        text = fileio.dump_to_json(payload)
        back = fileio.parse_dump(text)
        assert back["format"] == fileio.DUMP_FORMAT
        assert back["dim"] == payload["dim"]
        assert back["exact"] is True
        assert back["basis_events"] == list(payload["basis_events"])
        # exact entries come back as Fractions
        for row in back["pairing"]:
            for v in row:
                assert isinstance(v, Fraction)
        assert back["pairing"].tolist() == [
            [F(v) for v in row] for row in payload["pairing"]
        ]
        # deterministic serialization
        assert fileio.dump_to_json(payload) == text

    def test_dump_float_lane(self, qubit):
        synth = synthesis.matrix_synthetic_space(qubit)
        oracle = synthesis.lueders_expansion_oracle(synth, qubit)
        model = synthesis.build_product_model(synth, oracle)
        text = fileio.dump_to_json(fileio.synth_dump(model))
        back = fileio.parse_dump(text)
        assert back["exact"] is False
        assert back["dim"] == 4
        key = next(iter(back["compressions"]))
        mat = np.array(back["compressions"][key], dtype=np.float64)
        assert mat.shape == (synth.n_states, synth.n_states)


class TestMatrixPayload:
    def test_float_array_is_native_tolist(self, rng):
        mat = rng.normal(size=(4, 5))
        payload = fileio._matrix_payload(mat)
        assert payload == [[float(v) for v in row] for row in mat]
        assert all(type(v) is float for row in payload for v in row)

    def test_fraction_array_becomes_strings(self):
        mat = np.empty((2, 2), dtype=object)
        mat[:] = [[Fraction(1, 3), Fraction(0)], [Fraction(-2), Fraction(5, 7)]]
        assert fileio._matrix_payload(mat) == [["1/3", "0"], ["-2", "5/7"]]


def reference_clean(obj):
    """JSON-safe copy that json.dumps takes: Fractions to p/q strings, numpy values to natives."""
    if type(obj) in (float, int, str, bool, type(None)):
        return obj
    if isinstance(obj, dict):
        return {str(k): reference_clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_clean(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return reference_clean(obj.tolist())
    return obj


CORPUS = [
    {2: "two", 10: "ten", 1: [1, 2]},
    {"b": F(1, 3), "a": [F(-2), F(0), F(5, 7)], F(1, 2): "half"},
    {"i": np.int64(-7), "f": np.float64(0.1), "row": [np.int64(3), np.float64(2.5)]},
    {"scalar": np.array(1.25), "int_scalar": np.array(4), "matrix": np.arange(6.0).reshape(2, 3) / 7},
    {"object": np.array([[F(1, 3), F(2)], [F(0), F(-1, 4)]], dtype=object)},
    [float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 1e-300, 1e300],
    {"empty_list": [], "empty_dict": {}, "nested": [[], {}, [[]]], "": None},
    {"text": "Lüders \u2014 \"quoted\", comma", "flags": [True, False, None]},
    ("tuple", (1, 2.5), ((F(1, 2),),)),
    [[0.1, 2, True, None], [1.5, "mixed", 2.0], [[0.25, 0.5]]],
    3.5,
    "plain",
    None,
    F(7, 3),
    # lists of rows: a matrix of plain numbers is encoded in one call, anything else row by row
    {"m": [[1.5, -2.0], [3, 0.25]], "t": ((1, 2), (3, 4)), "empty_row": [[1.5, 2], []], "leading": [[], [1]]},
    [[0.1, 0.2, 0.3, 1e-300]],
    [[0.1], [2], [-3.5]],
    [[1, True, None], [False, 2, 0.5]],
    [[float("nan"), float("inf")], [-float("inf"), -0.0]],
    [[1, 2], ["a, b", 3]],
    [[0.5, F(1, 2)], [1, 2]],
    {"nested": {"matrix": [[1e300, -1e-300], [7, 8]]}, "arrays": [np.arange(2.0), np.arange(2.0) / 3]},
]


class TestJsonText:
    @pytest.mark.parametrize("obj", CORPUS, ids=range(len(CORPUS)))
    def test_matches_json_dumps_of_the_clean_copy(self, obj):
        assert fileio.json_text(obj) == json.dumps(reference_clean(obj), sort_keys=True, indent=2)

    def test_float_rows_match(self, rng):
        report = {"rows": rng.normal(size=(5, 7)) * 10.0 ** rng.integers(-20, 20, size=(5, 7)), "n": 3}
        assert fileio.json_text(report) == json.dumps(reference_clean(report), sort_keys=True, indent=2)

    def test_keeps_natives_and_converts_the_rest(self):
        report = {"a": [1.5, 2, "x", None, True], "b": np.float64(0.25), "c": F(1, 3), "d": np.arange(2), 3: (F(2),)}
        back = json.loads(fileio.json_text(report))
        assert back == {"a": [1.5, 2, "x", None, True], "b": 0.25, "c": "1/3", "d": [0, 1], "3": ["2"]}
        assert type(back["b"]) is float and type(back["d"][0]) is int

    @pytest.mark.parametrize("bad", [object(), np.bool_(True), {"k": [1, {"deep": object()}]}])
    def test_unserializable_raises_like_json(self, bad):
        with pytest.raises(TypeError) as want:
            json.dumps(reference_clean(bad), sort_keys=True, indent=2)
        with pytest.raises(TypeError) as got:
            fileio.json_text(bad)
        assert str(got.value) == str(want.value)
        assert str(got.value).endswith("is not JSON serializable")

    def test_dump_to_json_is_the_same_text(self, qubit):
        synth = synthesis.matrix_synthetic_space(qubit)
        model = synthesis.build_product_model(synth, synthesis.lueders_expansion_oracle(synth, qubit))
        payload = fileio.synth_dump(model)
        assert fileio.dump_to_json(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"
