"""Structured text formats must round-trip bit-exactly and fail with line numbers."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucpspace import fileio, instances, jordan, orthospace, synthesis
from ucpspace.errors import ParseError
from ucpspace.statespace import State, build_state_polytope

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

    def test_value_text_by_type(self):
        # a Fraction or an int as itself, a bool as 1 or 0, anything else (numpy numbers too) as repr(float)
        values = (F(1, 3), F(2), -2, True, False, np.int64(1), np.float64(0.5), 0.25)
        assert [fileio._format_value(v) for v in values] == ["1/3", "2", "-2", "1", "0", "1.0", "0.5", "0.25"]

    @pytest.mark.parametrize("den", [1, 2, 12, 3**41, 2**64 + 1])
    def test_exact_texts_are_the_fraction_texts(self, den):
        # 0, 1, integers, negatives, values in lowest terms and not, numerators and denominators past 64 bits
        ints = [0, den, -den, 2 * den, 1, -1, 6, -9, 2**70, -(2**70) - 3, den - 1, 3**41 * 5]
        assert fileio.exact_texts(ints, den) == [str(F(v, den)) for v in ints]

    def test_state_text_from_the_integer_form(self):
        mu = State.from_integers([0, 3, 2**69, 2**70], 2**70)
        text = fileio.format_states([mu])
        assert text.splitlines()[-1] == "state " + " ".join(str(v) for v in mu.values)

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
        # each compression comes back as its dim x dim matrix over basis_events
        basis = model.basis_compressions()
        assert sorted(back["compressions"]) == list(bool2.events())
        for e, mat in back["compressions"].items():
            assert mat.shape == (back["dim"], back["dim"]) and np.array_equal(mat, basis[e])
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
        assert mat.shape == (synth.dim, synth.dim)
        # shortest-repr floats read back bit for bit
        basis = model.basis_compressions()
        assert all(np.array_equal(m, basis[e]) for e, m in back["compressions"].items())

    def test_v1_dump_is_rejected(self, qubit):
        # v1 wrote each compression over the generators; a v1 text must not read as a v2 one
        synth = synthesis.matrix_synthetic_space(qubit)
        model = synthesis.build_product_model(synth, synthesis.lueders_expansion_oracle(synth, qubit))
        payload = fileio.synth_dump(model)
        assert payload["format"] == fileio.DUMP_FORMAT == "synthetic-space v2"
        payload["format"] = "synthetic-space v1"
        with pytest.raises(ParseError, match="expected a 'synthetic-space v2' dump, got format 'synthetic-space v1'"):
            fileio.parse_dump(fileio.dump_to_json(payload))


class TestMalformedDump:
    """Every malformed dump is a ParseError, not the exception of whatever step met it first."""

    @pytest.fixture()
    def payload(self, qubit):
        synth = synthesis.matrix_synthetic_space(qubit)
        model = synthesis.build_product_model(synth, synthesis.lueders_expansion_oracle(synth, qubit))
        return json.loads(fileio.dump_to_json(fileio.synth_dump(model)))

    def test_not_an_object(self):
        with pytest.raises(ParseError, match="^expected a JSON object, got list$"):
            fileio.parse_dump("[]")

    def test_missing_field(self):
        with pytest.raises(ParseError, match="^dump has no 'exact' field$"):
            fileio.parse_dump('{"format": "synthetic-space v2"}')

    def test_missing_pairing(self, payload):
        del payload["pairing"]
        with pytest.raises(ParseError, match="^dump has no 'pairing' field$"):
            fileio.parse_dump(json.dumps(payload))

    def test_non_integer_compression_key(self, payload):
        payload["compressions"]["x"] = payload["compressions"].pop("0")
        with pytest.raises(ParseError, match="^compression key 'x' is not an event index$"):
            fileio.parse_dump(json.dumps(payload))

    def test_not_json(self):
        with pytest.raises(ParseError, match="^dump is not JSON: "):
            fileio.parse_dump("synthetic-space v2\n")

    @pytest.mark.parametrize("exact", [False, True])
    def test_matrix_of_non_numbers(self, payload, exact):
        payload["exact"] = exact
        payload["pairing"] = [["a"]]
        with pytest.raises(ParseError, match="^malformed dump matrix: "):
            fileio.parse_dump(json.dumps(payload))


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

# Lists held in many places: their memoized text must match at every indent they appear at.
_ROW, _STRINGS, _PAIR, _TUPLE = [1, 2.5, None], ["a, b", "], [", 'say "hi"', "Lüders \u2014 ü"], [0.5, -1], (F(1, 2), 3)
_MATRIX, _STRING_ROWS = [_PAIR, _PAIR], [_STRINGS, ["x"], _STRINGS]
CORPUS += [
    # one list at two indents, and twice at one indent
    {"a": _ROW, "b": [_ROW, _ROW], "c": {"d": _ROW, "e": [[_ROW]]}},
    {"s": _STRINGS, "t": [_STRINGS, {"u": _STRINGS}], "v": [[_STRINGS]]},
    {"t": _TUPLE, "u": [_TUPLE, _TUPLE, [_TUPLE]], "w": ((1, 2), (1, 2))},
    # a shared list inside a shared list: the matrix and its rows, the string rows and theirs
    {"m": _MATRIX, "n": [_MATRIX, _PAIR, {"o": _MATRIX}], "p": _PAIR},
    {"r": _STRING_ROWS, "s": [_STRING_ROWS, [_STRING_ROWS], _STRINGS], "mixed": [_STRINGS, _PAIR], "q": [_PAIR, [_PAIR]]},
    # escapes: separators inside strings, quotes, backslashes, control and non-ASCII characters
    ["a, b", "], [", '"', "\\", "tab\there\nnewline", "\u00e9\u2014\U0001f600", "\x00"],
    [["a, b", "], ["], ['"], ["'], ["\u2014"]],
    {'"key"': 1, "k\u00e9y": 2, "a, b": 3, "], [": 4},
    # True beside 1: equal values of distinct types
    [True, 1, False, 0, 1.0],
    {"k": [1, True], "l": [[1, True], [True, 1]], True: 1, 1.5: True, "v": (True, "x", 1)},
    # scalar nan, +-inf and -0.0, alone, as values and beside strings
    float("nan"), float("inf"), -float("inf"), -0.0,
    {"n": float("nan"), "i": float("inf"), "m": -float("inf"), "z": -0.0, "row": ["x", float("nan"), -0.0, np.float64("inf")]},
    # sibling arrays: each tolist() temporary is freed after use unless the writer keeps it,
    # and the next one can reuse its id
    [np.arange(3.0) + i for i in range(40)],
    {"m": [np.full((2, 2), i) for i in range(40)], "s": [np.array(["a", str(i)]) for i in range(40)]},
    {str(i): np.arange(i % 3 + 1) * i for i in range(40)},
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

    @pytest.mark.parametrize("bad", [object(), np.bool_(True), {"k": [1, {"deep": object()}]}, [1, np.bool_(False)],
                                     [[1, 2], [np.bool_(True)]], {"row": ["a", np.bool_(True)]}])
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


_NUMBERS = st.one_of(st.integers(), st.floats(), st.booleans(), st.none())
_SCALARS = st.one_of(
    st.text(max_size=4),
    _NUMBERS,
    st.fractions(max_denominator=30),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats().map(np.float64),
)


@st.composite
def _shared_trees(draw):
    """A list of dicts, lists and tuples, each built over scalars and the ones before it: one object sits at several depths.

    Each container draws its scalars from one kind, and its children from the
    scalars, the containers before it or both, so rows of numbers, lists of
    strings and matrices are common.
    """
    pool = []
    for _ in range(draw(st.integers(1, 6))):
        kids = leaf = draw(st.sampled_from([st.text(max_size=4), _NUMBERS, _SCALARS]))
        if pool:
            earlier = st.sampled_from(pool)
            kids = draw(st.sampled_from([leaf, earlier, st.one_of(leaf, earlier)]))
        shape = draw(st.sampled_from([list, tuple, dict]))
        if shape is dict:
            pool.append(draw(st.dictionaries(st.one_of(st.text(max_size=3), st.integers(-3, 3)), kids, max_size=4)))
        else:
            pool.append(shape(draw(st.lists(kids, max_size=4))))
    return pool


@settings(max_examples=40, deadline=None)
@given(_shared_trees())
def test_json_text_matches_the_stdlib_on_shared_trees(tree):
    assert fileio.json_text(tree) == json.dumps(reference_clean(tree), sort_keys=True, indent=2)
