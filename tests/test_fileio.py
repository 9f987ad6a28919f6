"""Structured text formats must round-trip bit-exactly and fail with line numbers."""

from fractions import Fraction

import numpy as np
import pytest

from ucpspace import fileio, instances, jordan, synthesis
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
