"""Structured text formats for event systems, states, matrices, observables.

Every format is line-based with a versioned header, skips blank lines and
'#' comments, and round-trips bit-exactly: integers as decimals, rationals
as p/q strings, reals as shortest-repr decimals.  The synthetic-space dump
is JSON so regression diffs stay readable.  Its format "synthetic-space v2"
writes each compression U_e as a dim x dim matrix W_e over basis_events
(column k holds the coordinates of U_e pi(b_k)), checked on the way to lie in
the event span; v1, which wrote U_e over the generators, is no longer read.
"""

import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string

import numpy as np

from . import jordan, orthospace, statespace
from .errors import ParseError

ORTHOSPACE_HEADER = "orthospace v1"
STATES_HEADER = "states v1"
MATRIX_HEADER = "matrix v1"
PROJECTIONS_HEADER = "projections v1"
OBSERVABLE_HEADER = "observable v1"
DUMP_FORMAT = "synthetic-space v2"


def _lines(text):
    """(line number, stripped content) of each line in turn, comments and blanks skipped."""
    for i, raw in enumerate(text.splitlines(), start=1):
        s = raw.split("#", 1)[0].strip()
        if s:
            yield i, s


def _fail(lineno, msg):
    raise ParseError(f"line {lineno}: {msg}")


def sniff_header(text):
    """First meaningful line of the file, or an empty string; no line after it is read."""
    return next(_lines(text), (0, ""))[1]


def _expect_header(lines, want):
    if not lines or lines[0][1] != want:
        got = lines[0][1] if lines else "empty file"
        raise ParseError(f"expected header '{want}', got '{got}'")
    return lines[1:]


def _keyed_int(lines, idx, key):
    if idx >= len(lines):
        raise ParseError(f"missing '{key}' line")
    lineno, s = lines[idx]
    parts = s.split()
    if len(parts) != 2 or parts[0] != key:
        _fail(lineno, f"expected '{key} <int>'")
    try:
        return int(parts[1])
    except ValueError:
        _fail(lineno, f"bad integer for '{key}'")


# ---------------------------------------------------------------------------
# orthospace


def format_orthospace(space):
    out = [ORTHOSPACE_HEADER]
    out.append(f"n_events {space.n_events}")
    out.append(f"zero {space.zero}")
    out.append(f"unit {space.unit}")
    for e in range(space.n_events):
        for f in range(e, space.n_events):
            if space.ortho[e, f]:
                out.append(f"ortho {e} {f}")
    for e in range(space.n_events):
        for f in range(e, space.n_events):
            if space.sum_table[e, f] >= 0:
                out.append(f"sum {e} {f} {int(space.sum_table[e, f])}")
    for e in range(space.n_events):
        out.append(f"comp {e} {int(space.complement[e])}")
    return "\n".join(out) + "\n"


def parse_orthospace(text):
    lines = _expect_header(list(_lines(text)), ORTHOSPACE_HEADER)
    n = _keyed_int(lines, 0, "n_events")
    if not 1 <= n <= orthospace.MAX_EVENTS:
        raise ParseError(f"n_events must be in 1..{orthospace.MAX_EVENTS}, got {n}")
    zero = _keyed_int(lines, 1, "zero")
    unit = _keyed_int(lines, 2, "unit")
    ortho = np.zeros((n, n), dtype=bool)
    sums = -np.ones((n, n), dtype=np.int64)
    comp = -np.ones(n, dtype=np.int64)
    for lineno, s in lines[3:]:
        parts = s.split()
        kind = parts[0]
        try:
            args = [int(p) for p in parts[1:]]
        except ValueError:
            _fail(lineno, "non-integer argument")
        if any(not 0 <= a < n for a in args):
            _fail(lineno, "event id out of range")
        if kind == "ortho" and len(args) == 2:
            e, f = args
            ortho[e, f] = ortho[f, e] = True
        elif kind == "sum" and len(args) == 3:
            e, f, s_ = args
            sums[e, f] = sums[f, e] = s_
        elif kind == "comp" and len(args) == 2:
            comp[args[0]] = args[1]
        else:
            _fail(lineno, f"unrecognized record '{s}'")
    missing = np.flatnonzero(comp < 0)
    if len(missing):
        raise ParseError(f"no complement recorded for event {int(missing[0])}")
    return orthospace.OrthoSpace(
        n_events=n, zero=zero, unit=unit, ortho=ortho, sum_table=sums, complement=comp
    )


# ---------------------------------------------------------------------------
# states


def _format_value(v):
    if isinstance(v, (Fraction, int)):
        return str(v if isinstance(v, Fraction) else int(v))  # int() writes a bool as 1 or 0
    return repr(float(v))


def _parse_value(token, lineno):
    try:
        if "/" in token:
            return Fraction(token)
        if "." in token or "e" in token or "E" in token:
            v = float(token)
            if not math.isfinite(v):
                raise ValueError(token)
            return v
        return Fraction(int(token))
    except (ValueError, ZeroDivisionError):
        _fail(lineno, f"bad value '{token}'")


def exact_texts(ints, den):
    """The text of each value v / den (den > 0) of an integer form, as `str(Fraction(v, den))` writes it: the
    numerator alone when the value is an integer, else "p/q" in lowest terms."""
    if den == 1:  # a vertex of a Boolean or MO_k polytope: 0s and 1s
        return [str(v) for v in ints]
    out = []
    for v in ints:
        g = math.gcd(v, den)
        out.append(str(v // g) if g == den else f"{v // g}/{den // g}")
    return out


def format_states(states):
    out = [STATES_HEADER]
    out.append(f"n_events {len(states[0]) if states else 0}")
    for st in states:
        out.append("state " + " ".join(exact_texts(*st.integers)))
    return "\n".join(out) + "\n"


def parse_states(text):
    lines = _expect_header(list(_lines(text)), STATES_HEADER)
    n = _keyed_int(lines, 0, "n_events")
    out = []
    for lineno, s in lines[1:]:
        parts = s.split()
        if parts[0] != "state":
            _fail(lineno, f"unrecognized record '{s}'")
        if len(parts) != n + 1:
            _fail(lineno, f"state needs {n} values")
        try:
            out.append(statespace.State(tuple(_parse_value(p, lineno) for p in parts[1:])))
        except TypeError:
            _fail(lineno, "a state value is an integer or p/q, not a decimal")
    return out


# ---------------------------------------------------------------------------
# matrices and projection lists


def _format_element_rows(el):
    n, k = el.n, jordan.coord_dim(el.tag)
    rows = []
    for i in range(n):
        rows.append(" ".join(repr(float(el.coords[i, j, c])) for j in range(n) for c in range(k)))
    return rows


def format_elements(elements, header=None):
    """Projection-list format; a single element uses the matrix header."""
    if not elements:
        raise ParseError("nothing to write")
    tag, n = elements[0].tag, elements[0].n
    single = len(elements) == 1 and header is None or header == MATRIX_HEADER
    out = [MATRIX_HEADER if single else PROJECTIONS_HEADER]
    out.append(f"tag {tag}")
    out.append(f"n {n}")
    if not single:
        out.append(f"count {len(elements)}")
    for el in elements:
        out.extend(_format_element_rows(el))
    return "\n".join(out) + "\n"


def _parse_tag_n(lines):
    if len(lines) < 2:
        raise ParseError("missing tag/n lines")
    lineno, s = lines[0]
    parts = s.split()
    if len(parts) != 2 or parts[0] != "tag":
        _fail(lineno, "expected 'tag <R|C|H|O3>'")
    tag = parts[1]
    if tag not in ("R", "C", "H", "O3"):
        _fail(lineno, f"unknown algebra tag '{tag}'")
    n = _keyed_int(lines, 1, "n")
    if n < 1:
        _fail(lines[1][0], "n must be at least 1")
    return tag, n, lines[2:]


def _parse_element(tag, n, rows):
    k = jordan.coord_dim(tag)
    coords = np.zeros((n, n, k))
    for i, (lineno, s) in enumerate(rows):
        parts = s.split()
        if len(parts) != n * k:
            _fail(lineno, f"matrix row needs {n * k} reals")
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            _fail(lineno, "bad real entry")
        if not all(map(math.isfinite, vals)):
            _fail(lineno, "non-finite real entry")
        coords[i] = np.array(vals).reshape(n, k)
    return jordan.element(tag, coords)


def parse_elements(text):
    """(tag, n, elements) from either the matrix or the projections header."""
    lines = list(_lines(text))
    if not lines:
        raise ParseError("empty file")
    header = lines[0][1]
    if header == MATRIX_HEADER:
        tag, n, rest = _parse_tag_n(lines[1:])
        count = 1
    elif header == PROJECTIONS_HEADER:
        tag, n, rest = _parse_tag_n(lines[1:])
        count = _keyed_int(rest, 0, "count")
        if count < 1:
            _fail(rest[0][0], "count must be at least 1")
        rest = rest[1:]
    else:
        raise ParseError(f"expected a matrix or projections header, got '{header}'")
    if len(rest) != count * n:
        raise ParseError(f"expected {count * n} matrix rows, found {len(rest)}")
    els = [_parse_element(tag, n, rest[i * n : (i + 1) * n]) for i in range(count)]
    return tag, n, els


# ---------------------------------------------------------------------------
# observables


def format_observable(support):
    out = [OBSERVABLE_HEADER]
    for v, e in support:
        out.append(f"term {_format_value(v)} {int(e)}")
    return "\n".join(out) + "\n"


def parse_observable(text):
    """Raw (value, event) pairs; validation happens against a concrete space."""
    lines = _expect_header(list(_lines(text)), OBSERVABLE_HEADER)
    out = []
    for lineno, s in lines:
        parts = s.split()
        if len(parts) != 3 or parts[0] != "term":
            _fail(lineno, f"expected 'term <value> <event>', got '{s}'")
        v = _parse_value(parts[1], lineno)
        try:
            e = int(parts[2])
        except ValueError:
            _fail(lineno, "bad event id")
        out.append((v, e))
    return out


# ---------------------------------------------------------------------------
# synthetic-space dump (JSON)


def _jsonable(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    return v


def _matrix_payload(mat):
    """Nested lists of JSON values; a float array's `tolist()` is already native."""
    mat = np.asarray(mat)
    if mat.dtype != object:
        return mat.tolist()
    return [[_jsonable(v) for v in row] for row in mat.tolist()]


def synth_dump(model):
    """Regression-diffable payload: space shape, pairing, and each compression over basis_events.

    Compression e is written as its dim x dim matrix W_e from
    `ProductModel.basis_compressions`: column k holds the coordinates of
    U_e pi(b_k) over basis_events.  Building it checks that U_e maps the span
    of the events into itself, and raises SynthesisError when it does not.
    """
    synth = model.synth
    return {
        "format": DUMP_FORMAT,
        "dim": synth.dim,
        "exact": synth.exact,
        "n_events": synth.space.n_events,
        "n_states": synth.n_states,
        "basis_events": list(synth.basis_events),
        "pairing": _matrix_payload(synth.pairing_values()),
        "compressions": {str(e): _matrix_payload(w) for e, w in enumerate(model.basis_compressions())},
    }


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(v):
    text = float.__repr__(v)
    return _NON_FINITE.get(text, text)


# The text of each native scalar, by exact type, through the functions the standard encoder calls itself.
_SCALAR = {
    str: _string,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}
_ROW_SCALARS = frozenset(_SCALAR) - {str}
# With indent unset the standard encoder runs in C: one call per row or matrix of numbers.
_ENCODER = json.JSONEncoder()


def json_text(obj):
    """`json.dumps(obj, sort_keys=True, indent=2)`, with Fractions as p/q strings and numpy values as natives.

    Dict keys go through `str` before they are sorted; tuples and arrays are
    written as lists.  Each native scalar and key is written by the function
    the standard encoder itself calls for its type (`encode_basestring_ascii`,
    `int.__repr__`, `float.__repr__` with json's NaN and Infinity), with no
    encoder call of its own.  A row of plain numbers, and a list of non-empty
    such rows, is encoded in one C call and the indented separators are
    spliced in: no number's text contains ", " or "], [".  A list of strings
    is one join, and so is a list of non-empty lists that are each written in
    one piece.  Anything else raises json's TypeError.

    The text of each list written in one piece is memoized by (id, indent)
    for the length of the call, so a list that a report holds in many places
    is written once.  The memo keeps a reference to every list it has seen:
    no temporary (an ndarray's `tolist()`) can be freed and its id reused by
    another list while the call runs.  Every other list, a list of records
    say, streams into the output.
    """
    out = []
    _write_json(obj, "\n", out, {})
    return "".join(out)


def _write_json(obj, nl, out, memo):
    """Append obj's text to out; nl is the newline plus the indent of obj's own line."""
    scalar = _SCALAR.get(type(obj))
    if scalar is not None:
        out.append(scalar(obj))
    elif isinstance(obj, dict):
        items = {str(k): v for k, v in obj.items()}
        if not items:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(items):
            v = items[k]
            scalar = _SCALAR.get(type(v))
            if scalar is None:
                out.append(sep + _string(k) + ": ")
                _write_json(v, inner, out, memo)
            else:
                out.append(sep + _string(k) + ": " + scalar(v))
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        text = _list_text(obj, nl, memo)
        if text is not None:
            out.append(text)
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in obj:
            scalar = _SCALAR.get(type(v))
            if scalar is None:
                out.append(sep)
                _write_json(v, inner, out, memo)
            else:
                out.append(sep + scalar(v))
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(obj, np.ndarray):
        _write_json(obj.tolist(), nl, out, memo)
    else:
        v = _jsonable(obj)
        scalar = _SCALAR.get(type(v))
        if scalar is None:
            _ENCODER.default(v)  # raises json's own TypeError
        out.append(scalar(v))


def _list_text(obj, nl, memo):
    """The text of a non-empty list written in one piece, None for a list that streams; memoized by (id, indent).

    In one piece are a row of numbers, a list of strings, and a list of
    non-empty lists that are each in one piece (a matrix, a list of string rows).
    """
    key = (id(obj), nl)
    if key in memo:
        return memo[key][1]
    inner = nl + "  "
    types = set(map(type, obj))
    text = None
    if types <= _ROW_SCALARS:
        text = "[" + inner + _ENCODER.encode(obj)[1:-1].replace(", ", "," + inner) + nl + "]"
    elif types == {str}:
        text = "[" + inner + ("," + inner).join(map(_string, obj)) + nl + "]"
    elif types <= {list, tuple} and all(obj):
        if all(_ROW_SCALARS.issuperset(map(type, row)) for row in obj):
            # a matrix of numbers in one C call: "[[a, b], [c, d]]", the separators between rows first,
            # then those between entries
            row = inner + "  "
            body = _ENCODER.encode(obj)[2:-2].replace("], [", inner + "]," + inner + "[" + row).replace(", ", "," + row)
            text = "[" + inner + "[" + row + body + inner + "]" + nl + "]"
        else:
            rows = [_list_text(row, inner, memo) for row in obj]
            if None not in rows:
                text = "[" + inner + ("," + inner).join(rows) + nl + "]"
    memo[key] = (obj, text)
    return text


def dump_to_json(payload):
    return json_text(payload) + "\n"


def _entry(v):
    if isinstance(v, str):
        return Fraction(v)
    return v


def parse_dump(text):
    """Dict with pairing/compressions as arrays (Fractions when dumped exact); only the current format is read.

    Every malformed dump raises ParseError: text that is not JSON, JSON that
    is not an object, a missing field, a compression key that is not an
    event index, and a matrix that is not a rectangle of numbers.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"dump is not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ParseError(f"expected a JSON object, got {type(payload).__name__}")
    if payload.get("format") != DUMP_FORMAT:
        raise ParseError(f"expected a '{DUMP_FORMAT}' dump, got format {payload.get('format')!r}")
    missing = next((key for key in ("exact", "pairing", "compressions") if key not in payload), None)
    if missing is not None:
        raise ParseError(f"dump has no {missing!r} field")
    compressions = payload["compressions"]
    if not isinstance(compressions, dict):
        raise ParseError("'compressions' is not an object")
    bad = next((e for e in compressions if not e.isdecimal()), None)
    if bad is not None:
        raise ParseError(f"compression key {bad!r} is not an event index")

    def arr(rows):
        if payload["exact"]:
            m = np.empty((len(rows), len(rows[0])), dtype=object)
            for i, row in enumerate(rows):
                for j, v in enumerate(row):
                    m[i, j] = _entry(v)
            return m
        return np.array(rows, dtype=np.float64)

    try:
        payload["pairing"] = arr(payload["pairing"])
        payload["compressions"] = {int(e): arr(m) for e, m in compressions.items()}
    except (TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed dump matrix: {exc}") from None
    return payload
