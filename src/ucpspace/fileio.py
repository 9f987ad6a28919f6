"""Structured text formats for event systems, states, matrices, observables.

Every format is line-based with a versioned header, skips blank lines and
'#' comments, and round-trips bit-exactly: integers as decimals, rationals
as p/q strings, reals as shortest-repr decimals.  The synthetic-space dump
is JSON so regression diffs stay readable.
"""

import json
import math
from fractions import Fraction

import numpy as np

from . import jordan, orthospace, statespace
from .errors import ParseError

ORTHOSPACE_HEADER = "orthospace v1"
STATES_HEADER = "states v1"
MATRIX_HEADER = "matrix v1"
PROJECTIONS_HEADER = "projections v1"
OBSERVABLE_HEADER = "observable v1"
DUMP_FORMAT = "synthetic-space v1"


def _lines(text):
    """(line number, stripped content) pairs, comments and blanks removed."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        s = raw.split("#", 1)[0].strip()
        if s:
            out.append((i, s))
    return out


def _fail(lineno, msg):
    raise ParseError(f"line {lineno}: {msg}")


def sniff_header(text):
    """First meaningful line of the file, or an empty string."""
    lines = _lines(text)
    return lines[0][1] if lines else ""


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
    lines = _expect_header(_lines(text), ORTHOSPACE_HEADER)
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
        return str(Fraction(v))
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


def format_states(states):
    out = [STATES_HEADER]
    out.append(f"n_events {len(states[0]) if states else 0}")
    for st in states:
        out.append("state " + " ".join(_format_value(v) for v in st.values))
    return "\n".join(out) + "\n"


def parse_states(text):
    lines = _expect_header(_lines(text), STATES_HEADER)
    n = _keyed_int(lines, 0, "n_events")
    out = []
    for lineno, s in lines[1:]:
        parts = s.split()
        if parts[0] != "state":
            _fail(lineno, f"unrecognized record '{s}'")
        if len(parts) != n + 1:
            _fail(lineno, f"state needs {n} values")
        state = statespace.State(tuple(_parse_value(p, lineno) for p in parts[1:]))
        if not state.exact:
            _fail(lineno, "a state value is an integer or p/q, not a decimal")
        out.append(state)
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
    lines = _lines(text)
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
    lines = _expect_header(_lines(text), OBSERVABLE_HEADER)
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
    """Regression-diffable payload: space shape, pairing, compression matrices."""
    synth = model.synth
    return {
        "format": DUMP_FORMAT,
        "dim": synth.dim,
        "exact": synth.exact,
        "n_events": synth.space.n_events,
        "n_states": synth.n_states,
        "basis_events": list(synth.basis_events),
        "pairing": _matrix_payload(synth.pairing),
        "compressions": {
            str(e): _matrix_payload(model.compressions[e].matrix)
            for e in sorted(model.compressions)
        },
    }


_NATIVE = frozenset((float, int, str, bool, type(None)))
_ROW_SCALARS = _NATIVE - {str}
# With indent unset the standard encoder runs in C: one call per scalar or per row of numbers.
_encode = json.JSONEncoder().encode


def json_text(obj):
    """`json.dumps(obj, sort_keys=True, indent=2)`, with Fractions as p/q strings and numpy values as natives.

    Dict keys go through `str` before they are sorted; tuples and arrays are
    written as lists.  A row of plain numbers, and a list of non-empty such
    rows, is encoded in one call and the indented separators are spliced in:
    no number's text contains ", " or "], [".  Anything else raises json's
    TypeError.
    """
    out = []
    _write_json(obj, "\n", out)
    return "".join(out)


def _write_json(obj, nl, out):
    """Append obj's text to out; nl is the newline plus the indent of obj's own line."""
    if type(obj) in _NATIVE:
        out.append(_encode(obj))
    elif isinstance(obj, dict):
        items = {str(k): v for k, v in obj.items()}
        if not items:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(items):
            out.append(sep + _encode(k) + ": ")
            _write_json(items[k], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        if _ROW_SCALARS.issuperset(map(type, obj)):
            out.append("[" + inner + _encode(obj)[1:-1].replace(", ", "," + inner) + nl + "]")
            return
        # a matrix of plain numbers; the first entry turns away the lists of records and of string rows cheaply
        head = obj[0]
        if type(head) in (list, tuple) and head and type(head[0]) in _ROW_SCALARS and all(
            type(row) in (list, tuple) and row and _ROW_SCALARS.issuperset(map(type, row)) for row in obj
        ):
            # "[[a, b], [c, d]]": the separators between rows first, then those between entries
            row = inner + "  "
            body = _encode(obj)[2:-2].replace("], [", inner + "]," + inner + "[" + row).replace(", ", "," + row)
            out.append("[" + inner + "[" + row + body + inner + "]" + nl + "]")
            return
        sep = "[" + inner
        for v in obj:
            out.append(sep)
            _write_json(v, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(obj, np.ndarray):
        _write_json(obj.tolist(), nl, out)
    else:
        out.append(_encode(_jsonable(obj)))


def dump_to_json(payload):
    return json_text(payload) + "\n"


def _entry(v):
    if isinstance(v, str):
        return Fraction(v)
    return v


def parse_dump(text):
    """Dict with pairing/compressions as arrays (Fractions when dumped exact)."""
    payload = json.loads(text)
    if payload.get("format") != DUMP_FORMAT:
        raise ParseError("not a synthetic-space dump")
    def arr(rows):
        if payload["exact"]:
            m = np.empty((len(rows), len(rows[0])), dtype=object)
            for i, row in enumerate(rows):
                for j, v in enumerate(row):
                    m[i, j] = _entry(v)
            return m
        return np.array(rows, dtype=np.float64)
    payload["pairing"] = arr(payload["pairing"])
    payload["compressions"] = {int(e): arr(m) for e, m in payload["compressions"].items()}
    return payload
