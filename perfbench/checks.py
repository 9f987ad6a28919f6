"""Result checker: what each operation's report must say, derived from its inputs.

Each factory returns `check(code, result) -> list of problems`, where `code` is
the CLI exit code (None for a library call) and `result` is the parsed
structured report or the library call's return value.  An empty list means
the result is correct.

- Exact lane: exit codes, verdict lists, conditionals (p/q strings) and the
  mixture counts must match exactly.  MULTIPLE witnesses are checked by
  validity (two states, equal to the conditioning targets on the family,
  different at the named event), not by bytes, so an LP that returns other
  valid witnesses still passes.
- Float lane: `passed` must be set and every residual must be within
  `synthesis.FLOAT_TOL`; values are compared with a tolerance, never digested.
"""

import functools
from fractions import Fraction
from itertools import product

import numpy as np

from ucpspace import instances, orthospace, statespace, synthesis

TOL = synthesis.FLOAT_TOL


def _code(code, want):
    return [] if code == want else [f"exit code {code}, expected {want}"]


def _flag(report, key, want):
    return [] if report.get(key) is want else [f"'{key}' is {report.get(key)!r}, expected {want}"]


def _small(report, keys):
    out = []
    for key in keys:
        value = report.get(key)
        if not isinstance(value, (int, float)) or not abs(value) <= TOL:
            out.append(f"residual '{key}' is {value!r}, above {TOL}")
    return out


def _axioms_pass(report):
    out = [] if report.get("structural") == [] else [f"structural issues {report.get('structural')}"]
    axioms = report.get("axioms") or {}
    if not axioms:
        out.append("no axiom verdicts")
    for tag, verdict in sorted(axioms.items()):
        if verdict != {"passed": True, "witnesses": []}:
            out.append(f"axiom {tag}: {verdict}")
    return out


def _separation_pass(report):
    sep = report.get("separation")
    return [] if sep == {"passed": True, "witness": None} else [f"separation {sep}"]


# ---------------------------------------------------------------------------
# verify


@functools.cache
def mixture_checked(n_atoms, cli_seed, samples):
    """How many mixture samples `verify --states full` checks on the Boolean n-atom space.

    Replays the CLI's draws over the full polytope's generators, in the order
    the polytope lists them: a sample is checked unless its event is 0 or
    carries no mass under the mixture (conditioning is then always defined).
    It runs at the first check, not when the workload is built, so building
    the polytope stays out of set-up time.
    """
    space = orthospace.boolean_orthospace(n_atoms)
    gens = statespace.build_state_polytope(space).generators
    rng = np.random.default_rng(cli_seed)
    checked = 0
    for _ in range(samples):
        mu, nu = gens[int(rng.integers(len(gens)))], gens[int(rng.integers(len(gens)))]
        s = Fraction(int(rng.integers(1, 4)), 4)
        e = int(rng.integers(space.n_events))
        if e != space.zero and statespace.mix_states(mu, nu, s)[e] != 0:
            checked += 1
    return checked


def verify_boolean(n_atoms, cli_seed, samples):
    """Full verify on a Boolean algebra: everything passes, every conditional UNIQUE."""

    def check(code, report):
        expected_mixture = {"checked": mixture_checked(n_atoms, cli_seed, samples), "failures": 0}
        out = _code(code, 0) + _flag(report, "passed", True)
        out += _axioms_pass(report) + _separation_pass(report)
        if report.get("uniqueness") != []:
            out.append(f"{len(report.get('uniqueness') or [])} non-UNIQUE conditionals, expected none")
        if report.get("mixture") != expected_mixture:
            out.append(f"mixture {report.get('mixture')}, expected {expected_mixture}")
        return out

    return check


def _mo_vertices(k):
    """0/1 states of MO_k: each complement pair takes (1, 0) or (0, 1)."""
    for bits in product((0, 1), repeat=k):
        values = [0]
        for b in bits:
            values += [b, 1 - b]
        yield tuple(values + [1])


def witness_problems(space, rec):
    """Validity of a MULTIPLE record's two witnesses (not their bytes)."""
    mu = [Fraction(v) for v in rec["state"]]
    e, at = rec["event"], rec.get("witness_event")
    witnesses = rec.get("witnesses") or []
    if len(witnesses) != 2 or at is None:
        return [f"state {rec['state']} event {e}: no witness pair"]
    nus = [[Fraction(v) for v in w] for w in witnesses]
    family = [f for f in space.events() if orthospace.precedes(space, f, e)]
    out = []
    for i, nu in enumerate(nus):
        ok, viol = statespace.is_state(space, statespace.State(tuple(nu)))
        if not ok:
            out.append(f"event {e}: witness {i} is not a state ({viol[0]})")
        bad = [f for f in family if nu[f] != mu[f] / mu[e]]
        if bad:
            out.append(f"event {e}: witness {i} misses the conditioning target at {bad}")
    if nus[0][at] == nus[1][at]:
        out.append(f"event {e}: witnesses agree at the named event {at}")
    return out


def verify_mo(k):
    """Verify on MO_k: axioms and separation pass; conditioning any vertex on an
    atom it certainly holds is MULTIPLE (k >= 2), every other conditional UNIQUE."""
    space = instances.mo_orthospace(k)
    expected = {
        (tuple(str(v) for v in vertex), e)
        for vertex in _mo_vertices(k)
        for e in range(1, 2 * k + 1)
        if vertex[e] == 1
    }

    def check(code, report):
        out = _code(code, 1) + _flag(report, "passed", False)
        out += _axioms_pass(report) + _separation_pass(report)
        records = report.get("uniqueness") or []
        got = [(tuple(rec["state"]), rec["event"]) for rec in records]
        if len(got) != len(expected) or set(got) != expected:
            out.append(f"{len(got)} non-UNIQUE records, expected the {len(expected)} (vertex, atom) pairs")
        for rec in records:
            if rec["verdict"] != statespace.MULTIPLE:
                out.append(f"state {rec['state']} event {rec['event']}: {rec['verdict']}, expected MULTIPLE")
            out += witness_problems(space, rec)
        return out

    return check


# ---------------------------------------------------------------------------
# condition


def condition_boolean(n_atoms, mu, e, f):
    """Classical conditioning: mu(g | e) = mu(g and e) / mu(e), exactly."""
    cond = [mu[g & e] / mu[e] for g in range(1 << n_atoms)]
    want = {
        "conditional": [str(v) for v in cond],
        "observed": str(cond[f]),
        "atoms": [1 << a for a in range(n_atoms)],
    }

    def check(code, report):
        out = _code(code, 0) + _flag(report, "passed", True)
        for key, value in want.items():
            if report.get(key) != value:
                out.append(f"'{key}' is {report.get(key)}, expected {value}")
        return out

    return check


def condition_multiple(code, report):
    """Conditioning on one atom of MO_k (k >= 2) leaves the other pairs free."""
    out = _code(code, 1) + _flag(report, "passed", False)
    if report.get("verdict") != statespace.MULTIPLE:
        out.append(f"verdict {report.get('verdict')}, expected MULTIPLE")
    return out


def _complex(coords):
    c = np.asarray(coords, dtype=float)
    return c[..., 0] + 1j * c[..., 1] if c.shape[-1] == 2 else c[..., 0].astype(complex)


def condition_density(rho, e, f):
    """Lüders conditioning in matrix form: e rho e / tr(rho e), and tr(cond f)."""
    r, em, fm = (_complex(x.coords) for x in (rho, e, f))
    expected = em @ r @ em / np.trace(r @ em).real
    observed = np.trace(expected @ fm).real

    def check(code, report):
        out = _code(code, 0) + _flag(report, "passed", True)
        got = _complex(report.get("conditional"))
        if got.shape != expected.shape or np.max(np.abs(got - expected)) > TOL:
            out.append("conditional differs from e rho e / tr(rho e)")
        if abs(report.get("trace", 0.0) - 1.0) > TOL:
            out.append(f"conditional trace {report.get('trace')}")
        if abs(report.get("observed", np.inf) - observed) > TOL:
            out.append(f"observed {report.get('observed')}, expected {observed}")
        return out

    return check


# ---------------------------------------------------------------------------
# synthesize

_RESIDUALS = ("worst_symmetry", "well_definedness", "compression_worst")


def _synth_common(report, n_events):
    out = _flag(report, "passed", True) + _small(report, _RESIDUALS)
    laws = report.get("laws") or {}
    out += _small(laws, ("jordan_identity", "square_norm", "power_associativity", "unit_residual"))
    if not laws.get("square_sum_slack", -1.0) >= -TOL:
        out.append(f"square-sum slack {laws.get('square_sum_slack')!r}, below {-TOL}")
    if report.get("n_events") != n_events:
        out.append(f"n_events {report.get('n_events')}, expected {n_events}")
    dens = report.get("density") or {}
    if not dens.get("of") or dens.get("extreme") != dens.get("of"):
        out.append(f"density {dens}")
    return out


def synthesize_boolean(n_atoms):
    """Exact synthesis from the n Dirac states: dimension n, every law exact."""

    def check(code, report):
        out = _code(code, 0) + _synth_common(report, 1 << n_atoms)
        for key in ("n_states", "dim"):
            if report.get(key) != n_atoms:
                out.append(f"'{key}' is {report.get(key)}, expected {n_atoms}")
        if (report.get("density") or {}).get("box_equal") is not True:
            out.append("order interval differs from the event hull")
        return out

    return check


def synthesize_blocked(code, report):
    """MO_k conditionals are MULTIPLE, so exact synthesis must stop with a blocked record."""
    out = _code(code, 1) + _flag(report, "passed", False)
    blocked = report.get("blocked") or {}
    if not isinstance(blocked.get("generator"), int) or not isinstance(blocked.get("event"), int):
        out.append(f"blocked record {blocked}")
    if statespace.MULTIPLE not in str(blocked.get("verdict")):
        out.append(f"blocked verdict {blocked.get('verdict')}, expected MULTIPLE")
    return out


def synthesize_matrix(n_events):
    """Float synthesis: the rebuilt product matches Lüders and the matrix product."""

    def check(code, report):
        return _code(code, 0) + _synth_common(report, n_events) + _small(report, ("match_lueders", "match_product"))

    return check


# ---------------------------------------------------------------------------
# spectrum


def spectrum_element(a):
    """Eigenvalues reproduce tr(a) and tr(a o a) (the squared coordinate norm);
    over R and C they also equal numpy's eigvalsh of the matrix."""
    trace = float(np.sum(a.coords[np.arange(a.n), np.arange(a.n), 0]))
    square = float(np.sum(a.coords**2))
    reference = np.linalg.eigvalsh(_complex(a.coords)) if a.tag in ("R", "C") else None

    def check(code, report):
        out = _code(code, 0) + _flag(report, "passed", True) + _small(report, ("frame_residual",))
        values, mult = report.get("eigenvalues") or [], report.get("multiplicity") or []
        if len(values) != len(mult) or sum(mult) != a.n:
            return out + [f"eigenvalues {values} with multiplicities {mult}"]
        full = np.repeat(np.asarray(values, dtype=float), mult)
        if abs(full.sum() - trace) > TOL or abs((full**2).sum() - square) > TOL:
            out.append(f"eigenvalues {values} miss the trace or the trace of the square")
        if reference is not None and np.max(np.abs(np.sort(full) - reference)) > TOL:
            out.append(f"eigenvalues {values}, numpy gives {reference.tolist()}")
        return out

    return check


# ---------------------------------------------------------------------------
# certainty order (library call)


def boolean_implies(e, f):
    """On a Boolean algebra, every state certain of e is certain of f iff e is a subset of f."""
    return e & f == e


def mo_implies(space):
    """On MO_k the only events certain whenever an atom is are the atom and the unit."""
    return lambda e, f: f in (e, space.unit)


def certainty_exact(space, implies):
    """Full polytope: the LP finds a state certain of e but not of f exactly
    when `implies(e, f)` fails; 0 is never certain."""

    def check(code, result):
        verdicts, passed = result
        out = [] if passed is True else ["certainty order fails"]
        if len(verdicts) != space.n_events * (space.n_events - 1):
            out.append(f"{len(verdicts)} verdicts, expected one per ordered pair")
        for v in verdicts:
            if v.e == space.zero:
                want = (False, True)
            else:
                want = (implies(v.e, v.f), False)
            if (v.hypothesis_holds, v.hypothesis_vacuous) != want or not v.passed:
                out.append(f"certainty ({v.e}, {v.f}): {v}")
        return out

    return check
