"""Command-line front end: verify, condition, synthesize, spectrum.

Exit codes are strict: 0 all checks pass, 1 a check verifiably fails (the
report carries a replayable witness), 2 the input could not be used.  With a
fixed --seed the structured output is bit-identical across runs on the same
platform; reports named by --replay are re-verified witness by witness.
"""

import argparse
import functools
import json
import sys
from fractions import Fraction

import numpy as np

from . import (
    fileio,
    instances,
    jordan,
    lueders,
    orthospace,
    statespace,
    synthesis,
)
from .errors import (
    CapacityError,
    ConditioningUndefinedError,
    DecompositionError,
    ParseError,
    PreconditionError,
    SynthesisError,
    UcpError,
)

PASS, FAIL, BAD_INPUT = 0, 1, 2


def _g(v):
    """Compact numeric formatting for text reports."""
    return f"{float(v):g}"


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")


def _load_states(space, path):
    """The states of a state file: at least one, each a state of the space, else a ParseError."""
    states = fileio.parse_states(_read(path))
    if not states:
        raise ParseError("state file holds no states")
    for ix, (ok, viol) in enumerate(statespace.check_states(space, states)):
        if not ok:
            raise ParseError(f"state {ix} is invalid: {viol[0]}")
    return states


def _load_polytope(space, states_arg):
    if states_arg == "full":
        return statespace.build_state_polytope(space)
    return statespace.generated_polytope(space, _load_states(space, states_arg))


def _atoms(space):
    """Minimal nonzero events: those that no nonzero event other than themselves precedes."""
    # below[f, e]: f precedes e, f ortho the complement of e (orthospace.precedes)
    below = space.ortho[:, space.complement]
    below[space.zero] = False
    np.fill_diagonal(below, False)
    return [e for e in np.flatnonzero(~below.any(axis=0)).tolist() if e != space.zero]


# ---------------------------------------------------------------------------
# verify


_CHECKS = ("axioms", "separation", "uniqueness", "mixture")


def _verify_axioms(space, report, lines):
    ax = orthospace.verify_orthospace(space)
    report["structural"] = [list(w) for w in ax.structural]
    report["axioms"] = {
        tag: {"passed": v.passed, "witnesses": [list(w) for w in v.witnesses]}
        for tag, v in ax.axioms.items()
    }
    for tag in sorted(ax.axioms):
        v = ax.axioms[tag]
        mark = "pass" if v.passed else f"FAIL {v.witnesses[:3]}"
        lines.append(f"axiom {tag}: {mark}")
    if ax.structural:
        lines.append(f"structural issues: {ax.structural}")
    return ax.passed


def _generators(polytope):
    """The polytope's generators, or PreconditionError for a space of no states; the full
    polytope's read raises CapacityError past the state table cap."""
    if not polytope.generators:
        raise PreconditionError("the orthospace has no states; nothing was checked")
    return polytope.generators


def _verify_uniqueness(space, polytope, report, lines):
    records = []
    all_unique = True
    # each state is written once, from its integer form, and so are the witnesses of each
    # verdict: the polytope hands out one verdict object per distinct slice, shared by every
    # record on that slice.  The records hold these lists themselves, not copies, so
    # `fileio.json_text` writes each shared state and witness list once and repeats its text
    witness_values = {}
    for ix, mu in enumerate(_generators(polytope)):
        state = None
        numerators = mu.integers[0]
        for e in space.events():
            if e == space.zero or numerators[e] == 0:
                continue
            verdict = statespace.check_conditional_uniqueness(polytope, mu, e)
            if verdict.verdict == statespace.UNIQUE:
                continue
            all_unique = False
            if state is None:
                state = fileio.exact_texts(*mu.integers)
            rec = {
                "state": state,
                "state_index": ix,
                "event": e,
                "verdict": verdict.verdict,
            }
            if verdict.witnesses:
                *nus, at = verdict.witnesses
                if id(verdict) not in witness_values:
                    witness_values[id(verdict)] = [fileio.exact_texts(*nu.integers) for nu in nus]
                rec["witnesses"] = witness_values[id(verdict)]
                rec["witness_event"] = at
                lines.append(
                    f"uniqueness: state {ix} under event {e} is {verdict.verdict}; "
                    f"witnesses differ at event {at}"
                )
            else:
                lines.append(f"uniqueness: state {ix} under event {e} is {verdict.verdict}")
            records.append(rec)
    report["uniqueness"] = records
    if all_unique:
        lines.append("uniqueness: all conditionals UNIQUE")
    return all_unique


def _verify_mixture(space, polytope, report, lines, rng, samples):
    gens = _generators(polytope)
    if len(gens) < 2:
        raise PreconditionError(
            f"mixture check needs at least two generator states, got {len(gens)}; nothing was checked"
        )
    checked = failures = 0
    for _ in range(samples):
        mu = gens[int(rng.integers(len(gens)))]
        nu = gens[int(rng.integers(len(gens)))]
        s = Fraction(int(rng.integers(1, 4)), 4)
        e = int(rng.integers(space.n_events))
        try:
            # a mixture with no mass on e (e = zero included) raises ConditioningUndefinedError
            rep = statespace.check_mixture_identity(polytope, mu, nu, s, e)
        except (PreconditionError, ConditioningUndefinedError):
            continue
        checked += 1
        if not rep.passed:
            failures += 1
    if checked == 0:
        raise PreconditionError(
            f"mixture check: none of {samples} sampled triples had positive mass and unique conditionals; "
            "nothing was checked"
        )
    report["mixture"] = {"checked": checked, "failures": failures}
    lines.append(f"mixture identity: {checked} sampled, {failures} failures")
    return failures == 0


def _verify_separation(polytope, report, lines):
    gens = _generators(polytope)
    sep = statespace.check_separation(polytope)
    report["separation"] = {"passed": sep.passed, "witness": sep.witness}
    verdict = "pass" if sep.passed else f"FAIL {sep.witness[:2]}"
    lines.append(f"separation: {verdict} ({len(gens)} generators)")
    return sep.passed


def cmd_verify(args):
    report = {"command": "verify", "input": args.input}
    lines = []
    space = fileio.parse_orthospace(_read(args.input))
    checks = args.extra or (["axioms", "separation", "uniqueness"] if args.states else ["axioms"])
    for c in checks:
        if c not in _CHECKS:
            raise ParseError(f"unknown check '{c}' (choose from {', '.join(_CHECKS)})")
    report["checks"] = checks
    # the axioms need no states, so they run (and their witnesses stand) before the polytope is
    # loaded, and with no other check pending it is not loaded at all
    ok = _verify_axioms(space, report, lines) if "axioms" in checks else True
    pending = [c for c in _CHECKS if c != "axioms" and c in checks]
    try:
        polytope = _load_polytope(space, args.states) if args.states and pending else None
        while pending:
            c = pending[0]
            if polytope is None:
                raise ParseError(f"{c} check needs --states")
            if c == "separation":
                ok &= _verify_separation(polytope, report, lines)
            elif c == "uniqueness":
                ok &= _verify_uniqueness(space, polytope, report, lines)
            else:
                rng = np.random.default_rng(args.seed)
                ok &= _verify_mixture(space, polytope, report, lines, rng, args.samples)
            pending.pop(0)
    except (CapacityError, PreconditionError) as exc:
        if ok:
            raise
        # a verified failure is already on record: keep it, and mark what could not run as not checked
        report["not_checked"] = {"checks": pending, "reason": str(exc)}
        lines.append(f"not checked ({', '.join(pending) or 'states'}): {exc}")
    report["passed"] = bool(ok)
    lines.append("verify: PASS" if ok else "verify: FAIL")
    return (PASS if ok else FAIL), report, lines


def _witnesses_hold(slc, witnesses):
    """A MULTIPLE record's witnesses (nu1, nu2, event), as _report_records parsed them, lie in
    the slice and differ at the event.  `satisfied_by` checks the range, the state equations
    of the polytope's state table and the targets, in integers and with no solver, and on
    listed states `in_polytope` their hull, one exact phase 1 a witness."""
    nu1, nu2, at = witnesses
    return nu1[at] != nu2[at] and all(slc.satisfied_by(nu) and statespace.in_polytope(slc.polytope, nu)
                                      for nu in (nu1, nu2))


def _event_index(space, value, what):
    """`value` as an event of the space: an int in 0..n_events-1, else a ParseError."""
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < space.n_events:
        raise ParseError(f"{what} must be in 0..{space.n_events - 1}, got {value!r}")
    return value


def _exact_state(space, values, what):
    """`values` as a State of the space: a list of n_events strings, each an integer or p/q."""
    if isinstance(values, list) and len(values) == space.n_events and all(isinstance(v, str) for v in values):
        try:
            return statespace.State(tuple(fileio._parse_value(v, 0) for v in values))
        except (ParseError, TypeError):  # a ParseError names a line, which a JSON report does not have
            pass
    raise ParseError(f"{what} must be {space.n_events} exact values (integer or p/q strings), got {values!r}")


def _report_records(prev, space):
    """A --replay report's (tag, witness) pairs and (state, event, verdict, record, witnesses) tuples.

    `witnesses` is (nu1, nu2, event) for a MULTIPLE record, else None.  A report of any
    other shape is a ParseError, so exit 1 stays for witnesses that do not reproduce.
    """
    try:
        axioms = [(tag, tuple(w)) for tag, data in (prev.get("axioms") or {}).items() for w in data.get("witnesses", [])]
        records = [(rec["state"], rec["event"], rec["verdict"], rec) for rec in prev.get("uniqueness") or []]
    except (AttributeError, KeyError, TypeError) as exc:
        raise ParseError(f"malformed report: {type(exc).__name__}: {exc}") from None
    for tag, w in axioms:
        if tag not in orthospace.AXIOMS:
            raise ParseError(f"unknown axiom tag {tag!r} in the report")
        length, events = orthospace.WITNESS_SHAPES[tag]
        if len(w) != length:
            raise ParseError(f"{tag} witness {list(w)} must have {length} entries")
        for v in w[:events]:
            _event_index(space, v, f"{tag} witness entry")
    parsed = []
    for state, e, verdict, rec in records:
        mu = _exact_state(space, state, "uniqueness record state")
        _event_index(space, e, "uniqueness record event")
        if mu[e] == 0:
            # `verify` writes no record for an event of zero mass: nothing to condition on
            raise ParseError(f"uniqueness record event {e} has zero mass under its state")
        witnesses = None
        if verdict == statespace.MULTIPLE:
            nus = rec.get("witnesses")
            if not isinstance(nus, list) or len(nus) != 2:
                raise ParseError(f"a MULTIPLE record needs two witnesses, got {nus!r}")
            witnesses = (*(_exact_state(space, nu, "MULTIPLE witness") for nu in nus),
                         _event_index(space, rec.get("witness_event"), "MULTIPLE witness_event"))
        parsed.append((mu, e, verdict, rec, witnesses))
    return axioms, parsed


def cmd_replay(args):
    report = {"command": "replay", "input": args.replay}
    lines = []
    try:
        prev = json.loads(_read(args.replay))
        path = args.input or prev.get("input")
    except (json.JSONDecodeError, AttributeError) as exc:
        raise ParseError(f"report {args.replay} is not a JSON object: {exc}") from None
    if path is None:
        raise ParseError("replay needs --input or an input path inside the report")
    space = fileio.parse_orthospace(_read(path))
    axioms, records = _report_records(prev, space)
    total = reproduced = 0
    for tag, w in axioms:
        total += 1
        hit = orthospace.replay_axiom_witness(space, tag, w)
        reproduced += bool(hit)
        lines.append(f"axiom {tag} witness {list(w)}: {'reproduced' if hit else 'STALE'}")
    polytope = _load_polytope(space, args.states or "full")
    for mu, e, want, rec, witnesses in records:
        total += 1
        verdict = statespace.check_conditional_uniqueness(polytope, mu, e)
        hit = verdict.verdict == want
        if hit and verdict.verdict == statespace.MULTIPLE:
            hit = _witnesses_hold(statespace.conditional_slice(polytope, mu, e), witnesses)
        reproduced += bool(hit)
        lines.append(
            f"uniqueness witness (state {rec.get('state_index')}, event {e}): "
            f"{'reproduced' if hit else 'STALE'}"
        )
    report["witnesses"] = total
    report["reproduced"] = reproduced
    ok = total == reproduced
    lines.append(f"replay: {reproduced}/{total} witnesses reproduced")
    report["passed"] = ok
    return (PASS if ok else FAIL), report, lines


# ---------------------------------------------------------------------------
# condition


def _condition_abstract(args, text, report, lines):
    space = fileio.parse_orthospace(text)
    if not args.states:
        raise ParseError("abstract conditioning needs --states")
    if args.states == "full":
        raise ParseError("abstract conditioning needs an explicit state file (first state is conditioned)")
    mu = _load_states(space, args.states)[0]
    e = _event_index(space, args.event, "event index")
    if args.observe is not None:
        _event_index(space, args.observe, "observe index")
    polytope = statespace.build_state_polytope(space)
    verdict = statespace.check_conditional_uniqueness(polytope, mu, e)
    report["slice_dim"] = verdict.slice_dim
    if verdict.verdict != statespace.UNIQUE:
        report["verdict"] = verdict.verdict
        lines.append(f"conditional under event {e} is {verdict.verdict}")
        return FAIL
    cond = verdict.conditional
    report["conditional"] = fileio.exact_texts(*cond.integers)
    lines.append(
        "conditional values: (" + ", ".join(_g(v) for v in cond.values) + ")"
    )
    atoms = _atoms(space)
    if atoms:
        lines.append(
            "conditional atoms: (" + ", ".join(_g(cond[a]) for a in atoms) + ")"
        )
        report["atoms"] = atoms
    lines.append(f"slice dimension: {verdict.slice_dim}")
    if args.observe is not None:
        val = cond[args.observe]
        report["observed"] = fileio._format_value(val)
        lines.append(f"mu(f|e) = {_g(val)}")
    return PASS


def _condition_matrix(args, text, report, lines):
    tag, n, blocks = fileio.parse_elements(text)
    if len(blocks) < 2:
        raise ParseError("matrix conditioning needs a density block and at least one event block")
    rho = lueders.DensityState(blocks[0])
    if not (1 <= args.event < len(blocks)):
        raise ParseError(f"event block index must be in 1..{len(blocks) - 1}")
    e = blocks[args.event]
    cond = lueders.condition(rho, e)
    report["trace"] = jordan.trace(cond.element)
    lines.append(f"conditioned density trace: {_g(jordan.trace(cond.element))}")
    if args.observe is not None:
        if not (1 <= args.observe < len(blocks)):
            raise ParseError(f"observe block index must be in 1..{len(blocks) - 1}")
        f = blocks[args.observe]
        val = lueders.conditional_probability(rho, f, e)
        report["observed"] = float(val)
        lines.append(f"mu(f|e) = {_g(val)}")
    report["conditional"] = cond.element.coords
    return PASS


def cmd_condition(args):
    report = {"command": "condition", "input": args.input, "event": args.event}
    lines = []
    text = _read(args.input)
    header = fileio.sniff_header(text)
    if args.event is None:
        raise ParseError("condition needs an event argument")
    if header == fileio.ORTHOSPACE_HEADER:
        code = _condition_abstract(args, text, report, lines)
    elif header in (fileio.MATRIX_HEADER, fileio.PROJECTIONS_HEADER):
        code = _condition_matrix(args, text, report, lines)
    else:
        raise ParseError(f"cannot condition on a '{header}' file")
    report["passed"] = code == PASS
    return code, report, lines


# ---------------------------------------------------------------------------
# synthesize


# the law residuals of a synthesize report, by field, with their labels in the text report
_LAWS = {"jordan_identity": "jordan", "square_norm": "square-norm", "square_sum_slack": "square-sum slack",
         "power_associativity": "power-assoc", "unit_residual": "unit"}


def _density_summary(synth, instance, rng, report, lines):
    dens = synthesis.check_hull_density(synth, rng=rng, instance=instance)
    n_ext = sum(1 for v in dens.extremes if v.extreme)
    entry = {"extreme": n_ext, "of": len(dens.extremes), "note": dens.note}
    msg = f"density: {n_ext}/{len(dens.extremes)} event images extreme"
    if dens.lane == "exact":
        # past the vertex cap box equality is not checked: null in the report
        entry["box_equal"] = None if dens.box is None else dens.box.equal
        entry["members"] = dens.samples_member
        msg += f"; interval equals hull: {'not checked' if dens.box is None else dens.box.equal}"
    if dens.separation is not None:
        msg += "; " + dens.note
    lines.append(msg)
    report["density"] = entry
    return n_ext == len(dens.extremes)


def cmd_synthesize(args):
    report = {"command": "synthesize", "input": args.input}
    lines = []
    text = _read(args.input)
    header = fileio.sniff_header(text)
    rng = np.random.default_rng(args.seed)
    instance = None
    if header == fileio.ORTHOSPACE_HEADER:
        space = fileio.parse_orthospace(text)
        if not args.states:
            raise ParseError("abstract synthesis needs --states (a file or 'full')")
        polytope = _load_polytope(space, args.states)
        synth = synthesis.abstract_synthetic_space(space, _generators(polytope))
        oracle = synthesis.polytope_expansion_oracle(synth, polytope)
    elif header in (fileio.MATRIX_HEADER, fileio.PROJECTIONS_HEADER):
        tag, n, blocks = fileio.parse_elements(text)
        instance = instances.instance_from_projections(tag, n, blocks)
        synth = synthesis.matrix_synthetic_space(instance)
        oracle = synthesis.lueders_expansion_oracle(synth, instance)
    else:
        raise ParseError(f"cannot synthesize from a '{header}' file")

    try:
        model = synthesis.build_product_model(synth, oracle)
    except SynthesisError as exc:
        blocking = getattr(exc, "generator", None)
        verdict = getattr(exc, "verdict", None)
        report["blocked"] = {
            "generator": blocking,
            "event": getattr(exc, "event", None),
            "verdict": None if verdict is None else verdict.verdict,
        }
        report["passed"] = False
        lines.append(f"synthesis blocked: {exc}")
        return FAIL, report, lines

    report["dim"] = synth.dim
    report["n_events"] = synth.space.n_events
    report["n_states"] = synth.n_states
    lines.append(f"dim {synth.dim} over {synth.space.n_events} events, {synth.n_states} generators")

    # a SynthesisError from here on is a check the built model fails, not bad input
    stage = "symmetry"
    try:
        worst_sym, arg = model.worst_symmetry()
        report["worst_symmetry"] = float(worst_sym)
        lines.append(f"worst multiplier symmetry: {_g(worst_sym)} at {arg}")

        stage = "well-definedness"
        wd_worst = synthesis.check_well_definedness(model)
        report["well_definedness"] = float(wd_worst)
        lines.append(f"well-definedness worst: {_g(wd_worst)}")

        stage = "laws"
        laws = synthesis.check_laws_on_reconstruction(model, pairs=args.samples, rng=rng)
        report["laws"] = {name: float(getattr(laws, name)) for name in _LAWS}
        lines.append("laws: " + ", ".join(f"{label} {_g(getattr(laws, name))}" for name, label in _LAWS.items()))

        comp_worst = max(max(c.idempotency, c.unit_image, c.invariance) for c in model.compression_reports.values())
        report["compression_worst"] = float(comp_worst)
        lines.append(f"compression residual worst: {_g(comp_worst)}")

        stage = "density"
        ok = _density_summary(synth, instance, rng, report, lines)
        # each residual passes within the lane's bound: exact zeros (and a nonnegative slack) on the exact lane
        tol = synth.tol
        if instance is not None:
            stage = "comparison"
            lue = synthesis.compare_with_lueders(model, instance)
            prod = synthesis.compare_products(model, instance)
            report["match_lueders"] = lue
            report["match_product"] = prod
            lines.append(f"matches: lueders {_g(lue)}, product {_g(prod)}")
            ok &= lue <= tol and prod <= tol
        ok &= worst_sym <= tol and wd_worst <= tol and comp_worst <= tol
        ok &= laws.passed(tol)

        stage = "dump"
        payload = fileio.synth_dump(model)
    except SynthesisError as exc:
        report["failed_check"] = {"stage": stage, "message": str(exc)}
        report["passed"] = False
        lines.append(f"{stage} check failed: {exc}")
        lines.append("synthesize: FAIL")
        return FAIL, report, lines

    if args.format == "structured":
        report["dump"] = payload
    else:
        path = args.input + ".synth.json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(fileio.dump_to_json(payload))
        report["dump_path"] = path
        lines.append(f"dump written: {path}")
    report["passed"] = bool(ok)
    lines.append("synthesize: PASS" if ok else "synthesize: FAIL")
    return (PASS if ok else FAIL), report, lines


# ---------------------------------------------------------------------------
# spectrum


def cmd_spectrum(args):
    report = {"command": "spectrum", "input": args.input}
    lines = []
    text = _read(args.input)
    header = fileio.sniff_header(text)
    if header == fileio.OBSERVABLE_HEADER:
        support = fileio.parse_observable(text)
        if not support:
            raise ParseError("observable file holds no terms")
        radius = max(abs(v) for v, _ in support)
        report["support"] = [[fileio._format_value(v), e] for v, e in support]
        report["spectral_radius"] = fileio._format_value(radius)
        lines.append("support: " + ", ".join(f"{_g(v)} on event {e}" for v, e in support))
        lines.append(f"spectral radius: {_g(radius)}")
        report["passed"] = True
        return PASS, report, lines
    if header in (fileio.MATRIX_HEADER, fileio.PROJECTIONS_HEADER):
        tag, n, blocks = fileio.parse_elements(text)
        a = blocks[0]
        spec = jordan.spectral_decomposition(a)
        recon = None
        for lam, p in zip(spec.values, spec.frame):
            term = p * float(lam)
            recon = term if recon is None else recon + term
        residual = jordan.max_abs(recon - a)
        report["eigenvalues"] = [float(v) for v in spec.values]
        report["multiplicity"] = list(spec.multiplicity)
        report["frame_residual"] = float(residual)
        lines.append("eigenvalues: " + ", ".join(_g(v) for v in spec.values))
        lines.append(f"frame residual: {_g(residual)}")
        report["passed"] = True
        return PASS, report, lines
    raise ParseError(f"cannot take a spectrum of a '{header}' file")


# ---------------------------------------------------------------------------
# entry point


def _checked(ok, expected):
    """An argparse type: int(text) when ok(value) holds, else a usage error."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


@functools.cache
def build_parser():
    """Each subcommand takes only the options it reads."""
    p = argparse.ArgumentParser(
        prog="ucpspace",
        description="Event systems, their states, and synthetic order-unit models.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, help, states=True):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--input", help="primary input file")
        if states:
            sp.add_argument("--states", help="state file, or 'full' for the whole polytope")
        sp.add_argument(
            "--format", choices=("text", "structured"), default="text", help="output format"
        )
        return sp

    def sampled(sp, samples, what):
        sp.add_argument(
            "--seed", type=_checked(lambda v: v >= 0, "a non-negative integer"), default=0,
            help="random seed",
        )
        sp.add_argument(
            "--samples", type=_checked(lambda v: v > 0, "a positive integer"), default=samples,
            help=f"{what} (default %(default)s)",
        )

    verify = command("verify", "axioms, separation, uniqueness, mixture")
    sampled(verify, 50, "sampled mixture triples")
    verify.add_argument("--replay", help="re-verify witnesses from a structured report")
    verify.add_argument("extra", nargs="*", help="checks to run")
    condition = command("condition", "conditional states")
    condition.add_argument("event", type=int, nargs="?", help="conditioning event")
    condition.add_argument("observe", type=int, nargs="?", help="observed event")
    synthesize = command("synthesize", "build and check the synthetic model")
    sampled(synthesize, 60, "pairs sampled for the square-norm and square-sum-slack laws")
    command("spectrum", "eigenvalues or spectral radius", states=False)
    return p


_COMMANDS = {"verify": cmd_verify, "condition": cmd_condition, "synthesize": cmd_synthesize,
             "spectrum": cmd_spectrum}


def main(argv=None):
    args = build_parser().parse_args(argv)
    replay = args.command == "verify" and args.replay
    try:
        if not (args.input or replay):
            raise ParseError(f"{args.command} needs --input")
        command = cmd_replay if replay else _COMMANDS[args.command]
        code, report, lines = command(args)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return BAD_INPUT
    except (ConditioningUndefinedError, DecompositionError) as exc:
        print(f"verified failure: {exc}", file=sys.stderr)
        return FAIL
    except UcpError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return BAD_INPUT

    if args.format == "structured":
        print(fileio.json_text(report))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
