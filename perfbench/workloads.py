"""Seeded inputs and operation lists for the benchmark workloads.

Every input is drawn from `numpy.random.default_rng([seed, workload index])`
through the package's own generators and written with its `fileio.format_*`
functions, so one seed always gives byte-identical files.  Each operation
carries its kind (the per-kind time it is counted under), the CLI arguments
or library call that runs it, and the check its result must pass.  Each
workload runs only the kinds of its own lane.
"""

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from ucpspace import fileio, instances, jordan, lueders, observables, orthospace, statespace, synthesis

import checks

KINDS = ("verify", "condition", "synthesize", "spectrum", "certainty")
WORKLOADS = ("bool-unique", "mo-multiple", "matrix-lane")

# Float-lane ops per pass.  With under 100 ops in a pass, one op that starts
# failing moves `ok_ratio` by more than its bound.
MATRIX_SPECTRA = 40
MATRIX_CONDITIONS = 10
QUTRIT_FAMILIES = 4
# The mixture samples of `verify` on bool-unique: a fixed CLI seed and sample
# count.  Which (state, state, event) triples are drawn changes the exact-LP
# work by up to 2x, so a run-seeded draw would make the time measure the draw;
# 10 samples keep a pass short enough that a run holds at least three.
VERIFY_CLI_SEED = "0"
VERIFY_SAMPLES = "10"
# Known defects, as the failed op's problem reads.  The MO_3 structured
# synthesize stores a ConditionalVerdict in its report and cannot print it.
CONDITIONAL_VERDICT_NOT_JSON = "TypeError: Object of type ConditionalVerdict is not JSON serializable"
# `lueders.DensityState` checks the trace of a Lüders-conditioned density with
# an absolute 1e-12 tolerance; after dividing by a small mass the trace can
# miss it (1 + 7.4e-12 on the qutrit family with seed 7671), and the CLI
# exits 2.  Every matrix-lane op that conditions a density can hit it.
DENSITY_TRACE_TOLERANCE = "exit code 2 with no structured report: input error: density trace is"


@dataclass
class Op:
    """One closed-loop operation: a structured CLI call or one library call."""

    kind: str
    label: str
    check: object  # (exit code or None, report or return value) -> list of problems
    argv: list | None = None
    call: object = None
    # The one problem a known defect produces.  Only a failure whose problems
    # all start with it is the known defect; any other failure is unexpected.
    known_defect: str | None = None


class Inputs:
    """Writes generated input files into one directory and records their names."""

    def __init__(self, workdir):
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.files = []

    def write(self, name, text):
        path = self.dir / name
        path.write_text(text, encoding="utf-8")
        self.files.append(path)
        return str(path)


def _cli_seed(rng):
    return str(int(rng.integers(2**31)))


def _rational_weights(rng, count):
    raw = [int(w) for w in rng.integers(1, 10, size=count)]
    total = sum(raw)
    return [Fraction(w, total) for w in raw]


def _certainty_call(space_text):
    def call():
        space = fileio.parse_orthospace(space_text)
        polytope = statespace.build_state_polytope(space)
        synth = synthesis.abstract_synthetic_space(space, polytope.generators)
        return observables.check_certainty_order_all(synth, polytope)

    return call


def bool_unique(inputs, rng):
    b4_space, b3_space = orthospace.boolean_orthospace(4), orthospace.boolean_orthospace(3)
    b4 = inputs.write("boolean4.txt", fileio.format_orthospace(b4_space))
    b3 = inputs.write("boolean3.txt", fileio.format_orthospace(b3_space))
    ops = [Op("verify", "verify boolean4 full", checks.verify_boolean(4, int(VERIFY_CLI_SEED), int(VERIFY_SAMPLES)),
              argv=["verify", "--input", b4, "--states", "full", "--seed", VERIFY_CLI_SEED,
                    "--samples", VERIFY_SAMPLES, "axioms", "separation", "uniqueness", "mixture"])]
    # One conditioning event of each size 1, 2, 3 atoms: the event's size sets
    # how many coordinates the slice pins, so fixing it keeps the work per run even.
    for i, size in enumerate((1, 2, 3)):
        weights = _rational_weights(rng, 4)
        mu = instances.boolean_state(weights)
        e = sum(1 << int(a) for a in rng.choice(4, size=size, replace=False))
        f = int(rng.integers(0, 16))
        states = inputs.write(f"state{i}.txt", fileio.format_states([mu]))
        ops.append(Op("condition", f"condition boolean4 state{i} e{e}", checks.condition_boolean(4, mu, e, f),
                      argv=["condition", "--input", b4, "--states", states, str(e), str(f)]))
    ops.append(Op("synthesize", "synthesize boolean3 full", checks.synthesize_boolean(3),
                  argv=["synthesize", "--input", b3, "--states", "full", "--seed", _cli_seed(rng)]))
    ops.append(Op("certainty", "certainty boolean3 full", checks.certainty_exact(b3_space, checks.boolean_implies),
                  call=_certainty_call(fileio.format_orthospace(b3_space))))
    return ops


def _mo_state(k, rng):
    """A state of MO_k with every atom mass strictly between 0 and 1."""
    values = [Fraction(0)] * (2 * k + 2)
    values[-1] = Fraction(1)
    for i in range(k):
        p = Fraction(int(rng.integers(1, 9)), 9)
        values[1 + 2 * i], values[2 + 2 * i] = p, 1 - p
    return statespace.State(tuple(values))


def mo_multiple(inputs, rng):
    # MO_4 only: one MO_5 verify takes 9-18 s, so a run of `run_seconds`
    # could not hold the three passes that each op's median is taken over.
    spaces = {k: instances.mo_orthospace(k) for k in (3, 4)}
    paths = {k: inputs.write(f"mo{k}.txt", fileio.format_orthospace(s)) for k, s in spaces.items()}
    ops = [Op("verify", "verify mo4 full", checks.verify_mo(4),
              argv=["verify", "--input", paths[4], "--states", "full", "axioms", "separation", "uniqueness"])]
    for i in range(2):
        mu = _mo_state(3, rng)
        e = int(rng.integers(1, 7))
        states = inputs.write(f"state{i}.txt", fileio.format_states([mu]))
        ops.append(Op("condition", f"condition mo3 state{i} e{e}", checks.condition_multiple,
                      argv=["condition", "--input", paths[3], "--states", states, str(e)]))
    ops.append(Op("synthesize", "synthesize mo3 full", checks.synthesize_blocked,
                  argv=["synthesize", "--input", paths[3], "--states", "full", "--seed", _cli_seed(rng)],
                  known_defect=CONDITIONAL_VERDICT_NOT_JSON))
    relation = checks.mo_implies(spaces[3])
    ops.append(Op("certainty", "certainty mo3 full", checks.certainty_exact(spaces[3], relation),
                  call=_certainty_call(fileio.format_orthospace(spaces[3]))))
    return ops


def matrix_lane(inputs, rng):
    qubit = instances.qubit_instance()
    ops = [Op("synthesize", "synthesize qubit", checks.synthesize_matrix(len(qubit.elements)),
              argv=["synthesize", "--input", inputs.write("qubit.txt", fileio.format_elements(qubit.elements)),
                    "--seed", _cli_seed(rng)], known_defect=DENSITY_TRACE_TOLERANCE)]
    for i in range(QUTRIT_FAMILIES):
        family_seed = int(rng.integers(10_000))
        qutrit = instances.qutrit_instance(seed=family_seed)
        text = fileio.format_elements(qutrit.elements)
        name = f"qutrit{i} (family seed {family_seed})"
        ops.append(Op("synthesize", f"synthesize {name}", checks.synthesize_matrix(len(qutrit.elements)),
                      argv=["synthesize", "--input", inputs.write(f"qutrit{i}.txt", text), "--seed", _cli_seed(rng)],
                      known_defect=DENSITY_TRACE_TOLERANCE))
    for i in range(MATRIX_CONDITIONS):
        rho = lueders.density_from(lueders.random_positive("C", 3, rng)).element
        e = jordan.random_projection("C", 3, rng)
        f = jordan.random_projection("C", 3, rng)
        path = inputs.write(f"condition{i}.txt", fileio.format_elements([rho, e, f]))
        ops.append(Op("condition", f"condition qutrit density{i}", checks.condition_density(rho, e, f),
                      argv=["condition", "--input", path, "1", "2"], known_defect=DENSITY_TRACE_TOLERANCE))
    for i in range(MATRIX_SPECTRA):
        tag = jordan.TAGS[i % len(jordan.TAGS)]
        a = jordan.random_hermitian(tag, 3, rng)
        path = inputs.write(f"element{i}.txt", fileio.format_elements([a]))
        ops.append(Op("spectrum", f"spectrum {tag} element{i}", checks.spectrum_element(a),
                      argv=["spectrum", "--input", path]))
    return ops


_BUILDERS = {"bool-unique": bool_unique, "mo-multiple": mo_multiple, "matrix-lane": matrix_lane}


def build(workload, seed, workdir):
    """Generate the workload's inputs into `workdir`, parse them back, return (ops, inputs)."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    inputs = Inputs(workdir)
    ops = _BUILDERS[workload](inputs, rng)
    parse_all(inputs.files)
    return ops, inputs


def parse_all(paths):
    """Parse every generated file with the reader the CLI would use for it."""
    readers = {
        fileio.ORTHOSPACE_HEADER: fileio.parse_orthospace,
        fileio.STATES_HEADER: fileio.parse_states,
        fileio.MATRIX_HEADER: fileio.parse_elements,
        fileio.PROJECTIONS_HEADER: fileio.parse_elements,
    }
    for path in paths:
        text = Path(path).read_text(encoding="utf-8")
        readers[fileio.sniff_header(text)](text)
