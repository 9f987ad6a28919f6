"""End-to-end and per-layer benchmark of ucpspace, run from the repository root:

    python3 perfbench/run.py --workload bool-unique --seed 1 --seconds 25 --trace 0

One client in one process runs the workload's seed-generated operation list in
a closed loop, one operation at a time, and checks every result.  With
`--trace 0` it times whole passes of the list untraced and prints the
end-to-end metrics; with `--trace 1` it alternates untraced and traced passes
and prints the per-layer table and the tracing overhead.  Every time it
reports, except the per-layer self times, is calibrated to a reference host
speed (see `calibration.py`); the raw wall times are printed beside them.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""

import os

# BLAS pinned to one thread, before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 7
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("bool-unique", "mo-multiple", "matrix-lane"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time; at least one pass runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", help="import the CLI, generate and parse inputs into DIR, exit")
    return p.parse_args(argv)


def setup_probe(workload, seed, workdir):
    """Body of one fresh-interpreter set-up measurement; prints its in-process probe samples."""
    sampler = calibration.Sampler()
    with sampler.inside():
        import ucpspace.cli  # noqa: F401  (the import is part of what set-up measures)
        import workloads

        workloads.build(workload, seed, workdir)
    print(json.dumps({"seconds": sampler.seconds, "units": sampler.units, "spent": sampler.spent}))


def measure_setup(args, rundir):
    """Median calibrated and raw times of fresh interpreters that import the CLI and build the inputs."""
    times, raw = [], []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--setup-only", str(rundir / f"probe{i}")]
        sampler = calibration.Sampler()
        sampler.add(calibration.probe())
        start = time.perf_counter()
        child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        # A blocking read and wait return as soon as the child exits;
        # `communicate(timeout=...)` polls, which would round every child up
        # to its polling grid.
        killer = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        killer.start()
        out, _ = child.communicate()
        seconds = time.perf_counter() - start
        killer.cancel()
        sampler.add(calibration.probe())
        if child.returncode != 0:
            raise subprocess.CalledProcessError(child.returncode, cmd)
        inside = json.loads(out.splitlines()[-1])
        sampler.add(inside["seconds"], inside["units"])
        sampler.spent = inside["spent"]
        raw.append(seconds - sampler.spent)
        times.append(sampler.calibrated(seconds))
    return statistics.median(times), statistics.median(raw)


def run_cli(argv):
    """One in-process CLI call in structured format: (exit code, stdout, stderr)."""
    from ucpspace import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--format", "structured"])
    return code, out.getvalue(), err.getvalue()


def run_op(op):
    """Run one operation: (seconds, exit code, raw result, stderr, error or None)."""
    start = time.perf_counter()
    try:
        if op.argv is not None:
            code, raw, stderr = run_cli(op.argv)
        else:
            code, raw, stderr = None, op.call(), ""
        error = None
    except Exception as exc:  # an uncaught exception is a failed operation, not a crash of the benchmark
        code, raw, stderr, error = None, None, "", f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, raw, stderr, error


def check_op(op, code, raw, stderr, error):
    """Problems with one operation's result (empty when correct)."""
    if error is not None:
        return [error]
    if op.argv is not None:
        try:
            raw = json.loads(raw)
        except json.JSONDecodeError:
            message = stderr.strip().splitlines()[-1] if stderr.strip() else "nothing on stderr"
            return [f"exit code {code} with no structured report: {message}"]
    try:
        return op.check(code, raw)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        return [f"malformed result ({type(exc).__name__}: {exc})"]


def is_known_defect(op, problems):
    """True when every problem of a failed op is the op's recorded known defect."""
    return op.known_defect is not None and all(p.startswith(op.known_defect) for p in problems)


class Loop:
    """Closed-loop passes over one op list, with per-kind totals and failures."""

    def __init__(self, ops, tracer):
        self.ops, self.tracer = ops, tracer
        self.kinds = sorted({op.kind for op in ops})
        self.attempted = self.failed = 0
        self.failures = {}  # op label -> [problems at first failure, times failed]
        self.unexpected = set()  # labels of ops that failed other than by their known defect

    def run_pass(self, traced, setup=None):
        """Run every op of the list once; return the (calibrated, raw) seconds of each op."""
        tracer = self.tracer
        tracer.enabled = traced
        calibrated, seconds_per_op = [], []
        gc.collect()  # every pass starts from the same collected heap
        if setup is not None:
            with tracer.span("setup", op=-1):
                setup()
        tracer.enabled = False
        before = calibration.probe()
        for op_id, op in enumerate(self.ops):
            sampler = calibration.Sampler()
            sampler.add(before)
            tracer.enabled = traced
            # No samples inside a traced op: they would count in its spans' self time.
            with tracer.span(f"op.{op.kind}", op=op_id), sampler.inside(enabled=not traced):
                seconds, code, raw, stderr, error = run_op(op)
            tracer.enabled = False
            before = calibration.probe()
            sampler.add(before)
            problems = check_op(op, code, raw, stderr, error)
            calibrated.append(sampler.calibrated(seconds))
            seconds_per_op.append(seconds - sampler.spent)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.failures.setdefault(op.label, [problems, 0])[1] += 1
                if not is_known_defect(op, problems):
                    self.unexpected.add(op.label)
        return calibrated, seconds_per_op

    def kind_seconds(self, passes):
        """Seconds per kind in a pass: each op counts with its median over `passes`.

        The median is taken per op, so a burst of host load during one op of
        one pass is dropped, and the sum then spreads what is left of the
        host's drift over the whole run.
        """
        totals = dict.fromkeys(self.kinds, 0.0)
        for op, times in zip(self.ops, zip(*passes)):
            totals[op.kind] += statistics.median(times)
        return totals


def machine_info():
    import numpy

    try:
        import numba  # noqa: F401
        numba_state = "installed"
    except ImportError:
        numba_state = "absent (kernels.matmul is the einsum path)"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba_state,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ucpspace" / "cli.py").is_file():
        print(f"perfbench: no ucpspace sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        setup_probe(args.workload, args.seed, args.setup_only)
        return 0

    import workloads

    rundir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s, raw_setup_s = (None, None) if args.trace else measure_setup(args, rundir)
        ops, inputs = workloads.build(args.workload, args.seed, rundir / "inputs")
        result = measure(args, ops, inputs)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    result["raw_setup_s"] = raw_setup_s
    if setup_s is not None:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    report(args, result)
    return 0


def measure(args, ops, inputs):
    """Run passes until the time is up; return the loop and the metrics of the run."""
    import tracing
    import workloads
    from ucpspace import orthospace

    tracer = tracing.Tracer()
    loop = Loop(ops, tracer)
    # Lazy imports inside the package (networkx) finish before timing starts.
    orthospace.maximal_orthogonal_families(orthospace.boolean_orthospace(1))
    untraced, raw_untraced, traced, tables = [], [], [], []
    # At least three untraced passes, so every op's time is a median; a traced
    # run makes at least two traced passes, so its counters are compared.
    min_laps = 2 if args.trace else 3
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        calibrated, raw = loop.run_pass(False)
        untraced.append(calibrated)
        raw_untraced.append(raw)
        if args.trace:
            # Wrappers are in place only for traced passes, so untraced passes run the bare package.
            tracer.install()
            try:
                traced.append(loop.run_pass(True, setup=lambda: workloads.parse_all(inputs.files))[0])
            finally:
                tracer.uninstall()
            tables.append(tracing.layer_table(tracer.spans, tracer.counts))
            tracer.reset()
        now = time.perf_counter()
        if now - start + (now - lap) > args.seconds and len(untraced) >= min_laps:
            break

    # Calibrated seconds per pass by op kind, from untraced passes: 0 for a
    # kind the workload does not run.  They are per-layer metrics (no bound),
    # because which kinds a workload runs differs between workloads.
    per_kind = loop.kind_seconds(untraced)
    kinds = {f"ops.{kind}_s": per_kind.get(kind, 0.0) for kind in workloads.KINDS}
    wall_s = sum(per_kind.values())
    raw_wall_s = sum(loop.kind_seconds(raw_untraced).values())
    metrics = {}
    if args.trace:
        first = tables[0]
        for key, value in first.items():
            if key.endswith(".self_s"):
                value = statistics.median(t[key] for t in tables)
            metrics[key] = {"value": value, "unit": _unit(key)}
        unsteady = [k for k in first if not k.endswith("_s") and any(t[k] != first[k] for t in tables)]
        for key, value in kinds.items():
            metrics[key] = {"value": value, "unit": "s"}
        metrics["tracing.overhead_s"] = {"value": sum(loop.kind_seconds(traced).values()) - wall_s, "unit": "s"}
    else:
        unsteady = []
        metrics["calibrated_wall_s"] = {"value": wall_s, "unit": "s"}
        metrics["ok_ratio"] = {"value": (loop.attempted - loop.failed) / loop.attempted, "unit": "ratio"}
        metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}
    return {"loop": loop, "passes": len(untraced), "traced_passes": len(traced),
            "metrics": metrics, "kinds": kinds, "unsteady": unsteady, "raw_wall_s": raw_wall_s}


def _unit(key):
    if key.endswith("_s"):
        return "s"
    return "flop" if key.endswith(".flops") else "count"


def report(args, result):
    loop = result["loop"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  ops/pass {len(loop.ops)}  "
          f"passes {result['passes']} untraced, {result['traced_passes']} traced")
    for key, value in machine_info().items():
        print(f"machine {key}: {value}")
    for label, (problems, count) in loop.failures.items():
        tag = "UNEXPECTED" if label in loop.unexpected else "known defect"
        print(f"FAILED x{count} {label} ({tag}): {'; '.join(problems[:3])}")
    for key in result["unsteady"]:
        print(f"WARNING counter {key} differed between traced passes")
    print(f"fail_ratio {loop.failed / loop.attempted} ({loop.failed} of {loop.attempted} ops)")
    for key, m in sorted(result["metrics"].items()):
        print(f"{key:52s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        for key, value in result["kinds"].items():
            print(f"{key:52s} {value:>16.6g} s  (per layer, reported with --trace 1)")
        print(f"{'setup_s, raw wall time':52s} {result['raw_setup_s']:>16.6g} s  (not calibrated)")
    print(f"{'calibrated_wall_s, raw wall time':52s} {result['raw_wall_s']:>16.6g} s  (not calibrated)")
    # `correct`: every failure is exactly its op's known defect and per-pass counters repeat.
    correct = not loop.unexpected and not result["unsteady"]
    print(json.dumps({"correct": correct, "attempted": loop.attempted, "failed": loop.failed,
                      "metrics": result["metrics"]}))


if __name__ == "__main__":
    sys.exit(main())
