"""Span tracing of the package's layers, installed from outside the package.

`Tracer.install` rebinds module attributes of `ucpspace` to wrappers that
record a span per call: name, start, end, parent span and operation id.  That
includes the names rebound by `from .exactlp import solve_lp` inside
`statespace`, `synthesis` and `observables`, and the oracle closures that the
two `*_expansion_oracle` factories return.  Nothing under `src/` changes;
`Tracer.uninstall` puts every original back.

A layer's self time is its span's duration minus the part of that interval
its child spans cover.
"""

import contextlib
import functools
import math
import time
from collections import Counter, defaultdict, namedtuple

Span = namedtuple("Span", "name start end parent op")

# The layers of the per-layer table, each reported as `<name>.calls` and `<name>.self_s`.
LAYERS = (
    "exactlp.solve_lp",
    "linsolve.rref",
    "linsolve.solve_affine",
    "statespace.check_conditional_uniqueness",
    "statespace.check_mixture_identity",
    "statespace.build_state_polytope",
    "synthesis.check_box_equality",
    "orthospace.verify_orthospace",
    "orthospace.maximal_orthogonal_families",
    "synthesis.build_product_model",
    "synthesis.build_compression",
    "synthesis.oracle",
    "synthesis.ProductModel.product",
    "synthesis.check_laws_on_reconstruction",
    "synthesis.check_well_definedness",
    "kernels.matmul",
    "jordan.spectral_decomposition",
    "lueders.condition",
    "observables.check_certainty_order",
    "fileio.parse_orthospace",
    "fileio.parse_elements",
)

# Counters read from arguments and return values at the same boundaries.
COUNTERS = (
    "statespace.verdict.UNIQUE",
    "statespace.verdict.MULTIPLE",
    "statespace.verdict.EMPTY",
    "statespace.build_state_polytope.vertices",
    "kernels.matmul.flops",
)


def _count_verdict(counts, args, out):
    counts[f"statespace.verdict.{out.verdict}"] += 1


def _count_vertices(counts, args, out):
    counts["statespace.build_state_polytope.vertices"] += len(out.generators or [])


def _count_flops(counts, args, out):
    """2 B n^3 k^2: every (i, m) entry sums n products of k x k coordinate pairs."""
    *batch, n, _, k = out.shape
    counts["kernels.matmul.flops"] += 2 * math.prod(batch) * n**3 * k**2


class Tracer:
    """Records spans while enabled; the wrappers cost one flag test when not."""

    def __init__(self):
        self.enabled = False
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._restore = []

    def reset(self):
        self.spans, self.counts, self._stack = [], Counter(), []

    @contextlib.contextmanager
    def span(self, name, op=None):
        """Record one span around the block; with `op`, it is that operation's root."""
        if not self.enabled:
            yield
            return
        if op is not None:
            self.op = op
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = Span(name, start, end, parent, self.op)

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self.counts, args, out)
            return out

        return traced

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        from ucpspace import exactlp, fileio, jordan, kernels, linsolve, lueders, observables, orthospace
        from ucpspace import statespace, synthesis

        modules = {m.__name__.rsplit(".", 1)[1]: m for m in (
            exactlp, fileio, jordan, kernels, linsolve, lueders, observables, orthospace, statespace, synthesis)}
        extras = {
            "statespace.check_conditional_uniqueness": _count_verdict,
            "statespace.build_state_polytope": _count_vertices,
            "kernels.matmul": _count_flops,
        }
        for name in LAYERS:
            mod, _, attr = name.partition(".")
            if name in ("synthesis.oracle", "synthesis.ProductModel.product"):
                continue
            self._patch(modules[mod], attr, self.wrap(name, getattr(modules[mod], attr), extras.get(name)))
        for mod in (statespace, synthesis, observables):
            self._patch(mod, "solve_lp", self.wrap("exactlp.solve_lp", mod.solve_lp))
        cls = synthesis.ProductModel
        self._patch(cls, "product", self.wrap("synthesis.ProductModel.product", cls.product))
        for factory in ("polytope_expansion_oracle", "lueders_expansion_oracle"):
            self._patch(synthesis, factory, self._oracle_factory(getattr(synthesis, factory)))

    def _oracle_factory(self, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            return self.wrap("synthesis.oracle", factory(*args, **kwargs))

        return make

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Per span: its duration minus the union of its children's intervals inside it."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for sid, s in enumerate(spans):
        covered, lo, hi = 0.0, None, None
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append(s.end - s.start - covered)
    return out


def layer_table(spans, counts):
    """`<layer>.calls` and `<layer>.self_s` for every layer, plus the counters."""
    calls, self_s = Counter(), defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        calls[s.name] += 1
        self_s[s.name] += t
    table = {}
    for name in LAYERS:
        table[f"{name}.calls"] = calls[name]
        table[f"{name}.self_s"] = self_s[name]
    for name in COUNTERS:
        table[name] = counts.get(name, 0)
    return table
