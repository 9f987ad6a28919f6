"""Finite event systems: orthogonality, partial sums, complements.

An orthospace is a finite set of events 0..n-1 with a symmetric orthogonality
relation, a partial binary sum defined exactly on orthogonal pairs, a
distinguished zero and unit, and a complementation map.  `verify_orthospace`
checks the six defining axioms exhaustively and reports replayable witnesses:

    ortho-symmetry              e ortho f  iff  f ortho e
    partial-sum                 e + f defined and commutative on orthogonal pairs
    sum-associativity           g ortho e, f and e ortho f  =>  sums regroup
    zero-event                  0 ortho e and e + 0 = e
    unique-complement           exactly one g with e ortho g, e + g = unit
    difference-characterization e + d = f solvable  iff  e ortho complement(f)

Structural problems (a sum entry where the pair is not orthogonal, indices out
of range) are reported separately from axiom failures.  The derived precedence
relation is `precedes(e, f) := e ortho complement(f)`.

Tables are dense and capped at 4096 events, so every check is a finite scan.
"""

from dataclasses import dataclass, field

import numpy as np

from . import jordan, kernels
from .errors import SizeError, StructuralError

MAX_EVENTS = 4096
# items per stacked kernel call or comparison (pairwise sums in projection_orthospace,
# event-by-density pairs in Lüders conditioning, ...), so a family near MAX_EVENTS
# does not build one stack of millions of them
_PAIR_BLOCK = 4096
_MAX_WITNESSES = 32

AXIOMS = (
    "ortho-symmetry",
    "partial-sum",
    "sum-associativity",
    "zero-event",
    "unique-complement",
    "difference-characterization",
)

# the length of each axiom's witness, and how many of its leading entries are events;
# a unique-complement witness ends with its list of complement candidates
WITNESS_SHAPES = {
    "ortho-symmetry": (2, 2),
    "partial-sum": (2, 2),
    "sum-associativity": (3, 3),
    "zero-event": (1, 1),
    "unique-complement": (2, 1),
    "difference-characterization": (2, 2),
}


@dataclass
class OrthoSpace:
    """Dense-table event system. sum_table holds -1 where the sum is undefined."""

    n_events: int
    zero: int
    unit: int
    ortho: np.ndarray
    sum_table: np.ndarray
    complement: np.ndarray
    # the state equations as one table, built by `statespace.state_table` on first use
    state_table: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not (1 <= self.n_events <= MAX_EVENTS):
            raise SizeError(f"n_events must be in 1..{MAX_EVENTS}")
        self.ortho = np.asarray(self.ortho, dtype=bool)
        self.sum_table = np.asarray(self.sum_table, dtype=np.int64)
        self.complement = np.asarray(self.complement, dtype=np.int64)
        n = self.n_events
        if self.ortho.shape != (n, n) or self.sum_table.shape != (n, n):
            raise StructuralError("ortho and sum tables must be n_events x n_events")
        if self.complement.shape != (n,):
            raise StructuralError("complement table must have one entry per event")
        if not (0 <= self.zero < n and 0 <= self.unit < n):
            raise StructuralError("zero/unit out of range")

    def __eq__(self, other):
        if not isinstance(other, OrthoSpace):
            return NotImplemented
        return (
            self.n_events == other.n_events
            and self.zero == other.zero
            and self.unit == other.unit
            and np.array_equal(self.ortho, other.ortho)
            and np.array_equal(self.sum_table, other.sum_table)
            and np.array_equal(self.complement, other.complement)
        )

    def sum_of(self, e, f):
        """Partial sum, or None where undefined."""
        s = int(self.sum_table[e, f])
        return None if s < 0 else s

    def comp(self, e):
        return int(self.complement[e])

    def events(self):
        return range(self.n_events)


@dataclass
class AxiomVerdict:
    passed: bool
    witnesses: list = field(default_factory=list)


@dataclass
class AxiomReport:
    structural: list
    axioms: dict

    @property
    def passed(self):
        return not self.structural and all(v.passed for v in self.axioms.values())


def _fail(verdict, witnesses):
    """Fail the verdict when there are witnesses (a list, in report order); it keeps the first _MAX_WITNESSES
    in all."""
    if witnesses:
        verdict.passed = False
        verdict.witnesses += witnesses[: _MAX_WITNESSES - len(verdict.witnesses)]


def _rows(cells):
    """The first _MAX_WITNESSES rows of an int array (k, w), as tuples of ints."""
    return [tuple(w) for w in cells[:_MAX_WITNESSES].tolist()]


def _sum_associativity(ok, st, verdict):
    """Every (g, e, f) with g + e, g + f and e + f defined, stacked over blocks of consecutive g.

    A row per (g, e) with g + e defined; its f are the events where ok[g] and
    ok[e] both hold.  A block's mask is at most max(_PAIR_BLOCK, n * max deg(g))
    entries, deg(g) the events that g + . is defined on: no larger than the
    mask of the g with most of them (n^2 on a space whose zero sums with
    everything), so memory stays at one g's bound.  The witnesses come in (g,
    e, f) order per g, those where g + (e + f) or (g + e) + f is undefined
    first, and the sweep stops once _MAX_WITNESSES are on record.
    """
    n = len(ok)
    deg = ok.sum(axis=1)
    gs, es = np.nonzero(ok)
    starts = np.concatenate(([0], np.cumsum(deg)))
    width = np.cumsum(deg * n)
    cap = max(_PAIR_BLOCK, n * int(deg.max()))
    g0 = 0
    while g0 < n and len(verdict.witnesses) < _MAX_WITNESSES:
        g1 = max(g0 + 1, int(np.searchsorted(width, cap + (width[g0 - 1] if g0 else 0), side="right")))
        rows_g, rows_e = gs[starts[g0]:starts[g1]], es[starts[g0]:starts[g1]]
        r, f = np.nonzero(ok[rows_g] & ok[rows_e])
        g, e = rows_g[r], rows_e[r]
        s_ef, s_ge = st[e, f], st[g, e]
        # g + (e + f) and (g + e) + f defined and equal; the same cells replay_axiom_witness reads
        good = ok[g, s_ef] & ok[s_ge, f]
        bad = ~good
        bad[good] = st[g[good], s_ef[good]] != st[s_ge[good], f[good]]
        t = np.flatnonzero(bad)
        t = t[np.lexsort((t, good[t], g[t]))]
        _fail(verdict, _rows(np.stack([g[t], e[t], f[t]], axis=1)))
        g0 = g1


def verify_orthospace(space):
    """Exhaustive axiom check. Structural issues are reported, never raised.

    Each axiom is one pass over the whole table: a mask for ortho-symmetry,
    partial-sum, zero-event, unique-complement and difference-characterization,
    and one stacked sweep of the (g, e, f) triples for sum-associativity, in
    blocks of g (`_sum_associativity`).  A sum entry past the last event is
    recorded as ("index-out-of-range",), and the axiom sweeps read it as
    undefined.  Each axiom keeps its first _MAX_WITNESSES witnesses in (e, f)
    order, or (g, e, f) for sum-associativity.
    """
    n = space.n_events
    ortho = space.ortho
    st = space.sum_table
    comp = space.complement
    structural = []

    if st.max(initial=-1) >= n or comp.max(initial=-1) >= n or comp.min(initial=0) < 0:
        structural.append(("index-out-of-range",))
    bad = np.argwhere((st >= 0) & ~ortho)
    for e, f in bad[:_MAX_WITNESSES]:
        structural.append(("sum-defined-not-ortho", int(e), int(f)))
    if len(bad) > _MAX_WITNESSES:
        structural.append(("sum-defined-not-ortho-more", len(bad) - _MAX_WITNESSES))

    axioms = {tag: AxiomVerdict(True) for tag in AXIOMS}
    defined = (st >= 0) & (st < n)
    upper = np.triu(np.ones((n, n), dtype=bool))

    _fail(axioms["ortho-symmetry"], _rows(np.argwhere((ortho != ortho.T) & upper)))

    # partial-sum: defined on orthogonal pairs, commutative
    _fail(axioms["partial-sum"], _rows(np.argwhere(ortho & ~defined)))
    _fail(axioms["partial-sum"], _rows(np.argwhere(ortho & defined & defined.T & (st != st.T) & upper)))

    ok = ortho & defined
    _sum_associativity(ok, st, axioms["sum-associativity"])

    # zero-event: 0 ortho e, and e + 0 = e wherever it is defined
    z = space.zero
    events = np.arange(n)
    _fail(axioms["zero-event"], _rows(np.flatnonzero(~ortho[z] | (ok[:, z] & (st[:, z] != events)))[:, None]))

    # unique-complement: exactly one candidate, matching the table
    cands = ortho & (st == space.unit)
    lonely = (cands.sum(axis=1) != 1) | (comp != cands.argmax(axis=1))
    _fail(axioms["unique-complement"],
          [(e, tuple(np.flatnonzero(cands[e]).tolist())) for e in np.flatnonzero(lonely)[:_MAX_WITNESSES].tolist()])

    # difference-characterization: solvability of e + d = f iff e ortho comp(f)
    exists = np.zeros((n, n), dtype=bool)
    es, ds = np.nonzero(ok)
    exists[es, st[es, ds]] = True
    if comp.min(initial=0) >= 0 and comp.max(initial=-1) < n:
        _fail(axioms["difference-characterization"], _rows(np.argwhere(exists != ortho[:, comp])))

    return AxiomReport(structural=structural, axioms=axioms)


def replay_axiom_witness(space, tag, witness):
    """Re-check one witness; True means the violation is reproduced.

    A sum entry past the last event reads as undefined, as in `verify_orthospace`.
    """
    ortho = space.ortho
    st = space.sum_table
    n = space.n_events

    def defined(a, b):
        return bool(0 <= st[a, b] < n)

    if tag == "ortho-symmetry":
        e, f = witness
        return bool(ortho[e, f] != ortho[f, e])
    if tag == "partial-sum":
        e, f = witness
        if ortho[e, f] and not defined(e, f):
            return True
        return bool(ortho[e, f] and defined(f, e) and st[e, f] != st[f, e])
    if tag == "sum-associativity":
        g, e, f = witness

        def ok(a, b):
            return bool(ortho[a, b]) and defined(a, b)

        # the cells verify_orthospace reads: g + e, g + f and e + f defined,
        # then g + (e + f) and (g + e) + f defined and equal
        if not (ok(g, e) and ok(g, f) and ok(e, f)):
            return False
        s_ef, s_ge = st[e, f], st[g, e]
        if not (ok(g, s_ef) and ok(s_ge, f)):
            return True
        return bool(st[g, s_ef] != st[s_ge, f])
    if tag == "zero-event":
        (e,) = witness
        z = space.zero
        if not ortho[z, e]:
            return True
        return defined(e, z) and bool(st[e, z] != e)
    if tag == "unique-complement":
        e = witness[0]
        cands = np.flatnonzero(ortho[e] & (st[e] == space.unit))
        return len(cands) != 1 or space.complement[e] != cands[0]
    if tag == "difference-characterization":
        e, f = witness
        exists = bool(difference(space, e, f))
        c = space.comp(f)
        return exists != bool(ortho[e, c]) if 0 <= c < n else True
    raise ValueError(f"unknown axiom tag {tag!r}")


def precedes(space, e, f):
    """e precedes f iff e is orthogonal to the complement of f."""
    return bool(space.ortho[e, space.comp(f)])


def difference(space, e, f):
    """All d with e ortho d and e + d = f. Singleton on well-behaved spaces."""
    ds = np.flatnonzero(space.ortho[e] & (space.sum_table[e] >= 0))
    return [int(d) for d in ds if space.sum_table[e, d] == f]


def maximal_orthogonal_families(space):
    """Maximal pairwise-orthogonal families of nonzero events, sorted.

    Zero is excluded (it is orthogonal to everything and carries no weight);
    isolated events come back as singleton families.  The families are the
    maximal cliques of the orthogonality graph (read from the upper triangle
    of `ortho`, no self-loops), listed by Bron-Kerbosch with pivoting (Bron &
    Kerbosch, CACM 16(9), 1973).
    """
    nodes = [e for e in space.events() if e != space.zero]
    upper = np.triu(space.ortho, 1)
    adj = upper | upper.T
    adj[space.zero, :] = adj[:, space.zero] = False
    nbrs = {v: set(np.flatnonzero(adj[v]).tolist()) for v in nodes}
    families = []

    def expand(clique, cand, excl):
        if not cand and not excl:
            families.append(sorted(clique))
            return
        pivot = max(cand | excl, key=lambda u: len(cand & nbrs[u]))
        for v in cand - nbrs[pivot]:
            expand(clique + [v], cand & nbrs[v], excl & nbrs[v])
            cand.remove(v)
            excl.add(v)

    expand([], set(nodes), set())
    return sorted(families)


def iterated_sum(space, events):
    """Sum of a pairwise-orthogonal family via chained partial sums, or None."""
    acc = space.zero
    for e in events:
        acc = space.sum_of(acc, e)
        if acc is None:
            return None
    return acc


def boolean_orthospace(n_atoms):
    """Power set of n_atoms atoms; event i is the subset with bitmask i.

    Orthogonality is disjointness, the sum is union, the complement is the
    set complement.  Accepts 1..12 atoms (the event tables are dense and the
    event count is capped at 4096).
    """
    if not (1 <= n_atoms <= 12):
        raise SizeError("boolean_orthospace supports 1..12 atoms")
    n = 1 << n_atoms
    ids = np.arange(n)
    inter = ids[:, None] & ids[None, :]
    ortho = inter == 0
    st = np.where(ortho, ids[:, None] | ids[None, :], -1).astype(np.int64)
    comp = (n - 1) ^ ids
    return OrthoSpace(n, 0, n - 1, ortho, st, comp)


def horizontal_sum(blocks):
    """Glue orthospaces along shared 0 and unit; proper events stay block-local.

    Events across different blocks are never orthogonal, so no cross sums are
    required.  Event order: 0, then each block's proper events in block order,
    then the unit.  MO_k is the horizontal sum of k two-atom Boolean algebras.
    """
    if not blocks:
        raise StructuralError("horizontal sum needs at least one block")
    proper = []  # (block index, local event id) in deterministic order
    for bi, blk in enumerate(blocks):
        proper.extend((bi, e) for e in blk.events() if e not in (blk.zero, blk.unit))
    n = len(proper) + 2
    if n > MAX_EVENTS:
        raise SizeError(f"horizontal sum exceeds {MAX_EVENTS} events")
    zero, unit = 0, n - 1
    new_id = {key: 1 + i for i, key in enumerate(proper)}

    def glued(bi, e):
        blk = blocks[bi]
        if e == blk.zero:
            return zero
        if e == blk.unit:
            return unit
        return new_id[(bi, e)]

    ortho = np.zeros((n, n), dtype=bool)
    sums = -np.ones((n, n), dtype=np.int64)
    comp = np.zeros(n, dtype=np.int64)
    comp[zero], comp[unit] = unit, zero
    for e in range(n):
        ortho[zero, e] = ortho[e, zero] = True
        sums[zero, e] = sums[e, zero] = e
    for (bi, e), ge in new_id.items():
        blk = blocks[bi]
        comp[ge] = glued(bi, int(blk.complement[e]))
        for f in blk.events():
            if f in (blk.zero,):
                continue
            if blk.ortho[e, f]:
                gf = glued(bi, f)
                ortho[ge, gf] = ortho[gf, ge] = True
                s = blk.sum_of(e, f)
                if s is not None:
                    sums[ge, gf] = sums[gf, ge] = glued(bi, s)
    return OrthoSpace(n, zero, unit, ortho, sums, comp)


@dataclass
class ProjectionEventSystem:
    """An orthospace whose events are concrete idempotents, plus the embedding."""

    space: OrthoSpace
    elements: list


def pair_blocks(count, width):
    """Slices covering range(count) in order, each of max(1, _PAIR_BLOCK // width) items or fewer.

    A block of items that each pair with `width` others holds at most
    _PAIR_BLOCK pairs (or one item).
    """
    step = max(1, _PAIR_BLOCK // width)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _distances(targets, coords):
    """(T, n) entrywise max |target - member| of every target against every family member."""
    return np.max(np.abs(targets[:, None] - coords[None]), axis=(2, 3, 4))


def _matches(coords, count, targets):
    """Per target t < count: the first family member closest to it, or -1 if none is within the tolerance.

    The tolerance is jordan.IDEMPOTENT_TOL, entrywise.  `targets(block)` builds
    the targets of a slice of range(count); each block compares at most
    _PAIR_BLOCK (target, member) pairs.
    """
    out = np.empty(count, dtype=np.int64)
    for block in pair_blocks(count, len(coords)):
        d = _distances(targets(block), coords)
        i = np.argmin(d, axis=1)
        out[block] = np.where(d[np.arange(len(i)), i] <= jordan.IDEMPOTENT_TOL, i, -1)
    return out


def projection_orthospace(elements):
    """Build the event tables of a finite family of projections.

    `elements` must be same-shape hermitian idempotents containing 0 and the
    identity, closed under complement, under sums of orthogonal pairs, and
    under triple sums whenever all pairwise sums are present.  Orthogonality
    of p and q is "p + q is idempotent" (equivalently the Jordan product
    vanishes).  Violations raise StructuralError, naming the first offending
    index, pair or triple in row-major order; the tolerance is
    jordan.IDEMPOTENT_TOL, entrywise.  Every check is a stacked comparison
    against the whole family, _PAIR_BLOCK (element, member) pairs at a time.
    """
    tol = jordan.IDEMPOTENT_TOL
    if not elements:
        raise StructuralError("empty projection family")
    n = len(elements)
    if n > MAX_EVENTS:
        raise SizeError(f"projection family exceeds {MAX_EVENTS} events")
    tag, dim = elements[0].tag, elements[0].n
    # the elements before the first of another algebra must all be idempotent
    same = next((i for i, p in enumerate(elements) if p.tag != tag or p.n != dim), n)
    coords = np.stack([p.coords for p in elements[:same]])
    for block in pair_blocks(same, 1):
        sq = kernels.jordan_mul(coords[block], coords[block])
        if not np.all(np.max(np.abs(sq - coords[block]), axis=(1, 2, 3)) <= tol):
            raise StructuralError("family contains a non-idempotent element")
    if same < n:
        raise StructuralError("mixed algebra tags or sizes in projection family")

    ids = np.arange(n)
    for block in pair_blocks(n, n):
        dup = np.argwhere((_distances(coords[block], coords) <= tol) & (ids[block, None] < ids))
        if len(dup):
            i, j = dup[0]
            raise StructuralError(f"duplicate projections at {ids[block][i]} and {j}")

    ident = jordan.identity(tag, dim).coords
    ends = np.stack([np.zeros_like(ident), ident])
    zero, unit = _matches(coords, 2, lambda b: ends[b]).tolist()
    if zero < 0 or unit < 0:
        raise StructuralError("family must contain 0 and the identity")

    # p _|_ q iff p + q is idempotent; the pairwise sums are squared _PAIR_BLOCK at a time
    ortho = np.zeros((n, n), dtype=bool)
    for block in pair_blocks(n, n):
        sums = (coords[block, None] + coords[None, :]).reshape((-1,) + coords.shape[1:])
        defect = np.max(np.abs(kernels.jordan_mul(sums, sums) - sums), axis=(1, 2, 3))
        ortho[block] = (defect <= tol).reshape(-1, n)
    st = np.full((n, n), -1, dtype=np.int64)
    pi, pj = np.nonzero(ortho)
    found = _matches(coords, len(pi), lambda b: coords[pi[b]] + coords[pj[b]])
    if (found < 0).any():
        t = int(np.argmax(found < 0))
        raise StructuralError(f"sum of orthogonal pair ({pi[t]}, {pj[t]}) missing from family")
    st[pi, pj] = found

    comp = _matches(coords, n, lambda b: ident - coords[b])
    if (comp < 0).any():
        raise StructuralError(f"complement of projection {int(np.argmax(comp < 0))} missing from family")

    # triple-sum closure: whenever all pairwise sums exist, the triple sum must too;
    # triples i < j < k are listed from blocks of the pairs i < j
    pi, pj = np.nonzero(np.triu(ortho, 1))
    for block in pair_blocks(len(pi), n):
        i, j = pi[block], pj[block]
        p, k = np.nonzero(ortho[i] & ortho[j] & (ids > j[:, None]))
        i, j = i[p], j[p]
        found = _matches(coords, len(k), lambda b: coords[i[b]] + coords[j[b]] + coords[k[b]])
        if (found < 0).any():
            t = int(np.argmax(found < 0))
            raise StructuralError(f"triple sum ({i[t]}, {j[t]}, {k[t]}) missing from family")

    space = OrthoSpace(n, zero, unit, ortho, st, comp)
    return ProjectionEventSystem(space, list(elements))
