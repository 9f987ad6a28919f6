"""Build an order-unit model of a finite event system out of its states.

The state generators span a base-norm space V; the model works in its dual A,
coordinatized by evaluation vectors: an element x of A is the tuple of its
values on the generators.  Events embed as pairing columns pi(e)_l = mu_l(e),
the order unit is pi(unit) (all ones), positivity means componentwise >= 0,
and the order-unit norm is the sup over generators.  With per-event densities
among the generators, that sup attains max|t_k| on every primitive element
sum t_k pi(e_k) over an orthogonal family.

Compressions are assembled row by row from conditionals: row l of U_e is
mu_l(e) times the expansion of the conditional of mu_l under e in the
generators.  The conditional comes from an injected oracle, either the
LP-based unique conditional of the state polytope (exact lane, Fractions
end-to-end) or the closed-form Lüders conditional of a matrix instance
(float lane).  Event multipliers T_e = (I + U_e - U_e')/2 then recover the
product: x o y = T_y x extended bilinearly from the events, symmetrized.

Everything the dual construction quietly assumes is verified, not trusted:
compression idempotency, unit images, invariance on mass-one generators,
multiplier symmetry, and the well-definedness of T_y across different
orthogonal decompositions of the same element.
"""

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import jordan, linsolve, lueders, orthospace, statespace
from .errors import SynthesisError
from .exactlp import OPTIMAL, solve_lp

FLOAT_TOL = 1e-8
MASS_THRESHOLD = 1e-12


def _exact_rows(rows):
    return all(isinstance(v, (Fraction, int)) for row in rows for v in row)


def _pairing_array(rows, exact):
    if exact:
        arr = np.empty((len(rows), len(rows[0])), dtype=object)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                arr[i, j] = Fraction(v)
        return arr
    return np.asarray(rows, dtype=np.float64)


def _independent_columns_float(mat, tol=FLOAT_TOL):
    """Greedy left-to-right Gram-Schmidt column selection."""
    picked, basis = [], []
    for j in range(mat.shape[1]):
        v = mat[:, j].astype(np.float64).copy()
        scale = max(1.0, float(np.linalg.norm(v)))
        for b in basis:
            v -= (b @ v) * b
        if np.linalg.norm(v) > tol * scale:
            basis.append(v / np.linalg.norm(v))
            picked.append(j)
    return picked


@dataclass
class SyntheticSpace:
    """Finite event system modeled in the dual of its state span."""

    space: orthospace.OrthoSpace
    pairing: np.ndarray  # (n_states, n_events); Fraction objects on the exact lane
    exact: bool
    dim: int  # rank of the pairing matrix
    basis_events: tuple  # event ids whose pi-columns are independent
    degenerate_pairs: list = field(default_factory=list)  # events no generator separates

    @property
    def n_states(self):
        return self.pairing.shape[0]

    def pi(self, e):
        return self.pairing[:, e].copy()

    def unit_coords(self):
        return self.pi(self.space.unit)

    def norm(self, x):
        return float(max(abs(v) for v in x)) if len(x) else 0.0

    def is_positive(self, x, tol=FLOAT_TOL):
        bound = 0 if self.exact else -tol
        return all(v >= bound for v in x)

    def zeros(self):
        if self.exact:
            z = np.empty(self.n_states, dtype=object)
            z[:] = Fraction(0)
            return z
        return np.zeros(self.n_states)

    def identity_matrix(self):
        if self.exact:
            m = np.empty((self.n_states, self.n_states), dtype=object)
            for i in range(self.n_states):
                for j in range(self.n_states):
                    m[i, j] = Fraction(1 if i == j else 0)
            return m
        return np.eye(self.n_states)

    def event_coords(self, x, tol=FLOAT_TOL):
        """Coefficients over basis_events reproducing x, or SynthesisError."""
        cols = self.pairing[:, list(self.basis_events)]
        if self.exact:
            a_rows = [[cols[i, j] for j in range(cols.shape[1])] for i in range(cols.shape[0])]
            sol = linsolve.solve_affine(a_rows, list(x))
            if sol is None:
                raise SynthesisError("element lies outside the event span")
            return sol[0]
        b = np.asarray(x, dtype=np.float64)
        s, *_ = np.linalg.lstsq(cols, b, rcond=None)
        if np.linalg.norm(cols @ s - b) > tol * max(1.0, np.linalg.norm(b)):
            raise SynthesisError("element lies outside the event span")
        return s


def _check_state_rows(space, rows, exact):
    for ix, row in enumerate(rows):
        if exact:
            ok, viol = statespace.is_state(space, statespace.State(tuple(Fraction(v) for v in row)))
            if not ok:
                raise SynthesisError(f"generator {ix} is not a state: {viol[0]}")
        else:
            r = np.asarray(row, dtype=np.float64)
            if abs(r[space.unit] - 1.0) > FLOAT_TOL or r.min() < -FLOAT_TOL or r.max() > 1 + FLOAT_TOL:
                raise SynthesisError(f"generator {ix} is not a state (mass or range)")
            for e in space.events():
                for f in space.events():
                    s = space.sum_of(e, f)
                    if s is not None and abs(r[e] + r[f] - r[s]) > FLOAT_TOL:
                        raise SynthesisError(f"generator {ix} is not additive on ({e}, {f})")


def build_synthetic_space(space, value_rows, exact=None):
    """Model from explicit generator value rows (one row per state, over all events)."""
    rows = [list(r) for r in value_rows]
    if not rows:
        raise SynthesisError("no state generators")
    if exact is None:
        exact = _exact_rows(rows)
    _check_state_rows(space, rows, exact)
    pairing = _pairing_array(rows, exact)
    if exact:
        cols = [[pairing[i, j] for i in range(pairing.shape[0])] for j in range(pairing.shape[1])]
        picked = linsolve.independent_subset(cols)
    else:
        picked = _independent_columns_float(pairing)
    dim = len(picked)
    if dim == 0:
        raise SynthesisError("pairing matrix has rank 0")
    degenerate = []
    n = space.n_events
    for e in range(n):
        for f in range(e + 1, n):
            if exact:
                same = all(pairing[l, e] == pairing[l, f] for l in range(pairing.shape[0]))
            else:
                same = bool(np.max(np.abs(pairing[:, e] - pairing[:, f])) <= FLOAT_TOL)
            if same:
                degenerate.append((e, f))
    return SyntheticSpace(
        space=space,
        pairing=pairing,
        exact=exact,
        dim=dim,
        basis_events=tuple(picked),
        degenerate_pairs=degenerate,
    )


def abstract_synthetic_space(space, states):
    return build_synthetic_space(space, [list(s.values) for s in states], exact=True)


def matrix_synthetic_space(instance):
    return build_synthetic_space(instance.space, instance.value_rows(), exact=False)


# ---------------------------------------------------------------------------
# conditional-expansion oracles


def polytope_expansion_oracle(synth, polytope):
    """Exact-lane oracle: LP-unique conditional, expanded over the generators."""
    pairing = synth.pairing
    n_states, n_events = pairing.shape
    a_rows = [[pairing[m, j] for m in range(n_states)] for j in range(n_events)]

    def oracle(l, e):
        mu = statespace.State(tuple(pairing[l, j] for j in range(n_events)))
        verdict = statespace.check_conditional_uniqueness(polytope, mu, e)
        if verdict.verdict != statespace.UNIQUE:
            err = SynthesisError(
                f"conditional of generator {l} under event {e} is {verdict.verdict}"
            )
            err.generator, err.event, err.verdict = l, e, verdict
            raise err
        sol = linsolve.solve_affine(a_rows, list(verdict.conditional.values))
        if sol is None:
            raise SynthesisError(f"conditional of generator {l} lies outside the generator span")
        return sol[0]

    return oracle


def lueders_expansion_oracle(synth, instance):
    """Float-lane oracle: closed-form Lüders conditional, expanded over densities."""
    flat = np.stack([d.element.coords.reshape(-1) for d in instance.densities])
    pinv = np.linalg.pinv(flat.T)

    def oracle(l, e_id):
        cond = lueders.condition(instance.densities[l], instance.elements[e_id])
        target = cond.element.coords.reshape(-1)
        c = pinv @ target
        if np.linalg.norm(flat.T @ c - target) > FLOAT_TOL:
            raise SynthesisError(
                f"conditional of generator {l} lies outside the density span"
            )
        return c

    return oracle


# ---------------------------------------------------------------------------
# compressions and multipliers


@dataclass
class CompressionReport:
    event: int
    matrix: np.ndarray
    idempotency: float  # max |U^2 - U|
    unit_image: float  # max |U pi(1) - pi(e)|
    invariance: float  # worst mass-one generator drift on the events

    def passed(self, tol=1e-10):
        return max(self.idempotency, self.unit_image, self.invariance) <= tol


def _max_abs(arr):
    return float(max((abs(v) for v in np.asarray(arr, dtype=object).ravel()), default=0))


def build_compression(synth, e, oracle):
    """U_e over A-coordinates: row l is mu_l(e) times the conditional expansion."""
    pairing = synth.pairing
    n_states = synth.n_states
    zero_mass = (lambda m: m == 0) if synth.exact else (lambda m: m <= MASS_THRESHOLD)
    rows = []
    for l in range(n_states):
        mass = pairing[l, e]
        if zero_mass(mass):
            rows.append(synth.zeros())
        else:
            c = oracle(l, e)
            row = np.empty(n_states, dtype=object) if synth.exact else np.empty(n_states)
            for m in range(n_states):
                row[m] = mass * c[m]
            rows.append(row)
    u = np.stack(rows)
    idem = _max_abs(u @ u - u)
    unit_image = _max_abs(u @ synth.unit_coords() - synth.pi(e))
    drift = 0.0
    one = Fraction(1) if synth.exact else 1.0
    for l in range(n_states):
        if pairing[l, e] == one or (not synth.exact and abs(pairing[l, e] - 1.0) <= 1e-10):
            drift = max(drift, _max_abs(u[l] @ pairing - pairing[l]))
    return CompressionReport(event=e, matrix=u, idempotency=idem, unit_image=unit_image, invariance=drift)


def multiplier_matrix(synth, u_e, u_comp):
    half = Fraction(1, 2) if synth.exact else 0.5
    return (synth.identity_matrix() + u_e - u_comp) * half


@dataclass
class ProductModel:
    """Synthetic compressions, multipliers, and the reconstructed product."""

    synth: SyntheticSpace
    compressions: dict  # event -> CompressionReport
    multipliers: dict  # event -> T_e matrix

    def u_apply(self, e, x):
        return self.compressions[e].matrix @ x

    def t_apply(self, e, x):
        return self.multipliers[e] @ x

    def t_for(self, y):
        """Multiplier of an arbitrary element of the event span."""
        coeffs = self.synth.event_coords(y)
        acc = None
        for c, e in zip(coeffs, self.synth.basis_events):
            term = self.multipliers[e] * c
            acc = term if acc is None else acc + term
        return acc

    def product(self, x, y):
        """Reconstructed x o y, symmetrized over the two multiplier readings."""
        half = Fraction(1, 2) if self.synth.exact else 0.5
        return (self.t_for(y) @ x + self.t_for(x) @ y) * half

    def power(self, x, m):
        acc = x
        for _ in range(m - 1):
            acc = self.product(acc, x)
        return acc

    def symmetry_residual(self, e, f):
        return self.synth.norm(self.t_apply(e, self.synth.pi(f)) - self.t_apply(f, self.synth.pi(e)))

    def worst_symmetry(self):
        worst, arg = 0.0, None
        for e in self.synth.space.events():
            for f in range(e + 1, self.synth.space.n_events):
                r = self.symmetry_residual(e, f)
                if r > worst:
                    worst, arg = r, (e, f)
        return worst, arg


def build_product_model(synth, oracle, events=None):
    """Compressions for every requested event (plus complements) and their multipliers."""
    space = synth.space
    wanted = set(events if events is not None else space.events())
    for e in list(wanted):
        wanted.add(space.comp(e))
    comps = {}
    for e in sorted(wanted):
        comps[e] = build_compression(synth, e, oracle)
    mults = {
        e: multiplier_matrix(synth, comps[e].matrix, comps[space.comp(e)].matrix)
        for e in sorted(wanted)
    }
    return ProductModel(synth=synth, compressions=comps, multipliers=mults)


# ---------------------------------------------------------------------------
# verification sweeps


@dataclass
class WellDefinednessReport:
    sum_triple_residual: float  # worst ||(T_e + T_f - T_{e+f}) pi(g)||
    regroup_residual: float  # worst two-decomposition disagreement
    samples: int
    skipped: int

    def passed(self, tol=FLOAT_TOL):
        return max(self.sum_triple_residual, self.regroup_residual) <= tol


def check_well_definedness(model, samples=50, rng=None):
    """Multipliers must not care how an element is cut into orthogonal pieces."""
    rng = rng or np.random.default_rng(0)
    synth = model.synth
    space = synth.space
    worst_triple = 0.0
    basis_cols = [synth.pi(g) for g in synth.basis_events]
    for e in space.events():
        for f in range(e, space.n_events):
            s = space.sum_of(e, f)
            if s is None or e == space.zero or f == space.zero:
                continue
            delta = model.multipliers[e] + model.multipliers[f] - model.multipliers[s]
            for col in basis_cols:
                worst_triple = max(worst_triple, synth.norm(delta @ col))
    families = [fam for fam in orthospace.maximal_orthogonal_families(space) if len(fam) > 1]
    worst_regroup, used, skipped = 0.0, 0, 0
    menu = [Fraction(1), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2)]
    for _ in range(samples):
        if not families:
            break
        fam = families[rng.integers(len(families))]
        coeffs = [menu[rng.integers(len(menu))] for _ in fam]
        groups = {}
        for g, c in zip(fam, coeffs):
            groups.setdefault(c, []).append(g)
        merged = []
        ok = True
        for c, members in groups.items():
            total = orthospace.iterated_sum(space, members)
            if total is None:
                ok = False
                break
            merged.append((c, total))
        if not ok or len(merged) == len(fam):
            skipped += 1
            continue
        used += 1
        scale = (lambda v: v) if synth.exact else float
        direct = sum((model.multipliers[g] * scale(c) for g, c in zip(fam, coeffs)))
        grouped = sum((model.multipliers[g] * scale(c) for c, g in merged))
        delta = direct - grouped
        for col in basis_cols:
            worst_regroup = max(worst_regroup, synth.norm(delta @ col))
    return WellDefinednessReport(
        sum_triple_residual=worst_triple,
        regroup_residual=worst_regroup,
        samples=used,
        skipped=skipped,
    )


def random_primitive(synth, rng, families=None):
    """Random coefficient combination over a random maximal orthogonal family."""
    fams = families if families is not None else orthospace.maximal_orthogonal_families(synth.space)
    fam = fams[rng.integers(len(fams))]
    if synth.exact:
        coeffs = [Fraction(int(rng.integers(-8, 9)), 4) for _ in fam]
    else:
        coeffs = rng.uniform(-1.0, 1.0, size=len(fam))
    x = synth.zeros()
    for c, g in zip(coeffs, fam):
        x = x + synth.pi(g) * c
    return x, list(zip(coeffs, fam))


@dataclass
class SyntheticLawReport:
    jordan_identity: float
    square_norm: float
    square_sum_slack: float  # min of ||x^2+y^2|| - ||x^2||, should be >= -tol
    power_associativity: float
    unit_residual: float
    pairs: int

    def passed(self, tol=FLOAT_TOL):
        return (
            max(self.jordan_identity, self.square_norm, self.power_associativity, self.unit_residual) <= tol
            and self.square_sum_slack >= -tol
        )


def check_laws_on_reconstruction(model, pairs=200, rng=None):
    """Jordan identity, norm laws, power associativity on sampled primitives."""
    rng = rng or np.random.default_rng(0)
    synth = model.synth
    fams = orthospace.maximal_orthogonal_families(synth.space)
    unit = synth.unit_coords()
    worst_ji = worst_sq = worst_pa = worst_unit = 0.0
    slack = float("inf")
    for _ in range(pairs):
        x, _ = random_primitive(synth, rng, fams)
        y, _ = random_primitive(synth, rng, fams)
        x2 = model.product(x, x)
        y2 = model.product(y, y)
        lhs = model.product(x2, model.product(x, y))
        rhs = model.product(x, model.product(x2, y))
        worst_ji = max(worst_ji, synth.norm(lhs - rhs))
        worst_sq = max(worst_sq, abs(synth.norm(y2) - synth.norm(y) ** 2))
        slack = min(slack, synth.norm(x2 + y2) - synth.norm(x2))
        x4 = model.product(x2, x2)
        worst_pa = max(worst_pa, synth.norm(x4 - model.power(x, 4)))
        x6 = model.product(model.power(x, 3), model.power(x, 3))
        worst_pa = max(worst_pa, synth.norm(x6 - model.power(x, 6)))
        worst_unit = max(worst_unit, synth.norm(model.product(unit, x) - x))
    return SyntheticLawReport(
        jordan_identity=worst_ji,
        square_norm=worst_sq,
        square_sum_slack=slack if slack != float("inf") else 0.0,
        power_associativity=worst_pa,
        unit_residual=worst_unit,
        pairs=pairs,
    )


# ---------------------------------------------------------------------------
# geometry of [0, 1] in the model


def _span_representation(synth):
    """(independent row ids, B) with row_l = sum_i B[l, i] row_{ids[i]}."""
    pairing = synth.pairing
    n_states, n_events = pairing.shape
    rows = [[pairing[l, j] for j in range(n_events)] for l in range(n_states)]
    if synth.exact:
        ids = linsolve.independent_subset(rows)
        a_rows = [[rows[i][j] for i in ids] for j in range(n_events)]
        b_mat = np.empty((n_states, len(ids)), dtype=object)
        for l in range(n_states):
            sol = linsolve.solve_affine(a_rows, rows[l])
            for i, v in enumerate(sol[0]):
                b_mat[l, i] = v
        return ids, b_mat
    mat = np.asarray(pairing, dtype=np.float64)
    ids = _independent_columns_float(mat.T)
    base = mat[ids]
    b_mat, *_ = np.linalg.lstsq(base.T, mat.T, rcond=None)
    return ids, b_mat.T


@dataclass
class ExtremeVerdict:
    event: int
    extreme: bool
    direction: np.ndarray = None  # evaluation vector of a feasible perturbation


def check_extreme_points(synth, events=None, tol=FLOAT_TOL):
    """Each pi(e) must admit no two-sided perturbation inside [0, 1] within A."""
    ids, b_mat = _span_representation(synth)
    r = len(ids)
    out = []
    for e in events if events is not None else synth.space.events():
        x = synth.pi(e)
        direction = None
        if synth.exact:
            binding = [l for l in range(synth.n_states) if x[l] == 0 or x[l] == 1]
            rows = [[b_mat[l, i] for i in range(r)] for l in binding]
            extreme = bool(binding) and linsolve.rank(rows) == r
            if not extreme:
                if binding:
                    t = linsolve.solve_affine(rows, [Fraction(0)] * len(binding))[1][0]
                else:
                    t = [Fraction(1 if i == 0 else 0) for i in range(r)]
                direction = b_mat @ np.array(t, dtype=object)
        else:
            binding = [l for l in range(synth.n_states) if x[l] <= tol or x[l] >= 1 - tol]
            rows = b_mat[binding]
            extreme = bool(binding) and int(np.linalg.matrix_rank(rows, tol=tol)) == r
            if not extreme:
                if len(binding):
                    _, s, vh = np.linalg.svd(rows)
                    null = vh[np.sum(s > tol):].T
                else:
                    null = np.eye(r)
                direction = b_mat @ null[:, 0]
        out.append(ExtremeVerdict(event=e, extreme=extreme, direction=direction))
    return out


@dataclass
class MatrixExtremeVerdict:
    event: int
    extreme: bool
    eigenvalues: np.ndarray
    direction: "jordan.JordanElement" = None  # perturbation with x +- d still in [0, 1]


def check_matrix_extremes(instance, events=None, tol=FLOAT_TOL):
    """Extreme-point test for matrix events, run in the operator interval.

    A finite family of densities cuts a box strictly larger than [0, 1] of the
    full matrix order, and in that box no projection with off-diagonal freedom
    is extreme: perturbing along a direction traceless against every sampled
    density keeps all the binding evaluations at equality.  The test therefore
    runs against the operator interval itself, where the extreme elements are
    exactly those with spectrum in {0, 1}.
    """
    out = []
    for e in events if events is not None else range(len(instance.elements)):
        x = instance.elements[e]
        spec = jordan.spectral_decomposition(x)
        direction = None
        middle = None
        for i, lam in enumerate(spec.values):
            if tol < lam < 1 - tol:
                middle = (i, lam)
                break
        extreme = middle is None and all(
            abs(lam) <= tol or abs(lam - 1) <= tol for lam in spec.values
        )
        if middle is not None:
            i, lam = middle
            direction = min(lam, 1 - lam) * spec.frame[i]
        out.append(
            MatrixExtremeVerdict(
                event=e, extreme=extreme, eigenvalues=spec.values, direction=direction
            )
        )
    return out


def verify_matrix_witness(instance, verdict, tol=FLOAT_TOL):
    """Confirm a non-extreme verdict: both x + d and x - d lie in [0, 1]."""
    if verdict.direction is None:
        return False
    x = instance.elements[verdict.event]
    d = verdict.direction
    if jordan.max_abs(d) <= tol:
        return False
    for y in (x + d, x - d):
        vals = jordan.eigenvalues(y)
        if vals.min() < -tol or vals.max() > 1 + tol:
            return False
    return True


@dataclass
class BoxReport:
    vertices: int
    vertices_on_events: int
    events_in_box: bool
    equal: bool


def check_box_equality(synth):
    """Exact lane: does conv(pi(E)) exhaust the order interval [0, 1] in A?"""
    if not synth.exact:
        raise SynthesisError("box equality needs the exact lane")
    pairing = synth.pairing
    n_states, n_events = pairing.shape
    # the box points of span pi(E): x = 0 + B t over the independent event columns
    span = ([Fraction(0)] * n_states, [list(synth.pi(e)) for e in synth.basis_events])
    verts = statespace._enumerate_vertices(span)
    cols = {tuple(pairing[l, e] for l in range(n_states)) for e in range(n_events)}
    on_events = sum(1 for v in verts if tuple(v) in cols)
    events_in_box = all(0 <= pairing[l, e] <= 1 for l in range(n_states) for e in range(n_events))
    return BoxReport(
        vertices=len(verts),
        vertices_on_events=on_events,
        events_in_box=events_in_box,
        equal=events_in_box and on_events == len(verts),
    )


def hull_membership(synth, x):
    """Exact lane: is x a convex combination of the pi(e)?  LP feasibility."""
    if not synth.exact:
        raise SynthesisError("hull membership needs the exact lane")
    pairing = synth.pairing
    n_states, n_events = pairing.shape
    a_eq = [[pairing[l, e] for e in range(n_events)] for l in range(n_states)]
    a_eq.append([Fraction(1)] * n_events)
    b_eq = [Fraction(v) for v in x] + [Fraction(1)]
    res = solve_lp([Fraction(0)] * n_events, a_eq, b_eq, [(0, None)] * n_events)
    return res.status == OPTIMAL


# ---------------------------------------------------------------------------
# canonical comparison against a matrix instance


def evaluation_of(instance, x):
    """Evaluation vector of a hermitian element against the instance densities."""
    flat = np.stack([d.element.coords.reshape(-1) for d in instance.densities])
    return flat @ np.asarray(x.coords, dtype=np.float64).reshape(-1)


def compare_with_lueders(model, instance):
    """Worst gap between synthetic compressions and {e, ., e} on a spanning set."""
    worst = 0.0
    basis = jordan.hermitian_basis(instance.tag, instance.n)
    for e_id, e in enumerate(instance.elements):
        u = model.compressions[e_id].matrix
        for h in basis:
            lhs = u @ evaluation_of(instance, h)
            rhs = evaluation_of(instance, jordan.triple_product(e, h, e))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def compare_products(model, instance):
    """Worst gap between the reconstructed product and the Jordan product on pi(E) pairs."""
    synth = model.synth
    worst = 0.0
    for i, a in enumerate(instance.elements):
        for j, b in enumerate(instance.elements):
            got = model.product(synth.pi(i), synth.pi(j))
            want = evaluation_of(instance, jordan.jordan_product(a, b))
            worst = max(worst, float(np.max(np.abs(np.asarray(got, dtype=np.float64) - want))))
    return worst


@dataclass
class SeparationCertificate:
    """Support-function proof that a point lies outside conv(pi(E)).

    The functional takes a strictly larger value on the candidate than on any
    event, so it exceeds the value on every convex combination; replay by
    re-evaluating the inner products.
    """

    candidate: "jordan.JordanElement"
    functional: "jordan.JordanElement"
    candidate_value: float
    best_event_value: float
    best_event: int

    @property
    def gap(self):
        return self.candidate_value - self.best_event_value

    def separates(self, tol=FLOAT_TOL):
        return self.gap > tol


def hull_separation_certificate(instance, candidate):
    """Certificate for the candidate against the instance's event hull.

    Uses the candidate's traceless part as the separating functional, which is
    optimal among directions centered on the hull for projection candidates.
    """
    n = candidate.n
    shift = jordan.trace(candidate) / n
    functional = candidate - jordan.identity(candidate.tag, n) * shift
    vals = [jordan.inner(p, functional) for p in instance.elements]
    best = int(np.argmax(vals))
    return SeparationCertificate(
        candidate=candidate,
        functional=functional,
        candidate_value=jordan.inner(candidate, functional),
        best_event_value=vals[best],
        best_event=best,
    )


@dataclass
class DensityReport:
    """How much of the order interval [0, 1] the event images cover."""

    lane: str  # "exact" or "matrix"
    extremes: list
    box: BoxReport = None
    samples_member: int = 0
    samples_outside: int = 0
    separation: SeparationCertificate = None
    note: str = ""

    def extreme_failures(self):
        return [v for v in self.extremes if not v.extreme]


def check_hull_density(synth, samples=25, rng=None, instance=None, tol=FLOAT_TOL):
    """Interval-versus-hull report: extreme points plus coverage or its failure.

    Exact lane: vertex comparison of [0, 1] against conv(pi(E)), LP membership
    for rejection-sampled interval points, extremality of every pi(e) in the
    generator box.  Matrix lane: extremality in the operator interval, plus a
    support-function certificate that a fresh projection escapes the hull of
    the finitely many sampled events, so density holds only in the limit.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    if instance is not None:
        report = DensityReport(lane="matrix", extremes=check_matrix_extremes(instance, tol=tol))
        for _ in range(samples):
            q = jordan.random_projection(instance.tag, instance.n, rng)
            if any(jordan.max_abs(q - p) <= 1e-6 for p in instance.elements):
                continue
            cert = hull_separation_certificate(instance, q)
            if cert.separates(tol):
                report.separation = cert
                report.note = "finite event sample: interval density holds only in the limit"
                break
        return report
    report = DensityReport(lane="exact", extremes=check_extreme_points(synth, tol=tol))
    if not synth.exact:
        report.lane = "float"
        report.note = "box comparison and LP membership need the exact lane or a matrix instance"
        return report
    report.box = check_box_equality(synth)
    r = len(synth.basis_events)
    for _ in range(samples):
        coeffs = [Fraction(int(rng.integers(-2, 7)), 4) for _ in range(r)]
        x = synth.zeros()
        for c, e in zip(coeffs, synth.basis_events):
            x = x + synth.pi(e) * c
        if not all(0 <= v <= 1 for v in x):
            continue
        if hull_membership(synth, x):
            report.samples_member += 1
        else:
            report.samples_outside += 1
    if report.box.equal and report.samples_outside:
        raise SynthesisError("box equality contradicts a failed membership sample")
    return report


# ---------------------------------------------------------------------------
# exploratory scans


@dataclass
class FixedPointWitness:
    event: int
    coords: np.ndarray
    annihilation: float  # norm of U_e' x
    fixed_gap: float  # norm of U_e x - x


@dataclass
class FixedPointScan:
    checked: int
    witnesses: list


def scan_compression_fixed_points(model, samples=40, rng=None, tol=1e-9):
    """Hunt for positive x killed by U_e' yet moved by U_e.

    In matrix models annihilation by the complement forces invariance under
    the event, so witnesses signal genuinely non-matrix behavior; the scan
    reports whatever it finds and asserts nothing.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    synth = model.synth
    candidates = [synth.pi(e) for e in synth.space.events()]
    for _ in range(samples):
        x = synth.zeros()
        for e in synth.basis_events:
            if synth.exact:
                c = Fraction(int(rng.integers(0, 9)), 4)
            else:
                c = float(rng.uniform(0.0, 2.0))
            x = x + synth.pi(e) * c
        candidates.append(x)
    checked = 0
    witnesses = []
    for e in sorted(model.compressions):
        e_prime = synth.space.comp(e)
        if e_prime not in model.compressions:
            continue
        for x in candidates:
            if not synth.is_positive(x):
                continue
            checked += 1
            ann = synth.norm(model.u_apply(e_prime, x))
            if ann > tol:
                continue
            gap = synth.norm(model.u_apply(e, x) - x)
            if gap > max(100 * tol, 1e-6):
                witnesses.append(
                    FixedPointWitness(event=e, coords=x, annihilation=ann, fixed_gap=gap)
                )
    return FixedPointScan(checked=checked, witnesses=witnesses)


@dataclass
class EventSystemRecord:
    blocks: tuple
    mutated: bool
    axioms_passed: bool
    conditionals_unique: bool = False
    worst_symmetry: float = None


_BLOCK_MENU = ((2,), (3,), (2, 2), (2, 3), (3, 3), (2, 2, 2))


def scan_random_event_systems(trials=12, seed=0, uc_events=None):
    """Generate small event systems, filter by axioms and conditional uniqueness.

    Candidates are horizontal sums of Boolean blocks, occasionally corrupted
    by a single directed table mutation (those must fail the axioms and show
    the filter working).  Survivors with unique conditionals get a synthetic
    product model and report their worst multiplier-symmetry residual; the
    scan looks for commutativity failures but asserts nothing about finding
    one.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(trials):
        blocks = _BLOCK_MENU[int(rng.integers(len(_BLOCK_MENU)))]
        space = orthospace.horizontal_sum(
            [orthospace.boolean_orthospace(k) for k in blocks]
        )
        mutated = bool(rng.uniform() < 0.25)
        if mutated:
            i = int(rng.integers(1, space.n_events))
            j = int(rng.integers(1, space.n_events))
            ortho = space.ortho.copy()
            ortho[i, j] = not ortho[i, j]
            space = orthospace.OrthoSpace(
                n_events=space.n_events,
                zero=space.zero,
                unit=space.unit,
                ortho=ortho,
                sum_table=space.sum_table,
                complement=space.complement,
            )
        record = EventSystemRecord(blocks=blocks, mutated=mutated, axioms_passed=False)
        out.append(record)
        if not orthospace.verify_orthospace(space).passed:
            continue
        record.axioms_passed = True
        polytope = statespace.build_state_polytope(space)
        unique = True
        for mu in polytope.generators:
            for e in uc_events if uc_events is not None else space.events():
                if e == space.zero or mu[e] == 0:
                    continue
                verdict = statespace.check_conditional_uniqueness(polytope, mu, e)
                if verdict.verdict != statespace.UNIQUE:
                    unique = False
                    break
            if not unique:
                break
        record.conditionals_unique = unique
        if not unique:
            continue
        synth = abstract_synthetic_space(space, polytope.generators)
        model = build_product_model(synth, polytope_expansion_oracle(synth, polytope))
        record.worst_symmetry = float(model.worst_symmetry()[0])
    return out
