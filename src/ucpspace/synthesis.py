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
generators.  The conditionals come from an injected oracle called once per
model, `oracle(requests)`, with requests [(e, generators), ...] in event
order, one per event that some generator gives nonzero mass, listing those
generators in order.  It returns, per request, the expansions of its
generators in that order; the first failure in (event, generator) order
raises.  The exact-lane oracle takes the LP-based unique conditional of the
state polytope for one generator at a time (Fractions end-to-end); the
float-lane oracle conditions every density under every requested event by
the closed-form Lüders rule in one `lueders.condition_stack` call and expands
all requested conditionals with one pseudoinverse product.  Event
multipliers T_e = (I + U_e - U_e')/2 then recover the product: x o y = T_y x
extended bilinearly from the events, symmetrized.
Both linear maps the product needs are built once per model: the left inverse
of the basis-event columns (coordinates of x over basis_events) and the
structure constants S[k, l] = (T_{b_k} pi(b_l) + T_{b_l} pi(b_k))/2, so that
x o y = sum_kl cx_k cy_l S[k, l].  The product takes one pair or a stack of
pairs; a stack is one coordinate map and one contraction, and the law sweep
and the product comparison pass every sampled pair at once.  The exact lane
keeps both maps as integer numerators over one common denominator, contracts
integer numerators, and turns the result back into Fractions once.

Everything the dual construction quietly assumes is verified, not trusted:
compression idempotency, unit images, invariance on mass-one generators,
multiplier symmetry, and the well-definedness of T_y across different
orthogonal decompositions of the same element.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import jordan, kernels, linsolve, lueders, orthospace, statespace
from .errors import SynthesisError
from .exactlp import OPTIMAL, solve_lp

FLOAT_TOL = 1e-8
MASS_THRESHOLD = 1e-12


def _exact_rows(rows):
    return all(isinstance(v, (Fraction, int)) for row in rows for v in row)


def _pairing_array(rows, exact):
    if exact:
        return np.frompyfunc(Fraction, 1, 1)(np.array(rows, dtype=object))
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


def _scaled(arr):
    """(numerators, d): arr's entries as Python ints over the lcm d of their denominators, in an object array."""
    arr = np.asarray(arr, dtype=object)
    d = math.lcm(*(v.denominator for v in arr.flat))
    return np.frompyfunc(lambda v: v.numerator * (d // v.denominator), 1, 1)(arr), d


# _unscaled(numerators, d): the Fraction array numerators / d
_unscaled = np.frompyfunc(Fraction, 2, 1)


def _left_inverse(cols, exact):
    """(rows, inv) with inv @ cols[rows] = I, so inv @ x[rows] gives the coordinates of x.

    Float lane: the pseudoinverse over every row.  Exact lane: the inverse of
    an independent block of rows, as _scaled numerators and denominator.
    """
    if not exact:
        return slice(None), np.linalg.pinv(cols)
    dim = cols.shape[1]
    rows = linsolve.independent_subset([list(r) for r in cols])
    aug = [list(cols[i]) + [Fraction(int(i == j)) for j in rows] for i in rows]
    red, _ = linsolve.rref(aug)
    return rows, _scaled([r[dim:] for r in red])


@dataclass
class SyntheticSpace:
    """Finite event system modeled in the dual of its state span."""

    space: orthospace.OrthoSpace
    pairing: np.ndarray  # (n_states, n_events); Fraction objects on the exact lane
    exact: bool
    dim: int  # rank of the pairing matrix
    basis_events: tuple  # event ids whose pi-columns are independent
    basis_cols: np.ndarray  # (n_states, dim): the pi-columns of basis_events
    coord_map: tuple  # (rows, inv) of _left_inverse(basis_cols); exact lane: inv as _scaled numerators and denominator
    # exact lane: basis_cols as _scaled numerators and denominator
    scaled_cols: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.exact:
            self.scaled_cols = _scaled(self.basis_cols)

    @property
    def n_states(self):
        return self.pairing.shape[0]

    def pi(self, e):
        return self.pairing[:, e].copy()

    def unit_coords(self):
        return self.pi(self.space.unit)

    def norm(self, x):
        """Order-unit norm max_l |x_l| of x (n,), or of each row of a stack (P, n) as an array.

        Exact on the exact lane: a Fraction, or an object array of them.
        """
        if np.ndim(x) == 2:
            x = np.asarray(x)
            if x.dtype == object:
                return np.fromiter((self.norm(r) for r in x), dtype=object, count=len(x))
            return np.max(np.abs(x), axis=-1, initial=0.0)
        if not self.exact:
            return float(max(abs(v) for v in x)) if len(x) else 0.0
        return max((abs(v) for v in x), default=0)

    def is_positive(self, x, tol=FLOAT_TOL):
        bound = 0 if self.exact else -tol
        return all(v >= bound for v in x)

    def zeros(self):
        return _unscaled(np.zeros(self.n_states, dtype=object), 1) if self.exact else np.zeros(self.n_states)

    def identity_matrix(self):
        return _unscaled(np.eye(self.n_states, dtype=object), 1) if self.exact else np.eye(self.n_states)

    def event_coords(self, x, tol=FLOAT_TOL):
        """Coefficients over basis_events reproducing x (n,), or each row of a stack (P, n).

        Raises SynthesisError if x, or any one row of the stack, lies outside the span.
        """
        if self.exact:
            return _unscaled(*self.scaled_coords(x))
        rows, inv = self.coord_map
        x = np.asarray(x, dtype=np.float64)
        c = x[..., rows] @ inv.T
        # ||back - x|| > tol * max(1, ||x||) row by row, compared in squares
        r = c @ self.basis_cols.T - x
        if np.any(np.sum(r * r, axis=-1) > tol * tol * np.maximum(1.0, np.sum(x * x, axis=-1))):
            raise SynthesisError("element lies outside the event span")
        return c

    def scaled_coords(self, x):
        """Exact-lane event_coords of x (n,) or a stack (P, n) as (integer numerators, common denominator)."""
        rows, (inv_n, d_inv) = self.coord_map
        cols_n, d_cols = self.scaled_cols
        xn, dx = _scaled(x)
        cn = xn[..., rows] @ inv_n.T
        # basis_cols @ c == x, cleared of the denominators d_cols and dx * d_inv
        if np.any(cn @ cols_n.T != xn * (d_inv * d_cols)):
            raise SynthesisError("element lies outside the event span")
        return cn, dx * d_inv


def _check_state_rows(space, rows, exact):
    if exact:
        for ix, row in enumerate(rows):
            ok, viol = statespace.is_state(space, statespace.State(tuple(Fraction(v) for v in row)))
            if not ok:
                raise SynthesisError(f"generator {ix} is not a state: {viol[0]}")
        return
    r = np.asarray(rows, dtype=np.float64)
    out_of_range = (
        (np.abs(r[:, space.unit] - 1.0) > FLOAT_TOL) | (r.min(axis=1) < -FLOAT_TOL) | (r.max(axis=1) > 1 + FLOAT_TOL)
    )
    # every defined sum e + f = s, in (e, f) order
    e, f = np.nonzero(space.sum_table >= 0)
    s = space.sum_table[e, f]
    not_additive = np.abs(r[:, e] + r[:, f] - r[:, s]) > FLOAT_TOL
    for ix in range(len(r)):
        if out_of_range[ix]:
            raise SynthesisError(f"generator {ix} is not a state (mass or range)")
        if not_additive[ix].any():
            t = int(np.argmax(not_additive[ix]))
            raise SynthesisError(f"generator {ix} is not additive on ({e[t]}, {f[t]})")


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
    basis_cols = pairing[:, picked]
    return SyntheticSpace(
        space=space,
        pairing=pairing,
        exact=exact,
        dim=dim,
        basis_events=tuple(picked),
        basis_cols=basis_cols,
        coord_map=_left_inverse(basis_cols, exact),
    )


def abstract_synthetic_space(space, states):
    return build_synthetic_space(space, [list(s.values) for s in states], exact=True)


def matrix_synthetic_space(instance):
    return build_synthetic_space(instance.space, instance.value_rows(), exact=False)


# ---------------------------------------------------------------------------
# conditional-expansion oracles


def polytope_expansion_oracle(synth, polytope):
    """Exact-lane oracle: LP-unique conditionals, expanded over the generators one at a time."""
    pairing = synth.pairing
    n_states, n_events = pairing.shape
    a_rows = [[pairing[m, j] for m in range(n_states)] for j in range(n_events)]

    def expand(l, e):
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

    def oracle(requests):
        return [[expand(l, e) for l in generators] for e, generators in requests]

    return oracle


def density_matrix(instance):
    """The instance's densities as rows of flattened coordinates: evaluation is one matvec."""
    return np.stack([d.element.coords.reshape(-1) for d in instance.densities])


def lueders_expansion_oracle(synth, instance):
    """Float-lane oracle: closed-form Lüders conditionals, expanded over densities.

    One call conditions every density under every requested event in one
    `lueders.condition_stack` and expands the requested conditionals with one
    pseudoinverse product.  The first (event, generator) pair, in request
    order, whose conditioning or span check fails is the one that raises.
    """
    coords = np.stack([d.element.coords for d in instance.densities])
    flat = coords.reshape(len(coords), -1)
    pinv_t = np.linalg.pinv(flat.T).T

    def oracle(requests):
        if not requests:
            return []
        conds, errors = lueders.condition_stack(coords, [instance.elements[e] for e, _ in requests])
        pairs = [(i, l) for i, (_, generators) in enumerate(requests) for l in generators]
        picked = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        targets = conds[picked[:, 0], picked[:, 1]].reshape(len(pairs), flat.shape[1])
        expansions = targets @ pinv_t
        residuals = np.linalg.norm(expansions @ flat - targets, axis=1)
        for (i, l), r in zip(pairs, residuals):
            if errors[i][l] is not None:
                raise errors[i][l]
            if r > FLOAT_TOL:
                raise SynthesisError(f"conditional of generator {l} lies outside the density span")
        return np.split(expansions, np.cumsum([len(generators) for _, generators in requests])[:-1])

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
    """max |entry| of arr: a float, or on an object array the exact maximum."""
    arr = np.asarray(arr)
    if arr.dtype != object:
        return float(np.max(np.abs(arr), initial=0.0))
    return max((abs(v) for v in arr.ravel()), default=0)


def build_compression(synth, e, generators, expansions):
    """U_e over A-coordinates: row l is mu_l(e) times the expansion of the conditional of mu_l under e.

    `expansions` holds those of `generators`, in order; the rows of the other
    generators (zero mass on e) stay zero.
    """
    pairing = synth.pairing
    n_states = synth.n_states
    u = np.stack([synth.zeros() for _ in range(n_states)])
    if generators:
        u[generators] = pairing[generators, e][:, None] * np.asarray(expansions, dtype=u.dtype)
    idem = _max_abs(u @ u - u)
    unit_image = _max_abs(u @ synth.unit_coords() - synth.pi(e))
    mass_one = pairing[:, e] == 1 if synth.exact else np.abs(pairing[:, e] - 1.0) <= 1e-10
    drift = 0.0
    for l in np.flatnonzero(mass_one):
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
    structure: np.ndarray  # (dim, dim, n_states): S[k, l] = b_k o b_l over basis_events
    # exact lane: structure flattened over (k, l), as _scaled numerators and denominator
    scaled: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.synth.exact:
            self.scaled = _scaled(self.structure.reshape(-1, self.synth.n_states))

    def u_apply(self, e, x):
        return self.compressions[e].matrix @ x

    def product(self, x, y):
        """Reconstructed x o y = sum_kl cx_k cy_l S[k, l], of one pair (n,) or row by row of two stacks (P, n)."""
        synth = self.synth
        if synth.exact:
            (cx, dx), (cy, dy) = synth.scaled_coords(x), synth.scaled_coords(y)
            table, d = self.scaled
        else:
            cx, cy = synth.event_coords(x), synth.event_coords(y)
            table = self.structure.reshape(-1, synth.n_states)
        # the outer products cx cy^T against S flattened over (k, l): one matmul for the whole stack;
        # the exact lane contracts integer numerators and divides by their common denominator once
        outer = cx[..., :, None] * cy[..., None, :]
        out = outer.reshape(*outer.shape[:-2], -1) @ table
        return _unscaled(out, dx * dy * d) if synth.exact else out

    def power(self, x, m):
        acc = x
        for _ in range(m - 1):
            acc = self.product(acc, x)
        return acc

    def worst_symmetry(self):
        """Largest |T_e pi(f) - T_f pi(e)| over e < f (exact on the exact lane), and its first pair in row-major order."""
        synth = self.synth
        # images[e, :, f] = T_e pi(f), for every pair in one stacked product
        images = np.stack([self.multipliers[e] for e in synth.space.events()]) @ synth.pairing
        es, fs = np.triu_indices(synth.space.n_events, 1)
        residuals = synth.norm(images[es, :, fs] - images[fs, :, es])
        if not (residuals > 0).any():
            return 0.0, None
        i = int(np.argmax(residuals))
        worst = residuals[i] if synth.exact else float(residuals[i])
        return worst, (int(es[i]), int(fs[i]))


def build_product_model(synth, oracle):
    """Compressions and multipliers of every event, and the structure constants of the product.

    The oracle is called once, for every event on which some generator has nonzero mass.
    """
    space = synth.space
    massive = synth.pairing != 0 if synth.exact else ~(synth.pairing <= MASS_THRESHOLD)
    requests = [(e, np.flatnonzero(massive[:, e]).tolist()) for e in space.events() if massive[:, e].any()]
    answers = {e: (generators, expansions) for (e, generators), expansions in zip(requests, oracle(requests))}
    comps = {e: build_compression(synth, e, *answers.get(e, ([], []))) for e in space.events()}
    mults = {
        e: multiplier_matrix(synth, comps[e].matrix, comps[space.comp(e)].matrix)
        for e in space.events()
    }
    # a[k, l] = T_{b_k} pi(b_l); S is its symmetrization over (k, l)
    a = (np.stack([mults[e] for e in synth.basis_events]) @ synth.basis_cols).transpose(0, 2, 1)
    half = Fraction(1, 2) if synth.exact else 0.5
    structure = (a + a.transpose(1, 0, 2)) * half
    return ProductModel(synth=synth, compressions=comps, multipliers=mults, structure=structure)


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
    # (T_e + T_f - T_{e+f}) pi(b) over every defined sum e + f, e <= f, both nonzero,
    # stacked _PAIR_BLOCK sums at a time
    mults = np.stack([model.multipliers[e] for e in space.events()])
    es, fs = np.nonzero(np.triu(space.sum_table >= 0))
    keep = (es != space.zero) & (fs != space.zero)
    es, fs = es[keep], fs[keep]
    ss = space.sum_table[es, fs]
    worst_triple = 0.0
    for b in orthospace.pair_blocks(len(es), 1):
        delta = mults[es[b]] + mults[fs[b]] - mults[ss[b]]
        worst_triple = max(worst_triple, _max_abs(delta @ synth.basis_cols))
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
        worst_regroup = max(worst_regroup, _max_abs((direct - grouped) @ synth.basis_cols))
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
    """Jordan identity, norm laws, power associativity on sampled primitives.

    All pairs are drawn first (x then y, pair by pair); each law term is then
    one product over the (pairs, n) stacks, and each residual a row-wise norm.
    """
    rng = rng or np.random.default_rng(0)
    synth = model.synth
    fams = orthospace.maximal_orthogonal_families(synth.space)
    draws = [random_primitive(synth, rng, fams)[0] for _ in range(2 * pairs)]
    x = np.array(draws[0::2]).reshape(pairs, synth.n_states)
    y = np.array(draws[1::2]).reshape(pairs, synth.n_states)
    unit = np.broadcast_to(synth.unit_coords(), x.shape)
    norm = synth.norm
    x2, y2 = model.product(x, x), model.product(y, y)
    lhs = model.product(x2, model.product(x, y))
    rhs = model.product(x, model.product(x2, y))
    x3 = model.power(x, 3)
    x4_gap = norm(model.product(x2, x2) - model.power(x, 4))
    x6_gap = norm(model.product(x3, x3) - model.power(x, 6))
    slack = norm(x2 + y2) - norm(x2)

    value = (lambda v: v) if synth.exact else float  # the exact lane keeps its residuals exact

    def worst(rows):
        return value(np.max(rows, initial=0))

    return SyntheticLawReport(
        jordan_identity=worst(norm(lhs - rhs)),
        square_norm=worst(np.abs(norm(y2) - norm(y) ** 2)),
        square_sum_slack=value(slack.min()) if pairs else 0.0,
        power_associativity=max(worst(x4_gap), worst(x6_gap)),
        unit_residual=worst(norm(model.product(unit, x) - x)),
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
    span = ([Fraction(0)] * n_states, [list(col) for col in synth.basis_cols.T])
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


def compare_with_lueders(model, instance):
    """Worst gap between synthetic compressions and {e, ., e} on a spanning set.

    Every (event, basis element) pair is compressed by `kernels.triple` calls
    over blocks of events, each holding at most `orthospace._PAIR_BLOCK` pairs
    (or one event), and each block is compared in one stacked product.
    """
    densities = density_matrix(instance)
    basis = np.stack([h.coords for h in jordan.hermitian_basis(instance.tag, instance.n)])
    basis_evals = densities @ basis.reshape(len(basis), -1).T
    es = np.stack([e.coords for e in instance.elements])[:, None]
    us = np.stack([model.compressions[e].matrix for e in range(len(es))])
    worst = 0.0
    for block in orthospace.pair_blocks(len(es), len(basis)):
        comp = kernels.triple(es[block], basis, es[block])
        rhs = densities @ comp.reshape(comp.shape[:2] + (-1,)).swapaxes(1, 2)
        worst = max(worst, float(np.max(np.abs(us[block] @ basis_evals - rhs))))
    return worst


def compare_products(model, instance):
    """Worst gap between the reconstructed product and the Jordan product on pi(E) pairs.

    The Jordan products of all pairs are one `kernels.jordan_mul` call, and the
    reconstructed products one `ProductModel.product` call on the same stacks.
    """
    densities = density_matrix(instance)
    coords = np.stack([el.coords for el in instance.elements])
    n = len(coords)
    pairs = kernels.jordan_mul(np.repeat(coords, n, axis=0), np.tile(coords, (n, 1, 1, 1)))
    want = pairs.reshape(n * n, -1) @ densities.T
    pis = model.synth.pairing[:, :n].T
    got = model.product(np.repeat(pis, n, axis=0), np.tile(pis, (n, 1)))
    return float(np.max(np.abs(got - want)))


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
