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
state polytope for one generator at a time and expands it through
`SyntheticSpace.generator_coords`: the transpose of the coordinate map's
integer inverse, checked exactly on integers.  The same map writes every
generator over the first independent ones for the extreme-point test, so one
inverse per model serves every exact expansion.  The float-lane oracle
conditions every density under every requested event by the closed-form
Lüders rule in one `lueders.condition_stack` call and expands all requested
conditionals with one pseudoinverse product.  Event
multipliers T_e = (I + U_e - U_e')/2 then recover the product: x o y = T_y x
extended bilinearly from the events, symmetrized.
Both linear maps the product needs are built once per model: the left inverse
of the basis-event columns (coordinates of x over basis_events) and the
structure constants S[k, l] = (T_{b_k} pi(b_l) + T_{b_l} pi(b_k))/2, so that
x o y = sum_kl cx_k cy_l S[k, l].  The product takes one pair or a stack of
pairs; a stack is one coordinate map and one contraction, and the law sweep
and the product comparison pass every sampled pair at once.

Both lanes run one body on (values, denominator) pairs (`_scaled`): Python-int
numerators over an int denominator on the exact lane, float arrays over a
power-of-two float denominator on the float lane, so that no float bit is
lost.  The pairing, the compressions, the stacked multipliers, the coordinate
map and the structure constants are each held as such a pair.  The law sweep
chains every law term as products on pairs, each reduced by one gcd on the
exact lane; the well-definedness sweep, the symmetry residuals and the
compression residuals are matrix products on the values.  A norm is the
largest |value| over the denominator, and a Fraction is built only for a
value that is reported.

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


# A (values, d) pair holds Python-int numerators over an int d on the exact lane,
# and a float array over a float d on the float lane.  Every float d is a product
# of 1.0 and 2.0, so every scaling by it is exact (barring overflow and underflow).
# Only _scaled, _unscaled, _reduced and _worst tell the two forms apart.


def _scaled(arr):
    """(values, d) of an array.

    Floats, in a float or an object array, give a float array over 1.0; any
    other entries give Python ints over the lcm d of their denominators, in an
    object array.
    """
    arr = np.asarray(arr)
    if arr.dtype.kind == "f" or any(isinstance(v, float) for v in arr.flat[:1]):
        return arr.astype(np.float64, copy=False), 1.0
    arr = arr.astype(object, copy=False)
    d = math.lcm(*(v.denominator for v in arr.flat))
    return np.frompyfunc(lambda v: v.numerator * (d // v.denominator), 1, 1)(arr), d


_fractions = np.frompyfunc(Fraction, 2, 1)


def _unscaled(values, d):
    """The array values / d: floats over a float d, Fractions over an int d."""
    return values / d if isinstance(d, float) else _fractions(values, d)


def _reduced(values, d):
    """(values, d) divided by the gcd of d and every numerator: the same values, in lowest common terms.

    A float pair passes through unchanged.
    """
    if isinstance(d, float):
        return values, d
    g = math.gcd(d, *values.flat)
    return (values, d) if g == 1 else (values // g, d // g)


def _top(values, axis=None):
    """max |value| of an array, or of each slice along axis (0 when empty)."""
    return np.max(np.abs(values), axis=axis, initial=0)


def _sub(a, b):
    """a - b of two (values, denominator) pairs."""
    (an, ad), (bn, bd) = a, b
    return (an - bn, ad) if ad == bd else (an * bd - bn * ad, ad * bd)


def _add(a, b):
    """a + b of two (values, denominator) pairs."""
    (an, ad), (bn, bd) = a, b
    return (an + bn, ad) if ad == bd else (an * bd + bn * ad, ad * bd)


def _row_norms(a):
    """Order-unit norm of each row of a (values, denominator) stack, as a pair over the same denominator."""
    return _top(a[0], axis=-1), a[1]


def _worst(a, axis=None):
    """max |entry| of a pair, or the list of it per slice along axis, as the values that are reported.

    Python floats on the float lane, exact Fractions on the exact lane.
    """
    return np.asarray(_unscaled(_top(a[0], axis), a[1])).tolist()


def _left_inverse(cols, exact):
    """(rows, inv) with inv @ cols[rows] = I, so inv @ x[rows] gives the coordinates of x.

    Float lane: the pseudoinverse over every row, over 1.0.  Exact lane: the
    inverse of an independent block of rows, as _scaled numerators and
    denominator.
    """
    if not exact:
        return slice(None), (np.linalg.pinv(cols), 1.0)
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
    coord_map: tuple  # (rows, inv) of _left_inverse(basis_cols), inv as a (values, denominator) pair
    # the pairing as a (values, denominator) pair; basis_cols are its basis_events columns
    scaled_pairing: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scaled_pairing = _scaled(self.pairing)

    @property
    def n_states(self):
        return self.pairing.shape[0]

    def pi(self, e):
        return self.pairing[:, e].copy()

    def unit_coords(self):
        return self.pi(self.space.unit)

    def norm(self, x):
        """Order-unit norm max_l |x_l| of x (n,), or of each row of a stack (P, n) as an array.

        Exact on a Fraction array.
        """
        return np.max(np.abs(x), axis=-1, initial=0)

    def is_positive(self, x, tol=FLOAT_TOL):
        bound = 0 if self.exact else -tol
        return all(v >= bound for v in x)

    def zeros(self):
        pn, dp = self.scaled_pairing
        return _unscaled(np.zeros_like(pn[:, 0]), dp)

    def event_coords(self, x, tol=FLOAT_TOL):
        """Coefficients over basis_events reproducing x (n,), or each row of a stack (P, n).

        Raises SynthesisError if x, or any one row of the stack, lies outside the span.
        """
        return _unscaled(*self.scaled_coords(_scaled(x), tol))

    def scaled_coords(self, x, tol=FLOAT_TOL):
        """event_coords of a (values, denominator) pair x, one row (n,) or a stack (P, n), as such a pair.

        The span check is basis_cols @ c == x, on the exact lane's integers, and
        ||basis_cols @ c - x|| <= tol * max(1, ||x||) row by row on the float
        lane; both sides are cleared of the denominators d_pairing and dx * d_inv.
        """
        xn, dx = x
        rows, (inv_n, d_inv) = self.coord_map
        pairing_n, d_pairing = self.scaled_pairing
        cn = xn[..., rows] @ inv_n.T
        back, want = cn @ pairing_n[:, list(self.basis_events)].T, xn * (d_inv * d_pairing)
        if self.exact:
            outside = np.any(back != want)
        else:
            # compared in squares, against the scale dx * d_inv * d_pairing of 1; the residual overwrites back
            r, scale = np.subtract(back, want, out=back), dx * d_inv * d_pairing
            bound = tol * tol * np.maximum(scale * scale, np.einsum("...i,...i->...", want, want))
            outside = np.any(np.einsum("...i,...i->...", r, r) > bound)
        if outside:
            raise SynthesisError("element lies outside the event span")
        return cn, dx * d_inv

    def generator_coords(self, x):
        """Exact-lane coefficients over the generators of a _scaled pair x over the events, one row or a stack.

        The coefficients are inv.T @ x[basis_events] on the rows of coord_map and
        zero elsewhere, as a _scaled pair: the solution of c @ pairing = x that
        is zero off the first independent generators.  Raises SynthesisError if
        x, or any one row of the stack, lies outside the generator span.
        """
        xn, dx = x
        rows, (inv_n, d_inv) = self.coord_map
        pairing_n, d_pairing = self.scaled_pairing
        cn = np.zeros((*xn.shape[:-1], self.n_states), dtype=object)
        cn[..., rows] = xn[..., list(self.basis_events)] @ inv_n
        # c @ pairing == x, cleared of the denominators d_pairing and dx * d_inv
        if np.any(cn[..., rows] @ pairing_n[rows] != xn * (d_inv * d_pairing)):
            raise SynthesisError("element lies outside the generator span")
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
    # the first pair (e, f) and sum s of each state equation, as state_rows lists them
    e, f, s = np.array(list(statespace._additivity(space).values()), dtype=np.int64).reshape(-1, 3).T
    not_additive = np.abs(r[:, e] + r[:, f] - r[:, s]) > FLOAT_TOL
    for ix in range(len(r)):
        if out_of_range[ix]:
            raise SynthesisError(f"generator {ix} is not a state (mass or range)")
        if not_additive[ix].any():
            t = int(np.argmax(not_additive[ix]))
            raise SynthesisError(f"generator {ix} is not additive on ({e[t]}, {f[t]})")


def build_synthetic_space(space, value_rows, exact):
    """Model from explicit generator value rows (one row per state, over all events)."""
    rows = [list(r) for r in value_rows]
    if not rows:
        raise SynthesisError("no state generators")
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
    """Exact-lane oracle: LP-unique conditionals, each expanded over the generators by `generator_coords`."""
    pairing = synth.pairing

    def expand(l, e):
        verdict = statespace.check_conditional_uniqueness(polytope, statespace.State(tuple(pairing[l])), e)
        if verdict.verdict != statespace.UNIQUE:
            err = SynthesisError(
                f"conditional of generator {l} under event {e} is {verdict.verdict}"
            )
            err.generator, err.event, err.verdict = l, e, verdict
            raise err
        try:
            return _unscaled(*synth.generator_coords(_scaled(verdict.conditional.values)))
        except SynthesisError:
            raise SynthesisError(f"conditional of generator {l} lies outside the generator span") from None

    def oracle(requests):
        return [[expand(l, e) for l in generators] for e, generators in requests]

    return oracle


def density_matrix(instance):
    """The instance's densities as rows of flattened coordinates: evaluation is one matvec."""
    return instance.densities.coords.reshape(len(instance.densities), -1)


def lueders_expansion_oracle(synth, instance):
    """Float-lane oracle: closed-form Lüders conditionals, expanded over densities.

    One call conditions every density under every requested event in one
    `lueders.condition_stack` and expands the requested conditionals with one
    pseudoinverse product.  The first (event, generator) pair, in request
    order, whose conditioning or span check fails is the one that raises.
    """
    coords = instance.densities.coords
    flat = density_matrix(instance)
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
    matrix: np.ndarray  # U_e: Fractions on the exact lane
    # each residual: a float on the float lane, an exact Fraction on the exact lane
    idempotency: float | Fraction  # max |U^2 - U|
    unit_image: float | Fraction  # max |U pi(1) - pi(e)|
    invariance: float | Fraction  # worst mass-one generator drift on the events

    def passed(self, tol=1e-10):
        return max(self.idempotency, self.unit_image, self.invariance) <= tol


def build_compression(synth, requests, expansions):
    """U_e of every event, as {event: CompressionReport}.

    Row l of U_e is mu_l(e) times the expansion of the conditional of mu_l under e.
    `requests` lists (e, generators) as the oracle took them and `expansions`
    its answers, in the same order; every other row (zero mass on e) stays
    zero.  All U_e are one (E, n, n) stack of values over one denominator, the
    expansions' common one times the pairing's, and each residual is taken
    from stacked products.
    """
    events = synth.space.events()
    pn, dp = synth.scaled_pairing
    # U_e = un[e] / du
    un, du = np.zeros((len(events), synth.n_states, synth.n_states), dtype=pn.dtype), dp
    rows = [(e, l) for e, generators in requests for l in generators]
    if rows:
        es, ls = np.array(rows).T
        xn, dx = _scaled(np.concatenate(expansions))
        un[es, ls] = pn[ls, es][:, None] * xn
        du = dp * dx
    # the drift of row l of U_e @ pairing from pairing[l], kept on the generators l of mass one on e
    mass_one = pn == dp if synth.exact else np.abs(pn - 1.0) <= 1e-10
    drifts = np.where(mass_one.T, _top(un @ pn - pn * du, axis=2), 0)
    idem = _worst((un @ un - un * du, du * du), axis=(1, 2))
    unit_image = _worst((un @ pn[:, synth.space.unit] - pn.T * du, du * dp), axis=1)
    invariance = _worst((drifts, du * dp), axis=1)
    us = _unscaled(un, du)
    return {
        e: CompressionReport(event=e, matrix=us[e], idempotency=idem[e], unit_image=unit_image[e],
                             invariance=invariance[e])
        for e in events
    }


@dataclass
class ProductModel:
    """Synthetic compressions, multipliers, and the reconstructed product."""

    synth: SyntheticSpace
    compressions: dict  # event -> CompressionReport
    multipliers: dict  # event -> T_e matrix; Fractions on the exact lane
    # S[k, l] = b_k o b_l over basis_events, flattened over (k, l): (dim * dim, n_states), built from the
    # multipliers as a (values, denominator) pair on both lanes: in lowest terms on the exact lane, over a
    # power of two on the float lane (the halving in T_e and S), so the float values keep their bits
    table: tuple = field(default=None, init=False, repr=False, compare=False)
    # the T_e stacked in event order as a (values, denominator) pair: (n_events, n, n) and denominator
    # (1.0 on the float lane, where T_e = (I + U_e - U_e')/2 is exact)
    scaled_multipliers: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        synth = self.synth
        basis = list(synth.basis_events)
        self.scaled_multipliers = tn, dt = _scaled(np.stack([self.multipliers[e] for e in synth.space.events()]))
        pn, dp = synth.scaled_pairing
        # a[k, l] = T_{b_k} pi(b_l) = an[k, l] / (dt dp); S is its symmetrization over (k, l)
        an = (tn[basis] @ pn[:, basis]).transpose(0, 2, 1)
        self.table = _reduced((an + an.transpose(1, 0, 2)).reshape(-1, synth.n_states), 2 * dt * dp)

    def u_apply(self, e, x):
        return self.compressions[e].matrix @ x

    def product(self, x, y):
        """Reconstructed x o y = sum_kl cx_k cy_l S[k, l], of one pair (n,) or row by row of two stacks (P, n).

        x and y are arrays, or both (values, denominator) pairs; the product
        comes back in the same form.
        """
        synth = self.synth
        scaled = isinstance(x, tuple)
        (cx, dx), (cy, dy) = (synth.scaled_coords(v if scaled else _scaled(v)) for v in (x, y))
        table, d = self.table
        # the outer products cx cy^T against S flattened over (k, l): one matmul for the whole stack
        outer = cx[..., :, None] * cy[..., None, :]
        out = _reduced(outer.reshape(*outer.shape[:-2], -1) @ table, dx * dy * d)
        return out if scaled else _unscaled(*out)

    def power(self, x, m):
        acc = x
        for _ in range(m - 1):
            acc = self.product(acc, x)
        return acc

    def worst_symmetry(self):
        """Largest |T_e pi(f) - T_f pi(e)| over e < f, and its first pair in row-major order."""
        synth = self.synth
        es, fs = np.triu_indices(synth.space.n_events, 1)
        (tn, dt), (pn, dp) = self.scaled_multipliers, synth.scaled_pairing
        # images[e, :, f] = T_e pi(f), for every pair in one stacked product
        images = tn @ pn
        residuals = _top(images[es, :, fs] - images[fs, :, es], axis=-1)
        worst = _worst((residuals, dt * dp))
        if not (residuals > 0).any():
            return worst, None
        i = int(np.argmax(residuals))
        return worst, (int(es[i]), int(fs[i]))


def build_product_model(synth, oracle):
    """Compressions and multipliers of every event; the model builds the structure constants from them.

    The oracle is called once, for every event on which some generator has nonzero mass.
    """
    space = synth.space
    massive = synth.pairing != 0 if synth.exact else ~(synth.pairing <= MASS_THRESHOLD)
    requests = [(e, np.flatnonzero(massive[:, e]).tolist()) for e in space.events() if massive[:, e].any()]
    comps = build_compression(synth, requests, oracle(requests))
    # T_e = (I + U_e - U_e')/2, stacked over the events and formed on the compressions' values
    un, du = _scaled(np.stack([comps[e].matrix for e in space.events()]))
    comp = [space.comp(e) for e in space.events()]
    tn = np.eye(synth.n_states, dtype=un.dtype) * du + un - un[comp]
    return ProductModel(synth=synth, compressions=comps, multipliers=dict(zip(space.events(), _unscaled(tn, 2 * du))))


# ---------------------------------------------------------------------------
# verification sweeps


@dataclass
class WellDefinednessReport:
    # each residual: a float on the float lane, an exact Fraction on the exact lane
    sum_triple_residual: float | Fraction  # worst ||(T_e + T_f - T_{e+f}) pi(g)||
    regroup_residual: float | Fraction  # worst two-decomposition disagreement
    samples: int
    skipped: int

    def passed(self, tol=FLOAT_TOL):
        return max(self.sum_triple_residual, self.regroup_residual) <= tol


def check_well_definedness(model, samples=50, rng=None):
    """Multipliers must not care how an element is cut into orthogonal pieces.

    Both residuals are taken on the multipliers' values over their denominator.
    """
    rng = rng or np.random.default_rng(0)
    synth = model.synth
    space = synth.space
    (mults, dt), (pn, dp) = model.scaled_multipliers, synth.scaled_pairing
    cols = pn[:, list(synth.basis_events)]
    # (T_e + T_f - T_{e+f}) pi(b) over every defined sum e + f, e <= f, both nonzero,
    # stacked _PAIR_BLOCK sums at a time
    es, fs = np.nonzero(np.triu(space.sum_table >= 0))
    keep = (es != space.zero) & (fs != space.zero)
    es, fs = es[keep], fs[keep]
    ss = space.sum_table[es, fs]
    triples = [_top((mults[es[b]] + mults[fs[b]] - mults[ss[b]]) @ cols) for b in orthospace.pair_blocks(len(es), 1)]
    families = [fam for fam in orthospace.maximal_orthogonal_families(space) if len(fam) > 1]
    regroups, used, skipped = [], 0, 0
    menu = [2, 2, -2, 1, 4]  # twice {1, 1, -1, 1/2, 2}, so the residual is over twice the denominator
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
        direct = sum((mults[g] * c for g, c in zip(fam, coeffs)))
        grouped = sum((mults[g] * c for c, g in merged))
        regroups.append(_top((direct - grouped) @ cols))
    # object arrays, so that the exact lane's Python-int tops never pass through a fixed-width integer
    return WellDefinednessReport(
        sum_triple_residual=_worst((np.array(triples, dtype=object), dt * dp)),
        regroup_residual=_worst((np.array(regroups, dtype=object), 2 * dt * dp)),
        samples=used,
        skipped=skipped,
    )


def random_primitive(synth, rng, families=None):
    """Random coefficient combination over a random maximal orthogonal family."""
    fams = families if families is not None else orthospace.maximal_orthogonal_families(synth.space)
    fam = fams[rng.integers(len(fams))]
    if not synth.exact:
        coeffs = rng.uniform(-1.0, 1.0, size=len(fam))
        return synth.pairing[:, fam] @ coeffs, list(zip(coeffs, fam))
    coeffs = [Fraction(int(rng.integers(-8, 9)), 4) for _ in fam]
    x = synth.zeros()
    for c, g in zip(coeffs, fam):
        x = x + synth.pi(g) * c
    return x, list(zip(coeffs, fam))


@dataclass
class SyntheticLawReport:
    # each residual: a float on the float lane, an exact Fraction on the exact lane
    jordan_identity: float | Fraction
    square_norm: float | Fraction
    square_sum_slack: float | Fraction  # min of ||x^2+y^2|| - ||x^2||, should be >= -tol
    power_associativity: float | Fraction
    unit_residual: float | Fraction
    pairs: int

    def passed(self, tol=FLOAT_TOL):
        return (
            max(self.jordan_identity, self.square_norm, self.power_associativity, self.unit_residual) <= tol
            and self.square_sum_slack >= -tol
        )


def check_laws_on_reconstruction(model, pairs=200, rng=None):
    """Jordan identity, norm laws, power associativity on sampled primitives.

    All pairs are drawn first (x then y, pair by pair) as (values, denominator)
    stacks; each law term is then one product over the (pairs, n) stacks, and
    each residual a row-wise norm.  The exact lane draws random_primitive's
    primitives, in its order, as numerators over 4 dp.
    """
    rng = rng or np.random.default_rng(0)
    synth = model.synth
    fams = orthospace.maximal_orthogonal_families(synth.space)
    pn, dp = synth.scaled_pairing
    if synth.exact:
        def draw():
            # random_primitive's sum of (k/4) pi(g) over a random family, as numerators over 4 dp
            fam = fams[rng.integers(len(fams))]
            return sum(int(rng.integers(-8, 9)) * pn[:, g] for g in fam)
        d = 4 * dp
    else:
        def draw():
            return random_primitive(synth, rng, fams)[0]
        d = dp
    draws = np.array([draw() for _ in range(2 * pairs)], dtype=pn.dtype).reshape(2 * pairs, synth.n_states)
    x, y = (draws[0::2], d), (draws[1::2], d)
    unit_n, d_unit = _scaled(synth.unit_coords())
    unit = (np.broadcast_to(unit_n, x[0].shape), d_unit)
    product, power = model.product, model.power
    x2, y2 = product(x, x), product(y, y)
    lhs = product(x2, product(x, y))
    rhs = product(x, product(x2, y))
    x3 = power(x, 3)
    x4_gap = _sub(product(x2, x2), power(x, 4))
    x6_gap = _sub(product(x3, x3), power(x, 6))
    ny = _row_norms(y)
    slack = _unscaled(*_sub(_row_norms(_add(x2, y2)), _row_norms(x2))).tolist()
    return SyntheticLawReport(
        jordan_identity=_worst(_sub(lhs, rhs)),
        square_norm=_worst(_sub(_row_norms(y2), (ny[0] * ny[0], ny[1] * ny[1]))),
        square_sum_slack=min(slack, default=_unscaled(0, d)),
        power_associativity=max(_worst(x4_gap), _worst(x6_gap)),
        unit_residual=_worst(_sub(product(unit, x), x)),
        pairs=pairs,
    )


# ---------------------------------------------------------------------------
# geometry of [0, 1] in the model


def _span_representation(synth):
    """(independent row ids, B) with row_l = sum_i B[l, i] row_{ids[i]}: the pairing's rows through generator_coords."""
    ids = synth.coord_map[0]
    cn, d = synth.generator_coords(synth.scaled_pairing)
    return ids, _unscaled(cn[:, ids], d)


@dataclass
class ExtremeVerdict:
    event: int
    extreme: bool
    direction: np.ndarray = None  # evaluation vector of a feasible perturbation


def check_extreme_points(synth, events=None):
    """Exact lane: each pi(e) must admit no two-sided perturbation inside [0, 1] within A."""
    if not synth.exact:
        raise SynthesisError("extreme points in the generator box need the exact lane")
    ids, b_mat = _span_representation(synth)
    r = len(ids)
    out = []
    for e in events if events is not None else synth.space.events():
        x = synth.pi(e)
        direction = None
        binding = [l for l in range(synth.n_states) if x[l] == 0 or x[l] == 1]
        rows = b_mat[binding].tolist()
        extreme = bool(binding) and linsolve.rank(rows) == r
        if not extreme:
            if binding:
                t = linsolve.solve_affine(rows, [Fraction(0)] * len(binding))[1][0]
            else:
                t = [Fraction(1 if i == 0 else 0) for i in range(r)]
            direction = b_mat @ np.array(t, dtype=object)
        out.append(ExtremeVerdict(event=e, extreme=extreme, direction=direction))
    return out


@dataclass
class MatrixExtremeVerdict:
    event: int
    extreme: bool
    direction: "jordan.JordanElement" = None  # perturbation with x +- d still in [0, 1]


def check_matrix_extremes(instance, events=None, tol=FLOAT_TOL):
    """Extreme-point test for matrix events, run in the operator interval.

    A finite family of densities cuts a box strictly larger than [0, 1] of the
    full matrix order, and in that box no projection with off-diagonal freedom
    is extreme: perturbing along a direction traceless against every sampled
    density keeps all the binding evaluations at equality.  The test therefore
    runs against the operator interval itself, where the extreme elements are
    exactly those with spectrum in {0, 1}.  The spectra of all events are one
    `jordan.batched_eigenvalues` call; only an event with an eigenvalue in
    (tol, 1 - tol) is decomposed, for the eigenprojection of its first such
    eigenvalue, which gives the direction.
    """
    events = list(events if events is not None else range(len(instance.elements)))
    values = jordan.batched_eigenvalues(instance.tag, np.stack([instance.elements[e].coords for e in events]))
    middle = ((values > tol) & (values < 1 - tol)).any(axis=1)
    extreme = ~middle & ((np.abs(values) <= tol) | (np.abs(values - 1) <= tol)).all(axis=1)
    out = []
    for e, is_middle, is_extreme in zip(events, middle.tolist(), extreme.tolist()):
        direction = None
        if is_middle:
            spec = jordan.spectral_decomposition(instance.elements[e])
            i, lam = next(((i, lam) for i, lam in enumerate(spec.values) if tol < lam < 1 - tol), (None, None))
            if i is not None:
                direction = min(lam, 1 - lam) * spec.frame[i]
        out.append(MatrixExtremeVerdict(event=e, extreme=is_extreme, direction=direction))
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
    res = solve_lp([Fraction(0)] * n_events, a_eq, b_eq)
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
    generator box.  Matrix lane (an instance given): extremality in the
    operator interval, plus a support-function certificate that a fresh
    projection escapes the hull of the finitely many sampled events, so density
    holds only in the limit.  A float-lane model without its instance raises
    SynthesisError.
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
    if not synth.exact:
        raise SynthesisError("hull density needs the exact lane or a matrix instance")
    report = DensityReport(lane="exact", extremes=check_extreme_points(synth))
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
