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
generators in order.  It returns one (values, denominator) pair of the
expansions of every requested (event, generator), in request order; the first
failure in that order raises.  The exact-lane oracle decides the LP-based
unique conditional of the state polytope for one generator at a time, then
expands them all with one `SyntheticSpace.generator_coords` call on their
stacked integer forms: the transpose of the coordinate map's integer inverse,
checked exactly on integers.  The same map writes every generator over the
first independent ones for the extreme-point test, so one inverse per model
serves every exact expansion.  The float-lane oracle conditions every density
under every requested event by the closed-form Lüders rule in one
`lueders.condition_stack` call and expands all requested conditionals with one
pseudoinverse product.  Event multipliers T_e = (I + U_e - U_e')/2 then
recover the product: x o y = T_y x extended bilinearly from the events,
symmetrized.
Both linear maps the product needs are built once per model: the left inverse
of the basis-event columns (coordinates of x over basis_events) and the
structure constants S[k, l] = (T_{b_k} pi(b_l) + T_{b_l} pi(b_k))/2, so that
x o y = sum_kl cx_k cy_l S[k, l].  The product takes one pair or a stack of
pairs; a stack is one coordinate map and one contraction, and the sampled norm
laws and the product comparison pass every pair at once.
The model dump writes each U_e over basis_events instead of the generators, as
the dim x dim matrix W_e of `ProductModel.basis_compressions`: column k holds
the coordinates of U_e pi(b_k).  Its one `scaled_coords` call over every image
checks that U_e maps A into A, which building the model does not assume: a
model whose compressions leave the event span still builds, and only the dump
raises.

Both lanes run one body on (values, denominator) pairs (`_scaled`): Python-int
numerators over an int denominator on the exact lane, float arrays over a
power-of-two float denominator on the float lane, so that no float bit is lost.
Each matrix is stored once, as such a pair: the pairing, the stacked
compressions and multipliers, the coordinate map and the structure constants.
The law sweep decides the polynomial laws on the coordinates C of the structure
constants over basis_events: the Jordan identity through its full linearization
on basis quadruples (McCrimmon, A Taste of Jordan Algebras, 2004), power
associativity through the symmetrized linearization of x^2 x^2 - (x^2 x) x
(Albert, On the power-associativity of rings, 1948) and the unit law on the
basis, exactly on the exact lane.  Only the square-norm law and the square-sum
slack are sampled, two product stacks.  The well-definedness sweep, the
symmetry residuals and the compression residuals are matrix products on the
values.  A norm is the largest |value| over the denominator, and a Fraction is
built only for a value that is reported or read as a value: the residuals,
`pairing_values` for the dump, and `pi`, `zeros`, `event_coords`, `u_apply` and
the product of value inputs.

Each lane has one bound, `lane_tol` (`SyntheticSpace.tol`): 0 on the exact
lane, where only exact zeros pass, and FLOAT_TOL on the float lane.  Every
lane-dependent comparison reads it (the state and span checks, positivity,
`synthesize`'s residuals, `observables`); float-only steps keep their own.

Everything the dual construction quietly assumes is verified, not trusted:
compression idempotency, unit images, invariance on mass-one generators,
multiplier symmetry, and the well-definedness of T_y across different
orthogonal decompositions of the same element, which the exhaustive
sum-triple sweep decides.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations_with_replacement

import numpy as np

from . import jordan, kernels, linsolve, lueders, orthospace, statespace
from .errors import CapacityError, SynthesisError
from .exactlp import OPTIMAL, solve_lp

FLOAT_TOL = 1e-8


def lane_tol(exact):
    """The one bound of a lane: 0 on the exact lane, FLOAT_TOL on the float lane."""
    return 0 if exact else FLOAT_TOL


def _independent_columns_float(mat):
    """Greedy left-to-right Gram-Schmidt column selection."""
    picked, basis = [], []
    for j in range(mat.shape[1]):
        v = mat[:, j].astype(np.float64).copy()
        scale = max(1.0, float(np.linalg.norm(v)))
        for b in basis:
            v -= (b @ v) * b
        if np.linalg.norm(v) > FLOAT_TOL * scale:
            basis.append(v / np.linalg.norm(v))
            picked.append(j)
    return picked


# A (values, d) pair holds Python-int numerators over an int d on the exact lane,
# and a float array over a float d on the float lane.  Every float d is a product
# of 1.0 and 2.0, so every scaling by it is exact (barring overflow and underflow).
# Only _scaled, _unscaled and _reduced tell the two forms apart.


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
    """The array values / d: floats over a float d (values itself over 1.0), Fractions over an int d."""
    if isinstance(d, float):
        return values if d == 1.0 else values / d
    return _fractions(values, d)


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
    """(rows, inv) with inv @ c[rows] = I for the columns c of the pair cols, so inv @ x[rows] gives the coordinates
    of x; inv is a (values, denominator) pair.

    Float lane: the pseudoinverse over every row.  Exact lane: the inverse of an
    independent block of rows, found on the integer columns cn themselves.
    """
    cn, d = cols
    if exact:
        dim = cn.shape[1]
        rows = linsolve.independent_subset(cn.tolist())
        red, _ = linsolve.rref([cn[i].tolist() + [int(i == j) for j in rows] for i in rows])
        inv = _scaled([r[dim:] for r in red])
    else:
        rows, inv = slice(None), (np.linalg.pinv(cn), 1.0)
    # the inverse of cn / d is d times the inverse of cn
    return rows, _reduced(inv[0] * d, inv[1])


@dataclass
class SyntheticSpace:
    """Finite event system modeled in the dual of its state span."""

    space: orthospace.OrthoSpace
    pairing: tuple  # mu_l(e) as a (values, denominator) pair of shape (n_states, n_events)
    exact: bool
    dim: int  # rank of the pairing matrix
    basis_events: tuple  # event ids whose pi-columns are independent
    coord_map: tuple  # (rows, inv) of _left_inverse over the basis_events columns

    @property
    def n_states(self):
        return self.pairing[0].shape[0]

    def pairing_values(self):
        """The pairing as values: Fractions on the exact lane, floats on the float lane."""
        return _unscaled(*self.pairing)

    def pi(self, e):
        pn, dp = self.pairing
        return np.array(_unscaled(pn[:, e], dp))

    def norm(self, x):
        """Order-unit norm max_l |x_l| of x (n,), or of each row of a stack (P, n) as an array.

        Exact on a Fraction array.
        """
        return np.max(np.abs(x), axis=-1, initial=0)

    @property
    def tol(self):
        """The bound of this model's lane, `lane_tol(exact)`."""
        return lane_tol(self.exact)

    def zeros(self):
        pn, dp = self.pairing
        return _unscaled(np.zeros_like(pn[:, 0]), dp)

    def event_coords(self, x):
        """Coefficients over basis_events reproducing x (n,), or each row of a stack (P, n).

        Raises SynthesisError if x, or any one row of the stack, lies outside the
        span, with the index of the first such row as its `row`.
        """
        return _unscaled(*self.scaled_coords(_scaled(x)))

    def scaled_coords(self, x):
        """event_coords of a (values, denominator) pair x, one row (n,) or a stack (P, n), as such a pair.

        With P the pi-columns of basis_events, the span check is ||P @ c - x|| <=
        tol * max(1, ||x||) row by row, tol the lane's bound (P @ c == x on the
        exact lane's integers); both sides are cleared of the denominators
        d_pairing and dx * d_inv.
        """
        xn, dx = x
        rows, (inv_n, d_inv) = self.coord_map
        pairing_n, d_pairing = self.pairing
        cn = xn[..., rows] @ inv_n.T
        back, want = cn @ pairing_n[:, list(self.basis_events)].T, xn * (d_inv * d_pairing)
        if self.exact:
            outside = np.any(back != want, axis=-1)
        else:
            # compared in squares, against the scale dx * d_inv * d_pairing of 1; the residual overwrites back
            r, scale = np.subtract(back, want, out=back), dx * d_inv * d_pairing
            bound = self.tol ** 2 * np.maximum(scale * scale, np.einsum("...i,...i->...", want, want))
            outside = np.einsum("...i,...i->...", r, r) > bound
        _raise_at_first(outside, "element lies outside the event span")
        return cn, dx * d_inv

    def generator_coords(self, x):
        """Exact-lane coefficients over the generators of a _scaled pair x over the events, one row or a stack.

        The coefficients are inv.T @ x[basis_events] on the rows of coord_map and
        zero elsewhere, as a _scaled pair: the solution of c @ pairing = x that
        is zero off the first independent generators.  Raises SynthesisError if
        x, or any one row of the stack, lies outside the generator span, with
        the index of the first such row as its `row`.
        """
        xn, dx = x
        rows, (inv_n, d_inv) = self.coord_map
        pairing_n, d_pairing = self.pairing
        cn = np.zeros((*xn.shape[:-1], self.n_states), dtype=object)
        cn[..., rows] = xn[..., list(self.basis_events)] @ inv_n
        # c @ pairing == x, cleared of the denominators d_pairing and dx * d_inv
        outside = np.any(cn[..., rows] @ pairing_n[rows] != xn * (d_inv * d_pairing), axis=-1)
        _raise_at_first(outside, "element lies outside the generator span")
        return cn, dx * d_inv


def _raise_at_first(outside, message):
    """Raise SynthesisError(message) when any row is outside; its `row` is the index of the first such row."""
    if np.any(outside):
        err = SynthesisError(message)
        err.row = int(np.argmax(outside))
        raise err


def _check_state_rows(space, pairing, exact):
    """Raise SynthesisError at the first generator row of the pairing that is not a state.

    One `statespace.state_failures` pass checks every row against the unit,
    the [0, 1] range and each state equation within the lane's bound (exactly
    on the integers over d).  On the exact lane the message carries
    `is_state`'s first violation of the failing row.
    """
    pn, d = pairing
    table = statespace.state_table(space)
    out, broken = statespace.state_failures(table, pn, d, lane_tol(exact))
    failed = np.flatnonzero(out.any(axis=1) | broken.any(axis=1))
    if not len(failed):
        return
    ix = int(failed[0])
    if exact:
        _, viol = statespace.is_state(space, statespace.State.from_integers(pn[ix].tolist(), d))
        raise SynthesisError(f"generator {ix} is not a state: {viol[0]}")
    if out[ix].any() or broken[ix, 0]:
        raise SynthesisError(f"generator {ix} is not a state (mass or range)")
    e, f, _ = table.events[1 + int(np.argmax(broken[ix, 1:]))].tolist()
    raise SynthesisError(f"generator {ix} is not additive on ({e}, {f})")


def build_synthetic_space(space, value_rows, exact):
    """Model from explicit generator value rows (one row per state, over all events)."""
    rows = [list(r) for r in value_rows]
    _check_row_lengths(space, rows)
    return _synthetic_space(space, _scaled(np.array(rows, dtype=object if exact else np.float64)), exact)


def abstract_synthetic_space(space, states):
    """Exact model from states: the pairing is their integer forms stacked over one denominator."""
    forms = [s.integers for s in states]
    _check_row_lengths(space, [ints for ints, _ in forms])
    return _synthetic_space(space, statespace.stack_integers(forms, space.n_events), exact=True)


def _check_row_lengths(space, rows):
    if not rows:
        raise SynthesisError("no state generators")
    for ix, row in enumerate(rows):
        if len(row) != space.n_events:
            raise SynthesisError(f"generator {ix} is not a state: {('length', len(row), space.n_events)}")


def _synthetic_space(space, pairing, exact):
    """Model from a pairing (values, d); SynthesisError at its first row that is not a state."""
    _check_state_rows(space, pairing, exact)
    pn, dp = pairing
    picked = linsolve.independent_subset(pn.T.tolist()) if exact else _independent_columns_float(pn)
    dim = len(picked)
    if dim == 0:
        raise SynthesisError("pairing matrix has rank 0")
    return SyntheticSpace(
        space=space,
        pairing=pairing,
        exact=exact,
        dim=dim,
        basis_events=tuple(picked),
        coord_map=_left_inverse((pn[:, picked], dp), exact),
    )


def matrix_synthetic_space(instance):
    return build_synthetic_space(instance.space, instance.value_rows(), exact=False)


# ---------------------------------------------------------------------------
# conditional-expansion oracles


def polytope_expansion_oracle(synth, polytope):
    """Exact-lane oracle: LP-unique conditionals, all expanded over the generators by one `generator_coords` call.

    The verdicts are decided in request order, and the first one that is not
    UNIQUE raises with its generator, event and verdict.  The conditionals'
    integer forms are then stacked over one denominator; a stack outside the
    generator span raises, naming the generator of its first such row.
    """
    states = [statespace.State.from_integers(row, synth.pairing[1]) for row in synth.pairing[0].tolist()]

    def oracle(requests):
        pairs = [(l, e) for e, generators in requests for l in generators]
        forms = []
        for l, e in pairs:
            verdict = statespace.check_conditional_uniqueness(polytope, states[l], e)
            if verdict.verdict != statespace.UNIQUE:
                err = SynthesisError(f"conditional of generator {l} under event {e} is {verdict.verdict}")
                err.generator, err.event, err.verdict = l, e, verdict
                raise err
            forms.append(verdict.conditional.integers)
        try:
            return synth.generator_coords(statespace.stack_integers(forms, synth.space.n_events))
        except SynthesisError as exc:
            l = pairs[exc.row][0]
            raise SynthesisError(f"conditional of generator {l} lies outside the generator span") from None

    return oracle


def density_matrix(instance):
    """The instance's densities as rows of flattened coordinates: evaluation is one matvec."""
    return instance.densities.coords.reshape(len(instance.densities), -1)


def lueders_expansion_oracle(synth, instance):
    """Float-lane oracle: closed-form Lüders conditionals, expanded over densities.

    One call conditions every density under every requested event in one
    `lueders.condition_stack` and expands the requested conditionals with one
    pseudoinverse product, returned over 1.0.  The first (event, generator)
    pair, in request order, whose conditioning or span check fails is the one
    that raises.
    """
    coords = instance.densities.coords
    flat = density_matrix(instance)
    pinv_t = np.linalg.pinv(flat.T).T

    def oracle(requests):
        conds, errors = lueders.condition_stack(coords, [instance.elements[e] for e, _ in requests])
        counts = [len(generators) for _, generators in requests]
        # the (request, generator) pairs in request order, as two index arrays
        ii = np.repeat(np.arange(len(requests)), counts)
        ls = np.concatenate([generators for _, generators in requests]).astype(np.intp, copy=False)
        targets = conds[ii, ls].reshape(len(ls), flat.shape[1])
        expansions = targets @ pinv_t
        residuals = np.linalg.norm(expansions @ flat - targets, axis=1)
        error_stack = np.fromiter(chain.from_iterable(errors), object, len(requests) * len(coords))
        failed = np.not_equal(error_stack.reshape(len(requests), len(coords))[ii, ls], None)
        first = np.flatnonzero(failed | (residuals > FLOAT_TOL))
        if first.size:
            k = first[0]
            if failed[k]:
                raise errors[ii[k]][ls[k]]
            raise SynthesisError(f"conditional of generator {ls[k]} lies outside the density span")
        return expansions, 1.0

    return oracle


# ---------------------------------------------------------------------------
# compressions and multipliers


@dataclass
class CompressionReport:
    """The residuals of one compression U_e."""

    # each residual: a float on the float lane, an exact Fraction on the exact lane
    idempotency: float | Fraction  # max |U^2 - U|
    unit_image: float | Fraction  # max |U pi(1) - pi(e)|
    invariance: float | Fraction  # worst mass-one generator drift on the events


def build_compression(synth, requests, expansions):
    """U_e of every event, as ((values, denominator), {event: CompressionReport}).

    Row l of U_e is mu_l(e) times the expansion of the conditional of mu_l under e.
    `requests` lists (e, generators) as the oracle took them and `expansions`
    is its answer, one (values, denominator) pair of every expansion in that
    order; every other row (zero mass on e) stays zero.  All U_e are one
    (E, n, n) stack of values over the expansions' denominator times the
    pairing's, in lowest terms, and each residual is taken from stacked
    products.
    """
    events = synth.space.events()
    pn, dp = synth.pairing
    xn, dx = expansions
    un = np.zeros((len(events), synth.n_states, synth.n_states), dtype=pn.dtype)
    es = np.repeat(np.array([e for e, _ in requests], dtype=np.intp), [len(generators) for _, generators in requests])
    ls = np.fromiter(chain.from_iterable(generators for _, generators in requests), np.intp, len(es))
    un[es, ls] = pn[ls, es][:, None] * xn
    # U_e = un[e] / du
    un, du = _reduced(un, dp * dx)
    # the drift of row l of U_e @ pairing from pairing[l], kept on the generators l of mass one on e
    mass_one = pn == dp if synth.exact else np.abs(pn - 1.0) <= 1e-10
    drifts = np.where(mass_one.T, _top(un @ pn - pn * du, axis=2), 0)
    idem = _worst(_sub((un @ un, du * du), (un, du)), axis=(1, 2))
    unit_image = _worst((un @ pn[:, synth.space.unit] - pn.T * du, du * dp), axis=1)
    invariance = _worst((drifts, du * dp), axis=1)
    reports = {e: CompressionReport(idempotency=idem[e], unit_image=unit_image[e], invariance=invariance[e])
               for e in events}
    return (un, du), reports


@dataclass
class ProductModel:
    """Synthetic compressions, multipliers, and the reconstructed product.

    The compressions U_e and the multipliers T_e = (I + U_e - U_e')/2 are each
    one (n_events, n, n) stack in event order, held as a (values, denominator)
    pair: in lowest terms on the exact lane, over a power of two on the float
    lane (the halving in T_e and S), so the float values keep their bits.
    """

    synth: SyntheticSpace
    compressions: tuple  # U_e stacked
    compression_reports: dict  # event -> CompressionReport
    multipliers: tuple  # T_e stacked
    # S[k, l] = b_k o b_l over basis_events, flattened over (k, l): (dim * dim, n_states), built from the
    # multipliers as a (values, denominator) pair in the same form
    table: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        synth = self.synth
        basis = list(synth.basis_events)
        (tn, dt), (pn, dp) = self.multipliers, synth.pairing
        # a[k, l] = T_{b_k} pi(b_l) = an[k, l] / (dt dp); S is its symmetrization over (k, l)
        an = (tn[basis] @ pn[:, basis]).transpose(0, 2, 1)
        self.table = _reduced((an + an.transpose(1, 0, 2)).reshape(-1, synth.n_states), 2 * dt * dp)

    def u_apply(self, e, x):
        """U_e x of an array x (n,)."""
        (un, du), (xn, dx) = self.compressions, _scaled(x)
        return _unscaled(un[e] @ xn, du * dx)

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

    def basis_compressions(self):
        """W_e of every event, stacked in event order: U_e as a (dim, dim) matrix over basis_events.

        Column k of W_e holds the coordinates of U_e pi(b_k).  All n_events * dim
        images are written over basis_events by one `scaled_coords` call, whose
        span check verifies that U_e maps A into A; an image outside the event
        span raises SynthesisError naming the first such event.
        """
        synth = self.synth
        events = synth.space.events()
        (un, du), (pn, dp) = self.compressions, synth.pairing
        # images[e, k] = U_e pi(b_k), over du * dp
        images = (un @ pn[:, list(synth.basis_events)]).transpose(0, 2, 1)
        try:
            cn, d = synth.scaled_coords((images.reshape(-1, synth.n_states), du * dp))
        except SynthesisError as exc:
            e = exc.row // synth.dim
            raise SynthesisError(f"compression of event {e} maps A outside the event span") from None
        return _unscaled(cn.reshape(len(events), synth.dim, synth.dim).transpose(0, 2, 1), d)

    def worst_symmetry(self):
        """Largest |T_e pi(f) - T_f pi(e)| over e < f, and its first pair in row-major order."""
        synth = self.synth
        es, fs = np.triu_indices(synth.space.n_events, 1)
        (tn, dt), (pn, dp) = self.multipliers, synth.pairing
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
    # a float pairing is over 1.0
    massive = synth.pairing[0] != 0 if synth.exact else ~(synth.pairing[0] <= lueders.MASS_THRESHOLD)
    requests = [(e, np.flatnonzero(massive[:, e]).tolist()) for e in space.events() if massive[:, e].any()]
    (un, du), reports = build_compression(synth, requests, oracle(requests))
    # T_e = (I + U_e - U_e')/2, stacked over the events and formed on the compressions' values
    comp = [space.comp(e) for e in space.events()]
    tn = np.eye(synth.n_states, dtype=un.dtype) * du + un - un[comp]
    return ProductModel(synth=synth, compressions=(un, du), compression_reports=reports,
                        multipliers=_reduced(tn, 2 * du))


# ---------------------------------------------------------------------------
# verification sweeps


def check_well_definedness(model):
    """Multipliers must not care how an element is cut into orthogonal pieces: the worst residual
    ||(T_e + T_f - T_{e+f}) pi(b)|| over the basis events b, a float or an exact Fraction.

    The sweep is exhaustive: T_e + T_f = T_{e+f} on the event span, for every
    defined sum e + f of nonzero events, e <= f, taken on the multipliers'
    values over their denominator.  That decides every regrouping too.  A
    regrouping merges members of an orthogonal family F into their
    `orthospace.iterated_sum`, each partial sum a defined sum of two nonzero
    events, so sum_g c_g T_g - sum_c c T_{sum of its members} telescopes into
    sum-triple terms.  On the exact lane a zero residual gives every regrouping
    exactly; on the float lane a regrouping with coefficients |c| <= 2 is off
    by at most 2 (|F| - 1) times the sum-triple residual.
    """
    synth = model.synth
    space = synth.space
    (mults, dt), (pn, dp) = model.multipliers, synth.pairing
    cols = pn[:, list(synth.basis_events)]
    # (T_e + T_f - T_{e+f}) pi(b) over every defined sum e + f, e <= f, both nonzero,
    # stacked _PAIR_BLOCK sums at a time
    es, fs = np.nonzero(np.triu(space.sum_table >= 0))
    keep = (es != space.zero) & (fs != space.zero)
    es, fs = es[keep], fs[keep]
    ss = space.sum_table[es, fs]
    triples = [_top((mults[es[b]] + mults[fs[b]] - mults[ss[b]]) @ cols) for b in orthospace.pair_blocks(len(es), 1)]
    # an object array, so that the exact lane's Python-int tops never pass through a fixed-width integer
    return _worst((np.array(triples, dtype=object), dt * dp))


@dataclass
class SyntheticLawReport:
    # each residual: a float on the float lane, an exact Fraction on the exact lane
    jordan_identity: float | Fraction
    square_norm: float | Fraction
    square_sum_slack: float | Fraction  # min of ||x^2+y^2|| - ||x^2||, should be >= -tol
    power_associativity: float | Fraction
    unit_residual: float | Fraction
    pairs: int

    def passed(self, tol):
        return (
            max(self.jordan_identity, self.square_norm, self.power_associativity, self.unit_residual) <= tol
            and self.square_sum_slack >= -tol
        )


def _structure_constants(model):
    """(C, u, d): the coordinates over basis_events of every S[k, l], as C[k, l] (dim, dim, dim), and of the
    unit, as u (dim,), all numerators over one denominator d.

    One `scaled_coords` call on the stacked rows writes them and span-checks
    every S[k, l]: a table that leaves the event span raises SynthesisError.
    """
    synth = model.synth
    r = synth.dim
    (sn, ds), (pn, dp) = model.table, synth.pairing
    rows = np.concatenate([sn * dp, pn[:, synth.space.unit][None] * ds])
    cn, d = _reduced(*synth.scaled_coords((rows, ds * dp)))
    return cn[:-1].reshape(r, r, r), cn[-1], d


def _decided_laws(model):
    """(Jordan, power associativity, unit) residuals, decided on the structure constants.

    With L_k the matrix of e_k o . (L_k[n, m] = C[k, m, n]) and L_ab that of
    (e_a o e_b) o ., each law is a multilinear form on basis elements:
    - J(a, b, c, .) = sum over the cyclic shifts of (a, b, c) of [L_c, L_ab],
      whose value on d is ((a o b) o d) o c - (a o b) o (d o c): the full
      linearization of (x^2 o y) o x = x^2 o (y o x), symmetric in a, b, c, so
      taken on a <= b <= c and every d.  A commutative algebra over a field
      of characteristic 0 is Jordan exactly when J vanishes on every basis
      quadruple (McCrimmon, A Taste of Jordan Algebras, 2004).
    - P(a, b, c, d), the symmetrization of x^2 o x^2 - (x^2 o x) o x over the
      24 orders of its four factors, so that P(x, x, x, x) is that gap:
      [4 sum_pairings (a o b) o (c o d) - sum_s L_s T(rest)] / 12, with T(u, v, w)
      = (u o v) o w + (v o w) o u + (w o u) o v over the three factors other
      than s.  Symmetric, so taken on a <= b <= c <= d.  A commutative algebra
      over a field of characteristic 0 is power-associative exactly when
      x^2 o x^2 = (x^2 o x) o x (Albert, On the power-associativity of rings,
      1948).
    - U(k) = u o e_k - e_k on the dim basis elements.
    Each residual is the largest order-unit norm, over the generators, of a
    form's values on the basis tuples.  Only tuples are indexed, never a full
    dim^5 tensor.
    """
    synth = model.synth
    r = synth.dim
    cs, u, d = _structure_constants(model)
    pn, dp = synth.pairing
    basis_t = pn[:, list(synth.basis_events)].T
    ops = cs.transpose(0, 2, 1)
    flat = cs.reshape(r * r, r)
    # pair_ops[a, b] = L_ab and left[p, q, s] = (e_p o e_q) o e_s, both over d^2
    pair_ops = (flat @ ops.reshape(r, r * r)).reshape(r, r, r, r)
    left = (flat @ cs.reshape(r, r * r)).reshape(r, r, r, r)

    def tuples(k):
        """The index arrays of every k-tuple i_1 <= ... <= i_k of basis elements."""
        return np.array(list(combinations_with_replacement(range(r), k)), dtype=np.intp).T

    def apply(mats, vecs):
        return (mats @ vecs[..., None])[..., 0]

    def worst(vecs, den):
        """Largest order-unit norm of coordinate vectors (..., r) over den, taken on their generator values."""
        return _worst((vecs @ basis_t, den * dp))

    a, b, c = tuples(3)
    # column e of each (r, r) block is J(a, b, c, e)
    jordan_ops = sum(ops[z] @ pair_ops[x, y] - pair_ops[x, y] @ ops[z] for x, y, z in ((a, b, c), (b, c, a), (c, a, b)))
    q = tuples(4)
    pairings = sum(apply(pair_ops[q[i], q[j]], cs[q[k], q[m]])
                   for i, j, k, m in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)))
    chains = 0
    for s in range(4):
        x, y, z = (q[i] for i in range(4) if i != s)
        chains = chains + apply(ops[q[s]], left[x, y, z] + left[y, z, x] + left[z, x, y])
    unit = (u @ cs.reshape(r, r * r)).reshape(r, r) - np.eye(r, dtype=cs.dtype) * (d * d)
    return (worst(jordan_ops.transpose(0, 2, 1), d ** 3), worst(4 * pairings - chains, 12 * d ** 3),
            worst(unit, d * d))


def check_laws_on_reconstruction(model, pairs=200, rng=None):
    """Jordan identity, power associativity and the unit law, decided; the norm laws on sampled primitives.

    The three polynomial laws are decided on the structure constants
    (`_decided_laws`): exactly on the exact lane, in floats on the float lane.
    A table that leaves the event span raises SynthesisError.  The square-norm
    law | ||y^2|| - ||y||^2 | and the square-sum slack ||x^2 + y^2|| - ||x^2||
    are norm and order statements, not polynomial identities, so they stay
    sampled, on `pairs` pairs (x, y) of random primitives: sum_g t_g pi(g) over
    a random maximal orthogonal family, the families padded with the zero
    event.  One rng call draws every family, one every coefficient: t = k / 4,
    k in -8..8, held as numerators over 4 dp on the exact lane, and t uniform
    in [-1, 1] on the float lane.  The x come first, then the y; x^2 and y^2 are
    one product stack each.
    """
    rng = rng or np.random.default_rng(0)
    synth = model.synth
    jordan_identity, power, unit = _decided_laws(model)
    space = synth.space
    fams = orthospace.maximal_orthogonal_families(space)
    width = max(map(len, fams))
    padded = np.array([fam + [space.zero] * (width - len(fam)) for fam in fams])
    members = padded[rng.integers(len(fams), size=2 * pairs)]
    pn, dp = synth.pairing
    if synth.exact:
        coeffs, d = rng.integers(-8, 9, size=members.shape).astype(object), 4 * dp
    else:
        coeffs, d = rng.uniform(-1.0, 1.0, size=members.shape), dp
    draws = (coeffs[..., None] * pn.T[members]).sum(axis=1)
    x, y = (draws[:pairs], d), (draws[pairs:], d)
    x2, y2 = model.product(x, x), model.product(y, y)
    ny = _row_norms(y)
    slack = _unscaled(*_sub(_row_norms(_add(x2, y2)), _row_norms(x2))).tolist()
    return SyntheticLawReport(
        jordan_identity=jordan_identity,
        square_norm=_worst(_sub(_row_norms(y2), (ny[0] * ny[0], ny[1] * ny[1]))),
        square_sum_slack=min(slack, default=_unscaled(0, d)),
        power_associativity=power,
        unit_residual=unit,
        pairs=pairs,
    )


# ---------------------------------------------------------------------------
# geometry of [0, 1] in the model


@dataclass
class ExtremeVerdict:
    event: int
    extreme: bool
    # x +- eps d stays in [0, 1]: Python ints over the generators, or a JordanElement on the matrix lane
    direction: "np.ndarray | jordan.JordanElement" = None


def check_extreme_points(synth):
    """Exact lane: each pi(e) must admit no two-sided perturbation inside [0, 1] within A.

    A direction P t of A (P the integer pi-columns of basis_events) moves pi(e)
    both ways exactly when it is 0 on every generator where pi(e) is 0 or 1.  So
    pi(e) is extreme when those rows of P have full rank; else the first vector
    t of their integer nullspace gives the direction P t.
    """
    if not synth.exact:
        raise SynthesisError("extreme points in the generator box need the exact lane")
    pn, dp = synth.pairing
    cols = pn[:, list(synth.basis_events)]
    binding = (pn == 0) | (pn == dp)
    out = []
    for e in synth.space.events():
        # an all-zero row stands for no binding row: every column is then free
        rows = cols[binding[:, e]].tolist() or [[0] * synth.dim]
        free = linsolve.solve_affine_ints(rows, [0] * len(rows))[1]
        direction = cols @ np.array(free[0], dtype=object) if free else None
        out.append(ExtremeVerdict(event=e, extreme=not free, direction=direction))
    return out


def check_matrix_extremes(instance, events=None):
    """Extreme-point test for matrix events, run in the operator interval.

    A finite family of densities cuts a box strictly larger than [0, 1] of the
    full matrix order, and in that box no projection with off-diagonal freedom
    is extreme: perturbing along a direction traceless against every sampled
    density keeps all the binding evaluations at equality.  The test therefore
    runs against the operator interval itself, where the extreme elements are
    exactly those with spectrum in {0, 1}.  The spectra of all events are one
    `jordan.batched_eigenvalues` call; only an event with an eigenvalue in
    (tol, 1 - tol), tol = FLOAT_TOL, is decomposed, for the eigenprojection
    of its first such eigenvalue, which gives the direction.
    """
    tol = FLOAT_TOL
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
        out.append(ExtremeVerdict(event=e, extreme=is_extreme, direction=direction))
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
    # the box points of span pi(E): x = (0 + B t) / D over the independent event columns, B / D of them
    pn, dp = synth.pairing
    span = ([0] * synth.n_states, pn[:, list(synth.basis_events)].T.tolist(), dp)
    verts = statespace._enumerate_vertices(span)
    # a vertex is an event image when its lowest-terms form is that event's pairing column's
    cols = {statespace._lowest(col, dp) for col in pn.T.tolist()}
    on_events = sum(1 for v in verts if statespace._lowest(*v) in cols)
    events_in_box = bool(((pn >= 0) & (pn <= dp)).all())
    return BoxReport(
        vertices=len(verts),
        vertices_on_events=on_events,
        events_in_box=events_in_box,
        equal=events_in_box and on_events == len(verts),
    )


def hull_membership(synth, x):
    """Exact lane: is x a convex combination of the pi(e)?  LP feasibility on integer rows.

    x is a (numerators, d) pair over the generators, one point (n_states,) or a
    stack (P, n_states), answered by a bool or a list of bools.  Each point's
    rows are `statespace.hull_system` of the event images pi(e), the columns
    of the pairing, at the point.
    """
    if not synth.exact:
        raise SynthesisError("hull membership needs the exact lane")
    xn, d = x
    pn, dp = synth.pairing
    images, cost = (pn.T, dp), [0] * pn.shape[1]
    member = [solve_lp(cost, statespace.hull_system(images, range(len(point)), (point, d)), None).status == OPTIMAL
              for point in np.atleast_2d(xn).tolist()]
    return member if np.ndim(xn) > 1 else member[0]


# ---------------------------------------------------------------------------
# canonical comparison against a matrix instance


def compare_with_lueders(model, instance):
    """Worst gap between synthetic compressions and {e, ., e} on a spanning set.

    Every (event, basis element) pair is compressed by `kernels.quadratic`
    calls over blocks of events, each holding at most `orthospace._PAIR_BLOCK`
    pairs (or one event): U_e b = e b e on the associative tags, from Jordan
    products on the octonions.  Each block is compared in one stacked product.
    """
    densities = density_matrix(instance)
    basis = np.stack([h.coords for h in jordan.hermitian_basis(instance.tag, instance.n)])
    basis_evals = densities @ basis.reshape(len(basis), -1).T
    es = np.stack([e.coords for e in instance.elements])[:, None]
    us = _unscaled(*model.compressions)
    worst = 0.0
    for block in orthospace.pair_blocks(len(es), len(basis)):
        comp = kernels.quadratic(es[block], basis)
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
    pis = model.synth.pairing_values()[:, :n].T
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

    def separates(self):
        return self.gap > FLOAT_TOL


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
    box: BoxReport = None  # None on the matrix lane, and on the exact lane past the vertex cap (not checked)
    samples_member: int = 0
    samples_outside: int = 0
    separation: SeparationCertificate = None
    note: str = ""


def check_hull_density(synth, samples=25, rng=None, instance=None):
    """Interval-versus-hull report: extreme points plus coverage or its failure.

    Exact lane: vertex comparison of [0, 1] against conv(pi(E)), LP membership
    for rejection-sampled interval points, extremality of every pi(e) in the
    generator box.  Each sample is held as integers over 4 dp, the pairing's
    denominator dp times the 4 of its coefficients k / 4, and tested on them:
    the [0, 1] range, then the membership LP, whose integer rows are built
    once.  An equal box contradicted by a sample outside the hull raises
    SynthesisError.  When enumerating the interval's vertices would pass the
    cap, box stays None, not checked, and the samples are still drawn and
    tested.  Matrix lane (an instance given): extremality in the operator
    interval, plus a support-function certificate that a fresh projection
    escapes the hull of the finitely many sampled events, so density holds
    only in the limit.  A float-lane model without its instance raises
    SynthesisError.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    if instance is not None:
        report = DensityReport(lane="matrix", extremes=check_matrix_extremes(instance))
        for _ in range(samples):
            q = jordan.random_projection(instance.tag, instance.n, rng)
            if any(jordan.max_abs(q - p) <= 1e-6 for p in instance.elements):
                continue
            cert = hull_separation_certificate(instance, q)
            if cert.separates():
                report.separation = cert
                report.note = "finite event sample: interval density holds only in the limit"
                break
        return report
    if not synth.exact:
        raise SynthesisError("hull density needs the exact lane or a matrix instance")
    report = DensityReport(lane="exact", extremes=check_extreme_points(synth))
    try:
        report.box = check_box_equality(synth)
    except CapacityError:
        report.box = None  # not checked
    pn, dp = synth.pairing
    r = len(synth.basis_events)
    # each sample is sum_i (k_i / 4) pi(e_i) over the basis events, as integers over 4 dp
    draws = [[int(rng.integers(-2, 7)) for _ in range(r)] for _ in range(samples)]
    xn = np.array(draws, dtype=object).reshape(samples, r) @ pn[:, list(synth.basis_events)].T
    inside = xn[[all(0 <= v <= 4 * dp for v in point) for point in xn.tolist()]]
    member = hull_membership(synth, (inside, 4 * dp))
    report.samples_member = sum(member)
    report.samples_outside = len(member) - report.samples_member
    if report.box is not None and report.box.equal and report.samples_outside:
        raise SynthesisError("box equality contradicts a failed membership sample")
    return report
