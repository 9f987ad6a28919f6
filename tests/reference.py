"""Dense Fraction references that the package's integer forms are compared against."""

import math
from fractions import Fraction
from itertools import chain, combinations_with_replacement, permutations

import numpy as np

from ucpspace import linsolve, observables, orthospace, statespace, synthesis
from ucpspace.errors import ConditioningUndefinedError, PreconditionError, SynthesisError, UcpError
from ucpspace.exactlp import INFEASIBLE, OPTIMAL, UNBOUNDED, Farkas, LpResult, verify_farkas


def equality_rows(space):
    """The state equations as dense (row, rhs) Fraction pairs: unit mass, then the additivity rows.

    One row e + f - (e + f) per orthogonal pair e <= f with a defined sum, in
    that order; a row equal to an earlier additivity row is dropped.
    """
    n = space.n_events
    rows = []
    unit_row = [Fraction(0)] * n
    unit_row[space.unit] = Fraction(1)
    rows.append((tuple(unit_row), Fraction(1)))
    seen = set()
    st = space.sum_table
    for e in range(n):
        for f in range(e, n):
            if space.ortho[e, f] and st[e, f] >= 0:
                s = int(st[e, f])
                row = [Fraction(0)] * n
                row[e] += 1
                row[f] += 1
                row[s] -= 1
                key = tuple(row)
                if any(v != 0 for v in key) and key not in seen:
                    seen.add(key)
                    rows.append((key, Fraction(0)))
    return rows


def reference_is_state(space, state):
    """statespace.is_state as an n^2 walk over the event pairs: one additivity violation per
    orthogonal pair e <= f with a defined sum, however many pairs give the same equation."""
    n = space.n_events
    viol = []
    if len(state) != n:
        return False, [("length", len(state), n)]
    vals = [statespace._frac(v) for v in state.values]
    if vals[space.unit] != 1:
        viol.append(("unit", vals[space.unit]))
    for e in range(n):
        if not (0 <= vals[e] <= 1):
            viol.append(("range", e, vals[e]))
    st = space.sum_table
    for e in range(n):
        for f in range(e, n):
            if space.ortho[e, f] and st[e, f] >= 0:
                s = int(st[e, f])
                if vals[e] + vals[f] != vals[s]:
                    viol.append(("additivity", e, f, vals[e] + vals[f], vals[s]))
    return not viol, viol


# The exact-lane synthesis sweeps in Fraction arithmetic, on the values of the
# model's multipliers and pairing: the integer-numerator sweeps must give the same
# values and consume the same draws.


def values(pair):
    """A (values, denominator) pair of the package as its values: Fractions on the exact lane, floats on the float
    lane."""
    return synthesis._unscaled(*pair)


def _max_abs(arr):
    """The exact max |entry| of a Fraction array."""
    return max((abs(v) for v in np.ravel(arr)), default=0)


def compression(synth, e, generators, expansions):
    """(U_e, idempotency, unit image, invariance) of build_compression, in Fractions."""
    pairing = synth.pairing_values()
    u = np.stack([synth.zeros() for _ in range(synth.n_states)])
    if generators:
        u[generators] = pairing[generators, e][:, None] * np.asarray(expansions, dtype=object)
    drift = 0
    for l in np.flatnonzero(pairing[:, e] == 1):
        drift = max(drift, _max_abs(u[l] @ pairing - pairing[l]))
    return u, _max_abs(u @ u - u), _max_abs(u @ synth.pi(synth.space.unit) - synth.pi(e)), drift


def worst_symmetry(model):
    """Largest |T_e pi(f) - T_f pi(e)| over e < f, and its first pair in row-major order."""
    synth = model.synth
    images = values(model.multipliers) @ synth.pairing_values()
    es, fs = np.triu_indices(synth.space.n_events, 1)
    residuals = [_max_abs(r) for r in images[es, :, fs] - images[fs, :, es]]
    if not any(r > 0 for r in residuals):
        return 0, None
    i = int(np.argmax(residuals))
    return residuals[i], (int(es[i]), int(fs[i]))


def well_definedness(model, samples, rng):
    """(sum-triple residual, [(regroup residual, family size), ...]) on the Fraction multipliers.

    The sum-triple residual is check_well_definedness's, pair by pair.  The
    regroupings are drawn as the sweep once drew them: a random maximal
    family of two or more events, each member a coefficient from {1, 1, -1,
    1/2, 2}, the members of each coefficient merged by orthospace.iterated_sum;
    a draw that merges nothing, or whose sum is undefined, is skipped.
    """
    synth = model.synth
    space = synth.space
    mults = values(model.multipliers)
    cols = synth.pairing_values()[:, list(synth.basis_events)]
    worst_triple = 0
    for e in space.events():
        for f in range(e, space.n_events):
            s = space.sum_of(e, f)
            if s is None or space.zero in (e, f):
                continue
            worst_triple = max(worst_triple, _max_abs((mults[e] + mults[f] - mults[s]) @ cols))
    families = [fam for fam in orthospace.maximal_orthogonal_families(space) if len(fam) > 1]
    regroups = []
    menu = [Fraction(1), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2)]
    for _ in range(samples if families else 0):
        fam = families[rng.integers(len(families))]
        coeffs = [menu[rng.integers(len(menu))] for _ in fam]
        groups = {}
        for g, c in zip(fam, coeffs):
            groups.setdefault(c, []).append(g)
        merged = [(c, orthospace.iterated_sum(space, members)) for c, members in groups.items()]
        if any(total is None for _, total in merged) or len(merged) == len(fam):
            continue
        direct = sum(mults[g] * c for g, c in zip(fam, coeffs))
        grouped = sum(mults[g] * c for c, g in merged)
        regroups.append((_max_abs((direct - grouped) @ cols), len(fam)))
    return worst_triple, regroups


def decided_laws(model):
    """check_laws_on_reconstruction's (Jordan, power associativity, unit) residuals by brute force.

    Each law in its literal form, by model.product on stacks of every basis
    tuple: the Jordan form sum_cyc(a, b, c) ((a b) d) c - (a b)(d c) on a <= b
    <= c and every d, the mean over all 24 orders (p, q, s, t) of the four
    factors of (p q)(s t) - ((p q) s) t on a <= b <= c <= d, and u b - b on
    every basis element b.  Each residual is the largest generator sup-norm.
    """
    synth = model.synth
    basis = np.stack([synth.pi(b) for b in synth.basis_events])
    r = len(basis)
    prod = model.product

    def worst(rows):
        return max(synth.norm(rows), default=0)

    quads = [(a, b, c, d) for a, b, c in combinations_with_replacement(range(r), 3) for d in range(r)]
    jordan = 0
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        x, y, z, w = (basis[[t[m] for t in quads]] for m in (i, j, k, 3))
        xy = prod(x, y)
        jordan = jordan + prod(prod(xy, w), z) - prod(xy, prod(w, z))
    orders = [p for q in combinations_with_replacement(range(r), 4) for p in permutations(q)]
    p, q, s, t = (basis[[o[m] for o in orders]] for m in range(4))
    pq = prod(p, q)
    gaps = (prod(pq, prod(s, t)) - prod(prod(pq, s), t)).reshape(-1, 24, synth.n_states).sum(axis=1) / 24
    unit = prod(np.broadcast_to(synth.pi(synth.space.unit), basis.shape), basis) - basis
    return worst(jordan), worst(gaps), worst(unit)


def sampled_norm_laws(model, pairs, rng):
    """check_laws_on_reconstruction's (square norm, square-sum slack) on the same draws, in Fractions.

    Each primitive is sum_g t_g pi(g) over its family, built term by term: t =
    k / 4 as a Fraction on the exact lane, a float on the float lane.  The
    padding's coefficients would multiply the zero event, so they are drawn
    and dropped.  x^2 and y^2 are one product call each, as in the sweep.
    """
    synth = model.synth
    fams = orthospace.maximal_orthogonal_families(synth.space)
    width = max(len(fam) for fam in fams)
    picks = rng.integers(len(fams), size=2 * pairs)
    if synth.exact:
        coeffs = [[Fraction(int(k), 4) for k in row] for row in rng.integers(-8, 9, size=(2 * pairs, width))]
    else:
        coeffs = rng.uniform(-1.0, 1.0, size=(2 * pairs, width))
    draws = []
    for pick, row in zip(picks, coeffs):
        x = synth.zeros()
        for g, c in zip(fams[pick], row):
            x = x + synth.pi(g) * c
        draws.append(x)
    x, y = np.array(draws[:pairs]), np.array(draws[pairs:])
    x2, y2 = model.product(x, x), model.product(y, y)
    norm = synth.norm
    return max(abs(norm(y2) - norm(y) ** 2)), min(norm(x2 + y2) - norm(x2))


# Expansions over the generators by one row reduction each: the coefficient
# vectors that SyntheticSpace.generator_coords must reproduce.


def generator_expansion(synth, x):
    """The solve_affine solution c of c @ pairing = x that is zero on the free generators, or None."""
    pairing = synth.pairing_values()
    a_rows = [[pairing[m, j] for m in range(synth.n_states)] for j in range(synth.space.n_events)]
    sol = linsolve.solve_affine(a_rows, list(x))
    return None if sol is None else sol[0]


def expansion_oracle(synth, polytope):
    """polytope_expansion_oracle with one solve_affine per (event, generator), interleaved with the verdicts:
    every expansion as one row of Fractions, over 1."""
    pairing = synth.pairing_values()

    def expand(l, e):
        verdict = statespace.check_conditional_uniqueness(polytope, statespace.State(tuple(pairing[l])), e)
        if verdict.verdict != statespace.UNIQUE:
            err = SynthesisError(f"conditional of generator {l} under event {e} is {verdict.verdict}")
            err.generator, err.event, err.verdict = l, e, verdict
            raise err
        sol = generator_expansion(synth, verdict.conditional.values)
        if sol is None:
            raise SynthesisError(f"conditional of generator {l} lies outside the generator span")
        return sol

    def oracle(requests):
        rows = [expand(l, e) for e, generators in requests for l in generators]
        return np.array(rows, dtype=object).reshape(len(rows), synth.n_states), 1

    return oracle


def fraction_pivot(tab, basis, r, c):
    """Pivot a dense Fraction tableau on (r, c); the other rows change only in the pivot row's nonzero columns."""
    piv = tab[r][c]
    prow = tab[r] = [v / piv if v else v for v in tab[r]]
    nonzero = [(j, v) for j, v in enumerate(prow) if v]
    for i, row in enumerate(tab):
        f = row[c]
        if i != r and f:
            for j, v in nonzero:
                row[j] -= f * v
    basis[r] = c


def fraction_simplex(tab, basis, ncols):
    """Bland-rule simplex on a Fraction tableau whose last row is the objective (min)."""
    while True:
        obj = tab[-1]
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            return OPTIMAL
        leave = None
        best = None
        for i in range(len(tab) - 1):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return UNBOUNDED
        fraction_pivot(tab, basis, leave, enter)


def fraction_solve_lp(c, a_eq, b_eq, maximize=False):
    """exactlp.solve_lp on a dense Fraction tableau: the same slack start, phases and Bland pivots."""
    sign = -1 if maximize else 1
    cost = [sign * Fraction(cj) for cj in c]
    ncols, m = len(c), len(a_eq)
    a = [[Fraction(v) for v in coeffs] for coeffs in a_eq]
    b = [Fraction(rhs) for rhs in b_eq]
    for i in range(m):
        if b[i] < 0:
            a[i] = [-v for v in a[i]]
            b[i] = -b[i]

    start = [None] * m
    for j in range(ncols):
        hits = [i for i in range(m) if a[i][j] != 0]
        if len(hits) == 1 and a[hits[0]][j] == 1 and start[hits[0]] is None:
            start[hits[0]] = j
    art_rows = [i for i in range(m) if start[i] is None]
    for k, i in enumerate(art_rows):
        start[i] = ncols + k
    width = ncols + len(art_rows)
    tab = [a[i] + [Fraction(int(start[i] == k)) for k in range(ncols, width)] + [b[i]] for i in range(m)]
    basis = list(start)
    if art_rows:
        obj = [Fraction(0)] * (width + 1)
        for i in art_rows:
            obj = [o - v for o, v in zip(obj, tab[i])]
        for j in range(ncols, width):
            obj[j] = Fraction(0)
        tab.append(obj)
        fraction_simplex(tab, basis, width)
        if -tab[-1][-1] > 0:
            y = [int(j >= ncols) - tab[-1][j] for j in start]
            cert = Farkas(a_rows=a, b=b, y=y)
            if not verify_farkas(cert):
                raise UcpError("phase 1 produced a Farkas certificate that does not verify")
            return LpResult(INFEASIBLE, None, None, cert)

    for i in range(m):
        if basis[i] >= ncols:
            pivot_col = next((j for j in range(ncols) if tab[i][j] != 0), None)
            if pivot_col is not None:
                fraction_pivot(tab, basis, i, pivot_col)
    keep = [i for i in range(m) if basis[i] < ncols]
    tab = [[tab[i][j] for j in range(ncols)] + [tab[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    tab.append(cost + [Fraction(0)])
    for i, bi in enumerate(basis):
        f = tab[-1][bi]
        if f != 0:
            tab[-1] = [a2 - f * b2 for a2, b2 in zip(tab[-1], tab[i])]
    if fraction_simplex(tab, basis, ncols) == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None)
    x = [Fraction(0)] * ncols
    for i, bi in enumerate(basis):
        x[bi] = tab[i][-1]
    return LpResult(OPTIMAL, x, -sign * tab[-1][-1])


# The FULL slice path on the Fraction parametrization x = x0 + B t, which the
# integer form (X0, B, D) with x = (X0 + B t) / D replaced: pin, box rows, the
# LPs over them and the point map, each slice's rows rebuilt for every LP.


def fraction_param(param):
    """An integer parametrization (X0, B, D) as the Fraction pair (X0 / D, B / D), or None."""
    if param is None:
        return None
    x0, basis, den = param
    return [Fraction(v, den) for v in x0], [[Fraction(v, den) for v in bvec] for bvec in basis]


def integer_param(param):
    """A Fraction pair (x0, B) as (X0, B, D) over the lcm D of its denominators, or None."""
    if param is None:
        return None
    x0, basis = param
    den = math.lcm(*(Fraction(v).denominator for v in chain(x0, *basis)))
    return [int(v * den) for v in x0], [[int(v * den) for v in bvec] for bvec in basis], den


def fraction_parametrization(poly):
    """All solutions of the polytope's state equations, from `equality_rows`, as (x0, nullspace basis) over
    Fractions, or None."""
    rows = equality_rows(poly.space)
    return linsolve.solve_affine([[int(v) for v in row] for row, _ in rows], [int(b) for _, b in rows])


def fraction_point(x0, basis, t):
    """x0 + B t, in event coordinates (most entries of B and t are zero)."""
    terms = [(bvec, tv) for bvec, tv in zip(basis, t) if tv]
    return [x0[i] + sum(bvec[i] * tv for bvec, tv in terms if bvec[i]) for i in range(len(x0))]


def fraction_box_rows(x0, basis):
    """The [0, 1] box as rows alpha.t <= beta over t; None when a fixed coordinate leaves it."""
    ineq = []
    for i in range(len(x0)):
        coeffs = tuple(bvec[i] for bvec in basis)
        if all(c == 0 for c in coeffs):
            if not (0 <= x0[i] <= 1):
                return None
            continue
        ineq.append((coeffs, 1 - x0[i]))
        ineq.append((tuple(-c for c in coeffs), x0[i]))
    return ineq


def fraction_pin(poly, events=(), values=()):
    """(x0, B) of the solutions with x_f = v on the given events, or None, by Fraction points."""
    sol = fraction_parametrization(poly)
    if sol is None or not events:
        return sol
    x0, basis = sol
    rows = [[v[f] for v in basis] for f in events]
    sub = linsolve.solve_affine(rows, [t - x0[f] for f, t in zip(events, values)])
    if sub is None:
        return None
    t0, dirs = sub
    return fraction_point(x0, basis, t0), [fraction_point([0] * len(x0), basis, c) for c in dirs]


def fraction_optimize(param, cost, maximize=False):
    """min (or max) cost.x over {x = x0 + B t in [0, 1]^n} by fraction_solve_lp over (t, slacks); x in events."""
    ineq = None if param is None else fraction_box_rows(*param)
    if ineq is None:
        return LpResult(INFEASIBLE, None, None)
    x0, basis = param
    cost = [Fraction(c) for c in cost]
    d, m = len(basis), len(ineq)
    a_eq = [list(coeffs) + [int(j == r) for j in range(m)] for r, (coeffs, _) in enumerate(ineq)]
    c_t = [sum(c * b for c, b in zip(cost, bvec) if c) for bvec in basis] + [0] * m
    res = fraction_solve_lp(c_t, a_eq, [beta for _, beta in ineq], maximize=maximize)
    if res.status != OPTIMAL:
        return LpResult(res.status, None, None, res.farkas)
    offset = sum(c * v for c, v in zip(cost, x0) if c)
    return LpResult(OPTIMAL, fraction_point(x0, basis, res.x[:d]), res.objective + offset)


def fraction_uc_full(slc, pinned):
    """The FULL verdict of a slice on the Fraction path; `pinned` is the point propagation pinned, or None.

    A pinned point is UNIQUE, of the pinned slice's nullity.  Otherwise a min and
    a max LP bound each free coordinate; EMPTY goes through the fold of
    `statespace._empty_verdict`, which takes the integer form.
    """
    sub = fraction_pin(slc.polytope, slc.constraint_events, slc.targets)
    d = -1 if sub is None else len(sub[1])
    if pinned is not None:
        return statespace.ConditionalVerdict(statespace.UNIQUE, conditional=statespace.State(tuple(pinned)),
                                             slice_dim=d)
    if sub is None or fraction_box_rows(*sub) is None:
        return statespace._empty_verdict(slc, integer_param(sub), None, d)
    n = slc.polytope.space.n_events
    x = sub[0]
    for bvec in sub[1]:
        cost = [0] * n
        cost[max(i for i, v in enumerate(bvec) if v != 0)] = 1
        lo = fraction_optimize(sub, cost)
        if lo.status == INFEASIBLE:
            return statespace._empty_verdict(slc, integer_param(sub), lo.farkas, d)
        hi = fraction_optimize(sub, cost, maximize=True)
        if lo.objective != hi.objective:
            nu1, nu2 = statespace.State(tuple(lo.x)), statespace.State(tuple(hi.x))
            g = next(i for i in range(n) if nu1[i] != nu2[i])
            return statespace.ConditionalVerdict(statespace.MULTIPLE, witnesses=(nu1, nu2, g), slice_dim=d)
        x = lo.x
    return statespace.ConditionalVerdict(statespace.UNIQUE, conditional=statespace.State(tuple(x)), slice_dim=d)


# Mixing, the mixture identity and the exact hull-density samples on Fractions,
# one value at a time, which the integer forms of `State` and of
# `synthesis.check_hull_density` replaced.


def fraction_mix(mu, nu, s):
    """s mu + (1 - s) nu, one Fraction sum per event (zip truncates to the shorter state)."""
    s = Fraction(s)
    return statespace.State(tuple(s * Fraction(a) + (1 - s) * Fraction(b) for a, b in zip(mu.values, nu.values)))


def fraction_mixture_identity(polytope, mu, nu, s, e):
    """statespace.check_mixture_identity on Fractions: (passed, mixture, lhs, rhs) of its report."""
    s = Fraction(s)
    if not (0 < s < 1):
        raise PreconditionError("mixing weight must be strictly between 0 and 1")
    mix = fraction_mix(mu, nu, s)
    total = s * mu[e] + (1 - s) * nu[e]
    if total == 0:
        raise ConditioningUndefinedError("mixture puts zero mass on the conditioning event")
    lhs = statespace.unique_conditional(polytope, mix, e)
    n = polytope.space.n_events
    acc = [Fraction(0)] * n
    for state, w in ((mu, s * mu[e]), (nu, (1 - s) * nu[e])):
        if w != 0:
            cond = statespace.unique_conditional(polytope, state, e)
            for i in range(n):
                acc[i] += w * cond[i]
    rhs = statespace.State(tuple(v / total for v in acc))
    return lhs.values == rhs.values, mix, lhs, rhs


def fraction_hull_membership(synth, x):
    """Is the Fraction point x a convex combination of the pi(e)?  fraction_solve_lp on the pairing's Fractions."""
    pairing = synth.pairing_values()
    n_states, n_events = pairing.shape
    a_eq = [[pairing[l, e] for e in range(n_events)] for l in range(n_states)]
    a_eq.append([Fraction(1)] * n_events)
    b_eq = [Fraction(v) for v in x] + [Fraction(1)]
    return fraction_solve_lp([Fraction(0)] * n_events, a_eq, b_eq).status == OPTIMAL


def fraction_density_samples(synth, samples, rng):
    """(members, outside) of check_hull_density's exact samples: each sum_i (k_i / 4) pi(e_i) as a Fraction
    array, drawn in the same order, kept when inside [0, 1] and tested by fraction_hull_membership."""
    members = outside = 0
    for _ in range(samples):
        coeffs = [Fraction(int(rng.integers(-2, 7)), 4) for _ in synth.basis_events]
        x = synth.zeros()
        for c, e in zip(coeffs, synth.basis_events):
            x = x + synth.pi(e) * c
        if not all(0 <= v <= 1 for v in x):
            continue
        if fraction_hull_membership(synth, x):
            members += 1
        else:
            outside += 1
    return members, outside


# The event sweeps as per-event and per-pair scans: orthospace.verify_orthospace, the certainty
# order and the separation check must give the same reports.


def per_g_axioms(space):
    """orthospace.verify_orthospace as a scan per event, and per first element g for sum-associativity.

    Each witness is appended as it is found, up to orthospace._MAX_WITNESSES
    per axiom.  A sum entry past the last event reads as undefined.
    """
    n = space.n_events
    ortho, st, comp = space.ortho, space.sum_table, space.complement
    cap = orthospace._MAX_WITNESSES
    structural = []
    if st.max(initial=-1) >= n or comp.max(initial=-1) >= n or comp.min(initial=0) < 0:
        structural.append(("index-out-of-range",))
    bad = np.argwhere((st >= 0) & ~ortho)
    for e, f in bad[:cap]:
        structural.append(("sum-defined-not-ortho", int(e), int(f)))
    if len(bad) > cap:
        structural.append(("sum-defined-not-ortho-more", len(bad) - cap))
    axioms = {tag: orthospace.AxiomVerdict(True) for tag in orthospace.AXIOMS}

    def add(tag, w):
        axioms[tag].passed = False
        if len(axioms[tag].witnesses) < cap:
            axioms[tag].witnesses.append(w)

    defined = (st >= 0) & (st < n)
    for e, f in np.argwhere(ortho != ortho.T):
        if e <= f:
            add("ortho-symmetry", (int(e), int(f)))
    for e, f in np.argwhere(ortho & ~defined):
        add("partial-sum", (int(e), int(f)))
    for e, f in np.argwhere(defined & defined.T & ortho & (st != st.T)):
        if e <= f:
            add("partial-sum", (int(e), int(f)))
    ok = ortho & defined
    for g in range(n):
        cand = np.flatnonzero(ok[g])
        ee, ff = np.nonzero(ok[np.ix_(cand, cand)])
        e_ids, f_ids = cand[ee], cand[ff]
        s_ef, s_ge = st[e_ids, f_ids], st[g, e_ids]
        good = ok[g, s_ef] & ok[s_ge, f_ids]
        for t in np.flatnonzero(~good):
            add("sum-associativity", (g, int(e_ids[t]), int(f_ids[t])))
        for t in np.flatnonzero(good):
            if st[g, s_ef[t]] != st[s_ge[t], f_ids[t]]:
                add("sum-associativity", (g, int(e_ids[t]), int(f_ids[t])))
    z = space.zero
    for e in range(n):
        if not ortho[z, e] or (ok[e, z] and st[e, z] != e):
            add("zero-event", (e,))
    for e in range(n):
        cands = np.flatnonzero(ortho[e] & (st[e] == space.unit))
        if len(cands) != 1 or comp[e] != cands[0]:
            add("unique-complement", (e, tuple(int(c) for c in cands)))
    exists = np.zeros((n, n), dtype=bool)
    for e in range(n):
        for d in np.flatnonzero(ok[e]):
            exists[e, st[e, d]] = True
    if comp.min(initial=0) >= 0 and comp.max(initial=-1) < n:
        for e, f in np.argwhere(exists != ortho[:, comp]):
            add("difference-characterization", (int(e), int(f)))
    return orthospace.AxiomReport(structural=structural, axioms=axioms)


def certainty_scan(synth, polytope, e, f):
    """observables.check_certainty_order on the generators' Fraction values: the certain ones, the least value
    of f among them, and pi(f) - pi(e) >= -tol on Fractions."""
    certain = [g for g in polytope.generators if g[e] == 1]
    if not certain:
        return observables.CertaintyOrderVerdict(e=e, f=f, hypothesis_holds=False, hypothesis_vacuous=True)
    low = min(g[f] for g in certain)
    verdict = observables.CertaintyOrderVerdict(e=e, f=f, hypothesis_holds=low == 1, hypothesis_vacuous=False,
                                                min_value=low)
    if low == 1:
        verdict.order_holds = all(v >= -synth.tol for v in synth.pi(f) - synth.pi(e))
    return verdict


def separation_scan(polytope):
    """statespace.check_separation keyed by each event's Fraction values on the generators."""
    seen = {}
    for e in range(polytope.space.n_events):
        key = tuple(g[e] for g in polytope.generators)
        if key in seen:
            return statespace.SeparationReport(False, (seen[key], e, key))
        seen[key] = e
    return statespace.SeparationReport(True)
