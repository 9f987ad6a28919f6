"""Dense Fraction references that the package's integer forms are compared against."""

from fractions import Fraction

import numpy as np

from ucpspace import linsolve, orthospace, statespace, synthesis
from ucpspace.errors import SynthesisError, UcpError
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


# The exact-lane synthesis sweeps in Fraction arithmetic, on the model's Fraction
# multipliers and pairing: the integer-numerator sweeps must give the same values
# and consume the same draws.


def _max_abs(arr):
    """The exact max |entry| of a Fraction array."""
    return max((abs(v) for v in np.ravel(arr)), default=0)


def compression(synth, e, generators, expansions):
    """(U_e, idempotency, unit image, invariance) of build_compression, in Fractions."""
    pairing = synth.pairing
    u = np.stack([synth.zeros() for _ in range(synth.n_states)])
    if generators:
        u[generators] = pairing[generators, e][:, None] * np.asarray(expansions, dtype=object)
    drift = 0
    for l in np.flatnonzero(pairing[:, e] == 1):
        drift = max(drift, _max_abs(u[l] @ pairing - pairing[l]))
    return u, _max_abs(u @ u - u), _max_abs(u @ synth.unit_coords() - synth.pi(e)), drift


def worst_symmetry(model):
    """Largest |T_e pi(f) - T_f pi(e)| over e < f, and its first pair in row-major order."""
    synth = model.synth
    images = np.stack([model.multipliers[e] for e in synth.space.events()]) @ synth.pairing
    es, fs = np.triu_indices(synth.space.n_events, 1)
    residuals = [_max_abs(r) for r in images[es, :, fs] - images[fs, :, es]]
    if not any(r > 0 for r in residuals):
        return 0, None
    i = int(np.argmax(residuals))
    return residuals[i], (int(es[i]), int(fs[i]))


def well_definedness(model, samples, rng):
    """check_well_definedness with the menu {1, 1, -1, 1/2, 2} on the Fraction multipliers."""
    synth = model.synth
    space = synth.space
    mults = model.multipliers
    worst_triple = 0
    for e in space.events():
        for f in range(e, space.n_events):
            s = space.sum_of(e, f)
            if s is None or space.zero in (e, f):
                continue
            worst_triple = max(worst_triple, _max_abs((mults[e] + mults[f] - mults[s]) @ synth.basis_cols))
    families = [fam for fam in orthospace.maximal_orthogonal_families(space) if len(fam) > 1]
    worst_regroup, used, skipped = 0, 0, 0
    menu = [Fraction(1), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2)]
    for _ in range(samples):
        if not families:
            break
        fam = families[rng.integers(len(families))]
        coeffs = [menu[rng.integers(len(menu))] for _ in fam]
        groups = {}
        for g, c in zip(fam, coeffs):
            groups.setdefault(c, []).append(g)
        merged = [(c, orthospace.iterated_sum(space, members)) for c, members in groups.items()]
        if any(total is None for _, total in merged) or len(merged) == len(fam):
            skipped += 1
            continue
        used += 1
        direct = sum(mults[g] * c for g, c in zip(fam, coeffs))
        grouped = sum(mults[g] * c for c, g in merged)
        worst_regroup = max(worst_regroup, _max_abs((direct - grouped) @ synth.basis_cols))
    return synthesis.WellDefinednessReport(
        sum_triple_residual=worst_triple, regroup_residual=worst_regroup, samples=used, skipped=skipped
    )


def power(model, x, m):
    """x^m as the product chain ((x x) x) ... x."""
    acc = x
    for _ in range(m - 1):
        acc = model.product(acc, x)
    return acc


def laws(model, pairs, rng):
    """The stacked law sweep on Fraction arrays: random_primitive's draws, each law term one product."""
    synth = model.synth
    fams = orthospace.maximal_orthogonal_families(synth.space)
    draws = [synthesis.random_primitive(synth, rng, fams)[0] for _ in range(2 * pairs)]
    x = np.array(draws[0::2], dtype=object).reshape(pairs, synth.n_states)
    y = np.array(draws[1::2], dtype=object).reshape(pairs, synth.n_states)
    unit = np.broadcast_to(synth.unit_coords(), x.shape)
    norm = synth.norm
    x2, y2 = model.product(x, x), model.product(y, y)
    lhs = model.product(x2, model.product(x, y))
    rhs = model.product(x, model.product(x2, y))
    x3 = power(model, x, 3)

    def worst(rows):
        return max(rows, default=0)

    return synthesis.SyntheticLawReport(
        jordan_identity=worst(norm(lhs - rhs)),
        square_norm=worst(abs(norm(y2) - norm(y) ** 2)),
        square_sum_slack=min(norm(x2 + y2) - norm(x2), default=0),
        power_associativity=max(worst(norm(model.product(x2, x2) - power(model, x, 4))),
                                worst(norm(model.product(x3, x3) - power(model, x, 6)))),
        unit_residual=worst(norm(model.product(unit, x) - x)),
        pairs=pairs,
    )


# Expansions over the generators by one row reduction each: the coefficient
# vectors that SyntheticSpace.generator_coords must reproduce.


def generator_expansion(synth, x):
    """The solve_affine solution c of c @ pairing = x that is zero on the free generators, or None."""
    pairing = synth.pairing
    a_rows = [[pairing[m, j] for m in range(synth.n_states)] for j in range(synth.space.n_events)]
    sol = linsolve.solve_affine(a_rows, list(x))
    return None if sol is None else sol[0]


def expansion_oracle(synth, polytope):
    """polytope_expansion_oracle with one solve_affine per (event, generator)."""

    def expand(l, e):
        verdict = statespace.check_conditional_uniqueness(polytope, statespace.State(tuple(synth.pairing[l])), e)
        if verdict.verdict != statespace.UNIQUE:
            err = SynthesisError(f"conditional of generator {l} under event {e} is {verdict.verdict}")
            err.generator, err.event, err.verdict = l, e, verdict
            raise err
        sol = generator_expansion(synth, verdict.conditional.values)
        if sol is None:
            raise SynthesisError(f"conditional of generator {l} lies outside the generator span")
        return sol

    def oracle(requests):
        return [[expand(l, e) for l in generators] for e, generators in requests]

    return oracle


def span_representation(synth):
    """(independent generator ids, B) with row_l = sum_i B[l, i] row_{ids[i]}, one solve_affine per generator."""
    pairing = synth.pairing
    rows = [list(pairing[l]) for l in range(synth.n_states)]
    ids = linsolve.independent_subset(rows)
    a_rows = [[rows[i][j] for i in ids] for j in range(synth.space.n_events)]
    return ids, np.array([linsolve.solve_affine(a_rows, row)[0] for row in rows], dtype=object)


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
