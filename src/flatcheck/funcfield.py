"""Polynomial arithmetic over rational function fields Q(U).

The positive-dimensional decomposition steps treat an ideal as
zero-dimensional over Q(U) for a maximal independent set U, which calls
for gcds and irreducible factorization of univariate-in-t polynomials
with coefficients in Q[U].  Factorization works by evaluating U at an
integer point, factoring over Q, lifting the factors U-adically (the
coefficient degree of a monic factor is bounded by the coefficient
degree of the product), and recombining.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import GuardExceeded, Guards, InvalidInput
from .factor import factor_univariate
from .groebner import division
from .rings import Polynomial, VarMap

# Recombination tries at most this many subsets of the lifted factors.
MAX_SUBSETS = 100000

# -- exact division and multivariate gcd ---------------------------------------


def exact_divide(f, g):
    """f / g, raising if g does not divide f."""
    if g.is_zero():
        raise InvalidInput("division by zero polynomial")
    cofs, rem = division(f, [g], f.ring.default_order)
    if not rem.is_zero():
        raise InvalidInput("not an exact division")
    return cofs[0]


def _as_univariate(f, var):
    """Coefficient map {exponent of var: coefficient poly without var}."""
    i = f.ring.var_index(var)
    out = {}
    for exps, c in f.terms.items():
        e = exps[i]
        rest = list(exps)
        rest[i] = 0
        key = tuple(rest)
        coeff = out.setdefault(e, {})
        coeff[key] = coeff.get(key, Fraction(0)) + c
    return {e: Polynomial(f.ring, terms) for e, terms in out.items()}


def _from_univariate(ring, var, coeffs):
    i = ring.var_index(var)
    terms = {}
    for e, poly in coeffs.items():
        for exps, c in poly.terms.items():
            key = list(exps)
            key[i] += e
            key = tuple(key)
            terms[key] = terms.get(key, Fraction(0)) + c
    return Polynomial(ring, terms)


def degree_in(f, var):
    return f.degree_in(var)


def leading_coefficient_in(f, var):
    d = f.degree_in(var)
    if d < 0:
        return f.ring.zero()
    return _as_univariate(f, var).get(d, f.ring.zero())


def content_in(f, var):
    """gcd of the coefficients of f viewed in Q[others][var]."""
    coeffs = list(_as_univariate(f, var).values())
    g = f.ring.zero()
    for c in coeffs:
        g = multivariate_gcd(g, c)
        if g.is_constant() and not g.is_zero():
            return f.ring.one()
    return g


def primitive_part_in(f, var):
    c = content_in(f, var)
    if c.is_zero():
        return f
    return exact_divide(f, c)


def _pseudo_remainder(f, g, var):
    """prem(f, g) in var: lc(g)^k * f reduced by g without leaving Q[...]."""
    df = f.degree_in(var)
    dg = g.degree_in(var)
    lc_g = leading_coefficient_in(g, var)
    v = f.ring.var(var)
    while df >= dg and not f.is_zero():
        lc_f = leading_coefficient_in(f, var)
        f = lc_g * f - lc_f * v ** (df - dg) * g
        new_df = f.degree_in(var)
        if new_df == df:
            # top term must have cancelled exactly
            raise InvalidInput("pseudo-division failed to reduce degree")
        df = new_df
    return f


def multivariate_gcd(f, g):
    """gcd in Q[x1..xk], normalized with monic leading coefficient.

    Primitive PRS: recurse on contents, pseudo-remainders on primitive parts.
    """
    if f.is_zero():
        return g.monic() if not g.is_zero() else g
    if g.is_zero():
        return f.monic()
    if f.is_constant() or g.is_constant():
        return f.ring.one()
    used = sorted(f.variables_used() | g.variables_used())
    var = used[0]
    if f.degree_in(var) == 0 or g.degree_in(var) == 0:
        # var appears in only one of them: gcd lives in the coefficients
        fc = content_in(f, var) if f.degree_in(var) > 0 else f
        gc = content_in(g, var) if g.degree_in(var) > 0 else g
        return multivariate_gcd(fc, gc)
    cf = content_in(f, var)
    cg = content_in(g, var)
    cont = multivariate_gcd(cf, cg)
    a = exact_divide(f, cf)
    b = exact_divide(g, cg)
    if a.degree_in(var) < b.degree_in(var):
        a, b = b, a
    while not b.is_zero():
        r = _pseudo_remainder(a, b, var)
        if r.is_zero():
            b_pp = b
            return (cont * primitive_part_in(b_pp, var)).monic()
        r = primitive_part_in(r, var)
        a, b = b, r
    return (cont * primitive_part_in(a, var)).monic()


# -- univariate-in-t helpers over Q[U] ------------------------------------------


def derivative_in(f, var):
    i = f.ring.var_index(var)
    terms = {}
    for exps, c in f.terms.items():
        e = exps[i]
        if e == 0:
            continue
        key = list(exps)
        key[i] = e - 1
        terms[tuple(key)] = c * e
    return Polynomial(f.ring, terms)


def ff_gcd_in_t(f, g, t):
    """Monic-in-t primitive representative of gcd over Q(U)."""
    h = multivariate_gcd(f, g)
    return primitive_part_in(h, t)


def ff_squarefree_decomposition(f, t):
    """Musser's squarefree decomposition over Q(U).

    Returns [(primitive squarefree part, multiplicity)].  Every step is a
    gcd or an exact division, both well-defined up to units of Q(U), so
    the primitive-representative normalization is safe here (unlike
    Yun's scheme, whose intermediate differences are unit-sensitive).
    """
    f = primitive_part_in(f, t)
    if f.degree_in(t) == 0:
        return []
    g = ff_gcd_in_t(f, derivative_in(f, t), t)
    if g.degree_in(t) == 0:
        return [(f, 1)]
    w = _ff_exact_div(f, g, t)  # product of the distinct prime factors
    parts = []
    i = 1
    while w.degree_in(t) > 0:
        y = ff_gcd_in_t(w, g, t)
        a = _ff_exact_div(w, y, t)  # primes of multiplicity exactly i
        if a.degree_in(t) > 0:
            parts.append((a, i))
        w = y
        if g.degree_in(t) > 0:
            g = _ff_exact_div(g, y, t)
        i += 1
    return parts


def _ff_exact_div(f, g, t):
    """f / g over Q(U), as a primitive polynomial.  g must divide f over Q(U)."""
    fp = primitive_part_in(f, t)
    gp = primitive_part_in(g, t)
    q, r = ff_divmod(fp, gp, t)
    if not r.is_zero():
        raise InvalidInput("division not exact over Q(U)")
    return primitive_part_in(q, t)


def ff_divmod(f, g, t):
    """Division in t over the fraction field Q(U), via pseudo-division.

    Returns (q, r) with lc^k * f = q*g + r for the implicit power k; only
    the exactness of the division (r == 0) and the direction of q matter
    to the callers, which re-normalize by primitive parts.
    """
    if g.is_zero():
        raise InvalidInput("division by zero")
    dg = g.degree_in(t)
    lc_g = leading_coefficient_in(g, t)
    q = f.ring.zero()
    r = f
    v = f.ring.var(t)
    while not r.is_zero() and r.degree_in(t) >= dg:
        dr = r.degree_in(t)
        lc_r = leading_coefficient_in(r, t)
        q = lc_g * q + lc_r * v ** (dr - dg)
        r = lc_g * r - lc_r * v ** (dr - dg) * g
    return q, r


def monic_divmod_in_t(f, g, t):
    """Exact divmod in t when lc_t(g) = 1; stays inside Q[U][t]."""
    dg = g.degree_in(t)
    q = f.ring.zero()
    r = f
    v = f.ring.var(t)
    while not r.is_zero() and r.degree_in(t) >= dg:
        dr = r.degree_in(t)
        lc_r = leading_coefficient_in(r, t)
        piece = lc_r * v ** (dr - dg)
        q = q + piece
        r = r - piece * g
    return q, r


# -- factorization over Q(U) -----------------------------------------------------


def _param_degree(f, t):
    """Max total degree in the non-t variables across the terms of f."""
    i = f.ring.var_index(t)
    best = 0
    for exps in f.terms:
        d = sum(exps) - exps[i]
        if d > best:
            best = d
    return best


def _truncate_param(f, t, bound):
    i = f.ring.var_index(t)
    terms = {
        e: c for e, c in f.terms.items() if sum(e) - e[i] <= bound
    }
    return Polynomial(f.ring, terms)


def _param_homogeneous(f, t, degree):
    i = f.ring.var_index(t)
    terms = {
        e: c for e, c in f.terms.items() if sum(e) - e[i] == degree
    }
    return Polynomial(f.ring, terms)


def _monicize_in_t(f, t):
    """(monic-in-t polynomial, lc): m(t) -> lc^(d-1) m(t/lc), monic in t."""
    d = f.degree_in(t)
    lc = leading_coefficient_in(f, t)
    if lc == f.ring.one():
        return f, lc
    coeffs = _as_univariate(f, t)
    out = {d: f.ring.one()}
    for e, poly in coeffs.items():
        if e == d:
            continue
        out[e] = poly * lc ** (d - 1 - e)
    return _from_univariate(f.ring, t, out), lc


def _substitute_params(f, assignment):
    """Shift/evaluate the non-t variables: var -> var + value (ints)."""
    ring = f.ring
    images = {}
    for v in ring.variables:
        if v in assignment:
            images[v] = ring.var(v) + ring.const(assignment[v])
        else:
            images[v] = ring.var(v)
    return VarMap(ring, ring, images)(f)


def _evaluate_params(f, t, point):
    """Evaluate every non-t variable at an integer point; dense Q list in t."""
    i = f.ring.var_index(t)
    coeffs = [Fraction(0)] * (f.degree_in(t) + 1)
    for exps, c in f.terms.items():
        val = c
        for j, e in enumerate(exps):
            if j == i or e == 0:
                continue
            val *= Fraction(point[f.ring.variables[j]]) ** e
        coeffs[exps[i]] += val
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _univ_poly_from_coeffs(ring, t, coeffs):
    i = ring.var_index(t)
    terms = {}
    for e, c in enumerate(coeffs):
        if c:
            exps = [0] * ring.nvars
            exps[i] = e
            terms[tuple(exps)] = Fraction(c)
    return Polynomial(ring, terms)


def _good_point(m, t, params):
    """Integer point where the monic m stays squarefree in t."""
    from .factor import _gcd_q, _deriv

    for radius in range(0, 12):
        for point in itertools.product(range(-radius, radius + 1), repeat=len(params)):
            if max((abs(x) for x in point), default=0) != radius:
                continue
            assignment = dict(zip(params, point))
            coeffs = _evaluate_params(m, t, assignment)
            if len(coeffs) - 1 != m.degree_in(t):
                continue
            if len(_gcd_q(coeffs, _deriv(list(coeffs)))) == 1:
                return assignment
    raise GuardExceeded("evaluation_point", "no squarefree evaluation point found")


def _bezout_family(gs):
    """s_i with s_i * prod_{j!=i} g_j = 1 mod g_i, as Fraction lists."""
    from .factor import _divmod_q, _gcd_q, _mul, _add, _neg, _trim

    family = []
    for i, g in enumerate(gs):
        prod = [Fraction(1)]
        for j, h in enumerate(gs):
            if j != i:
                prod = _mul(prod, h)
        prod = _divmod_q(prod, g)[1]
        # extended Euclid: find inverse of prod mod g
        r0, r1 = list(g), list(prod)
        s0, s1 = [], [Fraction(1)]
        while _trim(list(r1)):
            q, r = _divmod_q(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _trim(_add(s0, _neg(_mul(q, s1))))
        if len(r0) != 1:
            raise InvalidInput("modular factors not coprime")
        inv = Fraction(1) / r0[0]
        family.append([x * inv for x in s0])
    return family


def _mulmod_q(a, b, g):
    from .factor import _divmod_q, _mul

    return _divmod_q(_mul(a, b), g)[1]


def ff_factor_squarefree(m, t, params):
    """Irreducible factors over Q(U) of a squarefree primitive m in Q[U][t].

    Returns primitive representatives in Q[U][t]; the product equals m up
    to a unit of Q(U).
    """
    from .factor import _divmod_q

    ring = m.ring
    if m.degree_in(t) <= 1:
        return [primitive_part_in(m, t)]
    monic, lc = _monicize_in_t(m, t)
    shift = _good_point(monic, t, params)
    shifted = _substitute_params(monic, shift)
    base_coeffs = _evaluate_params(shifted, t, {v: 0 for v in params})
    base = _univ_poly_from_coeffs(ring, t, base_coeffs)
    fac = factor_univariate(base)
    gs = []
    for p, mult in fac.factors:
        assert mult == 1
        _, coeffs = _factor_poly_coeffs(p, t)
        gs.append(coeffs)
    if len(gs) == 1:
        return [primitive_part_in(m, t)]
    sigma = _param_degree(shifted, t) + 1
    bezout = _bezout_family(gs)
    lifted = [_univ_poly_from_coeffs(ring, t, g) for g in gs]
    guards = Guards.current()
    for degree in range(1, sigma + 1):
        guards.check_time()
        prod = ring.one()
        for F in lifted:
            prod = _truncate_param(prod * F, t, sigma)
        err = _param_homogeneous(shifted - prod, t, degree)
        if err.is_zero():
            continue
        # split err into U-monomial slices with univariate-in-t coefficients
        i_t = ring.var_index(t)
        slices = {}
        for exps, c in err.terms.items():
            key = list(exps)
            key[i_t] = 0
            key = tuple(key)
            slices.setdefault(key, {})[exps[i_t]] = c
        for key, tcoeffs in slices.items():
            guards.check_time()
            dense = [Fraction(0)] * (max(tcoeffs) + 1)
            for e, c in tcoeffs.items():
                dense[e] = c
            u_mono = ring.monomial(key, 1)
            for idx, g in enumerate(gs):
                delta = _mulmod_q(bezout[idx], dense, g)
                if delta:
                    lifted[idx] = lifted[idx] + u_mono * _univ_poly_from_coeffs(
                        ring, t, delta
                    )
    # recombination
    factors = []
    remaining = list(range(len(lifted)))
    current = shifted
    tried = 0
    size = 1
    while 2 * size <= len(remaining):
        found = False
        for combo in itertools.combinations(remaining, size):
            guards.check_time()
            tried += 1
            if tried > MAX_SUBSETS:
                raise GuardExceeded("ff_recombination")
            cand = ring.one()
            for i in combo:
                cand = _truncate_param(cand * lifted[i], t, sigma)
            cand = _truncate_param(cand, t, sigma - 1)
            q, r = monic_divmod_in_t(current, cand, t)
            if r.is_zero():
                factors.append(cand)
                current = q
                remaining = [i for i in remaining if i not in combo]
                found = True
                break
        if not found:
            size += 1
    if current.degree_in(t) >= 1:
        factors.append(current)
    # undo the shift and the monicization
    undo = {v: -a for v, a in shift.items()}
    out = []
    for F in factors:
        F = _substitute_params(F, undo)
        if lc != ring.one():
            # G(t) -> G(lc * t), then strip the Q[U]-content
            coeffs = _as_univariate(F, t)
            F = _from_univariate(
                ring, t, {e: poly * lc**e for e, poly in coeffs.items()}
            )
        out.append(primitive_part_in(F, t))
    return out


def _factor_poly_coeffs(p, t):
    """Dense Fraction coefficient list of a poly using only t."""
    i = p.ring.var_index(t)
    coeffs = [Fraction(0)] * (p.degree_in(t) + 1)
    for exps, c in p.terms.items():
        if sum(exps) != exps[i]:
            raise InvalidInput("polynomial unexpectedly involves parameters")
        coeffs[exps[i]] = c
    return t, coeffs


def ff_factor(m, t, params):
    """Full factorization over Q(U): [(primitive irreducible, multiplicity)]."""
    out = []
    for part, mult in ff_squarefree_decomposition(m, t):
        if part.degree_in(t) == 0:
            continue
        for irr in ff_factor_squarefree(part, t, params):
            out.append((irr, mult))
    return out
