"""Polynomial arithmetic over rational function fields Q(U).

The positive-dimensional decomposition steps treat an ideal as
zero-dimensional over Q(U) for a maximal independent set U, which calls
for gcds and irreducible factorization of univariate-in-t polynomials
with coefficients in Q[U].  One walk over integer points of U,
`_specialisation`, finds where f keeps its degree in t and stays
squarefree, and factors the image there over Q with
`factor.factor_squarefree`.  Found among the walk's first few points,
such a point proves f squarefree, and an irreducible image proves f
irreducible (Gauss's lemma).  Otherwise the walk, run on one squarefree
part f / gcd(f, df/dt), finds the lifting's point.  The image's
factors are lifted U-adically (the coefficient degree of a monic factor
is bounded by the coefficient degree of the product) and recombined.
Each factor's multiplicity in f is then counted by exact division,
unless f was already known to be squarefree.

Every gcd in Q[U][t], contents and squarefree parts included, is one
`multivariate_gcd`: the heuristic integer gcd GCDHEU (Char, Geddes &
Gonnet, JSC 7, 1989) on the primitive integer forms.  A
candidate counts only after trial division into both inputs by the
integer Groebner reduction, which makes every returned gcd exact.  When
the heuristic gives up, the gcd is f*g / lcm(f, g), the lcm read off the
reduced basis of the intersection <f> n <g>.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from .errors import GuardExceeded, InvalidInput
from .factor import (
    _add,
    _divmod_q,
    _factor_key,
    _from_coeffs,
    _mul,
    _multiplicity,
    _neg,
    _prem_z,
    _recombine,
    _squarefree_z,
    _trim,
    factor_squarefree,
)
from .groebner import _reduce, exact_divide, exact_quotient
from .ideals import Ideal, intersect
from .rings import Polynomial, VarMap, _packed_entry, _primitive

# Recombination tries at most this many subsets of the lifted factors.
MAX_SUBSETS = 100000
# The irreducibility certificate tries the first this many points of
# `_specialisation`'s walk: the box [-1, 1] for one parameter.
CERTIFY_POINTS = 3
# GCDHEU tries this many evaluation points per variable before giving up.
HEU_POINTS = 6

# -- multivariate gcd ----------------------------------------------------------


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
    if c.is_constant():
        return f
    return exact_divide(f, c)


def _divides(c, a, order):
    """True iff the integer term map c divides a.

    {c} is a Groebner basis of its own ideal, so c divides a iff the
    fraction-free reduction of a by c leaves no remainder.  Raises
    GuardExceeded("exponent") if either has a total degree too large to
    pack.
    """
    entry = _packed_entry(c, order)
    r, _ = _reduce(_packed_entry(a, order)[0], [entry], [entry[1]], order.guard)
    return not r


def _evaluate(a, i, xi):
    """The integer term map a with variable i set to xi."""
    powers = [1]
    out = {}
    for e, c in a.items():
        k = e[i]
        if k:
            while len(powers) <= k:
                powers.append(powers[-1] * xi)
            c *= powers[k]
            e = e[:i] + (0,) + e[i + 1:]
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _interpolate(h, i, xi):
    """The map whose value at x_i = xi is h, read xi-adically in x_i.

    h does not involve x_i; each coefficient of the result is a
    symmetric residue, in (-xi/2, xi/2].
    """
    half = xi // 2
    out = {}
    k = 0
    while h:
        rest = {}
        for e, c in h.items():
            r = c % xi
            if r > half:
                r -= xi
            if r:
                out[e[:i] + (k,) + e[i + 1:]] = r
            q = (c - r) // xi
            if q:
                rest[e] = q
        h = rest
        k += 1
    return out


def _heu_gcd(a, b, order):
    """gcd in Z[x] of two integer term maps by GCDHEU, or None if it gives up.

    Char, Geddes & Gonnet (JSC 7, 1989): evaluate the highest-index
    variable in use at an integer xi, take the gcd of the two images by
    recursion (one integer gcd once no variable is left) and read it back
    xi-adically.  With xi above twice the smaller max-norm, a candidate
    whose primitive part divides both primitive inputs is their gcd, so
    the trial division by `_divides` decides every answer.  Up to
    HEU_POINTS values of xi are tried per variable.
    """
    if not a:
        return b
    if not b:
        return a
    a, ca = _primitive(a)
    b, cb = _primitive(b)
    gamma = gcd(ca, cb)
    if not any(map(any, a)) or not any(map(any, b)):
        # One side is a unit times its content.
        return {(0,) * len(next(iter(a))): gamma}
    x = max(i for e in itertools.chain(a, b) for i, k in enumerate(e) if k)
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 29
    for _ in range(HEU_POINTS):
        h = _heu_gcd(_evaluate(a, x, xi), _evaluate(b, x, xi), order)
        if h is None:
            return None
        cand, _ = _primitive(_interpolate(h, x, xi))
        if _divides(cand, a, order) and _divides(cand, b, order):
            return {e: gamma * c for e, c in cand.items()}
        xi = xi * 73794 // 27011
    return None


def multivariate_gcd(f, g):
    """gcd in Q[x1..xk], normalized with monic leading coefficient.

    GCDHEU (`_heu_gcd`) on the primitive integer forms of f and g; every
    candidate it returns has passed trial division into both.  If the
    heuristic gives up, the gcd is f*g / lcm(f, g), the lcm being the
    one generator of the reduced basis of <f> n <g>.
    """
    if f.is_zero():
        return g.monic() if not g.is_zero() else g
    if g.is_zero():
        return f.monic()
    if f.is_constant() or g.is_constant():
        return f.ring.one()
    ring = f.ring
    h = _heu_gcd(f.integer_form()[0], g.integer_form()[0], ring.default_order)
    if h is None:
        (lcm,) = intersect(Ideal(ring, [f]), Ideal(ring, [g])).groebner()
        return exact_divide(f * g, lcm).monic()
    return Polynomial(ring, {e: Fraction(c) for e, c in h.items()}).monic()


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


def ff_squarefree_part(f, t):
    """Product of the distinct irreducible factors over Q(U) of f.

    f must be primitive in t.  The result is f / gcd(f, df/dt), primitive
    in t; by Gauss's lemma the primitive gcd divides f in Q[U][t], so the
    division is exact.
    """
    g = ff_gcd_in_t(f, derivative_in(f, t), t)
    if g.degree_in(t) == 0:
        return f
    return exact_divide(f, g)


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


def _points(k):
    """Integer points of Z^k by max-norm radius 0, 1, ..., 11, each radius
    in `itertools.product` order."""
    for radius in range(0, 12):
        for point in itertools.product(range(-radius, radius + 1), repeat=k):
            if max((abs(x) for x in point), default=0) == radius:
                yield point


def _integer_values(m, t, point):
    """The dense integer list in t of m's integer form, a rational multiple
    of m, with every non-t variable at its integer value in point."""
    ring = m.ring
    i = ring.var_index(t)
    values = [point.get(v, 0) for v in ring.variables]
    coeffs = [0] * (m.degree_in(t) + 1)
    for e, c in m.integer_form()[0].items():
        for j, k in enumerate(e):
            if k and j != i:
                c *= values[j] ** k
        coeffs[e[i]] += c
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _specialisation(m, t, params, limit=None):
    """The first integer point, among the first `limit` of `_points` (all
    of them if limit is None), where m keeps its t-degree and stays
    squarefree, or None.

    Returns (point, factors): the monic irreducible factors over Q of m
    there, as `factor_squarefree` lists them.
    """
    d = m.degree_in(t)
    for point in itertools.islice(_points(len(params)), limit):
        assignment = dict(zip(params, point))
        coeffs = _integer_values(m, t, assignment)
        if len(coeffs) - 1 == d and _squarefree_z(coeffs):
            return assignment, factor_squarefree(coeffs)
    return None


def certified_irreducible(m, t, params):
    """True only if m, primitive in t, is proved irreducible over Q(params).

    A primitive m of t-degree 1 is irreducible.  Otherwise, by Gauss's
    lemma a factorization m = a*b over Q(params) holds in
    Q[params][t], and at a point where m keeps its t-degree so do a and
    b: an irreducible specialisation at one of the first CERTIFY_POINTS
    points of `_specialisation`'s walk proves m irreducible.  False means
    no proof, not reducible.
    """
    if m.degree_in(t) == 1:
        return True
    found = _specialisation(m, t, params, CERTIFY_POINTS)
    return found is not None and len(found[1]) == 1


def _bezout_family(gs):
    """s_i with s_i * prod_{j!=i} g_j = 1 mod g_i, as Fraction lists."""
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
    return _divmod_q(_mul(a, b), g)[1]


def ff_factor_squarefree(m, t, params, start=None):
    """Irreducible factors over Q(U) of a squarefree primitive m in Q[U][t].

    Returns primitive representatives in Q[U][t]; the product equals m up
    to a unit of Q(U).  The lifting starts at `start`, what
    `_specialisation` found for m, or else at the first point of its walk;
    raises GuardExceeded("evaluation_point") if the walk finds none.  An
    irreducible value there returns m whole.  Otherwise the value's
    factors are rescaled to those of the monic form of m and lifted
    U-adically.

    Recombination evaluates each candidate and the polynomial it must
    divide at one more integer point, all parameters 1, and tries the
    exact division over Q[U][t] only if the univariate values divide.
    """
    ring = m.ring
    if m.degree_in(t) <= 1:
        return [primitive_part_in(m, t)]
    found = start or _specialisation(m, t, params)
    if found is None:
        raise GuardExceeded("evaluation_point", "no squarefree evaluation point found")
    shift, gs = found
    if len(gs) == 1:
        return [primitive_part_in(m, t)]
    monic, lc = _monicize_in_t(m, t)
    # monic(t) = lc^(d-1) m(t/lc), so each monic factor g of degree e of
    # m's value becomes l^e g(t/l), l the value of lc.
    l = Fraction(_integer_values(lc, t, shift)[0], lc.integer_form()[1])
    gs = sorted(
        ([c * l ** (len(g) - 1 - k) for k, c in enumerate(g)] for g in gs),
        key=_factor_key,
    )
    shifted = _substitute_params(monic, shift)
    sigma = _param_degree(shifted, t) + 1
    bezout = _bezout_family(gs)
    lifted = [_from_coeffs(ring, t, g) for g in gs]
    for degree in range(1, sigma + 1):
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
            dense = [Fraction(0)] * (max(tcoeffs) + 1)
            for e, c in tcoeffs.items():
                dense[e] = c
            u_mono = ring.monomial(key, 1)
            for idx, g in enumerate(gs):
                delta = _mulmod_q(bezout[idx], dense, g)
                if delta:
                    lifted[idx] = lifted[idx] + u_mono * _from_coeffs(ring, t, delta)

    probe = {v: 1 for v in params}
    value = [None, None]  # current and its value at the probe

    def split(combo, current):
        cand = ring.one()
        for i in combo:
            cand = _truncate_param(cand * lifted[i], t, sigma)
        cand = _truncate_param(cand, t, sigma - 1)
        # cand is monic in t, so if it divides current, its value at the
        # probe divides current's value there.
        if value[0] is not current:
            value[:] = current, _integer_values(current, t, probe)
        if _prem_z(value[1], _integer_values(cand, t, probe)):
            return None
        quotient = exact_quotient(current, cand)
        return None if quotient is None else (cand, quotient)

    factors, current = _recombine(len(lifted), shifted, split, MAX_SUBSETS, "ff_recombination")
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


def ff_factor(m, t, params):
    """Full factorization over Q(U): [(primitive irreducible, multiplicity)].

    Sorted (stably) by multiplicity; no caller depends on the order.

    A primitive m of t-degree 1 is returned whole.  Otherwise m is
    evaluated at the first CERTIFY_POINTS points of `_specialisation`'s
    walk.  Where it keeps its degree and stays squarefree, m is
    squarefree; an irreducible value there proves m irreducible
    (`certified_irreducible`), and m is returned whole.  A value that
    splits starts the lifting in `ff_factor_squarefree` from that point
    and its factors, each of multiplicity 1.

    Without such a point the squarefree part of m is factored once with
    `ff_factor_squarefree`.  Each factor's multiplicity is the number of
    times it divides m: both are primitive in t, so by Gauss's lemma
    divisibility over Q(U) is divisibility in Q[U][t], which
    `exact_quotient` decides.
    """
    m = primitive_part_in(m, t)
    degree = m.degree_in(t)
    if degree == 0:
        return []
    if degree == 1:
        return [(m, 1)]
    found = _specialisation(m, t, params, CERTIFY_POINTS)
    if found is not None:
        if len(found[1]) == 1:
            return [(m, 1)]
        return [(irr, 1) for irr in ff_factor_squarefree(m, t, params, found)]
    out = [
        (irr, _multiplicity(m, irr, exact_quotient))
        for irr in ff_factor_squarefree(ff_squarefree_part(m, t), t, params)
    ]
    out.sort(key=lambda pair: pair[1])
    return out
