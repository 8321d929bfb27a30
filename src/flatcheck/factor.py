"""Univariate factorization over the rationals.

Pipeline: the squarefree part f / gcd(f, f'), factorization modulo a
suitable prime (distinct-degree plus Cantor-Zassenhaus equal-degree
splitting), Hensel lifting past a Mignotte-style coefficient bound, and
subset recombination; each factor's multiplicity in f is then counted by
exact division.  Recombination rejects most candidate subsets by a
constant-term divisibility test (Abbott-Shoup-Zimmermann, ISSAC 2000)
and tries the rest by integer trial division, which stops at the first
inexact step.  Its subset search, `_recombine`, also serves the
factorization over Q(U) in `funcfield`.  Dense integer coefficient lists
(low degree first) are used internally.  The public API speaks
Polynomial, except `factor_squarefree`, which takes and returns dense
Fraction lists for a caller that knows its input is squarefree and
holds its coefficients.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd, isqrt
from typing import List, Tuple

from .errors import GuardExceeded, InvalidInput
from .rings import Polynomial

# Recombination tries at most this many subsets of the modular factors;
# a subset rejected by the constant-term test counts as tried.
MAX_SUBSETS = 200000

# -- dense helpers over Z / Q -------------------------------------------------


def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _deg(c):
    return len(c) - 1


def _add(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def _neg(a):
    return [-x for x in a]


def _mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _divmod_q(a, b):
    """Division over Q; a, b lists of Fractions (b nonzero)."""
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv = Fraction(1) / b[-1]
    while len(a) >= len(b) and _trim(a):
        k = len(a) - len(b)
        c = a[-1] * inv
        q[k] = c
        for i, y in enumerate(b):
            a[i + k] -= c * y
        _trim(a)
    return _trim(q), a


def _exact_quotient_z(a, b):
    """a / b over Z for integer lists (b nonzero), or None if b does not divide a.

    For primitive b this is divisibility over Q as well (Gauss's lemma).
    """
    if b[0] and a[0] % b[0]:
        return None
    a = list(a)
    lc = b[-1]
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        k = len(a) - len(b)
        c, r = divmod(a[-1], lc)
        if r:
            return None
        q[k] = c
        for i, y in enumerate(b):
            a[i + k] -= c * y
        _trim(a)
    return None if a else _trim(q)


def _deriv(a):
    return _trim([i * a[i] for i in range(1, len(a))])


def _prem_z(a, b):
    """A remainder of a by b over Z (b of degree >= 1): c*a - q*b for a
    non-zero integer c, of degree below b's."""
    a = list(a)
    lc = b[-1]
    while len(a) >= len(b):
        k = len(a) - len(b)
        d = int_gcd(a[-1], lc)
        s, c = lc // d, a[-1] // d
        a = [x * s for x in a]
        for i, y in enumerate(b):
            a[i + k] -= c * y
        _trim(a)
    return a


def _gcd_z(a, b):
    """gcd over Q of the dense integer lists a (non-zero) and b, primitive
    over Z: the last non-zero term of their primitive remainder sequence,
    [1] when that is a constant."""
    a = _primitive(a)[0]
    b = _primitive(b)[0]
    while len(b) > 1:
        a, b = b, _primitive(_prem_z(a, b))[0]
    return [1] if b else a


def _squarefree_z(a):
    """True iff the dense integer list a is squarefree over Q."""
    return len(_gcd_z(a, _deriv(a))) == 1


def _content(a):
    c = 0
    for x in a:
        c = int_gcd(c, x)
    return c or 1


def _primitive(a):
    c = _content(a)
    return [x // c for x in a], c


def _to_int(a):
    """Clear denominators of a Fraction list: returns (int list, denominator)."""
    den = 1
    for x in a:
        den = den * x.denominator // int_gcd(den, x.denominator)
    return [int(x * den) for x in a], den


# -- arithmetic mod p ----------------------------------------------------------


def _divmod_p(a, b, p):
    """Division mod p, which need not be prime; lc(b) must be a unit mod p."""
    a = [x % p for x in a]
    _trim(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        k = len(a) - len(b)
        c = a[-1] * inv % p
        q[k] = c
        for i, y in enumerate(b):
            a[i + k] = (a[i + k] - c * y) % p
        _trim(a)
    return _trim(q), a


def _gcd_p(a, b, p):
    a = [x % p for x in a]
    b = [x % p for x in b]
    _trim(a)
    _trim(b)
    while b:
        _, r = _divmod_p(a, b, p)
        a, b = b, r
    if a:
        inv = pow(a[-1], -1, p)
        a = [x * inv % p for x in a]
    return a


def _powmod_p(base, e, mod, p):
    result = [1]
    base = _divmod_p(base, mod, p)[1]
    while e:
        # _divmod_p reduces its dividend mod p on entry.
        if e & 1:
            result = _divmod_p(_mul(result, base), mod, p)[1]
        e >>= 1
        if e:
            base = _divmod_p(_mul(base, base), mod, p)[1]
    return result


def _factor_mod_p(f, p, rng):
    """Irreducible monic factors of squarefree monic f mod an odd prime p."""
    factors = []
    # Distinct-degree phase.
    stages = []  # (degree d, product of the irreducible factors of degree d)
    h = [0, 1]  # x
    v = list(f)
    d = 0
    while _deg(v) >= 1:
        d += 1
        if 2 * d > _deg(v):
            stages.append((_deg(v), v))
            break
        h = _powmod_p(h, p, v, p)
        g = _gcd_p(_add(h, _neg([0, 1])), v, p)
        if _deg(g) >= 1:
            stages.append((d, g))
            v = _divmod_p(v, g, p)[0]
            h = _divmod_p(h, v, p)[1]
    # Equal-degree (Cantor-Zassenhaus) phase.
    for d, g in stages:
        work = [g]
        while work:
            w = work.pop()
            if _deg(w) == d:
                factors.append(w)
                continue
            while True:
                a = [rng.randrange(p) for _ in range(_deg(w))] + [1]
                b = _powmod_p(a, (p**d - 1) // 2, w, p)
                cand = _gcd_p(_add(b, _neg([1])), w, p)
                if 0 < _deg(cand) < _deg(w):
                    work.append(cand)
                    work.append(_divmod_p(w, cand, p)[0])
                    break
    return factors


# -- Hensel lifting ------------------------------------------------------------


def _hensel_pair(f, g, h, p, k):
    """Lift f = g*h (mod p) to mod p^k; h is monic, g carries lc(f).

    Quadratic lifting (von zur Gathen-Gerhard, Algorithm 15.10); g and h
    must be coprime mod p.  Each step starts from f = g*h and
    s*g + t*h = 1 modulo q, with h monic of its original degree, and ends
    with the same modulo q2 = min(q^2, p^k).
    """
    s, t = _bezout_p(g, h, p)
    q = p
    while q < p**k:
        q2 = min(q * q, p**k)
        # With e = f - g*h and s*e = qq*h + r, the pair (g + t*e + qq*g,
        # h + r) has product f modulo q2; deg r < deg h keeps h monic.
        e = _mod_list(_add(f, _neg(_mul(g, h))), q2)
        se = _mul(s, e)
        qq, r = _divmod_p(se, h, q2)
        h_new = _mod_list(_add(h, r), q2)
        g_new = _mod_list(_add(g, _add(_mul(t, e), _mul(qq, g))), q2)
        g, h = _trim(g_new), _trim(h_new)
        # Lift the Bezout pair the same way, with b = 1 - (s*g + t*h).
        b = _mod_list(_add([1], _neg(_add(_mul(s, g), _mul(t, h)))), q2)
        sb = _mul(s, b)
        qq, r = _divmod_p(sb, h, q2)
        s = _mod_list(_add(s, r), q2)
        t = _mod_list(_add(t, _add(_mul(t, b), _mul(qq, g))), q2)
        s, t = _trim(s), _trim(t)
        q = q2
    return g, h


def _mod_list(a, m):
    return _trim([x % m for x in a])


def _bezout_p(g, h, p):
    """s, t with s*g + t*h = 1 mod p."""
    r0, r1 = [x % p for x in g], [x % p for x in h]
    s0, s1 = [1], []
    t0, t1 = [], [1]
    _trim(r0)
    _trim(r1)
    while r1:
        q, r = _divmod_p(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _trim([x % p for x in _add(s0, _neg(_mul(q, s1)))])
        t0, t1 = t1, _trim([x % p for x in _add(t0, _neg(_mul(q, t1)))])
    inv = pow(r0[0], -1, p)
    s = [x * inv % p for x in s0]
    t = [x * inv % p for x in t0]
    return s, t


def _hensel_multifactor(f, factors, p, k):
    """Lift f = lc * prod(factors) mod p to mod p^k (divide and conquer)."""
    if len(factors) == 1:
        # single factor: f/lc mod p^k is it
        q = p**k
        inv = pow(f[-1] % q, -1, q)
        return [_mod_list([x * inv for x in f], q)]
    mid = len(factors) // 2
    left = factors[:mid]
    right = factors[mid:]
    g = [1]
    for w in left:
        g = _mod_list(_mul(g, w), p)
    h = [1]
    for w in right:
        h = _mod_list(_mul(h, w), p)
    # absorb lc of f into g; h stays monic (required by the lifting divisions)
    lc = f[-1] % p
    g = [x * lc % p for x in g]
    g_l, h_l = _hensel_pair(f, g, h, p, k)
    return _hensel_multifactor(g_l, left, p, k) + _hensel_multifactor(h_l, right, p, k)


# -- symmetric remainder helpers ----------------------------------------------


def _symmetric(a, m):
    half = m // 2
    return [x - m if x > half else x for x in a]


_SMALL_PRIMES = [
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
    73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227,
    229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293,
]


def _factor_squarefree_z(f, seed=0):
    """Irreducible factors over Z of a primitive squarefree integer poly."""
    n = _deg(f)
    if n <= 1:
        return [f]
    rng = random.Random(seed)
    for p in _SMALL_PRIMES:
        if f[-1] % p == 0:
            continue
        fp = [x % p for x in f]
        if _deg(_gcd_p(fp, _deriv(fp), p)) == 0:
            break
    else:
        raise GuardExceeded("prime_search", "no suitable small prime found")
    inv = pow(f[-1] % p, -1, p)
    fp_monic = [x * inv % p for x in fp]
    modular = _factor_mod_p(fp_monic, p, rng)
    modular.sort(key=lambda g: (len(g), g))
    if len(modular) == 1:
        return [f]
    # Lifting bound: |factor coeffs| <= 2^n * ||f||_2 * |lc|
    norm2 = isqrt(sum(x * x for x in f)) + 1
    bound = 2 ** (n + 1) * norm2 * abs(f[-1])
    k = 1
    while p**k < 2 * bound:
        k += 1
    lifted = _hensel_multifactor(_mod_list(f, p**k), modular, p, k)
    q = p**k

    def split(combo, current):
        lc = current[-1]
        # A true factor g of current = g*h lifts to exactly lc(h)*g, so
        # its constant term divides lc(g)*lc(h)*g(0)*h(0) = lc*current[0].
        if current[0]:
            c0 = lc
            for i in combo:
                c0 = c0 * lifted[i][0] % q
            if c0 > q // 2:
                c0 -= q
            if c0 == 0 or (lc * current[0]) % c0:
                return None
        cand = [lc % q]
        for i in combo:
            cand = _mod_list(_mul(cand, lifted[i]), q)
        cand, _ = _primitive(_trim(_symmetric(cand, q)))
        if not cand:
            return None
        quo = _exact_quotient_z(current, cand)
        return None if quo is None else (cand, quo)

    result, current = _recombine(len(lifted), list(f), split, MAX_SUBSETS, "recombination")
    if _deg(current) >= 1:
        result.append(_primitive(current)[0])
    return result


def _recombine(count, current, split, max_subsets, guard):
    """Zassenhaus recombination of `count` lifted factors of `current`.

    Subsets of the unused factors are tried smallest first, in
    `itertools.combinations` order, up to half of them at a time (a larger
    subset is the complement of a smaller one).  split(combo, current)
    returns (factor, cofactor) when the factors in combo give a true
    factor of current, else None.  A factor found is kept, current
    becomes its cofactor, and the search goes on at the same size.  Trying
    more than max_subsets subsets, rejected ones included, trips the
    guard named `guard`.  Returns the factors found and what is left.
    """
    factors = []
    remaining = list(range(count))
    tried = 0
    size = 1
    while 2 * size <= len(remaining):
        for combo in itertools.combinations(remaining, size):
            tried += 1
            if tried > max_subsets:
                raise GuardExceeded(guard)
            found = split(combo, current)
            if found is not None:
                factor, current = found
                factors.append(factor)
                remaining = [i for i in remaining if i not in combo]
                break
        else:
            size += 1
    return factors, current


def _multiplicity(f, g, quotient):
    """How many times g divides f; quotient(f, g) is f / g, or None."""
    mult = 0
    f = quotient(f, g)
    while f is not None:
        mult += 1
        f = quotient(f, g)
    return mult


# -- public API ----------------------------------------------------------------


@dataclass
class Factorization:
    unit: Fraction
    factors: List[Tuple[Polynomial, int]]

    def reassemble(self, ring=None):
        ring = ring or (self.factors[0][0].ring if self.factors else None)
        if ring is None:
            raise InvalidInput("cannot reassemble an empty factorization")
        out = ring.const(self.unit)
        for f, m in self.factors:
            out = out * f**m
        return out


def _univariate_data(f):
    """(variable name, dense Fraction coefficient list) for a univariate poly."""
    used = f.variables_used()
    if len(used) > 1:
        raise InvalidInput(f"polynomial is not univariate: uses {sorted(used)}")
    if f.is_zero():
        raise InvalidInput("cannot factor the zero polynomial")
    var = next(iter(used)) if used else f.ring.variables[0]
    i = f.ring.var_index(var)
    coeffs = [Fraction(0)] * (f.degree_in(var) + 1)
    for exps, c in f.terms.items():
        coeffs[exps[i]] = c
    return var, coeffs


def _from_coeffs(ring, var, coeffs):
    i = ring.var_index(var)
    terms = {}
    for e, c in enumerate(coeffs):
        if c:
            exps = [0] * ring.nvars
            exps[i] = e
            terms[tuple(exps)] = Fraction(c)
    return Polynomial(ring, terms)


def _factor_key(coeffs):
    """Degree first, then the non-zero coefficients from the constant term up."""
    return len(coeffs), [(i, c) for i, c in enumerate(coeffs) if c]


def factor_squarefree(coeffs, seed=0):
    """Monic irreducible factors over Q of a squarefree dense list of
    Fractions or ints.

    The factors are dense Fraction lists, sorted by degree, then by their
    non-zero coefficients from the constant term up.
    """
    prim, _ = _primitive(_to_int(coeffs)[0])
    if prim[-1] < 0:
        prim = _neg(prim)
    out = []
    for irr in _factor_squarefree_z(prim, seed=seed):
        lc = Fraction(irr[-1])
        out.append([Fraction(x) / lc for x in irr])
    out.sort(key=_factor_key)
    return out


def factor_univariate(f, seed=0):
    """Irreducible monic factorization over Q with exact reassembly.

    The squarefree part f / gcd(f, f') is factored once.  Each factor's
    multiplicity is the number of times it divides f, by integer trial
    division of the primitive forms (Gauss's lemma).
    """
    var, coeffs = _univariate_data(f)
    unit = Fraction(coeffs[-1])
    a = [x / unit for x in coeffs]
    if _deg(a) == 0:
        return Factorization(unit, [])
    prim = _primitive(_to_int(a)[0])[0]
    part = _exact_quotient_z(prim, _gcd_z(prim, _deriv(prim)))
    factors = []
    for irr in factor_squarefree(part, seed=seed):
        mult = _multiplicity(prim, _primitive(_to_int(irr)[0])[0], _exact_quotient_z)
        factors.append((_from_coeffs(f.ring, var, irr), mult))
    return Factorization(unit, factors)
