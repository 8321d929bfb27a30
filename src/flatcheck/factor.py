"""Univariate factorization over the rationals.

Pipeline: Yun squarefree decomposition, factorization modulo a suitable
prime (distinct-degree plus Cantor-Zassenhaus equal-degree splitting),
Hensel lifting past a Mignotte-style coefficient bound, and subset
recombination.  Dense integer coefficient lists (low degree first) are
used internally; the public API speaks Polynomial.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd, isqrt
from typing import List, Tuple

from .errors import GuardExceeded, Guards, InvalidInput
from .rings import Polynomial

# Recombination tries at most this many subsets of the modular factors.
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
        if not a:
            break
        k = len(a) - len(b)
        c = a[-1] * inv
        q[k] = c
        for i, y in enumerate(b):
            a[i + k] -= c * y
        _trim(a)
    return _trim(q), a


def _gcd_q(a, b):
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    while _trim(b):
        _, r = _divmod_q(a, b)
        a, b = b, r
    if not a:
        return []
    inv = Fraction(1) / a[-1]
    return [x * inv for x in a]


def _deriv(a):
    return _trim([i * a[i] for i in range(1, len(a))])


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


def _trim_p(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _mul_p(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim_p(out)


def _divmod_p(a, b, p):
    a = [x % p for x in a]
    _trim_p(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        k = len(a) - len(b)
        c = a[-1] * inv % p
        q[k] = c
        for i, y in enumerate(b):
            a[i + k] = (a[i + k] - c * y) % p
        _trim_p(a)
    return _trim_p(q), a


def _gcd_p(a, b, p):
    a = [x % p for x in a]
    b = [x % p for x in b]
    _trim_p(a)
    _trim_p(b)
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
        if e & 1:
            result = _divmod_p(_mul_p(result, base, p), mod, p)[1]
        e >>= 1
        if e:
            base = _divmod_p(_mul_p(base, base, p), mod, p)[1]
    return result


def _factor_mod_p(f, p, rng):
    """Irreducible monic factors of squarefree monic f mod p."""
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
                if p == 2:
                    # trace map splitting
                    t = list(a)
                    acc = list(a)
                    for _ in range(d - 1):
                        t = _powmod_p(t, 2, w, p)
                        acc = _divmod_p(_add(acc, t), w, p)[1]
                    cand = _gcd_p(acc, w, p)
                else:
                    e = (p**d - 1) // 2
                    b = _powmod_p(a, e, w, p)
                    cand = _gcd_p(_add(b, _neg([1])), w, p)
                if 0 < _deg(cand) < _deg(w):
                    work.append(cand)
                    work.append(_divmod_p(w, cand, p)[0])
                    break
    return factors


# -- Hensel lifting ------------------------------------------------------------


def _hensel_pair(f, g, h, p, k):
    """Lift f = g*h (mod p) to mod p^k; g, h monic... g monic, lc(h) free.

    Standard quadratic lifting.  Requires gcd(g, h) = 1 mod p.
    """
    # Bezout: s*g + t*h = 1 mod p
    s, t = _bezout_p(g, h, p)
    guards = Guards.current()
    q = p
    while q < p**k:
        guards.check_time()
        q2 = min(q * q, p**k)
        # e = f - g*h mod q2
        e = _mod_list(_add(f, _neg(_mul(g, h))), q2)
        # g' = g + t*e mod g? standard: delta_h = s*e mod h ... with g monic:
        # correction: h += (s*e rem h)?? We follow von zur Gathen Alg 15.10 shape.
        se = _mul(s, e)
        qq, r = _divmod_zq(se, h, q2)
        h_new = _mod_list(_add(h, r), q2)
        g_new = _mod_list(_add(g, _add(_mul(t, e), _mul(qq, g))), q2)
        g, h = _trim(g_new), _trim(h_new)
        # refresh Bezout to mod q2
        b = _mod_list(_add([1], _neg(_add(_mul(s, g), _mul(t, h)))), q2)
        sb = _mul(s, b)
        qq, r = _divmod_zq(sb, h, q2)
        s = _mod_list(_add(s, r), q2)
        t = _mod_list(_add(t, _add(_mul(t, b), _mul(qq, g))), q2)
        s, t = _trim(s), _trim(t)
        q = q2
    return g, h


def _mod_list(a, m):
    return _trim([x % m for x in a])


def _divmod_zq(a, b, m):
    """Division mod m by b with lc(b) invertible mod m."""
    a = [x % m for x in a]
    _trim(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv = pow(b[-1] % m, -1, m)
    while len(a) >= len(b):
        k = len(a) - len(b)
        c = a[-1] * inv % m
        q[k] = c
        for i, y in enumerate(b):
            a[i + k] = (a[i + k] - c * y) % m
        _trim(a)
    return _trim(q), a


def _bezout_p(g, h, p):
    """s, t with s*g + t*h = 1 mod p."""
    r0, r1 = [x % p for x in g], [x % p for x in h]
    s0, s1 = [1], []
    t0, t1 = [], [1]
    _trim_p(r0)
    _trim_p(r1)
    while r1:
        q, r = _divmod_p(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _trim_p([x % p for x in _add(s0, _neg(_mul(q, s1)))])
        t0, t1 = t1, _trim_p([x % p for x in _add(t0, _neg(_mul(q, t1)))])
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
        g = _mul_p(g, w, p)
    h = [1]
    for w in right:
        h = _mul_p(h, w, p)
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
    fp = None
    prime = None
    disc_ok = False
    for p in _SMALL_PRIMES:
        if f[-1] % p == 0:
            continue
        fp = [x % p for x in f]
        if _deg(_gcd_p(fp, _deriv(fp), p)) == 0:
            prime = p
            disc_ok = True
            break
    if not disc_ok:
        raise GuardExceeded("prime_search", "no suitable small prime found")
    p = prime
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

    result = []
    remaining = list(range(len(lifted)))
    current = list(f)
    tried = 0
    size = 1
    guards = Guards.current()
    while 2 * size <= len(remaining):
        found = False
        for combo in itertools.combinations(remaining, size):
            guards.check_time()
            tried += 1
            if tried > MAX_SUBSETS:
                raise GuardExceeded("recombination")
            lc = current[-1]
            cand = [lc % q]
            for i in combo:
                cand = _mod_list(_mul(cand, lifted[i]), q)
            cand = _symmetric(cand, q)
            cand, _ = _primitive(_trim(list(cand)))
            if not cand:
                continue
            quo, rem = _divmod_q([Fraction(x) for x in current], [Fraction(x) for x in cand])
            if not rem:
                quo_int, den = _to_int(quo)
                if den == 1:
                    result.append(cand)
                    current = quo_int
                    remaining = [i for i in remaining if i not in combo]
                    found = True
                    break
        if not found:
            size += 1
    if _deg(current) >= 1 or (len(current) == 1 and abs(current[0]) != 1):
        prim, _ = _primitive(current)
        if _deg(prim) >= 1:
            result.append(prim)
    return result


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


def squarefree_part(f):
    """f / gcd(f, f') made monic, for univariate f."""
    var, coeffs = _univariate_data(f)
    g = _gcd_q(coeffs, _deriv(coeffs))
    q, r = _divmod_q(coeffs, g)
    assert not r
    inv = Fraction(1) / q[-1]
    return _from_coeffs(f.ring, var, [x * inv for x in q])


def squarefree_factorization(f):
    """Yun's algorithm: monic squarefree parts with multiplicities."""
    var, coeffs = _univariate_data(f)
    unit = Fraction(coeffs[-1])
    a = [x / unit for x in coeffs]
    if _deg(a) == 0:
        return Factorization(unit, [])
    factors = []
    d = _deriv(a)
    g = _gcd_q(a, d)
    c, _ = _divmod_q(a, g)
    w, _ = _divmod_q(d, g)
    i = 1
    while _deg(c) > 0:
        y = _gcd_q(c, _add(w, _neg(_deriv(c))))
        z = _add(w, _neg(_deriv(c)))
        z, _ = _divmod_q(z, y)
        if _deg(y) > 0:
            factors.append((_from_coeffs(f.ring, var, y), i))
        c, _ = _divmod_q(c, y)
        w = z
        i += 1
    return Factorization(unit, factors)


def factor_univariate(f, seed=0):
    """Irreducible monic factorization over Q with exact reassembly."""
    sqf = squarefree_factorization(f)
    out = []
    unit = sqf.unit
    for part, mult in sqf.factors:
        var, coeffs = _univariate_data(part)
        ints, _den = _to_int(coeffs)
        prim, _cont = _primitive(ints)
        if prim[-1] < 0:
            prim = [-x for x in prim]
        for irr in _factor_squarefree_z(prim, seed=seed):
            lc = Fraction(irr[-1])
            monic = [Fraction(x) / lc for x in irr]
            out.append((_from_coeffs(f.ring, var, monic), mult))
    out.sort(key=lambda t: (t[0].total_degree(), sorted(t[0].terms.items())))
    return Factorization(unit, out)
