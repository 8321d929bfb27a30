"""Univariate factorization over Q, with a brute-force irreducibility oracle."""

import random
from fractions import Fraction
from itertools import product

import pytest

from flatcheck.errors import GuardExceeded, Guards, InvalidInput
from flatcheck.factor import (
    _factor_mod_p,
    factor_squarefree,
    factor_univariate,
    squarefree_factorization,
)
from flatcheck.rings import PolyRing

RING = PolyRing(("x",))
X = RING.var("x")


def coeffs_of(f):
    """Dense rational coefficient list, constant first."""
    d = f.degree_in("x")
    out = [Fraction(0)] * (d + 1)
    for exps, c in f.terms.items():
        out[exps[0]] = c
    return out


def poly_from(coeffs):
    f = RING.zero()
    for i, c in enumerate(coeffs):
        f = f + RING.monomial((i,), c)
    return f


# -- brute-force irreducibility oracle for degree <= 4 -----------------------------


def _rational_roots(f):
    """All rational roots by the rational-root theorem on the primitive form."""
    coeffs = coeffs_of(f)
    den = 1
    for c in coeffs:
        den = den * c.denominator // __import__("math").gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    while ints and ints[0] == 0:
        yield Fraction(0)
        ints = ints[1:]
        break
    if not ints or all(v == 0 for v in ints):
        return
    lead, const = ints[-1], ints[0]
    if const == 0:
        return

    def divisors(n):
        n = abs(n)
        return [d for d in range(1, n + 1) if n % d == 0]

    seen = set()
    for p in divisors(const):
        for q in divisors(lead):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in seen:
                    continue
                seen.add(cand)
                val = sum(c * cand**i for i, c in enumerate(coeffs))
                if val == 0:
                    yield cand


def _is_square(n):
    if n < 0:
        return False
    r = __import__("math").isqrt(n)
    return r * r == n


def brute_force_irreducible(f):
    """Degree <= 4 irreducibility over Q by root + quadratic-split search.

    Requires the monic form of f to have integer coefficients.  Reducible
    means a rational root or, for quartics, a split into two monic
    quadratics; by Gauss's lemma those quadratics have integer
    coefficients, so enumerating divisor pairs of the constant term and
    solving the resulting linear/quadratic conditions is exact.
    """
    d = f.degree_in("x")
    if d <= 1:
        return True
    if any(True for _ in _rational_roots(f)):
        return False
    if d <= 3:
        return True  # degree 2/3 reducible only via a root
    assert d == 4
    coeffs = coeffs_of(f)
    monic = [c / coeffs[-1] for c in coeffs]
    assert all(c.denominator == 1 for c in monic), "oracle needs integral monic form"
    e0, e1, e2, e3, _ = (int(c) for c in monic)
    assert e0 != 0  # a zero constant term is a rational root, handled above
    # (x^2 + a x + b)(x^2 + c x + d): e3 = a+c, e2 = b+d+ac, e1 = ad+bc, e0 = bd.
    for b in range(-abs(e0), abs(e0) + 1):
        if b == 0 or e0 % b != 0:
            continue
        dd = e0 // b
        if b != dd:
            num = e1 - b * e3
            den = dd - b
            if num % den != 0:
                continue
            a = num // den
            c = e3 - a
            if b + dd + a * c == e2:
                return False
        else:
            # a+c = e3 and ac = e2-2b, with e1 = b*e3 forced.
            if e1 != b * e3:
                continue
            disc = e3 * e3 - 4 * (e2 - 2 * b)
            if _is_square(disc) and (e3 + __import__("math").isqrt(disc)) % 2 == 0:
                return False
    return True


# -- documented examples ------------------------------------------------------------


def test_squarefree_examples():
    f = X**2 * (X + 1)
    parts = squarefree_factorization(f)
    assert sorted((str(p), m) for p, m in parts.factors) == [("x", 2), ("x + 1", 1)]
    assert parts.reassemble() == f

    g = X**2 + 1
    parts = squarefree_factorization(g)
    assert [(str(p), m) for p, m in parts.factors] == [("x^2 + 1", 1)]

    h = (X - 1) ** 3
    parts = squarefree_factorization(h)
    assert [(str(p), m) for p, m in parts.factors] == [("x - 1", 3)]


def test_squarefree_part():
    parts = squarefree_factorization(X**3 * (X - 2) ** 2)
    product = RING.one()
    for p, _ in parts.factors:
        product = product * p
    assert product == X * (X - 2)


def test_squarefree_rejects_multivariate():
    ring = PolyRing(("x", "y"))
    with pytest.raises(InvalidInput):
        squarefree_factorization(ring.var("x") * ring.var("y"))


def test_factor_examples():
    fac = factor_univariate(X**2 - 1)
    assert sorted(str(p) for p, _ in fac.factors) == ["x + 1", "x - 1"]

    fac = factor_univariate(X**2 + 1)
    assert [str(p) for p, _ in fac.factors] == ["x^2 + 1"]

    fac = factor_univariate(X**3 + X + 2)
    assert sorted(str(p) for p, _ in fac.factors) == ["x + 1", "x^2 - x + 2"]
    assert fac.reassemble() == X**3 + X + 2


def test_factor_reassembly_with_unit():
    f = (2 * X - 3) * (X**2 + X + 1) * 5
    fac = factor_univariate(f)
    assert fac.reassemble() == f
    for p, _ in fac.factors:
        _, lc = p.leading_term()
        assert lc == 1


# -- random products: reassembly + irreducibility oracle --------------------------


def random_irreducible(rng):
    """Rejection-sample a monic irreducible of degree <= 4 (oracle-checked)."""
    while True:
        d = rng.randint(1, 4)
        coeffs = [Fraction(rng.randint(-6, 6)) for _ in range(d)] + [Fraction(1)]
        f = poly_from(coeffs)
        if f.degree_in("x") == d and brute_force_irreducible(f):
            return f


def test_random_products_roundtrip():
    rng = random.Random(2024)
    for trial in range(40):
        nfactors = rng.randint(1, 4)
        factors = [random_irreducible(rng) for _ in range(nfactors)]
        unit = Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))
        f = RING.const(unit)
        for p in factors:
            f = f * p
        fac = factor_univariate(f, seed=trial)
        # exact reassembly
        assert fac.reassemble() == f
        # every reported factor is irreducible per the brute-force oracle
        for p, _ in fac.factors:
            assert p.degree_in("x") <= 4
            assert brute_force_irreducible(p)
        # the multiset of factors matches the construction
        expected = {}
        for p in factors:
            expected[str(p)] = expected.get(str(p), 0) + 1
        got = {}
        for p, m in fac.factors:
            got[str(p)] = got.get(str(p), 0) + m
        assert got == expected


def test_factor_squarefree_matches_factor_univariate():
    # The squarefree products of the roundtrip test above, as dense lists.
    rng = random.Random(2024)
    for trial in range(40):
        nfactors = rng.randint(1, 4)
        factors = [random_irreducible(rng) for _ in range(nfactors)]
        unit = Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))
        if len(set(factors)) < nfactors:
            continue
        f = RING.const(unit)
        for p in factors:
            f = f * p
        got = factor_squarefree(coeffs_of(f), seed=trial)
        fac = factor_univariate(f, seed=trial)
        assert got == [coeffs_of(p) for p, _ in fac.factors]


def test_factor_agrees_with_oracle_on_random_inputs():
    rng = random.Random(77)
    for _ in range(25):
        d = rng.randint(2, 4)
        coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(d)] + [
            Fraction(rng.choice([1, 1, 2]))
        ]
        f = poly_from(coeffs)
        if f.degree_in("x") < 2:
            continue
        fac = factor_univariate(f)
        assert fac.reassemble() == f
        squarefree = all(m == 1 for _, m in squarefree_factorization(f).factors)
        integral_monic = all(c.denominator == 1 for c in coeffs_of(f.monic()))
        if squarefree and integral_monic:
            irreducible = len(fac.factors) == 1 and fac.factors[0][1] == 1
            assert irreducible == brute_force_irreducible(f.monic())


def test_timeout_trips_inside_factor_univariate():
    # Swinnerton-Dyer polynomial of {2, 3, 5, 7}: irreducible over Q, but it
    # splits into factors of degree <= 2 modulo every prime, so Hensel
    # lifting and recombination have work to poll in.
    coeffs = [1, 0, -136, 0, 6476, 0, -141912, 0, 1513334, 0, -7453176, 0,
              13950764, 0, -5596840, 0, 46225]
    f = sum((c * X ** (16 - i) for i, c in enumerate(coeffs) if c), RING.zero())
    with pytest.raises(GuardExceeded) as exc, Guards(timeout=0):
        factor_univariate(f)
    assert exc.value.guard == "time"


def test_timeout_trips_inside_cantor_zassenhaus():
    # (x - 1)(x - 2) mod 7: the distinct-degree phase leaves both roots in
    # one stage, so the equal-degree splitting loop must run.
    p = 7
    f = [2, p - 3, 1]
    with pytest.raises(GuardExceeded) as exc, Guards(timeout=0):
        _factor_mod_p(f, p, random.Random(0))
    assert exc.value.guard == "time"
    assert sorted(_factor_mod_p(f, p, random.Random(0))) == [[p - 2, 1], [p - 1, 1]]
