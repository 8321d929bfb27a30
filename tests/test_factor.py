"""Univariate factorization over Q, with a brute-force irreducibility oracle."""

import random
from fractions import Fraction
from itertools import product

import pytest

from flatcheck import factor
from flatcheck.errors import GuardExceeded, InvalidInput
from flatcheck.factor import (
    _deriv,
    _divmod_q,
    _exact_quotient_z,
    _factor_mod_p,
    _gcd_q,
    _mul,
    _squarefree_z,
    factor_squarefree,
    factor_univariate,
)
from flatcheck.rings import PolyRing

from conftest import cut_at_line

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
    parts = factor_univariate(f)
    assert sorted((str(p), m) for p, m in parts.factors) == [("x", 2), ("x + 1", 1)]
    assert parts.reassemble() == f

    g = X**2 + 1
    parts = factor_univariate(g)
    assert [(str(p), m) for p, m in parts.factors] == [("x^2 + 1", 1)]

    h = (X - 1) ** 3
    parts = factor_univariate(h)
    assert [(str(p), m) for p, m in parts.factors] == [("x - 1", 3)]


def test_integer_squarefree_test_agrees_with_the_rational_gcd():
    rng = random.Random(17)
    for _ in range(400):
        a = [rng.randint(-4, 4) for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.4:
            b = [rng.randint(-3, 3) for _ in range(rng.randint(2, 3))]
            a = _mul(_mul(a, b), b)
        while a and a[-1] == 0:
            a.pop()
        if not a:
            continue
        want = len(_gcd_q(a, _deriv(list(a)))) == 1
        assert _squarefree_z(a) == want, a


def test_squarefree_part():
    parts = factor_univariate(X**3 * (X - 2) ** 2)
    product = RING.one()
    for p, _ in parts.factors:
        product = product * p
    assert product == X * (X - 2)


def test_squarefree_rejects_multivariate():
    ring = PolyRing(("x", "y"))
    with pytest.raises(InvalidInput):
        factor_univariate(ring.var("x") * ring.var("y"))


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
        squarefree = all(m == 1 for _, m in fac.factors)
        integral_monic = all(c.denominator == 1 for c in coeffs_of(f.monic()))
        if squarefree and integral_monic:
            irreducible = len(fac.factors) == 1 and fac.factors[0][1] == 1
            assert irreducible == brute_force_irreducible(f.monic())


# Swinnerton-Dyer polynomials of {2, 3, 5} and {2, 3, 5, 7}, highest degree
# first: irreducible over Q, but they split into factors of degree <= 2
# modulo every prime, so Hensel lifting and recombination have work to do.
SWINNERTON_DYER = {
    "sd-8": [1, 0, -40, 0, 352, 0, -960, 0, 576],
    "sd-16": [1, 0, -136, 0, 6476, 0, -141912, 0, 1513334, 0, -7453176, 0,
              13950764, 0, -5596840, 0, 46225],
}


def swinnerton_dyer(name):
    coeffs = SWINNERTON_DYER[name]
    n = len(coeffs) - 1
    return sum((c * X ** (n - i) for i, c in enumerate(coeffs) if c), RING.zero())


def test_timeout_trips_inside_factor_univariate():
    # A time guard's alarm may land at any line; the next run is unchanged.
    f = swinnerton_dyer("sd-8")
    want = factor_univariate(f)
    for k in (1, 30, 300, 3000):
        with pytest.raises(GuardExceeded) as exc, cut_at_line(k):
            factor_univariate(f)
        assert exc.value.guard == "time"
        assert factor_univariate(f) == want


def test_timeout_trips_inside_cantor_zassenhaus():
    # (x - 1)(x - 2) mod 7: the distinct-degree phase leaves both roots in
    # one stage, so the equal-degree splitting loop must run.
    p = 7
    f = [2, p - 3, 1]
    for k in (1, 50, 500):
        with pytest.raises(GuardExceeded) as exc, cut_at_line(k):
            _factor_mod_p(f, p, random.Random(0))
        assert exc.value.guard == "time"
    assert sorted(_factor_mod_p(f, p, random.Random(0))) == [[p - 2, 1], [p - 1, 1]]


# -- recombination: constant-term test and integer trial division -----------------


@pytest.mark.parametrize("name", sorted(SWINNERTON_DYER))
def test_swinnerton_dyer_stays_irreducible(name):
    f = swinnerton_dyer(name)
    fac = factor_univariate(f)
    assert fac.factors == [(f, 1)]
    assert fac.unit == 1


def test_recombination_guard_counts_rejected_subsets(monkeypatch):
    # sd-16 tries 162 subsets before it is proved irreducible.  Only 16 of
    # them pass the constant-term test; the rejected ones count against
    # the cap too, so a cap of 161 trips and a cap of 162 does not.
    f = swinnerton_dyer("sd-16")
    monkeypatch.setattr(factor, "MAX_SUBSETS", 162)
    assert len(factor_univariate(f).factors) == 1
    for cap in (161, 10):
        monkeypatch.setattr(factor, "MAX_SUBSETS", cap)
        with pytest.raises(GuardExceeded) as exc:
            factor_univariate(f)
        assert exc.value.guard == "recombination"


def _random_int_poly(rng, d, zero_constant=False):
    coeffs = [rng.randint(-20, 20) for _ in range(d)] + [rng.choice([-4, -3, -1, 1, 2, 5])]
    if zero_constant:
        coeffs[0] = 0
    return coeffs


def test_exact_quotient_agrees_with_rational_division():
    rng = random.Random(12)
    divisible = 0
    for trial in range(300):
        b = _random_int_poly(rng, rng.randint(1, 4), zero_constant=trial % 5 == 0)
        b = factor._primitive(b)[0]
        if trial % 2:
            a = factor._mul(b, _random_int_poly(rng, rng.randint(0, 4)))
        else:
            a = _random_int_poly(rng, rng.randint(len(b) - 1, 8))
        quo, rem = _divmod_q([Fraction(x) for x in a], [Fraction(x) for x in b])
        got = _exact_quotient_z(a, b)
        if rem:
            assert got is None
        else:
            # b is primitive, so a quotient over Q is integral (Gauss).
            assert [Fraction(x) for x in got] == quo
            divisible += 1
    assert 100 < divisible < 300


def _sympy_monic_factors(sympy, x, coeffs):
    """Multiset of sympy's monic factors, as (Fraction list, multiplicity)."""
    f = sum(c * x**i for i, c in enumerate(coeffs))
    _, factors = sympy.factor_list(f, x)
    out = []
    for g, m in factors:
        dense = [Fraction(int(c)) for c in reversed(sympy.Poly(g, x).all_coeffs())]
        out.append(([c / dense[-1] for c in dense], m))
    return sorted(out)


def test_recombination_matches_sympy_on_non_monic_products():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(31)
    irreducibles = []
    while len(irreducibles) < 40:
        d = rng.randint(1, 6)
        coeffs = [rng.randint(-9, 9) for _ in range(d)] + [rng.choice([-6, -4, -3, -2, 2, 3, 5])]
        poly = sympy.Poly(list(reversed(coeffs)), x)
        if coeffs[0] and poly.is_irreducible:
            irreducibles.append(coeffs)
    for trial in range(40):
        parts = rng.sample(irreducibles, rng.randint(2, 4))
        if trial % 4 == 0:
            parts[-1] = [0, -1]  # the factor -x, so the constant term is 0
        if trial % 5 == 1:
            parts.append(parts[0])  # a repeated factor
        coeffs = [1]
        for g in parts:
            coeffs = factor._mul(coeffs, g)
        f = poly_from([Fraction(c) for c in coeffs])
        fac = factor_univariate(f, seed=trial)
        assert fac.reassemble() == f
        got = sorted((coeffs_of(p), m) for p, m in fac.factors)
        assert got == _sympy_monic_factors(sympy, x, coeffs)
        assert sum(m for _, m in got) == len(parts)
