"""Gcd, squarefree decomposition, and factorization over Q(U)."""

import random
from fractions import Fraction

import pytest

from flatcheck import funcfield
from flatcheck.errors import GuardExceeded, Guards
from flatcheck.funcfield import (
    _good_point,
    ff_factor,
    ff_gcd_in_t,
    multivariate_gcd,
    primitive_part_in,
)
from flatcheck.rings import Polynomial, PolyRing


def _canon(f, var):
    """Primitive-in-var representative with positive-leading normalization."""
    p = primitive_part_in(f, var).monic()
    return p


def _basic_gcd_cases():
    """(f, g, gcd up to a unit) over Q[u, t]."""
    ring = PolyRing(("u", "t"))
    u, t = ring.gens()
    return [
        ((t - u) * (t + u), (t - u) * t, t - u),
        (u**2 * t - u**2 * 1, u * t**2 - u, u * (t - 1)),
        (t - u, t + u + 1, ring.one()),
    ]


def test_multivariate_gcd_basic():
    for f, g, want in _basic_gcd_cases():
        assert multivariate_gcd(f, g) == want.monic()


def _random_gcd_pairs():
    """50 seeded pairs in Q[u, v, t]: products sharing a random factor,
    with rational coefficients, plus zero and constant operands."""
    rng = random.Random(71)
    ring = PolyRing(("u", "v", "t"))

    def rand_poly(max_terms, max_degree):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exps = tuple(rng.randint(0, max_degree) for _ in range(3))
            terms[exps] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
        return Polynomial(ring, terms)

    zero, half = ring.zero(), ring.const(Fraction(3, 2))
    f = rand_poly(3, 2)
    pairs = [(zero, zero), (zero, f), (f, zero), (half, f), (f, half), (half, zero)]
    while len(pairs) < 50:
        common = rand_poly(3, 2)
        pairs.append((common * rand_poly(3, 1), common * rand_poly(4, 1)))
    return pairs


def _sympy_gcd(f, g):
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(f.ring.variables)

    def to_sympy(p):
        return sympy.Poly.from_dict(
            {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()},
            *syms,
            domain="QQ",
        )

    h = sympy.gcd(to_sympy(f), to_sympy(g))
    return Polynomial(f.ring, {e: Fraction(int(c.p), int(c.q)) for e, c in h.terms()})


def test_multivariate_gcd_matches_sympy():
    for f, g in _random_gcd_pairs():
        assert multivariate_gcd(f, g) == _sympy_gcd(f, g).monic(), (f, g)


def test_multivariate_gcd_fallback_gives_the_same_gcds(monkeypatch):
    # With the heuristic always giving up, every gcd comes from the lcm
    # generator of <f> n <g>.
    pairs = [(f, g) for f, g, _ in _basic_gcd_cases()] + _random_gcd_pairs()
    want = [multivariate_gcd(f, g) for f, g in pairs]
    monkeypatch.setattr(funcfield, "_heu_gcd", lambda a, b, order: None)
    assert [multivariate_gcd(f, g) for f, g in pairs] == want


def test_timeout_trips_inside_multivariate_gcd():
    ring = PolyRing(("u", "t"))
    u, t = ring.gens()
    f, g = (t - u) * (t + u), (t - u) * t
    # Warm the integer forms, so that the trip comes from the gcd itself.
    f.integer_form(), g.integer_form()
    with pytest.raises(GuardExceeded) as exc, Guards(timeout=0):
        multivariate_gcd(f, g)
    assert exc.value.guard == "time"


def test_gcd_trial_division_trips_the_exponent_guard():
    # A candidate or input of total degree 2^31 cannot be packed.
    order = PolyRing(("u", "t")).default_order
    small, big = {(1, 0): 1}, {(2**31 - 1, 1): 1}
    assert funcfield._divides(small, {(2, 0): 3}, order)
    for c, a in ((big, small), (small, big)):
        with pytest.raises(GuardExceeded) as exc:
            funcfield._divides(c, a, order)
        assert exc.value.guard == "exponent"


def test_gcd_of_coprime_is_unit():
    ring = PolyRing(("u", "t"))
    u, t = ring.gens()
    g = ff_gcd_in_t(t - u, t + u + 1, "t")
    assert g.degree_in("t") == 0


def test_squarefree_decomposition():
    ring = PolyRing(("u", "t"))
    u, t = ring.gens()
    f = (t - u) ** 2 * (t + 2 * u)
    parts = ff_factor(f, "t", ["u"])
    norm = sorted((str(_canon(p, "t")), m) for p, m in parts if p.degree_in("t") > 0)
    assert norm == [
        (str(_canon(t + 2 * u, "t")), 1),
        (str(_canon(t - u, "t")), 2),
    ] or norm == sorted(
        [(str(_canon(t - u, "t")), 2), (str(_canon(t + 2 * u, "t")), 1)]
    )
    # reassembly up to a unit of Q(U)
    recon = ring.one()
    for p, m in parts:
        recon = recon * p**m
    q = multivariate_gcd(recon, f)
    assert _canon(q, "t") == _canon(f, "t")


def test_ff_factor_difference_of_squares():
    ring = PolyRing(("u", "t"))
    u, t = ring.gens()
    factors = ff_factor(t**2 - u**2, "t", ["u"])
    got = sorted((str(_canon(p, "t")), m) for p, m in factors)
    assert got == sorted(
        [(str(_canon(t - u, "t")), 1), (str(_canon(t + u, "t")), 1)]
    )


def test_ff_factor_irreducibles_stay_whole():
    ring = PolyRing(("u", "v", "t"))
    u, v, t = ring.gens()
    for m in (t**2 - u, t**3 - u * v):
        factors = ff_factor(m, "t", ["u", "v"])
        assert len(factors) == 1 and factors[0][1] == 1
        assert _canon(factors[0][0], "t") == _canon(m, "t")


def test_ff_factor_nonmonic():
    ring = PolyRing(("u", "t"))
    u, t = ring.gens()
    m = (u * t - 1) * (t + u)
    factors = ff_factor(m, "t", ["u"])
    got = sorted(str(_canon(p, "t")) for p, _ in factors)
    assert got == sorted([str(_canon(u * t - 1, "t")), str(_canon(t + u, "t"))])


def test_ff_factor_cusp_cubic_with_multiplicity():
    ring = PolyRing(("u", "x"))
    u, x = ring.gens()
    m = x**3 - 3 * u**2 * x + 2 * u**3  # (x - u)^2 (x + 2u)
    factors = ff_factor(m, "x", ["u"])
    got = sorted((str(_canon(p, "x")), mult) for p, mult in factors)
    assert got == sorted(
        [(str(_canon(x - u, "x")), 2), (str(_canon(x + 2 * u, "x")), 1)]
    )


def test_ff_factor_random_products_reassemble():
    rng = random.Random(13)
    ring = PolyRing(("u", "t"))
    u, t = ring.gens()
    pool = [t - u, t + u, t + 1, t - 2 * u, u * t - 1, t**2 - u]
    for _ in range(15):
        chosen = rng.sample(pool, rng.randint(1, 3))
        m = ring.one()
        for p in chosen:
            m = m * p
        factors = ff_factor(m, "t", ["u"])
        assert sum(mult * p.degree_in("t") for p, mult in factors) == m.degree_in("t")
        recon = ring.one()
        for p, mult in factors:
            recon = recon * p**mult
        # equality up to a unit of Q(U)
        assert _canon(recon, "t") == _canon(m, "t")


def test_ff_factor_multiplicities():
    # Repeated factors, which the random products above never have: each
    # comes back once, with its multiplicity, sorted by multiplicity.
    rng = random.Random(29)
    ring = PolyRing(("u", "t"))
    u, t = ring.gens()
    pool = [t - u, t + u, t + 1, t - 2 * u, u * t - 1, t**2 - u]
    for _ in range(12):
        chosen = rng.sample(pool, rng.randint(1, 3))
        mults = [rng.randint(1, 3) for _ in chosen]
        m = ring.one()
        for p, e in zip(chosen, mults):
            m = m * p**e
        factors = ff_factor(m, "t", ["u"])
        got = sorted((str(_canon(p, "t")), mult) for p, mult in factors)
        assert got == sorted((str(_canon(p, "t")), e) for p, e in zip(chosen, mults))
        assert [mult for _, mult in factors] == sorted(mults)


def test_timeout_trips_inside_ff_factor():
    ring = PolyRing(("u", "t"))
    u, t = ring.gens()
    with pytest.raises(GuardExceeded) as exc, Guards(timeout=0):
        ff_factor(t**2 - u**2, "t", ["u"])
    assert exc.value.guard == "time"


def test_timeout_trips_inside_good_point_search():
    # At u = 0, t^2 - u is not squarefree, so the search moves on to the
    # next point; under a spent budget it stops at the first one.
    ring = PolyRing(("u", "t"))
    u, t = ring.gens()
    with pytest.raises(GuardExceeded) as exc, Guards(timeout=0):
        _good_point(t**2 - u, "t", ["u"])
    assert exc.value.guard == "time"
    assert _good_point(t**2 - u, "t", ["u"]) == {"u": -1}
