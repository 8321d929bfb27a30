"""Gcd, squarefree decomposition, and factorization over Q(U)."""

import random
from fractions import Fraction

import pytest

from flatcheck import funcfield
from flatcheck.errors import GuardExceeded
from flatcheck.funcfield import (
    _specialisation,
    ff_factor,
    multivariate_gcd,
    primitive_part_in,
)
from flatcheck.rings import Polynomial, PolyRing

from conftest import cut_at_line


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
    want = multivariate_gcd(f, g)
    for k in (1, 50, 500):
        with pytest.raises(GuardExceeded) as exc, cut_at_line(k):
            multivariate_gcd(f, g)
        assert exc.value.guard == "time"
        assert multivariate_gcd(f, g) == want


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
    g = multivariate_gcd(t - u, t + u + 1)
    assert g.degree_in("t") == 0


def test_squarefree_decomposition():
    ring = PolyRing(("u", "t"))
    u, t = ring.gens()
    f = (t - u) ** 2 * (t + 2 * u)
    parts = ff_factor(f, "t")
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
    factors = ff_factor(t**2 - u**2, "t")
    got = sorted((str(_canon(p, "t")), m) for p, m in factors)
    assert got == sorted(
        [(str(_canon(t - u, "t")), 1), (str(_canon(t + u, "t")), 1)]
    )


def test_ff_factor_irreducibles_stay_whole():
    ring = PolyRing(("u", "v", "t"))
    u, v, t = ring.gens()
    for m in (t**2 - u, t**3 - u * v):
        factors = ff_factor(m, "t")
        assert len(factors) == 1 and factors[0][1] == 1
        assert _canon(factors[0][0], "t") == _canon(m, "t")


def test_ff_factor_nonmonic():
    ring = PolyRing(("u", "t"))
    u, t = ring.gens()
    m = (u * t - 1) * (t + u)
    factors = ff_factor(m, "t")
    got = sorted(str(_canon(p, "t")) for p, _ in factors)
    assert got == sorted([str(_canon(u * t - 1, "t")), str(_canon(t + u, "t"))])
    # The lead coefficient u vanishes at u = 0, so the lifting starts at
    # u = -1, not at u = 0, where the monic form stays squarefree; the
    # factor list is the same from either point.
    assert factors == [(u * t - 1, 1), (u + t, 1)]


def test_ff_factor_cusp_cubic_with_multiplicity():
    ring = PolyRing(("u", "x"))
    u, x = ring.gens()
    m = x**3 - 3 * u**2 * x + 2 * u**3  # (x - u)^2 (x + 2u)
    factors = ff_factor(m, "x")
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
        factors = ff_factor(m, "t")
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
        factors = ff_factor(m, "t")
        got = sorted((str(_canon(p, "t")), mult) for p, mult in factors)
        assert got == sorted((str(_canon(p, "t")), e) for p, e in zip(chosen, mults))
        assert [mult for _, mult in factors] == sorted(mults)


def test_timeout_trips_inside_ff_factor():
    ring = PolyRing(("u", "t"))
    u, t = ring.gens()
    want = ff_factor(t**2 - u**2, "t")
    for k in (1, 100, 1000, 10000):
        with pytest.raises(GuardExceeded) as exc, cut_at_line(k):
            ff_factor(t**2 - u**2, "t")
        assert exc.value.guard == "time"
        assert ff_factor(t**2 - u**2, "t") == want


def test_timeout_trips_inside_good_point_search():
    # t^2 - u(u+1)(u-1) is not squarefree at u = 0, 1, -1, so the walk
    # goes on to u = -2; a time trip at any line of the search ends it.
    ring = PolyRing(("u", "t"))
    u, t = ring.gens()
    m = t**2 - u * (u + 1) * (u - 1)
    for k in (1, 100, 1000):
        with pytest.raises(GuardExceeded) as exc, cut_at_line(k):
            _specialisation(m, "t")
        assert exc.value.guard == "time"
    point, factors = _specialisation(m, "t")
    assert point == {"u": -2} and len(factors) == 1


# -- irreducibility proofs ------------------------------------------------------


def test_certificate_proves_irreducible_specialisations():
    ring = PolyRing(("u", "v", "t"))
    u, v, t = ring.gens()
    # t^2 - u is not squarefree at u = 0; at u = -1, t^2 + 1 is irreducible.
    for m in (t**2 - u, u * t - v, t**3 - u * v - 2):
        assert ff_factor(m, "t") == [(m, 1)]
    # A reducible m has no irreducible specialisation where its degree stays.
    assert len(ff_factor(t**2 - u**2, "t")) == 2
    assert len(ff_factor((u * t - 1) * (t + u), "t")) == 2
    # t^2 - u - 1 is irreducible, but t^2 - 1, its value at u = 0, splits:
    # the lifting and recombination find no proper factor.
    assert ff_factor(t**2 - u - 1, "t") == [(t**2 - u - 1, 1)]
    # A square is nowhere squarefree: its squarefree part is walked.
    assert ff_factor((t**2 - u) ** 2, "t") == [(t**2 - u, 2)]


def test_specialisation_walks_only_the_variables_m_uses():
    # w is a variable of the ring but not of m, so the walk is over u
    # alone: u = 0 (t^2 not squarefree), then u = -1, where t^2 + 1 is
    # irreducible.  A walk over (u, w) would take (u, w) = (-1, -1) first.
    ring = PolyRing(("u", "w", "t"))
    u, w, t = ring.gens()
    point, factors = _specialisation(t**2 - u, "t")
    assert point == {"u": -1} and len(factors) == 1
    assert _specialisation((t - u) * (t + u), "t", 1) is None
    point, _ = _specialisation((t - u) * (t + u), "t", 2)
    assert point == {"u": -1}


def _random_factor(ring, rng):
    """A random polynomial of degree 1 or 2 in t over Z[u, v]."""
    u, v, t = ring.gens()
    f = t ** rng.randint(1, 2) * rng.choice([1, 1, u, v + 1])
    for e in range(f.degree_in("t")):
        for mono in (ring.one(), u, v, u * v):
            f = f + rng.randint(-2, 2) * mono * t**e
    return f


def test_certificate_leaves_factor_lists_unchanged(monkeypatch):
    # Irreducibles and products in Q[u, v][t], as the certificate and the
    # lifting from its point and factors see them, and as the full path
    # (squarefree part, its own walk, multiplicity count) does.
    rng = random.Random(41)
    ring = PolyRing(("u", "v", "t"))
    inputs = []
    for _ in range(24):
        m = ring.one()
        for _ in range(rng.randint(1, 2)):
            m = m * _random_factor(ring, rng)
        inputs.append(m)
    got = [ff_factor(m, "t") for m in inputs]
    monkeypatch.setattr(funcfield, "CERTIFY_POINTS", 0)
    assert got == [ff_factor(m, "t") for m in inputs]
    assert any(len(factors) > 1 for factors in got)
    assert any(len(factors) == 1 and factors[0][0].degree_in("t") > 1 for factors in got)


def test_recombination_divides_only_candidates_whose_values_divide(monkeypatch):
    # t^2 - u - 1 is irreducible, but its first good point u = 0 splits it
    # into t - 1 and t + 1, so the lifting runs and recombination tries
    # both lifted factors.  Their values at u = 1 do not divide t^2 - 2,
    # so neither reaches the exact division.
    ring = PolyRing(("u", "t"))
    u, t = ring.gens()
    m = t**2 - u - 1
    calls = {"exact_quotient": 0, "_bezout_family": 0}
    for name in calls:
        def counted(*args, _f=getattr(funcfield, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(funcfield, name, counted)
    assert ff_factor(m, "t") == [(m, 1)]
    assert calls == {"exact_quotient": 0, "_bezout_family": 1}
    # A true factor passes the value test and is divided out.
    factors = ff_factor((t**2 - u - 1) * (t - u), "t")
    assert sorted(str(_canon(p, "t")) for p, _ in factors) == sorted(
        [str(_canon(t**2 - u - 1, "t")), str(_canon(t - u, "t"))]
    )
