"""Gcd, squarefree decomposition, and factorization over Q(U)."""

import random

import pytest

from flatcheck.errors import GuardExceeded, Guards
from flatcheck.funcfield import (
    ff_factor,
    ff_gcd_in_t,
    ff_squarefree_decomposition,
    multivariate_gcd,
    primitive_part_in,
)
from flatcheck.rings import PolyRing


def _canon(f, var):
    """Primitive-in-var representative with positive-leading normalization."""
    p = primitive_part_in(f, var).monic()
    return p


def test_multivariate_gcd_basic():
    ring = PolyRing(("u", "t"))
    u, t = ring.gens()
    g = multivariate_gcd((t - u) * (t + u), (t - u) * t)
    assert _canon(g, "t") == _canon(t - u, "t")
    g2 = multivariate_gcd(u**2 * t - u**2 * 1, u * t**2 - u)
    assert _canon(g2, "t") == _canon(u * (t - 1), "t")


def test_gcd_of_coprime_is_unit():
    ring = PolyRing(("u", "t"))
    u, t = ring.gens()
    g = ff_gcd_in_t(t - u, t + u + 1, "t")
    assert g.degree_in("t") == 0


def test_squarefree_decomposition():
    ring = PolyRing(("u", "t"))
    u, t = ring.gens()
    f = (t - u) ** 2 * (t + 2 * u)
    parts = ff_squarefree_decomposition(f, "t")
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


def test_timeout_trips_inside_ff_factor():
    ring = PolyRing(("u", "t"))
    u, t = ring.gens()
    with pytest.raises(GuardExceeded) as exc, Guards(timeout=0):
        ff_factor(t**2 - u**2, "t", ["u"])
    assert exc.value.guard == "time"
