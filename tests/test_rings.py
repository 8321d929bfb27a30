"""Polynomial arithmetic, canonical forms, and variable maps."""

import random
from fractions import Fraction

import pytest

from flatcheck.errors import GuardExceeded, InvalidInput, VariableClash
from flatcheck.rings import PolyRing, Polynomial, VarMap

from conftest import random_poly


def test_add_inverse(qxy):
    x, y = qxy.gens()
    assert x + -x == qxy.zero()


def test_difference_of_squares(qxy):
    x, y = qxy.gens()
    assert (x + 1) * (x - 1) == x * x - 1


def test_square_of_binomial():
    ring = PolyRing(("y1", "y2", "x"))
    y1, y2, x = ring.gens()
    f = y2 * x - y1
    assert f * f == y2**2 * x**2 - 2 * y1 * y2 * x + y1**2


def test_normalize_merges_halves(qxy):
    x, _ = qxy.gens()
    f = x.scale(Fraction(1, 2)) + x.scale(Fraction(1, 2))
    assert Polynomial(f.ring, f.terms) == x


def test_zero_coefficient_dropped(qxy):
    x, y = qxy.gens()
    f = x.scale(0) + y
    assert f == y
    assert (0, 1) in f.terms and len(f.terms) == 1


def test_canonical_string_ordering(qxy):
    x, y = qxy.gens()
    f = y + x * x  # entered "out of order"
    assert str(f) == "x^2 + y"


def test_ring_mismatch_raises(qxy, qxyz):
    with pytest.raises(VariableClash):
        qxy.var("x") + qxyz.var("x")


def test_ring_axioms_random():
    rng = random.Random(17)
    ring = PolyRing(("x", "y", "z"))
    for _ in range(100):
        f = random_poly(ring, rng)
        g = random_poly(ring, rng)
        h = random_poly(ring, rng)
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert (f * g) * h == f * (g * h)


def test_pow_matches_repeated_mul(qxy):
    x, y = qxy.gens()
    f = x + 2 * y - 1
    assert f**0 == qxy.one()
    assert f**3 == f * f * f
    with pytest.raises(InvalidInput):
        f ** (-1)


def test_varmap_rename():
    src = PolyRing(("y1", "y2", "x"))
    dst = PolyRing(("y1", "y2", "x2"))
    y1, y2, x = src.gens()
    m = VarMap.rename(src, dst, {"x": "x2"})
    assert m(y2 * x - y1) == dst.var("y2") * dst.var("x2") - dst.var("y1")


def test_varmap_substitution_kills_cover_relation():
    src = PolyRing(("y1", "u"))
    dst = PolyRing(("u",))
    u = dst.var("u")
    m = VarMap(src, dst, {"y1": -3 * u**2, "u": u})
    f = src.var("y1") + 3 * src.var("u") ** 2
    assert m(f) == dst.zero()


def test_varmap_identity(qxy):
    x, y = qxy.gens()
    ident = VarMap.rename(qxy, qxy)
    f = 3 * x * y - y**2
    assert ident(f) == f


def test_varmap_is_homomorphism():
    rng = random.Random(23)
    src = PolyRing(("x", "y"))
    dst = PolyRing(("s", "t"))
    s, t = dst.gens()
    m = VarMap(src, dst, {"x": s + t, "y": s * t - 1})
    for _ in range(50):
        f = random_poly(src, rng)
        g = random_poly(src, rng)
        assert m(f + g) == m(f) + m(g)
        assert m(f * g) == m(f) * m(g)


def test_varmap_unmapped_variable():
    src = PolyRing(("x", "y"))
    dst = PolyRing(("x",))
    with pytest.raises(VariableClash):
        VarMap(src, dst, {"x": dst.var("x")})


def test_transport_by_name(qxy, qxyz):
    f = qxy.var("x") * qxy.var("y") + 1
    g = qxyz.transport(f)
    assert g.ring is qxyz
    assert str(g) == "x*y + 1"
    with pytest.raises(VariableClash):
        qxy.transport(qxyz.var("z"))


def test_exponent_overflow_guard(qxy):
    x, _ = qxy.gens()
    from flatcheck.rings import EXPONENT_LIMIT

    big = qxy.monomial((EXPONENT_LIMIT, 0))
    with pytest.raises(GuardExceeded) as exc:
        big * big
    assert exc.value.guard == "exponent"


def test_duplicate_variables_rejected():
    with pytest.raises(VariableClash):
        PolyRing(("x", "x"))


def test_rational_coefficient_rendering(qxy):
    x, _ = qxy.gens()
    f = x.scale(Fraction(3, 4)) - Fraction(1, 2)
    assert str(f) == "3/4*x - 1/2"
