"""Monomial order axioms and the documented comparison cases."""

import random

from flatcheck._kernels import monomial_mul
from flatcheck.orders import MonomialOrder


def test_lex_first_exponent_wins():
    ord2 = MonomialOrder.lex(2)
    # x^2 vs x*y under lex with x > y
    assert ord2.compare((2, 0), (1, 1)) > 0


def test_reflexivity():
    for order in (MonomialOrder.lex(3), MonomialOrder.degrevlex(3)):
        assert order.compare((1, 2, 3), (1, 2, 3)) == 0


def test_degrevlex_equal_degree_case():
    # degrevlex x>y>z: xz vs y^2 (both degree 2) -> LESS
    order = MonomialOrder.degrevlex(3)
    assert order.compare((1, 0, 1), (0, 2, 0)) < 0


def test_orders_are_global():
    rng = random.Random(3)
    one = (0, 0, 0, 0)
    orders = [
        MonomialOrder.lex(4),
        MonomialOrder.degrevlex(4),
        MonomialOrder.elimination([1, 3], 4),
        MonomialOrder.elimination([0], 4, kind="lex"),
    ]
    for _ in range(1000):
        m = tuple(rng.randint(0, 5) for _ in range(4))
        if m == one:
            continue
        for order in orders:
            assert order.compare(one, m) < 0


def test_multiplicativity():
    rng = random.Random(5)
    orders = [
        MonomialOrder.lex(3),
        MonomialOrder.degrevlex(3),
        MonomialOrder.elimination([2], 3),
    ]
    for _ in range(400):
        a = tuple(rng.randint(0, 4) for _ in range(3))
        b = tuple(rng.randint(0, 4) for _ in range(3))
        c = tuple(rng.randint(0, 4) for _ in range(3))
        for order in orders:
            rel = order.compare(a, b)
            assert order.compare(monomial_mul(a, c), monomial_mul(b, c)) == rel


def test_elimination_block_dominates():
    # Any positive power of a dropped variable beats everything in the tail.
    order = MonomialOrder.elimination([0], 3)
    assert order.compare((1, 0, 0), (0, 9, 9)) > 0


def test_key_agrees_with_compare():
    rng = random.Random(9)
    for order in (MonomialOrder.lex(3), MonomialOrder.degrevlex(3)):
        mons = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(30)]
        by_key = sorted(mons, key=order.key)
        for a, b in zip(by_key, by_key[1:]):
            assert order.compare(a, b) <= 0


def test_descriptor_distinguishes_orders():
    assert MonomialOrder.lex(3).descriptor != MonomialOrder.degrevlex(3).descriptor
    assert (
        MonomialOrder.elimination([0], 3).descriptor
        != MonomialOrder.elimination([1], 3).descriptor
    )
