"""Monomial order axioms and the documented comparison cases."""

import gc
import random
from fractions import Fraction
from functools import cmp_to_key

import pytest

from flatcheck import orders
from flatcheck._kernels import monomial_cmp, monomial_divides, monomial_mul
from flatcheck.errors import GuardExceeded, Guards
from flatcheck.orders import MonomialOrder
from flatcheck.rings import PolyRing, Polynomial


def _sign(order, a, b):
    """-1, 0 or 1 as a <, =, > b by their packed keys."""
    diff = order.pack(a) - order.pack(b)
    return (diff > 0) - (diff < 0)


def test_lex_first_exponent_wins():
    ord2 = MonomialOrder.lex(2)
    # x^2 vs x*y under lex with x > y
    assert _sign(ord2, (2, 0), (1, 1)) > 0


def test_reflexivity():
    rng = random.Random(7)
    for order in (MonomialOrder.lex(3), MonomialOrder.degrevlex(3)):
        assert _sign(order, (1, 2, 3), (1, 2, 3)) == 0
        # ... and only equal vectors compare equal.
        for _ in range(300):
            a = tuple(rng.randint(0, 3) for _ in range(3))
            b = tuple(rng.randint(0, 3) for _ in range(3))
            assert (_sign(order, a, b) == 0) == (a == b)


def test_degrevlex_equal_degree_case():
    # degrevlex x>y>z: xz vs y^2 (both degree 2) -> LESS
    order = MonomialOrder.degrevlex(3)
    assert _sign(order, (1, 0, 1), (0, 2, 0)) < 0


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
            assert _sign(order, one, m) < 0


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
            rel = _sign(order, a, b)
            assert _sign(order, monomial_mul(a, c), monomial_mul(b, c)) == rel


def test_elimination_block_dominates():
    # Any positive power of a dropped variable beats everything in the tail.
    order = MonomialOrder.elimination([0], 3)
    assert _sign(order, (1, 0, 0), (0, 9, 9)) > 0


def test_sorted_terms_follow_the_order():
    rng = random.Random(9)
    ring = PolyRing(("x", "y", "z"))
    for order in (
        MonomialOrder.lex(3),
        MonomialOrder.degrevlex(3),
        MonomialOrder.elimination([1], 3),
    ):
        for _ in range(20):
            mons = {tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(30)}
            f = Polynomial(ring, {m: Fraction(rng.randint(1, 9)) for m in mons})
            expected = sorted(
                mons, key=cmp_to_key(lambda a, b: monomial_cmp(a, b, order.spec)),
                reverse=True,
            )
            terms = [(e, f.terms[e]) for e in expected]
            assert f.sorted_terms(order) == terms
            assert f.leading_term(order) == terms[0]


def test_descriptor_distinguishes_orders():
    assert MonomialOrder.lex(3).descriptor != MonomialOrder.degrevlex(3).descriptor
    assert (
        MonomialOrder.elimination([0], 3).descriptor
        != MonomialOrder.elimination([1], 3).descriptor
    )


# -- shared instances -------------------------------------------------------------


def test_equal_specs_share_one_order():
    lex, grevlex = MonomialOrder.lex(3), MonomialOrder.degrevlex(3)
    assert MonomialOrder.lex(3) is lex
    assert MonomialOrder.degrevlex(3) is grevlex
    blocks = [("lex", (2,)), ("degrevlex", (3, 0)), ("lex", (1,))]
    block = MonomialOrder.block(blocks, 4)
    assert MonomialOrder.block(tuple((k, list(ix)) for k, ix in blocks), 4) is block
    elim = MonomialOrder.elimination([3, 1], 4)
    assert MonomialOrder.elimination((1, 3), 4) is elim
    # The same blocks through block() are the same order.
    assert MonomialOrder.block([("degrevlex", (1, 3)), ("degrevlex", (0, 2))], 4) is elim
    assert PolyRing(("a", "b", "c")).default_order is grevlex


def test_different_specs_give_different_orders():
    built = [
        MonomialOrder.lex(3),
        MonomialOrder.lex(4),
        MonomialOrder.degrevlex(3),
        MonomialOrder.block([("lex", (0, 1, 2))], 3),
        MonomialOrder.elimination([1], 3),
        MonomialOrder.elimination([2], 3),
        MonomialOrder.elimination([1], 3, kind="lex"),
    ]
    assert len({id(order) for order in built}) == len(built)


def _live(nvars):
    return [order for order in orders._SHARED.values() if order.nvars == nvars]


def test_shared_orders_die_with_their_last_user():
    ring = PolyRing(tuple(f"v{i}" for i in range(29)))
    order = MonomialOrder.degrevlex(29)
    assert _live(29) == [ring.default_order] and order is ring.default_order
    del ring
    gc.collect()
    assert _live(29) == [order]
    del order
    gc.collect()
    assert _live(29) == []


def test_a_construction_cut_short_leaves_no_entry():
    with pytest.raises(GuardExceeded) as exc, Guards(timeout=0.0):
        MonomialOrder.lex(31)
    assert exc.value.guard == "time"
    gc.collect()
    assert _live(31) == []
    assert MonomialOrder.lex(31).nvars == 31


# -- packed keys ------------------------------------------------------------------

PACKED_ORDERS = [
    MonomialOrder.lex(4),
    MonomialOrder.degrevlex(4),
    MonomialOrder.block([("lex", (2,)), ("degrevlex", (3, 0)), ("lex", (1,))], 4),
    MonomialOrder.elimination([1, 3], 4),
    MonomialOrder.elimination([0], 4, kind="lex"),
]


def _vectors(seed, count=300):
    """Exponent vectors with many zeros and repeats, so ties occur, and
    some entries of 2^27, so that fields run far past small values; sums,
    and sums of two, stay below the packing limit."""
    rng = random.Random(seed)
    values = (0, 0, 0, 1, 2, 3, 2**27)
    return [tuple(rng.choice(values) for _ in range(4)) for _ in range(count)]


def _pairs(seed):
    vectors = _vectors(seed)
    rng = random.Random(seed + 1)
    return [(a, rng.choice(vectors if rng.random() < 0.9 else [a])) for a in vectors]


def test_pack_round_trips_and_multiplies():
    for order in PACKED_ORDERS:
        for a, b in _pairs(11):
            assert order.unpack(order.pack(a)) == a
            assert order.pack(a) + order.pack(b) == order.pack(monomial_mul(a, b))


def test_packed_keys_compare_like_the_order():
    ties = 0
    for order in PACKED_ORDERS:
        for a, b in _pairs(13):
            assert _sign(order, a, b) == monomial_cmp(a, b, order.spec)
            ties += a == b
    assert ties > 0


def test_mask_test_agrees_with_divisibility():
    divisible = 0
    for order in PACKED_ORDERS:
        for a, b in _pairs(17):
            for x, y in ((a, b), (b, a), (a, monomial_mul(a, b))):
                expected = monomial_divides(x, y)
                assert (not (order.pack(y) - order.pack(x)) & order.guard) == expected
                divisible += expected
    assert divisible > 0
