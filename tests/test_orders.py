"""Monomial order axioms and the documented comparison cases."""

import random
from fractions import Fraction
from functools import cmp_to_key

import pytest

from flatcheck import orders, rings
from flatcheck._kernels import monomial_cmp, monomial_divides, monomial_mul
from flatcheck.errors import GuardExceeded
from flatcheck.ideals import Ideal
from flatcheck.orders import MonomialOrder
from flatcheck.rings import PolyRing, Polynomial

from conftest import cut_at_line


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
        MonomialOrder([("lex", (2,)), ("degrevlex", (3, 0)), ("lex", (1,))], 4),
        MonomialOrder.elimination([1, 3], 4),
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
    block = MonomialOrder(blocks, 4)
    assert MonomialOrder(tuple((k, list(ix)) for k, ix in blocks), 4) is block
    elim = MonomialOrder.elimination([3, 1], 4)
    assert MonomialOrder.elimination((1, 3), 4) is elim
    # The same blocks given directly are the same order.
    assert MonomialOrder([("degrevlex", (1, 3)), ("degrevlex", (0, 2))], 4) is elim
    assert MonomialOrder([("lex", range(3))], 3) is lex
    assert PolyRing(("a", "b", "c")).default_order is grevlex


def test_equal_layouts_share_one_basis():
    # Eliminating every variable, or none, leaves one degrevlex block:
    # the layout of degrevlex(4), so one order and one cache entry.
    grevlex = MonomialOrder.degrevlex(4)
    assert MonomialOrder.elimination(range(4), 4) is grevlex
    assert MonomialOrder.elimination((), 4) is grevlex
    ring = PolyRing(("a", "b", "c", "d"))
    a, b, c, d = ring.gens()
    I = Ideal(ring, [a * b - c, b * d - a**2])
    gb = I.groebner(MonomialOrder.elimination(range(4), 4))
    assert I.groebner(grevlex) is gb and list(I._cache) == [grevlex.descriptor]


def test_different_specs_give_different_orders():
    built = [
        MonomialOrder.lex(3),
        MonomialOrder.lex(4),
        MonomialOrder.degrevlex(3),
        MonomialOrder([("lex", (0,)), ("degrevlex", (1, 2))], 3),
        MonomialOrder([("lex", (1,)), ("degrevlex", (0, 2))], 3),
        MonomialOrder.elimination([1], 3),
        MonomialOrder.elimination([2], 3),
    ]
    assert len({id(order) for order in built}) == len(built)
    assert len({order.descriptor for order in built}) == len(built)


def _entries(nvars):
    return [order for order in orders._SHARED.values() if order.nvars == nvars]


def test_the_table_holds_one_order_per_layout():
    ring = PolyRing(tuple(f"v{i}" for i in range(29)))
    assert _entries(29) == [ring.default_order]
    assert MonomialOrder.degrevlex(29) is ring.default_order
    assert MonomialOrder.elimination([0], 29) is MonomialOrder.elimination((0,), 29)
    assert len(_entries(29)) == 2


def test_a_construction_cut_short_leaves_no_entry():
    # A time guard's alarm may land at any line of a construction.
    for k in (1, 10, 40, 100):
        with pytest.raises(GuardExceeded), cut_at_line(k):
            MonomialOrder.lex(31)
        assert _entries(31) == []
    order = MonomialOrder.lex(31)
    assert order._weights == _reference_weights(order.spec, 31)
    # A ring cut short enters no ring; its order is entered only once built.
    names = tuple(f"w{i}" for i in range(33))
    for k in (1, 10, 100, 200):
        with pytest.raises(GuardExceeded), cut_at_line(k):
            PolyRing(names)
        assert names not in rings._RINGS
        for order in _entries(33):
            assert order._weights == _reference_weights(order.spec, 33)
    assert PolyRing(names).default_order is MonomialOrder.degrevlex(33)


def _reference_weights(spec, nvars):
    """The weights set field by field, most significant field first."""
    fields = []
    for k, ix in spec:
        ix = tuple(ix)
        if k == "degrevlex":
            fields.extend(ix[:end] for end in range(len(ix), 0, -1))
        else:
            fields.extend((i,) for i in ix)
    fields.extend((i,) for i in range(nvars))
    fields.append(tuple(range(nvars)))
    weights = [0] * nvars
    for f, summed in enumerate(reversed(fields)):
        for i in summed:
            weights[i] |= 1 << orders.FIELD_BITS * f
    return tuple(weights)


def test_weights_match_a_field_by_field_build():
    rng = random.Random(11)
    for _ in range(200):
        nvars = rng.randint(1, 40)
        perm = rng.sample(range(nvars), nvars)
        spec, start = [], 0
        while start < nvars:
            size = rng.randint(1, nvars - start)
            spec.append((rng.choice(("lex", "degrevlex")), perm[start:start + size]))
            start += size
        order = MonomialOrder(spec, nvars)
        assert order._weights == _reference_weights(order.spec, nvars)
        guard = sum(1 << orders.FIELD_BITS * f - 1 for f in range(1, 2 * nvars + 2))
        assert order.guard == guard


def test_too_many_variables_are_refused_before_building():
    with pytest.raises(GuardExceeded) as exc:
        MonomialOrder.degrevlex(orders.MAX_VARS + 1)
    assert exc.value.guard == "exponent"
    assert _entries(orders.MAX_VARS + 1) == []


# -- packed keys ------------------------------------------------------------------

PACKED_ORDERS = [
    MonomialOrder.lex(4),
    MonomialOrder.degrevlex(4),
    MonomialOrder([("lex", (2,)), ("degrevlex", (3, 0)), ("lex", (1,))], 4),
    MonomialOrder.elimination([1, 3], 4),
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
