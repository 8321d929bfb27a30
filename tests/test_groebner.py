"""Division, Buchberger, reduced bases, and the 200-instance property suite."""

import random
from fractions import Fraction

import pytest

from flatcheck.errors import GuardExceeded, InvalidInput
from flatcheck.groebner import (
    Guards,
    buchberger,
    division,
    groebner_basis,
    normal_form,
    reduce_basis,
    s_polynomial,
)
from flatcheck.ideals import Ideal
from flatcheck.orders import MonomialOrder
from flatcheck.rings import PolyRing

from conftest import nonzero_random_poly


LEX2 = MonomialOrder.lex(2)


def test_nf_divisor_kills(qxy):
    x, _ = qxy.gens()
    assert normal_form(x * x, [x], LEX2).is_zero()


def test_nf_empty_basis(qxy):
    x, y = qxy.gens()
    f = x * y - 3
    assert normal_form(f, [], LEX2) == f


def test_nf_substitution(qxy):
    x, y = qxy.gens()
    assert normal_form(x * x + y, [x - y], LEX2) == y * y + y


def test_nf_cofactors_reassemble(qxy):
    x, y = qxy.gens()
    f = x**3 * y - 2 * x + 5
    divisors = [x * y - 1, x - y]
    cofs, rem = division(f, divisors, LEX2)
    recon = rem
    for c, d in zip(cofs, divisors):
        recon = recon + c * d
    assert recon == f


def test_s_polynomial_cases(qxy):
    x, y = qxy.gens()
    assert s_polynomial(x, y, LEX2).is_zero()
    assert s_polynomial(x * x - y, x * y - 1, LEX2) == -y * y + x
    f = x * x - y
    assert s_polynomial(f, f, LEX2).is_zero()
    with pytest.raises(InvalidInput):
        s_polynomial(qxy.zero(), x, LEX2)


def test_buchberger_sum_difference(qxy):
    x, y = qxy.gens()
    gb = groebner_basis([x - y, x + y], LEX2)
    assert sorted(map(str, gb)) == ["x", "y"]


def test_buchberger_classic_pair(qxy):
    x, y = qxy.gens()
    gb = groebner_basis([x * x - 1, x * y - 1], LEX2)
    assert sorted(map(str, gb)) == ["x - y", "y^2 - 1"]


def test_buchberger_empty():
    ring = PolyRing(("x",))
    gb = groebner_basis([], MonomialOrder.lex(1))
    assert list(gb) == []


def test_reduce_basis_cases(qxy):
    x, y = qxy.gens()
    gb = groebner_basis([x, x + y], LEX2)
    assert sorted(map(str, gb)) == ["x", "y"]
    # idempotence
    again = reduce_basis(list(gb), LEX2)
    assert list(again) == list(gb)
    # monic normalization
    gb2 = groebner_basis([2 * x], LEX2)
    assert list(map(str, gb2)) == ["x"]


def test_membership_cases(qxy):
    x, y = qxy.gens()
    assert Ideal(qxy, [x - y, y]).contains(x)
    assert not Ideal(qxy, [x]).contains(qxy.one())


def test_membership_cover_discriminant():
    ring = PolyRing(("y1", "y2", "u"))
    y1, y2, u = ring.gens()
    I = Ideal(ring, [y1 + 3 * u**2, y2 - 2 * u**3])
    assert I.contains(4 * y1**3 + 27 * y2**2)


def test_guards_trip():
    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.gens()
    gens = [x**3 - y * z + 1, y**4 - x * z - 2, z**5 - x * y]
    with pytest.raises(GuardExceeded) as exc, Guards(max_pairs=1):
        groebner_basis(gens, ring.default_order)
    assert exc.value.guard == "pairs"
    ring2 = PolyRing(("x", "y"))
    x2, y2 = ring2.gens()
    with pytest.raises(GuardExceeded) as exc, Guards(max_degree=1):
        groebner_basis([x2**2 + y2**2 - 1, x2 * y2 - 1], ring2.default_order)
    assert exc.value.guard == "degree"
    with pytest.raises(GuardExceeded) as exc, Guards(timeout=0.0):
        groebner_basis(gens, ring.default_order)
    assert exc.value.guard == "time"


def test_tripped_block_leaves_no_guards_behind():
    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.gens()
    gens = [x**3 - y * z + 1, y**4 - x * z - 2, z**5 - x * y]
    with pytest.raises(GuardExceeded), Guards(timeout=0.0):
        groebner_basis(gens, ring.default_order)
    assert Guards.current() == Guards()
    assert len(groebner_basis(gens, ring.default_order)) > 0


def test_nested_guards_restore_the_outer_ones():
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    outer = Guards(max_pairs=1000)
    with outer:
        with pytest.raises(GuardExceeded) as exc, Guards(max_degree=1):
            groebner_basis([x**2 + y**2 - 1, x * y - 1], ring.default_order)
        assert exc.value.guard == "degree"
        assert Guards.current() is outer
        assert len(groebner_basis([x**2 + y**2 - 1, x * y - 1], ring.default_order)) > 0
    assert Guards.current() == Guards()


def _cyclic4():
    ring = PolyRing(("x0", "x1", "x2", "x3"))
    a, b, c, d = ring.gens()
    gens = [
        a + b + c + d,
        a * b + b * c + c * d + d * a,
        a * b * c + b * c * d + c * d * a + d * a * b,
        a * b * c * d - 1,
    ]
    return gens, MonomialOrder.degrevlex(4)


def _katsura3():
    ring = PolyRing(("x0", "x1", "x2", "x3"))
    a, b, c, d = ring.gens()
    gens = [
        a**2 + 2 * b**2 + 2 * c**2 + 2 * d**2 - a,
        2 * a * b + 2 * b * c + 2 * c * d - b,
        2 * a * c + 2 * b * d + b**2 - c,
        a + 2 * b + 2 * c + 2 * d - 1,
    ]
    return gens, MonomialOrder.lex(4)


@pytest.mark.parametrize(
    "system, pairs, size",
    [(_cyclic4, 45, 10), (_katsura3, 153, 18)],
    ids=["cyclic-4-degrevlex", "katsura-3-lex"],
)
def test_pair_selection_order_is_pinned(system, pairs, size):
    """The normal strategy completes after exactly these many pairs.

    A different pair key changes which S-polynomials are reduced before
    the basis is complete, and with them this count.
    """
    gens, order = system()
    with Guards(max_pairs=pairs):
        G = buchberger(gens, order)
    assert len(G) == size
    with pytest.raises(GuardExceeded) as exc, Guards(max_pairs=pairs - 1):
        buchberger(gens, order)
    assert exc.value.guard == "pairs"


def test_pair_ties_go_to_the_lower_index():
    # Ties in lcm degree are broken by (i, j); breaking them the other way
    # appends x1*x3^4 and x2^3*x3^2 in the opposite order.
    gens, order = _cyclic4()
    G = buchberger(gens, order)
    assert [g.leading_term(order)[0] for g in G[len(gens):]] == [
        (0, 2, 0, 0), (0, 1, 2, 0), (0, 1, 1, 2),
        (0, 1, 0, 4), (0, 0, 3, 2), (0, 0, 2, 4),
    ]


# -- the >= 200-instance property suite ------------------------------------------


def _instances(count, seed):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        nvars = rng.randint(1, 3)
        ring = PolyRing(tuple("xyz"[:nvars]))
        gens = [
            nonzero_random_poly(ring, rng, max_terms=3, max_deg=3, max_coeff=4)
            for _ in range(rng.randint(1, 3))
        ]
        order = (
            MonomialOrder.lex(nvars)
            if rng.random() < 0.5
            else MonomialOrder.degrevlex(nvars)
        )
        out.append((ring, gens, order, rng.randrange(1 << 30)))
    return out


SUITE = _instances(200, seed=20240817)


@pytest.mark.parametrize("case", range(0, 200, 8))
def test_nf_cofactor_soundness(case):
    ring, gens, order, sub = SUITE[case]
    rng = random.Random(sub)
    f = nonzero_random_poly(ring, rng, max_terms=4, max_deg=4)
    cofs, rem = division(f, gens, order)
    recon = rem
    for c, g in zip(cofs, gens):
        recon = recon + c * g
    assert recon == f
    lms = [g.leading_term(order)[0] for g in gens]
    from flatcheck._kernels import monomial_divides

    for m in rem.terms:
        assert not any(monomial_divides(lm, m) for lm in lms)


def test_property_suite_full():
    """Reduced-basis uniqueness + criteria toggles across all 200 instances."""
    from flatcheck._kernels import monomial_divides

    for ring, gens, order, sub in SUITE:
        rng = random.Random(sub)
        reference = groebner_basis(gens, order)

        # NF soundness for one random probe polynomial.
        f = nonzero_random_poly(ring, rng, max_terms=4, max_deg=4)
        cofs, rem = division(f, gens, order)
        recon = rem
        for c, g in zip(cofs, gens):
            recon = recon + c * g
        assert recon == f

        # Shuffle + rescale generators: identical reduced basis.
        shuffled = list(gens)
        rng.shuffle(shuffled)
        shuffled = [g.scale(Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))) for g in shuffled]
        assert list(groebner_basis(shuffled, order)) == list(reference)

        # Criteria toggles never change the reduced basis.
        for coprime, chain in ((False, False), (True, False), (False, True)):
            toggled = reduce_basis(
                buchberger(gens, order, use_coprime=coprime, use_chain=chain), order
            )
            assert list(toggled) == list(reference)

        # Mutual membership: <basis> = <gens>.
        basis = list(reference)
        for g in gens:
            assert normal_form(g, basis, order).is_zero()
        gb_of_gens = Ideal(ring, gens)
        for b in basis:
            assert gb_of_gens.contains(b)


def test_nf_zero_iff_member_bruteforce():
    """NF = 0 against a GB agrees with brute-force cofactor search."""
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    rng = random.Random(99)
    for _ in range(30):
        gens = [nonzero_random_poly(ring, rng, max_terms=2, max_deg=2, max_coeff=3)]
        order = MonomialOrder.degrevlex(2)
        basis = list(groebner_basis(gens, order))
        # members built explicitly are detected
        cof = nonzero_random_poly(ring, rng, max_terms=2, max_deg=2, max_coeff=3)
        assert normal_form(cof * gens[0], basis, order).is_zero()
        # 1 is a member only of the unit ideal
        is_unit = normal_form(ring.one(), basis, order).is_zero()
        assert is_unit == any(g.is_constant() for g in basis)
