"""Ideal calculus: sum, intersection, quotient, saturation, elimination,
contraction, dimension, radical membership."""

import random
from itertools import combinations

import pytest

from flatcheck import primdec
from flatcheck.errors import GuardExceeded, InvalidInput, VariableClash
from flatcheck.ideals import (
    Ideal,
    contract_to_base,
    dimension,
    eliminate,
    ideal_sum,
    independent_set,
    intersect,
    quotient,
    saturate,
)
from flatcheck.primdec import _saturation_exponent
from flatcheck.groebner import groebner_basis
from flatcheck.orders import MonomialOrder
from flatcheck.rings import PolyRing

from conftest import nonzero_random_poly


def test_ideal_sum_basic(qxy):
    x, y = qxy.gens()
    S = ideal_sum(Ideal(qxy, [x]), Ideal(qxy, [y]))
    assert S.equals(Ideal(qxy, [x, y]))
    I = Ideal(qxy, [x * y - 1])
    assert ideal_sum(I, Ideal(qxy)).equals(I)


def test_ideal_sum_douady_pre_radical():
    ring = PolyRing(("y1", "y2", "x", "u"))
    y1, y2, x, u = ring.gens()
    F = Ideal(ring, [4 * y1**3 + 27 * y2**2, x**3 + y1 * x + y2])
    S = Ideal(ring, [y1 + 3 * u**2, y2 - 2 * u**3])
    total = ideal_sum(F, S)
    assert len(total.generators) == 4
    for g in list(F.generators) + list(S.generators):
        assert total.contains(g)


def test_intersections(qxy):
    x, y = qxy.gens()
    assert intersect(Ideal(qxy, [x]), Ideal(qxy, [y])).equals(Ideal(qxy, [x * y]))
    I = Ideal(qxy, [x + y, x * y])
    assert intersect(I, I).equals(I)
    assert intersect(Ideal(qxy, [x**2]), Ideal(qxy, [x * y])).equals(
        Ideal(qxy, [x**2 * y])
    )


def test_quotients(qxy):
    x, y = qxy.gens()
    assert quotient(Ideal(qxy, [x * y]), x).equals(Ideal(qxy, [y]))
    I = Ideal(qxy, [x**2 - y])
    assert quotient(I, qxy.one()).equals(I)
    assert quotient(Ideal(qxy, [x**2, x * y]), x).equals(Ideal(qxy, [x, y]))
    with pytest.raises(InvalidInput):
        quotient(I, qxy.zero())


def test_saturation(qxy):
    x, y = qxy.gens()
    I = Ideal(qxy, [x**2])
    S = saturate(I, x)
    assert S.is_unit() and _saturation_exponent(I, S, x) == 2
    I = Ideal(qxy, [x * y])
    S = saturate(I, x)
    assert S.equals(Ideal(qxy, [y])) and _saturation_exponent(I, S, x) == 1
    with pytest.raises(VariableClash):
        saturate(Ideal(qxy, [x * y]), PolyRing(("x", "z")).var("x"))


def test_saturation_cap_is_a_guard(qxy, monkeypatch):
    x, _ = qxy.gens()
    # The cap bounds the exponent search: <x^2> : x^inf = <1> needs s = 2,
    # and a cap of 1 tries only s = 0.
    monkeypatch.setattr(primdec, "SATURATION_STEPS", 1)
    I = Ideal(qxy, [x**2])
    with pytest.raises(GuardExceeded) as exc:
        _saturation_exponent(I, saturate(I, x), x)
    assert exc.value.guard == "saturation"


def test_saturation_blowup():
    ring = PolyRing(("y1", "y2", "x1", "x2"))
    y1, y2, x1, x2 = ring.gens()
    I = Ideal(ring, [y2 * x1 - y1, y2 * x2 - y1])
    S = saturate(I, y2)
    assert S.equals(Ideal(ring, [x1 - x2, y1 - y2 * x1]))


def test_saturation_stability(qxy):
    x, y = qxy.gens()
    rng = random.Random(4)
    for _ in range(10):
        I = Ideal(qxy, [nonzero_random_poly(qxy, rng, max_terms=2, max_deg=2)])
        f = nonzero_random_poly(qxy, rng, max_terms=2, max_deg=2)
        S = saturate(I, f)
        assert quotient(S, f).equals(S)


def _saturate_by_quotients(I, f):
    """Reference: iterate I : f^k until I : f^k = I : f^(k+1)."""
    current, exponent = I, 0
    while True:
        nxt = quotient(current, f)
        if current.contains_ideal(nxt):
            return current, exponent
        current, exponent = nxt, exponent + 1


@pytest.mark.parametrize("names", [("x", "y"), ("x", "y", "z")])
def test_saturation_matches_iterated_quotients(names):
    ring = PolyRing(names)
    rng = random.Random(len(names))
    exponents = set()
    for _ in range(10):
        f = nonzero_random_poly(ring, rng, max_terms=2, max_deg=1)
        # A power of f in one generator makes positive exponents likely.
        gens = [
            nonzero_random_poly(ring, rng, max_terms=2, max_deg=2) * f ** rng.randint(0, 2),
            nonzero_random_poly(ring, rng, max_terms=2, max_deg=2),
        ]
        I = Ideal(ring, gens[: rng.randint(1, 2)])
        S = saturate(I, f)
        e = _saturation_exponent(I, S, f)
        # The exponent search caches I's degrevlex basis; saturating again
        # starts from it and finds the same reduced basis.
        assert saturate(I, f).generators == S.generators
        expected, expected_e = _saturate_by_quotients(I, f)
        assert S.equals(expected)
        assert e == expected_e
        exponents.add(e)
    assert len(exponents) > 1


def test_eliminations(qxy):
    x, y = qxy.gens()
    E = eliminate(Ideal(qxy, [x - y]), {"x"})
    assert E.is_zero() and E.ring.variables == ("y",)
    I = Ideal(qxy, [x * y - 1])
    assert eliminate(I, set()) is I


def test_elimination_resultant_oracle():
    ring = PolyRing(("y1", "y2", "u"))
    y1, y2, u = ring.gens()
    E = eliminate(Ideal(ring, [y1 + 3 * u**2, y2 - 2 * u**3]), {"u"})
    small = E.ring
    target = Ideal(
        small, [4 * small.var("y1") ** 3 + 27 * small.var("y2") ** 2]
    )
    assert E.equals(target)


def test_eliminated_generators_are_members():
    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.gens()
    I = Ideal(ring, [x * y - z, x + y + z, x**2 - y])
    E = eliminate(I, {"x"})
    for g in E.generators:
        assert g.degree_in("y") >= 0  # lives in Q[y,z]
        assert I.contains(ring.transport(g))


def test_contract_to_base():
    big = PolyRing(("y1", "y2", "x", "u"))
    base = PolyRing(("y1", "y2"))
    y1, y2, x, u = big.gens()
    P = Ideal(big, [y1, y2, x - u])
    c = contract_to_base(P, base)
    assert c.equals(Ideal(base, [base.var("y1"), base.var("y2")]))
    cover_ring = PolyRing(("y1", "y2", "u"))
    cy1, cy2, cu = cover_ring.gens()
    P2 = Ideal(cover_ring, [cy1 + 3 * cu**2, cy2 - 2 * cu**3])
    c2 = contract_to_base(P2, base)
    assert c2.equals(Ideal(base, [4 * base.var("y1") ** 3 + 27 * base.var("y2") ** 2]))
    with pytest.raises(VariableClash):
        contract_to_base(P, PolyRing(("w",)))


def test_dimensions():
    ring = PolyRing(("y1", "y2"))
    y1, y2 = ring.gens()
    assert dimension(Ideal(ring)) == 2
    assert dimension(Ideal(ring, [4 * y1**3 + 27 * y2**2])) == 1
    xy = PolyRing(("x", "y"))
    assert dimension(Ideal(xy, [xy.var("x"), xy.var("y")])) == 0
    assert dimension(Ideal(xy, [xy.one()])) == -1


def test_dimension_matches_bruteforce_on_monomial_ideals():
    rng = random.Random(31)
    for _ in range(20):
        nvars = rng.randint(2, 5)
        ring = PolyRing(tuple(f"v{i}" for i in range(nvars)))
        lms = []
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(0, 2) for _ in range(nvars))
            if any(exps):
                lms.append(exps)
        if not lms:
            continue
        I = Ideal(ring, [ring.monomial(e) for e in lms])
        # exhaustive independent-set search on the monomial generators
        first = None
        for size in range(nvars, -1, -1):
            for subset in combinations(range(nvars), size):
                s = set(subset)
                if all(any(e and i not in s for i, e in enumerate(lm)) for lm in lms):
                    first = subset
                    break
            if first is not None:
                break
        assert dimension(I) == len(first)
        assert independent_set(I) == tuple(ring.variables[i] for i in first)


def test_radical_membership(qxy):
    x, y = qxy.gens()
    assert saturate(Ideal(qxy, [x**2]), x).is_unit()
    assert not saturate(Ideal(qxy, [x]), y).is_unit()
    assert saturate(Ideal(qxy, [(x + 1) ** 3]), x + 1).is_unit()


def test_radical_membership_agrees_with_power_search(qxy):
    rng = random.Random(41)
    for _ in range(25):
        f = nonzero_random_poly(qxy, rng, max_terms=2, max_deg=2, max_coeff=3)
        I = Ideal(qxy, [nonzero_random_poly(qxy, rng, max_terms=2, max_deg=2, max_coeff=3)])
        brute = any(I.contains(f**k) for k in range(1, 7))
        fast = saturate(I, f).is_unit()
        if brute:
            assert fast
        elif not fast:
            # agreement in the negative direction too (power search is only
            # a lower bound for membership, so check small powers are out)
            assert not I.contains(f**6)


def test_intersection_subset_property(qxy):
    rng = random.Random(51)
    for _ in range(10):
        I = Ideal(qxy, [nonzero_random_poly(qxy, rng, max_terms=2, max_deg=2)])
        J = Ideal(qxy, [nonzero_random_poly(qxy, rng, max_terms=2, max_deg=2)])
        K = intersect(I, J)
        assert I.contains_ideal(K)
        assert J.contains_ideal(K)
        # (I : f) * f <= I
        f = nonzero_random_poly(qxy, rng, max_terms=2, max_deg=2)
        Q = quotient(I, f)
        for g in Q.generators:
            assert I.contains(g * f)


def _assert_cache_holds_reduced_bases(I):
    """Every basis cached on I is the reduced basis of I's generators under
    its own order, filed under that order's descriptor."""
    for key, gb in I._cache.items():
        assert gb.order.descriptor == key
        assert gb == groebner_basis(I.generators, gb.order)


def test_seeded_bases_equal_the_bases_of_the_generators():
    ring = PolyRing(("x", "y", "z"))
    block = MonomialOrder.elimination([0], 3)
    lex = MonomialOrder.lex(3)
    rng = random.Random(27)
    seeded = 0
    for trial in range(24):
        gens = [nonzero_random_poly(ring, rng, max_terms=3, max_deg=2)
                for _ in range(rng.randint(1, 3))]
        I = Ideal(ring, gens)
        # No basis cached, the degrevlex one, or only a lex or block one:
        # the elimination then runs in a t block followed by that order.
        cached = (None, ring.default_order, lex, block)[trial % 4]
        if cached is not None:
            I.groebner(cached)
        f = nonzero_random_poly(ring, rng, max_terms=2, max_deg=1)
        J = Ideal(ring, [nonzero_random_poly(ring, rng, max_terms=2, max_deg=2)])
        results = [
            intersect(I, J),
            quotient(I, f),
            saturate(I, f),
            eliminate(I, {"x"}),
            contract_to_base(I, PolyRing(("y", "z"))),
        ]
        for R in results:
            assert R._cache
            _assert_cache_holds_reduced_bases(R)
            seeded += len(R._cache)
        # Seeding never changes the ideal an operation returns.
        fresh = Ideal(ring, gens)
        assert results[0].equals(intersect(fresh, J))
        assert results[1].equals(quotient(fresh, f))
        assert results[2].equals(saturate(fresh, f))
        # A base ring listing the kept variables in another order gets no
        # basis of the big ring's order.
        swapped = contract_to_base(I, PolyRing(("z", "y")))
        _assert_cache_holds_reduced_bases(swapped)
        assert swapped.equals(
            Ideal(swapped.ring, [swapped.ring.transport(g) for g in results[4].generators])
        )
    assert seeded >= 5 * 24
