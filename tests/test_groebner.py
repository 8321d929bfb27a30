"""Division, Buchberger, reduced bases, and the 200-instance property suite."""

import heapq
import random
from fractions import Fraction

import pytest

from flatcheck._kernels import monomial_div, monomial_divides, monomial_lcm, monomial_mul
from flatcheck.errors import GuardExceeded
from flatcheck.groebner import (
    Guards,
    _reduce,
    _s_polynomial,
    _to_polynomial,
    buchberger,
    division,
    groebner_basis,
    normal_form,
    reduce_basis,
)
from flatcheck.ideals import Ideal
from flatcheck.orders import DEGREE_MASK, MonomialOrder
from flatcheck.rings import PolyRing, Polynomial, _primitive

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


def _s_poly(f, g, order):
    """Buchberger's integer S-polynomial of f and g, as a Polynomial."""
    lmf, lmg = f.leading_term(order)[0], g.leading_term(order)[0]
    L = order.pack(monomial_lcm(lmf, lmg))
    s = _s_polynomial(f.packed_form(order), g.packed_form(order), L)
    return Polynomial(f.ring, {order.unpack(e): Fraction(c) for e, c in s.items()})


def _proportional(a, b):
    """a == c*b for some non-zero rational c."""
    return a.is_zero() == b.is_zero() and a.monic() == b.monic()


def test_s_polynomial_cases(qxy):
    x, y = qxy.gens()
    assert _s_poly(x, y, LEX2).is_zero()
    assert _proportional(_s_poly(x * x - y, x * y - 1, LEX2), -y * y + x)
    f = x * x - y
    assert _s_poly(f, f, LEX2).is_zero()
    # Fractional and negative leading coefficients: the rational
    # S-polynomial is -y^2/2 + x/3 in all three cases.
    g = 3 * x * y - 1
    expected = Fraction(-1, 2) * y * y + Fraction(1, 3) * x
    for h in (2 * x * x - y, -2 * x * x + y, Fraction(2, 5) * x * x - Fraction(1, 5) * y):
        assert _proportional(_s_poly(h, g, LEX2), expected)
    # The leading coefficients are divided by their gcd first.
    assert _s_poly(4 * x * x - y, 6 * x * y - 1, LEX2) == 2 * x - 3 * y * y


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


def test_degrees_past_the_packing_limit_trip_the_exponent_guard(qxy):
    x, y = qxy.gens()
    # An input of total degree 2^31 cannot be packed, even where no
    # reduction step would touch it.
    big = qxy.monomial((1, 2**31 - 1))
    with pytest.raises(GuardExceeded) as exc:
        normal_form(big, [x * x - 1], LEX2)
    assert exc.value.guard == "exponent"
    # Inputs below it, whose reduction step or S-polynomial would reach it.
    with pytest.raises(GuardExceeded) as exc:
        normal_form(qxy.monomial((2**31 - 1, 0)), [x - y * y], LEX2)
    assert exc.value.guard == "exponent"
    f = qxy.monomial((2**31 - 2, 1)) + 1
    with pytest.raises(GuardExceeded) as exc:
        buchberger([f, x * y * y + 1], LEX2)
    assert exc.value.guard == "exponent"


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


def _cyclic(n):
    ring = PolyRing(tuple(f"x{i}" for i in range(n)))
    v = ring.gens()
    gens = []
    for k in range(1, n):
        s = ring.zero()
        for i in range(n):
            t = ring.one()
            for j in range(k):
                t = t * v[(i + j) % n]
            s = s + t
        gens.append(s)
    prod = ring.one()
    for x in v:
        prod = prod * x
    return gens + [prod - 1], MonomialOrder.degrevlex(n)


def _katsura(n, order):
    ring = PolyRing(tuple(f"x{i}" for i in range(n + 1)))
    v = ring.gens()

    def u(i):
        return v[abs(i)] if abs(i) <= n else ring.zero()

    gens = []
    for m in range(n):
        s = ring.zero()
        for l in range(-n, n + 1):
            s = s + u(l) * u(m - l)
        gens.append(s - u(m))
    s = ring.zero()
    for l in range(-n, n + 1):
        s = s + u(l)
    return gens + [s - 1], order


def _cyclic4():
    return _cyclic(4)


def _katsura3():
    return _katsura(3, MonomialOrder.lex(4))


def _cyclic5():
    return _cyclic(5)


def _katsura4():
    return _katsura(4, MonomialOrder.degrevlex(5))


SYSTEMS = [_cyclic4, _katsura3, _cyclic5, _katsura4]
SYSTEM_IDS = ["cyclic-4-degrevlex", "katsura-3-lex", "cyclic-5-degrevlex", "katsura-4-degrevlex"]


@pytest.mark.parametrize(
    "system, pairs, size",
    [(_cyclic4, 45, 10), (_katsura3, 153, 18), (_cyclic5, 1035, 46), (_katsura4, 105, 15)],
    ids=SYSTEM_IDS,
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


@pytest.mark.parametrize("system", SYSTEMS, ids=SYSTEM_IDS)
def test_buchberger_appends_monic_elements(system):
    gens, order = system()
    G = buchberger(gens, order)
    assert G[: len(gens)] == gens
    assert all(g.leading_term(order)[1] == 1 for g in G[len(gens):])


def _reference_buchberger(gens, order, use_coprime=True, use_chain=True):
    """buchberger with the chain criterion as a scan over every lead and a
    set of the popped pairs: the rule that the partner bitmasks replace."""
    G = [g for g in gens if not g.is_zero()]
    if not G:
        return []
    table = [g.packed_form(order) for g in G]
    leads = [t[1] for t in table]
    exponents = [order.unpack(lead) for lead in leads]
    pairs = []
    for j in range(1, len(G)):
        for i in range(j):
            L = order.pack(monomial_lcm(exponents[i], exponents[j]))
            pairs.append((L & DEGREE_MASK, i, j, L))
    heapq.heapify(pairs)
    done = set()
    while pairs:
        _, i, j, L = heapq.heappop(pairs)
        done.add((i, j))
        if use_coprime and L == leads[i] + leads[j]:
            continue
        if use_chain and any(
            k != i and k != j and not (L - lead) & order.guard
            and (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done
            for k, lead in enumerate(leads)
        ):
            continue
        r, _ = _reduce(_s_polynomial(table[i], table[j], L), table, leads, order.guard)
        if not r:
            continue
        r, _ = _primitive(r)
        lead = max(r)
        G.append(_to_polynomial(G[0].ring, r, r[lead], order))
        table.append((r, lead, r[lead], max(k & DEGREE_MASK for k in r)))
        leads.append(lead)
        exponents.append(order.unpack(lead))
        new = len(G) - 1
        for k in range(new):
            L = order.pack(monomial_lcm(exponents[k], exponents[new]))
            heapq.heappush(pairs, (L & DEGREE_MASK, k, new, L))
    return G


TOGGLES = [(True, True), (True, False), (False, True), (False, False)]


@pytest.mark.parametrize("system", SYSTEMS, ids=SYSTEM_IDS)
def test_partner_bitmasks_match_the_reference_chain_scan(system):
    gens, order = system()
    for coprime, chain in TOGGLES:
        assert buchberger(gens, order, coprime, chain) == _reference_buchberger(
            gens, order, coprime, chain
        )


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
    for m in rem.terms:
        assert not any(monomial_divides(lm, m) for lm in lms)


def test_property_suite_full():
    """Reduced-basis uniqueness + criteria toggles across all 200 instances."""
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


def test_property_suite_matches_the_reference_chain_scan():
    for _, gens, order, _ in SUITE:
        for coprime, chain in TOGGLES:
            assert buchberger(gens, order, coprime, chain) == _reference_buchberger(
                gens, order, coprime, chain
            )


def _assert_seeded_caches(g, order):
    """g's integer form, packed form and leading term under order are
    seeded, and equal what the same terms compute from scratch."""
    fresh = Polynomial(g.ring, dict(g.terms))
    key = order.descriptor
    assert g._int is not None and key in g._packed and key in g._lt
    assert g._int == fresh.integer_form()
    assert g._packed[key] == fresh.packed_form(order)
    assert g._lt[key] == fresh.leading_term(order)


def test_outputs_keep_their_integer_forms():
    """What the Groebner core returns carries the caches it already holds."""
    seeded = 0
    for ring, gens, order, sub in SUITE:
        rng = random.Random(sub + 2)
        G = buchberger(gens, order)
        for g in G[len(gens):]:
            _assert_seeded_caches(g, order)
        for g in groebner_basis(gens, order):
            _assert_seeded_caches(g, order)
        # Rescaled terms: fractional coefficients and negative leads.
        divisors = [_rescale_terms(g, rng) for g in gens]
        f = _rescale_terms(nonzero_random_poly(ring, rng, max_terms=4, max_deg=4), rng)
        _, rem = division(f, divisors, order)
        for r in (rem, normal_form(f, divisors, order), normal_form(f, G, order)):
            if not r.is_zero():
                _assert_seeded_caches(r, order)
        seeded += len(G) - len(gens) + (not rem.is_zero())
    assert seeded > 200


def _reference_division(f, divisors, order):
    """Textbook division over Q in listed order: (cofactors, remainder)."""
    p, remainder = dict(f.terms), {}
    quotients = [{} for _ in divisors]
    while p:
        lead = order.leading(p.keys())
        for i, g in enumerate(divisors):
            if not g.is_zero() and monomial_divides(g.leading_term(order)[0], lead):
                break
        else:
            remainder[lead] = p.pop(lead)
            continue
        lm, lc = g.leading_term(order)
        m = monomial_div(lead, lm)
        q = quotients[i][m] = p[lead] / lc
        for e, c in g.terms.items():
            key = monomial_mul(e, m)
            v = p.get(key, 0) - q * c
            if v:
                p[key] = v
            else:
                del p[key]
    return [Polynomial(f.ring, q) for q in quotients], Polynomial(f.ring, remainder)


def _rescale_terms(f, rng):
    """f with each term multiplied by its own random rational +-p/q."""
    return Polynomial(f.ring, {
        e: c * Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))
        for e, c in f.terms.items()
    })


def test_fractional_coefficients_match_the_rational_reference():
    """Fraction-free division agrees with plain division over Q.

    The suite's generators and probes have integer coefficients; here every
    term is rescaled by a random +-p/q, so denominators must be cleared
    and leading coefficients are often negative.
    """
    negative_leads = 0
    for ring, gens, order, sub in SUITE:
        rng = random.Random(sub + 1)
        divisors = [_rescale_terms(g, rng) for g in gens]
        f = _rescale_terms(nonzero_random_poly(ring, rng, max_terms=4, max_deg=4), rng)
        negative_leads += sum(g.leading_term(order)[1] < 0 for g in divisors)
        cofs, rem = division(f, divisors, order)
        assert (cofs, rem) == _reference_division(f, divisors, order)
        assert normal_form(f, divisors, order) == rem
    assert negative_leads > 50


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
