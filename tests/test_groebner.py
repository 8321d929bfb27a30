"""Division, Buchberger, reduced bases, and the 200-instance property suite."""

import heapq
import random
from fractions import Fraction

import pytest

from flatcheck._kernels import (
    leading_exponent,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)
from flatcheck.errors import GuardExceeded
from flatcheck.groebner import (
    GroebnerBasis,
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
from flatcheck.orders import DEGREE_LIMIT, DEGREE_MASK, MonomialOrder
from flatcheck.rings import PolyRing, Polynomial, _primitive

from conftest import cut_at_line, nonzero_random_poly


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
    again = reduce_basis(qxy, [g.packed_form(LEX2) for g in gb], LEX2)
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
    # Its lead, its monic form and its printed terms all read packed keys.
    for use in (lambda: big.leading_term(LEX2), big.monic, lambda: str(big)):
        with pytest.raises(GuardExceeded) as exc:
            use()
        assert exc.value.guard == "exponent"


def test_tripped_block_leaves_no_guards_behind():
    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.gens()
    gens = [x**3 - y * z + 1, y**4 - x * z - 2, z**5 - x * y]
    with pytest.raises(GuardExceeded), Guards(max_pairs=1):
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
    assert [order.unpack(lead) for _, lead, _, _ in G[len(gens):]] == [
        (0, 2, 0, 0), (0, 1, 2, 0), (0, 1, 1, 2),
        (0, 1, 0, 4), (0, 0, 3, 2), (0, 0, 2, 4),
    ]


def _assert_monic_entry(ring, entry, order):
    """entry is the packed form of a monic polynomial: a primitive integer
    term map with a positive leading coefficient, as `buchberger` appends."""
    form, lead, lc, _ = entry
    monic = Polynomial(ring, {order.unpack(e): Fraction(c, lc) for e, c in form.items()})
    assert lc > 0 and entry == monic.packed_form(order)


@pytest.mark.parametrize("system", SYSTEMS, ids=SYSTEM_IDS)
def test_buchberger_appends_monic_elements(system):
    gens, order = system()
    G = buchberger(gens, order)
    assert G[: len(gens)] == [g.packed_form(order) for g in gens]
    for entry in G[len(gens):]:
        _assert_monic_entry(gens[0].ring, entry, order)


def _reference_buchberger(gens, order, use_coprime=True, use_chain=True):
    """buchberger with the chain criterion as a scan over every lead and a
    set of the popped pairs: the rule that the partner bitmasks replace.
    Every reduction searches the divisors afresh, with no memo."""
    table = [g.packed_form(order) for g in gens if not g.is_zero()]
    leads = [t[1] for t in table]
    exponents = [order.unpack(lead) for lead in leads]
    pairs = []
    for j in range(1, len(table)):
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
        if r[lead] < 0:
            r = {e: -c for e, c in r.items()}
        table.append((r, lead, r[lead], max(k & DEGREE_MASK for k in r)))
        leads.append(lead)
        exponents.append(order.unpack(lead))
        new = len(table) - 1
        for k in range(new):
            L = order.pack(monomial_lcm(exponents[k], exponents[new]))
            heapq.heappush(pairs, (L & DEGREE_MASK, k, new, L))
    return table


@pytest.mark.parametrize("system", SYSTEMS, ids=SYSTEM_IDS)
def test_partner_bitmasks_match_the_reference_chain_scan(system):
    gens, order = system()
    assert buchberger(gens, order) == _reference_buchberger(gens, order)


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

        # The criteria never change the reduced basis.
        for coprime, chain in ((False, False), (True, False), (False, True)):
            toggled = reduce_basis(
                ring, _reference_buchberger(gens, order, coprime, chain), order
            )
            assert list(toggled) == list(reference)

        # Mutual membership: <basis> = <gens>.
        basis = list(reference)
        for g in gens:
            assert normal_form(g, basis, order).is_zero()
        gb_of_gens = Ideal(ring, gens)
        for b in basis:
            assert gb_of_gens.contains(b)


def test_is_unit_agrees_with_membership_of_one():
    units = 0
    for ring, gens, _, _ in SUITE:
        I = Ideal(ring, gens)
        assert I.is_unit() == I.contains(ring.one())
        units += I.is_unit()
    assert 0 < units < len(SUITE)
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    zero = Ideal(ring)
    assert not zero.is_unit() and not zero.contains(ring.one())
    one = Ideal(ring, [x * y, x * y - 2])
    assert list(one.groebner()) == [ring.one()]
    assert one.is_unit() and one.contains(ring.one())


def test_property_suite_matches_the_reference_chain_scan():
    for _, gens, order, _ in SUITE:
        assert buchberger(gens, order) == _reference_buchberger(gens, order)


def test_property_suite_matches_sympy():
    """Test-only oracle: every reduced basis of the property suite, under
    lex and under degrevlex, equals sympy's (skipped without sympy)."""
    sympy = pytest.importorskip("sympy")
    checked = 0
    for ring, gens, _, _ in SUITE:
        symbols = sympy.symbols(ring.variables)
        exprs = [
            sympy.Poly.from_dict(
                {e: sympy.Rational(c.numerator, c.denominator) for e, c in g.terms.items()},
                *symbols,
            ).as_expr()
            for g in gens
        ]
        for order, name in (
            (MonomialOrder.lex(ring.nvars), "lex"),
            (MonomialOrder.degrevlex(ring.nvars), "grevlex"),
        ):
            expected = sympy.groebner(exprs, *symbols, order=name, domain=sympy.QQ)
            assert list(groebner_basis(gens, order)) == [
                Polynomial(ring, {e: Fraction(int(c.p), int(c.q)) for e, c in p.terms()})
                for p in expected.polys
            ]
            checked += 1
    assert checked == 400


# -- the first-divisor memo and the guards of the reduction loop -----------------


def _memo_cases():
    """(ring, buchberger's entries, order) for SYSTEMS and the property suite."""
    for system in SYSTEMS:
        gens, order = system()
        yield gens[0].ring, buchberger(gens, order), order
    for ring, gens, order, _ in SUITE:
        yield ring, buchberger(gens, order), order


class _CountingMemo(dict):
    """A first-divisor memo that counts the lookups it answers."""

    hits = 0

    def get(self, key, default=None):
        if key in self:
            self.hits += 1
        return super().get(key, default)


def test_shared_memo_over_a_growing_lead_list_matches_a_fresh_scan():
    """One memo, reused while the lead list grows by appends as in
    buchberger, gives each reduction the remainder and scale of a search
    from the first lead, and records only leads that do not divide."""
    hits = 0
    for _, entries, order in _memo_cases():
        guard = order.guard
        leads, memo = [], _CountingMemo()
        for k, entry in enumerate(entries):
            leads.append(entry[1])
            # The S-polynomials of the newest entry with up to four before it.
            for earlier in entries[max(0, k - 4):k]:
                L = order.pack(monomial_lcm(order.unpack(earlier[1]), order.unpack(entry[1])))
                s = _s_polynomial(earlier, entry, L)
                assert _reduce(dict(s), entries, leads, guard, memo=memo) == _reduce(
                    dict(s), entries, leads, guard
                )
        for monomial, resume in memo.items():
            assert all((monomial - lead) & guard for lead in leads[:resume])
        hits += memo.hits
    assert hits > 10_000


def _reference_reduce_basis(ring, basis, order):
    """reduce_basis with each minimal entry reduced by a fresh scan of all
    the others, table[:i] + table[i+1:]: the rule the prefix memo replaces."""
    table = []
    for entry in sorted(basis, key=lambda t: t[1]):
        if any(not (entry[1] - kept[1]) & order.guard for kept in table):
            continue
        table.append(entry)
    reduced = []
    for i, (form, _, _, _) in enumerate(table):
        others = table[:i] + table[i + 1:]
        r, _ = _reduce(dict(form), others, [t[1] for t in others], order.guard)
        lead = max(r)
        reduced.append((lead, _to_polynomial(ring, r, r[lead], order)))
    reduced.sort(key=lambda t: t[0], reverse=True)
    return GroebnerBasis(tuple(f for _, f in reduced), order)


def test_reduce_basis_prefix_memo_matches_a_scan_of_all_the_others():
    for ring, entries, order in _memo_cases():
        # The whole basis, and a first half that need not be a basis.
        for basis in (entries, entries[: (len(entries) + 1) // 2]):
            assert reduce_basis(ring, basis, order) == _reference_reduce_basis(
                ring, basis, order
            )


class _DegreeRecorder(Guards):
    """Guards that record the largest total degree polled."""

    def __post_init__(self):
        super().__post_init__()
        self.seen = 0

    def check_degree(self, degrees):
        degrees = list(degrees)
        self.seen = max(self.seen, max(degrees, default=0))
        super().check_degree(degrees)


def _degree(f):
    return max(map(sum, f.terms))


@pytest.mark.parametrize("system", SYSTEMS, ids=SYSTEM_IDS)
def test_degree_cap_is_polled_inside_the_reduction_loop(system):
    gens, order = system()
    reference = groebner_basis(gens, order)
    with _DegreeRecorder(max_degree=DEGREE_LIMIT) as recorder:
        assert groebner_basis(gens, order) == reference
    top = recorder.seen
    # Only what is left to divide in a reduction reaches the top degree.
    assert top > max(map(_degree, gens)) and top > max(map(_degree, reference))
    for cap in (top, top + 1, 10 * top):
        with Guards(max_degree=cap):
            assert groebner_basis(gens, order) == reference
    for cap in (top - 1, 1):
        with pytest.raises(GuardExceeded) as exc, Guards(max_degree=cap):
            groebner_basis(gens, order)
        assert exc.value.guard == "degree"
    # The cap of 1 trips within a reduction step.
    assert "_reduce" in [entry.name for entry in exc.traceback]


def test_time_guard_trips_in_the_middle_of_a_reduction():
    gens, order = _katsura3()
    entries = buchberger(gens, order)
    leads = [t[1] for t in entries]
    probe = nonzero_random_poly(gens[0].ring, random.Random(5), max_terms=6, max_deg=5)
    p = probe.packed_form(order)[0]
    fresh = _reduce(dict(p), entries, leads, order.guard)
    # A reduction cut at any line leaves the memo exact for the next one.
    memo = {}
    for k in (1, 2, 3, 5, 8, 20, 50, 120, 1000, 10000):
        with pytest.raises(GuardExceeded) as exc, cut_at_line(k):
            _reduce(dict(p), entries, leads, order.guard, memo=memo)
        assert exc.value.guard == "time"
        assert _reduce(dict(p), entries, leads, order.guard, memo=memo) == fresh


def _assert_seeded_caches(g, order):
    """g's integer form and packed form under order are seeded, and equal
    what the same terms compute from scratch; so does its leading term."""
    fresh = Polynomial(g.ring, dict(g.terms))
    key = order.descriptor
    assert g.terms == fresh.terms
    assert g._int is not None and key in g._packed
    assert g._int == fresh.integer_form()
    assert g._packed[key] == fresh.packed_form(order)
    assert g.leading_term(order) == fresh.leading_term(order)


def test_outputs_keep_their_integer_forms():
    """What the Groebner core returns carries the caches it already holds."""
    seeded = 0
    for ring, gens, order, sub in SUITE:
        rng = random.Random(sub + 2)
        for entry in buchberger(gens, order)[len(gens):]:
            _assert_monic_entry(ring, entry, order)
        basis = list(groebner_basis(gens, order))
        for g in basis:
            _assert_seeded_caches(g, order)
        # Rescaled terms: fractional coefficients and negative leads.
        divisors = [_rescale_terms(g, rng) for g in gens]
        f = _rescale_terms(nonzero_random_poly(ring, rng, max_terms=4, max_deg=4), rng)
        _, rem = division(f, divisors, order)
        for r in (rem, normal_form(f, divisors, order), normal_form(f, basis, order)):
            if not r.is_zero():
                _assert_seeded_caches(r, order)
        seeded += len(basis) + (not rem.is_zero())
    assert seeded > 200


def _reference_division(f, divisors, order):
    """Textbook division over Q in listed order: (cofactors, remainder).

    Leads come from the spec-walking kernel, not from packed keys."""
    p, remainder = dict(f.terms), {}
    quotients = [{} for _ in divisors]
    lms = [leading_exponent(g.terms, order.spec) for g in divisors]
    while p:
        lead = leading_exponent(p.keys(), order.spec)
        for i, (g, lm) in enumerate(zip(divisors, lms)):
            if lm is not None and monomial_divides(lm, lead):
                break
        else:
            remainder[lead] = p.pop(lead)
            continue
        m = monomial_div(lead, lm)
        q = quotients[i][m] = p[lead] / g.terms[lm]
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
