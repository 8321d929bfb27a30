"""Buchberger's algorithm, multivariate division, and reduced bases."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Tuple

from . import _kernels
from .errors import GuardExceeded, Guards, InvalidInput, VariableClash
from .orders import DEGREE_LIMIT, DEGREE_MASK
from .rings import Polynomial, _primitive


@dataclass(frozen=True)
class GroebnerBasis:
    generators: Tuple[Polynomial, ...]
    order: object

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)


def _same_ring(polys):
    rings = {f.ring for f in polys}
    if len(rings) > 1:
        raise VariableClash("polynomials from different rings")
    return rings.pop() if rings else None


def _reduce(p, table, leads, guard, quotients=None, memo=None):
    """Fraction-free remainder of the packed integer term map p (consumed).

    Divisor j is table[j] = (form, lead, lc, degree) as returned by
    Polynomial.packed_form, and leads[j] is its lead; only the divisors
    listed in leads are used, and of those the first whose lead divides
    the lead of p (the mask test with the order's `guard`).  A step
    cancels that lead by p <- a*p - b*x^m*form, with a = lc/d > 0,
    b = coeff/d and d = +-gcd(coeff, lc), and multiplies the running
    scale by a.  Returns (r, scale): a packed integer term map r, none of
    whose monomials a lead divides, with scale*p == r modulo the
    divisors.  With a list `quotients` (one dict per divisor), a step
    also records (b, scale) under the packed m in quotients[j]: the
    cofactor term b/scale*x^m.  Every step polls the active guards for
    time and, when a degree cap is set, for the degree of what is left
    to divide.

    `memo` maps a packed monomial to the index where the search for its
    first dividing lead resumes: the index of that lead once found, else
    the count of leads known not to divide it.  Either way no earlier
    lead divides it, so one memo stays exact over calls whose leads are
    prefixes of one list that only grows by appends; without one, every
    search starts at the first lead.
    """
    # Remainder terms with the scale at the step that set them aside;
    # scaling them up to the final scale once, at the end, costs one
    # product per term instead of one per term and step.
    aside = []
    scale = 1
    guards = Guards.current()
    check_time = guards.check_time
    capped = guards.max_degree is not None
    if memo is None:
        memo = {}
    n = len(leads)
    while p:
        check_time()
        lead = max(p)
        for j in range(memo.get(lead, 0), n):
            m = lead - leads[j]
            if not m & guard:
                break
        else:
            memo[lead] = n
            aside.append((lead, p.pop(lead), scale))
            continue
        memo[lead] = j
        form, _, lc, degree = table[j]
        if (m & DEGREE_MASK) + degree >= DEGREE_LIMIT:
            raise GuardExceeded("exponent", "total degree too large to pack")
        coeff = p[lead]
        d = gcd(coeff, lc)
        if lc < 0:
            d = -d
        a = lc // d
        b = coeff // d
        if a != 1:
            p = {e: a * c for e, c in p.items()}
            scale *= a
        if quotients is not None:
            # The leads strictly decrease, so m is new in quotients[j].
            quotients[j][m] = (b, scale)
        # p -= b * x^m * form; the lead cancels exactly.
        for e, gc in form.items():
            key = e + m
            s = p.get(key)
            if s is None:
                p[key] = -b * gc
            else:
                s -= b * gc
                if s:
                    p[key] = s
                else:
                    del p[key]
        if capped:
            guards.check_degree(k & DEGREE_MASK for k in p)
    return {e: c * (scale // at) for e, c, at in aside}, scale


def _to_polynomial(ring, r, w, order):
    """The Polynomial r / w, for a packed integer term map r and a non-zero w.

    r is divided by its content first, so that the Fractions are built
    from the smallest integers; the loop polls the time guard per term.
    Its caches hold what `integer_form` and `packed_form(order)` would
    compute from its terms (and `leading_term(order)` reads the latter):
    its integer form is the primitive r, negated when the scale g / w is
    negative.
    """
    r, g = _primitive(r)
    if not r:
        return Polynomial(ring, {})
    u = Fraction(g, w)
    num, den = u.numerator, u.denominator
    if num < 0:
        r = {e: -c for e, c in r.items()}
        num = -num
    check = Guards.current().check_time
    unpack = order.unpack
    terms = {}
    nums = {}
    for e, c in r.items():
        x = unpack(e)
        nums[x] = c
        terms[x] = Fraction(c * num) if den == 1 else Fraction(c * num, den)
        check()
    # The core's term maps hold no zero coefficient, and num > 0, so no
    # term of `terms` is zero.
    f = Polynomial(ring, terms, _nonzero=True)
    f._int = (nums, Fraction(den, num))
    lead = max(r)
    f._packed[order.descriptor] = (r, lead, r[lead], max(k & DEGREE_MASK for k in r))
    return f


def _divide(f, divisors, order, quotients=None):
    """Remainder of f on division by the listed divisors, as a Polynomial.

    With `quotients`, one dict per divisor, records each cofactor term
    as a Fraction there.
    """
    _same_ring([f, *divisors])
    nonzero = [(i, g) for i, g in enumerate(divisors) if not g.is_zero()]
    if not nonzero or f.is_zero():
        return f
    table = [g.packed_form(order) for _, g in nonzero]
    steps = None if quotients is None else [{} for _ in nonzero]
    r, scale = _reduce(
        dict(f.packed_form(order)[0]), table, [t[1] for t in table], order.guard, steps
    )
    k = f.integer_form()[1]
    if quotients is not None:
        unpack = order.unpack
        for (i, g), step in zip(nonzero, steps):
            # f = P/k and g = form/kg, so b/s*x^m*form is b*kg/(s*k)*x^m*g.
            ratio = g.integer_form()[1] / k
            quotients[i].update(
                {unpack(m): Fraction(b, s) * ratio for m, (b, s) in step.items()}
            )
    return _to_polynomial(f.ring, r, scale * k, order)


def division(f, divisors, order):
    """Multivariate division: returns (cofactors, remainder).

    f == sum(cofactors[i] * divisors[i]) + remainder, and no term of the
    remainder is divisible by any divisor's leading monomial.  Divisors
    are tried in listed order, so the result is deterministic.  Every
    step polls the active guards for time and for the degree of what is
    left to divide.
    """
    quotients = [{} for _ in divisors]
    remainder = _divide(f, divisors, order, quotients)
    return [Polynomial(f.ring, q) for q in quotients], remainder


def exact_quotient(f, g):
    """f / g, or None when g does not divide f.

    {g} is a Groebner basis of its own ideal, so g divides f iff the
    division of f by g, under the ring's default order, leaves no
    remainder; the cofactor is then the quotient.
    """
    (quotient,), remainder = division(f, [g], f.ring.default_order)
    return quotient if remainder.is_zero() else None


def exact_divide(f, g):
    """f / g, raising if g does not divide f."""
    if g.is_zero():
        raise InvalidInput("division by zero polynomial")
    quotient = exact_quotient(f, g)
    if quotient is None:
        raise InvalidInput("not an exact division")
    return quotient


def normal_form(f, divisors, order):
    """Remainder of f on division by the listed polynomials."""
    return _divide(f, divisors, order)


def _s_polynomial(f, g, L):
    """The S-polynomial of two packed integer forms, as a packed term map.

    f and g are (form, lead, lc, degree) entries as returned by
    Polynomial.packed_form, and L is the packed lcm of their leads.  The
    result is (lc_g/d)*x^(L-lead_f)*form_f - (lc_f/d)*x^(L-lead_g)*form_g
    with d = gcd(lc_f, lc_g): a non-zero multiple of the rational
    S-polynomial, whose leading terms cancel exactly.
    """
    form_f, lead_f, lc_f, degree_f = f
    form_g, lead_g, lc_g, degree_g = g
    mf = L - lead_f
    mg = L - lead_g
    if max((mf & DEGREE_MASK) + degree_f, (mg & DEGREE_MASK) + degree_g) >= DEGREE_LIMIT:
        raise GuardExceeded("exponent", "total degree too large to pack")
    d = gcd(lc_f, lc_g)
    a, b = lc_g // d, lc_f // d
    s = {e + mf: a * c for e, c in form_f.items()}
    for e, c in form_g.items():
        key = e + mg
        v = s.get(key)
        if v is None:
            s[key] = -b * c
        else:
            v -= b * c
            if v:
                s[key] = v
            else:
                del s[key]
    return s


def buchberger(gens, order):
    """A (non-reduced) Groebner basis of the ideal generated by gens.

    Returns the basis as (form, lead, lc, degree) entries, the shape of
    Polynomial.packed_form: first the packed forms of the non-zero gens,
    then each new element as a primitive integer term map with a
    positive leading coefficient (the integer form of a monic
    polynomial).  `reduce_basis` turns them into polynomials.

    Pair selection is the normal strategy.  Pairs wait in a heap keyed by
    the total degree of their lcm, each lcm computed once when its pair
    is made; ties go to the lower index pair (i, j).  A pair is skipped
    when its leads are coprime, or by the chain criterion.

    The chain criterion skips a pair (i, j) with lcm L when the lead of
    some third element k divides L and the pairs {i, k} and {j, k} have
    already been popped.  Each element keeps one int of popped partners:
    bit k of partners[i] is set when the pair {i, k} is popped.  The
    candidates k are then the set bits of partners[i] & partners[j],
    which never include i or j, and each takes one mask test.

    S-polynomials are formed and reduced over Z, keyed by packed
    monomials.  The lead list only grows by appends, so all reductions
    share one first-divisor memo (see `_reduce`).
    """
    guards = Guards.current()
    G = [g for g in gens if not g.is_zero()]
    _same_ring(G)
    pack, unpack, guard = order.pack, order.unpack, order.guard
    # Divisor table and packed leads, extended with each new element; the
    # leads as exponent tuples serve only to form the lcm of a new pair.
    table = [g.packed_form(order) for g in G]
    leads = [t[1] for t in table]
    exponents = [unpack(lead) for lead in leads]
    lcm = _kernels.monomial_lcm
    # Entries (lcm total degree, i, j, packed lcm): (i, j) is unique, so
    # the heap order is a total order and the lcms are never compared.
    pairs = []
    for j in range(1, len(G)):
        guards.check_time()
        for i in range(j):
            L = pack(lcm(exponents[i], exponents[j]))
            pairs.append((L & DEGREE_MASK, i, j, L))
    heapq.heapify(pairs)
    partners = [0] * len(G)
    processed = 0
    memo = {}

    while pairs:
        guards.check_time()
        _, i, j, L = heapq.heappop(pairs)
        partners[i] |= 1 << j
        partners[j] |= 1 << i
        processed += 1
        guards.check_pairs(processed)
        if L == leads[i] + leads[j]:
            continue
        common = partners[i] & partners[j]
        while common:
            low = common & -common
            if not (L - leads[low.bit_length() - 1]) & guard:
                break
            common ^= low
        if common:
            continue
        s = _s_polynomial(table[i], table[j], L)
        r, _ = _reduce(s, table, leads, guard, memo=memo)
        if not r:
            continue
        degree = max(k & DEGREE_MASK for k in r)
        guards.check_degree((degree,))
        r, _ = _primitive(r)
        lead = max(r)
        lc = r[lead]
        if lc < 0:
            r = {e: -c for e, c in r.items()}
            lc = -lc
        table.append((r, lead, lc, degree))
        leads.append(lead)
        exponents.append(unpack(lead))
        partners.append(0)
        new = len(table) - 1
        for k in range(new):
            guards.check_time()
            L = pack(lcm(exponents[k], exponents[new]))
            heapq.heappush(pairs, (L & DEGREE_MASK, k, new, L))
    return table


def reduce_basis(ring, basis, order):
    """The unique reduced basis, as monic polynomials of ring.

    basis holds (form, lead, lc, degree) entries as `buchberger` returns
    them.  The result is auto-reduced and sorted by leading monomial,
    largest first.

    The minimal entries are sorted by lead, and a monomial below lead i
    can only be divided by a smaller lead, so entry i is reduced against
    the prefix table[:i] alone: the same remainder as against all the
    other entries.  Every reduction thus searches a prefix of one lead
    list, so all of them share one first-divisor memo (see `_reduce`).
    """
    guard = order.guard
    # Minimalize: drop entries whose lead is divisible by another lead.
    # The sort is stable, so of equal leads the first listed one stays.
    table = []
    for entry in sorted(basis, key=lambda t: t[1]):
        if any(not (entry[1] - kept[1]) & guard for kept in table):
            continue
        table.append(entry)
    # Fully reduce each against the smaller ones.  No lead divides its
    # own lead, so that lead stays; the reduced element is the monic
    # remainder, whatever scale the integer forms carry.
    leads = [t[1] for t in table]
    memo = {}
    reduced = []
    for i, (form, lead, _, _) in enumerate(table):
        r, _ = _reduce(dict(form), table, leads[:i], guard, memo=memo)
        reduced.append(_to_polynomial(ring, r, r[lead], order))
    reduced.reverse()
    return GroebnerBasis(tuple(reduced), order)


def groebner_basis(gens, order):
    """Reduced Groebner basis of <gens> under order."""
    gens = [g for g in gens if not g.is_zero()]
    ring = _same_ring(gens)
    return reduce_basis(ring, buchberger(gens, order), order)
