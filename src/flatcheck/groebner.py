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


def _reduce(p, table, leads, guard, quotients=None):
    """Fraction-free remainder of the packed integer term map p (consumed).

    Divisor j is table[j] = (form, lead, lc, degree) as returned by
    Polynomial.packed_form, and leads[j] is its lead; the first divisor
    whose lead divides the lead of p (the mask test with the order's
    `guard`) is used.  A step cancels that lead by p <- a*p - b*x^m*form,
    with a = lc/d > 0, b = coeff/d and d = +-gcd(coeff, lc), and
    multiplies the running scale by a.  Returns (r, scale): a packed
    integer term map r, none of whose monomials a lead divides, with
    scale*p == r modulo the divisors.  With a list `quotients` (one dict
    per divisor), a step also records (b, scale) under the packed m in
    quotients[j]: the cofactor term b/scale*x^m.  Every step polls the
    active guards for time and for the degree of what is left to divide.
    """
    # Remainder terms with the scale at the step that set them aside;
    # scaling them up to the final scale once, at the end, costs one
    # product per term instead of one per term and step.
    aside = []
    scale = 1
    guards = Guards.current()
    while p:
        guards.check_time()
        lead = max(p)
        for j, divisor in enumerate(leads):
            m = lead - divisor
            if not m & guard:
                break
        else:
            aside.append((lead, p.pop(lead), scale))
            continue
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
        guards.check_degree(k & DEGREE_MASK for k in p)
    return {e: c * (scale // at) for e, c, at in aside}, scale


def _to_polynomial(ring, r, w, order):
    """The Polynomial r / w, for a packed integer term map r and a non-zero w.

    r is divided by its content first, so that the Fractions are built
    from the smallest integers; the loop polls the time guard per term.
    Its caches hold what `integer_form`, `packed_form(order)` and
    `leading_term(order)` would compute from its terms: its integer form
    is the primitive r, negated when the scale g / w is negative.
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
    f = Polynomial(ring, terms)
    f._int = (nums, Fraction(den, num))
    lead = max(r)
    x = unpack(lead)
    f._packed[order.descriptor] = (r, lead, r[lead], max(k & DEGREE_MASK for k in r))
    f._lt[order.descriptor] = (x, terms[x])
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


def buchberger(gens, order, use_coprime=True, use_chain=True):
    """A (non-reduced) Groebner basis of the ideal generated by gens.

    Pair selection is the normal strategy.  Pairs wait in a heap keyed by
    the total degree of their lcm, each lcm computed once when its pair
    is made; ties go to the lower index pair (i, j).  The coprime-lead and
    chain criteria can be toggled for the equivalence tests; they never
    change the reduced basis obtained afterwards.

    The chain criterion skips a pair (i, j) with lcm L when the lead of
    some third element k divides L and the pairs {i, k} and {j, k} have
    already been popped.  Each element keeps one int of popped partners:
    bit k of partners[i] is set when the pair {i, k} is popped.  The
    candidates k are then the set bits of partners[i] & partners[j],
    which never include i or j, and each takes one mask test.

    S-polynomials are formed and reduced over Z, on the primitive integer
    forms of the elements keyed by packed monomials; only non-zero
    remainders are turned back into (monic) rational polynomials.
    """
    guards = Guards.current()
    G = [g for g in gens if not g.is_zero()]
    _same_ring(G)
    if not G:
        return []
    ring = G[0].ring
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

    while pairs:
        guards.check_time()
        _, i, j, L = heapq.heappop(pairs)
        partners[i] |= 1 << j
        partners[j] |= 1 << i
        processed += 1
        guards.check_pairs(processed)
        if use_coprime and L == leads[i] + leads[j]:
            continue
        if use_chain:
            common = partners[i] & partners[j]
            while common:
                low = common & -common
                if not (L - leads[low.bit_length() - 1]) & guard:
                    break
                common ^= low
            if common:
                continue
        s = _s_polynomial(table[i], table[j], L)
        r, _ = _reduce(s, table, leads, guard)
        if not r:
            continue
        guards.check_degree(k & DEGREE_MASK for k in r)
        g = _to_polynomial(ring, r, r[max(r)], order)
        G.append(g)
        table.append(g.packed_form(order))
        leads.append(table[-1][1])
        exponents.append(g.leading_term(order)[0])
        partners.append(0)
        new = len(G) - 1
        for k in range(new):
            guards.check_time()
            L = pack(lcm(exponents[k], exponents[new]))
            heapq.heappush(pairs, (L & DEGREE_MASK, k, new, L))
    return G


def reduce_basis(G, order):
    """Unique reduced basis: monic, auto-reduced, sorted by leading monomial."""
    polys = [g for g in G if not g.is_zero()]
    if not polys:
        return GroebnerBasis((), order)
    ring = _same_ring(polys)
    guard = order.guard
    # Minimalize: drop generators whose lead is divisible by another lead.
    # The sort is stable, so of equal leads the first listed one stays.
    table = []
    for entry in sorted((g.packed_form(order) for g in polys), key=lambda t: t[1]):
        if any(not (entry[1] - kept[1]) & guard for kept in table):
            continue
        table.append(entry)
    # Fully reduce each against the others.  The reduced element is the
    # monic remainder, whatever scale the integer forms carry.
    reduced = []
    for i, (form, _, _, _) in enumerate(table):
        others = table[:i] + table[i + 1:]
        r, _ = _reduce(dict(form), others, [t[1] for t in others], guard)
        if r:
            lead = max(r)
            reduced.append((lead, _to_polynomial(ring, r, r[lead], order)))
    reduced.sort(key=lambda t: t[0], reverse=True)
    return GroebnerBasis(tuple(f for _, f in reduced), order)


def groebner_basis(gens, order, use_coprime=True, use_chain=True):
    """Reduced Groebner basis of <gens> under order."""
    G = buchberger(gens, order, use_coprime, use_chain)
    return reduce_basis(G, order)
