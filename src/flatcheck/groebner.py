"""Buchberger's algorithm, multivariate division, and reduced bases."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Tuple

from . import _kernels
from .errors import Guards, VariableClash
from .rings import Polynomial, _primitive


@dataclass(frozen=True)
class GroebnerBasis:
    generators: Tuple[Polynomial, ...]
    order: object
    reduced: bool = False

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)


def _same_ring(polys):
    rings = {f.ring for f in polys}
    if len(rings) > 1:
        raise VariableClash("polynomials from different rings")
    return rings.pop() if rings else None


def _tables(polys, order):
    """Leads, primitive integer forms and their leading coefficients."""
    lms, forms, lcs = [], [], []
    for g in polys:
        lm = g.leading_term(order)[0]
        form = g.integer_form()[0]
        lms.append(lm)
        forms.append(form)
        lcs.append(form[lm])
    return lms, forms, lcs


def _reduce(p, lms, forms, lcs, spec, quotients=None):
    """Fraction-free remainder of the integer term map p (consumed).

    Divisor j is the integer term map forms[j], with leading monomial
    lms[j] and leading coefficient lcs[j]; the first one whose lead
    divides the lead of p is used.  A step cancels that lead by
    p <- a*p - b*x^m*forms[j], with a = lcs[j]/d > 0, b = coeff/d and
    d = +-gcd(coeff, lcs[j]), and multiplies the running scale by a.
    Returns (r, scale): an integer term map r, none of whose monomials a
    lead divides, with scale*p == r modulo the divisors.  With a list
    `quotients` (one dict per divisor), a step also records (b, scale)
    under m in quotients[j]: the cofactor term b/scale*x^m.  Every step
    polls the active guards for time and for the degree of what is left
    to divide.
    """
    # Remainder terms with the scale at the step that set them aside;
    # scaling them up to the final scale once, at the end, costs one
    # product per term instead of one per term and step.
    aside = []
    scale = 1
    find = _kernels.find_divisor
    div = _kernels.monomial_div
    mul = _kernels.monomial_mul
    leading = _kernels.leading_exponent
    guards = Guards.current()
    while p:
        guards.check_time()
        lead = leading(p.keys(), spec)
        j = find(lead, lms)
        if j < 0:
            aside.append((lead, p.pop(lead), scale))
            continue
        coeff = p[lead]
        lc = lcs[j]
        d = gcd(coeff, lc)
        if lc < 0:
            d = -d
        a = lc // d
        b = coeff // d
        if a != 1:
            p = {e: a * c for e, c in p.items()}
            scale *= a
        m = div(lead, lms[j])
        if quotients is not None:
            # The leads strictly decrease, so m is new in quotients[j].
            quotients[j][m] = (b, scale)
        # p -= b * x^m * g; the lead cancels exactly.
        for e, gc in forms[j].items():
            key = mul(e, m)
            s = p.get(key)
            if s is None:
                p[key] = -b * gc
            else:
                s -= b * gc
                if s:
                    p[key] = s
                else:
                    del p[key]
        guards.check_degree(p)
    return {e: c * (scale // at) for e, c, at in aside}, scale


def _to_polynomial(ring, r, w):
    """The Polynomial r / w, for an integer term map r and a non-zero w.

    r is divided by its content first, so that the Fractions are built
    from the smallest integers; the loop polls the time guard per term.
    """
    r, g = _primitive(r)
    u = g / Fraction(w)
    num, den = u.numerator, u.denominator
    check = Guards.current().check_time
    terms = {}
    for e, c in r.items():
        terms[e] = Fraction(c * num, den)
        check()
    return Polynomial(ring, terms)


def _divide(f, divisors, order, quotients=None):
    """Remainder of f on division by the listed divisors, as a Polynomial.

    With `quotients`, one dict per divisor, records each cofactor term
    as a Fraction there.
    """
    _same_ring([f, *divisors])
    nonzero = [(i, g) for i, g in enumerate(divisors) if not g.is_zero()]
    if not nonzero or f.is_zero():
        return f
    lms, forms, lcs = _tables([g for _, g in nonzero], order)
    P, k = f.integer_form()
    steps = None if quotients is None else [{} for _ in nonzero]
    r, scale = _reduce(dict(P), lms, forms, lcs, order.spec, steps)
    if quotients is not None:
        for (i, g), step in zip(nonzero, steps):
            # f = P/k and g = forms[j]/kg, so b/s*x^m*forms[j] is
            # b*kg/(s*k)*x^m*g.
            ratio = g.integer_form()[1] / k
            quotients[i].update({m: Fraction(b, s) * ratio for m, (b, s) in step.items()})
    return _to_polynomial(f.ring, r, scale * k)


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


def normal_form(f, divisors, order):
    """Remainder of f on division by the listed polynomials."""
    return _divide(f, divisors, order)


def _s_polynomial(f, lmf, lcf, g, lmg, lcg, L):
    """The S-polynomial of two integer term maps, as an integer term map.

    (lcg/d)*x^(L-lmf)*f - (lcf/d)*x^(L-lmg)*g with d = gcd(lcf, lcg)
    and L the lcm of the leads lmf and lmg: a non-zero multiple of the
    rational S-polynomial, whose leading terms cancel exactly.
    """
    mul = _kernels.monomial_mul
    d = gcd(lcf, lcg)
    a, b = lcg // d, lcf // d
    mf = _kernels.monomial_div(L, lmf)
    mg = _kernels.monomial_div(L, lmg)
    s = {mul(e, mf): a * c for e, c in f.items()}
    for e, c in g.items():
        key = mul(e, mg)
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

    S-polynomials are formed and reduced over Z, on the primitive integer
    forms of the elements; only non-zero remainders are turned back into
    (monic) rational polynomials.
    """
    guards = Guards.current()
    G = [g for g in gens if not g.is_zero()]
    _same_ring(G)
    if not G:
        return []
    ring = G[0].ring
    spec = order.spec
    # Divisor tables, built once and extended with each new element.
    lms, forms, lcs = _tables(G, order)
    lcm = _kernels.monomial_lcm
    mul = _kernels.monomial_mul
    divides = _kernels.monomial_divides
    # Entries (lcm total degree, i, j, lcm): (i, j) is unique, so the
    # heap order is a total order and the lcms are never compared.
    pairs = []
    for j in range(1, len(G)):
        for i in range(j):
            L = lcm(lms[i], lms[j])
            pairs.append((sum(L), i, j, L))
    heapq.heapify(pairs)
    done = set()
    processed = 0

    while pairs:
        guards.check_time()
        _, i, j, L = heapq.heappop(pairs)
        done.add((i, j))
        processed += 1
        guards.check_pairs(processed)
        if use_coprime and L == mul(lms[i], lms[j]):
            continue
        if use_chain:
            skip = False
            for k in range(len(G)):
                if k == i or k == j:
                    continue
                if divides(lms[k], L):
                    a = (min(i, k), max(i, k))
                    b = (min(j, k), max(j, k))
                    if a in done and b in done:
                        skip = True
                        break
            if skip:
                continue
        s = _s_polynomial(forms[i], lms[i], lcs[i], forms[j], lms[j], lcs[j], L)
        r, _ = _reduce(s, lms, forms, lcs, spec)
        if not r:
            continue
        guards.check_degree(r)
        r, _ = _primitive(r)
        lm = _kernels.leading_exponent(r.keys(), spec)
        lc = r[lm]
        G.append(_to_polynomial(ring, r, lc))
        lms.append(lm)
        forms.append(r)
        lcs.append(lc)
        new = len(G) - 1
        for k in range(new):
            L = lcm(lms[k], lm)
            heapq.heappush(pairs, (sum(L), k, new, L))
    return G


def reduce_basis(G, order):
    """Unique reduced basis: monic, auto-reduced, sorted by leading monomial."""
    polys = [g.monic(order) for g in G if not g.is_zero()]
    if not polys:
        return GroebnerBasis((), order, reduced=True)
    divides = _kernels.monomial_divides
    # Minimalize: drop generators whose lead is divisible by another lead.
    polys.sort(key=lambda f: order.key(f.leading_term(order)[0]))
    minimal = []
    for f in polys:
        lm = f.leading_term(order)[0]
        if any(divides(g.leading_term(order)[0], lm) for g in minimal):
            continue
        minimal.append(f)
    # Fully reduce each against the others.
    reduced = []
    for i, f in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = normal_form(f, others, order)
        if not r.is_zero():
            reduced.append(r.monic(order))
    reduced.sort(key=lambda f: order.key(f.leading_term(order)[0]), reverse=True)
    return GroebnerBasis(tuple(reduced), order, reduced=True)


def groebner_basis(gens, order, use_coprime=True, use_chain=True):
    """Reduced Groebner basis of <gens> under order."""
    G = buchberger(gens, order, use_coprime, use_chain)
    return reduce_basis(G, order)
