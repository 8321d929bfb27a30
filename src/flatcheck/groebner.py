"""Buchberger's algorithm, multivariate division, and reduced bases."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from . import _kernels
from .errors import Guards, InvalidInput, VariableClash
from .rings import Polynomial


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


def _reduce(f, divisors, order, quotients=None):
    """Remainder of f on division by divisors, in listed order.

    With a list `quotients` (one dict per divisor), each reduction step
    also records its quotient term there; `normal_form` passes none and
    builds no cofactors.  Every step polls the active guards for time and
    for the degree of what is left to divide.
    """
    _same_ring([f, *divisors])
    nonzero = [(i, g) for i, g in enumerate(divisors) if not g.is_zero()]
    if not nonzero or f.is_zero():
        return f
    lms = [g.leading_term(order)[0] for _, g in nonzero]
    lcs = [g.leading_term(order)[1] for _, g in nonzero]
    remainder = {}
    p = dict(f.terms)
    spec = order.spec
    find = _kernels.find_divisor
    div = _kernels.monomial_div
    mul = _kernels.monomial_mul
    leading = _kernels.leading_exponent
    guards = Guards.current()
    while p:
        guards.check_time()
        lead = leading(p.keys(), spec)
        coeff = p[lead]
        j = find(lead, lms)
        if j < 0:
            remainder[lead] = coeff
            del p[lead]
            continue
        i, g = nonzero[j]
        m = div(lead, lms[j])
        c = coeff / lcs[j]
        if quotients is not None:
            # The leads strictly decrease, so m is new in quotients[i].
            quotients[i][m] = c
        # p -= c * x^m * g
        for e, gc in g.terms.items():
            key = mul(e, m)
            s = p.get(key)
            if s is None:
                p[key] = -(c * gc)
            else:
                s -= c * gc
                if s:
                    p[key] = s
                else:
                    del p[key]
        guards.check_degree(p)
    return Polynomial(f.ring, remainder)


def division(f, divisors, order):
    """Multivariate division: returns (cofactors, remainder).

    f == sum(cofactors[i] * divisors[i]) + remainder, and no term of the
    remainder is divisible by any divisor's leading monomial.  Divisors
    are tried in listed order, so the result is deterministic.  Every
    step polls the active guards for time and for the degree of what is
    left to divide.
    """
    quotients = [{} for _ in divisors]
    remainder = _reduce(f, divisors, order, quotients)
    return [Polynomial(f.ring, q) for q in quotients], remainder


def normal_form(f, divisors, order):
    """Remainder of f on division by the listed polynomials."""
    return _reduce(f, divisors, order)


def s_polynomial(f, g, order):
    """lcm-scaled combination cancelling the two leading terms."""
    if f.is_zero() or g.is_zero():
        raise InvalidInput("s-polynomial of the zero polynomial")
    _same_ring([f, g])
    lmf, lcf = f.leading_term(order)
    lmg, lcg = g.leading_term(order)
    lcm = _kernels.monomial_lcm(lmf, lmg)
    a = f.mul_monomial(_kernels.monomial_div(lcm, lmf), Fraction(1) / lcf)
    b = g.mul_monomial(_kernels.monomial_div(lcm, lmg), Fraction(1) / lcg)
    return a - b


def buchberger(gens, order, use_coprime=True, use_chain=True):
    """A (non-reduced) Groebner basis of the ideal generated by gens.

    Pair selection is the normal strategy.  Pairs wait in a heap keyed by
    the total degree of their lcm, each lcm computed once when its pair
    is made; ties go to the lower index pair (i, j).  The coprime-lead and
    chain criteria can be toggled for the equivalence tests; they never
    change the reduced basis obtained afterwards.
    """
    guards = Guards.current()
    G = [g for g in gens if not g.is_zero()]
    _same_ring(G)
    if not G:
        return []
    lms = [g.leading_term(order)[0] for g in G]
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
        s = s_polynomial(G[i], G[j], order)
        r = normal_form(s, G, order)
        if r.is_zero():
            continue
        guards.check_degree(r.terms)
        G.append(r.monic(order))
        lm = r.leading_term(order)[0]
        lms.append(lm)
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
