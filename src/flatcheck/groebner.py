"""Buchberger's algorithm, multivariate division, and reduced bases."""

from __future__ import annotations

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


def division(f, divisors, order):
    """Multivariate division: returns (cofactors, remainder).

    f == sum(cofactors[i] * divisors[i]) + remainder, and no term of the
    remainder is divisible by any divisor's leading monomial.  Divisors
    are tried in listed order, so the result is deterministic.  Every
    step polls the active guards for time and for the degree of what is
    left to divide.
    """
    _same_ring([f, *divisors])
    ring = f.ring
    nonzero = [(i, g) for i, g in enumerate(divisors) if not g.is_zero()]
    lms = [g.leading_term(order)[0] for _, g in nonzero]
    lcs = [g.leading_term(order)[1] for _, g in nonzero]
    cofactors = [ring.zero() for _ in divisors]
    remainder = {}
    p = dict(f.terms)
    spec = order.spec
    find = _kernels.find_divisor
    div = _kernels.monomial_div
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
        cofactors[i] = cofactors[i] + ring.monomial(m, c)
        # p -= c * x^m * g
        mul = _kernels.monomial_mul
        for e, gc in g.terms.items():
            key = mul(e, m)
            s = p.get(key, Fraction(0)) - c * gc
            if s:
                p[key] = s
            elif key in p:
                del p[key]
        guards.check_degree(p)
    return cofactors, Polynomial(ring, remainder)


def normal_form(f, divisors, order):
    """Remainder of f on division by the listed polynomials."""
    if not divisors or f.is_zero():
        # NF against the empty set is f itself.
        divisors = [g for g in divisors if not g.is_zero()]
        if not divisors:
            return f
    _, r = division(f, divisors, order)
    return r


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

    Pair selection is the normal strategy: minimal lcm total degree,
    ties broken by pair index.  The coprime-lead and chain criteria can
    be toggled for the equivalence tests; they never change the reduced
    basis obtained afterwards.
    """
    guards = Guards.current()
    G = [g for g in gens if not g.is_zero()]
    _same_ring(G)
    if not G:
        return []
    lms = [g.leading_term(order)[0] for g in G]
    pairs = {(i, j) for i in range(len(G)) for j in range(i + 1, len(G))}
    done = set()
    processed = 0
    lcm = _kernels.monomial_lcm
    mul = _kernels.monomial_mul
    divides = _kernels.monomial_divides

    def pair_key(p):
        i, j = p
        return (sum(lcm(lms[i], lms[j])), i, j)

    while pairs:
        guards.check_time()
        best = min(pairs, key=pair_key)
        pairs.discard(best)
        done.add(best)
        processed += 1
        guards.check_pairs(processed)
        i, j = best
        L = lcm(lms[i], lms[j])
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
        lms.append(r.leading_term(order)[0])
        new = len(G) - 1
        for k in range(new):
            pairs.add((k, new))
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
