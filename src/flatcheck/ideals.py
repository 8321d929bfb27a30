"""Ideals and derived operations: sum, intersection, quotient, saturation,
elimination, contraction, Krull dimension, radical membership."""

from __future__ import annotations

from itertools import combinations

from .errors import GuardExceeded, Guards, InvalidInput, VariableClash
from .groebner import division, groebner_basis, normal_form
from .orders import MonomialOrder
from .rings import PolyRing

# Quotient steps allowed before saturation counts as not stabilizing.
SATURATION_STEPS = 512


class Ideal:
    """Finite generator list in a ring, with cached reduced bases per order."""

    __slots__ = ("ring", "generators", "_cache")

    def __init__(self, ring, generators=()):
        self.ring = ring
        gens = []
        seen = set()
        for g in generators:
            if g.ring != ring:
                raise VariableClash("generator outside the ideal's ring")
            if g.is_zero() or g in seen:
                continue
            seen.add(g)
            gens.append(g)
        self.generators = tuple(gens)
        self._cache = {}

    def groebner(self, order=None):
        order = order or self.ring.default_order
        hit = self._cache.get(order.descriptor)
        if hit is None:
            hit = groebner_basis(self.generators, order)
            self._cache[order.descriptor] = hit
        return hit

    def contains(self, f):
        if f.ring != self.ring:
            raise VariableClash("membership test across rings")
        gb = self.groebner()
        return normal_form(f, list(gb), gb.order).is_zero()

    def contains_ideal(self, other):
        return all(self.contains(g) for g in other.generators)

    def is_zero(self):
        return not self.generators

    def is_unit(self):
        return self.contains(self.ring.one())

    def equals(self, other):
        if self.ring != other.ring:
            return False
        return self.contains_ideal(other) and other.contains_ideal(self)

    def __repr__(self):
        return "<" + ", ".join(map(str, self.generators)) + ">"


def ideal_sum(I, J):
    if I.ring != J.ring:
        raise VariableClash("ideal sum across rings")
    return Ideal(I.ring, I.generators + J.generators)


def _extended_ring(ring, new_vars, front=True):
    """Ring with fresh variables added; names are uniquified if needed."""
    names = []
    existing = set(ring.variables)
    for v in new_vars:
        name = v
        while name in existing:
            name += "_"
        existing.add(name)
        names.append(name)
    variables = tuple(names) + ring.variables if front else ring.variables + tuple(names)
    return PolyRing(variables), names


def intersect(I, J):
    """I n J by the auxiliary-variable trick: eliminate t from t*I + (1-t)*J."""
    if I.ring != J.ring:
        raise VariableClash("intersection across rings")
    ring = I.ring
    if I.is_zero() or J.is_zero():
        return Ideal(ring)
    big, (t_name,) = _extended_ring(ring, ["t"], front=True)
    t = big.var(t_name)
    gens = [t * big.transport(g) for g in I.generators]
    gens += [(big.one() - t) * big.transport(g) for g in J.generators]
    order = MonomialOrder.elimination([big.var_index(t_name)], big.nvars)
    gb = groebner_basis(gens, order)
    t_i = big.var_index(t_name)
    out = [ring.transport(g) for g in gb if all(e[t_i] == 0 for e in g.terms)]
    return Ideal(ring, out)


def quotient(I, f):
    """(I : f) computed as (I n <f>) / f."""
    if f.is_zero():
        raise InvalidInput("quotient by the zero polynomial")
    if f.ring != I.ring:
        raise VariableClash("quotient across rings")
    if I.is_zero():
        return Ideal(I.ring)
    inter = intersect(I, Ideal(I.ring, [f]))
    gens = []
    for g in inter.generators:
        (cof,), rem = division(g, [f], g.ring.default_order)
        if not rem.is_zero():
            raise InvalidInput("internal: intersection element not divisible")
        gens.append(cof)
    return Ideal(I.ring, gens)


def saturate(I, f):
    """(I : f^inf) together with the stabilizing exponent."""
    if f.is_zero():
        raise InvalidInput("saturation by the zero polynomial")
    guards = Guards.current()
    current = I
    exponent = 0
    for _ in range(SATURATION_STEPS):
        guards.check_time()
        nxt = quotient(current, f)
        if nxt.ring == current.ring and current.contains_ideal(nxt):
            return current, exponent
        current = nxt
        exponent += 1
    raise GuardExceeded("saturation", "saturation did not stabilize")


def eliminate(I, drop):
    """I n Q[remaining variables], returned in the smaller ring."""
    ring = I.ring
    drop = set(drop)
    for v in drop:
        ring.var_index(v)  # raises VariableClash if absent
    if not drop:
        return I
    keep = [v for v in ring.variables if v not in drop]
    small = PolyRing(keep)
    drop_idx = [ring.var_index(v) for v in sorted(drop)]
    order = MonomialOrder.elimination(drop_idx, ring.nvars)
    gb = I.groebner(order)
    out = []
    for g in gb:
        if all(all(e[i] == 0 for i in drop_idx) for e in g.terms):
            out.append(small.transport(g))
    return Ideal(small, out)


def contract_to_base(P, base_ring):
    """Eliminate every variable outside base_ring and reinterpret there."""
    names = set(base_ring.variables)
    for v in names:
        if v not in P.ring.variables:
            raise VariableClash(f"base variable {v!r} missing from the big ring")
    drop = [v for v in P.ring.variables if v not in names]
    small = eliminate(P, drop)
    return Ideal(base_ring, [base_ring.transport(g) for g in small.generators])


def dimension(I):
    """Krull dimension of ring/I via independent sets of the lead-term ideal.

    dim(<1>) is -1 by convention.
    """
    ring = I.ring
    gb = I.groebner()
    if any(g.is_constant() and not g.is_zero() for g in gb):
        return -1
    lms = [g.leading_term(gb.order)[0] for g in gb]
    n = ring.nvars
    if not lms:
        return n
    # U independent iff no leading monomial is supported entirely inside U.
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            s = set(subset)
            if all(any(e and i not in s for i, e in enumerate(lm)) for lm in lms):
                return size
    return 0


def independent_sets(I):
    """All maximal-size independent variable sets of LT(I), as name tuples."""
    ring = I.ring
    gb = I.groebner()
    if any(g.is_constant() and not g.is_zero() for g in gb):
        return []
    lms = [g.leading_term(gb.order)[0] for g in gb]
    n = ring.nvars
    d = dimension(I)
    found = []
    for subset in combinations(range(n), d):
        s = set(subset)
        if all(any(e and i not in s for i, e in enumerate(lm)) for lm in lms):
            found.append(tuple(ring.variables[i] for i in subset))
    return found


def radical_membership(f, I):
    """f in sqrt(I), by the Rabinowitsch trick."""
    if f.ring != I.ring:
        raise VariableClash("radical membership across rings")
    if f.is_zero():
        return True
    big, (t_name,) = _extended_ring(I.ring, ["t"], front=True)
    t = big.var(t_name)
    gens = [big.transport(g) for g in I.generators]
    gens.append(t * big.transport(f) - big.one())
    gb = groebner_basis(gens, big.default_order)
    return len(gb) == 1 and next(iter(gb)).is_constant()
