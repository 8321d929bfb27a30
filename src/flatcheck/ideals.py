"""Ideals and derived operations: sum, intersection, quotient, saturation,
elimination, contraction, Krull dimension, radical membership."""

from __future__ import annotations

from itertools import combinations

from .errors import GuardExceeded, InvalidInput, VariableClash
from .groebner import exact_divide, groebner_basis, normal_form
from .orders import MonomialOrder
from .rings import PolyRing

# Saturation exponents tried before saturation counts as not stabilizing.
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
        # A reduced basis of the unit ideal is exactly [1], and a basis with
        # a nonzero constant generates the unit ideal, so no division is needed.
        return any(g.is_constant() for g in self.groebner())

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


def _extended_ring(ring):
    """(ring with one fresh variable in front, its name): t, or t_, t__, ...
    if t is taken."""
    name = "t"
    while name in ring.variables:
        name += "_"
    return PolyRing((name,) + ring.variables), name


def intersect(I, J):
    """I n J by the auxiliary-variable trick: eliminate t from t*I + (1-t)*J."""
    if I.ring != J.ring:
        raise VariableClash("intersection across rings")
    ring = I.ring
    if I.is_zero() or J.is_zero():
        return Ideal(ring)
    big, t_name = _extended_ring(ring)
    t = big.var(t_name)
    gens = [t * big.transport(g) for g in I.generators]
    gens += [(big.one() - t) * big.transport(g) for g in J.generators]
    # t comes first, so eliminate returns the ideal in ring itself.
    return eliminate(Ideal(big, gens), {t_name})


def quotient(I, f):
    """(I : f) computed as (I n <f>) / f."""
    if f.is_zero():
        raise InvalidInput("quotient by the zero polynomial")
    if f.ring != I.ring:
        raise VariableClash("quotient across rings")
    if I.is_zero():
        return Ideal(I.ring)
    inter = intersect(I, Ideal(I.ring, [f]))
    return Ideal(I.ring, [exact_divide(g, f) for g in inter.generators])


def _rabinowitsch(I, f):
    """I + <1 - t*f> in the ring with a fresh variable t, and t's name."""
    if f.ring != I.ring:
        raise VariableClash("Rabinowitsch ideal across rings")
    big, t_name = _extended_ring(I.ring)
    gens = [big.transport(g) for g in I.generators]
    gens.append(big.one() - big.var(t_name) * big.transport(f))
    return Ideal(big, gens), t_name


def _saturation(I, f):
    """(I : f^inf), the elimination of t from I + <1 - t*f>."""
    if f.is_zero():
        raise InvalidInput("saturation by the zero polynomial")
    big, t_name = _rabinowitsch(I, f)
    return eliminate(big, {t_name})  # in I.ring, since t comes first


def saturate(I, f):
    """(I : f^inf), by the Rabinowitsch trick, with its exponent.

    The exponent is the least s with f^s * (I : f^inf) inside I, which is
    also the least s with I : f^s = I : f^inf; at most SATURATION_STEPS
    values of s are tried.
    """
    sat = _saturation(I, f)
    gens = sat.generators
    for exponent in range(SATURATION_STEPS):
        if all(I.contains(g) for g in gens):
            return sat, exponent
        gens = [g * f for g in gens]
    raise GuardExceeded("saturation", "saturation exponent not found")


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
    """Krull dimension of ring/I; dim(<1>) is -1 by convention."""
    U = independent_set(I)
    return -1 if U is None else len(U)


def independent_set(I):
    """First maximal independent variable set of LT(I), as a name tuple.

    Sets are scanned largest first, in `combinations` order within a size.
    None for the unit ideal.
    """
    if I.is_unit():
        return None
    ring = I.ring
    gb = I.groebner()
    lms = [g.leading_term(gb.order)[0] for g in gb]
    n = ring.nvars
    # U independent iff no leading monomial is supported entirely inside U.
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            s = set(subset)
            if all(any(e and i not in s for i, e in enumerate(lm)) for lm in lms):
                return tuple(ring.variables[i] for i in subset)


def radical_membership(f, I):
    """f in sqrt(I), by the Rabinowitsch trick."""
    return _rabinowitsch(I, f)[0].is_unit()
