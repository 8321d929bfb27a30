"""Ideals and derived operations: sum, intersection, quotient, saturation,
elimination, contraction, Krull dimension.

An ideal caches Groebner bases by order descriptor, and every entry is
the reduced basis of its generators under the order it is filed under.
`Ideal.groebner` fills the cache on demand; the operations below also
seed their results' caches with the bases they find along the way:

* `intersect`, `quotient`'s intersection and `saturate` eliminate a
  fresh t (`_eliminate_t`) in a block before the order of a basis the
  ideal has cached, starting from that basis.  The t-free part of the
  reduced elimination basis is the result's reduced basis under that
  order.
* `quotient` divides that basis by f, which leaves a minimal basis of
  the quotient under the same order, and seeds its reduction.
* `eliminate` seeds its result's degrevlex basis, the t-free part of its
  block-order basis, and `contract_to_base` returns that result itself
  when the base ring lists the kept variables in the same order.

`saturate` is the program's one saturation, and it returns I : f^inf
alone.  The lead-coefficient split that saturates by it is computed in
one place, `primdec._contract`; the saturation exponent is searched for
only by `primdec.decompose`, which needs it for its second branch.
"""

from __future__ import annotations

from itertools import combinations

from .errors import InvalidInput, VariableClash
from .groebner import (
    GroebnerBasis,
    exact_divide,
    groebner_basis,
    normal_form,
    reduce_basis,
)
from .orders import MonomialOrder
from .rings import PolyRing


class Ideal:
    """Finite generator list in a ring, with cached reduced bases per order.

    `_cache` maps an order's descriptor to the reduced basis of the
    generators under that order, and holds nothing else: a basis seeded
    by an operation (see the module docstring) is that same basis.
    """

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


def _known_basis(I):
    """A reduced basis that I has cached: the degrevlex one if cached, else
    the one cached last; None when I has none."""
    hit = I._cache.get(I.ring.default_order.descriptor)
    if hit is None:
        hit = next(reversed(I._cache.values()), None)
    return hit


def _kept_part(gb, small, drop_idx, order):
    """The elements of gb free of the variables at drop_idx, as an ideal of
    small, with them cached as its reduced basis under order.

    gb must be a reduced basis under an order that eliminates those
    variables and restricts to order on the others: the elements free of
    them are then the reduced basis of the elimination ideal.
    """
    out = Ideal(small, [
        small.transport(g) for g in gb
        if all(all(e[i] == 0 for i in drop_idx) for e in g.terms)
    ])
    out._cache[order.descriptor] = GroebnerBasis(out.generators, order)
    return out


def _eliminate_t(I, times_t, extra):
    """Eliminate a fresh variable t from t*I + <extra> (from I + <extra>
    when times_t is false), in I's ring.

    `extra(big, t)` lists the added generators in the extended ring big,
    t its variable.  The extended order is a block of t followed by the
    order of G, a basis I has cached (`_known_basis`), else its degrevlex
    basis.  Every monomial of t*g has t-degree one, so t*G is a Groebner
    basis of t*I, and G is one of I*Q[t, x]: it enters Buchberger as a
    known prefix, and no pair among its elements is formed.  The result
    has its reduced basis under G's order cached.
    """
    ring = I.ring
    big, t_name = _extended_ring(ring)
    t = big.var(t_name)
    G = _known_basis(I) or I.groebner()
    prefix = [big.transport(g) for g in G]
    if times_t:
        prefix = [t * g for g in prefix]
    shifted = tuple((k, tuple(i + 1 for i in ix)) for k, ix in G.order.spec)
    big_order = MonomialOrder((("degrevlex", (0,)),) + shifted, big.nvars)
    gb = groebner_basis(prefix + extra(big, t), big_order, len(prefix))
    return _kept_part(gb, ring, [0], G.order)


def intersect(I, J):
    """I n J by the auxiliary-variable trick: eliminate t from t*I + (1-t)*J."""
    if I.ring != J.ring:
        raise VariableClash("intersection across rings")
    if I.is_zero() or J.is_zero():
        return Ideal(I.ring)
    return _eliminate_t(
        I, True, lambda big, t: [(big.one() - t) * big.transport(g) for g in J.generators]
    )


def quotient(I, f):
    """(I : f) computed as (I n <f>) / f.

    The intersection comes with its reduced basis under some order; divided
    by f, that is a minimal basis of I : f under the same order, so only
    its reduction runs to give I : f its reduced basis.
    """
    if f.is_zero():
        raise InvalidInput("quotient by the zero polynomial")
    if f.ring != I.ring:
        raise VariableClash("quotient across rings")
    if I.is_zero():
        return Ideal(I.ring)
    inter = intersect(I, Ideal(I.ring, [f]))
    out = Ideal(I.ring, [exact_divide(g, f) for g in inter.generators])
    order = _known_basis(inter).order
    out._cache[order.descriptor] = reduce_basis(
        I.ring, [g.packed_form(order) for g in out.generators], order
    )
    return out


def saturate(I, f):
    """(I : f^inf), the elimination of t from I + <1 - t*f> (Rabinowitsch)."""
    if f.is_zero():
        raise InvalidInput("saturation by the zero polynomial")
    if f.ring != I.ring:
        raise VariableClash("saturation across rings")
    return _eliminate_t(I, False, lambda big, t: [big.one() - t * big.transport(f)])


def eliminate(I, drop):
    """I n Q[remaining variables], returned in the smaller ring."""
    ring = I.ring
    drop = set(drop)
    for v in drop:
        ring.var_index(v)  # raises VariableClash if absent
    if not drop:
        return I
    small = PolyRing([v for v in ring.variables if v not in drop])
    drop_idx = [ring.var_index(v) for v in sorted(drop)]
    gb = I.groebner(MonomialOrder.elimination(drop_idx, ring.nvars))
    # The kept variables form the order's last degrevlex block, in ring
    # order: the restricted order is small's degrevlex.
    return _kept_part(gb, small, drop_idx, small.default_order)


def contract_to_base(P, base_ring):
    """Eliminate every variable outside base_ring and reinterpret there."""
    names = set(base_ring.variables)
    for v in names:
        if v not in P.ring.variables:
            raise VariableClash(f"base variable {v!r} missing from the big ring")
    drop = [v for v in P.ring.variables if v not in names]
    small = eliminate(P, drop)
    if small.ring is base_ring:  # the same variables in the same order
        return small
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
