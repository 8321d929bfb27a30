"""Sparse multivariate polynomials with exact rational coefficients.

A monomial is an exponent tuple (one non-negative int per ring variable);
a polynomial is an immutable map from exponent tuples to nonzero Fraction
coefficients, tagged with its ambient ring.  Canonical form stores no zero
coefficients, so two polynomials are equal iff their term maps are equal.

A polynomial caches two other views of itself: `integer_form`, its
primitive integer term map, and per order `packed_form`, that map keyed
by the order's packed monomials (see `orders`), with its lead.  The
packed keys are the only way monomials are compared: the Groebner core
runs on them, and `leading_term` and `sorted_terms` read them.  Groebner
intermediates stay in the packed view: Buchberger's new elements become
polynomials only in the reduced basis.  The polynomials the Groebner
core returns come with both caches already filled from the integer map
they were computed as, and skip the zero filter of the constructor,
since that map holds no zero; see `groebner._to_polynomial`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Tuple

from . import _kernels
from .errors import GuardExceeded, Guards, InvalidInput, VariableClash
from .orders import DEGREE_LIMIT, MonomialOrder

# Exponents past this are treated as runaway computations, not real inputs.
EXPONENT_LIMIT = 2**20


class PolyRing:
    """Q[v1, ..., vk] with a default monomial order (degrevlex)."""

    __slots__ = ("variables", "default_order", "_index")

    def __init__(self, variables, default_order=None):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise VariableClash(f"duplicate variable names in {variables}")
        for v in variables:
            if not v or not (v[0].isalpha() or v[0] == "_"):
                raise InvalidInput(f"bad variable name {v!r}")
        self.variables = variables
        self.default_order = default_order or MonomialOrder.degrevlex(len(variables))
        self._index = {v: i for i, v in enumerate(variables)}

    @property
    def nvars(self):
        return len(self.variables)

    def var_index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise VariableClash(f"variable {name!r} not in ring {self}") from None

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def var(self, name):
        exps = [0] * self.nvars
        exps[self.var_index(name)] = 1
        return Polynomial(self, {tuple(exps): Fraction(1)})

    def gens(self):
        return tuple(self.var(v) for v in self.variables)

    def monomial(self, exps, coeff=1):
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise VariableClash("exponent length does not match ring arity")
        coeff = Fraction(coeff)
        if coeff == 0:
            return self.zero()
        return Polynomial(self, {exps: coeff})

    def transport(self, f):
        """Reinterpret f in this ring, matching variables by name.

        Every variable actually used by f must exist here; unused source
        variables may be absent.
        """
        if f.ring is self:
            return f
        src = f.ring.variables
        positions = []
        for i, v in enumerate(src):
            positions.append(self._index.get(v))
        terms = {}
        for exps, c in f.terms.items():
            new = [0] * self.nvars
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                pos = positions[i]
                if pos is None:
                    raise VariableClash(
                        f"variable {src[i]!r} of {f} not present in target ring"
                    )
                new[pos] = e
            terms[tuple(new)] = c
        return Polynomial(self, terms)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.variables == other.variables

    def __hash__(self):
        return hash(self.variables)

    def __repr__(self):
        return "Q[" + ",".join(self.variables) + "]"


class Polynomial:
    """Immutable sparse polynomial.  Arithmetic is exact."""

    __slots__ = ("ring", "terms", "_hash", "_int", "_packed")

    def __init__(self, ring, terms, *, _nonzero=False):
        self.ring = ring
        # Private to the Groebner core: `_nonzero` vouches that the map,
        # which the polynomial takes over, holds no zero coefficient.
        self.terms: Dict[Tuple[int, ...], Fraction] = (
            terms if _nonzero else {e: c for e, c in terms.items() if c != 0}
        )
        self._hash = None
        self._int = None
        self._packed = {}

    # -- basic queries ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise InvalidInput("not a constant polynomial")
        return next(iter(self.terms.values()))

    def degree_in(self, name):
        i = self.ring.var_index(name)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def variables_used(self):
        used = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used.add(self.ring.variables[i])
        return used

    def leading_term(self, order=None):
        """(exponent, coefficient) of the largest monomial under order.

        The lead is packed_form's, so this raises as packed_form does.
        """
        order = order or self.ring.default_order
        x = order.unpack(self.packed_form(order)[1])
        return x, self.terms[x]

    def integer_form(self):
        """(P, k): the primitive integer term map P = k * self, k a Fraction.

        P has integer coefficients with gcd 1 (the zero polynomial gives
        ({}, 1)).  Cached; Groebner reductions run on P and convert back
        to rationals only at the end.  The Groebner core seeds this cache
        on the polynomials it returns.
        """
        hit = self._int
        if hit is None:
            check = Guards.current().check_time
            den = 1
            for c in self.terms.values():
                den = lcm(den, c.denominator)
                check()
            nums, g = _primitive(
                {e: c.numerator * (den // c.denominator) for e, c in self.terms.items()}
            )
            hit = self._int = (nums, Fraction(den, g))
        return hit

    def packed_form(self, order=None):
        """(P, lead, lc, degree): integer_form's term map on packed keys.

        P maps the order's packed monomials to the integer coefficients of
        integer_form; lead is P's largest key, lc its coefficient and
        degree the largest total degree of a term.  Cached per order; the
        Groebner core seeds the entry for its order on the polynomials it
        returns.  Raises GuardExceeded("exponent") as `_packed_entry` does.
        """
        if self.is_zero():
            raise InvalidInput("zero polynomial has no leading term")
        order = order or self.ring.default_order
        key = order.descriptor
        hit = self._packed.get(key)
        if hit is None:
            hit = self._packed[key] = _packed_entry(self.integer_form()[0], order)
        return hit

    def sorted_terms(self, order=None):
        """The (exponent, coefficient) terms, largest monomial first.

        Sorted by packed_form's keys, so this raises as packed_form does.
        """
        if self.is_zero():
            return []
        order = order or self.ring.default_order
        unpack, terms = order.unpack, self.terms
        keys = sorted(self.packed_form(order)[0], reverse=True)
        return [(x, terms[x]) for x in map(unpack, keys)]

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise VariableClash(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other):
        other = self._coerce(other)
        self._check_ring(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Polynomial(self.ring, out)

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        self._check_ring(other)
        if self.is_zero() or other.is_zero():
            return self.ring.zero()
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: Dict[Tuple[int, ...], Fraction] = {}
        mul = _kernels.monomial_mul
        check = Guards.current().check_time
        for ea, ca in a.items():
            check()
            for eb, cb in b.items():
                e = mul(ea, eb)
                s = out.get(e)
                if s is None:
                    out[e] = ca * cb
                else:
                    s = s + ca * cb
                    if s:
                        out[e] = s
                    else:
                        del out[e]
        for e in out:
            if max(e, default=0) > EXPONENT_LIMIT:
                raise GuardExceeded("exponent", "exponent overflow in product")
        return Polynomial(self.ring, out)

    def __rmul__(self, other):
        return self * other

    def __radd__(self, other):
        return self + other

    def __rsub__(self, other):
        return self._coerce(other) - self

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return self.ring.zero()
        return Polynomial(self.ring, {e: c * v for e, v in self.terms.items()})

    def mul_monomial(self, exps, coeff=1):
        """Multiply by a single term without building a Polynomial for it."""
        coeff = Fraction(coeff)
        if coeff == 0 or self.is_zero():
            return self.ring.zero()
        mul = _kernels.monomial_mul
        return Polynomial(
            self.ring, {mul(e, exps): c * coeff for e, c in self.terms.items()}
        )

    def __pow__(self, n):
        if n < 0:
            raise InvalidInput("negative power of a polynomial")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n >>= 1
        return result

    def monic(self, order=None):
        if self.is_zero():
            return self
        _, lc = self.leading_term(order)
        if lc == 1:
            return self
        return self.scale(Fraction(1) / lc)

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring.variables, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self):
        return poly_to_string(self)

    __str__ = __repr__


def _primitive(terms):
    """(terms / g, g) for g > 0 the gcd of an integer term map's coefficients.

    The empty map gives g = 1.  Polls the time guard per gcd step: the
    coefficients may be huge.
    """
    check = Guards.current().check_time
    g = 0
    for c in terms.values():
        g = gcd(g, c)
        if g == 1:
            return terms, 1
        check()
    if g == 0:
        return terms, 1
    return {e: c // g for e, c in terms.items()}, g


def _packed_entry(nums, order):
    """(form, lead, lc, degree) for a non-empty integer term map nums.

    form maps order's packed monomials to the coefficients of nums, lead
    is its largest key, lc that key's coefficient and degree the largest
    total degree of a term.  Raises GuardExceeded("exponent") if a total
    degree reaches orders.DEGREE_LIMIT, where packing would overflow.
    """
    degree = max(map(sum, nums))
    if degree >= DEGREE_LIMIT:
        raise GuardExceeded("exponent", "total degree too large to pack")
    pack = order.pack
    form = {pack(e): c for e, c in nums.items()}
    lead = max(form)
    return form, lead, form[lead], degree


def poly_to_string(f):
    """Render in the problem-file syntax: `4*y1^3 + 27*y2^2`."""
    if f.is_zero():
        return "0"
    parts = []
    for exps, coeff in f.sorted_terms():
        factors = []
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(f.ring.variables[i])
            elif e > 1:
                factors.append(f"{f.ring.variables[i]}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        if not parts:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts)


class VarMap:
    """Ring homomorphism determined by images of the source variables."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        self.images = {}
        for v in source.variables:
            if v not in images:
                raise VariableClash(f"no image given for variable {v!r}")
            img = images[v]
            if img.ring != target:
                raise VariableClash(f"image of {v!r} lies outside the target ring")
            self.images[v] = img

    def __call__(self, f):
        if f.ring != self.source:
            raise VariableClash("polynomial not in the map's source ring")
        result = self.target.zero()
        powers = {}  # (var index, exponent) -> image power
        for exps, coeff in f.terms.items():
            term = self.target.const(coeff)
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                p = powers.get((i, e))
                if p is None:
                    p = self.images[self.source.variables[i]] ** e
                    powers[(i, e)] = p
                term = term * p
            result = result + term
        return result
