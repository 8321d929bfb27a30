"""Monomial orders: lex, degrevlex, and block orders for elimination.

Orders are global (1 is minimal) by construction: every block is a
well-ordering on its own variables and the blocks partition all of them.

Each order packs an exponent vector into one int (Monagan & Pearce,
*Sparse polynomial division using a heap*, JSC 46, 2011).  The packed key
is the order: the program compares monomials only through it, in the
Groebner core, in leading terms and in printed terms.  The key is a row
of FIELD_BITS-wide fields, each a non-negative linear form in the
exponents.  From the top:

* one field per variable from the order spec: a lex block on (i1..ik)
  gives e_i1, ..., e_ik; a degrevlex block gives its degree, then
  e_i1+...+e_i(k-1), ..., e_i1;
* the raw exponents e_0, ..., e_(n-1);
* the total degree.

No field exceeds the total degree, so while that stays below
DEGREE_LIMIT every field keeps its top bit clear and:

* pack(a) < pack(b) iff a < b under the order;
* pack(a) + pack(b) == pack(a*b), and pack(b) - pack(a) is the packed
  b/a when a divides b;
* a divides b iff (pack(b) - pack(a)) & order.guard == 0: a borrow out
  of any field sets that field's top bit, a bit of ``guard``;
* pack(a) & DEGREE_MASK is the total degree of a.

Orders are interned for the life of the process: ``MonomialOrder(spec,
nvars)`` and the constructors `lex`, `degrevlex` and `elimination` give
one instance per key layout, that is per normalized ``(spec, nvars)``,
so equal layouts share one descriptor and one Groebner-basis cache
entry, and orders compare and hash by identity.  An order is never
mutated.  An order on more than MAX_VARS variables is refused before
anything is built.
"""

from __future__ import annotations

from operator import mul
from struct import Struct

from .errors import GuardExceeded, InvalidInput

FIELD_BITS = 32  # MonomialOrder reads keys as 32-bit words
DEGREE_MASK = (1 << FIELD_BITS) - 1
# Packed keys stay valid while total degrees stay below this.
DEGREE_LIMIT = 1 << (FIELD_BITS - 1)
# The weights of n variables take n*(2n+1)*FIELD_BITS bits, 134 MB at
# this bound, and every order built is kept.
MAX_VARS = 4096

# Every order built, by (normalized spec, nvars).
_SHARED = {}


class MonomialOrder:
    """A total, multiplicative, global order on exponent vectors.

    ``spec`` is a tuple of ``("lex" | "degrevlex", indices)`` blocks,
    leftmost block first, from which the key's fields are built;
    ``nvars`` is the ambient variable count.  ``descriptor`` is a stable
    string for the layout, the key of per-ideal basis caches.  ``pack``
    and ``unpack`` convert to and from the packed keys described in the
    module docstring; ``guard`` holds the top bit of each of their fields.
    """

    __slots__ = ("spec", "nvars", "descriptor", "_weights", "_raw", "guard")

    def __new__(cls, spec, nvars):
        """The order for spec, built and entered in the table if new.

        An order is entered only once built, so a construction cut short
        by a guard leaves nothing behind.
        """
        if nvars > MAX_VARS:
            raise GuardExceeded("exponent", "too many variables to pack")
        spec = tuple((k, tuple(ix)) for k, ix in spec)
        order = _SHARED.get((spec, nvars))
        if order is not None:
            return order
        seen = []
        for k, indices in spec:
            if k not in ("lex", "degrevlex"):
                raise InvalidInput(f"unknown block order {k!r}")
            seen.extend(indices)
        if sorted(seen) != list(range(nvars)):
            raise InvalidInput("order blocks must partition the ring variables")
        order = super().__new__(cls)
        order.spec = spec
        order.nvars = nvars
        order.descriptor = ";".join(f"{k}({','.join(map(str, ix))})" for k, ix in spec)
        # A weight has a one in each field that sums its variable ix[j]: the
        # run first .. first + len(ix) - 1 - j of a degrevlex block (first + j
        # alone for lex), the variable's raw field and the degree field.
        count = 2 * nvars + 1
        ones = ((1 << FIELD_BITS * count) - 1) // DEGREE_MASK  # a one per field
        weights = [1 << FIELD_BITS * (nvars - i) | 1 for i in range(nvars)]
        first = 0
        for k, ix in spec:
            for j, i in enumerate(ix):
                top, run = (first, len(ix) - j) if k == "degrevlex" else (first + j, 1)
                weights[i] |= ones >> FIELD_BITS * (count - run) << FIELD_BITS * (count - top - run)
            first += len(ix)
        order._weights = tuple(weights)
        # A key's bytes, big-endian and in 32-bit words: n order fields,
        # the n raw exponents and the degree field.
        order._raw = Struct(f">{4 * nvars}x{nvars}I4x")
        order.guard = ones << FIELD_BITS - 1
        return _SHARED.setdefault((spec, nvars), order)

    @classmethod
    def lex(cls, nvars):
        return cls((("lex", range(nvars)),), nvars)

    @classmethod
    def degrevlex(cls, nvars):
        return cls((("degrevlex", range(nvars)),), nvars)

    @classmethod
    def elimination(cls, drop_indices, nvars):
        """Dropped variables in a leading degrevlex block, rest after."""
        drop = set(drop_indices)
        blocks = (sorted(drop), [i for i in range(nvars) if i not in drop])
        return cls([("degrevlex", ix) for ix in blocks if ix], nvars)

    def pack(self, exponent):
        """The packed key of an exponent vector of total degree < DEGREE_LIMIT."""
        return sum(map(mul, self._weights, exponent))

    def unpack(self, key):
        """The exponent vector of a packed key: its raw-exponent fields."""
        raw = self._raw
        return raw.unpack(key.to_bytes(raw.size, "big"))

    def __repr__(self):
        return f"MonomialOrder({self.descriptor})"
