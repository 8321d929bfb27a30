"""Monomial orders: lex, degrevlex, and block orders for elimination.

Orders are global (1 is minimal) by construction: every block kind is a
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

The constructors (`lex`, `degrevlex`, `block`, `elimination`) share one
instance per ``(kind, spec, nvars)`` among all live rings and ideals.
The instances are held weakly, so an order is built again only after
its last user is gone.  A shared order must never be mutated.
"""

from __future__ import annotations

import weakref
from operator import mul
from struct import Struct

from .errors import Guards, InvalidInput

FIELD_BITS = 32  # MonomialOrder reads keys as 32-bit words
DEGREE_MASK = (1 << FIELD_BITS) - 1
# Packed keys stay valid while total degrees stay below this.
DEGREE_LIMIT = 1 << (FIELD_BITS - 1)

# The live orders, by (kind, normalized spec, nvars).
_SHARED = weakref.WeakValueDictionary()


class MonomialOrder:
    """A total, multiplicative, global order on exponent vectors.

    ``spec`` is a tuple of ``(kind, indices)`` blocks, leftmost block
    first, from which the key's fields are built; ``nvars`` is the
    ambient variable count.  ``pack`` and ``unpack`` convert to and from
    the packed keys described in the module docstring; ``guard`` holds
    the top bit of each of their fields.
    """

    __slots__ = (
        "kind", "spec", "nvars", "_descriptor", "_weights", "_raw", "guard", "__weakref__"
    )

    def __init__(self, kind, spec, nvars):
        seen = []
        for k, indices in spec:
            if k not in ("lex", "degrevlex"):
                raise InvalidInput(f"unknown block kind {k!r}")
            seen.extend(indices)
        if sorted(seen) != list(range(nvars)):
            raise InvalidInput("order blocks must partition the ring variables")
        self.kind = kind
        self.spec = tuple((k, tuple(ix)) for k, ix in spec)
        self.nvars = nvars
        self._descriptor = kind + ":" + ";".join(
            f"{k}({','.join(map(str, ix))})" for k, ix in self.spec
        )
        # The variables each field sums, most significant field first.
        fields = []
        for k, ix in self.spec:
            if k == "degrevlex":
                fields.extend(ix[:end] for end in range(len(ix), 0, -1))
            else:
                fields.extend((i,) for i in ix)
        fields.extend((i,) for i in range(nvars))
        fields.append(tuple(range(nvars)))
        # O(n^2) bits in all for n variables: poll the time guard per field.
        check = Guards.current().check_time
        weights = [0] * nvars
        shift = FIELD_BITS * len(fields)
        for summed in fields:
            check()
            shift -= FIELD_BITS
            for i in summed:
                weights[i] |= 1 << shift
        self._weights = tuple(weights)
        # A key's bytes, big-endian and in 32-bit words: n order fields,
        # the n raw exponents and the degree field.
        self._raw = Struct(f">{4 * nvars}x{nvars}I4x")
        self.guard = int.from_bytes(b"\x80\0\0\0" * len(fields), "big")

    @classmethod
    def _shared(cls, kind, spec, nvars):
        """The live order for (kind, spec, nvars), built if there is none.

        An order is entered only once built, so a construction cut short
        by a guard leaves nothing behind.
        """
        key = (kind, tuple((k, tuple(ix)) for k, ix in spec), nvars)
        order = _SHARED.get(key)
        if order is None:
            order = _SHARED[key] = cls(kind, spec, nvars)
        return order

    @classmethod
    def lex(cls, nvars):
        return cls._shared("lex", (("lex", range(nvars)),), nvars)

    @classmethod
    def degrevlex(cls, nvars):
        return cls._shared("degrevlex", (("degrevlex", range(nvars)),), nvars)

    @classmethod
    def block(cls, blocks, nvars):
        """Block order from ``(kind, indices)`` pairs, leftmost block first."""
        return cls._shared("block", blocks, nvars)

    @classmethod
    def elimination(cls, drop_indices, nvars, kind="degrevlex"):
        """Dropped variables in a leading degrevlex block, rest after."""
        drop = tuple(sorted(drop_indices))
        keep = tuple(i for i in range(nvars) if i not in set(drop))
        blocks = []
        if drop:
            blocks.append((kind, drop))
        if keep:
            blocks.append((kind, keep))
        return cls._shared("block", blocks, nvars)

    @property
    def descriptor(self):
        """Stable string key, used for per-ideal basis caches."""
        return self._descriptor

    def pack(self, exponent):
        """The packed key of an exponent vector of total degree < DEGREE_LIMIT."""
        return sum(map(mul, self._weights, exponent))

    def unpack(self, key):
        """The exponent vector of a packed key: its raw-exponent fields."""
        raw = self._raw
        return raw.unpack(key.to_bytes(raw.size, "big"))

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder) and self._descriptor == other._descriptor
        )

    def __hash__(self):
        return hash(self._descriptor)

    def __repr__(self):
        return f"MonomialOrder({self._descriptor})"
