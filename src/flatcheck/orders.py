"""Monomial orders: lex, degrevlex, and block orders for elimination.

Orders are global (1 is minimal) by construction: every block kind is a
well-ordering on its own variables and the blocks partition all of them.
"""

from __future__ import annotations

from . import _kernels
from .errors import InvalidInput, VariableClash


class MonomialOrder:
    """A total, multiplicative, global order on exponent vectors.

    ``spec`` is a tuple of ``(kind, indices)`` blocks consumed by the
    monomial kernels; ``nvars`` is the ambient variable count.
    """

    __slots__ = ("kind", "spec", "nvars", "_descriptor")

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

    @classmethod
    def lex(cls, nvars):
        return cls("lex", (("lex", tuple(range(nvars))),), nvars)

    @classmethod
    def degrevlex(cls, nvars):
        return cls("degrevlex", (("degrevlex", tuple(range(nvars))),), nvars)

    @classmethod
    def block(cls, blocks, nvars):
        """Block order from ``(kind, indices)`` pairs, leftmost block first."""
        return cls("block", tuple(blocks), nvars)

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
        return cls("block", tuple(blocks), nvars)

    @property
    def descriptor(self):
        """Stable string key, used for per-ideal basis caches."""
        return self._descriptor

    def compare(self, a, b):
        if len(a) != self.nvars or len(b) != self.nvars:
            raise VariableClash("exponent length does not match order arity")
        return _kernels.monomial_cmp(a, b, self.spec)

    def key(self, exponent):
        """Sort key: key(a) < key(b) iff a < b under this order."""
        parts = []
        for kind, indices in self.spec:
            if kind == "degrevlex":
                parts.append(sum(exponent[i] for i in indices))
                parts.extend(-exponent[i] for i in reversed(indices))
            else:
                parts.extend(exponent[i] for i in indices)
        return tuple(parts)

    def leading(self, exponents):
        return _kernels.leading_exponent(exponents, self.spec)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder) and self._descriptor == other._descriptor
        )

    def __hash__(self):
        return hash(self._descriptor)

    def __repr__(self):
        return f"MonomialOrder({self._descriptor})"
