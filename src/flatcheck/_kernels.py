"""Monomial kernels: the hot exponent-vector operations.

Exponent vectors are tuples of non-negative ints, one entry per ring
variable.  An order spec is a tuple of blocks; each block is a pair
``(kind, indices)`` with ``kind`` in ``{"lex", "degrevlex"}`` and
``indices`` the variable positions the block compares.  Blocks are
compared left to right.

The Groebner core does not use these kernels on its terms: it works on
packed monomial keys (`orders.MonomialOrder.pack`), where a product is one
int addition and a divisibility test one mask test.  The kernels serve the
exponent-tuple paths around it: polynomial arithmetic in `rings`, leading
terms, and the lcm of each new Buchberger pair.
"""

IMPLEMENTATION = "pure"


def monomial_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def monomial_div(b, a):
    """b / a.  Caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(b, a))


def monomial_divides(a, b):
    """True iff a divides b."""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def monomial_lcm(a, b):
    return tuple(map(max, a, b))


def total_degree(a):
    return sum(a)


def _cmp(a, b, spec):
    for kind, indices in spec:
        if kind == "degrevlex":
            da = 0
            db = 0
            for i in indices:
                da += a[i]
                db += b[i]
            if da != db:
                return -1 if da < db else 1
            for i in reversed(indices):
                if a[i] != b[i]:
                    return 1 if a[i] < b[i] else -1
        else:  # lex
            for i in indices:
                if a[i] != b[i]:
                    return -1 if a[i] < b[i] else 1
    return 0


def monomial_cmp(a, b, spec):
    """-1, 0, or 1 as a <, =, > b under the block order spec."""
    return _cmp(a, b, spec)


def leading_exponent(exps, spec):
    """Largest exponent vector under spec among the iterable exps."""
    # Compares through the private _cmp, so that a wrapper installed over
    # the public kernels (perfbench/tracer.py) counts one leading_exponent
    # call here, not one call per comparison.
    best = None
    for e in exps:
        if best is None or _cmp(e, best, spec) > 0:
            best = e
    return best


def find_divisor(m, lms):
    """Index of the first entry of lms dividing m, or -1."""
    for i, lm in enumerate(lms):
        ok = True
        for x, y in zip(lm, m):
            if x > y:
                ok = False
                break
        if ok:
            return i
    return -1
