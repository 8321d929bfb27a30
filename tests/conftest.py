"""Shared helpers for the test suite."""

import json
import random
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest

from flatcheck.errors import GuardExceeded
from flatcheck.rings import PolyRing


@pytest.fixture
def qxy():
    return PolyRing(("x", "y"))


@pytest.fixture
def qxyz():
    return PolyRing(("x", "y", "z"))


def random_poly(ring, rng, max_terms=4, max_deg=3, max_coeff=5):
    """Small random polynomial; may be zero."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
        coeff = Fraction(rng.randint(-max_coeff, max_coeff))
        if coeff:
            terms[exps] = coeff
    f = ring.zero()
    for exps, c in terms.items():
        f = f + ring.monomial(exps, c)
    return f


def nonzero_random_poly(ring, rng, **kw):
    while True:
        f = random_poly(ring, rng, **kw)
        if not f.is_zero():
            return f


def seeded(seed):
    return random.Random(seed)


@contextmanager
def cut_at_line(k):
    """Raise GuardExceeded("time") at the k-th line run by the calls made in
    the block, as a time guard's alarm may land at any point of a run."""
    seen = 0

    def trace(frame, event, arg):
        nonlocal seen
        if event == "line":
            seen += 1
            if seen == k:
                raise GuardExceeded("time")
        return trace

    before = sys.gettrace()
    sys.settrace(trace)
    try:
        yield
    finally:
        sys.settrace(before)


def _refuse_constant(name):
    raise ValueError(f"{name} is not a JSON number (RFC 8259)")


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_refuse_constant)
