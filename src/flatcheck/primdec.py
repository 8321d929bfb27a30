"""Primary decomposition, associated primes, and radicals (GTZ style).

Zero-dimensional ideals are split along the irreducible factors of the
minimal polynomial of a seeded generic linear form; a leaf is certified
primary by checking that its radical (Seidenberg) is maximal via the
shape-position test.  Positive-dimensional ideals are reduced to the
zero-dimensional case over Q(U) for a maximal independent set U, using
the block-order lead-coefficient lcm h and the split
I = (I : h^inf)  n  (I + <h^s>).

Everything is deterministic given (input, seed); generic choices that
fail are retried with a bounded budget.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import List

from .errors import GenericityFailure, InvalidInput, NotZeroDimensional
from .funcfield import (
    _ff_exact_div,
    derivative_in,
    ff_factor,
    ff_gcd_in_t,
    primitive_part_in,
)
from .ideals import (
    Ideal,
    _extended_ring,
    dimension,
    eliminate,
    ideal_sum,
    independent_sets,
    intersect,
    saturate,
)
from .orders import MonomialOrder
from .rings import VarMap

# Generic redraws allowed before a decomposition gives up.
RETRIES = 8


@dataclass(frozen=True)
class PrimaryComponent:
    primary: Ideal
    prime: Ideal


@dataclass
class Decomposition:
    components: List[PrimaryComponent]
    seed: int
    retries: int  # generic redraws consumed before success


class _Retry(Exception):
    """A generic choice failed a certificate; redraw and restart."""


# -- minimal polynomials via elimination ----------------------------------------


def _minimal_polynomial(I, form, params=()):
    """Minimal polynomial of `form` over Q(params), modulo I.

    Returns (m, tname, ering) with m a primitive polynomial in
    Q[params][tname] living in the elimination ring ering.
    """
    ring = I.ring
    big, (tname,) = _extended_ring(ring, ["t"], front=True)
    gens = [big.transport(g) for g in I.generators]
    gens.append(big.var(tname) - big.transport(form))
    drop = [v for v in ring.variables if v not in params]
    E = eliminate(Ideal(big, gens), drop)
    if not E.generators:
        raise InvalidInput("form is transcendental: ideal not zero-dimensional")
    m = E.generators[0]
    for g in E.generators[1:]:
        m = ff_gcd_in_t(m, g, tname)
    m = primitive_part_in(m, tname)
    if m.degree_in(tname) < 1:
        raise InvalidInput("minimal polynomial degenerated to a constant")
    return m, tname, E.ring


def _substitute_form(f, tname, form, target_ring):
    """Evaluate f (in Q[params][tname]) at tname = form inside target_ring."""
    images = {}
    for v in f.ring.variables:
        images[v] = form if v == tname else target_ring.var(v)
    return VarMap(f.ring, target_ring, images)(f)


def _ff_squarefree_part(m, tname):
    g = ff_gcd_in_t(m, derivative_in(m, tname), tname)
    if g.degree_in(tname) == 0:
        return m
    return _ff_exact_div(m, g, tname)


# -- standard monomial counting --------------------------------------------------


def _dep_lead_exponents(I, dep_names):
    """Leading exponents over Q(U), restricted to the dep positions."""
    ring = I.ring
    dep_idx = [ring.var_index(v) for v in dep_names]
    order = MonomialOrder.elimination(dep_idx, ring.nvars)
    gb = I.groebner(order)
    leads = set()
    for g in gb:
        lm = g.leading_term(order)[0]
        leads.add(tuple(lm[i] for i in dep_idx))
    return sorted(leads)


def vector_space_dimension(I, params=()):
    """dim_{Q(params)} of the quotient; requires zero-dim over Q(params)."""
    ring = I.ring
    deps = [v for v in ring.variables if v not in params]
    if not deps:
        raise NotZeroDimensional("no dependent variables")
    leads = _dep_lead_exponents(I, deps)
    if any(all(e == 0 for e in lm) for lm in leads):
        return 0  # unit ideal over Q(params)
    k = len(deps)
    bounds = []
    for i in range(k):
        pure = [
            lm[i]
            for lm in leads
            if all(e == 0 for j, e in enumerate(lm) if j != i)
        ]
        if not pure:
            raise NotZeroDimensional(
                f"no pure power of {deps[i]} in the lead-term ideal"
            )
        bounds.append(min(pure))
    count = 0
    for exps in itertools.product(*(range(b) for b in bounds)):
        if not any(all(l <= e for l, e in zip(lm, exps)) for lm in leads):
            count += 1
    return count


# -- contraction from Q(U)[deps] back to Q[x] ------------------------------------


def _lead_coefficient_lcm(I, params):
    """lcm of the Q[params]-leading coefficients of the block-order basis."""
    from .funcfield import multivariate_gcd, exact_divide

    ring = I.ring
    deps = [v for v in ring.variables if v not in params]
    dep_idx = [ring.var_index(v) for v in deps]
    order = MonomialOrder.elimination(dep_idx, ring.nvars)
    gb = I.groebner(order)
    h = ring.one()
    for g in gb:
        lm = g.leading_term(order)[0]
        dep_part = tuple(lm[i] if i in set(dep_idx) else 0 for i in range(ring.nvars))
        coeff_terms = {}
        for exps, c in g.terms.items():
            if tuple(exps[i] for i in dep_idx) == tuple(lm[i] for i in dep_idx):
                key = list(exps)
                for i in dep_idx:
                    key[i] = 0
                coeff_terms[tuple(key)] = c
        from .rings import Polynomial

        lc = Polynomial(ring, coeff_terms)
        if lc.is_constant():
            continue
        g_ = multivariate_gcd(h, lc)
        h = exact_divide(h * lc, g_) if not g_.is_constant() else h * lc
    if h.is_zero() or h.is_constant():
        return h
    # Only the radical of h matters for the saturation split, so strip
    # repeated factors; this keeps the I + <h^s> branch degrees small.
    return _squarefree_multivariate(h).monic()


def _squarefree_multivariate(h):
    """Product of the distinct irreducible factors of h (characteristic 0)."""
    from .funcfield import exact_divide, derivative_in, multivariate_gcd

    g = None
    for v in sorted(h.variables_used()):
        d = derivative_in(h, v)
        if d.is_zero():
            continue
        g = d if g is None else multivariate_gcd(g, d)
    if g is None:
        return h
    g = multivariate_gcd(h, g)
    if g.is_constant():
        return h
    return exact_divide(h, g)


def _contract(I, params):
    """I . Q(params)[deps] n Q[x], via saturation by the lead-coeff lcm."""
    h = _lead_coefficient_lcm(I, params)
    if h.is_constant():
        return I
    sat, _ = saturate(I, h)
    return sat


# -- zero-dimensional decomposition over Q(params) --------------------------------


def _generic_form(ring, dep_names, rng):
    f = ring.zero()
    for v in dep_names:
        c = rng.choice([1, -1]) * rng.randint(1, 7)
        f = f + ring.const(c) * ring.var(v)
    return f


def _certify_maximal(P, params, rng):
    """Shape-position certificate that P is maximal over Q(params)."""
    ring = P.ring
    deps = [v for v in ring.variables if v not in params]
    form = _generic_form(ring, deps, rng)
    m, tname, _ = _minimal_polynomial(P, form, params)
    factors = ff_factor(m, tname, [v for v in m.ring.variables if v != tname])
    if len(factors) != 1 or factors[0][1] != 1:
        raise _Retry("radical is not prime for this projection")
    if m.degree_in(tname) != vector_space_dimension(P, params):
        raise _Retry("projection form is not separating")


def _radical_over_field(I, params):
    """Radical of I over Q(params) (Seidenberg), contracted to Q[x]."""
    ring = I.ring
    deps = [v for v in ring.variables if v not in params]
    gens = list(I.generators)
    for xj in deps:
        others = set(deps) - {xj}
        E = eliminate(I, others)
        if not E.generators:
            raise NotZeroDimensional(f"{xj} is transcendental over Q(params)")
        m = E.generators[0]
        for g in E.generators[1:]:
            m = ff_gcd_in_t(m, g, xj)
        m = primitive_part_in(m, xj)
        gens.append(ring.transport(_ff_squarefree_part(m, xj)))
    rad = Ideal(ring, gens)
    if params:
        rad = _contract(rad, params)
    return rad


def _reduced(I):
    """Ideal re-presented by its reduced degrevlex basis (canonical form)."""
    gb = I.groebner()
    out = Ideal(I.ring, tuple(gb))
    out._cache[gb.order.descriptor] = gb
    return out


def _zero_dim_over_field(I, params, rng):
    """Primary components of I, zero-dimensional over Q(params).

    For params != (), I must already equal the contraction of its own
    Q(params)-extension (i.e. be saturated by the lead-coefficient lcm).
    """
    ring = I.ring
    deps = [v for v in ring.variables if v not in params]
    out = []
    stack = [I]
    while stack:
        J = stack.pop()
        if J.is_unit():
            continue
        # Re-present by the reduced basis: split branches otherwise carry
        # huge raw generators into every elimination below.
        J = _reduced(J)
        form = _generic_form(ring, deps, rng)
        m, tname, _ = _minimal_polynomial(J, form, params)
        factors = ff_factor(m, tname, [v for v in m.ring.variables if v != tname])
        if len(factors) == 1:
            prime = _radical_over_field(J, params)
            _certify_maximal(prime, params, rng)
            out.append(PrimaryComponent(_reduced(J), _reduced(prime)))
            continue
        for f, e in factors:
            fe = _substitute_form(f, tname, form, ring) ** e
            sub = ideal_sum(J, Ideal(ring, [fe]))
            if params:
                sub = _contract(sub, params)
            stack.append(sub)
    return out


def zero_dim_decompose(I, seed=0):
    """Irredundant primary decomposition of a zero-dimensional ideal."""
    if I.is_unit():
        raise InvalidInput("decomposition of the unit ideal")
    if dimension(I) != 0:
        raise NotZeroDimensional("ideal is not zero-dimensional")
    comps, _ = _with_retries(lambda rng: _zero_dim_over_field(I, (), rng), seed)
    return _irredundant(comps)


def _with_retries(fn, seed):
    last = None
    for attempt in range(RETRIES):
        rng = random.Random(1_000_003 * seed + attempt)
        try:
            return fn(rng), attempt
        except _Retry as exc:
            last = exc
    raise GenericityFailure(f"retry budget exhausted: {last}")


# -- general decomposition ---------------------------------------------------------


def _decompose_once(I, rng):
    comps = []
    stack = [I]
    while stack:
        J = stack.pop()
        if J.is_unit():
            continue
        J = _reduced(J)
        d = dimension(J)
        if d < 0:
            continue
        if d == 0:
            comps.extend(_zero_dim_over_field(J, (), rng))
            continue
        U = independent_sets(J)[0]
        h = _lead_coefficient_lcm(J, U)
        if h.is_constant():
            comps.extend(_zero_dim_over_field(J, U, rng))
            continue
        J1, s = saturate(J, h)
        if not J1.is_unit():
            comps.extend(_zero_dim_over_field(J1, U, rng))
        if s > 0:
            stack.append(ideal_sum(J, Ideal(J.ring, [h**s])))
    return comps


def decompose(I, seed=0):
    """Irredundant primary decomposition in any dimension."""
    if I.is_zero():
        return Decomposition([PrimaryComponent(I, I)], seed, 0)
    if I.is_unit():
        raise InvalidInput("decomposition of the unit ideal")
    comps, attempts = _with_retries(lambda rng: _decompose_once(I, rng), seed)
    return Decomposition(_irredundant(comps), seed, attempts)


def _prime_key(P):
    gb = P.groebner()
    return tuple(str(g) for g in gb)


def _irredundant(comps):
    """Merge same-prime primaries, drop redundant components, sort."""
    by_prime = {}
    for c in comps:
        key = _prime_key(c.prime)
        if key in by_prime:
            prev = by_prime[key]
            merged = _reduced(intersect(prev.primary, c.primary))
            by_prime[key] = PrimaryComponent(merged, prev.prime)
        else:
            by_prime[key] = c
    items = [by_prime[k] for k in sorted(by_prime)]
    # Drop any component containing the intersection of the others.
    changed = True
    while changed and len(items) > 1:
        changed = False
        for j in range(len(items)):
            rest = [c for i, c in enumerate(items) if i != j]
            inter = rest[0].primary
            for c in rest[1:]:
                inter = intersect(inter, c.primary)
            if items[j].primary.contains_ideal(inter):
                items.pop(j)
                changed = True
                break
    return items


def associated_primes(I, seed=0):
    """Ass of ring/I, embedded primes included, canonically sorted."""
    dec = decompose(I, seed)
    return [c.prime for c in dec.components]


def radical_and_minimal(I, seed=0):
    """(radical, minimal primes) from a primary decomposition."""
    primes = associated_primes(I, seed)
    minimal = []
    for p in primes:
        if not any(q is not p and p.contains_ideal(q) for q in primes):
            minimal.append(p)
    rad = minimal[0]
    for p in minimal[1:]:
        rad = intersect(rad, p)
    return _reduced(rad), minimal
