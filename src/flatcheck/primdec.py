"""Primary decomposition and radicals (GTZ style).

Zero-dimensional ideals are split along the irreducible factors of the
minimal polynomial of a linear form.  The forms come from one fixed
sequence (`_candidate_forms`): each dependent variable alone, then
sum_i k^i x_i for k = 1, 2, ...  A leaf, where a form's minimal
polynomial is a power p^e of one irreducible p, is certified by the
shape-position test on that form: the leaf is prime when deg p equals
the vector-space dimension of its own quotient, and otherwise primary
when deg p equals that of its radical's (Seidenberg), which is then
maximal.  A form that fails the test is skipped for the next one, and
the sequence reaches a separating form after finitely many.  Every
ideal is reduced to the zero-dimensional case over Q(U) for a maximal
independent set U (empty in dimension 0), using the block-order
lead-coefficient lcm h (1 when U is empty) and the split
I = (I : h^inf)  n  (I + <h^s>).  The lcm h and the saturation
I : h^inf are computed in one place, `_contract`, for every caller:
`decompose`, `radical`, the branches of a leaf split and the torsion
test of `flatness`.  Only `decompose` searches for the exponent s.

Every factoring over Q(U), of a leaf's minimal polynomial or of a
principal generator, is one call `funcfield.ff_factor(m, t)`, which
reads U from m.  An ideal with one generator f is its own prime
component, with no split, when f is irreducible: primitive in a variable
v of least degree, and one factor of multiplicity 1 over the field of
the others.

`radical` uses the same split without decomposing:
rad(I) = rad(I : h^inf)  n  rad(I + <h>), where the first radical comes
from the squarefree parts of the eliminants over Q(U) (Seidenberg) and
the second by recursion.  It factors nothing.

Every result is a function of the input ideal alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List

from .errors import GuardExceeded, InvalidInput, NotZeroDimensional
from .funcfield import (
    content_in,
    derivative_in,
    ff_factor,
    ff_squarefree_part,
    multivariate_gcd,
    primitive_part_in,
)
from .groebner import exact_divide
from .ideals import (
    Ideal,
    _extended_ring,
    eliminate,
    ideal_sum,
    independent_set,
    intersect,
    saturate,
)
from .orders import MonomialOrder
from .rings import Polynomial, VarMap

# Saturation exponents tried before saturation counts as not stabilizing.
SATURATION_STEPS = 512


@dataclass(frozen=True)
class PrimaryComponent:
    primary: Ideal
    prime: Ideal


@dataclass
class Decomposition:
    components: List[PrimaryComponent]
    retries: int  # candidate forms that failed a leaf certificate


# -- minimal polynomials via elimination ----------------------------------------


def _eliminant(I, v, params):
    """Primitive generator in Q[params][v] of (I n Q[params][v]) over Q(params).

    The gcd over Q(params) of the elimination basis; the result lives in
    the ring of v and params.
    """
    drop = [w for w in I.ring.variables if w != v and w not in params]
    E = eliminate(I, drop)
    if not E.generators:
        raise NotZeroDimensional(f"{v} is transcendental over Q(params)")
    m = E.generators[0]
    for g in E.generators[1:]:
        m = primitive_part_in(multivariate_gcd(m, g), v)
    m = primitive_part_in(m, v)
    if m.degree_in(v) < 1:
        raise InvalidInput(f"eliminant in {v} degenerated to a constant")
    return m


def _minimal_polynomial(I, form, params=()):
    """Minimal polynomial of `form` over Q(params), modulo I.

    Returns (m, tname) with m primitive in Q[params][tname].
    """
    big, tname = _extended_ring(I.ring)
    gens = [big.transport(g) for g in I.generators]
    gens.append(big.var(tname) - big.transport(form))
    return _eliminant(Ideal(big, gens), tname, params), tname


def _substitute_form(f, tname, form, target_ring):
    """Evaluate f (in Q[params][tname]) at tname = form inside target_ring."""
    images = {}
    for v in f.ring.variables:
        images[v] = form if v == tname else target_ring.var(v)
    return VarMap(f.ring, target_ring, images)(f)


# -- standard monomial counting --------------------------------------------------


def _block_leads(I, dep_idx):
    """Each element g of I's basis under the block order that eliminates
    the variables at dep_idx, with its leading exponents at dep_idx: the
    leading monomial of g over Q(the other variables)."""
    order = MonomialOrder.elimination(dep_idx, I.ring.nvars)
    for g in I.groebner(order):
        lm = g.leading_term(order)[0]
        yield g, tuple(lm[i] for i in dep_idx)


def vector_space_dimension(I, params=()):
    """dim_{Q(params)} of the quotient; requires zero-dim over Q(params).

    Counts the standard monomials in the box of pure-power bounds.
    """
    ring = I.ring
    dep_idx = [i for i, v in enumerate(ring.variables) if v not in params]
    if not dep_idx:
        raise NotZeroDimensional("no dependent variables")
    leads = {lead for _, lead in _block_leads(I, dep_idx)}
    if any(all(e == 0 for e in lm) for lm in leads):
        return 0  # unit ideal over Q(params)
    k = len(dep_idx)
    bounds = []
    for i in range(k):
        pure = [
            lm[i]
            for lm in leads
            if all(e == 0 for j, e in enumerate(lm) if j != i)
        ]
        if not pure:
            raise NotZeroDimensional(
                f"no pure power of {ring.variables[dep_idx[i]]} in the lead-term ideal"
            )
        bounds.append(min(pure))
    count = 0
    for exps in itertools.product(*(range(b) for b in bounds)):
        if not any(all(l <= e for l, e in zip(lm, exps)) for lm in leads):
            count += 1
    return count


# -- contraction from Q(U)[deps] back to Q[x] ------------------------------------


def _lead_coefficient_lcm(I, params):
    """Monic squarefree lcm of the Q[params]-leading coefficients of the
    block-order basis: the squarefree part of their product."""
    ring = I.ring
    if not params:
        return ring.one()  # every coefficient over Q is a constant
    dep_idx = [i for i, v in enumerate(ring.variables) if v not in params]
    h = ring.one()
    for g, lead_dep in _block_leads(I, dep_idx):
        coeff_terms = {}
        for exps, c in g.terms.items():
            if tuple(exps[i] for i in dep_idx) == lead_dep:
                key = list(exps)
                for i in dep_idx:
                    key[i] = 0
                coeff_terms[tuple(key)] = c
        lc = Polynomial(ring, coeff_terms)
        if not lc.is_constant():
            h = h * lc
    if h.is_constant():
        return h
    # Only the radical of h matters for the saturation split, so strip
    # repeated factors; this keeps the I + <h^s> branch degrees small.
    return _squarefree_multivariate(h).monic()


def _squarefree_multivariate(h):
    """Product of the distinct irreducible factors of h (characteristic 0).

    For a one-term h, c*x^a, that is c times the product of the variables
    of x^a, with no gcd taken.
    """
    if len(h.terms) == 1 and not h.is_constant():
        ((e, c),) = h.terms.items()
        return h.ring.monomial([min(k, 1) for k in e], c)
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
    """(I : h^inf, h), with h the lead-coefficient lcm of I over Q(params);
    I itself for a constant h, as when params is empty.

    I : h^inf is I . Q(params)[deps] n Q[x] (Gianni-Trager-Zacharias).
    This is the one place the program finds h and saturates by it; only
    `decompose` goes on to find the exponent (`_saturation_exponent`).
    """
    h = _lead_coefficient_lcm(I, params)
    if h.is_constant():
        return I, h
    return saturate(I, h), h


def _saturation_exponent(I, sat, h):
    """The least s with h^s * sat inside I, sat being I : h^inf: also the
    least s with I : h^s = I : h^inf.  At most SATURATION_STEPS values
    of s are tried."""
    gens = sat.generators
    for exponent in range(SATURATION_STEPS):
        if all(I.contains(g) for g in gens):
            return exponent
        gens = [g * h for g in gens]
    raise GuardExceeded("saturation", "saturation exponent not found")


# -- zero-dimensional decomposition over Q(params) --------------------------------


def _candidate_forms(ring, dep_names):
    """The fixed sequence of linear forms a leaf tries, sparsest first.

    Each dependent variable alone, from the last to the first, then
    sum_i k^i x_i for k = 1, 2, 3, ...  The sequence reaches a form that
    separates the D points of V(J) over the algebraic closure of
    Q(params): for two distinct points P and Q, sum_i k^i (P_i - Q_i) is a
    non-zero polynomial in k of degree at most n - 1 (n dependent
    variables), so at most (n - 1) D (D - 1) / 2 values of k fail to
    separate some pair.  On a separating form the leaf either splits or
    passes its certificate, so no leaf tries forms forever.
    """
    xs = [ring.var(v) for v in dep_names]
    yield from reversed(xs)
    for k in itertools.count(1):
        yield sum((ring.const(k**i) * x for i, x in enumerate(xs)), ring.zero())


def _radical_over_field(I, params):
    """Radical of I over Q(params) (Seidenberg), contracted to Q[x].

    An eliminant m lies in I.Q(params)[x], so one that is its own
    squarefree part adds nothing; when none adds anything, I itself is
    contracted, with the bases it has cached.
    """
    ring = I.ring
    deps = [v for v in ring.variables if v not in params]
    parts = []
    for xj in deps:
        m = _eliminant(I, xj, params)
        part = ff_squarefree_part(m, xj)
        if part is not m:
            parts.append(ring.transport(part))
    rad = Ideal(ring, I.generators + tuple(parts)) if parts else I
    return _contract(rad, params)[0]


def _reduced(I):
    """Ideal re-presented by its reduced degrevlex basis (canonical form).

    It is the same ideal, so it keeps every basis I has cached.
    """
    gb = I.groebner()
    out = Ideal(I.ring, tuple(gb))
    out._cache.update(I._cache)
    return out


def _zero_dim_over_field(I, params):
    """Primary components of I, zero-dimensional over Q(params).

    Returns them with the number of candidate forms that failed a leaf
    certificate.  For params != (), I must already equal the contraction
    of its own Q(params)-extension (i.e. be saturated by the
    lead-coefficient lcm).
    """
    ring = I.ring
    deps = [v for v in ring.variables if v not in params]
    out = []
    skipped = 0
    stack = [I]
    while stack:
        J = stack.pop()
        if J.is_unit():
            continue
        # Re-present by the reduced basis: split branches otherwise carry
        # huge raw generators into every elimination below.
        J = _reduced(J)
        dim_j = prime = None
        for form in _candidate_forms(ring, deps):
            m, tname = _minimal_polynomial(J, form, params)
            factors = ff_factor(m, tname)
            if len(factors) > 1:
                for f, e in factors:
                    fe = _substitute_form(f, tname, form, ring) ** e
                    sub = ideal_sum(J, Ideal(ring, [fe]))
                    stack.append(_contract(sub, params)[0])
                break
            # With K = Q(params), K[form] = K[t]/(p) is a field inside
            # K[x]/P for P the radical of J.  If deg p equals the
            # K-dimension of K[x]/J, it fills K[x]/J, which is then a field:
            # J is maximal over K, its own radical and, being contracted,
            # prime in Q[x].  Otherwise the radical is computed once; equal
            # K-dimensions of K[form] and K[x]/P make P maximal over K,
            # hence prime, and J P-primary.
            ((p, _),) = factors
            degree = p.degree_in(tname)
            if dim_j is None:
                dim_j = vector_space_dimension(J, params)
            if degree == dim_j:
                out.append(PrimaryComponent(J, J))
                break
            if prime is None:
                prime = _radical_over_field(J, params)
                dim = vector_space_dimension(prime, params)
            if degree == dim:
                out.append(PrimaryComponent(J, _reduced(prime)))
                break
            skipped += 1
    return out, skipped


# -- general decomposition ---------------------------------------------------------


def decompose(I):
    """Irredundant primary decomposition in any dimension.

    An ideal with one generator f that `_principal_prime` proves
    irreducible is its own single prime component, with no independent
    set, saturation, minimal polynomial or dimension count; every other
    ideal goes through the split below.
    """
    if I.is_zero():
        return Decomposition([PrimaryComponent(I, I)], 0)
    if I.is_unit():
        raise InvalidInput("decomposition of the unit ideal")
    if _principal_prime(I):
        P = _reduced(I)
        return Decomposition([PrimaryComponent(P, P)], 0)
    comps = []
    skipped = 0
    stack = [I]
    while stack:
        J = stack.pop()
        if J.is_unit():
            continue
        J = _reduced(J)
        U = independent_set(J)
        J1, h = _contract(J, U)
        s = 0 if h.is_constant() else _saturation_exponent(J, J1, h)
        if not J1.is_unit():
            leaves, failed = _zero_dim_over_field(J1, U)
            comps.extend(leaves)
            skipped += failed
        if s > 0:
            stack.append(ideal_sum(J, Ideal(J.ring, [h**s])))
    return Decomposition(_irredundant(comps), skipped)


def _principal_prime(I):
    """True iff I = <f> for one irreducible f.

    With v a variable of least positive degree in f (the first such in
    the ring), f is irreducible iff it is primitive in Q[others][v] and
    `ff_factor` finds one factor of multiplicity 1 over Q(others).
    """
    if len(I.generators) != 1:
        return False
    (f,) = I.generators
    used = [(f.degree_in(w), w) for w in f.ring.variables if f.degree_in(w) > 0]
    _, v = min(used, key=lambda pair: pair[0])  # the first of least degree
    return content_in(f, v).is_constant() and [e for _, e in ff_factor(f, v)] == [1]


def _prime_key(P):
    gb = P.groebner()
    return tuple(str(g) for g in gb)


def _irredundant(comps):
    """Drop redundant components and sort the rest by prime.

    No two components share a prime, so none are merged.  `decompose`
    follows one chain J_(k+1) = J_k + <h_k^(s_k)>: the primes found at
    level k do not contain h_k, and those of every later level do.
    Within one level, the leaves come from coprime factors over Q(U).
    """
    items = sorted(comps, key=lambda c: _prime_key(c.prime))
    # Drop each component containing the intersection of the others, in
    # one pass: a drop only enlarges the intersection of the rest, so a
    # component once kept never becomes redundant.
    kept = []
    for j, comp in enumerate(items):
        rest = kept + items[j + 1:]
        if rest:
            inter = rest[0].primary
            for c in rest[1:]:
                inter = intersect(inter, c.primary)
            if comp.primary.contains_ideal(inter):
                continue
        kept.append(comp)
    return kept


def radical(I):
    """Radical of I, by the split rad(I) = rad(I : h^inf) n rad(I + <h>).

    No factoring: rad(I : h^inf) is the Seidenberg radical over Q(U) for
    a maximal independent set U, contracted back.
    The recursion ends because h is in Q[U] \\ {0}, so h is not in rad(I)
    and each step strictly enlarges the radical.
    """
    if I.is_zero() or I.is_unit():
        return I
    U = independent_set(I)
    sat, h = _contract(I, U)
    rad = _radical_over_field(sat, U)
    if h.is_constant():
        return _reduced(rad)
    rest = radical(ideal_sum(I, Ideal(I.ring, [h])))
    if not rest.is_unit():
        rad = intersect(rad, rest)
    return _reduced(rad)
