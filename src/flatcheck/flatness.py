"""Flatness testing over a (possibly singular) base domain.

Given a base R = Q[y]/q, a cyclic module F = Q[y,x]/I, and a regular
cover S = Q[y,u]/L, build the ideal of the n-fold fibred power tensored
with S,

    J = q + relabel_1(I) + ... + relabel_n(I) + L,

inside Q[y, x__1, ..., x__n, u], and decide whether Q[...]/J is a
torsion-free R-module by one saturation: with z a maximal independent
set of q and h the lead-coefficient lcm of J over Q(z), the torsion
submodule is T = (J : h^inf)/J (Gianni-Trager-Zacharias), so J is
torsion-free iff J : h^inf = J.  Torsion means non-flatness; the
witnesses are the minimal primes of T, whose contractions to Q[y]
strictly contain q.  Since Supp T is the union of the V(J : g) over the
generators g of J : h^inf outside J, they are the minimal elements of
the union of the minimal primes of the J : g.  J is stable under
permuting the factor copies, so J : g is computed and decomposed once
per orbit of the g under those permutations, and the other members'
primes are the permuted ones.  Torsion-freeness certifies flatness
(provided the base is asserted to be analytically irreducible and all
machine-checkable hypotheses hold).  J itself is never decomposed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, List, Optional, Tuple

from .errors import (
    FlatcheckError,
    GuardExceeded,
    HypothesisViolation,
    InvalidInput,
    VariableClash,
)
from .funcfield import derivative_in
from .ideals import (
    Ideal,
    contract_to_base,
    dimension,
    ideal_sum,
    independent_set,
    quotient,
)
from .orders import MAX_VARS
from .primdec import _contract, _prime_key, _reduced, decompose, radical
from .rings import Polynomial, PolyRing


@dataclass(frozen=True)
class BaseRing:
    """R = Q[y]/q with its Krull dimension n."""

    ring: PolyRing
    q: Ideal
    n: int

    @classmethod
    def create(cls, ring, q):
        if q.ring != ring:
            raise VariableClash("defining ideal outside the base ring")
        if q.is_unit():
            raise InvalidInput("base defining ideal is the unit ideal")
        return cls(ring, q, dimension(q))


@dataclass(frozen=True)
class ModuleSpec:
    """Cyclic module F = Q[y,x]/I over the base; requires q-extension <= I."""

    ring: PolyRing
    I: Ideal
    base: BaseRing

    def __post_init__(self):
        for v in self.base.ring.variables:
            if v not in self.ring.variables:
                raise VariableClash(f"base variable {v!r} missing from module ring")
        for g in self.base.q.generators:
            if not self.I.contains(self.ring.transport(g)):
                raise InvalidInput(
                    "module ideal does not contain the base ideal: "
                    f"{g} is missing (no R-algebra structure)"
                )

    @property
    def module_vars(self):
        base = set(self.base.ring.variables)
        return tuple(v for v in self.ring.variables if v not in base)


@dataclass(frozen=True)
class RegularCover:
    """Cover S = Q[y,u]/L; regularity/dominance are checked separately."""

    ring: PolyRing
    L: Ideal
    base: BaseRing

    def __post_init__(self):
        for v in self.base.ring.variables:
            if v not in self.ring.variables:
                raise VariableClash(f"base variable {v!r} missing from cover ring")

    @property
    def cover_vars(self):
        base = set(self.base.ring.variables)
        return tuple(v for v in self.ring.variables if v not in base)

    @classmethod
    def identity(cls, base):
        """S = R itself (the degenerate cover)."""
        return cls(base.ring, base.q, base)


@dataclass(frozen=True)
class FlatnessProblem:
    base: BaseRing
    module: ModuleSpec
    cover: Optional[RegularCover] = None
    power: Optional[int] = None  # override of n; flagged in reports
    analytically_irreducible: bool = False
    waived: Tuple[str, ...] = ()


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    status: str  # pass | fail | asserted | not_asserted | waived
    detail: str


@dataclass(frozen=True)
class Witness:
    prime: Ideal
    contraction: Ideal


@dataclass
class Verdict:
    result: str  # FLAT | NON_FLAT | TORSION_FREE
    witnesses: List[Witness]
    hypotheses: List[HypothesisCheck]
    n: int
    power_overridden: bool
    retries: int
    renames: Dict[str, str]
    timings: Dict[str, float] = field(default_factory=dict)
    note: str = ""


# -- fibred power construction ------------------------------------------------


class FibredPower(Ideal):
    """The fibred-power ideal J together with the labelling of its copies.

    copies[k] holds the ring indices of the variables of factor copy k + 1,
    in module-variable order, so permuting the copies is permuting these
    index tuples; J is stable under every such permutation.
    """

    __slots__ = ("copies",)

    def __init__(self, ring, generators, copies):
        super().__init__(ring, generators)
        self.copies = copies


def build_fibred_power(base, module, n, cover=None):
    """J = q + sum of relabelled copies of I + L, with the big ring.

    Returns (J, renames): J is a FibredPower, which carries the labelling
    of the factor copies, and renames records cover variables that had to
    be renamed to avoid collisions with factor-copy names.
    """
    if n < 1:
        raise InvalidInput("fibred power requires n >= 1")
    xs = module.module_vars
    # Refuse a ring that no order could pack before naming its variables,
    # counting each copy as at least one so that n alone is bounded too.
    cover_vars = () if cover is None else cover.cover_vars
    if len(base.ring.variables) + n * max(len(xs), 1) + len(cover_vars) > MAX_VARS:
        raise GuardExceeded("exponent", "too many variables to pack")
    names = dict.fromkeys(base.ring.variables)  # the big ring's, in order
    copies = []  # per k: {module var -> big name}
    for k in range(1, n + 1):
        labelling = {}
        for v in xs:
            name = f"{v}__{k}"
            if name in names:
                raise VariableClash(f"factor-copy name {name!r} already taken")
            names[name] = None
            labelling[v] = name
        copies.append(labelling)
    renames = {}
    for v in cover_vars:
        name = v
        while name in names:
            name = "u_" + name
        if name != v:
            renames[v] = name
        names[name] = None
    big = PolyRing(names)
    gens = [big.transport(g) for g in base.q.generators]
    for labelling in copies:
        gens.extend(_renamed(module.I, labelling, big))
    if cover is not None:
        gens.extend(_renamed(cover.L, renames, big))
    indices = tuple(tuple(big.var_index(c[v]) for v in xs) for c in copies)
    return FibredPower(big, gens, indices), renames


def _renamed(ideal, names, big):
    """The generators of ideal in big, each variable v renamed names.get(v, v)."""
    ring = PolyRing([names.get(v, v) for v in ideal.ring.variables])
    return [big.transport(Polynomial(ring, g.terms)) for g in ideal.generators]


# -- torsion test ---------------------------------------------------------------


def torsion_witnesses(J, base):
    """Minimal primes of the R-torsion T of Q[...]/J, and the number of skipped forms.

    With z = independent_set(q), q meets Q[z] only in 0 and is prime, so
    R-torsion is Q[z]-torsion and T = (J : h^inf)/J, h being the
    lead-coefficient lcm of J over Q(z).  An empty list means J is
    torsion-free.  Otherwise Supp T is the union of V(J : g) over the
    generators g of J : h^inf outside J, and the witnesses are the
    minimal elements of the union of the minimal primes of the J : g,
    sorted as `decompose` sorts primes: the minimal primes of T, that
    is, the minimal elements among the associated primes of J that
    contract strictly past q.  An associated prime of T that contains
    another witness is not listed.  Each of them contracts strictly past
    q with no check: h^s kills T, so every prime of Supp T contains h,
    and h is in Q[z] \\ {0} while q n Q[z] = 0.

    When J is a FibredPower, `_support_primes` walks the generators
    along the transpositions of the factor copies and decomposes J : g
    once per orbit; otherwise once per generator.
    """
    for g in base.q.generators:
        if not J.contains(J.ring.transport(g)):
            raise InvalidInput("fibred-power ideal does not contain q")
    if J.is_zero() or J.is_unit():
        return [], 0
    sat, _ = _contract(J, independent_set(base.q))
    extra = [g for g in sat.generators if not J.contains(g)]
    copies = J.copies if isinstance(J, FibredPower) else ()
    primes, retries = _support_primes(J, extra, copies)
    return [Witness(P, contract_to_base(P, base.ring)) for P in primes], retries


def _support_primes(J, gens, copies):
    """Minimal elements of the union of the minimal primes of J : g over
    the gens, sorted by `_prime_key`, and the summed skipped forms of the
    decompositions made.

    The walk decomposes radical(J : g) for the first g not yet reached.
    Then, for each reached m and each transposition sigma of two copies
    that maps m onto a generator not yet reached, sigma(m) gets the
    sigma-images of m's primes (`_image`), since sigma fixes J and so
    J : sigma(m) = sigma(J : m).  A missed match only costs a
    decomposition.
    """
    swaps = []
    for a, b in combinations(copies, 2):
        src = list(range(J.ring.nvars))
        for i, j in zip(a, b):
            src[i], src[j] = j, i
        swaps.append(src)
    found = {}  # reduced basis as a set -> the prime it presents
    unreached = dict.fromkeys(gens)  # an ordered set
    retries = 0
    while unreached:
        g = next(iter(unreached))
        del unreached[g]
        dec = decompose(radical(quotient(J, g)))
        retries += dec.retries
        primes = [found.setdefault(frozenset(c.prime.groebner()), c.prime)
                  for c in dec.components]
        walk = [(g, primes)]
        for m, primes in walk:  # the loop reaches members appended below
            for swap in swaps:
                if not unreached:
                    break
                member = _permuted(m, swap)
                if member in unreached:
                    del unreached[member]
                    walk.append((member, [_image(P, swap, found) for P in primes]))
    # Distinct reduced bases present distinct primes, so containment is strict.
    primes = sorted(found.values(), key=_prime_key)
    return [P for P in primes
            if not any(Q is not P and P.contains_ideal(Q) for Q in primes)], retries


def _image(P, src, found):
    """The prime P permuted by src (`_permuted`), as the prime in found
    with its reduced basis, entered there if new.  The order is not
    invariant under src, so a permuted basis is reduced again unless it
    is already a reduced basis in found."""
    mapped = [_permuted(f, src) for f in P.groebner()]
    Q = found.get(frozenset(mapped))
    if Q is None:
        Q = _reduced(Ideal(P.ring, mapped))
        Q = found.setdefault(frozenset(Q.groebner()), Q)
    return Q


def _permuted(f, src):
    """f with the exponent at index i read from index src[i]."""
    return Polynomial(
        f.ring, {tuple(map(e.__getitem__, src)): c for e, c in f.terms.items()}
    )


# -- hypothesis verification -----------------------------------------------------


def _jacobian_minor_ideal(L, codim):
    """Ideal of codim-size minors of the Jacobian of L's generators."""
    ring = L.ring
    if codim == 0:
        return Ideal(ring, [ring.one()])
    gens = list(L.generators)
    cols = list(ring.variables)
    jac = [[derivative_in(g, v) for v in cols] for g in gens]
    minors = []
    for rows in combinations(range(len(gens)), codim):
        for cs in combinations(range(len(cols)), codim):
            sub = [[jac[r][c] for c in cs] for r in rows]
            minors.append(_det(sub, ring))
    return Ideal(ring, minors)


def _det(m, ring):
    if len(m) == 1:
        return m[0][0]
    out = ring.zero()
    for j in range(len(m)):
        rest = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * _det(rest, ring)
        out = out + term if j % 2 == 0 else out - term
    return out


def _base_prime(base, cover):
    """q is prime: a single component whose primary equals its prime."""
    if base.q.is_zero():
        return True, "q = <0> in a domain"
    try:
        comps = decompose(base.q).components
    except GuardExceeded:
        raise  # a tripped guard ends the run, it is not a verdict on q
    except FlatcheckError as exc:  # a decomposition error on q fails the check
        return False, str(exc)
    if len(comps) > 1:
        return False, f"q has {len(comps)} primary components"
    (comp,) = comps
    if comp.primary.equals(comp.prime):
        return True, "q has a single prime component"
    return False, f"q is primary, not prime: rad q = {comp.prime}"


def _dimensions(base, cover):
    """dim q = n = dim L."""
    dim_q, dim_l = dimension(base.q), dimension(cover.L)
    if dim_q == base.n == dim_l:
        return True, f"dim q = dim L = n = {base.n}"
    return False, f"dim q = {dim_q}, n = {base.n}, dim L = {dim_l}"


def _cover_dominant(base, cover):
    """Eliminating the cover variables from L recovers exactly q."""
    ker = contract_to_base(cover.L, base.ring)
    if ker.equals(base.q):
        return True, "contraction of L equals q"
    return False, f"contraction of L is {ker}, not q"


def _cover_smooth(base, cover):
    """The Jacobian minors at the expected codimension and L generate <1>."""
    codim = cover.ring.nvars - base.n
    if cover.L.is_zero() and codim == 0:
        return True, "L = <0>, affine space"
    if codim < 0:
        return False, "cover dimension exceeds ring arity"
    if ideal_sum(_jacobian_minor_ideal(cover.L, codim), cover.L).is_unit():
        return True, "Jacobian minors + L generate <1>"
    return False, "Jacobian minors + L are not the unit ideal"


# The machine-checked hypotheses of the criterion, in report order.  Each
# check takes the base and the cover (the identity cover if none is given)
# and returns (ok, detail).
HYPOTHESES = (
    ("base_prime", _base_prime),
    ("dimensions", _dimensions),
    ("cover_dominant", _cover_dominant),
    ("cover_smooth", _cover_smooth),
)


def verify_hypotheses(problem):
    """One HypothesisCheck per entry of HYPOTHESES, in order, then the
    user's analytic-irreducibility assertion, which is never machine-checked.

    A failed check the problem waives reads `waived` instead of `fail`;
    a waiver that names no entry of HYPOTHESES is an InvalidInput.
    """
    names = [name for name, _ in HYPOTHESES]
    unknown = [repr(w) for w in problem.waived if w not in names]
    if unknown:
        raise InvalidInput(f"cannot waive {', '.join(unknown)}: "
                           f"valid names are {', '.join(names)}")
    base = problem.base
    cover = problem.cover or RegularCover.identity(base)
    checks = []
    for name, check in HYPOTHESES:
        ok, detail = check(base, cover)
        status = "pass" if ok else "waived" if name in problem.waived else "fail"
        checks.append(HypothesisCheck(name, status, detail))
    checks.append(
        HypothesisCheck(
            "analytically_irreducible",
            "asserted" if problem.analytically_irreducible else "not_asserted",
            "user-asserted; never machine-verified",
        )
    )
    return checks


# -- the decision procedure -------------------------------------------------------


def _run_pipeline(problem, n, cover):
    t0 = time.monotonic()
    checks = verify_hypotheses(problem)
    t1 = time.monotonic()
    failures = [c.name for c in checks if c.status == "fail"]
    if failures:
        raise HypothesisViolation(
            failures[0], f"hypothesis checks failed: {', '.join(failures)}"
        )
    J, renames = build_fibred_power(problem.base, problem.module, n, cover)
    t2 = time.monotonic()
    witnesses, retries = torsion_witnesses(J, problem.base)
    t3 = time.monotonic()

    waived_any = any(c.status == "waived" for c in checks)
    note = ""
    if witnesses:
        result = "NON_FLAT"
    elif problem.analytically_irreducible and not waived_any:
        result = "FLAT"
    else:
        result = "TORSION_FREE"
        note = "torsion-free, but flatness is not concluded: " + (
            "a failed hypothesis was waived"
            if waived_any
            else "analytic irreducibility of the base was not asserted"
        )
    timings = {"hypotheses": t1 - t0, "build": t2 - t1, "decompose": t3 - t2}
    return Verdict(
        result=result,
        witnesses=witnesses,
        hypotheses=checks,
        n=n,
        power_overridden=problem.power is not None and problem.power != problem.base.n,
        retries=retries,
        renames=renames,
        timings=timings,
        note=note,
    )


def check_flatness(problem):
    """The main criterion: n-fold fibred power tensored with the cover."""
    n = problem.power if problem.power is not None else problem.base.n
    cover = problem.cover or RegularCover.identity(problem.base)
    return _run_pipeline(problem, n, cover)


def check_flatness_regular_source(problem):
    """Regular-source variant: (n+1)-fold power, no cover."""
    n = problem.power if problem.power is not None else problem.base.n + 1
    return _run_pipeline(problem, n, None)
