"""Flatness testing over a (possibly singular) base domain.

Given a base R = Q[y]/q, a cyclic module F = Q[y,x]/I, and a regular
cover S = Q[y,u]/L, build the ideal of the n-fold fibred power tensored
with S,

    J = q + relabel_1(I) + ... + relabel_n(I) + L,

inside Q[y, x__1, ..., x__n, u], and look for associated primes of J
whose contraction to Q[y] strictly contains q.  Such a prime witnesses
torsion, hence non-flatness; absence of witnesses certifies flatness
(provided the base is asserted to be analytically irreducible and all
machine-checkable hypotheses hold).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, List, Optional, Tuple

from .errors import GuardExceeded, HypothesisViolation, InvalidInput, VariableClash
from .ideals import Ideal, contract_to_base, dimension, ideal_sum
from .primdec import decompose
from .rings import PolyRing, VarMap


@dataclass(frozen=True)
class BaseRing:
    """R = Q[y]/q with its Krull dimension n."""

    ring: PolyRing
    q: Ideal
    n: int
    n_overridden: bool = False

    @classmethod
    def create(cls, ring, q, n=None):
        if q.ring != ring:
            raise VariableClash("defining ideal outside the base ring")
        if q.is_unit():
            raise InvalidInput("base defining ideal is the unit ideal")
        computed = dimension(q)
        if n is None:
            return cls(ring, q, computed, False)
        return cls(ring, q, n, n != computed)


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


@dataclass
class HypothesisReport:
    checks: List[HypothesisCheck]

    def failures(self):
        return [c.name for c in self.checks if c.status == "fail"]

    def get(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass(frozen=True)
class Witness:
    prime: Ideal
    contraction: Ideal


@dataclass
class Verdict:
    result: str  # FLAT | NON_FLAT | TORSION_FREE
    witnesses: List[Witness]
    hypotheses: HypothesisReport
    n: int
    power_overridden: bool
    seed: int
    retries: int
    renames: Dict[str, str]
    timings: Dict[str, float] = field(default_factory=dict)
    note: str = ""


# -- fibred power construction ------------------------------------------------


def build_fibred_power(base, module, n, cover=None):
    """J = q + sum of relabelled copies of I + L, with the big ring.

    Returns (J, renames) where renames records cover variables that had
    to be renamed to avoid collisions with factor-copy names.
    """
    if n < 1:
        raise InvalidInput("fibred power requires n >= 1")
    y = list(base.ring.variables)
    xs = module.module_vars
    names = list(y)
    copies = []  # per k: {module var -> big name}
    for k in range(1, n + 1):
        labelling = {}
        for v in xs:
            name = f"{v}__{k}"
            if name in names:
                raise VariableClash(f"factor-copy name {name!r} already taken")
            names.append(name)
            labelling[v] = name
        copies.append(labelling)
    renames = {}
    if cover is not None:
        for v in cover.cover_vars:
            name = v
            while name in names:
                name = "u_" + name
            if name != v:
                renames[v] = name
            names.append(name)
    big = PolyRing(names)
    gens = [big.transport(g) for g in base.q.generators]
    for labelling in copies:
        images = {v: big.var(v) for v in y}
        images.update({v: big.var(labelling[v]) for v in xs})
        relabel = VarMap(module.ring, big, images)
        gens.extend(relabel(g) for g in module.I.generators)
    if cover is not None:
        images = {v: big.var(v) for v in y}
        images.update(
            {v: big.var(renames.get(v, v)) for v in cover.cover_vars}
        )
        extend = VarMap(cover.ring, big, images)
        gens.extend(extend(g) for g in cover.L.generators)
    return Ideal(big, gens), renames


# -- torsion test ---------------------------------------------------------------


def torsion_witnesses(J, base, seed=0):
    """Associated primes of J contracting strictly past q, with retry count."""
    for g in base.q.generators:
        if not J.contains(J.ring.transport(g)):
            raise InvalidInput("fibred-power ideal does not contain q")
    if J.is_zero():
        return [], 0
    dec = decompose(J, seed=seed)
    q_basis = tuple(base.q.groebner())
    out = []
    for comp in dec.components:
        c = contract_to_base(comp.prime, base.ring)
        if tuple(c.groebner()) != q_basis:
            out.append(Witness(comp.prime, c))
    return out, dec.retries


# -- hypothesis verification -----------------------------------------------------


def _jacobian_minor_ideal(L, dep_names, codim):
    """Ideal of codim-size minors of the Jacobian of L's generators."""
    ring = L.ring
    gens = list(L.generators)
    cols = list(ring.variables)
    from .funcfield import derivative_in

    jac = [[derivative_in(g, v) for v in cols] for g in gens]
    minors = []
    if codim == 0:
        return Ideal(ring, [ring.one()])
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


def verify_hypotheses(problem, seed=0):
    base = problem.base
    cover = problem.cover or RegularCover.identity(base)
    checks = []

    # q prime: a single component whose primary equals its prime.
    if base.q.is_zero():
        checks.append(HypothesisCheck("base_prime", "pass", "q = <0> in a domain"))
    else:
        try:
            dec = decompose(base.q, seed=seed)
            comps = dec.components
            if len(comps) == 1 and comps[0].primary.equals(comps[0].prime):
                checks.append(
                    HypothesisCheck("base_prime", "pass", "q has a single prime component")
                )
            else:
                checks.append(
                    HypothesisCheck(
                        "base_prime",
                        "fail",
                        f"q has {len(comps)} primary components",
                    )
                )
        except GuardExceeded:
            raise  # a tripped guard ends the run, it is not a verdict on q
        except Exception as exc:  # decomposition failure is a failed check
            checks.append(HypothesisCheck("base_prime", "fail", str(exc)))

    # Dimensions: dim q = n = dim L.
    dim_q = dimension(base.q)
    dim_l = dimension(cover.L)
    if dim_q == base.n == dim_l:
        checks.append(
            HypothesisCheck("dimensions", "pass", f"dim q = dim L = n = {base.n}")
        )
    else:
        checks.append(
            HypothesisCheck(
                "dimensions",
                "fail",
                f"dim q = {dim_q}, n = {base.n}, dim L = {dim_l}",
            )
        )

    # Dominance: eliminating the cover variables from L recovers exactly q.
    ker = contract_to_base(cover.L, base.ring)
    if ker.equals(base.q):
        checks.append(HypothesisCheck("cover_dominant", "pass", "contraction of L equals q"))
    else:
        checks.append(
            HypothesisCheck(
                "cover_dominant", "fail", f"contraction of L is {ker}, not q"
            )
        )

    # Smoothness: Jacobian minors at the expected codimension plus L = <1>.
    codim = cover.ring.nvars - base.n
    if cover.L.is_zero() and codim == 0:
        checks.append(HypothesisCheck("cover_smooth", "pass", "L = <0>, affine space"))
    elif codim < 0:
        checks.append(
            HypothesisCheck("cover_smooth", "fail", "cover dimension exceeds ring arity")
        )
    else:
        minors = _jacobian_minor_ideal(cover.L, cover.cover_vars, codim)
        if ideal_sum(minors, cover.L).is_unit():
            checks.append(
                HypothesisCheck(
                    "cover_smooth", "pass", "Jacobian minors + L generate <1>"
                )
            )
        else:
            checks.append(
                HypothesisCheck(
                    "cover_smooth", "fail", "Jacobian minors + L are not the unit ideal"
                )
            )

    # Analytic local irreducibility can only be asserted by the user.
    checks.append(
        HypothesisCheck(
            "analytically_irreducible",
            "asserted" if problem.analytically_irreducible else "not_asserted",
            "user-asserted; never machine-verified",
        )
    )

    # Mark waived failures.
    final = []
    for c in checks:
        if c.status == "fail" and c.name in problem.waived:
            final.append(HypothesisCheck(c.name, "waived", c.detail))
        else:
            final.append(c)
    return HypothesisReport(final)


# -- the decision procedure -------------------------------------------------------


def _run_pipeline(problem, n, cover, seed):
    t0 = time.monotonic()
    report = verify_hypotheses(problem, seed=seed)
    t1 = time.monotonic()
    failures = report.failures()
    if failures:
        raise HypothesisViolation(
            failures[0], f"hypothesis checks failed: {', '.join(failures)}"
        )
    J, renames = build_fibred_power(problem.base, problem.module, n, cover)
    t2 = time.monotonic()
    witnesses, retries = torsion_witnesses(J, problem.base, seed)
    t3 = time.monotonic()

    waived_any = any(c.status == "waived" for c in report.checks)
    note = ""
    if witnesses:
        result = "NON_FLAT"
    elif problem.analytically_irreducible and not waived_any:
        result = "FLAT"
    else:
        result = "TORSION_FREE"
        note = (
            "torsion-free, but flatness is not concluded: "
            + (
                "a failed hypothesis was waived"
                if waived_any
                else "analytic irreducibility of the base was not asserted"
            )
        )
    timings = {
        "hypotheses": t1 - t0,
        "build": t2 - t1,
        "decompose": t3 - t2,
    }
    return Verdict(
        result=result,
        witnesses=witnesses,
        hypotheses=report,
        n=n,
        power_overridden=problem.power is not None and problem.power != problem.base.n,
        seed=seed,
        retries=retries,
        renames=renames,
        timings=timings,
        note=note,
    )


def check_flatness(problem, seed=0):
    """The main criterion: n-fold fibred power tensored with the cover."""
    n = problem.power if problem.power is not None else problem.base.n
    cover = problem.cover or RegularCover.identity(problem.base)
    return _run_pipeline(problem, n, cover, seed)


def check_flatness_regular_source(problem, seed=0):
    """Regular-source variant: (n+1)-fold power, no cover."""
    n = problem.power if problem.power is not None else problem.base.n + 1
    return _run_pipeline(problem, n, None, seed)
