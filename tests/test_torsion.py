"""The saturation torsion test against the full decomposition of J.

`torsion_witnesses` decides torsion by one saturation and reports the
primes of the torsion's annihilator.  The oracle is the old method:
decompose J, keep the associated primes whose contraction strictly
contains q, and take the minimal ones.
"""

import dataclasses
import random

import pytest
from conftest import random_poly

from flatcheck import flatness, problems
from flatcheck.dsl import build_problem, parse_problem
from flatcheck.errors import Guards
from flatcheck.flatness import (
    BaseRing,
    ModuleSpec,
    RegularCover,
    build_fibred_power,
    check_flatness,
    check_flatness_regular_source,
    torsion_witnesses,
)
from flatcheck.ideals import Ideal, contract_to_base
from flatcheck.primdec import decompose
from flatcheck.rings import PolyRing

CORPUS = ("douady", "blowup", "xy-collapse", "free-module", "cusp-second-cover",
          "douady-no-cover")
VARIANTS = {"check-flat": check_flatness, "check-flat-regular-source": check_flatness_regular_source}


def _key(P):
    return tuple(str(g) for g in P.groebner())


def _oracle_keys(J, base):
    """Minimal associated primes of J contracting strictly past q."""
    if J.is_unit():
        return []
    q_basis = tuple(base.q.groebner())
    primes = [c.prime for c in decompose(J).components]
    past_q = [P for P in primes
              if tuple(contract_to_base(P, base.ring).groebner()) != q_basis]
    minimal = [P for P in past_q
               if not any(Q is not P and P.contains_ideal(Q) and not Q.contains_ideal(P)
                          for Q in past_q)]
    return sorted(_key(P) for P in minimal)


def _corpus_problem(name):
    # douady-no-cover has no regular cover; waive the failed check so that
    # both variants reach the torsion test.
    problem = build_problem(parse_problem(problems.read(name)))
    return dataclasses.replace(problem, waived=("cover_smooth",))


def _fibred_power(problem, variant, n):
    cover = None
    if variant == "check-flat":
        cover = problem.cover or RegularCover.identity(problem.base)
    return build_fibred_power(problem.base, problem.module, n, cover)[0]


# douady-no-cover has douady's module and the regular-source variant uses
# no cover, so under that variant its J is douady's.
ORACLE_CASES = [
    (variant, name) for variant in VARIANTS for name in CORPUS
    if variant == "check-flat" or name != "douady-no-cover"
]


@pytest.mark.parametrize("variant,name", ORACLE_CASES)
def test_corpus_witnesses_match_the_decomposition(variant, name):
    problem = _corpus_problem(name)
    verdict = VARIANTS[variant](problem)
    J = _fibred_power(problem, variant, verdict.n)
    with Guards(timeout=5):
        expected = _oracle_keys(J, problem.base)
    assert sorted(_key(w.prime) for w in verdict.witnesses) == expected
    assert (verdict.result == "NON_FLAT") == bool(expected)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", CORPUS)
def test_fibred_power_is_never_decomposed(variant, name, monkeypatch):
    # Only calls made by the torsion test count: base_prime decomposes q,
    # which is J itself when the module is R and there is no cover.
    fibred_powers, decomposed = [], []
    real_torsion, real_decompose = flatness.torsion_witnesses, flatness.decompose

    def torsion(J, base):
        fibred_powers.append(J)
        return real_torsion(J, base)

    def decompose(I):
        if fibred_powers:
            decomposed.append(I)
        return real_decompose(I)

    monkeypatch.setattr(flatness, "torsion_witnesses", torsion)
    monkeypatch.setattr(flatness, "decompose", decompose)
    verdict = VARIANTS[variant](_corpus_problem(name))
    (J,) = fibred_powers
    assert not any(I.equals(J) for I in decomposed)
    if verdict.result != "NON_FLAT":
        assert decomposed == []  # only witness primes call for a decomposition


def _random_bases():
    line = PolyRing(("y",))
    plane = PolyRing(("y1", "y2"))
    y1, y2 = plane.gens()
    cusp = BaseRing.create(plane, Ideal(plane, [y1**3 - y2**2]))
    cover_ring = PolyRing(("y1", "y2", "u"))
    a, b, u = cover_ring.gens()
    cover = RegularCover(cover_ring, Ideal(cover_ring, [a - u**2, b - u**3]), cusp)
    return [
        (BaseRing.create(line, Ideal(line)), None),
        (BaseRing.create(plane, Ideal(plane)), None),
        (cusp, cover),
    ]


RANDOM_BASES = _random_bases()


@pytest.mark.parametrize("case", range(50))
def test_random_module_witnesses_match_the_decomposition(case):
    rng = random.Random(case)
    base, cover = RANDOM_BASES[case % 3]
    ring = PolyRing(base.ring.variables + ("x",))
    gens = [ring.transport(g) for g in base.q.generators]
    gens += [random_poly(ring, rng, max_terms=3, max_deg=2, max_coeff=3)
             for _ in range(rng.randint(1, 2))]
    module = ModuleSpec(ring, Ideal(ring, gens), base)
    J, _ = build_fibred_power(base, module, base.n, cover)
    with Guards(timeout=2):
        witnesses, _ = torsion_witnesses(J, base)
    with Guards(timeout=2):
        expected = _oracle_keys(J, base)
    assert sorted(_key(w.prime) for w in witnesses) == expected
