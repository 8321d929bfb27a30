"""End-to-end acceptance gate.

Each criterion prints exactly one `CRITERION n: PASS|FAIL` line (written
past pytest's capture so the lines always appear in the run log).
"""

import time
from contextlib import contextmanager

import pytest

from flatcheck import problems
from flatcheck.dsl import build_problem, parse_problem
from flatcheck.flatness import build_fibred_power, check_flatness, torsion_witnesses
from flatcheck.primdec import decompose

import test_factor
import test_groebner
import test_primdec


_CAPTURE = None


@pytest.fixture(autouse=True)
def _capture(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _emit(line):
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:  # pragma: no cover - only without the autouse fixture
        print(line, flush=True)


@contextmanager
def criterion(n, budget=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        _emit(f"CRITERION {n}: FAIL")
        raise
    elapsed = time.monotonic() - start
    if budget is not None and elapsed > budget:
        _emit(f"CRITERION {n}: FAIL")
        raise AssertionError(
            f"criterion {n} exceeded its {budget}s budget ({elapsed:.1f}s)"
        )
    _emit(f"CRITERION {n}: PASS")


def load(name):
    return build_problem(parse_problem(problems.read(name)))


def contraction_keys(witnesses):
    return sorted(tuple(str(g) for g in w.contraction.groebner()) for w in witnesses)


def test_criterion_1_singular_base_detects_non_flatness():
    """Incidence module over the cusp, with the normalizing cover: NON_FLAT
    with a witness contracting exactly to the origin."""
    with criterion(1, budget=120):
        verdict = check_flatness(load("douady"))
        assert verdict.result == "NON_FLAT"
        assert verdict.n == 1
        assert contraction_keys(verdict.witnesses) == [("x", "y")] or contraction_keys(
            verdict.witnesses
        ) == [("y1", "y2")]


def test_criterion_2_without_cover_torsion_is_invisible():
    """Same module, no cover: torsion-free, exactly two associated primes,
    both contracting to the base ideal."""
    with criterion(2, budget=120):
        problem = load("douady-no-cover")
        J, _ = build_fibred_power(problem.base, problem.module, 1, None)
        witnesses, _ = torsion_witnesses(J, problem.base)
        assert witnesses == []
        primes = [c.prime for c in decompose(J).components]
        assert len(primes) == 2
        q_key = tuple(str(g) for g in problem.base.q.groebner())
        from flatcheck.ideals import contract_to_base

        for p in primes:
            c = contract_to_base(p, problem.base.ring)
            assert tuple(str(g) for g in c.groebner()) == q_key


def test_criterion_3_textbook_non_flat_families():
    """xy-collapse and the blowup chart are both detected as NON_FLAT."""
    with criterion(3, budget=60):
        t0 = time.monotonic()
        v1 = check_flatness(load("xy-collapse"))
        assert v1.result == "NON_FLAT"
        assert contraction_keys(v1.witnesses) == [("y",)]
        assert time.monotonic() - t0 < 30
        t1 = time.monotonic()
        v2 = check_flatness(load("blowup"))
        assert v2.result == "NON_FLAT"
        assert v2.n == 2
        assert contraction_keys(v2.witnesses) == [("y1", "y2")]
        assert time.monotonic() - t1 < 30


def test_criterion_4_flat_controls():
    """Known-flat inputs are certified FLAT with no witnesses."""
    with criterion(4, budget=60):
        v = check_flatness(load("free-module"))
        assert v.result == "FLAT" and v.witnesses == []

        # module = base itself
        from flatcheck.flatness import FlatnessProblem, ModuleSpec

        douady = load("douady")
        module = ModuleSpec(douady.base.ring, douady.base.q, douady.base)
        v2 = check_flatness(
            FlatnessProblem(
                douady.base, module, douady.cover, analytically_irreducible=True
            )
        )
        assert v2.result == "FLAT" and v2.witnesses == []


def test_criterion_5_cover_independence():
    """Two distinct normalizing covers give the same verdict and the same
    witness contractions."""
    with criterion(5, budget=120):
        v1 = check_flatness(load("douady"))
        v2 = check_flatness(load("cusp-second-cover"))
        assert v1.result == v2.result == "NON_FLAT"
        assert contraction_keys(v1.witnesses) == contraction_keys(v2.witnesses)


def test_criterion_6_decomposition_soundness_suite():
    """Primary decomposition passes reassembly/radical checks on every
    corpus ideal (50 random ideals, <= 3 vars, total degree <= 3)."""
    with criterion(6):
        assert len(test_primdec.CORPUS) >= 50
        for idx in range(len(test_primdec.CORPUS)):
            test_primdec.test_soundness_suite(idx)


def test_criterion_7_groebner_property_suite():
    """Reduced-basis uniqueness, NF soundness, criteria invariance, and
    mutual membership across >= 200 random instances."""
    with criterion(7):
        assert len(test_groebner.SUITE) >= 200
        test_groebner.test_property_suite_full()


def test_criterion_8_factorization_suite():
    """Univariate factorization agrees with the brute-force irreducibility
    oracle and reassembles exactly on random products."""
    with criterion(8):
        test_factor.test_random_products_roundtrip()
        test_factor.test_factor_agrees_with_oracle_on_random_inputs()
