"""The flatness pipeline: fibred powers, torsion witnesses, hypotheses."""

import pytest

from flatcheck import problems
from flatcheck.dsl import build_problem, parse_problem
from flatcheck.errors import GuardExceeded, Guards, HypothesisViolation, InvalidInput
from flatcheck.flatness import (
    BaseRing,
    FlatnessProblem,
    ModuleSpec,
    RegularCover,
    build_fibred_power,
    check_flatness,
    check_flatness_regular_source,
    torsion_witnesses,
    verify_hypotheses,
)
from flatcheck.ideals import Ideal, contract_to_base, ideal_sum
from flatcheck.primdec import radical_and_minimal
from flatcheck.rings import PolyRing, VarMap


# -- shared fixtures ------------------------------------------------------------


@pytest.fixture(scope="module")
def cusp_base():
    ring = PolyRing(("y1", "y2"))
    y1, y2 = ring.gens()
    return BaseRing.create(ring, Ideal(ring, [4 * y1**3 + 27 * y2**2]))


@pytest.fixture(scope="module")
def cusp_cover(cusp_base):
    ring = PolyRing(("y1", "y2", "u"))
    y1, y2, u = ring.gens()
    return RegularCover(ring, Ideal(ring, [y1 + 3 * u**2, y2 - 2 * u**3]), cusp_base)


@pytest.fixture(scope="module")
def incidence_module(cusp_base):
    ring = PolyRing(("y1", "y2", "x"))
    y1, y2, x = ring.gens()
    rad, _ = radical_and_minimal(
        Ideal(ring, [4 * y1**3 + 27 * y2**2, x**3 + y1 * x + y2])
    )
    return ModuleSpec(ring, rad, cusp_base)


@pytest.fixture(scope="module")
def plane_base():
    ring = PolyRing(("y1", "y2"))
    return BaseRing.create(ring, Ideal(ring))


@pytest.fixture(scope="module")
def blowup_module(plane_base):
    ring = PolyRing(("y1", "y2", "x"))
    y1, y2, x = ring.gens()
    return ModuleSpec(ring, Ideal(ring, [y2 * x - y1]), plane_base)


# -- build_fibred_power -----------------------------------------------------------


def test_fibred_power_douady(cusp_base, incidence_module, cusp_cover):
    J, renames = build_fibred_power(cusp_base, incidence_module, 1, cusp_cover)
    assert renames == {}
    big = J.ring
    assert set(("y1", "y2", "x__1", "u")) == set(big.variables)
    # contains the cover relations and the relabelled module relations
    assert J.contains(big.var("y1") + 3 * big.var("u") ** 2)
    assert J.contains(big.var("y2") - 2 * big.var("u") ** 3)
    xc = big.var("x__1")
    assert J.contains(xc**3 + big.var("y1") * xc + big.var("y2"))


def test_fibred_power_relabeling(plane_base, blowup_module):
    J, _ = build_fibred_power(plane_base, blowup_module, 2, None)
    big = J.ring
    y1, y2 = big.var("y1"), big.var("y2")
    x1, x2 = big.var("x__1"), big.var("x__2")
    assert J.equals(Ideal(big, [y2 * x1 - y1, y2 * x2 - y1]))


def test_fibred_power_trivial_module(cusp_base, cusp_cover):
    # F = R: J = q + L
    module = ModuleSpec(cusp_base.ring, cusp_base.q, cusp_base)
    J, _ = build_fibred_power(cusp_base, module, 1, cusp_cover)
    big = J.ring
    expected = [big.transport(g) for g in cusp_base.q.generators]
    expected += [
        big.var("y1") + 3 * big.var("u") ** 2,
        big.var("y2") - 2 * big.var("u") ** 3,
    ]
    assert J.equals(Ideal(big, expected))


def test_fibred_power_requires_positive_n(cusp_base, incidence_module):
    with pytest.raises(InvalidInput):
        build_fibred_power(cusp_base, incidence_module, 0, None)


def test_cover_variable_renaming(cusp_base):
    # A cover variable colliding with a factor-copy name gets renamed.
    mod_ring = PolyRing(("y1", "y2", "x"))
    module = ModuleSpec(
        mod_ring,
        Ideal(mod_ring, [mod_ring.transport(g) for g in cusp_base.q.generators]),
        cusp_base,
    )
    cov_ring = PolyRing(("y1", "y2", "x__1"))
    c = cov_ring.var("x__1")
    cover = RegularCover(
        cov_ring,
        Ideal(cov_ring, [cov_ring.var("y1") + 3 * c**2, cov_ring.var("y2") - 2 * c**3]),
        cusp_base,
    )
    J, renames = build_fibred_power(cusp_base, module, 1, cover)
    assert renames == {"x__1": "u_x__1"}
    assert "u_x__1" in J.ring.variables


# -- torsion_witnesses --------------------------------------------------------------


def test_douady_witness(cusp_base, incidence_module, cusp_cover):
    J, _ = build_fibred_power(cusp_base, incidence_module, 1, cusp_cover)
    wits, _ = torsion_witnesses(J, cusp_base)
    assert wits
    origin = Ideal(cusp_base.ring, [cusp_base.ring.var("y1"), cusp_base.ring.var("y2")])
    assert any(w.contraction.equals(origin) for w in wits)


def test_douady_without_cover_torsion_free(cusp_base, incidence_module):
    J, _ = build_fibred_power(cusp_base, incidence_module, 1, None)
    wits, _ = torsion_witnesses(J, cusp_base)
    assert wits == []


def test_blowup_witness(plane_base, blowup_module):
    J, _ = build_fibred_power(plane_base, blowup_module, 2, None)
    # hand oracle: y2 * (x1 - x2) in J but x1 - x2 not in J
    big = J.ring
    t = big.var("x__1") - big.var("x__2")
    assert J.contains(big.var("y2") * t)
    assert not J.contains(t)
    wits, _ = torsion_witnesses(J, plane_base)
    origin = Ideal(plane_base.ring, list(plane_base.ring.gens()))
    assert len(wits) == 1
    assert wits[0].prime.equals(
        Ideal(big, [big.var("y1"), big.var("y2")])
    )
    assert wits[0].contraction.equals(origin)


# -- verdicts -------------------------------------------------------------------------


def test_check_flatness_douady(cusp_base, incidence_module, cusp_cover):
    problem = FlatnessProblem(
        cusp_base, incidence_module, cusp_cover, analytically_irreducible=True
    )
    v = check_flatness(problem)
    assert v.result == "NON_FLAT"
    assert v.n == 1


def test_flat_controls(cusp_base, cusp_cover):
    # module = base
    module = ModuleSpec(cusp_base.ring, cusp_base.q, cusp_base)
    v = check_flatness(
        FlatnessProblem(cusp_base, module, cusp_cover, analytically_irreducible=True)
    )
    assert v.result == "FLAT" and not v.witnesses

    # module = polynomial extension of the base
    ring = PolyRing(("y1", "y2", "x"))
    ext = ModuleSpec(
        ring, Ideal(ring, [ring.transport(g) for g in cusp_base.q.generators]), cusp_base
    )
    v = check_flatness(
        FlatnessProblem(cusp_base, ext, cusp_cover, analytically_irreducible=True)
    )
    assert v.result == "FLAT"


def test_torsion_free_without_assertion(cusp_base, cusp_cover):
    module = ModuleSpec(cusp_base.ring, cusp_base.q, cusp_base)
    v = check_flatness(FlatnessProblem(cusp_base, module, cusp_cover))
    assert v.result == "TORSION_FREE"
    assert "not concluded" in v.note


def test_xy_collapse():
    base_ring = PolyRing(("y",))
    base = BaseRing.create(base_ring, Ideal(base_ring))
    ring = PolyRing(("y", "x"))
    module = ModuleSpec(ring, Ideal(ring, [ring.var("x") * ring.var("y")]), base)
    v = check_flatness(FlatnessProblem(base, module, analytically_irreducible=True))
    assert v.result == "NON_FLAT"
    assert v.witnesses[0].contraction.equals(Ideal(base_ring, [base_ring.var("y")]))


def test_regular_source_blowup(plane_base, blowup_module):
    problem = FlatnessProblem(plane_base, blowup_module, analytically_irreducible=True)
    v = check_flatness_regular_source(problem)
    assert v.result == "NON_FLAT"
    assert v.n == 3


def test_regular_source_identity():
    ring = PolyRing(("y",))
    base = BaseRing.create(ring, Ideal(ring))
    module = ModuleSpec(ring, Ideal(ring), base)
    v = check_flatness_regular_source(
        FlatnessProblem(base, module, analytically_irreducible=True)
    )
    assert v.result == "FLAT" and v.n == 2


# -- hypotheses ------------------------------------------------------------------------


def test_hypotheses_douady(cusp_base, incidence_module, cusp_cover):
    problem = FlatnessProblem(
        cusp_base, incidence_module, cusp_cover, analytically_irreducible=True
    )
    rep = verify_hypotheses(problem)
    status = {c.name: c.status for c in rep.checks}
    assert status == {
        "base_prime": "pass",
        "dimensions": "pass",
        "cover_dominant": "pass",
        "cover_smooth": "pass",
        "analytically_irreducible": "asserted",
    }


def test_verify_hypotheses_lets_guard_trips_through():
    # A tripped guard ends the run; it must not read as a failed base_prime.
    problem = build_problem(parse_problem(problems.read("douady-no-cover")))
    with pytest.raises(GuardExceeded) as exc, Guards(max_degree=1):
        verify_hypotheses(problem)
    assert exc.value.guard == "degree"


def test_reducible_base_fails():
    ring = PolyRing(("y1", "y2"))
    y1, y2 = ring.gens()
    base = BaseRing.create(ring, Ideal(ring, [y1 * y2]))
    module = ModuleSpec(ring, Ideal(ring, [y1 * y2]), base)
    problem = FlatnessProblem(base, module, analytically_irreducible=True)
    rep = verify_hypotheses(problem)
    assert rep.get("base_prime").status == "fail"
    with pytest.raises(HypothesisViolation):
        check_flatness(problem)


def test_non_dominant_cover_fails(cusp_base, incidence_module):
    ring = PolyRing(("y1", "y2", "u"))
    y1, y2, u = ring.gens()
    cover = RegularCover(ring, Ideal(ring, [y1, y2]), cusp_base)  # maps to origin only
    problem = FlatnessProblem(cusp_base, incidence_module, cover)
    rep = verify_hypotheses(problem)
    assert rep.get("cover_dominant").status == "fail"


def test_singular_cover_fails(cusp_base, incidence_module):
    # identity cover over the singular cusp: smoothness must fail
    problem = FlatnessProblem(cusp_base, incidence_module)
    rep = verify_hypotheses(problem)
    assert rep.get("cover_smooth").status == "fail"
    waived = FlatnessProblem(
        cusp_base, incidence_module, waived=("cover_smooth",),
        analytically_irreducible=True,
    )
    rep2 = verify_hypotheses(waived)
    assert rep2.get("cover_smooth").status == "waived"
    v = check_flatness(waived)
    assert v.result == "TORSION_FREE"  # waived hypothesis blocks a FLAT claim


def test_module_must_contain_base_ideal(cusp_base):
    ring = PolyRing(("y1", "y2", "x"))
    with pytest.raises(InvalidInput):
        ModuleSpec(ring, Ideal(ring, [ring.var("x")]), cusp_base)


# -- structural invariants ---------------------------------------------------------------


def test_label_symmetry(plane_base, blowup_module):
    J, _ = build_fibred_power(plane_base, blowup_module, 2, None)
    big = J.ring
    swap = VarMap.rename(big, big, {"x__1": "x__2", "x__2": "x__1"})
    swapped = Ideal(big, [swap(g) for g in J.generators])
    assert swapped.equals(J)
    w1, _ = torsion_witnesses(J, plane_base)
    w2, _ = torsion_witnesses(swapped, plane_base)
    k1 = sorted(tuple(map(str, w.contraction.groebner())) for w in w1)
    k2 = sorted(tuple(map(str, w.contraction.groebner())) for w in w2)
    assert k1 == k2


def test_redundant_generator_stability(plane_base, blowup_module):
    J, _ = build_fibred_power(plane_base, blowup_module, 2, None)
    big = J.ring
    redundant = big.var("y2") * (J.generators[0] - J.generators[1])
    J2 = ideal_sum(J, Ideal(big, [redundant]))
    w1, _ = torsion_witnesses(J, plane_base)
    w2, _ = torsion_witnesses(J2, plane_base)
    k1 = sorted(tuple(map(str, w.contraction.groebner())) for w in w1)
    k2 = sorted(tuple(map(str, w.contraction.groebner())) for w in w2)
    assert k1 == k2


def test_witness_soundness(cusp_base, incidence_module, cusp_cover):
    problem = FlatnessProblem(
        cusp_base, incidence_module, cusp_cover, analytically_irreducible=True
    )
    v = check_flatness(problem)
    J, _ = build_fibred_power(cusp_base, incidence_module, 1, cusp_cover)
    for w in v.witnesses:
        # J <= P
        assert w.prime.contains_ideal(J)
        # q <= c <= P (contraction generators are members of P)
        assert w.contraction.contains_ideal(cusp_base.q)
        for g in w.contraction.generators:
            assert w.prime.contains(w.prime.ring.transport(g))
        # strictness: some generator of c is outside q
        assert any(not cusp_base.q.contains(g) for g in w.contraction.generators)


def test_cover_independence(cusp_base, incidence_module, cusp_cover):
    ring = PolyRing(("y1", "y2", "u"))
    y1, y2, u = ring.gens()
    second = RegularCover(
        ring, Ideal(ring, [y1 + 3 * u**2, y2 + 2 * u**3]), cusp_base
    )
    v1 = check_flatness(
        FlatnessProblem(cusp_base, incidence_module, cusp_cover, analytically_irreducible=True)
    )
    v2 = check_flatness(
        FlatnessProblem(cusp_base, incidence_module, second, analytically_irreducible=True)
    )
    assert v1.result == v2.result
    k1 = sorted(tuple(map(str, w.contraction.groebner())) for w in v1.witnesses)
    k2 = sorted(tuple(map(str, w.contraction.groebner())) for w in v2.witnesses)
    assert k1 == k2
