"""The flatness pipeline: fibred powers, torsion witnesses, hypotheses."""

import dataclasses
import itertools
from importlib import resources

import pytest
from test_torsion import _key, _oracle_keys

from flatcheck import cli, flatness, funcfield, groebner, ideals, primdec, problems
from flatcheck.dsl import build_problem, parse_problem
from flatcheck.errors import (
    FlatcheckError,
    GuardExceeded,
    Guards,
    HypothesisViolation,
    InvalidInput,
)
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
from flatcheck.primdec import radical
from flatcheck.rings import PolyRing, VarMap

from conftest import cut_at_line


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
    rad = radical(Ideal(ring, [4 * y1**3 + 27 * y2**2, x**3 + y1 * x + y2]))
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
    assert J.copies == ((big.var_index("x__1"),), (big.var_index("x__2"),))


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


def _corpus_problem(name, power=None):
    return dataclasses.replace(
        build_problem(parse_problem(problems.read(name))), power=power
    )


def _counting(monkeypatch, name, calls):
    """Replace flatness.<name> by a wrapper that appends each call's arguments."""
    real = getattr(flatness, name, None)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(flatness, name, counted, raising=False)


@pytest.mark.parametrize("power", [4, 10])
def test_xy_collapse_makes_one_quotient_and_no_intersection(power, monkeypatch):
    # The torsion generators x__1, ..., x__power are reached from x__1 by
    # transpositions of the copies, so one quotient serves them all.
    quotients, intersections, decompositions = [], [], []
    _counting(monkeypatch, "quotient", quotients)
    _counting(monkeypatch, "intersect", intersections)  # flatness binds none
    _counting(monkeypatch, "decompose", decompositions)
    problem = _corpus_problem("xy-collapse", power)
    verdict = check_flatness(problem)
    assert (len(quotients), len(intersections), len(decompositions)) == (1, 0, 1)
    assert str(quotients[0][1]) == "x__1"
    # The witness is <y> at every power.  The oracle decomposes J itself,
    # which takes seconds from power 6 on and grows about sixfold per
    # power, so it runs at power 4.
    base = problem.base
    J, _ = build_fibred_power(base, problem.module, 4, RegularCover.identity(base))
    assert sorted(_key(w.prime) for w in verdict.witnesses) == _oracle_keys(J, base)


def test_orbit_members_are_images_of_their_representative(monkeypatch):
    # The six coefficient permutations of x1 + 2*x2 + 3*x3 + y are reached
    # from the first in one walk, the 3-cycles only through two
    # transpositions; y*x1 needs its own quotient, since y*x2 and y*x3 are
    # absent.  A plain Ideal has no copies, so each generator is its own.
    ring = PolyRing(("y", "x1", "x2", "x3"))
    y, x1, x2, x3 = ring.gens()
    gens = [c1 * x1 + c2 * x2 + c3 * x3 + y
            for c1, c2, c3 in itertools.permutations((1, 2, 3))]
    gens.append(y * x1)
    quotients = []
    _counting(monkeypatch, "quotient", quotients)
    J = flatness.FibredPower(ring, [x1 * x2 * x3], ((1,), (2,), (3,)))
    by_walk = flatness._support_primes(J, gens, J.copies)
    assert len(quotients) == 2
    assert [str(g) for _, g in quotients] == [str(gens[0]), "y*x1"]
    by_generator = flatness._support_primes(Ideal(ring, J.generators), gens, ())
    assert len(quotients) == 2 + 7
    assert [_key(P) for P in by_walk[0]] == [_key(P) for P in by_generator[0]]
    assert [_key(P) for P in by_walk[0]] == sorted(
        _key(Ideal(ring, [x])) for x in (x1, x2, x3)
    )
    assert by_walk[1] == by_generator[1]
    # J : x1 = <x2*x3> has the primes <x2> and <x3>; x2 and x3 get their
    # primes as the images of those, so all three primes are found.
    primes, _ = flatness._support_primes(J, [x1, x2, x3], J.copies)
    assert len(quotients) == 2 + 7 + 1
    assert [_key(P) for P in primes] == [_key(P) for P in by_walk[0]]


@pytest.mark.parametrize(
    "name, generators, orbits",
    [("cone-a1-normalization", 3, 2), ("cone-a2-normalization", 9, 6)],
)
def test_orbits_give_the_witnesses_of_one_quotient_per_generator(
    name, generators, orbits, monkeypatch
):
    # A plain Ideal with J's generators has no copies, which makes the
    # per-generator reference: one quotient for each torsion generator.
    quotients = []
    _counting(monkeypatch, "quotient", quotients)
    problem = _corpus_problem(name)
    base = problem.base
    J, _ = build_fibred_power(base, problem.module, base.n, problem.cover)
    by_orbit = torsion_witnesses(J, base)
    assert len(quotients) == orbits
    by_generator = torsion_witnesses(Ideal(J.ring, J.generators), base)
    assert len(quotients) == orbits + generators

    def keys(witnesses):
        return [(_key(w.prime), _key(w.contraction)) for w in witnesses]

    assert by_orbit[0] and keys(by_orbit[0]) == keys(by_generator[0])
    assert by_orbit[1] == by_generator[1]
    assert check_flatness(problem).retries == by_orbit[1]


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


def test_zero_module_is_flat():
    # F = Q[y, x]/<1> = 0: every fibred power is <1>, and the zero module is flat.
    base_ring = PolyRing(("y",))
    base = BaseRing.create(base_ring, Ideal(base_ring))
    ring = PolyRing(("y", "x"))
    module = ModuleSpec(ring, Ideal(ring, [ring.one()]), base)
    J, _ = build_fibred_power(base, module, 1)
    assert J.is_unit()
    assert torsion_witnesses(J, base) == ([], 0)
    asserted = FlatnessProblem(base, module, analytically_irreducible=True)
    assert check_flatness(asserted).result == "FLAT"
    assert check_flatness_regular_source(asserted).result == "FLAT"
    assert check_flatness(FlatnessProblem(base, module)).result == "TORSION_FREE"


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
    status = {c.name: c.status for c in verify_hypotheses(problem)}
    assert status == {
        "base_prime": "pass",
        "dimensions": "pass",
        "cover_dominant": "pass",
        "cover_smooth": "pass",
        "analytically_irreducible": "asserted",
    }


_TWISTED_CUBIC = """
ring R = Q[y1, y2, y3] / (y2 - y1^2, y3 - y1^3);
module F over R = Q[y1, y2, y3, x] / (y2 - y1^2, y3 - y1^3, x^2 - y1);
"""


def test_verify_hypotheses_lets_guard_trips_through():
    # A tripped guard ends the run; it must not read as a failed base_prime.
    # The twisted cubic is prime but not principal, so base_prime
    # decomposes it, building bases of degree above 1.
    problem = build_problem(parse_problem(_TWISTED_CUBIC))
    with pytest.raises(GuardExceeded) as exc, Guards(max_degree=1):
        verify_hypotheses(problem)
    assert exc.value.guard == "degree"


def test_verify_hypotheses_lets_time_trips_through_the_principal_route(monkeypatch):
    # douady-no-cover's q is one irreducible generator, so base_prime's
    # decomposition is the principal shortcut, which builds no basis; a
    # time trip at any line of it still ends the run.
    def refuse(*args):
        raise AssertionError("base_prime reached the GTZ split")

    cuts = (1, 200, 1000)
    fresh = [build_problem(parse_problem(problems.read("douady-no-cover"))) for _ in cuts]
    monkeypatch.setattr(primdec, "independent_set", refuse)
    for k, problem in zip(cuts, fresh):
        with pytest.raises(GuardExceeded) as exc, cut_at_line(k):
            verify_hypotheses(problem)
        assert exc.value.guard == "time"
        status = {c.name: c.status for c in verify_hypotheses(problem)}
        assert status["base_prime"] == "pass"


def test_verify_hypotheses_lets_internal_errors_through(monkeypatch):
    # Only a decomposition error on q is a failed base_prime; a bug in the
    # program must surface as itself, not as a verdict on q.
    def broken(I):
        raise TypeError("internal error")

    monkeypatch.setattr(flatness, "decompose", broken)
    problem = build_problem(parse_problem(problems.read("douady")))
    with pytest.raises(TypeError, match="internal error"):
        verify_hypotheses(problem)


def test_reducible_base_fails():
    ring = PolyRing(("y1", "y2"))
    y1, y2 = ring.gens()
    base = BaseRing.create(ring, Ideal(ring, [y1 * y2]))
    module = ModuleSpec(ring, Ideal(ring, [y1 * y2]), base)
    problem = FlatnessProblem(base, module, analytically_irreducible=True)
    status = {c.name: c.status for c in verify_hypotheses(problem)}
    assert status["base_prime"] == "fail"
    with pytest.raises(HypothesisViolation):
        check_flatness(problem)


def test_non_dominant_cover_fails(cusp_base, incidence_module):
    ring = PolyRing(("y1", "y2", "u"))
    y1, y2, u = ring.gens()
    cover = RegularCover(ring, Ideal(ring, [y1, y2]), cusp_base)  # maps to origin only
    problem = FlatnessProblem(cusp_base, incidence_module, cover)
    status = {c.name: c.status for c in verify_hypotheses(problem)}
    assert status["cover_dominant"] == "fail"


def test_singular_cover_fails(cusp_base, incidence_module):
    # identity cover over the singular cusp: smoothness must fail
    problem = FlatnessProblem(cusp_base, incidence_module)
    status = {c.name: c.status for c in verify_hypotheses(problem)}
    assert status["cover_smooth"] == "fail"
    waived = FlatnessProblem(
        cusp_base, incidence_module, waived=("cover_smooth",),
        analytically_irreducible=True,
    )
    status = {c.name: c.status for c in verify_hypotheses(waived)}
    assert status["cover_smooth"] == "waived"
    v = check_flatness(waived)
    assert v.result == "TORSION_FREE"  # waived hypothesis blocks a FLAT claim


def test_unknown_waiver_is_rejected(cusp_base, incidence_module, cusp_cover):
    for waived in [("cover_smoth",), ("cover_smooth", "analytically_irreducible")]:
        problem = FlatnessProblem(cusp_base, incidence_module, cusp_cover, waived=waived)
        with pytest.raises(InvalidInput, match="valid names are base_prime, dimensions"):
            verify_hypotheses(problem)
        with pytest.raises(InvalidInput, match=repr(waived[-1])):
            check_flatness(problem)
    known = FlatnessProblem(cusp_base, incidence_module, cusp_cover, waived=("base_prime",))
    assert all(c.status == "pass" for c in verify_hypotheses(known)[:-1])


@pytest.mark.parametrize("power, result", [(1, "TORSION_FREE"), (2, "NON_FLAT")])
def test_cone_normalization_needs_the_full_power(power, result):
    # Q[s, t] over the A_1 cone is a domain but not flat: its fibre over the
    # vertex has dimension 3, its generic rank is 2.  With the identity
    # cover, the 1-fold power sees no torsion; the n-fold power, n = 2, does.
    problem = build_problem(parse_problem(problems.read("cone-a1-normalization")))
    problem = dataclasses.replace(problem, cover=None, power=power, waived=("cover_smooth",))
    verdict = check_flatness(problem)
    assert verdict.result == result
    assert [sorted(map(str, w.contraction.groebner())) for w in verdict.witnesses] == (
        [["a", "b", "c"]] if result == "NON_FLAT" else []
    )


def test_failing_hypothesis_details(cusp_base, incidence_module, monkeypatch):
    # Golden reports reach only the passing details; pin the failing ones.
    def details(problem):
        return {c.name: (c.status, c.detail) for c in verify_hypotheses(problem)}

    ring = PolyRing(("y1", "y2", "u"))
    y1, y2, u = ring.gens()
    point = RegularCover(ring, Ideal(ring, [y1, y2, u]), cusp_base)
    got = details(FlatnessProblem(cusp_base, incidence_module, point))
    assert got["dimensions"] == ("fail", "dim q = 1, n = 1, dim L = 0")
    assert got["cover_dominant"] == ("fail", "contraction of L is <y1, y2>, not q")

    wide = BaseRing(cusp_base.ring, cusp_base.q, 3)
    module = ModuleSpec(cusp_base.ring, cusp_base.q, wide)
    got = details(FlatnessProblem(wide, module))
    assert got["dimensions"] == ("fail", "dim q = 1, n = 3, dim L = 1")
    assert got["cover_smooth"] == ("fail", "cover dimension exceeds ring arity")

    plane = PolyRing(("y1", "y2"))
    p1, p2 = plane.gens()
    cross = BaseRing.create(plane, Ideal(plane, [p1 * p2]))
    got = details(FlatnessProblem(cross, ModuleSpec(plane, cross.q, cross)))
    assert got["base_prime"] == ("fail", "q has 2 primary components")

    fat_point = build_problem(parse_problem(
        "ring R = Q[y] / (y^2);\nmodule F over R = Q[y, x] / (y^2, x*y);\n"
    ))
    assert details(fat_point)["base_prime"] == (
        "fail", "q is primary, not prime: rad q = <y>"
    )

    waived = FlatnessProblem(cusp_base, incidence_module, waived=("cover_smooth",))
    assert details(waived)["cover_smooth"] == (
        "waived", "Jacobian minors + L are not the unit ideal"
    )

    def broken(I):
        raise InvalidInput("q is out of reach")

    monkeypatch.setattr(flatness, "decompose", broken)
    assert details(waived)["base_prime"] == ("fail", "q is out of reach")


def test_module_must_contain_base_ideal(cusp_base):
    ring = PolyRing(("y1", "y2", "x"))
    with pytest.raises(InvalidInput):
        ModuleSpec(ring, Ideal(ring, [ring.var("x")]), cusp_base)


# -- structural invariants ---------------------------------------------------------------


def test_label_symmetry(plane_base, blowup_module):
    J, _ = build_fibred_power(plane_base, blowup_module, 2, None)
    big = J.ring
    names = {"x__1": "x__2", "x__2": "x__1"}
    swap = VarMap(big, big, {v: big.var(names.get(v, v)) for v in big.variables})
    swapped = Ideal(big, [swap(g) for g in J.generators])
    assert swapped.equals(J)
    w1, _ = torsion_witnesses(J, plane_base)
    w2, _ = torsion_witnesses(swapped, plane_base)
    k1 = sorted(tuple(map(str, w.contraction.groebner())) for w in w1)
    k2 = sorted(tuple(map(str, w.contraction.groebner())) for w in w2)
    assert k1 == k2


CORPUS = sorted(
    f.name[: -len(".flat")]
    for f in resources.files(problems).iterdir()
    if f.name.endswith(".flat")
)


def _outcome(check, problem):
    """The verdict and the sorted witness contractions, or the error class."""
    try:
        verdict = check(problem)
    except FlatcheckError as exc:
        return type(exc).__name__
    return verdict.result, sorted(_key(w.contraction) for w in verdict.witnesses)


def _reordered(spec, order):
    """spec with its ring's variables in the order given by order(variables)."""
    ring = PolyRing(order(spec.ring.variables))
    ideal = spec.I if isinstance(spec, ModuleSpec) else spec.L
    moved = Ideal(ring, [ring.transport(g) for g in ideal.generators])
    return type(spec)(ring, moved, spec.base)


@pytest.mark.parametrize("name", CORPUS)
def test_verdicts_do_not_depend_on_variable_order(name):
    # Reversing or rotating the module's variables reorders the factor
    # copies' variables in J, and so the walk's transpositions.
    problem = _corpus_problem(name)
    orders = [lambda vs: vs[::-1], lambda vs: vs[1:] + vs[:1]]
    for check in (check_flatness, check_flatness_regular_source):
        expected = _outcome(check, problem)
        for order in orders:
            cover = problem.cover and _reordered(problem.cover, order)
            moved = dataclasses.replace(
                problem, module=_reordered(problem.module, order), cover=cover
            )
            assert moved.module.ring != problem.module.ring
            assert _outcome(check, moved) == expected


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


# -- work done per run ----------------------------------------------------------

# check-flat on the corpus: extra flags, and the Groebner bases one run builds.
_CORPUS_BASES = {
    "douady": ((), 23),
    "douady-no-cover": (("--waive-hypothesis", "cover_smooth"), 12),
    "cusp-second-cover": ((), 23),
    "blowup": ((), 10),
    "xy-collapse": ((), 7),
    "free-module": ((), 7),
}


@pytest.mark.parametrize("name", sorted(_CORPUS_BASES))
def test_corpus_runs_certify_instead_of_lifting(name, monkeypatch, capsys):
    # Every base is principal and prime, so base_prime runs no GTZ split,
    # and every factorization is settled by an irreducible specialisation,
    # so none lifts.  The basis count pins the work the certificates save.
    def refuse(*args):
        raise AssertionError("lifting or GTZ split reached")

    problem = build_problem(parse_problem(problems.read(name)))
    with monkeypatch.context() as patch:
        patch.setattr(primdec, "independent_set", refuse)
        assert flatness._base_prime(problem.base, None)[0]
    built = []
    groebner_basis = ideals.groebner_basis
    monkeypatch.setattr(funcfield, "_bezout_family", refuse)
    monkeypatch.setattr(
        ideals, "groebner_basis", lambda *args: built.append(1) or groebner_basis(*args)
    )
    flags, count = _CORPUS_BASES[name]
    assert cli.main(["check-flat", problems.path(name), *flags]) == 0
    capsys.readouterr()
    assert len(built) == count


# check-flat runs, `option power` (None: the file's own) and the
# S-polynomials Buchberger forms in one run.  Eliminations enter the
# basis an ideal has cached as a known prefix, and form no pair in it.
_S_POLYNOMIALS = (("douady", None, 81), ("xy-collapse", 40, 1642))


@pytest.mark.parametrize("name, power, count", _S_POLYNOMIALS)
def test_corpus_s_polynomial_count_is_pinned(name, power, count, monkeypatch, tmp_path):
    path = problems.path(name)
    if power is not None:
        path = tmp_path / f"{name}.flat"
        path.write_text(problems.read(name) + f"option power = {power};\n", encoding="utf-8")
    formed = []
    s_polynomial = groebner._s_polynomial
    monkeypatch.setattr(
        groebner, "_s_polynomial", lambda *args: formed.append(1) or s_polynomial(*args)
    )
    assert cli.main(["check-flat", str(path), "--format", "json"]) == 0
    assert len(formed) == count
