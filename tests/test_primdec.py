"""Primary decomposition: documented cases plus the generated soundness suite."""

import itertools
import random
import types

import pytest

from flatcheck import factor, flatness, primdec, problems
from flatcheck.dsl import build_problem, parse_problem
from flatcheck.errors import GuardExceeded, InvalidInput, NotZeroDimensional
from flatcheck.flatness import check_flatness
from flatcheck.ideals import Ideal, intersect, radical_membership
from flatcheck.orders import MonomialOrder
from flatcheck.primdec import (
    associated_primes,
    decompose,
    radical,
    vector_space_dimension,
)
from flatcheck.rings import PolyRing

from conftest import cut_at_line, nonzero_random_poly


def prime_keys(primes):
    return sorted(tuple(str(g) for g in p.groebner()) for p in primes)


def minimal(primes):
    """The primes of the list that contain no other one."""
    return [p for p in primes
            if not any(q is not p and p.contains_ideal(q) for q in primes)]


# -- documented zero-dimensional cases ----------------------------------------------


def test_zdd_primary_at_origin(qxy):
    x, y = qxy.gens()
    comps = decompose(Ideal(qxy, [x**2, y])).components
    assert len(comps) == 1
    assert comps[0].primary.equals(Ideal(qxy, [x**2, y]))
    assert comps[0].prime.equals(Ideal(qxy, [x, y]))


def test_zdd_single_point_line():
    ring = PolyRing(("x",))
    x = ring.var("x")
    comps = decompose(Ideal(ring, [x - 1])).components
    assert len(comps) == 1
    assert comps[0].primary.equals(comps[0].prime)
    assert comps[0].prime.equals(Ideal(ring, [x - 1]))


def test_zdd_split(qxy):
    x, y = qxy.gens()
    comps = decompose(Ideal(qxy, [x**2 - 1, y])).components
    assert prime_keys(c.prime for c in comps) == prime_keys(
        [Ideal(qxy, [x - 1, y]), Ideal(qxy, [x + 1, y])]
    )
    for c in comps:
        assert c.primary.equals(c.prime)


def test_candidate_forms_are_sparse_first(qxy):
    x, y = qxy.gens()
    forms = itertools.islice(primdec._candidate_forms(qxy, ["x", "y"]), 5)
    assert [str(f) for f in forms] == [
        str(f) for f in (y, x, x + y, x + 2 * y, x + 3 * y)
    ]


def test_leaf_skips_forms_that_fail_the_certificate(qxy):
    # Q(sqrt 2, sqrt 3) has degree 4 over Q.  Neither y nor x alone
    # generates it, so both fail the leaf certificate; x + y passes.
    x, y = qxy.gens()
    I = Ideal(qxy, [x**2 - 2, y**2 - 3])
    dec = decompose(I)
    assert dec.retries == 2
    (comp,) = dec.components
    assert comp.primary.equals(I)
    assert comp.prime.equals(I)


def test_radical_leaves_compute_no_radical(qxy, monkeypatch):
    # A leaf whose form has a minimal polynomial of degree equal to the
    # leaf's own vector-space dimension is prime: no Seidenberg radical.
    per_call = []  # leaf radicals of each decompose call, when it returns
    open_calls = []

    def counted_radical(I, params):
        if open_calls:
            open_calls[-1] += 1
        return radical_over_field(I, params)

    def counted_decompose(I):
        open_calls.append(0)
        try:
            return decompose(I)
        finally:
            per_call.append(open_calls.pop())

    radical_over_field = primdec._radical_over_field
    monkeypatch.setattr(primdec, "_radical_over_field", counted_radical)
    monkeypatch.setattr(flatness, "decompose", counted_decompose)
    # check-flat on douady decomposes base_prime's q, then rad(ann T).
    problem = build_problem(parse_problem(problems.read("douady")))
    assert check_flatness(problem).result == "NON_FLAT"
    assert per_call == [0, 0]
    # A leaf that is primary but not prime still takes its radical.
    x, y = qxy.gens()
    counted_decompose(Ideal(qxy, [x**2, y]))
    assert per_call[-1] == 1


def test_decompose_and_check_flatness_draw_no_random_numbers(qxy, monkeypatch):
    # Only the Cantor-Zassenhaus splitting in `factor` keeps a generator of
    # its own, seeded with a constant; any other draw raises.
    def draw(*args, **kwargs):
        raise AssertionError("a random number was drawn")

    monkeypatch.setattr(factor, "random", types.SimpleNamespace(Random=random.Random))
    for name in ("Random", "random", "randint", "randrange", "choice", "shuffle",
                 "sample", "getrandbits"):
        monkeypatch.setattr(random, name, draw)
    x, y = qxy.gens()
    assert decompose(Ideal(qxy, [x**2 - 2, y**2 - 3])).retries == 2
    problem = build_problem(parse_problem(problems.read("douady")))
    assert check_flatness(problem).result == "NON_FLAT"


def test_vector_space_dimension(qxy):
    x, y = qxy.gens()
    assert vector_space_dimension(Ideal(qxy, [x**2, x * y, y**2])) == 3
    assert vector_space_dimension(Ideal(qxy, [x**2 - 1, y**3])) == 6
    with pytest.raises(NotZeroDimensional):
        vector_space_dimension(Ideal(qxy, [x]))


# -- documented general cases -----------------------------------------------------


def test_decompose_embedded_prime(qxy):
    x, y = qxy.gens()
    dec = decompose(Ideal(qxy, [x * y, y**2]))
    assert prime_keys(c.prime for c in dec.components) == prime_keys(
        [Ideal(qxy, [y]), Ideal(qxy, [x, y])]
    )


def test_decompose_prime_input_is_fixed_point():
    ring = PolyRing(("y1", "y2", "x"))
    y1, y2, x = ring.gens()
    I = Ideal(ring, [y2 * x - y1])
    dec = decompose(I)
    assert len(dec.components) == 1
    assert dec.components[0].primary.equals(I)
    assert dec.components[0].prime.equals(I)


def _principal_cases():
    ring = PolyRing(("y1", "y2"))
    y1, y2 = ring.gens()
    cone = PolyRing(("a", "b", "c"))
    a, b, c = cone.gens()
    line = PolyRing(("y",))
    y = line.var("y")
    return [
        Ideal(ring, [y2**2 - y1**3]),
        Ideal(cone, [c**2 - a * b]),
        Ideal(ring, [y1 * (y2**2 - y1)]),
        Ideal(ring, [(y1 - y2**2) ** 2]),
        Ideal(ring, [y1 * y2]),
        Ideal(line, [y**4 + 1]),
    ]


def _decomposition_key(dec):
    return [(c.primary.generators, c.prime.generators) for c in dec.components], dec.retries


def test_principal_prime_shortcut_changes_no_decomposition(monkeypatch):
    # The cusp, the A1 cone and y^4 + 1 are principal primes; the other
    # generators are reducible, which the certificate never claims.
    want = [_decomposition_key(decompose(I)) for I in _principal_cases()]
    monkeypatch.setattr(primdec, "certified_irreducible", lambda m, t, params: False)
    assert [_decomposition_key(decompose(I)) for I in _principal_cases()] == want
    assert [len(components) for components, _ in want] == [1, 1, 2, 1, 2, 1]


def test_principal_prime_runs_no_gtz_split(monkeypatch):
    def refuse(*args):
        raise AssertionError("a principal prime reached the GTZ split")

    monkeypatch.setattr(primdec, "independent_set", refuse)
    cases = _principal_cases()
    for I in cases[:2] + cases[-1:]:  # the principal primes
        [(primary, prime)], retries = _decomposition_key(decompose(I))
        assert primary == prime == tuple(I.groebner())
        assert retries == 0


def test_squarefree_part_of_a_monomial(qxyz):
    x, y, z = qxyz.gens()
    h = 6 * x**3 * z**2
    assert primdec._squarefree_multivariate(h) == 6 * x * z
    assert primdec._squarefree_multivariate(h * (y + 1)) == 6 * x * z * (y + 1)
    assert primdec._squarefree_multivariate(qxyz.const(5)) == qxyz.const(5)


def test_reduced_keeps_the_bases_of_other_orders(qxy):
    x, y = qxy.gens()
    I = Ideal(qxy, [x**2 - y, x * y - 1])
    block = MonomialOrder.elimination([0], 2)
    gb = I.groebner(block)
    assert primdec._reduced(I).groebner(block) is gb


def test_decompose_zero_ideal(qxy):
    dec = decompose(Ideal(qxy))
    assert len(dec.components) == 1
    assert dec.components[0].primary.is_zero()


def test_decompose_unit_rejected(qxy):
    with pytest.raises(InvalidInput):
        decompose(Ideal(qxy, [qxy.one()]))


def test_associated_primes_cases(qxy):
    x, y = qxy.gens()
    primes = associated_primes(Ideal(qxy, [x * y, y**2]))
    assert prime_keys(primes) == prime_keys([Ideal(qxy, [y]), Ideal(qxy, [x, y])])


def test_radical_cases(qxy):
    x, y = qxy.gens()
    assert radical(Ideal(qxy, [x**2])).equals(Ideal(qxy, [x]))
    I = Ideal(qxy, [x * y, y**2])
    assert radical(I).equals(Ideal(qxy, [y]))
    mins = minimal(associated_primes(I))
    assert len(mins) == 1 and mins[0].equals(Ideal(qxy, [y]))


def _douady_module():
    ring = PolyRing(("y1", "y2", "x"))
    y1, y2, x = ring.gens()
    return Ideal(ring, [4 * y1**3 + 27 * y2**2, x**3 + y1 * x + y2])


def _douady_primes(ring):
    y1, y2, x = ring.gens()
    p1 = Ideal(ring, [y1 + 3 * x**2, y2 - 2 * x**3])
    p2 = Ideal(ring, [4 * y1 + 3 * x**2, 4 * y2 + x**3])
    return p1, p2


def test_douady_radical_golden():
    I = _douady_module()
    rad = radical(I)
    p1, p2 = _douady_primes(I.ring)
    assert prime_keys(minimal(associated_primes(I))) == prime_keys([p1, p2])
    assert rad.equals(intersect(p1, p2))
    # double-inclusion radical-membership check of the golden generators
    for g in rad.generators:
        assert radical_membership(g, I)
    for g in I.generators:
        assert rad.contains(g)


def test_radical_douady_module():
    I = _douady_module()
    p1, p2 = _douady_primes(I.ring)
    rad = radical(I)
    assert [str(g) for g in rad.generators] == [
        str(g) for g in intersect(p1, p2).groebner()
    ]
    assert len(rad.generators) == 4


def test_radical_zero_and_unit_unchanged(qxy):
    zero = Ideal(qxy)
    unit = Ideal(qxy, [qxy.one()])
    assert radical(zero) is zero
    assert radical(unit) is unit


def test_radical_takes_the_split_branch(qxy, monkeypatch):
    # Over Q(U), U = {x} or {y}, the lead coefficient of x^2*y^3 is a power
    # of the variable in U, so rad(I + <h>) is computed and intersected in.
    splits = []
    ideal_sum = primdec.ideal_sum
    monkeypatch.setattr(
        primdec, "ideal_sum", lambda I, J: splits.append(J) or ideal_sum(I, J)
    )
    x, y = qxy.gens()
    assert radical(Ideal(qxy, [x**2 * y**3])).equals(Ideal(qxy, [x * y]))
    assert splits
    assert radical(Ideal(qxy, [x**2 * y, x * y**2])).equals(Ideal(qxy, [x * y]))


def test_radical_honours_time_guard():
    # A time trip at any line leaves I's cached bases exact for the next run.
    I = _douady_module()
    want = radical(_douady_module())
    for k in (1, 100, 1000, 10000):
        with pytest.raises(GuardExceeded) as info, cut_at_line(k):
            radical(I)
        assert info.value.guard == "time"
        assert radical(I).equals(want)


def test_distinct_linear_factors_recovered():
    ring = PolyRing(("x",))
    x = ring.var("x")
    f = x * (x - 1) * (x + 2) * (2 * x - 3)
    dec = decompose(Ideal(ring, [f]))
    got = prime_keys(c.prime for c in dec.components)
    expected = prime_keys(
        Ideal(ring, [p]) for p in (x, x - 1, x + 2, x - ring.const("3/2"))
    )
    assert got == expected
    for c in dec.components:
        assert c.primary.equals(c.prime)


def test_component_count_bounded_by_vdim(qxy):
    x, y = qxy.gens()
    I = Ideal(qxy, [x**3 - x, y**2 - y])
    comps = decompose(I).components
    assert len(comps) <= vector_space_dimension(I)
    assert len(comps) == 6  # six rational points, all reduced


# -- generated soundness suite ------------------------------------------------------


def _simplex_poly(ring, rng, max_terms=3, max_total_deg=3, max_coeff=3):
    """Random polynomial with total degree <= max_total_deg."""
    f = ring.zero()
    for _ in range(rng.randint(1, max_terms)):
        d = rng.randint(0, max_total_deg)
        exps = [0] * ring.nvars
        for _ in range(d):
            exps[rng.randrange(ring.nvars)] += 1
        c = rng.randint(-max_coeff, max_coeff)
        if c:
            f = f + ring.monomial(tuple(exps), c)
    return f


def _corpus(count, seed):
    """>= `count` proper ideals in <= 3 variables, total degree <= 3."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        nvars = rng.randint(1, 3)
        ring = PolyRing(tuple("xyz"[:nvars]))
        gens = []
        for _ in range(rng.randint(1, 2)):
            g = _simplex_poly(ring, rng)
            if not g.is_zero():
                gens.append(g)
        I = Ideal(ring, gens)
        if I.is_zero() or I.is_unit():
            continue
        out.append(I)
    return out


CORPUS = _corpus(50, seed=424242)


@pytest.mark.parametrize("idx", range(50))
def test_soundness_suite(idx):
    I = CORPUS[idx]
    dec = decompose(I)
    comps = dec.components
    assert comps, "proper ideal must have at least one component"
    # reassembly: intersection of primaries equals the input, both inclusions
    inter = comps[0].primary
    for c in comps[1:]:
        inter = intersect(inter, c.primary)
    assert inter.equals(I)
    # prime = sqrt(primary), checked by radical membership both ways
    for c in comps:
        for g in c.prime.generators:
            assert radical_membership(g, c.primary)
        for g in c.primary.generators:
            assert c.prime.contains(g)
        # every component contains the input
        assert c.primary.contains_ideal(I)


def test_ass_invariance_under_permutation_and_rescaling():
    """Ass is stable under generator permutation and rescaling."""
    rng = random.Random(11)
    for I in CORPUS[:12]:
        reference = prime_keys(associated_primes(I))
        shuffled = list(I.generators)
        rng.shuffle(shuffled)
        shuffled = [g.scale(rng.choice([2, -1, 3])) for g in shuffled]
        assert prime_keys(associated_primes(Ideal(I.ring, shuffled))) == reference


def test_minimal_primes_subset_of_ass():
    for I in CORPUS[:10]:
        primes = associated_primes(I)
        mins = minimal(primes)
        assert set(prime_keys(mins)) <= set(prime_keys(primes))
        # radical idempotence
        rad = radical(I)
        assert radical(rad).equals(rad)


@pytest.mark.parametrize("idx", range(50))
def test_radical_matches_minimal_primes(idx):
    # Reference: the intersection of the minimal primes of a decomposition.
    I = CORPUS[idx]
    mins = minimal(associated_primes(I))
    expected = mins[0]
    for p in mins[1:]:
        expected = intersect(expected, p)
    rad = radical(I)
    assert [str(g) for g in rad.generators] == [str(g) for g in expected.groebner()]
    assert [str(g) for g in radical(rad).generators] == [str(g) for g in rad.generators]
