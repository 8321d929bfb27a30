"""Workloads of the flatcheck benchmark: their inputs, how one input runs,
and the answer each output must match.

Every answer here is written by hand from the README's corpus table, the
acceptance tests and the literature; none is copied from a run.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable, Optional

WORKLOADS = ("check-flat-corpus", "regular-source", "runaway", "ideal-layers")
# The workloads BENCHMARK.json declares, and the default of run.py.  runaway
# runs only by name: its guard trips are failed operations by design.
BENCHMARK = ("check-flat-corpus", "regular-source", "ideal-layers")

# Guard budgets (flatcheck --timeout, seconds).  At flatcheck seed 0 both
# runaway inputs trip theirs (ROADMAP item 2); other seeds may not.
GUARD_BUDGET_S = {"runaway": 2.0}


@dataclass
class Outcome:
    """What one input produced, reduced to what the check needs."""

    status: str  # "ok" | "guard_exceeded" | "error"
    answer: object  # comparable summary of the output
    detail: str = ""  # full output minus timings, for the traced self-test
    report_total: Optional[float] = None  # the report's own timings.total


@dataclass
class Input:
    name: str
    call: Callable[[], object]  # the timed operation
    outcome: Callable[[object], Outcome]  # untimed: summarise the output
    expected: object  # hand-written answer the summary must equal


# -- pipeline workloads ----------------------------------------------------------

# (problem, extra CLI flags, verdict, sorted witness contractions or None).
# None means the witnesses are not checked beyond their presence.
_PIPELINE = {
    "check-flat-corpus": (
        "check-flat",
        [
            ("douady", (), "NON_FLAT", [["y1", "y2"]]),
            ("douady-no-cover", ("--waive-hypothesis", "cover_smooth"), "TORSION_FREE", []),
            ("cusp-second-cover", (), "NON_FLAT", [["y1", "y2"]]),
            ("blowup", (), "NON_FLAT", [["y1", "y2"]]),
            ("xy-collapse", (), "NON_FLAT", [["y"]]),
            ("free-module", (), "FLAT", []),
        ],
    ),
    "regular-source": (
        "check-flat-regular-source",
        [
            ("blowup", (), "NON_FLAT", None),
            ("xy-collapse", (), "NON_FLAT", None),
            ("free-module", (), "FLAT", None),
        ],
    ),
    "runaway": (
        "check-flat-regular-source",
        [
            ("douady", (), "NON_FLAT", None),
            ("cusp-second-cover", (), "NON_FLAT", None),
        ],
    ),
}


def _report_outcome(raw, contractions_known):
    code, text = raw
    report = json.loads(text)
    if code == 3:
        return Outcome("guard_exceeded", None, report["error"])
    if code != 0:
        return Outcome("error", None, report["error"])
    total = report.pop("timings").get("total")
    witnesses = sorted(sorted(w["contraction"]) for w in report["witness"])
    if not contractions_known:
        # Without hand-written contractions, only require that NON_FLAT
        # names a witness and no other verdict does.
        witnesses = bool(witnesses)
    detail = json.dumps(report, sort_keys=True)
    return Outcome("ok", (report["verdict"], witnesses), detail, total)


def _pipeline_inputs(workload, seed):
    from flatcheck import cli, problems

    command, cases = _PIPELINE[workload]
    inputs = []
    for problem, flags, verdict, contractions in cases:
        argv = [command, problems.path(problem), "--format", "json", "--seed", str(seed)]
        argv += list(flags)
        if workload in GUARD_BUDGET_S:
            argv += ["--timeout", str(GUARD_BUDGET_S[workload])]

        def call(argv=argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()

        known = contractions is not None
        expected = (verdict, contractions if known else verdict == "NON_FLAT")
        outcome = lambda raw, known=known: _report_outcome(raw, known)
        inputs.append(Input(problem, call, outcome, expected))
    return inputs


# -- ideal-layers: direct layer calls -------------------------------------------

# Swinnerton-Dyer polynomials for {2, 3, 5} and {2, 3, 5, 7}, highest degree
# first.  Both are irreducible over Q but split into small factors modulo
# every prime, so Zassenhaus recombination does the work.
_SWINNERTON_DYER = {
    "sd-8": [1, 0, -40, 0, 352, 0, -960, 0, 576],
    "sd-16": [1, 0, -136, 0, 6476, 0, -141912, 0, 1513334, 0, -7453176, 0,
              13950764, 0, -5596840, 0, 46225],
}


def cyclic(n):
    """Cyclic-n: the cyclic sums of d consecutive products, d < n, and x0...x(n-1) - 1."""
    from flatcheck.rings import PolyRing

    ring = PolyRing(tuple(f"x{i}" for i in range(n)))
    xs = ring.gens()
    gens = []
    for d in range(1, n):
        f = ring.zero()
        for i in range(n):
            t = ring.one()
            for j in range(d):
                t = t * xs[(i + j) % n]
            f = f + t
        gens.append(f)
    prod = ring.one()
    for x in xs:
        prod = prod * x
    gens.append(prod - 1)
    return ring, gens


def katsura(n):
    """Katsura-n in the n + 1 variables x0..xn."""
    from flatcheck.rings import PolyRing

    ring = PolyRing(tuple(f"x{i}" for i in range(n + 1)))
    xs = ring.gens()

    def x(i):
        return xs[abs(i)]

    gens = []
    for k in range(n):
        f = -x(k)
        for i in range(-n, n + 1):
            j = k - i
            if abs(j) <= n:
                f = f + x(i) * x(j)
        gens.append(f)
    s = -ring.one()
    for i in range(-n, n + 1):
        s = s + x(i)
    gens.append(s)
    return ring, gens


def swinnerton_dyer(name):
    from flatcheck.rings import PolyRing

    ring = PolyRing(("x",))
    coeffs = _SWINNERTON_DYER[name]
    degree = len(coeffs) - 1
    return ring, sum(
        (ring.monomial((degree - i,), c) for i, c in enumerate(coeffs) if c),
        ring.zero(),
    )


# (case, system, order, expected leading-monomial count or exponents).
# cyclic-5 and katsura-5 have reduced degrevlex bases of 20 and 22 elements.
# katsura-3 has 2^3 = 8 solutions and its lex basis is in shape position:
# x0, x1, x2 linear in x3 and one univariate polynomial of degree 8.
_GB_CASES = (
    ("gb:cyclic-5", lambda: cyclic(5), "degrevlex", 20),
    ("gb:katsura-5", lambda: katsura(5), "degrevlex", 22),
    ("gb:katsura-3-lex", lambda: katsura(3), "lex",
     [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 8)]),
)


def gb_system(case):
    """(ring, generators, order name) of a Groebner-basis case, for the oracle."""
    for name, system, order, _ in _GB_CASES:
        if name == case:
            ring, gens = system()
            return ring, gens, order
    raise KeyError(case)


def _layer_inputs(seed):
    # Called through their modules, so that a tracer installed later sees
    # the calls.
    from flatcheck import factor, groebner
    from flatcheck.orders import MonomialOrder

    inputs = []
    for name, system, order_name, expected in _GB_CASES:
        ring, gens = system()
        order = getattr(MonomialOrder, order_name)(ring.nvars)

        def call(gens=gens, order=order):
            return groebner.groebner_basis(gens, order)

        def outcome(gb, order=order, by_count=isinstance(expected, int)):
            leads = [g.leading_term(order)[0] for g in gb]
            answer = len(leads) if by_count else leads
            return Outcome("ok", answer, repr([str(g) for g in gb]))

        inputs.append(Input(name, call, outcome, expected))

    for name in _SWINNERTON_DYER:
        ring, f = swinnerton_dyer(name)

        def call(f=f):
            return factor.factor_univariate(f, seed=seed)

        def outcome(fac, f=f):
            # Irreducible and monic: one factor, multiplicity 1, equal to f.
            answer = [(g == f, m) for g, m in fac.factors]
            return Outcome("ok", answer, repr([(str(g), m) for g, m in fac.factors]))

        inputs.append(Input("factor:" + name, call, outcome, [(True, 1)]))
    return inputs


def load_inputs(workload, seed):
    """The inputs of a workload, built from its seed (flatcheck's --seed)."""
    if workload in _PIPELINE:
        return _pipeline_inputs(workload, seed)
    return _layer_inputs(seed)
