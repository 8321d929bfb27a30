"""Self-test: the ideal-layers results checked against sympy.

Each case runs in a child process under a time limit.  The child computes
the reduced Groebner basis with flatcheck and with sympy and compares them
as sets of monic polynomials; for the Swinnerton-Dyer cases it compares
the irreducible factors.  A case sympy does not finish in time is
reported as not checked, never as passed.

    python3 perfbench/run.py --self-test
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

import workloads

TIME_LIMIT_S = 120
CASES = ("gb:cyclic-5", "gb:katsura-5", "gb:katsura-3-lex", "factor:sd-8", "factor:sd-16")


def _canonical(polys):
    """Set of monic polynomials, each a sorted tuple of (exponents, coefficient)."""
    out = set()
    for terms in polys:
        terms = {tuple(e): Fraction(c) for e, c in terms.items() if c}
        lead = terms[max(terms)] if terms else 1
        out.add(tuple(sorted((e, c / lead) for e, c in terms.items())))
    return out


def _sympy_terms(p):
    return {e: Fraction(str(c)) for e, c in p.as_dict().items()}


def check_case(case):
    """Compare flatcheck and sympy on one case; return a JSON-ready dict."""
    import sympy

    from flatcheck import factor, groebner
    from flatcheck.orders import MonomialOrder

    kind, name = case.split(":")
    if kind == "gb":
        ring, gens, order_name = workloads.gb_system(case)
        order = getattr(MonomialOrder, order_name)(ring.nvars)
        ours = _canonical(g.terms for g in groebner.groebner_basis(gens, order))
        symbols = sympy.symbols(ring.variables)
        polys = [sympy.Poly.from_dict({e: sympy.Rational(c.numerator, c.denominator)
                                       for e, c in g.terms.items()}, *symbols, domain="QQ")
                 for g in gens]
        start = perf_counter()
        basis = sympy.groebner(polys, *symbols, order="grevlex" if order_name == "degrevlex"
                               else "lex", domain="QQ")
        seconds = perf_counter() - start
        theirs = _canonical(_sympy_terms(sympy.Poly(p, *symbols)) for p in basis.exprs)
    else:
        ring, f = workloads.swinnerton_dyer(name)
        ours = _canonical(g.terms for g, _ in factor.factor_univariate(f).factors)
        x = sympy.Symbol(ring.variables[0])
        poly = sympy.Poly.from_dict({e: int(c) for e, c in f.terms.items()}, x, domain="QQ")
        start = perf_counter()
        _, factors = sympy.factor_list(poly)
        seconds = perf_counter() - start
        theirs = _canonical(_sympy_terms(p) for p, _ in factors)
    return {"case": case, "match": ours == theirs, "size": len(ours), "sympy_s": seconds}


def main(env, root):
    """Run every case in its own child process; 0 if none disagrees."""
    disagree = 0
    for case in CASES:
        try:
            proc = subprocess.run([sys.executable, __file__, case], env=env, cwd=root,
                                  capture_output=True, text=True, timeout=TIME_LIMIT_S)
        except subprocess.TimeoutExpired:
            print(f"{case:<20} not checked: sympy did not finish in {TIME_LIMIT_S} s")
            continue
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"{case:<20} error")
            disagree += 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        verdict = "agrees with sympy" if result["match"] else "DISAGREES with sympy"
        print(f"{case:<20} {verdict} ({result['size']} polynomials, sympy {result['sympy_s']:.2f} s)")
        disagree += not result["match"]
    return 1 if disagree else 0


if __name__ == "__main__":
    print(json.dumps(check_case(sys.argv[1])))
