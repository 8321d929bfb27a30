"""Command-line frontend.

Exit codes: 0 = completed run (FLAT and NON_FLAT are both successes),
2 = error, 3 = a resource guard tripped.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time

from .dsl import build_problem, parse_problem
from .errors import FlatcheckError, GuardExceeded, Guards, InvalidInput
from .flatness import check_flatness, check_flatness_regular_source, verify_hypotheses
from .ideals import Ideal, contract_to_base, eliminate
from .orders import MonomialOrder
from .primdec import decompose
from .report import Report, render_report
from .rings import PolyRing, poly_to_string

COMMANDS = (
    "check-flat",
    "check-flat-regular-source",
    "primdec",
    "gb",
    "eliminate",
    "contract",
    "hypotheses",
)


def _build_argparser():
    parser = argparse.ArgumentParser(
        prog="flatcheck",
        description="Flatness testing over singular bases via torsion in fibred powers.",
    )
    parser.add_argument(
        "command", choices=COMMANDS, metavar="command", help=", ".join(COMMANDS)
    )
    parser.add_argument("files", nargs="+", help="problem files (.flat)")
    parser.add_argument("--order", choices=("lex", "degrevlex"), default="degrevlex")
    parser.add_argument("--timeout", type=float, default=None, help="seconds")
    parser.add_argument("--max-degree", type=int, default=None)
    parser.add_argument("--max-pairs", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded in the report; changes no result")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--waive-hypothesis",
        action="append",
        default=[],
        metavar="NAME",
        help="treat a failed hypothesis check as waived (recorded in the report)",
    )
    parser.add_argument(
        "--target",
        choices=("ring", "module", "cover"),
        default=None,
        help="which declared ideal gb/primdec/eliminate/contract act on "
        "(default: module if declared, else ring)",
    )
    parser.add_argument(
        "--vars",
        default=None,
        help="comma-separated variables to eliminate (eliminate command)",
    )
    parser.add_argument("--jobs", type=int, default=1, help="process files in parallel")
    return parser


def _target_ideal(pf, args):
    """The declared ideal a standalone ideal command acts on."""
    target = args.target
    if target is None:
        target = "module" if pf.module_name is not None else "ring"
    name = {
        "ring": pf.base_name,
        "module": pf.module_name,
        "cover": pf.cover_name,
    }[target]
    if name is None:
        raise FlatcheckError(f"problem file declares no {target}")
    decl = pf.rings[name]
    ring = PolyRing(decl.variables)
    return Ideal(ring, decl.generators)


def _shown_guards(guards):
    """The guards as a report shows them.  JSON has no infinities: a budget
    of inf sets no limit, so it shows as null, like no --timeout; one of
    -inf trips on entry, so it shows as 0."""
    shown = dataclasses.asdict(guards)
    if shown["timeout"] is not None and math.isinf(shown["timeout"]):
        shown["timeout"] = None if shown["timeout"] > 0 else 0.0
    return shown


def _run_one(command, path, args):
    """Run one command on one file under the guards the flags ask for.

    The report's timings carry `parse` (reading the file, parsing it and,
    for the flatness commands, building the problem, module radical
    included) and `total`, from the start of the read to the finished
    report.  A failed run gets a fresh report, so a half-filled one never
    leaks out.
    """
    guards = Guards(
        max_pairs=args.max_pairs, max_degree=args.max_degree, timeout=args.timeout
    )
    report = Report(command, guards=_shown_guards(guards), seed=args.seed)
    try:
        with guards:
            start = time.monotonic()
            with open(path, "r", encoding="utf-8") as fh:
                pf = parse_problem(fh.read())
            if command in ("check-flat", "check-flat-regular-source", "hypotheses"):
                problem = build_problem(pf)
                if args.waive_hypothesis:
                    problem = dataclasses.replace(
                        problem, waived=tuple(args.waive_hypothesis)
                    )
            parsed = time.monotonic()
            if command == "hypotheses":
                checks = verify_hypotheses(problem)
                report.hypotheses = [dataclasses.asdict(c) for c in checks]
            elif command == "check-flat":
                report.add_verdict(check_flatness(problem))
            elif command == "check-flat-regular-source":
                report.add_verdict(check_flatness_regular_source(problem))
            else:
                report.payload = _ideal_command(command, pf, args)
            report.timings = {
                "parse": parsed - start,
                **report.timings,
                "total": time.monotonic() - start,
            }
        return report, 0
    except GuardExceeded as exc:
        guards_dict = dict(report.guards, tripped=exc.guard)
        return Report(command, "guard_exceeded", guards=guards_dict, seed=args.seed,
                      error=str(exc)), 3
    except (FlatcheckError, OSError, UnicodeDecodeError) as exc:
        return Report(command, "error", guards=report.guards, seed=args.seed,
                      error=f"{path}: {exc}"), 2


def _basis(gb):
    """A reduced basis as strings, each with its terms under the basis's order."""
    return [poly_to_string(g, gb.order) for g in gb]


def _ideal_command(command, pf, args):
    """The payload of a standalone ideal command."""
    I = _target_ideal(pf, args)
    payload = {}
    if command == "gb":
        order = (
            MonomialOrder.lex(I.ring.nvars)
            if args.order == "lex"
            else MonomialOrder.degrevlex(I.ring.nvars)
        )
        payload["basis"] = _basis(I.groebner(order))
        payload["order"] = args.order
    elif command == "primdec":
        dec = decompose(I)
        payload["components"] = [
            {
                "primary": _basis(c.primary.groebner()),
                "prime": _basis(c.prime.groebner()),
            }
            for c in dec.components
        ]
        payload["retries"] = dec.retries
    elif command == "eliminate":
        if not args.vars:
            raise FlatcheckError("eliminate requires --vars v1,v2,...")
        drop = [v.strip() for v in args.vars.split(",") if v.strip()]
        E = eliminate(I, drop)
        payload["basis"] = _basis(E.groebner())
        payload["ring"] = list(E.ring.variables)
    elif command == "contract":
        if pf.base_name is None:
            raise FlatcheckError("contract requires a declared base ring")
        base_ring = PolyRing(pf.rings[pf.base_name].variables)
        C = contract_to_base(I, base_ring)
        payload["basis"] = _basis(C.groebner())
        payload["ring"] = list(base_ring.variables)
    else:  # pragma: no cover - argparse restricts the choices
        raise FlatcheckError(f"unknown command {command!r}")
    return payload


def _run_one_star(work):
    return _run_one(*work)


def main(argv=None):
    parser = _build_argparser()
    args = parser.parse_args(argv)
    try:
        Guards(timeout=args.timeout)
    except InvalidInput as exc:
        parser.error(f"argument --timeout: {exc}")
    work = [(args.command, path, args) for path in args.files]
    if args.jobs > 1 and len(work) > 1:
        # Imported here: the pool pulls in multiprocessing, socket, pickle
        # and subprocess, which only a parallel run needs, and loading them
        # at import would lengthen every CLI start.
        from concurrent.futures import ProcessPoolExecutor

        # The executor starts all its workers up front, so ask for no more
        # than there are files.
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(work))) as pool:
            results = list(pool.map(_run_one_star, work))
    else:
        results = [_run_one(*w) for w in work]
    worst = 0
    for (report, code), (_, path, _a) in zip(results, work):
        if len(work) > 1:
            print(f"== {path}")
        print(render_report(report, args.format), end="")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
