"""Command-line frontend.

Exit codes: 0 = completed run (FLAT and NON_FLAT are both successes),
2 = error, 3 = a resource guard tripped.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .dsl import build_problem, parse_problem
from .errors import FlatcheckError, GuardExceeded, Guards
from .flatness import check_flatness, check_flatness_regular_source, verify_hypotheses
from .ideals import Ideal, contract_to_base, eliminate
from .orders import MonomialOrder
from .primdec import decompose
from .report import Report, from_verdict, hypothesis_entries, render_report
from .rings import PolyRing

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
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd)
        p.add_argument("files", nargs="+", help="problem files (.flat)")
        p.add_argument("--order", choices=("lex", "degrevlex"), default="degrevlex")
        p.add_argument("--timeout", type=float, default=None, help="seconds")
        p.add_argument("--max-degree", type=int, default=None)
        p.add_argument("--max-pairs", type=int, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument(
            "--waive-hypothesis",
            action="append",
            default=[],
            metavar="NAME",
            help="treat a failed hypothesis check as waived (recorded in the report)",
        )
        p.add_argument(
            "--target",
            choices=("ring", "module", "cover"),
            default=None,
            help="which declared ideal gb/primdec/eliminate/contract act on "
            "(default: module if declared, else ring)",
        )
        p.add_argument(
            "--vars",
            default=None,
            help="comma-separated variables to eliminate (eliminate command)",
        )
        p.add_argument("--jobs", type=int, default=1, help="process files in parallel")
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


def _run_one(command, path, args):
    """Run one command on one file under the guards the flags ask for.

    The report's timings carry `parse` (reading the file, parsing it and,
    for the flatness commands, building the problem, module radical
    included) and `total`, from the start of the read to the finished
    report.
    """
    guards = Guards(
        max_pairs=args.max_pairs, max_degree=args.max_degree, timeout=args.timeout
    )
    guards_dict = dataclasses.asdict(guards)
    seed = args.seed
    try:
        with guards:
            start = time.monotonic()
            with open(path, "r", encoding="utf-8") as fh:
                pf = parse_problem(fh.read())
            if command in ("check-flat", "check-flat-regular-source", "hypotheses"):
                problem = build_problem(pf, seed=seed)
                if args.waive_hypothesis:
                    problem = dataclasses.replace(
                        problem, waived=tuple(args.waive_hypothesis)
                    )
            parsed = time.monotonic()
            if command == "hypotheses":
                hyp = verify_hypotheses(problem, seed=seed)
                report = Report(
                    command=command,
                    hypotheses=hypothesis_entries(hyp),
                    guards=guards_dict,
                    seed=seed,
                )
            elif command == "check-flat":
                verdict = check_flatness(problem, seed=seed)
                report = from_verdict(command, verdict, guards_dict, seed)
            elif command == "check-flat-regular-source":
                verdict = check_flatness_regular_source(problem, seed=seed)
                report = from_verdict(command, verdict, guards_dict, seed)
            else:
                report = _ideal_command(command, pf, args, guards_dict)
            report.timings = {
                "parse": parsed - start,
                **report.timings,
                "total": time.monotonic() - start,
            }
        return report, 0
    except GuardExceeded as exc:
        guards_dict = dict(guards_dict, tripped=exc.guard)
        report = Report(
            command=command,
            status="guard_exceeded",
            guards=guards_dict,
            seed=seed,
            error=str(exc),
        )
        return report, 3
    except (FlatcheckError, OSError) as exc:
        report = Report(
            command=command,
            status="error",
            guards=guards_dict,
            seed=seed,
            error=f"{path}: {exc}",
        )
        return report, 2


def _ideal_command(command, pf, args, guards_dict):
    I = _target_ideal(pf, args)
    seed = args.seed
    payload = {}
    if command == "gb":
        order = (
            MonomialOrder.lex(I.ring.nvars)
            if args.order == "lex"
            else MonomialOrder.degrevlex(I.ring.nvars)
        )
        gb = I.groebner(order)
        payload["basis"] = [str(g) for g in gb]
        payload["order"] = args.order
    elif command == "primdec":
        dec = decompose(I, seed=seed)
        payload["components"] = [
            {
                "primary": [str(g) for g in c.primary.groebner()],
                "prime": [str(g) for g in c.prime.groebner()],
            }
            for c in dec.components
        ]
        payload["retries"] = dec.retries
    elif command == "eliminate":
        if not args.vars:
            raise FlatcheckError("eliminate requires --vars v1,v2,...")
        drop = [v.strip() for v in args.vars.split(",") if v.strip()]
        E = eliminate(I, drop)
        payload["basis"] = [str(g) for g in E.groebner()]
        payload["ring"] = list(E.ring.variables)
    elif command == "contract":
        if pf.base_name is None:
            raise FlatcheckError("contract requires a declared base ring")
        base_ring = PolyRing(pf.rings[pf.base_name].variables)
        C = contract_to_base(I, base_ring)
        payload["basis"] = [str(g) for g in C.groebner()]
        payload["ring"] = list(base_ring.variables)
    else:  # pragma: no cover - argparse restricts the choices
        raise FlatcheckError(f"unknown command {command!r}")
    return Report(command=command, guards=guards_dict, seed=seed, payload=payload)


def _run_one_star(work):
    return _run_one(*work)


def main(argv=None):
    args = _build_argparser().parse_args(argv)
    work = [(args.command, path, args) for path in args.files]
    if args.jobs > 1 and len(work) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
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
