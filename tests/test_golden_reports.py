"""Reports pinned to files under tests/golden/: JSON reports minus
`timings`, and a few text reports minus their `time:` line.

A change that only makes flatcheck faster must leave every report below
byte-identical apart from its timings.  Only the problem-file path, which
depends on where the package is installed, is normalized to the file name.

Regenerate the files (after a deliberate change of output) with
`PYTHONPATH=src python tests/test_golden_reports.py`.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest
from conftest import strict_json

from flatcheck import problems
from flatcheck.cli import main

GOLDEN = Path(__file__).with_name("golden")

CASES = (
    [("check-flat", name, ()) for name in
     ("douady", "blowup", "xy-collapse", "free-module", "cusp-second-cover")]
    + [("check-flat", "douady-no-cover", ("--waive-hypothesis", "cover_smooth"))]
    + [("check-flat-regular-source", name, ())
       for name in ("blowup", "xy-collapse", "free-module")]
    + [(command, name, ()) for command in ("gb", "primdec", "hypotheses")
       for name in ("douady", "blowup")]
    # xy-collapse has a positive-dimensional component, so its leaves are
    # certified over Q(U).
    + [("primdec", name, ()) for name in ("cusp-second-cover", "xy-collapse")]
    + [("primdec", name, ()) for name in ("douady-no-cover", "free-module")]
    + [("hypotheses", name, ()) for name in
       ("xy-collapse", "free-module", "cusp-second-cover", "douady-no-cover")]
    # The regular-source variant rejects douady-no-cover on cover_smooth:
    # an error report.
    + [("check-flat-regular-source", "douady-no-cover", ())]
    # Decided by the saturation test; decomposing their fibred cube ran away.
    + [("check-flat-regular-source", name, ()) for name in ("douady", "cusp-second-cover")]
    # Lex and block orders: the elimination orders behind contract and
    # eliminate, and a lex basis.
    + [(command, name, extra) for command, extra in
       (("gb", ("--order", "lex")), ("contract", ()))
       for name in ("douady", "blowup")]
    + [("eliminate", "douady", ("--vars", "y1"))]
    # Singular surfaces: the A_1 and A_2 cones, verdicts proved in each file.
    + [("check-flat", name, ()) for name in
       ("cone-a1-normalization", "cone-a2-normalization", "cone-a1-monic",
        "cone-a1-blowup-chart")]
    # Printed lex bases and decompositions in the cones' 5-variable rings.
    + [(command, name, extra) for command, extra in
       (("gb", ("--order", "lex")), ("primdec", ()))
       for name in ("cone-a1-normalization", "cone-a2-normalization",
                    "cone-a1-monic", "cone-a1-blowup-chart")]
    # Text reports: a note, list and scalar payloads, an error and a guard trip.
    + [(command, name, (*extra, "--format", "text")) for command, name, extra in
       (("check-flat", "douady-no-cover", ("--waive-hypothesis", "cover_smooth")),
        ("primdec", "douady", ()),
        ("gb", "douady", ()),
        ("eliminate", "douady", ("--vars", "y1")),
        ("check-flat-regular-source", "douady-no-cover", ()),
        ("check-flat", "douady", ("--timeout", "0")))]
)


def _case_id(case):
    """`command--name`, plus `-value` for an --order, --vars, --timeout or
    --format option."""
    command, name, extra = case
    tags = [v for k, v in zip(extra[::2], extra[1::2])
            if k in ("--order", "--vars", "--timeout", "--format")]
    return f"{command}--{name}" + "".join("-" + t for t in tags)


def _golden(case):
    suffix = ".txt" if "--format" in case[2] else ".json"
    return GOLDEN / (_case_id(case) + suffix)


def _report(command, name, extra):
    """One CLI run's report as stable text: the JSON report without
    timings or, for a `--format text` case, the text without `time:`."""
    path = problems.path(name)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if "--format" in extra:
            main([command, path, *extra])
            lines = out.getvalue().replace(path, f"{name}.flat").splitlines(True)
            return "".join(line for line in lines if not line.startswith("time: "))
        main([command, path, "--format", "json", *extra])
    rep = strict_json(out.getvalue())
    del rep["timings"]
    rep["error"] = rep["error"].replace(path, f"{name}.flat")
    return json.dumps(rep, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_report_matches_golden(case):
    expected = _golden(case).read_text(encoding="utf-8")
    assert _report(*case) == expected


def test_every_bundled_problem_has_a_golden_report_and_a_readme_row():
    readme = (GOLDEN.parent.parent / "README.md").read_text(encoding="utf-8")
    names = sorted(p.stem for p in Path(problems.__file__).parent.glob("*.flat"))
    assert names
    for name in names:
        assert (GOLDEN / f"check-flat--{name}.json").is_file(), name
        assert f"| `{name}.flat` |" in readme, name


CORPUS = ("douady", "blowup", "xy-collapse", "free-module", "cusp-second-cover",
          "douady-no-cover")

# `--seed` is only recorded in the report: every other key must be the same
# for every seed.
SEED_CASES = (
    [("check-flat", name,
      ("--waive-hypothesis", "cover_smooth") if name == "douady-no-cover" else ())
     for name in CORPUS]
    + [("primdec", name, ()) for name in CORPUS]
)


@pytest.mark.parametrize("case", SEED_CASES, ids=_case_id)
def test_report_is_seed_invariant(case):
    command, name, extra = case
    reports = []
    for seed in (0, 1, 2):
        rep = strict_json(_report(command, name, (*extra, "--seed", str(seed))))
        del rep["seed"]
        reports.append(rep)
    assert reports[1] == reports[0]
    assert reports[2] == reports[0]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        _golden(case).write_text(_report(*case), encoding="utf-8")
        print(_case_id(case), file=sys.stderr)
