"""Command-line interface: commands, exit codes, and report schema."""

import concurrent.futures
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import strict_json

import flatcheck
from flatcheck import cli, orders, problems, rings
from flatcheck.cli import main
from flatcheck.dsl import MAX_NESTING, parse_problem
from flatcheck.orders import MonomialOrder
from flatcheck.report import SCHEMA_VERSION
from flatcheck.rings import Polynomial

REPORT_KEYS = {
    "schema_version",
    "tool_version",
    "command",
    "status",
    "verdict",
    "witness",
    "hypotheses",
    "guards",
    "seed",
    "timings",
    "payload",
    "note",
    "error",
}


def run_cli(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def run_json(argv, capsys):
    code, out = run_cli(argv + ["--format", "json"], capsys)
    return code, strict_json(out)


@pytest.fixture()
def tiny_file(tmp_path):
    p = tmp_path / "tiny.flat"
    p.write_text(
        "ring R = Q[x, y];\nmodule F over R = Q[x, y] / (x^2 - 1, x*y - 1);\n"
    )
    return str(p)


# -- check-flat --------------------------------------------------------------


def test_check_flat_douady(capsys):
    code, rep = run_json(["check-flat", problems.path("douady")], capsys)
    assert code == 0
    assert rep["status"] == "ok"
    assert rep["verdict"] == "NON_FLAT"
    assert rep["schema_version"] == SCHEMA_VERSION
    assert set(rep) == REPORT_KEYS
    assert any(
        sorted(w["contraction"]) == ["x", "y"]
        or sorted(w["contraction"]) == ["y1", "y2"]
        for w in rep["witness"]
    )
    assert rep["payload"]["n"] == 1


def test_check_flat_free_module(capsys):
    code, rep = run_json(["check-flat", problems.path("free-module")], capsys)
    assert code == 0
    assert rep["verdict"] == "FLAT"
    assert rep["witness"] == []


def test_check_flat_text_output(capsys):
    code, out = run_cli(["check-flat", problems.path("xy-collapse")], capsys)
    assert code == 0
    assert "verdict: NON_FLAT" in out
    assert "witness prime:" in out


def test_waive_hypothesis(capsys):
    path = problems.path("douady-no-cover")
    code, rep = run_json(["check-flat", path], capsys)
    assert code == 2  # identity cover of a singular base fails smoothness
    assert rep["status"] == "error"
    code, rep = run_json(
        ["check-flat", path, "--waive-hypothesis", "cover_smooth"], capsys
    )
    assert code == 0
    assert rep["verdict"] == "TORSION_FREE"
    assert "waived" in rep["note"]
    status = {h["name"]: h["status"] for h in rep["hypotheses"]}
    assert status["cover_smooth"] == "waived"


@pytest.mark.parametrize(
    "name, waiver",
    [
        ("douady-no-cover", "cover_smoth"),
        ("douady", "nonsense"),
        ("douady", "analytically_irreducible"),  # never machine-checked
    ],
)
@pytest.mark.parametrize("command", ["check-flat", "check-flat-regular-source", "hypotheses"])
def test_unknown_waiver_is_an_error(command, name, waiver, capsys):
    code, rep = run_json(
        [command, problems.path(name), "--waive-hypothesis", waiver], capsys
    )
    assert code == 2
    assert rep["status"] == "error" and rep["verdict"] is None
    assert repr(waiver) in rep["error"]
    assert "base_prime, dimensions, cover_dominant, cover_smooth" in rep["error"]


def test_check_flat_regular_source(capsys):
    code, rep = run_json(
        ["check-flat-regular-source", problems.path("blowup")], capsys
    )
    assert code == 0
    assert rep["verdict"] == "NON_FLAT"
    assert rep["payload"]["n"] == 3


def test_check_flat_zero_module(tmp_path, capsys):
    zero = tmp_path / "zero.flat"
    zero.write_text(
        "ring R = Q[y];\nmodule A over R = Q[y, x] / (1);\nassert analytically_irreducible;\n"
    )
    code, rep = run_json(["check-flat", str(zero)], capsys)
    assert code == 0
    assert rep["verdict"] == "FLAT"
    assert rep["witness"] == []


@pytest.mark.parametrize("name", ["douady", "cusp-second-cover"])
def test_regular_source_decides_the_former_runaways(name, capsys):
    # Decomposing the fibred cube of these inputs ran past any 10 s budget;
    # the saturation test decides them without decomposing it.
    code, rep = run_json(
        ["check-flat-regular-source", problems.path(name), "--timeout", "10"], capsys
    )
    assert code == 0
    assert rep["verdict"] == "NON_FLAT"
    assert [w["prime"] for w in rep["witness"]] == [["y1", "y2", "x__1", "x__2"]]


# -- ideal commands ---------------------------------------------------------------


def test_gb_lex(tiny_file, capsys):
    code, rep = run_json(["gb", tiny_file, "--order", "lex"], capsys)
    assert code == 0
    assert rep["payload"]["order"] == "lex"
    assert sorted(rep["payload"]["basis"]) == sorted(["x - y", "y^2 - 1"])


@pytest.mark.parametrize("name", ["douady", "blowup", "cone-a1-monic"])
def test_gb_lex_prints_each_lex_lead_first(name, capsys):
    path = problems.path(name)
    code, rep = run_json(["gb", path, "--order", "lex"], capsys)
    assert code == 0
    with open(path, encoding="utf-8") as fh:
        pf = parse_problem(fh.read())
    I = cli._target_ideal(pf, cli._build_argparser().parse_args(["gb", path]))
    order = MonomialOrder.lex(I.ring.nvars)
    basis = list(I.groebner(order))
    leads = [Polynomial(I.ring, dict([g.leading_term(order)])) for g in basis]
    # The first term is printed with its sign, and terms are joined by " + "
    # or " - ", so the first space ends it.
    assert [s.split(" ")[0] for s in rep["payload"]["basis"]] == [str(m) for m in leads]
    # Some lex lead is not the lead under the ring's degrevlex order.
    assert any(m != Polynomial(I.ring, dict([g.leading_term()]))
               for g, m in zip(basis, leads))


def test_primdec_command(tiny_file, capsys):
    code, rep = run_json(["primdec", tiny_file], capsys)
    assert code == 0
    comps = rep["payload"]["components"]
    assert len(comps) == 2
    primes = sorted(tuple(c["prime"]) for c in comps)
    assert primes == [("x + 1", "y + 1"), ("x - 1", "y - 1")]


def test_eliminate_command(capsys):
    code, rep = run_json(
        [
            "eliminate",
            problems.path("douady"),
            "--target",
            "cover",
            "--vars",
            "u",
        ],
        capsys,
    )
    assert code == 0
    assert rep["payload"]["ring"] == ["y1", "y2"]
    assert rep["payload"]["basis"] == ["y1^3 + 27/4*y2^2"]


def test_contract_command(capsys):
    code, rep = run_json(
        ["contract", problems.path("douady"), "--target", "cover"], capsys
    )
    assert code == 0
    assert rep["payload"]["basis"] == ["y1^3 + 27/4*y2^2"]


def test_hypotheses_command(capsys):
    code, rep = run_json(["hypotheses", problems.path("douady")], capsys)
    assert code == 0
    status = {h["name"]: h["status"] for h in rep["hypotheses"]}
    assert status["base_prime"] == "pass"
    assert status["cover_smooth"] == "pass"
    assert status["analytically_irreducible"] == "asserted"


# -- exit codes and robustness ----------------------------------------------------


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.flat"
    bad.write_text("ring R = Q[y1 y2];\n")
    code, rep = run_json(["check-flat", str(bad)], capsys)
    assert code == 2
    assert rep["status"] == "error"
    assert "line 1" in rep["error"]


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("ring R = Q[y] / (y^\u00b2);\n", 1, 20),
        ("ring R = Q[y];\noption power = \u00b2;\n", 2, 16),
    ],
)
def test_a_superscript_digit_is_a_parse_error(text, line, column, tmp_path, capsys):
    # str.isdigit() holds for "\u00b2" but int() rejects it.
    bad = tmp_path / "bad.flat"
    bad.write_text(text, encoding="utf-8")
    code, rep = run_json(["check-flat", str(bad)], capsys)
    assert code == 2
    assert f"'\u00b2' at line {line}, column {column}" in rep["error"]


@pytest.mark.parametrize("opener, closer", [("(", ")"), ("-", "")])
def test_deep_nesting_is_a_parse_error(opener, closer, tmp_path, capsys):
    bad = tmp_path / "bad.flat"
    prefix = "module A over R = Q[y, x] / ("
    bad.write_text(
        "ring R = Q[y];\n" + prefix + opener * 5000 + "x*y" + closer * 5000 + ");\n"
    )
    code, rep = run_json(["check-flat", str(bad)], capsys)
    assert code == 2
    # At the first factor past the bound; a term's leading `-` is no factor.
    column = len(prefix) + MAX_NESTING + 1 + (opener == "-")
    assert rep["error"].endswith(f"expression nested too deeply at line 2, column {column}")


def test_undecodable_file_is_an_input_error(tmp_path, capsys):
    # Not UTF-8: reported as an error, and the next file still runs.
    bad = tmp_path / "bad.flat"
    bad.write_bytes(b"ring R = Q[y1, y2];\n# \xff\xfe\n")
    good = problems.path("xy-collapse")
    code, out = run_cli(["check-flat", str(bad), good, "--format", "json"], capsys)
    assert code == 2
    first, second = out.split(f"== {good}\n")
    bad_rep = strict_json(first.split("\n", 1)[1])
    assert bad_rep["status"] == "error"
    assert str(bad) in bad_rep["error"]
    good_rep = strict_json(second)
    assert good_rep["status"] == "ok"
    assert good_rep["verdict"] == "NON_FLAT"


def test_missing_file_exit_2(capsys):
    code, rep = run_json(["check-flat", "/nonexistent.flat"], capsys)
    assert code == 2
    assert rep["status"] == "error"


def test_guard_trip_exit_3(capsys):
    code, rep = run_json(
        ["check-flat", problems.path("douady"), "--max-pairs", "1"], capsys
    )
    assert code == 3
    assert rep["status"] == "guard_exceeded"
    assert rep["guards"]["tripped"] in ("pairs", "degree", "time")


def test_total_covers_every_stage(capsys):
    code, rep = run_json(["check-flat", problems.path("douady")], capsys)
    assert code == 0
    t = rep["timings"]
    assert set(t) == {"parse", "hypotheses", "build", "decompose", "total"}
    assert t["total"] >= t["parse"] + t["hypotheses"] + t["build"] + t["decompose"]


def test_timeout_guard(capsys):
    code, rep = run_json(
        ["check-flat", problems.path("douady"), "--timeout", "0.0"], capsys
    )
    assert code == 3
    assert rep["guards"]["tripped"] == "time"


def test_a_nan_timeout_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check-flat", problems.path("douady"), "--timeout", "nan"])
    assert exc.value.code == 2
    assert "--timeout" in capsys.readouterr().err


def test_an_infinite_timeout_sets_no_limit(capsys):
    # JSON has no infinities: the report shows no limit as null.
    for budget in ("inf", "1e400"):
        code, rep = run_json(["check-flat", problems.path("douady"), "--timeout", budget],
                             capsys)
        assert code == 0 and rep["verdict"] == "NON_FLAT"
        assert rep["guards"]["timeout"] is None


def test_a_minus_infinite_timeout_trips_and_shows_as_zero(capsys):
    code, rep = run_json(["check-flat", problems.path("douady"), "--timeout=-inf"], capsys)
    assert code == 3 and rep["guards"] == {
        "max_degree": None, "max_pairs": None, "timeout": 0.0, "tripped": "time"}


_AS = ", ".join(f"a{i}" for i in range(24))
# (command, problem file) pairs that each keep one long loop busy for far
# longer than the budget: expanding a power in the parser, building the
# 3001-variable ring of a fibred power and the rest of its run, pairing the
# 500 copies of a fibred power, scanning the 2^24 candidate independent
# sets, counting the 150^3 standard monomials of a zero-dimensional ideal,
# and factoring y^20000 - 2 modulo a prime while checking the base.
_SLOW = {
    "parser": (
        "check-flat",
        "ring R = Q[y1, y2] / ((y1 + y2 + 1)^400);\n"
        "module A over R = Q[y1, y2, x] / (x*y1);\n",
    ),
    "order-fields": (
        "check-flat",
        "ring R = Q[y];\nmodule F over R = Q[y, x] / (x*y);\noption power = 3000;\n",
    ),
    "pair-building": (
        "check-flat",
        "ring R = Q[y];\nmodule F over R = Q[y, x] / (x*y);\noption power = 500;\n",
    ),
    "independent-set": ("primdec", f"ring R = Q[{_AS}] / ({_AS});\n"),
    "standard-monomials": (
        "primdec",
        "ring R = Q[x, y, z] / (x^150 - 2, y^150 - 3, z^150 - 5);\n",
    ),
    "univariate-factor": (
        "check-flat",
        "ring R = Q[y] / (y^20000 - 2);\nmodule A over R = Q[y, x] / (x - y);\n",
    ),
}


@pytest.mark.parametrize("case", sorted(_SLOW))
def test_timeout_guard_reaches_the_parser(case, tmp_path):
    # A child process, so that a run which outlives its budget fails the
    # test, not hangs it.
    command, text = _SLOW[case]
    slow = tmp_path / "slow.flat"
    slow.write_text(text)
    budget = 0.5
    start = time.monotonic()
    proc = _run_module(
        "flatcheck",
        [command, str(slow), "--timeout", str(budget), "--format", "json"],
        timeout=60,
    )
    assert time.monotonic() - start <= budget + 5
    assert proc.returncode == 3
    assert strict_json(proc.stdout)["guards"]["tripped"] == "time"


def test_a_huge_power_ends_within_its_budget(tmp_path):
    # The 20001-variable fibred power has more variables than an order can
    # pack, so its ring is refused before any order is built.
    huge = tmp_path / "huge.flat"
    huge.write_text(
        "ring R = Q[y];\nmodule F over R = Q[y, x] / (x^2 - y);\noption power = 20000;\n"
    )
    start = time.monotonic()
    proc = _run_module("flatcheck", ["check-flat", str(huge), "--timeout", "1"], timeout=60)
    assert time.monotonic() - start <= 1.5
    assert proc.returncode == 3


# -- determinism and batching --------------------------------------------------------


def _strip_timings(rep):
    rep = dict(rep)
    rep.pop("timings")
    return rep


def test_machine_reports_deterministic(capsys):
    path = problems.path("blowup")
    _, rep1 = run_json(["check-flat", path, "--seed", "5"], capsys)
    _, rep2 = run_json(["check-flat", path, "--seed", "5"], capsys)
    assert _strip_timings(rep1) == _strip_timings(rep2)


def test_a_warm_pass_builds_no_ring_or_order(capsys):
    corpus = [problems.path(name) for name in ("douady", "blowup", "xy-collapse")]
    passes = [
        ["check-flat", *corpus],
        ["check-flat-regular-source", *corpus],
    ]
    for argv in passes:
        main(argv)
    built = (len(rings._RINGS), len(orders._SHARED))
    for argv in passes:
        main(argv)
    capsys.readouterr()
    assert (len(rings._RINGS), len(orders._SHARED)) == built


def test_jobs_batch(capsys):
    paths = [problems.path("xy-collapse"), problems.path("free-module")]
    code, out = run_cli(["check-flat", *paths, "--jobs", "2"], capsys)
    assert code == 0
    for p in paths:
        assert f"== {p}" in out
    assert "NON_FLAT" in out and "FLAT" in out


def test_jobs_asks_for_no_more_workers_than_files(monkeypatch, capsys):
    # The executor launches every worker it is allowed up front, so --jobs
    # must be clamped to the file count.  The fake runs the work in this
    # process and starts nothing.
    asked = []

    class SerialExecutor:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # main imports the executor when it needs it, so patch it at its source.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialExecutor)
    paths = [problems.path("xy-collapse"), problems.path("free-module")]
    code, out = run_cli(["check-flat", *paths, "--jobs", "64"], capsys)
    assert code == 0
    assert asked == [2]
    assert "NON_FLAT" in out


# -- argument parsing -------------------------------------------------------------

FLAGS = (
    "--order", "--timeout", "--max-degree", "--max-pairs", "--seed", "--format",
    "--waive-hypothesis", "--target", "--vars", "--jobs",
)


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_every_command_parses(command):
    args = cli._build_argparser().parse_args([command, "a.flat", "b.flat"])
    assert args.command == command
    assert args.files == ["a.flat", "b.flat"]


def test_flags_parse_the_same_before_and_after_the_files():
    flags = [
        "--order", "lex", "--timeout", "2.5", "--max-degree", "7", "--max-pairs", "9",
        "--seed", "3", "--format", "json", "--waive-hypothesis", "cover_smooth",
        "--waive-hypothesis", "base_reduced", "--target", "cover", "--vars", "x,y",
        "--jobs", "2",
    ]
    parser = cli._build_argparser()
    after = parser.parse_args(["eliminate", "a.flat", "b.flat", *flags])
    before = parser.parse_args(["eliminate", *flags, "a.flat", "b.flat"])
    first = parser.parse_args([*flags, "eliminate", "a.flat", "b.flat"])
    assert vars(before) == vars(after) == vars(first)
    assert after.files == ["a.flat", "b.flat"]
    assert after.waive_hypothesis == ["cover_smooth", "base_reduced"]
    assert (after.order, after.timeout, after.max_degree, after.max_pairs) == ("lex", 2.5, 7, 9)
    assert (after.seed, after.format, after.target, after.vars, after.jobs) == (
        3, "json", "cover", "x,y", 2
    )


def test_flags_before_the_files_give_the_same_report(tiny_file, capsys):
    _, after = run_json(["gb", tiny_file, "--order", "lex"], capsys)
    _, before = run_json(["gb", "--order", "lex", tiny_file], capsys)
    before.pop("timings")
    after.pop("timings")
    assert before == after
    assert after["payload"]["order"] == "lex"


@pytest.mark.parametrize(
    "argv",
    [["bogus", "a.flat"], ["check-flat"], []],
    ids=["unknown-command", "no-files", "no-arguments"],
)
def test_bad_command_line_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: flatcheck" in capsys.readouterr().err


def test_help_names_every_command_and_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in (*cli.COMMANDS, *FLAGS):
        assert name in out


def _run_python(args, timeout=None):
    # The child imports the same flatcheck as this process, also when only
    # pytest's `pythonpath` setting put it on sys.path.
    env = dict(os.environ)
    src = str(Path(flatcheck.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )


def _run_module(module, argv=None, timeout=None):
    argv = argv or ["gb", problems.path("xy-collapse")]
    return _run_python(["-m", module, *argv], timeout=timeout)


def test_cli_starts_without_the_process_pool():
    # Only a --jobs run over several files needs the pool, and only a run
    # with a timeout needs signal; importing the CLI or running it on one
    # file without a timeout must load neither.
    pool = "('concurrent.futures', 'multiprocessing', 'signal')"
    code = (
        "import flatcheck.cli, sys\n"
        f"print([m for m in {pool} if m in sys.modules])\n"
        f"flatcheck.cli.main(['gb', {problems.path('xy-collapse')!r}, '--jobs', '4'])\n"
        f"print([m for m in {pool} if m in sys.modules])\n"
    )
    proc = _run_python(["-c", code], timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == lines[-1] == "[]"
    assert "y*x" in proc.stdout


def test_entry_point_subprocess():
    proc = _run_module("flatcheck.cli")
    assert proc.returncode == 0
    assert "y*x" in proc.stdout


def test_package_main_subprocess():
    # `python -m flatcheck` runs the same CLI as `python -m flatcheck.cli`.
    proc = _run_module("flatcheck")
    assert proc.returncode == 0
    assert "y*x" in proc.stdout
