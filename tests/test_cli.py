"""Command-line interface: commands, exit codes, and report schema."""

import json
import subprocess
import sys

import pytest

from flatcheck import problems
from flatcheck.cli import main
from flatcheck.report import SCHEMA_VERSION

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
    return code, json.loads(out)


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


def test_check_flat_regular_source(capsys):
    code, rep = run_json(
        ["check-flat-regular-source", problems.path("blowup")], capsys
    )
    assert code == 0
    assert rep["verdict"] == "NON_FLAT"
    assert rep["payload"]["n"] == 3


# -- ideal commands ---------------------------------------------------------------


def test_gb_lex(tiny_file, capsys):
    code, rep = run_json(["gb", tiny_file, "--order", "lex"], capsys)
    assert code == 0
    assert rep["payload"]["order"] == "lex"
    assert sorted(rep["payload"]["basis"]) == sorted(["x - y", "y^2 - 1"])


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


def test_jobs_batch(capsys):
    paths = [problems.path("xy-collapse"), problems.path("free-module")]
    code, out = run_cli(["check-flat", *paths, "--jobs", "2"], capsys)
    assert code == 0
    for p in paths:
        assert f"== {p}" in out
    assert "NON_FLAT" in out and "FLAT" in out


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "flatcheck.cli", "gb", problems.path("xy-collapse")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "y*x" in proc.stdout
