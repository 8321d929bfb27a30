"""The benchmark's traced self-test passes on the current program.

`perfbench/worker.py --trace 1` wraps flatcheck's public layer functions
by name and checks that traced outputs equal untraced ones and that every
layer a workload exercises records spans.  A function that is deleted,
renamed or made private can hide a layer from the tracer, which no other
test notices.  The worker only reads perfbench/ and writes its span tree
to a temporary file.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _worker_env():
    """The environment perfbench/run.py gives its worker (see `_env` there)."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env["PYTHONHASHSEED"] = "0"
    return env


@pytest.mark.parametrize("workload", ["check-flat-corpus", "regular-source", "ideal-layers"])
def test_traced_worker_is_correct(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
         "--trace", "1", "--seconds", "0.5", "--spans", str(tmp_path / "spans.json")],
        cwd=ROOT, env=_worker_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    if workload == "check-flat-corpus":
        # The torsion test saturates through the public `ideals.saturate`,
        # so the tracer sees every saturation.
        assert result["metrics"]["ideals.saturate_calls"]["value"] > 0
