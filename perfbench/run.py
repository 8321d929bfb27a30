"""flatcheck benchmark: time to a verdict, share decided, and per-layer spans.

    python3 perfbench/run.py                        # BENCHMARK.json's workloads
    python3 perfbench/run.py --workload runaway     # guard trips, by name only
    python3 perfbench/run.py --workload regular-source --seed 0 --seconds 26
    python3 perfbench/run.py --workload ideal-layers --trace 1
    python3 perfbench/run.py --self-test            # ideal-layers vs sympy
    python3 perfbench/run.py --compare A.json B.json

Run it from the root of a flatcheck checkout; it imports flatcheck from
./src.  Each workload runs in its own fresh single-threaded Python process
(perfbench/worker.py), one after another, as a closed loop with one client.
`--seed` is passed on as flatcheck's --seed; 0, the default, is the seed
at which the runaway workload reproduces the minimal-polynomial runaway.

For each workload the run prints every metric by name and unit, the
sample counts, the kernel implementation, Python version, nproc and guard
budget, and per input the gap between the benchmark's wall time and the
report's own timings.total.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with several workloads,
each workload's block ends with its own such line.  The full result goes
to .perfbench-out/ in the checkout, and with --trace 1 the span tree too.

Times are in reference seconds, so that the drift of a shared machine's
speed does not read as a change of flatcheck.  Pass and input times are
wall seconds scaled by how long a fixed calibration workload took right
before and after each input (see worker.py).  setup_s scales each setup probe's wall time by how
long a fresh interpreter importing a fixed set of standard modules took
right before it.  The wall seconds are printed beside them.  Gaps and
guard overshoots are wall seconds.

--trace 0 metrics (end to end, measured untraced):
  setup_s          median over fresh interpreters of: start, import
                   flatcheck.cli, load the workload's inputs
  pass_s.p50       median time of one pass over all inputs
  pass_s.tail      pass_s.p50 times the 75th percentile of every input
                   sample's time over its input's median (the slowdown and
                   the sample count, at least 40, are printed beside it)
  input_s.geomean  geometric mean over inputs of each input's median time
  decided_ratio    correct verdicts or layer results / inputs attempted
  peak_rss_mb      peak resident memory of the workload's process
--trace 1 metrics: per-layer self times (span minus child spans, summed per
pass, median over traced passes), call counts, ratios and
trace.overhead_ratio (traced over untraced pass_s.p50 in the same process).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 11
# The reference probe: a fresh interpreter importing standard modules that
# flatcheck's import also loads, and its time at the reference speed.
REFERENCE_PROBE = ["-c", "import argparse, dataclasses, fractions, json, random, typing"]
REFERENCE_PROBE_S = 0.08

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Fixed hash seed: set and dict layouts are the same in every run.
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, timeout):
    return subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=timeout)


def _probe(args):
    """Wall seconds of one fresh interpreter run with `args`."""
    start = perf_counter()
    # No timeout: with one, the wait polls and rounds times up to 50 ms.
    proc = subprocess.run([sys.executable, *args], env=_env(), cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe {args[0]} failed")
    return elapsed


def measure_setup(workload, seed):
    """Median over fresh interpreters that import and load inputs.

    Each probe's wall time is scaled by REFERENCE_PROBE_S over the time of
    a reference probe run right before it, which does the same kind of work
    (start an interpreter, load modules) and none of flatcheck's.
    Returns (reference seconds, wall seconds, samples).
    """
    args = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--setup-only"]
    # The first start compiles the bytecode cache, which users do not pay
    # on every run; it is not timed.
    first = _worker(args[1:], 60)
    if first.returncode != 0:
        raise RuntimeError(first.stderr.strip())
    scaled, wall = [], []
    for _ in range(SETUP_SAMPLES):
        reference = _probe(REFERENCE_PROBE)
        wall.append(_probe(args))
        scaled.append(wall[-1] * REFERENCE_PROBE_S / reference)
    return statistics.median(scaled), statistics.median(wall), len(scaled)


def run_workload(workload, seed, seconds, trace):
    setup = None
    if not trace:
        setup = measure_setup(workload, seed)
    OUT.mkdir(exist_ok=True)
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if trace:
        args += ["--spans", str(OUT / f"{workload}-seed{seed}-spans.json")]
    # A run ends within 180 s at the measuring time BENCHMARK.json sets.
    proc = _worker(args, timeout=max(150, 2 * seconds + 60))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker for {workload} failed with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if setup is not None:
        result["metrics"] = {"setup_s": {"value": setup[0], "unit": "s"}, **result["metrics"]}
        result["detail"]["wall_setup_s"] = setup[1]
        result["detail"]["setup_samples"] = setup[2]
    result.update(
        workload=workload, seed=seed, seconds=seconds, trace=trace,
        python=platform.python_version(), nproc=len(os.sched_getaffinity(0)),
        guard_budget_s=workloads.GUARD_BUDGET_S.get(workload),
    )
    return result


def print_result(result):
    detail = result["detail"]
    budget = result["guard_budget_s"]
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"kernels {result['kernels']}  python {result['python']}  nproc {result['nproc']}  "
          f"guard budget {'none' if budget is None else f'{budget} s'}")
    counts = {
        "setup_s": f"n={detail.get('setup_samples')}, wall {detail.get('wall_setup_s', 0):.4f} s",
        "pass_s.p50": f"n={detail.get('passes')}, wall {detail.get('wall_pass_s.p50', 0):.4f} s",
        "pass_s.tail": f"p75 slowdown x{detail.get('pass_s.tail_slowdown', 0):.4f}, "
                       f"n={detail.get('pass_s.tail_samples')} input samples",
        "input_s.geomean": f"inputs={len(detail.get('inputs', []))}",
        "decided_ratio": f"attempted {result['attempted']}, failed {result['failed']}",
    }
    for name, m in result["metrics"].items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']:<6} {counts.get(name, '')}")
    for entry in detail.get("inputs", []):
        gap = entry["report_gap_s"]
        overshoot = entry["guard_overshoot_s"]
        print(f"  input {entry['input']:<22} median {entry['median_s']:.4f} s  "
              f"n={entry['samples']}  {'/'.join(entry['statuses'])}"
              + ("" if gap is None else f"  wall - report total = {gap:.4f} s")
              + ("" if overshoot is None else f"  guard overshoot = {overshoot:.3f} s"))
    for problem in detail.get("self_test_problems", []):
        print(f"  self-test: {problem}")
    if result["trace"]:
        print(f"  passes: {detail['passes_untraced']} untraced, {detail['passes_traced']} traced")


def save(result):
    path = OUT / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1))
    return path


def compare(path_a, path_b):
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    if a["kernels"] != b["kernels"]:
        print(f"refusing to compare: kernel implementation {a['kernels']!r} vs {b['kernels']!r}",
              file=sys.stderr)
        return 2
    for key in ("workload", "python", "nproc", "guard_budget_s", "seconds", "trace"):
        if a[key] != b[key]:
            print(f"warning: {key} differs: {a[key]!r} vs {b[key]!r}", file=sys.stderr)
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print(f"{name:<34} {ma['value']:>14.6g} {mb['value']:>14.6g} {ma['unit']:<6} x{ratio:.3f}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description="flatcheck benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="one workload (default: those of BENCHMARK.json, one after another)")
    parser.add_argument("--seed", type=int, default=0, help="passed on as flatcheck's --seed")
    parser.add_argument("--seconds", type=float, default=26,
                        help="reference seconds to measure per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the ideal-layers bases against sympy")
    parser.add_argument("--compare", nargs=2, metavar="RESULT",
                        help="compare two result files from .perfbench-out/")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (SRC / "flatcheck" / "__init__.py").is_file():
        print(f"error: no flatcheck sources at {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        import oracle

        return oracle.main(_env(), ROOT)

    names = [args.workload] if args.workload else workloads.BENCHMARK
    all_correct = True
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        print_result(result)
        print(f"  full result: {save(result).relative_to(ROOT)}")
        all_correct &= result["correct"]
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
