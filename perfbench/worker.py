"""One workload in one fresh process: a closed loop with a single client.

Started by run.py, never imported.  Each pass runs every input of the
workload once, in order; the next input starts when the previous one has
finished.  Every output is checked against its hand-written answer.  The
result is printed as one JSON object on the last line of stdout.

With --trace 1 the untraced passes come first, then the tracer is
installed and the traced passes follow, so the two phases give the
tracing overhead and the traced phase gives the per-layer metrics.

Pass and input times are reported in reference seconds.  The speed of a
shared machine drifts by tens of percent over minutes, which no number of
passes averages out, and it drifts within a single pass too.  So a fixed
calibration workload runs before every input and after the last one, and
each input's wall time is scaled by CAL_REF_S over the mean of the
calibrations on either side of it.  Raw wall times and calibration times
are kept in the detail of the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from time import perf_counter
from typing import NamedTuple

import workloads

# pass_s.tail is pass_s.p50 times the 75th percentile of every input
# sample's time over its input's median.  At least 40 samples put ten
# beyond that percentile.
TAIL_PERCENTILE = 75
TAIL_SAMPLES = 40
MIN_TRACE_PASSES = 3  # per phase of a traced run

# Calibration: products of two sparse bivariate polynomials held as dicts
# from exponent tuples to Fractions, the kind of work flatcheck does.
_CAL_POLY = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
_CAL_REPEATS = 8
CAL_REF_S = 0.05  # calibration time at the reference speed


def calibrate():
    """Wall seconds the fixed calibration workload takes right now."""
    gc.collect()
    start = perf_counter()
    for _ in range(_CAL_REPEATS):
        product = {}
        for (i, j), c in _CAL_POLY.items():
            for (k, l), d in _CAL_POLY.items():
                key = (i + k, j + l)
                product[key] = product.get(key, 0) + c * d
    return perf_counter() - start


class Sample(NamedTuple):
    """One input run once."""

    seconds: float  # reference seconds
    wall: float  # wall seconds
    outcome: workloads.Outcome


def _run_input(inp, tracer, pass_index):
    """Run one input, timed; return (seconds, Outcome)."""
    call = inp.call
    if tracer is not None:
        tracer.key = (pass_index, inp.name)
        call = tracer.span("input", call)
    gc.collect()
    start = perf_counter()
    try:
        raw = call()
    except Exception:
        elapsed = perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return elapsed, workloads.Outcome("error", None, traceback.format_exc())
    elapsed = perf_counter() - start
    return elapsed, inp.outcome(raw)


def run_phase(inputs, seconds, min_passes, tracer=None, on_pass=None):
    """Passes until `min_passes` are done and `seconds` reference seconds
    (or 1.5 times that in wall seconds) have been measured.

    Counting reference seconds keeps the number of passes about the same
    whether the machine is fast or slow.  Returns (passes, cals): per pass
    one Sample per input, and the raw calibration times, one more than
    there are samples.
    """
    passes = []
    before = calibrate()
    cals = [before]
    measured = 0.0
    start = perf_counter()
    while len(passes) < min_passes or (
        measured < seconds and perf_counter() - start < 1.5 * seconds
    ):
        results = []
        for inp in inputs:
            wall, outcome = _run_input(inp, tracer, len(passes))
            after = calibrate()
            cals.append(after)
            results.append(Sample(wall * 2 * CAL_REF_S / (before + after), wall, outcome))
            before = after
        passes.append(results)
        measured += sum(sample.seconds for sample in results)
        if on_pass is not None:
            on_pass()
    return passes, cals


def passes_needed(inputs):
    """Passes that give pass_s.tail at least TAIL_SAMPLES input samples."""
    return math.ceil(TAIL_SAMPLES / len(inputs))


def _slowdown(per_input_times):
    """TAIL_PERCENTILE (nearest rank) of each sample over its input's median."""
    ratios = sorted(
        t / statistics.median(times) for times in per_input_times for t in times)
    return ratios[math.ceil(TAIL_PERCENTILE / 100 * len(ratios)) - 1], len(ratios)


def check(inputs, passes):
    """Tally outcomes; return (attempted, failed, decided, wrong messages)."""
    attempted = failed = decided = 0
    wrong = []
    for results in passes:
        for inp, (_seconds, _wall, out) in zip(inputs, results):
            attempted += 1
            if out.status != "ok":
                failed += 1
            elif out.answer == inp.expected:
                decided += 1
            else:
                wrong.append(f"{inp.name}: got {out.answer!r}, expected {inp.expected!r}")
    return attempted, failed, decided, wrong


def _pass_times(passes, field="seconds"):
    return [sum(getattr(sample, field) for sample in results) for results in passes]


def end_to_end(inputs, passes, cals, timeout):
    """The end-to-end metrics of one untraced phase, plus per-input detail."""
    pass_times = _pass_times(passes)
    input_times = [[results[i].seconds for results in passes] for i in range(len(inputs))]
    slowdown, tail_samples = _slowdown(input_times)
    per_input = []
    for i, inp in enumerate(inputs):
        samples = [results[i] for results in passes]
        # Raw wall seconds: both sides were measured in the same moment.
        gaps = [
            sample.wall - sample.outcome.report_total
            for sample in samples if sample.outcome.report_total is not None
        ]
        tripped = [
            sample.wall - timeout
            for sample in samples
            if sample.outcome.status == "guard_exceeded" and timeout is not None
        ]
        per_input.append({
            "input": inp.name,
            "median_s": statistics.median(input_times[i]),
            "samples": len(samples),
            "wall_s": [sample.wall for sample in samples],
            "statuses": sorted({sample.outcome.status for sample in samples}),
            # Wall time the benchmark saw minus the report's timings.total.
            "report_gap_s": statistics.median(gaps) if gaps else None,
            "guard_overshoot_s": statistics.median(tripped) if tripped else None,
        })
    attempted, failed, decided, wrong = check(inputs, passes)
    metrics = {
        "pass_s.p50": (statistics.median(pass_times), "s"),
        "pass_s.tail": (statistics.median(pass_times) * slowdown, "s"),
        "input_s.geomean": (
            math.exp(statistics.fmean(math.log(p["median_s"]) for p in per_input)), "s"),
        "decided_ratio": (decided / attempted, "ratio"),
    }
    wall = _pass_times(passes, "wall")
    detail = {
        "passes": len(pass_times),
        "pass_s": pass_times,
        "pass_s.tail_slowdown": slowdown,
        "pass_s.tail_samples": tail_samples,
        "wall_pass_s": wall,
        "wall_pass_s.p50": statistics.median(wall),
        "calibration_s": cals,
        "inputs": per_input,
    }
    return metrics, detail, (attempted, failed, wrong)


# Per-layer metric -> span or aggregate names whose self time it sums.
_SELF_TIME = {
    "dsl.parse_s": ("dsl.tokenize", "dsl.parse_problem", "dsl.parse_polynomial"),
    "report.render_s": "report.",
    "dsl.build_problem_s": ("dsl.build_problem",),
    "flatness.hypotheses_s": ("flatness.verify_hypotheses",),
    "flatness.fibred_power_s": ("flatness.build_fibred_power",),
    "flatness.torsion_s": ("flatness.torsion_witnesses",),
    "primdec.decompose_s": "primdec.",
    "ideals.saturate_s": ("ideals.saturate",),
    "ideals.quotient_s": ("ideals.quotient",),
    "ideals.intersect_s": ("ideals.intersect",),
    "ideals.eliminate_s": ("ideals.eliminate", "ideals.contract_to_base"),
    "ideals.dimension_s": ("ideals.dimension", "ideals.independent_sets"),
    "groebner.buchberger_s": ("groebner.buchberger", "groebner.s_polynomial"),
    "groebner.reduce_basis_s": ("groebner.reduce_basis",),
    "groebner.division_s": ("groebner.division", "groebner.normal_form"),
    "funcfield.ff_factor_s": ("funcfield.ff_factor", "funcfield.ff_factor_squarefree"),
    "funcfield.multivariate_gcd_s": ("funcfield.multivariate_gcd",),
    "factor.factor_univariate_s": "factor.",
    "kernels.s": "kernels.",
}
_CALLS = {
    "primdec.decompose_calls": ("primdec.decompose", "primdec.zero_dim_decompose"),
    "ideals.saturate_calls": ("ideals.saturate",),
    "ideals.intersect_calls": ("ideals.intersect",),
    "groebner.gb_calls": ("groebner.groebner_basis",),
    "groebner.spolys": ("groebner.s_polynomial",),
    "groebner.division_calls": ("groebner.division",),
    "kernels.monomial_lcm_calls": ("kernels.monomial_lcm",),
    "kernels.monomial_mul_calls": ("kernels.monomial_mul",),
    "kernels.find_divisor_calls": ("kernels.find_divisor",),
    "kernels.leading_exponent_calls": ("kernels.leading_exponent",),
    "rings.polynomials_built": ("rings.Polynomial.__init__",),
}
# Layers each workload must reach, and layers it must not (ideal-layers
# calls the GB and factoring layers directly).
EXPECTED_LAYERS = {
    "check-flat-corpus": ({"cli", "report", "dsl", "flatness", "primdec", "ideals",
                           "groebner", "funcfield", "factor", "rings", "kernels"}, set()),
    "regular-source": ({"cli", "report", "dsl", "flatness", "primdec", "ideals",
                        "groebner", "rings", "kernels"}, set()),
    "runaway": ({"cli", "report", "dsl", "primdec", "ideals", "groebner", "rings",
                 "kernels"}, set()),
    "ideal-layers": ({"groebner", "factor", "rings", "kernels"},
                     {"cli", "dsl", "flatness", "primdec", "ideals"}),
}


def _sum(table, names):
    if isinstance(names, str):  # a layer prefix
        return sum(v for k, v in table.items() if k.startswith(names))
    return sum(table.get(n, 0) for n in names)


def layer_metrics(calls, self_s, counts):
    """Per-layer metrics of one traced pass."""
    out = {name: (_sum(self_s, names), "s") for name, names in _SELF_TIME.items()}
    out.update({name: (_sum(calls, names), "count") for name, names in _CALLS.items()})
    gb = calls.get("ideals.Ideal.groebner", 0)
    spolys = calls.get("groebner.s_polynomial", 0)
    out["ideals.gb_cache_hit_ratio"] = (
        counts["ideals.gb_cache_hits"] / gb if gb else 0.0, "ratio")
    out["groebner.zero_reduction_ratio"] = (
        counts["groebner.zero_reductions"] / spolys if spolys else 0.0, "ratio")
    out["groebner.max_coeff_bits"] = (counts["groebner.max_coeff_bits"], "bits")
    out["primdec.retries"] = (counts["primdec.retries"], "count")
    out["primdec.components"] = (counts["primdec.components"], "count")
    return out


def _median_metrics(per_pass):
    names = per_pass[0].keys()
    return {
        name: (statistics.median(p[name][0] for p in per_pass), per_pass[0][name][1])
        for name in names
    }


def traced_run(workload, inputs, seconds, spans_path):
    """Untraced phase, then traced phase; per-layer metrics and self-test."""
    from tracer import Tracer

    half = seconds / 2
    plain, _ = run_phase(inputs, half, MIN_TRACE_PASSES)
    tracer = Tracer()
    tracer.install()
    per_pass, per_input_counts = [], []

    def summarise():
        calls, self_s, counts, per_input = tracer.take_pass()
        per_pass.append(layer_metrics(calls, self_s, counts))
        per_input_counts.append(per_input)

    traced, _ = run_phase(inputs, half, MIN_TRACE_PASSES, tracer, summarise)

    problems = []
    # Same outputs with and without tracing.
    for label, phase in (("untraced", plain), ("traced", traced)):
        for results in phase:
            for inp, (_s, _w, out), (_s0, _w0, first) in zip(inputs, results, plain[0]):
                if out.status == "ok" and first.status == "ok" and out.detail != first.detail:
                    problems.append(f"{label} output of {inp.name} differs between passes")
    # Deterministic counts: every traced pass makes the same calls, except
    # on inputs a time guard cut short.
    settled = {
        inp.name for i, inp in enumerate(inputs)
        if all(results[i].outcome.status == "ok" for results in traced)
    }
    for counts in per_input_counts[1:]:
        for name in settled:
            if counts.get(name) != per_input_counts[0].get(name):
                problems.append(f"call counts of {name} differ between traced passes")
    # Every layer the workload exercises has spans; skipped layers have none.
    seen = {name.split(".")[0] for counts in per_input_counts for c in counts.values()
            for name in c}
    required, forbidden = EXPECTED_LAYERS[workload]
    for layer in sorted(required - seen):
        problems.append(f"no span of layer {layer}")
    for layer in sorted(forbidden & seen):
        problems.append(f"unexpected span of layer {layer}")

    metrics = _median_metrics(per_pass)
    plain_times = _pass_times(plain)
    traced_times = _pass_times(traced)
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_times) / statistics.median(plain_times), "ratio")
    attempted, failed, _decided, wrong = check(inputs, plain + traced)
    detail = {
        "passes_untraced": len(plain),
        "passes_traced": len(traced),
        "self_test_problems": problems,
    }
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.tree(), fh, separators=(",", ":"))
    return metrics, detail, (attempted, failed, wrong + problems)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="reference seconds to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file the span tree of --trace 1 goes to")
    parser.add_argument("--setup-only", action="store_true",
                        help="import flatcheck.cli, load the inputs and exit")
    args = parser.parse_args(argv)
    if args.seconds is None and not args.setup_only:
        parser.error("--seconds is required")

    import flatcheck.cli  # noqa: F401  - what a CLI user pays on every run

    inputs = workloads.load_inputs(args.workload, args.seed)
    if args.setup_only:
        return 0

    if args.trace:
        metrics, detail, (attempted, failed, wrong) = traced_run(
            args.workload, inputs, args.seconds, args.spans)
    else:
        passes, cals = run_phase(inputs, args.seconds, passes_needed(inputs))
        metrics, detail, (attempted, failed, wrong) = end_to_end(
            inputs, passes, cals, workloads.GUARD_BUDGET_S.get(args.workload))
        # ru_maxrss is in KiB on Linux.
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    for message in wrong:
        print(f"wrong: {message}", file=sys.stderr)
    from flatcheck import _kernels

    print(json.dumps({
        "kernels": _kernels.IMPLEMENTATION,
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
