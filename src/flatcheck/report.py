"""Report construction and rendering (human text and stable JSON)."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional

from . import __version__

SCHEMA_VERSION = 1


@dataclass
class Report:
    command: str
    status: str = "ok"  # ok | error | guard_exceeded
    verdict: Optional[str] = None
    witness: list = field(default_factory=list)  # [{prime: [...], contraction: [...]}]
    hypotheses: list = field(default_factory=list)  # [{name, status, detail}]
    guards: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    timings: Dict[str, float] = field(default_factory=dict)
    payload: Dict[str, Any] = field(default_factory=dict)  # command-specific extras
    note: str = ""
    error: str = ""

    def to_dict(self):
        """The versions and the report's fields, as one shallow dict: the
        values are the report's own lists and dicts, not copies."""
        versions = {"schema_version": SCHEMA_VERSION, "tool_version": __version__}
        return {**versions, **vars(self)}

    def add_verdict(self, verdict):
        """Fill in a flatness Verdict: result, witnesses, hypotheses and extras."""
        self.verdict = verdict.result
        self.witness = [
            {"prime": _ideal_strings(w.prime),
             "contraction": _ideal_strings(w.contraction)}
            for w in verdict.witnesses
        ]
        self.hypotheses = [asdict(c) for c in verdict.hypotheses]
        self.timings = verdict.timings
        self.payload = {
            "n": verdict.n,
            "power_overridden": verdict.power_overridden,
            "retries": verdict.retries,
            "renames": verdict.renames,
        }
        self.note = verdict.note


def _ideal_strings(I):
    return [str(g) for g in I.groebner()]


def render_report(report, fmt="text"):
    if fmt == "json":
        return json.dumps(report.to_dict(), sort_keys=True, indent=2, allow_nan=False)
    return _render_text(report)


def _render_text(report):
    lines = [f"flatcheck {__version__} — {report.command}"]
    if report.status != "ok":
        lines.append(f"status: {report.status}")
        if report.error:
            lines.append(f"error: {report.error}")
        if report.status == "guard_exceeded" and report.guards.get("tripped"):
            lines.append(f"tripped guard: {report.guards['tripped']}")
        return "\n".join(lines) + "\n"
    if report.verdict is not None:
        lines.append(f"verdict: {report.verdict}")
        if "n" in report.payload:
            lines.append(f"tensor power n = {report.payload['n']}"
                         + (" (user override)" if report.payload.get("power_overridden") else ""))
        for w in report.witness:
            lines.append("witness prime:")
            for g in w["prime"]:
                lines.append(f"    {g}")
            lines.append("  contraction to base:")
            for g in w["contraction"]:
                lines.append(f"    {g}")
    if report.hypotheses:
        lines.append("hypotheses:")
        for h in report.hypotheses:
            lines.append(f"  {h['name']}: {h['status']} ({h['detail']})")
    for key, value in sorted(report.payload.items()):
        if key in ("n", "power_overridden", "renames", "retries"):
            continue
        if isinstance(value, list):
            lines.append(f"{key}:")
            for item in value:
                if isinstance(item, dict):
                    for k, v in sorted(item.items()):
                        lines.append(f"    {k}: {v}")
                    lines.append("")
                else:
                    lines.append(f"    {item}")
        else:
            lines.append(f"{key}: {value}")
    if report.note:
        lines.append(f"note: {report.note}")
    lines.append(f"seed: {report.seed}")
    if report.timings:
        total = report.timings.get("total")
        if total is not None:
            lines.append(f"time: {total:.3f}s")
    return "\n".join(lines) + "\n"
