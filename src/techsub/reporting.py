"""Structured analysis reports: stable-order JSON documents with
provenance, significance stars and regime narratives."""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timezone
from pathlib import Path

from .estimation import FisherPryFit, KillerFit, Regime

TOOL_NAME = "techsub"
VERSION = "0.1.0"


def significance_stars(p_value: float) -> str:
    """Conventional significance stars at the 5% / 1% / 0.1% levels."""
    if p_value < 0.001:
        return "***"
    if p_value < 0.01:
        return "**"
    if p_value < 0.05:
        return "*"
    return ""


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


_REGIME_PHRASES = {
    Regime.DEVELOPMENT: "exceeds 1: the killer technology grows at a greater "
    "relative rate than the victim",
    Regime.PROPORTIONAL_GROWTH: "is indistinguishable from 1: killer and victim "
    "levels change at a proportional relative rate",
    Regime.UNDER_DEVELOPMENT: "falls below 1: the killer technology grows at a "
    "lower relative rate than the victim",
}


def regime_narrative(fit: KillerFit) -> str:
    beta, regime = fit.regression.beta, fit.regime
    text = f"B = {beta:.4g} {_REGIME_PHRASES[regime]} ({regime.value} regime)."
    if fit.co_movement == "inverse":
        text += (
            " The negative sign means the two levels move in opposite "
            "directions over the period (killer expanding while the victim "
            "contracts, or vice versa)."
        )
    return text


def fit_payload(model: str, fit: KillerFit | FisherPryFit) -> dict:
    """The report payload of a fit: the model, the regression's fields in
    record order (without xs and ys) and the slope's stars, then the fit's
    own fields in record order."""
    regression = fit.regression._asdict()
    del regression["xs"], regression["ys"]
    fields = {k: v for k, v in fit._asdict().items() if k != "regression"}
    stars = significance_stars(fit.regression.p_value_beta)
    return {"model": model, **regression, "stars_beta": stars, **fields}


def build_report(
    command: str,
    dataset: str,
    payload: dict,
    inputs: list[str | Path],
    narrative: str = "",
    warnings: list[str] | None = None,
    timestamp: bool = True,
) -> dict:
    """Assemble the report document. Field order is fixed so identical
    inputs serialize byte-identically (timestamp optional for that)."""
    report = {
        "tool": TOOL_NAME,
        "version": VERSION,
        "command": command,
        "dataset": dataset,
        "log_base": "e",
    }
    if timestamp:
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    report["inputs"] = [
        {"path": str(p), "sha256": file_digest(p)} for p in inputs
    ]
    report["payload"] = payload
    if narrative:
        report["narrative"] = narrative
    report["warnings"] = warnings or []
    return report


def render_report(report: dict) -> str:
    """Serialize to JSON. Floats use repr, so every numeric field
    round-trips exactly; non-finite values follow Python's JSON extension
    (Infinity / NaN)."""
    return json.dumps(report, indent=2) + "\n"
