"""Structured analysis reports: stable-order JSON documents with
provenance, significance stars and regime narratives."""

from __future__ import annotations

import json
import math
import os
import sys

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


# why a fit's field can be non-finite: F = t^2 is infinite for a perfect fit
_NON_FINITE_REASONS = {"f_stat": "zero residual variance"}


def build_report(
    command: str,
    dataset: str,
    payload: dict,
    inputs: list[tuple[str | os.PathLike, bytes]],
    narrative: str = "",
    warnings: list[str] | None = None,
) -> dict:
    """Assemble the report document. Field order is fixed and nothing in it
    depends on the clock, so identical inputs serialize byte-identically. A
    non-finite payload float, which JSON cannot hold, is written as null
    with a warning that names the field and why it has no value. Each
    (path, data) of inputs is listed with the SHA-256 of data, the bytes
    read: CPython's built-in SHA-256 gives hashlib's digest without
    loading OpenSSL, and hashlib serves a build without it. The version
    picks the one module to try: a failed import is not cached."""
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    payload, warnings = dict(payload), list(warnings or [])
    for key, value in payload.items():
        if isinstance(value, float) and not math.isfinite(value):
            payload[key] = None
            why = _NON_FINITE_REASONS.get(key, "no finite value")
            warnings.append(f"{key} is {value} ({why}); reported as null")
    report = {
        "tool": TOOL_NAME,
        "version": VERSION,
        "command": command,
        "dataset": dataset,
        "log_base": "e",
        "inputs": [
            {"path": str(p), "sha256": sha256(data).hexdigest()} for p, data in inputs
        ],
        "payload": payload,
    }
    if narrative:
        report["narrative"] = narrative
    report["warnings"] = warnings
    return report


def render_report(report: dict) -> str:
    """Serialize to RFC 8259 JSON. Floats use repr, so every numeric field
    round-trips exactly; a non-finite one raises ValueError (build_report
    writes those in the payload as null)."""
    return json.dumps(report, indent=2, allow_nan=False) + "\n"
