"""Structured analysis reports: stable-order JSON documents with
provenance, significance stars and regime narratives."""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timezone
from pathlib import Path

from .estimation import FisherPryFit, KillerFit, Regime, RegressionFit

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


def regime_narrative(fit: KillerFit) -> str:
    beta = fit.regression.beta
    if fit.regime is Regime.DEVELOPMENT:
        base = (
            f"B = {beta:.4g} exceeds 1: the killer technology grows at a "
            f"greater relative rate than the victim (development regime)."
        )
    elif fit.regime is Regime.PROPORTIONAL_GROWTH:
        base = (
            f"B = {beta:.4g} is indistinguishable from 1: killer and victim "
            f"levels change at a proportional relative rate "
            f"(proportional-growth regime)."
        )
    else:
        base = (
            f"B = {beta:.4g} falls below 1: the killer technology grows at a "
            f"lower relative rate than the victim (under-development regime)."
        )
    if fit.co_movement == "inverse":
        base += (
            " The negative sign means the two levels move in opposite "
            "directions over the period (killer expanding while the victim "
            "contracts, or vice versa)."
        )
    return base


def regression_payload(fit: RegressionFit) -> dict:
    return {
        "n": fit.n,
        "alpha": fit.alpha,
        "se_alpha": fit.se_alpha,
        "beta": fit.beta,
        "se_beta": fit.se_beta,
        "r2": fit.r2,
        "r2_adj": fit.r2_adj,
        "se_estimate": fit.se_estimate,
        "f_stat": fit.f_stat,
        "p_value_f": fit.p_value_f,
        "p_value_beta": fit.p_value_beta,
        "stars_beta": significance_stars(fit.p_value_beta),
    }


def killer_fit_payload(fit: KillerFit) -> dict:
    payload = {"model": "log(killer) = alpha + B*log(victim)"}
    payload.update(regression_payload(fit.regression))
    payload["regime"] = fit.regime.value
    payload["co_movement"] = fit.co_movement
    payload["years_used"] = list(fit.years_used)
    payload["n_dropped"] = fit.n_dropped
    return payload


def fisher_pry_payload(fit: FisherPryFit) -> dict:
    payload = {"model": "ln(f/(1-f)) = intercept + slope*year"}
    payload.update(regression_payload(fit.regression))
    payload["slope"] = fit.slope
    payload["intercept"] = fit.intercept
    payload["t_half"] = fit.t_half
    return payload


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
