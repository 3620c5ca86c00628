"""Output checks for every benchmark operation, independent of techsub.

Each ``check_*`` returns a list of problems (empty when the output is
right). They recompute the answer from the generator's own numbers with
numpy, scipy and the standard library, never by calling techsub.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
from scipy import stats

OLS_TOL = 1e-9  # acceptance criterion 3
P_VALUE_REL_TOL = 1e-6
SPEARMAN_TOL = 1e-12
T_HALF_TOL = 1e-6  # acceptance criterion 6
LOGISTIC_REL_TOL = 0.005  # acceptance criterion 5
SIM_REL_TOL = 1e-12
# logistic_fit searches K only above max(series) * (1 + 1e-14); a curve
# whose top level lies closer to K than that is not recoverable by design
SATURATION_GAP = 1e-14


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def _digests_ok(report: dict, paths) -> list:
    want = [hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths]
    got = [entry["sha256"] for entry in report["inputs"]]
    return [] if got == want else [f"input digests {got} != {want}"]


def svg_circles(svg_text: str) -> int:
    return svg_text.count("<circle ")


def normal_equations(x, y) -> dict:
    """alpha, beta and r2 from X'X c = X'y, as criterion 3 does; the
    standard errors from the diagonal of s^2 (X'X)^-1; the slope's t and
    F statistics and their p-values from scipy.stats' t and F laws."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    X = np.column_stack([np.ones(len(x)), x])
    xtx = X.T @ X
    coef = np.linalg.solve(xtx, X.T @ y)
    resid = y - X @ coef
    sse = float(resid @ resid)
    sst = float(((y - y.mean()) ** 2).sum())
    dof = len(x) - 2
    cov = sse / dof * np.linalg.inv(xtx)
    se_alpha, se_beta = math.sqrt(cov[0, 0]), math.sqrt(cov[1, 1])
    t_beta = float(coef[1]) / se_beta
    return {
        "alpha": float(coef[0]),
        "beta": float(coef[1]),
        "r2": 1.0 - sse / sst,
        "se_alpha": se_alpha,
        "se_beta": se_beta,
        "f_stat": t_beta * t_beta,
        "p_value_beta": float(2.0 * stats.t.sf(abs(t_beta), dof)),
        "p_value_f": float(stats.f.sf(t_beta * t_beta, 1, dof)),
        "dof": dof,
    }


def expected_regime(beta: float, band: float) -> set:
    """Labels consistent with B and the band; both sides of an edge pass."""
    dev = beta - 1.0
    labels = set()
    for d in (dev * (1 - 1e-9), dev * (1 + 1e-9)):
        if abs(d) <= band:
            labels.add("proportional-growth")
        elif d > 0:
            labels.add("development")
        else:
            labels.add("under-development")
    return labels


def check_fit_killer(case, tolerance: str, report: dict, svg_text: str) -> list:
    first, last = case.period or (case.years[0], case.years[-1])
    used, dropped, lk, lv = [], 0, [], []
    for year, k, v in zip(case.years, case.killer_values, case.victim_values):
        if not first <= year <= last:
            continue
        if k > 0 and v > 0:
            used.append(year)
            lk.append(math.log(k))
            lv.append(math.log(v))
        else:
            dropped += 1
    ols = normal_equations(lv, lk)
    p = report["payload"]
    problems = []
    for name in ("alpha", "beta", "r2", "se_alpha", "se_beta", "f_stat"):
        if not _close(p[name], ols[name], OLS_TOL):
            problems.append(f"{name} {p[name]!r} != oracle {ols[name]!r}")
    for name in ("p_value_beta", "p_value_f"):
        # relative, since most p-values here are far below 1e-9; the
        # floor covers both sides underflowing
        if abs(p[name] - ols[name]) > P_VALUE_REL_TOL * ols[name] + 1e-300:
            problems.append(f"{name} {p[name]!r} != oracle {ols[name]!r}")
    if p["n_dropped"] != dropped:
        problems.append(f"n_dropped {p['n_dropped']} != {dropped}")
    if p["years_used"] != used:
        problems.append("years_used differ from the positive aligned years")
    if tolerance == "ttest":
        band = float(stats.t.ppf(0.975, ols["dof"])) * ols["se_beta"]
    else:
        band = float(tolerance.split(":", 1)[1])
    if p["regime"] not in expected_regime(p["beta"], band):
        problems.append(f"regime {p['regime']!r} disagrees with B={p['beta']} band={band}")
    if p["co_movement"] != ("inverse" if p["beta"] < 0 else "direct"):
        problems.append(f"co_movement {p['co_movement']!r} for B={p['beta']}")
    if svg_circles(svg_text) != len(used):
        problems.append(f"svg has {svg_circles(svg_text)} circles, {len(used)} years used")
    return problems + _digests_ok(report, [case.killer_csv, case.victim_csv])


def check_fisher_pry(case, report: dict, svg_text: str) -> list:
    problems = []
    t_half = report["payload"]["t_half"]
    if abs(t_half - case.t_infl) > T_HALF_TOL:
        problems.append(f"t_half {t_half!r} != inflection {case.t_infl!r}")
    if svg_circles(svg_text) != case.n:
        problems.append(f"svg has {svg_circles(svg_text)} circles, {case.n} years")
    return problems + _digests_ok(report, [case.shares_csv])


def _takeover(new, old, years):
    for year, nv, ov in zip(years, new, old):
        if nv > ov:
            return year
    return None


def intro_gaps(case) -> tuple[list, float | None]:
    """For each completed technology and its successor, (gap of begin
    years, end - peak of the completed one), and Spearman's rho of the
    two when there are at least two points (None when undefined)."""
    points = []
    for i in range(len(case.names) - 1):
        if case.end[i] is not None:
            points.append((abs(case.begin[i + 1] - case.begin[i]), case.end[i] - case.peak[i]))
    if len(points) < 2:
        return points, None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # constant input: rho is nan
        rho = float(stats.spearmanr([g for g, _ in points], [d for _, d in points])[0])
    return points, rho if math.isfinite(rho) else None


def check_waves(case, report: dict) -> list:
    p = report["payload"]
    problems = []
    techs = p["technologies"]
    if [t["name"] for t in techs] != case.names:
        return [f"technologies {[t['name'] for t in techs]} != {case.names}"]
    for t, begin, peak, end in zip(techs, case.begin, case.peak, case.end):
        got = (t["begin_year"], t["peak_year"], t["end_year"], t["in_progress"])
        if got != (begin, peak, end, end is None):
            problems.append(f"{t['name']}: anchors {got} != {(begin, peak, end, end is None)}")
    for entry, old, new in zip(p["takeovers"], case.series, case.series[1:]):
        want = _takeover(new, old, case.years)
        if entry["year"] != want:
            problems.append(f"takeover {entry['established']}->{entry['challenger']} "
                            f"{entry['year']} != {want}")
    points, rho = intro_gaps(case)
    got = [(e["gap_years"], e["disruption_years"]) for e in p["intro_gaps"]["points"]]
    if got != points:
        problems.append(f"intro_gaps points {got} != {points}")
    got_rho = p["intro_gaps"]["spearman"]
    if (got_rho is None) != (rho is None) or (
            rho is not None and abs(got_rho - rho) > SPEARMAN_TOL):
        problems.append(f"intro_gaps spearman {got_rho!r} != oracle {rho!r}")
    n_open = sum(e is None for e in case.end)
    if (p["summary"]["n_waves"], p["summary"]["n_excluded"]) != (len(case.end) - n_open, n_open):
        problems.append("summary wave counts are wrong")
    return problems + _digests_ok(report, [case.manifest])


def read_csv_rows(path: Path) -> list:
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#") and line != "year,value":
            year, value = line.split(",")
            rows.append((int(year), float(value)))
    return rows


def check_simulate(case, killer_csv: Path, victim_csv: Path) -> list:
    y = case.params["years"]
    years = list(range(y["first"], y["last"] + 1))
    problems = []
    for role, path in (("killer", killer_csv), ("victim", victim_csv)):
        c = case.params[role]
        rows = read_csv_rows(path)
        if [r[0] for r in rows] != years:
            problems.append(f"{role}: years differ from {years[0]}..{years[-1]}")
            continue
        for year, value in rows:
            want = c["K"] / (1.0 + math.exp(c["a"] - c["b"] * year))
            if abs(value - want) > SIM_REL_TOL * want:
                problems.append(f"{role} {year}: {value!r} != {want!r}")
                break
    return problems


def logistic_identifiable(case) -> bool:
    """Noise-free, inflection inside the window, and the top level at
    least SATURATION_GAP below K."""
    t_infl = case.a / case.b
    return (
        case.noise == 0.0
        and case.years[0] <= t_infl <= case.years[-1]
        and max(case.values) < case.K * (1.0 - SATURATION_GAP)
    )


def check_logistic(case, fit) -> list:
    K, a, b = float(fit.K), float(fit.a), float(fit.b)
    if not all(map(math.isfinite, (K, a, b))):
        return [f"non-finite fit {fit}"]
    problems = []
    if not K > max(case.values):
        problems.append(f"K {K!r} not above the series maximum")
    if not b > 0:
        problems.append(f"b {b!r} not positive on a rising series")
    if logistic_identifiable(case):
        for name, got, want in (("K", K, case.K), ("a", a, case.a), ("b", b, case.b)):
            if abs(got - want) > LOGISTIC_REL_TOL * abs(want):
                problems.append(f"{name} {got!r} not within 0.5% of {want!r}")
    return problems


def load_report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))
