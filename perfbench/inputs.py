"""Seeded input generation for the techsub benchmark.

Everything here depends only on the seed (through ``random.Random``), so
the same seed writes byte-identical files. Each case also keeps what the
oracle needs (the generated values, wave anchors, curve parameters), so
no expected answer comes from techsub.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

CSV_HEADER = "year,value"
STAGES = ("early", "inflection", "saturated")


def write_csv(path: Path, years, values) -> None:
    lines = [CSV_HEADER] + [f"{y},{v!r}" for y, v in zip(years, values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _logistic(K: float, b: float, t_infl: float, t: float) -> float:
    return K / (1.0 + math.exp(-b * (t - t_infl)))


@dataclass
class KillerCase:
    killer_csv: Path
    victim_csv: Path
    killer_values: list
    victim_values: list
    years: list
    period: tuple | None


@dataclass
class SharesCase:
    shares_csv: Path
    n: int
    t_infl: float


@dataclass
class WavesCase:
    manifest: Path
    names: list
    years: list
    series: list  # value lists, manifest order
    begin: list
    peak: list
    end: list  # None while still in progress


@dataclass
class SimulateCase:
    params_json: Path
    params: dict


def killer_case(rng: random.Random, directory: Path, tag: str) -> KillerCase:
    """Noisy killer/victim levels, n in 15..56, with 0-3 years set
    non-positive on one side so fit-killer must drop them."""
    n = rng.randint(15, 56)
    y0 = rng.randint(1950, 1990)
    years = list(range(y0, y0 + n))
    sigma = rng.choice((0.0, rng.uniform(0.001, 0.1)))
    # victim rises, or declines in the substitution phase (inverse co-movement)
    bv = rng.uniform(0.08, 0.4) * rng.choice((1.0, 1.0, 1.0, -1.0))
    bk = abs(bv) * rng.uniform(0.4, 2.5)
    kv, kk = 10 ** rng.uniform(1, 6), 10 ** rng.uniform(1, 6)
    # inflections near the window keep both log levels moving
    tv = y0 + rng.uniform(0.0, 1.0) * n
    tk = y0 + rng.uniform(0.3, 1.5) * n
    victim = [_logistic(kv, bv, tv, t) * math.exp(sigma * rng.gauss(0, 1)) for t in years]
    killer = [_logistic(kk, bk, tk, t) * math.exp(sigma * rng.gauss(0, 1)) for t in years]
    for i in rng.sample(range(n), rng.randint(0, 3)):
        side = killer if rng.random() < 0.5 else victim
        side[i] = rng.choice((0.0, -side[i]))
    period = None
    if rng.random() < 0.4:
        period = (y0 + rng.randint(0, 3), y0 + n - 1 - rng.randint(0, 3))
    case = KillerCase(
        killer_csv=directory / f"{tag}-killer.csv",
        victim_csv=directory / f"{tag}-victim.csv",
        killer_values=killer,
        victim_values=victim,
        years=years,
        period=period,
    )
    write_csv(case.killer_csv, years, killer)
    write_csv(case.victim_csv, years, victim)
    return case


def shares_case(rng: random.Random, directory: Path, tag: str) -> SharesCase:
    """Exact logistic market shares whose half-substitution year is known."""
    n = rng.randint(15, 56)
    y0 = rng.randint(1900, 2000)
    t_infl = y0 + rng.uniform(0.3, 0.7) * (n - 1)
    # keep |b*(t - t_infl)| <= 14 so every share stays well inside (0, 1)
    b = rng.uniform(0.08, min(0.8, 20.0 / (n - 1)))
    years = list(range(y0, y0 + n))
    shares = [1.0 / (1.0 + math.exp(-b * (t - t_infl))) for t in years]
    case = SharesCase(shares_csv=directory / f"{tag}-shares.csv", n=n, t_infl=t_infl)
    write_csv(case.shares_csv, years, shares)
    return case


def waves_case(rng: random.Random, directory: Path, tag: str) -> WavesCase:
    """4-10 technologies in succession, each a strict rise to one peak and
    a strict fall; the last one or two are still active in the final year."""
    m = rng.randint(4, 10)
    y0 = rng.randint(1900, 1960)
    length = rng.randint(40, 70)
    years = list(range(y0, y0 + length))
    last = years[-1]
    n_open = rng.randint(1, 2)
    names, series, begins, peaks, ends = [], [], [], [], []
    step = max(1, (length - 12) // m)
    for i in range(m):
        begin = y0 + i * step + rng.randint(0, max(0, step - 1))
        begin = min(begin, last - 6)
        still_open = i >= m - n_open
        peak = begin + rng.randint(2, 5 if still_open else 12)
        peak = min(peak, last - 1)
        end = None if still_open else min(peak + rng.randint(2, 20), last - 1)
        top = 10 ** rng.uniform(1, 4)
        values = []
        for y in years:
            if y < begin or (end is not None and y > end):
                values.append(0.0)
            elif y <= peak:
                values.append(top * (y - begin + 1) / (peak - begin + 1))
            else:
                stop = end if end is not None else last
                values.append(top * (1.0 - 0.9 * (y - peak) / (stop - peak + 1)))
        names.append(f"tech{i}")
        series.append(values)
        begins.append(begin)
        peaks.append(peak)
        ends.append(end)
    entries = []
    for name, values in zip(names, series):
        csv = directory / f"{tag}-{name}.csv"
        write_csv(csv, years, values)
        entries.append({"file": csv.name, "name": name})
    manifest = directory / f"{tag}-manifest.json"
    manifest.write_text(
        json.dumps({"dataset": tag, "series": entries}, indent=2), encoding="utf-8"
    )
    return WavesCase(manifest, names, years, series, begins, peaks, ends)


def simulate_case(rng: random.Random, directory: Path, tag: str) -> SimulateCase:
    """A noise-free simulate parameter file, n in 15..56."""
    first = rng.randint(0, 60)
    n = rng.randint(15, 56)

    def curve(name):
        b = rng.uniform(0.1, 1.0)
        return {"K": 10 ** rng.uniform(0, 6), "a": b * (first + rng.uniform(0, n)), "b": b,
                "name": name}

    params = {
        "victim": curve("victim"),
        "killer": curve("killer"),
        "years": {"first": first, "last": first + n - 1},
        "noise_sigma": 0.0,
    }
    path = directory / f"{tag}-sim.json"
    path.write_text(json.dumps(params), encoding="utf-8")
    return SimulateCase(params_json=path, params=params)


@dataclass
class LogisticCase:
    years: list
    values: list
    K: float
    a: float
    b: float
    noise: float


def logistic_case(rng: random.Random, stage: str) -> LogisticCase:
    """A rising series on years 0..n-1 at one growth stage.

    early: the window ends before the inflection; inflection: it lies in
    the middle half; saturated: the window starts just before it and ends
    on the plateau. Noise is multiplicative, sigma 0 to 0.1.
    """
    n = rng.randint(15, 56)
    span = n - 1
    K = 10 ** rng.uniform(0, 6)
    noise = rng.choice((0.0, rng.uniform(0.0, 0.1)))
    if stage == "early":
        b = rng.uniform(3.0, 10.0) / span
        t_infl = span + rng.uniform(1.0, 4.0) / b
    elif stage == "inflection":
        b = rng.uniform(6.0, 20.0) / span
        t_infl = rng.uniform(0.25, 0.75) * span
    else:
        t_infl = rng.uniform(0.05, 0.25) * span
        b = rng.uniform(15.0, 45.0) / (span - t_infl)
        t_infl = max(t_infl, 1.0 / b)
    years = list(range(n))
    values = [_logistic(K, b, t_infl, t) * math.exp(noise * rng.gauss(0, 1)) for t in years]
    return LogisticCase(years, values, K, b * t_infl, b, noise)
