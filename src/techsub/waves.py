"""Technological-wave analytics: cycle events, disruption periods,
takeover years and aggregate wave statistics.

A wave is read off a revenue (or usage) history as three anchor years:
begin (first year above the activity threshold), peak (year of maximum)
and end (last year above the threshold, absent while the technology is
still active). The downwave Z - M is the disruption period.
"""

from __future__ import annotations

import math
from itertools import groupby
from typing import NamedTuple

from .errors import ValidationError
from .estimation import centred_sums, exact_ints, sqrt_ratio
from .ingest import TimeSeries, align_pair


class WaveEvents(NamedTuple("WaveEvents", [("name", str), ("begin_year", int),
                                           ("peak_year", int), ("end_year", int | None)])):
    """Anchor years of one technology's life cycle (the field order is a
    waves report's key order)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, name: str, begin_year: int, peak_year: int, end_year: int | None):
        if begin_year > peak_year:
            raise ValidationError(f"{name!r}: begin {begin_year} after peak {peak_year}")
        if end_year is not None and peak_year > end_year:
            raise ValidationError(f"{name!r}: peak {peak_year} after end {end_year}")
        return super().__new__(cls, name, begin_year, peak_year, end_year)

    @property
    def complete(self) -> bool:
        return self.end_year is not None


class WaveMetrics(NamedTuple):
    """Lengths and phase fractions of one completed wave."""

    upwave_years: int
    downwave_years: int
    cycle_years: int
    upwave_fraction: float | None
    downwave_fraction: float | None


def extract_wave_events(
    series: TimeSeries, active_threshold: float = 0.0
) -> WaveEvents:
    """Read (begin, peak, end) years from a series.

    begin is the first year with value above the threshold, peak the year
    of the maximum (earliest on ties), end the last year above the
    threshold. When the final observation itself is above the threshold
    the technology counts as still in progress and end is absent. Levels
    are revenue or usage, so a negative one raises ValidationError.
    """
    if not series.points:
        raise ValidationError(f"series {series.name!r} is empty")
    years, values = zip(*series.points)
    if min(values) < 0:
        year = next(y for y, v in series.points if v < 0)
        raise ValidationError(f"series {series.name!r}: negative level at year {year}")
    peak = max(values)
    if not peak > active_threshold:
        raise ValidationError(f"series {series.name!r} never exceeds threshold {active_threshold}")
    begin_year = next(y for y, v in series.points if v > active_threshold)
    peak_year = years[values.index(peak)]
    active_from_end = (y for y, v in reversed(series.points) if v > active_threshold)
    end_year = None if values[-1] > active_threshold else next(active_from_end)
    return WaveEvents(series.name, begin_year, peak_year, end_year)


def wave_metrics(events: WaveEvents) -> WaveMetrics:
    """Arithmetic wave lengths M-A, Z-M, Z-A and their percentage split."""
    if events.end_year is None:
        raise ValidationError(
            f"{events.name!r} is still in progress, wave incomplete"
        )
    up = events.peak_year - events.begin_year
    down = events.end_year - events.peak_year
    cycle = events.end_year - events.begin_year
    if cycle > 0:
        up_frac = 100.0 * up / cycle
        down_frac = 100.0 * down / cycle
    else:
        up_frac = down_frac = None
    return WaveMetrics(
        upwave_years=up,
        downwave_years=down,
        cycle_years=cycle,
        upwave_fraction=up_frac,
        downwave_fraction=down_frac,
    )


def _mean_sd(values: list[float | None]) -> tuple[float | None, float | None]:
    values = [float(v) for v in values if v is not None]
    if not values:
        return None, None
    ints, d = exact_ints(values)
    n, (s, _, q, _, _) = len(ints), centred_sums(ints, ints)
    return s / (n * d), (sqrt_ratio(q, n * (n - 1) * d * d) if n >= 2 else None)


def summarize_waves(
    metrics: list[WaveMetrics],
) -> dict[str, tuple[float | None, float | None]]:
    """Mean and sample standard deviation of each metric across waves.

    Maps each WaveMetrics field name, in field order, to its (mean, sd)
    pair. SDs use the n-1 denominator and are None for fewer than two
    waves, means for none; fraction statistics skip zero-length cycles.
    """
    return {
        name: _mean_sd([getattr(m, name) for m in metrics]) for name in WaveMetrics._fields
    }


class Takeover(NamedTuple):
    """First year the challenger's level strictly exceeds the established
    technology's, both levels, and the established technology's share of
    their total in percent (the field order is a waves report's key order)."""

    year: int
    challenger_value: float
    established_value: float
    established_share_pct: float


def takeover_year(new_tech: TimeSeries, established: TimeSeries) -> Takeover | None:
    """First strict crossing in align_pair's years, or None; rejects a negative level up to it.
    The share is one correctly rounded ratio of exact ints, finite at any level."""
    for year, new_value, old_value in align_pair(new_tech, established):
        if new_value < 0 or old_value < 0:
            raise ValidationError(
                f"series {new_tech.name!r} and {established.name!r}: negative level at year {year}"
            )
        if new_value > old_value:
            (o, n), _ = exact_ints([old_value, new_value])
            return Takeover(year, new_value, old_value, 100 * o / (o + n))
    return None


def _average_ranks(values: list[float]) -> list[int]:
    """Doubled 1-based ranks, tied values sharing twice the mean of their positions."""
    ranks = [0] * len(values)
    below = 0
    order = sorted(range(len(values)), key=values.__getitem__)
    for _, tied in groupby(order, key=values.__getitem__):
        tied = list(tied)
        for i in tied:
            ranks[i] = 2 * below + len(tied) + 1
        below += len(tied)
    return ranks


def _spearman_rho(xs: list[float], ys: list[float]) -> float | None:
    """Spearman rank correlation: Pearson correlation of average ranks.

    None when fewer than two pairs or either side is constant. Doubled ranks
    are ints, so rho is one correctly rounded root of a ratio of exact sums.
    """
    _, _, qxx, qxy, qyy = centred_sums(_average_ranks(xs), _average_ranks(ys))
    if qxx == 0 or qyy == 0:
        return None
    return math.copysign(sqrt_ratio(qxy * qxy, qxx * qyy), qxy)


class IntroGapDiagnostic(NamedTuple):
    """Introduction-gap vs disruption-period pairs with their rank correlation."""

    points: tuple[tuple[int, int], ...]
    spearman: float | None


def intro_gap_diagnostic(
    pairs: list[tuple[WaveEvents, WaveEvents]],
) -> IntroGapDiagnostic:
    """For each (established, killer) pair, relate how soon after the
    established technology the killer arrived (gap of begin years) to the
    established technology's disruption period Z - M."""
    points = []
    for established, killer in pairs:
        if established.end_year is None:
            raise ValidationError(
                f"{established.name!r} has no disruption period yet (in progress)"
            )
        gap = abs(killer.begin_year - established.begin_year)
        dp = established.end_year - established.peak_year
        points.append((gap, dp))
    spearman = _spearman_rho([g for g, _ in points], [d for _, d in points])
    return IntroGapDiagnostic(points=tuple(points), spearman=spearman)


def waves_payload(waves: list[tuple[TimeSeries, WaveEvents]]) -> tuple[dict, list[str]]:
    """The payload of a `waves` report on technologies in succession order,
    with one warning per adjacent pair that cannot be compared (its
    takeover fields are then null). One walk over the adjacent pairs finds
    the takeovers and the intro gaps of the pairs whose established wave
    is complete."""
    metrics = [wave_metrics(events) if events.complete else None for _, events in waves]
    completed = [m for m in metrics if m is not None]
    warnings, takeovers, gap_pairs = [], [], []
    for (old, old_events), (new, new_events) in zip(waves, waves[1:]):
        try:
            crossing = takeover_year(new, old)
        except ValidationError as exc:
            warnings.append(str(exc))
            crossing = None
        fields = crossing._asdict() if crossing else dict.fromkeys(Takeover._fields)
        takeovers.append({"established": old.name, "challenger": new.name, **fields})
        if old_events.complete:
            gap_pairs.append((old_events, new_events))
    gaps = intro_gap_diagnostic(gap_pairs)
    payload = {
        "technologies": [
            {
                **events._asdict(),
                "in_progress": not events.complete,
                "flag": "" if events.complete else "*",
                "metrics": None if m is None else m._asdict(),
            }
            for (_, events), m in zip(waves, metrics)
        ],
        "summary": {
            "n_waves": len(completed),
            "n_excluded": len(waves) - len(completed),
            **{
                name: {"mean": mu, "sd": sd}
                for name, (mu, sd) in summarize_waves(completed).items()
            },
        },
        "takeovers": takeovers,
        "intro_gaps": {
            "points": [{"gap_years": g, "disruption_years": d} for g, d in gaps.points],
            "spearman": gaps.spearman,
        },
    }
    return payload, warnings
