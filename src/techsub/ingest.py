"""Time-series ingestion: CSV parsing, validation, alignment, manifests.

Series files are two-column CSV with the exact header ``year,value``.
Blank lines and lines starting with ``#`` are ignored, years are
integers, values decimal reals, both in ASCII digits with no thousands
or underscore separators. Year gaps are permitted; duplicate or
decreasing years are not.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import NamedTuple

from .errors import ParseError, ValidationError

CSV_HEADER = "year,value"


class TimeSeries(NamedTuple("TimeSeries", [("name", str), ("unit", str), ("points", tuple)])):
    """Ordered (year, value) observations for one technology measure."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, name: str, unit: str, points: tuple[tuple[int, float], ...]):
        prev = None
        for year, value in points:
            if prev is not None and year <= prev:
                raise ValidationError(
                    f"series {name!r}: years must be strictly increasing "
                    f"({year} follows {prev})"
                )
            if not math.isfinite(value):
                raise ValidationError(f"series {name!r}: non-finite value at year {year}")
            prev = year
        return super().__new__(cls, name, unit, points)

    def __len__(self):
        return len(self.points)

    @property
    def years(self) -> tuple[int, ...]:
        return tuple(y for y, _ in self.points)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.points)

    def restrict(self, bounds: tuple[int, int] | None) -> "TimeSeries":
        """Copy limited to years inside [first, last]; no-op when bounds is None."""
        if bounds is None:
            return self
        first, last = bounds
        pts = tuple(p for p in self.points if first <= p[0] <= last)
        return TimeSeries(self.name, self.unit, pts)


def _ascii_number(text: str, convert):
    """convert(text), refusing the underscores and non-ASCII digits that
    int() and float() accept but the CSV format does not."""
    if "_" in text or not text.isascii():
        raise ValueError(f"not a plain ASCII number: {text!r}")
    return convert(text)


def parse_series(text: str, name: str = "series", unit: str = "") -> TimeSeries:
    """Parse CSV text into a validated TimeSeries.

    Raises ParseError (with the 1-based line number) on malformed rows and
    ValidationError on duplicate/decreasing years or non-finite values.
    """
    points: list[tuple[int, float]] = []
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != CSV_HEADER:
                raise ParseError(
                    f"expected header {CSV_HEADER!r}, got {line!r}", line=lineno
                )
            header_seen = True
            continue
        cells = line.split(",")
        if len(cells) != 2:
            raise ParseError(
                f"expected 2 comma-separated fields, got {len(cells)}", line=lineno
            )
        try:
            year = _ascii_number(cells[0].strip(), int)
        except ValueError:
            raise ParseError(f"year is not an integer: {cells[0]!r}", line=lineno)
        try:
            value = _ascii_number(cells[1].strip(), float)
        except ValueError:
            raise ParseError(f"value is not a number: {cells[1]!r}", line=lineno)
        points.append((year, value))
    if not header_seen:
        raise ParseError(f"missing header row {CSV_HEADER!r}", line=1)
    return TimeSeries(name=name, unit=unit, points=tuple(points))


def read_series(path: str | Path, name: str | None = None, unit: str = "") -> TimeSeries:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 ({exc})")
    try:
        return parse_series(text, name=name or path.stem, unit=unit)
    except (ParseError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}")


def serialize_series(series: TimeSeries) -> str:
    """Render a TimeSeries back to CSV text; parse_series inverts this exactly."""
    lines = [CSV_HEADER]
    lines.extend(f"{year},{value!r}" for year, value in series.points)
    return "\n".join(lines) + "\n"


def align_pair(
    killer: TimeSeries,
    victim: TimeSeries,
    bounds: tuple[int, int] | None = None,
) -> list[tuple[int, float, float]]:
    """Pair the two series year-by-year, restricted to bounds when given.

    Returns (year, killer_value, victim_value) rows in year order; years
    present on only one side (or outside the bounds) are dropped. An empty
    intersection raises ValidationError.
    """
    victim_by_year = dict(victim.restrict(bounds).points)
    rows = [
        (year, value, victim_by_year[year])
        for year, value in killer.restrict(bounds).points
        if year in victim_by_year
    ]
    if not rows:
        raise ValidationError(
            f"series {killer.name!r} and {victim.name!r} share no years"
            + (f" within {bounds[0]}-{bounds[1]}" if bounds else "")
        )
    return rows


class SeriesRef(NamedTuple):
    """Manifest entry pointing at one series file."""

    file: str
    name: str | None = None
    unit: str = ""


class DatasetManifest(NamedTuple):
    """Describes a dataset: where its series live and how to use them.

    ``killer``/``victim`` name an aligned pair for the log-log regression;
    ``series`` lists technologies in succession order for wave analytics.
    ``adjustment`` is provenance only (values arrive already adjusted).
    """

    dataset: str
    killer: SeriesRef | None = None
    victim: SeriesRef | None = None
    series: tuple[SeriesRef, ...] = ()
    period: tuple[int, int] | None = None
    adjustment: str | None = None
    base_dir: Path = Path()

    def resolve(self, ref: SeriesRef) -> TimeSeries:
        series = read_series(self.base_dir / ref.file, name=ref.name, unit=ref.unit)
        if self.period is not None and series.points:
            first, last = self.period
            years = series.years
            if last < years[0] or first > years[-1]:
                raise ValidationError(
                    f"manifest period {first}-{last} does not overlap series "
                    f"{series.name!r} ({years[0]}-{years[-1]})"
                )
        return series


def _series_ref(obj, context: str) -> SeriesRef:
    if not isinstance(obj, dict) or "file" not in obj:
        raise ParseError(f"manifest {context} entry must be an object with a 'file' key")
    for key in ("file", "name", "unit"):
        if not isinstance(obj.get(key, ""), str):
            raise ParseError(f"manifest {context} {key!r} must be a string, got {obj[key]!r}")
    return SeriesRef(file=obj["file"], name=obj.get("name"), unit=obj.get("unit", ""))


def read_json_object(path: str | Path, root: str) -> dict:
    """Parse a UTF-8 JSON file whose root must be an object (root names the
    file in that error). Whatever the decoder or json.loads refuses, any
    ValueError such as a bad byte or an over-long integer, is a ParseError."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        line = getattr(exc, "lineno", None)
        raise ParseError(f"{path}: invalid JSON ({exc})", line=line)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: {root} root must be an object")
    return doc


def json_number(value, what: str, integer: bool = False):
    """A JSON number as a float, or as an int when integer is set.

    Anything else (strings, bools, null, a float where an integer is
    needed) is a ParseError naming what.
    """
    kind = int if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, kind):
        expected = "an integer" if integer else "a number"
        raise ParseError(f"{what} must be {expected}, got {value!r}")
    if integer:
        return value
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"{what} is too large for a float")


def load_manifest(path: str | Path) -> DatasetManifest:
    """Load and validate a JSON dataset manifest (schema in the README)."""
    path = Path(path)
    doc = read_json_object(path, "manifest")

    period = None
    if "period" in doc:
        p = doc["period"]
        if not isinstance(p, dict) or "first" not in p or "last" not in p:
            raise ParseError(f"{path}: 'period' must hold integer 'first' and 'last'")
        first, last = (
            json_number(p[k], f"{path}: period {k}", integer=True) for k in ("first", "last")
        )
        if first > last:
            raise ValidationError(f"{path}: period first {first} > last {last}")
        period = (first, last)

    dataset = doc.get("dataset", path.stem)
    if not isinstance(dataset, str):
        raise ParseError(f"{path}: 'dataset' must be a string, got {dataset!r}")
    series = doc.get("series", [])
    if not isinstance(series, list):
        raise ParseError(f"{path}: 'series' must be a list, got {series!r}")
    return DatasetManifest(
        dataset=dataset,
        killer=_series_ref(doc["killer"], "killer") if "killer" in doc else None,
        victim=_series_ref(doc["victim"], "victim") if "victim" in doc else None,
        series=tuple(_series_ref(s, "series") for s in series),
        period=period,
        adjustment=doc.get("adjustment"),
        base_dir=path.parent,
    )
