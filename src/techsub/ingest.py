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
import os
from collections import namedtuple

from .errors import ParseError, ValidationError

CSV_HEADER = "year,value"


class TimeSeries(namedtuple("TimeSeries", "name unit points")):
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
        """Copy limited to years inside [first, last]; no-op when bounds is None.
        The one place a period applies: a ValidationError when it holds
        none of the series' observations (a series with none stays empty)."""
        if bounds is None:
            return self
        first, last = bounds
        pts = tuple(p for p in self.points if first <= p[0] <= last)
        if self.points and not pts:
            raise ValidationError(
                f"period {first}-{last} does not overlap any observation of series {self.name!r}"
            )
        return TimeSeries(self.name, self.unit, pts)


def _cell(text: str, convert, what: str, lineno: int):
    """convert(text.strip()); a ParseError if it has an underscore or non-ASCII character."""
    number = text.strip()
    if "_" not in number and number.isascii():
        try:
            return convert(number)
        except ValueError:
            pass
    raise ParseError(f"{what}: {text!r}", line=lineno)


def parse_series(text: str, name: str = "series", unit: str = "") -> TimeSeries:
    """Parse CSV text into a validated TimeSeries.

    Raises ParseError (with the 1-based line number) on malformed rows and
    ValidationError on duplicate/decreasing years or non-finite values.
    """
    points: list[tuple[int, float]] = []
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        if not header_seen:
            if line != CSV_HEADER:
                raise ParseError(f"expected header {CSV_HEADER!r}, got {line!r}", line=lineno)
            header_seen = True
            continue
        # a plain ASCII row goes straight to int() and float(); others cell by cell
        try:
            if "_" in line or not line.isascii():
                raise ValueError
            year, _, value = line.partition(",")
            points.append((int(year), float(value)))
        except ValueError:
            cells = line.split(",")
            if len(cells) != 2:
                raise ParseError(f"expected 2 comma-separated fields, got {len(cells)}", lineno)
            points.append((_cell(cells[0], int, "year is not an integer", lineno),
                           _cell(cells[1], float, "value is not a number", lineno)))
    if not header_seen:
        raise ParseError(f"missing header row {CSV_HEADER!r}", line=1)
    return TimeSeries(name=name, unit=unit, points=tuple(points))


def file_stem(path: str | os.PathLike) -> str:
    """The base name less its last suffix, of which '.hidden' and 'x.' have none."""
    name = os.path.basename(path)
    i = name.rfind(".")
    return name[:i] if 0 < i < len(name) - 1 else name


def read_input(path: str | os.PathLike, parse, *args):
    """(parse(text, *args), data): data is the file's bytes, read once, and
    text their UTF-8 decoding with CRLF and CR read as LF, as text mode reads
    them. Bytes that are not UTF-8, a ParseError and a ValidationError put
    the path once before the message, keeping ParseError.line."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        return parse(text, *args), data
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 ({exc})") from None
    except (ParseError, ValidationError) as exc:
        exc.args = (f"{path}: {exc}",)  # 'path: line 3: ...', its type and line kept
        raise


def read_series(path: str | os.PathLike, name: str | None = None, unit: str = "") -> TimeSeries:
    return read_input(path, parse_series, name or file_stem(path), unit)[0]


def serialize_series(series: TimeSeries) -> str:
    """Render a TimeSeries back to CSV text; parse_series inverts this exactly."""
    lines = [CSV_HEADER]
    lines.extend(f"{year},{value!r}" for year, value in series.points)
    return "\n".join(lines) + "\n"


def align_pair(killer: TimeSeries, victim: TimeSeries) -> list[tuple[int, float, float]]:
    """Pair the two series year-by-year.

    Returns (year, killer_value, victim_value) rows in year order; years
    present on only one side are dropped. An empty intersection raises
    ValidationError.
    """
    victim_by_year = dict(victim.points)
    rows = [
        (year, value, victim_by_year[year])
        for year, value in killer.points
        if year in victim_by_year
    ]
    if not rows:
        raise ValidationError(f"series {killer.name!r} and {victim.name!r} share no years")
    return rows


class SeriesRef(namedtuple("SeriesRef", "file name unit", defaults=(None, ""))):
    """Manifest entry pointing at one series file: its path, the series
    name (None for the file's stem) and its unit."""

    __slots__ = ()


class DatasetManifest(namedtuple("DatasetManifest", "dataset series period base_dir",
                                 defaults=((), None, ""))):
    """Describes a dataset: its name, its SeriesRef tuple, listed in
    succession order for wave analytics, an optional (first, last) period
    that restricts them, and the directory their paths are relative to."""

    __slots__ = ()

    def path(self, ref: SeriesRef) -> str:
        """The path of ref's file: its 'file' joined to the manifest's directory."""
        return os.path.join(self.base_dir, ref.file)


def _series_ref(obj) -> SeriesRef:
    if not isinstance(obj, dict) or "file" not in obj:
        raise ParseError("manifest series entry must be an object with a 'file' key")
    for key in ("file", "name", "unit"):
        if not isinstance(obj.get(key, ""), str):
            raise ParseError(f"manifest series {key!r} must be a string, got {obj[key]!r}")
    return SeriesRef(file=obj["file"], name=obj.get("name"), unit=obj.get("unit", ""))


def json_object(text: str, root: str) -> dict:
    """Parse JSON text whose root must be an object (root names the file in
    that error). Whatever json.loads refuses, any ValueError such as an
    over-long integer, or the RecursionError of nesting too deep for the
    parser, is a ParseError."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON ({exc})", line=getattr(exc, "lineno", None)) from None
    if not isinstance(doc, dict):
        raise ParseError(f"{root} root must be an object")
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


def json_year_range(doc: dict, key: str) -> tuple[int, int]:
    """doc[key] as a (first, last) year range: a ParseError unless it is an
    object of two integers 'first' and 'last', a ValidationError if empty."""
    span = doc[key]
    if not isinstance(span, dict) or "first" not in span or "last" not in span:
        raise ParseError(f"{key!r} must hold integer 'first' and 'last'")
    first, last = (json_number(span[k], f"{key} {k}", integer=True) for k in ("first", "last"))
    if first > last:
        raise ValidationError(f"{key}: empty year range {first}:{last} (first > last)")
    return first, last


def parse_manifest(text: str, path: str | os.PathLike) -> DatasetManifest:
    """Parse the JSON dataset manifest (schema in the README) read from
    path, which names the dataset by default and holds the series files."""
    doc = json_object(text, "manifest")
    period = json_year_range(doc, "period") if "period" in doc else None
    dataset = doc.get("dataset", file_stem(path))
    if not isinstance(dataset, str):
        raise ParseError(f"'dataset' must be a string, got {dataset!r}")
    series = doc.get("series", [])
    if not isinstance(series, list):
        raise ParseError(f"'series' must be a list, got {series!r}")
    refs = tuple(_series_ref(entry) for entry in series)
    return DatasetManifest(dataset, refs, period, os.path.dirname(path))


def load_manifest(path: str | os.PathLike) -> DatasetManifest:
    """Load and validate a JSON dataset manifest."""
    return read_input(path, parse_manifest, path)[0]
