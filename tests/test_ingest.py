import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathlib import Path

from conftest import check_record, make_series, write_csv, write_manifest
from techsub.errors import ParseError, ValidationError
from techsub.ingest import (
    CSV_HEADER,
    DatasetManifest,
    SeriesRef,
    TimeSeries,
    align_pair,
    load_manifest,
    parse_series,
    read_json_object,
    read_series,
    serialize_series,
)


class TestRecords:
    def test_records_are_values(self):
        series = check_record(TimeSeries, name="s", unit="u", points=((2000, 1.0), (2001, 2.5)))
        ref = check_record(SeriesRef, file="a.csv", name="a", unit="u")
        check_record(
            DatasetManifest, dataset="d", series=(ref,), period=(2000, 2001),
            base_dir="data",
        )
        assert len(series) == 2

    def test_keyword_defaults(self):
        assert SeriesRef(file="a.csv") == SeriesRef("a.csv", None, "")
        manifest = DatasetManifest(dataset="d")
        assert (manifest.series, manifest.period, manifest.base_dir) == ((), None, "")

    def test_len_counts_points(self):
        series = make_series([(2000, 1.0), (2001, 2.0), (2002, 4.0), (2003, 8.0)])
        assert len(series) == 4
        assert len(make_series([])) == 0
        assert len(series._replace(name="renamed")) == 4

    def test_replace_validates(self):
        series = make_series([(2000, 1.0), (2001, 2.0)])
        with pytest.raises(ValidationError, match="strictly increasing"):
            series._replace(points=((2001, 1.0), (2000, 2.0)))


class TestParseSeries:
    def test_minimal_input(self):
        series = parse_series("year,value\n1920,246\n1921,343")
        assert series.points == ((1920, 246.0), (1921, 343.0))

    def test_duplicate_year_rejected(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            parse_series("year,value\n1920,246\n1920,300")

    def test_decreasing_year_rejected(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            parse_series("year,value\n1921,246\n1920,300")

    def test_comments_blanks_and_gaps_accepted(self):
        text = (
            "# sparse war years: 1943 missing\n"
            "\n"
            "year,value\n"
            "1941,10\n"
            "1942,11\n"
            "# gap here\n"
            "1944,13\n"
        )
        series = parse_series(text)
        assert series.years == (1941, 1942, 1944)

    def test_malformed_row_reports_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_series("year,value\n1920,246\nnot-a-year,300")

    def test_thousands_separators_rejected(self):
        # "4,300" splits into three fields; locale guessing is not attempted
        with pytest.raises(ParseError, match="line 2"):
            parse_series("year,value\n1991,4,300")

    @pytest.mark.parametrize(
        "row, field",
        [
            ("1_984,1000", "year"),
            ("1984,1_000", "value"),
            ("\u0661\u0669\u0668\u0664,1000", "year"),  # Arabic-Indic 1984
            ("1984,\u0661\u0660\u0660\u0660", "value"),
            ("1984,\uff11.\uff15", "value"),  # fullwidth 1.5
        ],
    )
    def test_underscores_and_non_ascii_digits_rejected(self, row, field):
        with pytest.raises(ParseError, match=f"line 3: {field}"):
            parse_series(f"year,value\n1983,1\n{row}")

    def test_missing_header_rejected(self):
        with pytest.raises(ParseError, match="header"):
            parse_series("1920,246\n1921,343")
        with pytest.raises(ParseError, match="header"):
            parse_series("# only comments\n")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            parse_series(f"year,value\n1920,{bad}")

    def test_bad_value_reports_line(self):
        with pytest.raises(ParseError, match="line 2: value"):
            parse_series("year,value\n1920,two hundred")


series_st = st.builds(
    lambda years, values: TimeSeries(
        name="s",
        unit="u",
        points=tuple(zip(sorted(years), values)),
    ),
    st.sets(st.integers(1800, 2200), min_size=1, max_size=30),
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=30,
        max_size=30,
    ),
)


# valid numbers (which int() and float() would accept with an underscore
# between digits) and arbitrary number-like text
cell_st = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.text(alphabet="0123456789.+-e_", max_size=10),
)


class TestUnderscoreProperty:
    @given(cell_st, cell_st, st.booleans(), st.integers(0, 24))
    def test_underscore_in_either_cell_is_rejected(self, year, value, in_year, at):
        if in_year:
            year = year[:at] + "_" + year[at:]
        else:
            value = value[:at] + "_" + value[at:]
        with pytest.raises(ParseError, match="line 2"):
            parse_series(f"year,value\n{year},{value}")


def _ascii_number(text: str, convert):
    """convert(text), refusing the underscores and non-ASCII digits that
    int() and float() accept but the CSV format does not."""
    if "_" in text or not text.isascii():
        raise ValueError(f"not a plain ASCII number: {text!r}")
    return convert(text)


def reference_parse_series(text: str, name: str = "series", unit: str = "") -> TimeSeries:
    """parse_series as it was before its single-pass rewrite, kept verbatim
    as the definition of a valid row and of each error's text and line."""
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


def parse_outcome(parse, text):
    """The series' repr (which shows -0.0 and each year's type), or the
    exception's type, message and line."""
    try:
        return repr(parse(text))
    except Exception as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)


# cells that int() or float() read differently from the CSV format, or that
# sit near a rule: separators, non-ASCII digits and spaces, signs, padding,
# non-finite values, and the whitespace str.strip() removes but int() refuses
edge_cell_st = st.sampled_from([
    "2000", "1999", "0", "-7", "+5", " 7 ", "\t8", "007", "1_0", "1__0", "_1",
    "\u0661\u0662", "1\u0662", "\uff15", "\xa05", "5\u2003", "5\x1f", "\x1f", "",
    " ", "1.5", "-0.0", "1e3", "1E-3", ".5", "5.", "inf", "-inf", "nan", "Infinity",
    "0x10", "1 2", "1,0", "12a", "one", "#3",
])
row_cell_st = st.one_of(edge_cell_st, cell_st, st.text(max_size=6))
data_row_st = st.one_of(
    st.tuples(row_cell_st, row_cell_st).map(",".join),
    st.lists(row_cell_st, min_size=1, max_size=4).map(",".join),  # too few or many fields
    st.text(max_size=12),
)
# a well-formed row, its cells padded with whitespace that str.strip()
# removes; "YEAR" becomes the row's index plus 1900, so years increase
pad_st = st.sampled_from(["", "", " ", "\t", "\xa0", "\x1f", "\u3000"])
good_row_st = st.builds(
    lambda a, b, value, c, d: f"{a}YEAR{b},{c}{value}{d}",
    pad_st, pad_st,
    st.one_of(st.integers(-10**6, 10**6).map(str),
              st.floats(allow_nan=False, allow_infinity=False).map(repr),
              st.sampled_from(["+5", "007", ".5", "5.", "1E-3", "-0.0"])),
    pad_st, pad_st,
)
skipped_line_st = st.one_of(
    st.sampled_from(["", "   ", "\t", "\xa0", "\x1f", "# a_b", "# \u00e9t\u00e9", "  # x",
                     "#,,,"]),
    # comments, of _ and non-ASCII text too, that str.splitlines() keeps whole
    st.text(st.characters(blacklist_characters="\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
            max_size=12).map("#".__add__),
)
line_st = st.one_of(
    good_row_st,
    good_row_st,
    good_row_st,
    data_row_st,
    skipped_line_st,
    st.sampled_from([CSV_HEADER, f" {CSV_HEADER} ", "year, value", "Year,Value"]),
)
# the header is dropped from some texts, and the line breaks mix several
# of the separators that str.splitlines() honours
csv_text_st = st.builds(
    lambda before, header, after, breaks: "".join(
        line.replace("YEAR", str(1900 + i)) + brk
        for i, (line, brk) in enumerate(
            zip(before + ([CSV_HEADER] if header else []) + after, breaks)
        )
    ),
    st.one_of(*[st.lists(skipped_line_st, max_size=2)] * 3, st.lists(line_st, max_size=2)),
    st.sampled_from([True, True, True, False]),
    st.one_of(st.lists(line_st, max_size=10),
              st.lists(st.one_of(good_row_st, good_row_st, skipped_line_st), max_size=10)),
    st.lists(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x1e", "\u2028"]),
             min_size=13, max_size=13),
)


class TestParseMatchesReference:
    """parse_series reads every text as the reference does: the same
    series, or the same exception type, message and line."""

    @settings(max_examples=600)
    @given(csv_text_st)
    @example("year,value\n1_0,5\n")
    @example("year,value\n\u0661\u0662,5\n")
    @example("year,value\n2000,+5\n2001, 7 \n")
    @example("year,value\n2000,inf\n")
    @example("year,value\n2000,nan\n")
    @example("year,value\n2000,1,2\n")
    @example("year,value\n2000\n")
    @example("year,value\n2000,\xa05\n2001,5\x1f\n")  # read, after str.strip()
    @example("# caf\u00e9_1\n  \t\nyear,value\n2000,1\n")
    @example("1920,246\n")
    @example("")
    def test_same_series_or_same_error(self, text):
        assert parse_outcome(parse_series, text) == parse_outcome(reference_parse_series, text)


class TestSerializeRoundTrip:
    @given(series_st)
    def test_parse_inverts_serialize(self, series):
        back = parse_series(serialize_series(series), name="s", unit="u")
        assert back == series

    def test_file_round_trip(self, tmp_path):
        series = make_series([(1, 0.1), (5, 2.5e-7), (9, 12345.678)], "x", "MW")
        path = tmp_path / "x.csv"
        path.write_text(serialize_series(series))
        assert read_series(path, name="x", unit="MW") == series


class TestAlignPair:
    def test_full_overlap(self):
        killer = make_series([(y, 1.0) for y in range(1955, 1972)], "k")
        victim = make_series([(y, 2.0) for y in range(1955, 1972)], "v")
        rows = align_pair(killer, victim)
        assert rows == [(y, 1.0, 2.0) for y in range(1955, 1972)]

    def test_disjoint_ranges_rejected(self):
        killer = make_series([(2000, 1.0)], "k")
        victim = make_series([(1990, 2.0)], "v")
        with pytest.raises(ValidationError, match="share no years"):
            align_pair(killer, victim)

    def test_bounds_restrict_the_join(self):
        killer = make_series([(y, 1.0) for y in range(2004, 2019)], "k")
        victim = make_series([(y, 2.0) for y in range(1983, 2019)], "v")
        rows = align_pair(killer.restrict((2004, 2018)), victim.restrict((2004, 2018)))
        assert rows == [(y, 1.0, 2.0) for y in range(2004, 2019)]

    @given(
        st.sets(st.integers(1900, 2000), min_size=1, max_size=40),
        st.sets(st.integers(1900, 2000), min_size=1, max_size=40),
    )
    def test_output_years_subset_of_both(self, ky, vy):
        killer = make_series([(y, 1.0) for y in sorted(ky)], "k")
        victim = make_series([(y, 1.0) for y in sorted(vy)], "v")
        common = ky & vy
        if not common:
            with pytest.raises(ValidationError):
                align_pair(killer, victim)
            return
        years = [year for year, _, _ in align_pair(killer, victim)]
        assert years == sorted(common)


class TestManifest:
    def test_load_pair_manifest(self, tmp_path):
        """killer, victim and adjustment are read by no command: like
        description and role, they load and are ignored."""
        write_csv(tmp_path / "k.csv", [(2000, 1.0), (2001, 2.0)])
        path = write_manifest(
            tmp_path / "m.json",
            {
                "dataset": "demo",
                "description": "synthetic pair",
                "killer": {"file": "k.csv", "role": "killer technology"},
                "victim": {"file": "v.csv", "role": "victim technology"},
                "series": [{"file": "k.csv", "role": "killer technology"}],
                "period": {"first": 2000, "last": 2001},
                "adjustment": "none",
            },
        )
        manifest = load_manifest(path)
        assert manifest == DatasetManifest(
            dataset="demo", series=(SeriesRef("k.csv"),), period=(2000, 2001),
            base_dir=str(tmp_path),
        )
        killer = manifest.resolve(manifest.series[0])
        assert killer.name == "k"
        assert killer.points == ((2000, 1.0), (2001, 2.0))

    def test_series_list_manifest(self, tmp_path):
        write_csv(tmp_path / "a.csv", [(2000, 1.0)])
        path = write_manifest(
            tmp_path / "m.json",
            {"dataset": "waves", "series": [{"file": "a.csv", "name": "tech-a"}]},
        )
        manifest = load_manifest(path)
        assert len(manifest.series) == 1
        assert manifest.resolve(manifest.series[0]).name == "tech-a"

    def test_period_outside_series_rejected(self, tmp_path):
        write_csv(tmp_path / "a.csv", [(2000, 1.0), (2005, 2.0)])
        path = write_manifest(
            tmp_path / "m.json",
            {
                "dataset": "bad",
                "series": [{"file": "a.csv"}],
                "period": {"first": 2010, "last": 2020},
            },
        )
        manifest = load_manifest(path)
        with pytest.raises(ValidationError, match="does not overlap"):
            manifest.resolve(manifest.series[0])

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(ParseError, match="invalid JSON"):
            load_manifest(path)

    @pytest.mark.parametrize("series", [5, None, "a.csv", {"file": "a.csv"}])
    def test_non_list_series_rejected(self, tmp_path, series):
        path = write_manifest(tmp_path / "m.json", {"series": series})
        with pytest.raises(ParseError, match="'series' must be a list"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"period": {"first": True, "last": 2000}}, "period first must be an integer"),
            ({"period": {"first": 1990, "last": 2000.0}}, "period last must be an integer"),
            ({"period": {"first": "1990", "last": 2000}}, "period first must be an integer"),
            ({"dataset": ["x"]}, "'dataset' must be a string"),
            ({"dataset": 7}, "'dataset' must be a string"),
            ({"series": [{"file": "a.csv", "name": 5}]}, "'name' must be a string"),
            ({"series": [{"file": 5}]}, "'file' must be a string"),
            ({"series": [{"file": "a.csv"}, {"file": ["k.csv"]}]}, "'file' must be a string"),
            ({"series": [{"file": "a.csv", "unit": None}]}, "'unit' must be a string"),
            ({"series": [{"file": "v.csv", "unit": ["x"]}]}, "'unit' must be a string"),
            ({"series": [{"file": "a.csv", "unit": 3}]}, "'unit' must be a string"),
        ],
    )
    def test_mistyped_fields_rejected(self, tmp_path, doc, message):
        path = write_manifest(tmp_path / "m.json", doc)
        with pytest.raises(ParseError, match=message):
            load_manifest(path)

    def test_entry_without_file_rejected(self, tmp_path):
        path = write_manifest(tmp_path / "m.json", {"series": [{"name": "x"}]})
        with pytest.raises(ParseError, match="'file'"):
            load_manifest(path)

    def test_inverted_period_rejected(self, tmp_path):
        path = write_manifest(
            tmp_path / "m.json",
            {"series": [], "period": {"first": 2020, "last": 2010}},
        )
        with pytest.raises(ValidationError, match="first"):
            load_manifest(path)


class TestErrorsNameTheFile:
    """A reader's error puts the path first, then the line of a parse
    error, which it keeps as ParseError.line."""

    def test_read_series(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("year,value\n1920,246\nxx,300\n")
        with pytest.raises(ParseError) as info:
            read_series(path)
        assert str(info.value) == f"{path}: line 3: year is not an integer: 'xx'"
        assert info.value.line == 3
        path.write_text("year,value\n1920,246\n1920,300\n")
        with pytest.raises(ValidationError) as info:
            read_series(path)
        assert str(info.value) == (
            f"{path}: series 'm': years must be strictly increasing (1920 follows 1920)"
        )

    def test_read_json_object(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{\n"a": 1,\n"b": }\n')
        with pytest.raises(ParseError) as info:
            read_json_object(path, "manifest")
        assert str(info.value) == (
            f"{path}: line 3: invalid JSON (Expecting value: line 3 column 6 (char 15))"
        )
        assert info.value.line == 3


STEMS = [
    ("a.b.csv", "a.b"), (".hidden", ".hidden"), ("x.", "x."), ("..a", "."), ("plain", "plain"),
]


class TestNamesFromPaths:
    """A series without a name, and a manifest without a dataset, are named
    after their file as pathlib's Path.stem names it."""

    @pytest.mark.parametrize("file, stem", STEMS)
    def test_series_name_is_the_file_stem(self, tmp_path, file, stem):
        path = write_csv(tmp_path / file, [(2000, 1.0)])
        assert path.stem == stem
        assert read_series(path).name == read_series(str(path)).name == stem

    @pytest.mark.parametrize("file, stem", STEMS)
    def test_manifest_dataset_is_the_file_stem(self, tmp_path, file, stem):
        path = write_manifest(tmp_path / file, {"series": []})
        assert load_manifest(path).dataset == load_manifest(str(path)).dataset == stem
