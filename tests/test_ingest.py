import pytest
from hypothesis import given
from hypothesis import strategies as st

from pathlib import Path

from conftest import check_record, make_series, write_csv, write_manifest
from techsub.errors import ParseError, ValidationError
from techsub.ingest import (
    DatasetManifest,
    SeriesRef,
    TimeSeries,
    align_pair,
    load_manifest,
    parse_series,
    read_series,
    serialize_series,
)


class TestRecords:
    def test_records_are_values(self):
        series = check_record(TimeSeries, name="s", unit="u", points=((2000, 1.0), (2001, 2.5)))
        ref = check_record(SeriesRef, file="a.csv", name="a", unit="u")
        check_record(
            DatasetManifest, dataset="d", killer=ref, victim=ref,
            series=(ref,), period=(2000, 2001), adjustment="none", base_dir=Path("data"),
        )
        assert len(series) == 2

    def test_keyword_defaults(self):
        assert SeriesRef(file="a.csv") == SeriesRef("a.csv", None, "")
        manifest = DatasetManifest(dataset="d")
        assert (manifest.killer, manifest.victim) == (None, None)
        assert (manifest.series, manifest.period, manifest.adjustment) == ((), None, None)
        assert manifest.base_dir == Path()

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
        rows = align_pair(killer, victim, (2004, 2018))
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
        write_csv(tmp_path / "k.csv", [(2000, 1.0), (2001, 2.0)])
        write_csv(tmp_path / "v.csv", [(2000, 5.0), (2001, 4.0)])
        path = write_manifest(
            tmp_path / "m.json",
            {
                "dataset": "demo",
                "description": "synthetic pair",
                "killer": {"file": "k.csv", "role": "killer technology"},
                "victim": {"file": "v.csv", "role": "victim technology"},
                "period": {"first": 2000, "last": 2001},
                "adjustment": "none",
            },
        )
        manifest = load_manifest(path)
        assert manifest.dataset == "demo"
        assert manifest.period == (2000, 2001)
        killer = manifest.resolve(manifest.killer)
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
            ({"killer": {"file": ["k.csv"]}}, "'file' must be a string"),
            ({"series": [{"file": "a.csv", "unit": None}]}, "'unit' must be a string"),
            ({"victim": {"file": "v.csv", "unit": ["x"]}}, "'unit' must be a string"),
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
