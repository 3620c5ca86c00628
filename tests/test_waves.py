import json
import math
import random
import warnings

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import check_record, make_series
from techsub.cli import main
from techsub.errors import ValidationError
from techsub.ingest import read_series
from techsub.waves import (
    IntroGapDiagnostic,
    Takeover,
    WaveEvents,
    WaveMetrics,
    extract_wave_events,
    intro_gap_diagnostic,
    summarize_waves,
    takeover_year,
    wave_metrics,
    waves_payload,
)
from test_golden import write_inputs


def tent_series(name, begin, peak, last_positive, final_zero=True):
    """Synthetic revenue history: unique-peak tent with A/M/Z at the
    requested years, optionally closed by a trailing zero year."""
    pts = []
    for i, year in enumerate(range(begin, peak + 1)):
        pts.append((year, float(i + 1)))
    height = peak - begin + 1
    down_years = list(range(peak + 1, last_positive + 1))
    for i, year in enumerate(down_years):
        pts.append((year, float(max(height - 1 - i, 1))))
    if final_zero:
        pts.append((last_positive + 1, 0.0))
    return make_series(pts, name)


EIGHT_TRACK = tent_series("8-track", 1965, 1978, 1982)
CASSETTE = tent_series("cassette", 1964, 1990, 2005)
CD = tent_series("cd", 1983, 2001, 2018)


class TestRecords:
    def test_records_are_values(self):
        check_record(WaveEvents, name="t", begin_year=2000, peak_year=2005, end_year=None)
        check_record(
            WaveMetrics, upwave_years=5, downwave_years=3, cycle_years=8,
            upwave_fraction=62.5, downwave_fraction=37.5,
        )
        check_record(
            Takeover, year=2001, challenger_value=3.0, established_value=1.0,
            established_share_pct=25.0,
        )
        check_record(IntroGapDiagnostic, points=((2, 3), (4, 1)), spearman=-1.0)

    def test_replace_validates(self):
        events = WaveEvents("t", 2000, 2005, None)
        assert events._replace(end_year=2010).complete
        with pytest.raises(ValidationError, match="after end"):
            events._replace(end_year=2001)

    def test_summary_keys_follow_field_order(self):
        assert list(summarize_waves([])) == list(WaveMetrics._fields) == [
            "upwave_years", "downwave_years", "cycle_years",
            "upwave_fraction", "downwave_fraction",
        ]


class TestExtractWaveEvents:
    def test_eight_track_anchor_years(self):
        events = extract_wave_events(EIGHT_TRACK)
        assert (events.begin_year, events.peak_year, events.end_year) == (1965, 1978, 1982)

    def test_single_year_series_counts_as_in_progress(self):
        events = extract_wave_events(make_series([(2000, 5.0)], "one"))
        assert events.begin_year == 2000
        assert events.peak_year == 2000
        assert events.end_year is None  # trailing observation still active

    def test_growing_series_has_no_end(self):
        events = extract_wave_events(make_series([(1, 1.0), (2, 2.0), (3, 3.0)], "up"))
        assert events.end_year is None
        assert not events.complete

    def test_peak_tie_takes_earliest_year(self):
        events = extract_wave_events(
            make_series([(1, 1.0), (2, 5.0), (3, 5.0), (4, 1.0), (5, 0.0)], "tie")
        )
        assert events.peak_year == 2

    def test_all_below_threshold_rejected(self):
        with pytest.raises(ValidationError, match="never exceeds"):
            extract_wave_events(make_series([(1, 1.0), (2, 2.0)], "low"), 5.0)

    def test_empty_series_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            extract_wave_events(make_series([], "none"))

    @pytest.mark.parametrize("threshold", [0.0, -5.0])
    def test_negative_level_rejected_with_its_year(self, threshold):
        series = make_series([(2000, 1.0), (2001, 3.0), (2002, -1.0), (2003, 0.0)], "neg")
        with pytest.raises(ValidationError, match="'neg': negative level at year 2002"):
            extract_wave_events(series, threshold)

    @given(
        st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, 7.0]), min_size=1, max_size=12),
        st.sampled_from([-1.0, 0.0, 1.0, 2.5]),
    )
    def test_anchor_years_match_their_definition(self, values, threshold):
        active = [1990 + i for i, v in enumerate(values) if v > threshold]
        assume(active)
        events = extract_wave_events(make_series([(1990 + i, v) for i, v in enumerate(values)]),
                                     threshold)
        assert events.begin_year == active[0]
        assert events.peak_year == 1990 + min(i for i, v in enumerate(values) if v == max(values))
        assert events.end_year == (None if values[-1] > threshold else active[-1])

    @given(
        st.lists(st.floats(0, 100), min_size=2, max_size=25),
        st.floats(0, 50),
        st.floats(0, 50),
    )
    def test_raising_threshold_never_widens_the_wave(self, values, th1, th2):
        lo, hi = min(th1, th2), max(th1, th2)
        series = make_series([(2000 + i, v) for i, v in enumerate(values)], "s")
        assume(any(v > hi for v in values))
        e_lo = extract_wave_events(series, lo)
        e_hi = extract_wave_events(series, hi)
        assert e_hi.begin_year >= e_lo.begin_year
        if e_lo.end_year is not None and e_hi.end_year is not None:
            assert e_hi.end_year <= e_lo.end_year


class TestWaveMetrics:
    @pytest.mark.parametrize(
        "anchors,expected",
        [
            ((1965, 1978, 1982), (13, 4, 17, 76.47, 23.53)),
            ((1983, 2001, 2018), (18, 17, 35, 51.43, 48.57)),
            ((1964, 1990, 2005), (26, 15, 41, 63.41, 36.59)),
        ],
    )
    def test_known_anchor_triples(self, anchors, expected):
        m = wave_metrics(WaveEvents("t", *anchors))
        assert (m.upwave_years, m.downwave_years, m.cycle_years) == expected[:3]
        assert m.upwave_fraction == pytest.approx(expected[3], abs=0.01)
        assert m.downwave_fraction == pytest.approx(expected[4], abs=0.01)

    def test_zero_length_cycle_has_no_fractions(self):
        m = wave_metrics(WaveEvents("t", 2000, 2000, 2000))
        assert (m.upwave_years, m.downwave_years, m.cycle_years) == (0, 0, 0)
        assert m.upwave_fraction is None
        assert m.downwave_fraction is None

    def test_incomplete_wave_rejected(self):
        with pytest.raises(ValidationError, match="in progress"):
            wave_metrics(WaveEvents("t", 2000, 2005, None))

    def test_inconsistent_anchor_order_rejected(self):
        with pytest.raises(ValidationError):
            WaveEvents("t", 2005, 2000, 2010)
        with pytest.raises(ValidationError):
            WaveEvents("t", 1990, 2005, 2000)

    @given(st.integers(1900, 2100), st.integers(0, 80), st.integers(0, 80))
    def test_additivity(self, begin, up, down):
        m = wave_metrics(WaveEvents("t", begin, begin + up, begin + up + down))
        assert m.upwave_years + m.downwave_years == m.cycle_years
        if m.cycle_years > 0:
            assert m.upwave_fraction + m.downwave_fraction == pytest.approx(100.0, abs=1e-9)


class TestSummarizeWaves:
    def test_disruption_periods_pin_the_sd_convention(self):
        metrics = [
            wave_metrics(WaveEvents("a", 0, 0, 4)),
            wave_metrics(WaveEvents("b", 0, 0, 15)),
            wave_metrics(WaveEvents("c", 0, 0, 17)),
        ]
        summary = summarize_waves(metrics)
        assert summary["downwave_years"][0] == pytest.approx(12.0)
        assert summary["downwave_years"][1] == pytest.approx(7.0)  # sample (n-1) SD

    def test_upwave_statistics(self):
        metrics = [
            wave_metrics(WaveEvents("a", 0, 13, 14)),
            wave_metrics(WaveEvents("b", 0, 26, 27)),
            wave_metrics(WaveEvents("c", 0, 18, 19)),
        ]
        summary = summarize_waves(metrics)
        assert summary["upwave_years"][0] == pytest.approx(19.0)
        assert summary["upwave_years"][1] == pytest.approx(6.56, abs=0.01)

    def test_single_wave_has_no_sd(self):
        summary = summarize_waves([wave_metrics(WaveEvents("a", 0, 4, 10))])
        assert summary["upwave_years"][0] == pytest.approx(4.0)
        assert summary["upwave_years"][1] is None

    def test_empty_input(self):
        summary = summarize_waves([])
        assert summary["upwave_years"] == (None, None)


class TestTakeoverYear:
    def test_first_strict_crossing(self):
        old = make_series([(1, 10.0), (2, 9.0), (3, 8.0), (4, 7.0)], "old")
        new = make_series([(1, 1.0), (2, 9.0), (3, 12.0), (4, 20.0)], "new")
        crossing = takeover_year(new, old)
        assert crossing.year == 3
        assert crossing == Takeover(
            year=3, challenger_value=12.0, established_value=8.0,
            established_share_pct=100.0 * 8.0 / 20.0,
        )

    def test_never_crossing_returns_none(self):
        old = make_series([(1, 10.0), (2, 10.0)], "old")
        new = make_series([(1, 1.0), (2, 2.0)], "new")
        assert takeover_year(new, old) is None

    def test_no_common_years_rejected(self):
        old = make_series([(1, 10.0)], "old")
        new = make_series([(2, 1.0)], "new")
        with pytest.raises(ValidationError, match="share no years"):
            takeover_year(new, old)

    @pytest.mark.parametrize(
        "old_value,new_value,share",
        # old + new overflows to inf (a NaN share), and 100 * old does (an inf share)
        [(1.5e308, 1.7e308, 46.875), (2e306, 3e306, 40.0)],
    )
    def test_share_is_finite_near_the_float_limit(self, old_value, new_value, share):
        old = make_series([(1, old_value)], "old")
        new = make_series([(1, new_value)], "new")
        assert takeover_year(new, old).established_share_pct == share

    @pytest.mark.parametrize(
        "established_last",
        [-3.0, -1.0],  # a share of 150% / a zero sum under the crossing
    )
    def test_negative_level_rejected_with_its_year(self, established_last):
        old = make_series([(1, 1.0), (2, established_last)], "old")
        new = make_series([(1, 0.5), (2, 1.0)], "new")
        with pytest.raises(ValidationError, match="negative level at year 2"):
            takeover_year(new, old)

    @given(
        st.lists(st.floats(0, 100), min_size=1, max_size=20),
        st.lists(st.floats(0, 100), min_size=1, max_size=20),
    )
    def test_crossing_is_first(self, old_vals, new_vals):
        n = min(len(old_vals), len(new_vals))
        old = make_series([(i, old_vals[i]) for i in range(n)], "old")
        new = make_series([(i, new_vals[i]) for i in range(n)], "new")
        crossing = takeover_year(new, old)
        if crossing is None:
            assert all(new_vals[i] <= old_vals[i] for i in range(n))
        else:
            assert crossing.challenger_value > crossing.established_value
            for i in range(crossing.year):
                assert new_vals[i] <= old_vals[i]

    @given(
        st.dictionaries(st.integers(0, 30), st.floats(0, 100), max_size=15),
        st.dictionaries(st.integers(0, 30), st.floats(0, 100), max_size=15),
    )
    def test_crossing_is_first_of_the_common_years(self, old_levels, new_levels):
        old = make_series(sorted(old_levels.items()), "old")
        new = make_series(sorted(new_levels.items()), "new")
        common = sorted(old_levels.keys() & new_levels.keys())
        if not common:
            with pytest.raises(ValidationError, match="share no years"):
                takeover_year(new, old)
            return
        first = next((y for y in common if new_levels[y] > old_levels[y]), None)
        crossing = takeover_year(new, old)
        assert (crossing.year if crossing else None) == first


class TestIntroGapDiagnostic:
    def test_recorded_music_chain(self):
        e8 = extract_wave_events(EIGHT_TRACK)
        ec = extract_wave_events(CASSETTE)
        ecd = extract_wave_events(CD)
        diag = intro_gap_diagnostic([(e8, ec), (ec, ecd)])
        assert diag.points == ((1, 4), (19, 15))
        assert diag.spearman == pytest.approx(1.0)

    def test_identical_begin_years_give_zero_gap(self):
        a = WaveEvents("a", 2000, 2005, 2010)
        b = WaveEvents("b", 2000, 2012, None)
        diag = intro_gap_diagnostic([(a, b)])
        assert diag.points == ((0, 5),)
        assert diag.spearman is None  # one point, no rank correlation

    @staticmethod
    def chain(points):
        """(established, killer) event pairs with the given (gap, disruption)."""
        return [
            (WaveEvents(f"old{i}", 0, 10, 10 + dp), WaveEvents(f"new{i}", gap, gap, None))
            for i, (gap, dp) in enumerate(points)
        ]

    def test_spearman_with_ties_hand_computed(self):
        # gap ranks 1, 2.5, 2.5, 4 and disruption ranks 3, 1, 2, 4, centred
        # on 2.5: S_gg = 4.5, S_dd = 5, S_gd = 1.5, rho = 1.5/sqrt(22.5)
        diag = intro_gap_diagnostic(self.chain([(1, 3), (2, 1), (2, 2), (4, 5)]))
        assert diag.spearman == pytest.approx(1.0 / math.sqrt(10.0), rel=1e-15)

    def test_spearman_matches_scipy_stats_to_1e_15(self):
        # rho is correctly rounded (tests/test_exactness.py); scipy's
        # numpy.corrcoef order of operations can differ in the last bits
        stats = pytest.importorskip("scipy.stats")

        rng = random.Random(99)
        for _ in range(500):
            n = rng.randint(2, 40)
            gap_top, dp_top = rng.choice((1, 3, 8, 60)), rng.choice((1, 3, 8, 60))
            points = [(rng.randint(0, gap_top), rng.randint(0, dp_top)) for _ in range(n)]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", stats.ConstantInputWarning)
                rho = stats.spearmanr(*zip(*points)).statistic
            got = intro_gap_diagnostic(self.chain(points)).spearman
            if math.isfinite(rho):
                assert abs(got - float(rho)) <= 1e-15, points
            else:
                assert got is None, points

    @pytest.mark.parametrize(
        "points", [[(3, 1), (3, 4), (3, 9)], [(1, 6), (2, 6)], [(0, 0), (0, 0)]]
    )
    def test_constant_side_has_no_correlation_and_no_warning(self, points):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert intro_gap_diagnostic(self.chain(points)).spearman is None

    def test_in_progress_established_rejected(self):
        a = WaveEvents("a", 2000, 2005, None)
        b = WaveEvents("b", 2001, 2012, None)
        with pytest.raises(ValidationError, match="no disruption period"):
            intro_gap_diagnostic([(a, b)])


class TestWavesPayload:
    def test_payload_is_the_waves_report_payload(self, tmp_path):
        write_inputs(tmp_path)
        output = tmp_path / "waves.json"
        argv = ["waves", str(tmp_path / "m.json"), "--output", str(output)]
        assert main(argv) == 0
        series = [read_series(tmp_path / f) for f in ("a.csv", "b.csv", "c.csv")]
        payload, warnings = waves_payload([(s, extract_wave_events(s)) for s in series])
        assert payload == json.loads(output.read_text(encoding="utf-8"))["payload"]
        assert warnings == []

    def test_single_technology_has_no_pairs(self):
        series = make_series([(2000, 1.0), (2001, 2.0), (2002, 0.0)], "only")
        payload, warnings = waves_payload([(series, extract_wave_events(series))])
        assert payload["takeovers"] == [] and warnings == []
        assert payload["intro_gaps"] == {"points": [], "spearman": None}
        assert payload["summary"]["n_waves"] == 1
