import argparse
import builtins
import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import techsub
from conftest import write_csv, write_manifest
from techsub.ingest import TimeSeries

SRC = str(Path(techsub.__file__).resolve().parent.parent)


def run_python(*args):
    """Run a fresh interpreter that imports this checkout's techsub."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *map(str, args)], capture_output=True, text=True, env=env,
        timeout=120,
    )


def constant_gap_manifest(tmp_path):
    """Three technologies, each arriving two years after the last."""
    write_csv(tmp_path / "a.csv", [(2000, 1.0), (2001, 3.0), (2002, 2.0), (2003, 0.0)])
    write_csv(tmp_path / "b.csv", [(2002, 1.0), (2003, 5.0), (2004, 1.0), (2005, 0.0)])
    write_csv(tmp_path / "c.csv", [(2004, 1.0), (2005, 3.0), (2006, 6.0)])
    return write_manifest(
        tmp_path / "m.json",
        {"dataset": "steady", "series": [{"file": f} for f in ("a.csv", "b.csv", "c.csv")]},
    )


@pytest.fixture
def power_law_pair(tmp_path):
    """Exact Kl = e^2 * V^3 over ten years; log-log fit is perfect."""
    years = range(2000, 2010)
    victim_pts = [(y, float(v)) for y, v in zip(years, range(1, 11))]
    killer_pts = [(y, math.exp(2.0) * v**3) for (y, v) in victim_pts]
    return (
        write_csv(tmp_path / "killer.csv", killer_pts),
        write_csv(tmp_path / "victim.csv", victim_pts),
    )


def svg_elements(path, tag):
    root = ET.parse(path).getroot()
    return [el for el in root.iter() if el.tag.split("}")[-1] == tag]


class TestFitKiller:
    def test_exact_power_law_report(self, run_cli, power_law_pair):
        killer_csv, victim_csv = power_law_pair
        code, out, err = run_cli("fit-killer", killer_csv, victim_csv, "--no-timestamp")
        assert code == 0, err
        report = json.loads(out)
        assert report["command"] == "fit-killer"
        assert report["log_base"] == "e"
        payload = report["payload"]
        assert payload["beta"] == pytest.approx(3.0, rel=1e-12)
        assert payload["alpha"] == pytest.approx(2.0, rel=1e-12)
        assert payload["r2"] == pytest.approx(1.0)
        assert payload["stars_beta"] == "***"
        assert payload["regime"] == "development"
        assert payload["n_dropped"] == 0
        assert len(report["inputs"]) == 2
        assert all(len(i["sha256"]) == 64 for i in report["inputs"])
        assert "timestamp" not in report

    def test_plot_is_valid_svg_with_marker_per_point(self, run_cli, power_law_pair, tmp_path):
        killer_csv, victim_csv = power_law_pair
        plot = tmp_path / "fit.svg"
        code, _, _ = run_cli(
            "fit-killer", killer_csv, victim_csv, "--no-timestamp", "--plot", plot
        )
        assert code == 0
        circles = svg_elements(plot, "circle")
        assert len(circles) == 10
        texts = [t.text for t in svg_elements(plot, "text")]
        assert any(t and t.startswith("B = ") for t in texts)

    def test_fitted_line_passes_through_every_point(self, run_cli, power_law_pair, tmp_path):
        killer_csv, victim_csv = power_law_pair
        plot = tmp_path / "fit.svg"
        run_cli("fit-killer", killer_csv, victim_csv, "--plot", plot)
        lines = svg_elements(plot, "line")
        fit_line = [l for l in lines if l.get("stroke") == "#c0392b"]
        assert len(fit_line) == 1
        (x1, y1), (x2, y2) = (
            (float(fit_line[0].get("x1")), float(fit_line[0].get("y1"))),
            (float(fit_line[0].get("x2")), float(fit_line[0].get("y2"))),
        )
        slope = (y2 - y1) / (x2 - x1)
        for c in svg_elements(plot, "circle"):
            cx, cy = float(c.get("cx")), float(c.get("cy"))
            expected = y1 + slope * (cx - x1)
            assert cy == pytest.approx(expected, abs=0.05)  # pixel rounding

    def test_deterministic_output(self, run_cli, power_law_pair, tmp_path):
        killer_csv, victim_csv = power_law_pair
        outputs = []
        plots = []
        for i in (1, 2):
            plot = tmp_path / f"p{i}.svg"
            code, out, _ = run_cli(
                "fit-killer", killer_csv, victim_csv, "--no-timestamp", "--plot", plot
            )
            assert code == 0
            outputs.append(out)
            plots.append(plot.read_bytes())
        assert outputs[0] == outputs[1]
        assert plots[0] == plots[1]

    def test_report_numbers_round_trip_exactly(self, run_cli, power_law_pair):
        from techsub.estimation import killer_fit
        from techsub.ingest import read_series

        killer_csv, victim_csv = power_law_pair
        _, out, _ = run_cli("fit-killer", killer_csv, victim_csv, "--no-timestamp")
        payload = json.loads(out)["payload"]
        fit = killer_fit(read_series(killer_csv), read_series(victim_csv))
        assert payload["beta"] == fit.regression.beta
        assert payload["alpha"] == fit.regression.alpha
        assert payload["se_beta"] == fit.regression.se_beta
        assert payload["r2_adj"] == fit.regression.r2_adj

    def test_zero_value_reported_as_dropped(self, run_cli, tmp_path):
        killer_csv = write_csv(
            tmp_path / "k.csv", [(1, 2.0), (2, 5.0), (3, 6.0), (4, 9.0)]
        )
        victim_csv = write_csv(
            tmp_path / "v.csv", [(1, 1.0), (2, 0.0), (3, 3.0), (4, 4.0)]
        )
        code, out, _ = run_cli("fit-killer", killer_csv, victim_csv, "--no-timestamp")
        assert code == 0
        report = json.loads(out)
        assert report["payload"]["n_dropped"] == 1
        assert report["payload"]["n"] == 3
        assert any("non-positive" in w for w in report["warnings"])

    def test_period_restriction(self, run_cli, power_law_pair):
        killer_csv, victim_csv = power_law_pair
        code, out, _ = run_cli(
            "fit-killer", killer_csv, victim_csv, "--no-timestamp", "--period", "2003:2007"
        )
        assert code == 0
        assert json.loads(out)["payload"]["years_used"] == list(range(2003, 2008))

    def test_regime_tolerance_flag(self, run_cli, power_law_pair):
        killer_csv, victim_csv = power_law_pair
        code, out, _ = run_cli(
            "fit-killer",
            killer_csv,
            victim_csv,
            "--no-timestamp",
            "--regime-tolerance",
            "abs:5.0",
        )
        assert code == 0
        assert json.loads(out)["payload"]["regime"] == "proportional-growth"

    def test_regime_tolerance_ttest_accepted(self, run_cli, power_law_pair):
        killer_csv, victim_csv = power_law_pair
        code, out, _ = run_cli(
            "fit-killer", killer_csv, victim_csv, "--no-timestamp",
            "--regime-tolerance", "ttest",
        )
        assert code == 0
        assert json.loads(out)["payload"]["regime"] == "development"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_regime_tolerance_is_usage_error(self, run_cli, power_law_pair, value):
        killer_csv, victim_csv = power_law_pair
        with pytest.raises(SystemExit) as exc:
            run_cli("fit-killer", killer_csv, victim_csv, "--regime-tolerance", f"abs:{value}")
        assert exc.value.code == 2

    def test_output_file(self, run_cli, power_law_pair, tmp_path):
        killer_csv, victim_csv = power_law_pair
        dest = tmp_path / "report.json"
        code, out, _ = run_cli(
            "fit-killer", killer_csv, victim_csv, "--no-timestamp", "--output", dest
        )
        assert code == 0
        assert out == ""
        assert json.loads(dest.read_text())["command"] == "fit-killer"

    def test_identical_series_report_null_f_with_a_warning(self, run_cli, tmp_path):
        """A killer identical to its victim fits with zero residual variance,
        so F is infinite: the report says null, and why, in strict JSON."""
        points = [(2000 + i, 1.5**i) for i in range(8)]
        killer, victim = write_csv(tmp_path / "k.csv", points), write_csv(tmp_path / "v.csv", points)
        code, out, err = run_cli("fit-killer", killer, victim, "--no-timestamp")
        assert (code, err) == (0, "")
        assert "Infinity" not in out and "NaN" not in out

        def refuse(constant):
            raise ValueError(f"non-RFC 8259 constant {constant}")

        report = json.loads(out, parse_constant=refuse)
        assert report["payload"]["f_stat"] is None
        assert report["payload"]["beta"] == 1.0
        assert report["warnings"] == ["f_stat is inf (zero residual variance); reported as null"]

    def test_constant_killer_plot_has_one_y_tick(self, run_cli, tmp_path):
        """A constant killer's y span is the one value ln 5, so it gets one
        tick: taken from the padded span less its pad, in floats, the ends
        would differ by an ulp and give five ticks all labelled 1.609."""
        killer = write_csv(tmp_path / "k.csv", [(y, 5.0) for y in range(1, 5)])
        victim = write_csv(tmp_path / "v.csv", [(y, float(y)) for y in range(1, 5)])
        plot = tmp_path / "p.svg"
        code, _, _ = run_cli("fit-killer", killer, victim, "--no-timestamp", "--plot", plot)
        assert code == 0
        labels = [t.text for t in svg_elements(plot, "text") if t.get("text-anchor") == "end"]
        assert labels == ["1.609", "B = 0.000"]


class TestExitCodes:
    def test_missing_file_is_io_failure(self, run_cli, tmp_path):
        code, _, err = run_cli("fit-killer", tmp_path / "no.csv", tmp_path / "no2.csv")
        assert code == 3
        assert "error" in err

    def test_paths_are_reported_as_written(self, run_cli, tmp_path, monkeypatch):
        """Messages show a path as it was given, or as the manifest's
        directory and entry join it: a leading './' stays."""
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli("fit-killer", "./no.csv", "no2.csv")
        assert code == 3
        assert err == "techsub: i/o error: [Errno 2] No such file or directory: './no.csv'\n"
        (tmp_path / "bad.csv").write_text("year,value\nxx,1\n")
        write_csv(tmp_path / "ok.csv", [(1, 1.0), (2, 2.0), (3, 3.0)])
        code, _, err = run_cli("fit-killer", "./bad.csv", "ok.csv")
        assert code == 3
        assert err == "techsub: parse error: ./bad.csv: line 2: year is not an integer: 'xx'\n"
        write_manifest(tmp_path / "m.json", {"series": [{"file": "bad.csv"}, {"file": "ok.csv"}]})
        code, out, _ = run_cli("waves", "./m.json", "--no-timestamp")
        assert code == 0
        assert json.loads(out)["warnings"] == ["./bad.csv: line 2: year is not an integer: 'xx'"]

    def test_malformed_csv_is_parse_failure(self, run_cli, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("year,value\nxx,1\n")
        other = write_csv(tmp_path / "ok.csv", [(1, 1.0), (2, 2.0), (3, 3.0)])
        code, _, err = run_cli("fit-killer", bad, other)
        assert code == 3
        assert "parse error" in err

    def test_duplicate_years_is_validation_failure(self, run_cli, tmp_path):
        bad = tmp_path / "dup.csv"
        bad.write_text("year,value\n1,1\n1,2\n")
        other = write_csv(tmp_path / "ok.csv", [(1, 1.0), (2, 2.0), (3, 3.0)])
        code, _, err = run_cli("fit-killer", bad, other)
        assert code == 4
        assert "validation error" in err

    def test_degenerate_fit_is_estimation_failure(self, run_cli, tmp_path):
        killer = write_csv(tmp_path / "k.csv", [(1, 1.0), (2, 0.0), (3, 3.0)])
        victim = write_csv(tmp_path / "v.csv", [(1, 1.0), (2, 2.0), (3, 3.0)])
        code, _, err = run_cli("fit-killer", killer, victim)
        assert code == 5
        assert "estimation error" in err

    def test_share_outside_unit_interval_is_validation_failure(self, run_cli, tmp_path):
        shares = write_csv(tmp_path / "s.csv", [(1, 0.5), (2, 1.0), (3, 0.9)])
        code, _, err = run_cli("fisher-pry", shares)
        assert code == 4

    def test_constant_share_is_estimation_failure(self, run_cli, tmp_path):
        shares = write_csv(tmp_path / "s.csv", [(1, 0.5), (2, 0.5), (3, 0.5)])
        code, _, _ = run_cli("fisher-pry", shares)
        assert code == 5

    def test_years_near_the_float_limit_fit_exactly(self, run_cli, tmp_path):
        # the centred sum of squares of these years, about 2.6e615, is no
        # float, but the exact slope, about 3.7e-308, is
        years = (10**308, 15 * 10**307, 17 * 10**307)
        shares = write_csv(tmp_path / "s.csv", zip(years, (0.2, 0.5, 0.8)))
        code, out, _ = run_cli("fisher-pry", shares, "--no-timestamp")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["slope"] == 3.7323309722458596e-308
        assert payload["t_half"] == 1.4e308

    def test_f_beyond_the_float_range_is_estimation_failure(self, run_cli, tmp_path):
        # three years, the first two a year apart and the last 1e300 later,
        # leave F = t^2 above the largest float
        shares = write_csv(tmp_path / "s.csv", [(0, 0.5), (1, 0.5), (10**300, 0.7)])
        code, out, err = run_cli("fisher-pry", shares)
        assert code == 5
        assert out == ""
        assert "estimation error: a fitted value overflows a float" in err

    @pytest.mark.parametrize(
        "points",
        [
            [(0, 0.5), (1, 0.6), (10**309, 0.7)],
            # logits near 30 rising by 0.1 over 1e308 years: t_half near -2e310
            [(t, 1.0 / (1.0 + math.exp(-z)))
             for t, z in [(0, 29.9), (10**308, 30.0), (17 * 10**307, 30.1)]],
        ],
        ids=["year", "t_half"],
    )
    def test_year_or_t_half_beyond_the_float_range_is_estimation_failure(
        self, run_cli, tmp_path, points
    ):
        shares = write_csv(tmp_path / "s.csv", points)
        code, out, err = run_cli("fisher-pry", shares)
        assert code == 5
        assert out == ""
        assert "estimation error: a year or t_half lies beyond the float range" in err

    def test_plot_whose_axis_span_overflows_is_estimation_failure(self, run_cli, tmp_path):
        # the years fit, but the plot's year axis would span 2e308, no float;
        # the report is not written either
        shares = write_csv(tmp_path / "s.csv", zip((-10**308, 0, 10**308), (0.2, 0.5, 0.8)))
        report, plot = tmp_path / "report.json", tmp_path / "fp.svg"
        code, out, err = run_cli("fisher-pry", shares, "--output", report, "--plot", plot)
        assert code == 5
        assert out == ""
        assert err == (
            "techsub: estimation error: cannot plot: an axis span lies beyond the float range\n"
        )
        assert not report.exists() and not plot.exists()

    @pytest.mark.parametrize("plot", ["r.json", "./r.json", "linked/r.json", "d/../r.json"])
    def test_fit_killer_report_and_plot_on_one_file_is_validation_failure(
        self, run_cli, power_law_pair, tmp_path, monkeypatch, plot
    ):
        killer_csv, victim_csv = power_law_pair
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        (tmp_path / "linked").symlink_to(tmp_path)
        code, out, err = run_cli(
            "fit-killer", killer_csv, victim_csv, "--plot", plot, "--output", "r.json"
        )
        assert (code, out) == (4, "")
        assert err == (
            f"techsub: validation error: --output r.json and --plot {plot} name the same file\n"
        )
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("link", ["symbolic", "hard"])
    def test_fisher_pry_report_and_plot_on_one_file_is_validation_failure(
        self, run_cli, tmp_path, link
    ):
        """A symbolic link to a report not yet written, or a hard link to
        one already there, names the report's file."""
        shares = write_csv(tmp_path / "s.csv", [(1, 0.2), (2, 0.5), (3, 0.8)])
        report, plot = tmp_path / "r.json", tmp_path / "link.json"
        if link == "symbolic":
            plot.symlink_to(report)
        else:
            report.write_text("kept\n")
            os.link(report, plot)
        code, out, err = run_cli("fisher-pry", shares, "--plot", plot, "--output", report)
        assert (code, out) == (4, "")
        assert err == (
            f"techsub: validation error: --output {report} and --plot {plot} "
            "name the same file\n"
        )
        if link == "hard":
            assert report.read_text() == "kept\n"
        else:
            assert not report.exists()

    def test_simulate_outputs_on_one_file_is_validation_failure(self, run_cli, tmp_path):
        params = tmp_path / "p.json"
        params.write_text(json.dumps({
            "victim": {"K": 100.0, "a": 5.0, "b": 0.5},
            "killer": {"K": 200.0, "a": 8.0, "b": 1.0},
            "years": {"first": 0, "last": 54},
        }))
        out_csv = tmp_path / "x.csv"
        out_csv.write_text("kept\n")
        code, out, err = run_cli(
            "simulate", params, "--killer-out", out_csv, "--victim-out", out_csv
        )
        assert (code, out) == (4, "")
        assert err == (
            f"techsub: validation error: --killer-out {out_csv} and --victim-out {out_csv} "
            "name the same file\n"
        )
        assert out_csv.read_text() == "kept\n"

    @pytest.mark.parametrize("option, role", [("--output", "victim"), ("--plot", "killer")])
    def test_fit_killer_output_on_an_input_is_validation_failure(
        self, run_cli, power_law_pair, option, role
    ):
        killer_csv, victim_csv = power_law_pair
        target = killer_csv if role == "killer" else victim_csv
        kept = target.read_bytes()
        code, out, err = run_cli("fit-killer", killer_csv, victim_csv, option, target)
        assert (code, out) == (4, "")
        assert err == (
            f"techsub: validation error: {option} {target} and input {target} name the same file\n"
        )
        assert target.read_bytes() == kept

    @pytest.mark.parametrize("spelling", ["same", "symbolic"])
    def test_fisher_pry_output_on_its_input_is_validation_failure(
        self, run_cli, tmp_path, spelling
    ):
        """The report would replace the shares it was fitted to, and the next
        run would fail to parse them."""
        shares = write_csv(tmp_path / "s.csv", [(1, 0.2), (2, 0.5), (3, 0.8)])
        kept = shares.read_bytes()
        output = shares
        if spelling == "symbolic":
            output = tmp_path / "link.json"
            output.symlink_to(shares)
        code, out, err = run_cli("fisher-pry", shares, "--no-timestamp", "--output", output)
        assert (code, out) == (4, "")
        assert err == (
            f"techsub: validation error: --output {output} and input {shares} name the same file\n"
        )
        assert shares.read_bytes() == kept
        assert run_cli("fisher-pry", shares, "--no-timestamp")[0] == 0

    def test_simulate_output_on_its_parameter_file_is_validation_failure(
        self, run_cli, tmp_path
    ):
        params = tmp_path / "p.json"
        params.write_text(json.dumps({
            "victim": {"K": 100.0, "a": 5.0, "b": 0.5},
            "killer": {"K": 200.0, "a": 8.0, "b": 1.0},
            "years": {"first": 0, "last": 54},
        }))
        kept = params.read_bytes()
        victim_csv = tmp_path / "v.csv"
        code, out, err = run_cli(
            "simulate", params, "--killer-out", params, "--victim-out", victim_csv
        )
        assert (code, out) == (4, "")
        assert err == (
            f"techsub: validation error: --killer-out {params} and input {params} "
            "name the same file\n"
        )
        assert params.read_bytes() == kept
        assert not victim_csv.exists()

    @pytest.mark.parametrize("target", ["m.json", "b.csv"])
    def test_waves_output_on_an_input_is_validation_failure(self, run_cli, tmp_path, target):
        """The manifest and every series file it lists are inputs."""
        manifest = constant_gap_manifest(tmp_path)
        output = tmp_path / target
        kept = output.read_bytes()
        code, out, err = run_cli("waves", manifest, "--output", output)
        assert (code, out) == (4, "")
        assert err == (
            f"techsub: validation error: --output {output} and input "
            f"{os.path.join(tmp_path, target)} name the same file\n"
        )
        assert output.read_bytes() == kept

    def test_fit_killer_plot_in_a_missing_directory_writes_no_report(
        self, run_cli, power_law_pair, tmp_path
    ):
        killer_csv, victim_csv = power_law_pair
        report = tmp_path / "r.json"
        code, out, err = run_cli(
            "fit-killer", killer_csv, victim_csv, "--output", report,
            "--plot", tmp_path / "nodir" / "p.svg",
        )
        assert (code, out) == (3, "")
        assert err.startswith("techsub: i/o error: ")
        assert not report.exists()

    def test_fisher_pry_plot_in_a_missing_directory_writes_no_report(self, run_cli, tmp_path):
        shares = write_csv(tmp_path / "s.csv", [(1, 0.2), (2, 0.5), (3, 0.8)])
        report = tmp_path / "r.json"
        code, out, err = run_cli(
            "fisher-pry", shares, "--output", report, "--plot", tmp_path / "nodir" / "p.svg"
        )
        assert (code, out) == (3, "")
        assert err.startswith("techsub: i/o error: ")
        assert not report.exists()

    def test_simulate_killer_out_in_a_missing_directory_writes_no_victim(
        self, run_cli, tmp_path
    ):
        params = tmp_path / "p.json"
        params.write_text(json.dumps({
            "victim": {"K": 100.0, "a": 5.0, "b": 0.5},
            "killer": {"K": 200.0, "a": 8.0, "b": 1.0},
            "years": {"first": 0, "last": 54},
        }))
        victim_csv = tmp_path / "v.csv"
        code, out, err = run_cli(
            "simulate", params, "--killer-out", tmp_path / "nodir" / "k.csv",
            "--victim-out", victim_csv,
        )
        assert (code, out) == (3, "")
        assert err.startswith("techsub: i/o error: ")
        assert not victim_csv.exists()

    def test_fit_killer_plot_on_a_directory_writes_no_report(
        self, run_cli, power_law_pair, tmp_path, monkeypatch
    ):
        """A directory is refused before the first write, with the text that
        writing to it would give."""
        killer_csv, victim_csv = power_law_pair
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        code, out, err = run_cli(
            "fit-killer", killer_csv, victim_csv, "--output", "r.json", "--plot", "adir"
        )
        assert (code, out) == (3, "")
        assert err == "techsub: i/o error: [Errno 21] Is a directory: 'adir'\n"
        assert not (tmp_path / "r.json").exists()

    def test_simulate_killer_out_on_a_directory_writes_no_victim(self, run_cli, tmp_path):
        params = tmp_path / "p.json"
        params.write_text(json.dumps({
            "victim": {"K": 100.0, "a": 5.0, "b": 0.5},
            "killer": {"K": 200.0, "a": 8.0, "b": 1.0},
            "years": {"first": 0, "last": 54},
        }))
        victim_csv = tmp_path / "v.csv"
        code, out, err = run_cli(
            "simulate", params, "--killer-out", tmp_path, "--victim-out", victim_csv
        )
        assert (code, out) == (3, "")
        assert err == f"techsub: i/o error: [Errno 21] Is a directory: '{tmp_path}'\n"
        assert not victim_csv.exists()

    @pytest.mark.parametrize("command", ["fisher-pry", "waves"])
    @pytest.mark.parametrize("spelling", ["directory", "symbolic link to one"])
    def test_output_on_a_directory_is_io_failure(self, run_cli, tmp_path, command, spelling):
        """Nothing is written, to stdout or to fisher-pry's --output before
        its --plot; a link counts as where it points."""
        target = tmp_path / "d"
        target.mkdir()
        if spelling != "directory":
            (tmp_path / "link").symlink_to(target)
            target = tmp_path / "link"
        report = tmp_path / "r.json"
        if command == "waves":
            argv = [constant_gap_manifest(tmp_path), "--output", target]
        else:
            shares = write_csv(tmp_path / "s.csv", [(1, 0.2), (2, 0.5), (3, 0.8)])
            argv = [shares, "--output", report, "--plot", target]
        code, out, err = run_cli(command, *argv)
        assert (code, out) == (3, "")
        assert err == f"techsub: i/o error: [Errno 21] Is a directory: '{target}'\n"
        assert not report.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit-killer", "k.csv", "v.csv", "--period", "abc"],
            ["fit-killer", "k.csv", "v.csv", "--period", "2010:2000"],
            ["fisher-pry", "s.csv", "--period", "abc"],
            ["fisher-pry", "s.csv", "--period", "2010:2000"],
            ["fit-killer", "k.csv", "v.csv", "--regime-tolerance", "abs:-1"],
            ["fit-killer", "k.csv", "v.csv", "--regime-tolerance", "abs:x"],
            ["fit-killer", "k.csv", "v.csv", "--regime-tolerance", "foo"],
            ["waves", "m.json", "--threshold", "abc"],
        ],
    )
    def test_bad_option_value_is_usage_error(self, run_cli, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2

    def test_series_that_is_not_utf8_is_parse_failure(self, run_cli, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"year,value\n1,1\n2,\xff\n")
        other = write_csv(tmp_path / "ok.csv", [(1, 1.0), (2, 2.0), (3, 3.0)])
        code, out, err = run_cli("fit-killer", bad, other)
        assert (code, out) == (3, "")
        assert err.startswith(f"techsub: parse error: {bad}: not valid UTF-8")

    @pytest.mark.parametrize("command", ["fit-killer", "fisher-pry"])
    def test_period_with_no_observation_is_validation_failure(
        self, run_cli, tmp_path, command
    ):
        """One rule, one message: the period 2004-2008 falls in the series'
        year gap, whatever the command."""
        shares = write_csv(
            tmp_path / "s.csv", [(y, 0.1 + 0.05 * i) for i, y in enumerate((2000, 2001, 2010))]
        )
        victim = write_csv(tmp_path / "v.csv", [(y, 1.0 + y) for y in range(2000, 2011)])
        inputs = [shares, victim] if command == "fit-killer" else [shares]
        code, out, err = run_cli(command, *inputs, "--period", "2004:2008")
        assert (code, out) == (4, "")
        assert err == (
            "techsub: validation error: period 2004-2008 does not overlap any "
            "observation of series 's'\n"
        )


class TestFisherPry:
    def test_exact_logistic_share_report_and_plot(self, run_cli, tmp_path):
        pts = [(t, 1.0 / (1.0 + math.exp(-(t - 5)))) for t in range(0, 11)]
        shares = write_csv(tmp_path / "shares.csv", pts)
        plot = tmp_path / "fp.svg"
        code, out, _ = run_cli("fisher-pry", shares, "--no-timestamp", "--plot", plot)
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["slope"] == pytest.approx(1.0, rel=1e-9)
        assert payload["t_half"] == pytest.approx(5.0, abs=1e-9)
        assert payload["r2"] == pytest.approx(1.0, abs=1e-12)
        assert len(svg_elements(plot, "circle")) == 11
        texts = [t.text for t in svg_elements(plot, "text")]
        assert any(t and t.startswith("t_half") for t in texts)

    def test_monotone_real_shaped_shares(self, run_cli, tmp_path):
        pts = [(2000, 0.03), (2001, 0.08), (2002, 0.21), (2003, 0.44), (2004, 0.71)]
        shares = write_csv(tmp_path / "shares.csv", pts)
        code, out, _ = run_cli("fisher-pry", shares, "--no-timestamp")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert math.isfinite(payload["slope"])
        assert payload["slope"] > 0

    @pytest.mark.parametrize(
        "rate, centre, years, narrative",
        [
            (1.0, 5, range(0, 11), "Fitted share odds double every 0.69 years; "
             "half-substitution at year 5.00."),
            (-0.3, 2000, range(1990, 2011), "Fitted share odds halve every 2.31 years; "
             "half-substitution at year 2000.00."),
        ],
        ids=["rising", "declining"],
    )
    def test_narrative_says_whether_the_odds_double_or_halve(
        self, run_cli, tmp_path, rate, centre, years, narrative
    ):
        pts = [(t, 1.0 / (1.0 + math.exp(-rate * (t - centre)))) for t in years]
        shares = write_csv(tmp_path / "shares.csv", pts)
        code, out, _ = run_cli("fisher-pry", shares, "--no-timestamp")
        assert code == 0
        assert json.loads(out)["narrative"] == narrative

    def test_period_restricts_the_series(self, run_cli, tmp_path):
        pts = [(t, 1.0 / (1.0 + math.exp(-(t - 5)))) for t in range(0, 11)]
        shares = write_csv(tmp_path / "shares.csv", pts)
        code, out, _ = run_cli(
            "fisher-pry", shares, "--no-timestamp", "--period", "2:8"
        )
        assert code == 0
        assert json.loads(out)["payload"]["n"] == 7


class TestWaves:
    def make_manifest(self, tmp_path, include_zero=False):
        write_csv(
            tmp_path / "a.csv",
            [(2000, 1.0), (2001, 3.0), (2002, 2.0), (2003, 1.0), (2004, 0.0)],
        )
        write_csv(tmp_path / "b.csv", [(2002, 0.5), (2003, 2.0), (2004, 4.0)])
        doc = {
            "dataset": "demo-waves",
            "series": [{"file": "a.csv", "name": "tech-a"}, {"file": "b.csv", "name": "tech-b"}],
        }
        if include_zero:
            write_csv(tmp_path / "z.csv", [(2000, 0.0), (2001, 0.0)])
            doc["series"].insert(0, {"file": "z.csv", "name": "tech-z"})
        return write_manifest(tmp_path / "m.json", doc)

    def test_basic_report(self, run_cli, tmp_path):
        manifest = self.make_manifest(tmp_path)
        code, out, _ = run_cli("waves", manifest, "--no-timestamp")
        assert code == 0
        payload = json.loads(out)["payload"]
        techs = {t["name"]: t for t in payload["technologies"]}
        assert techs["tech-a"]["end_year"] == 2003
        assert techs["tech-a"]["metrics"]["upwave_years"] == 1
        assert techs["tech-b"]["in_progress"] is True
        assert techs["tech-b"]["flag"] == "*"
        assert payload["summary"]["n_waves"] == 1
        assert payload["summary"]["n_excluded"] == 1
        assert payload["summary"]["upwave_years"]["sd"] is None
        takeover = payload["takeovers"][0]
        assert takeover["established"] == "tech-a"
        assert takeover["year"] == 2003
        assert takeover["established_share_pct"] == pytest.approx(100 / 3)

    def test_dead_series_warns_but_others_proceed(self, run_cli, tmp_path):
        manifest = self.make_manifest(tmp_path, include_zero=True)
        code, out, _ = run_cli("waves", manifest, "--no-timestamp")
        assert code == 0
        report = json.loads(out)
        assert any("never exceeds" in w for w in report["warnings"])
        assert len(report["payload"]["technologies"]) == 2

    def test_negative_level_warns_and_skips_the_series(self, run_cli, tmp_path):
        write_csv(tmp_path / "a.csv", [(2000, 1.0), (2001, 3.0), (2002, -1.0), (2003, 0.0)])
        write_csv(tmp_path / "b.csv", [(2000, 0.5), (2001, 0.5), (2002, 1.0), (2003, 2.0)])
        manifest = write_manifest(
            tmp_path / "m.json", {"series": [{"file": "a.csv"}, {"file": "b.csv"}]}
        )
        code, out, err = run_cli("waves", manifest, "--no-timestamp")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["warnings"] == ["a.csv: series 'a': negative level at year 2002"]
        assert [t["name"] for t in report["payload"]["technologies"]] == ["b"]
        assert report["payload"]["takeovers"] == []

    def test_pair_warnings_follow_series_warnings_and_null_the_takeover(self, run_cli, tmp_path):
        write_csv(tmp_path / "z.csv", [(1990, -1.0), (1991, 1.0)])
        write_csv(tmp_path / "a.csv", [(2000, 1.0), (2001, 3.0), (2002, 0.0)])
        write_csv(tmp_path / "b.csv", [(2005, 1.0), (2006, 2.0), (2007, 4.0)])
        manifest = write_manifest(
            tmp_path / "m.json", {"series": [{"file": f} for f in ("z.csv", "a.csv", "b.csv")]}
        )
        code, out, err = run_cli("waves", manifest, "--no-timestamp")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["warnings"] == [
            "z.csv: series 'z': negative level at year 1990",
            "series 'b' and 'a' share no years",
        ]
        assert report["payload"]["takeovers"] == [{
            "established": "a", "challenger": "b", "year": None, "challenger_value": None,
            "established_value": None, "established_share_pct": None,
        }]
        gaps = report["payload"]["intro_gaps"]
        assert gaps["points"] == [{"gap_years": 5, "disruption_years": 0}]

    def test_single_technology(self, run_cli, tmp_path):
        write_csv(tmp_path / "only.csv", [(2000, 1.0), (2001, 2.0), (2002, 0.0)])
        manifest = write_manifest(
            tmp_path / "m.json",
            {"dataset": "solo", "series": [{"file": "only.csv"}]},
        )
        code, out, _ = run_cli("waves", manifest, "--no-timestamp")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["takeovers"] == []
        assert payload["intro_gaps"]["points"] == []
        assert payload["summary"]["cycle_years"]["sd"] is None

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_is_usage_error(self, run_cli, capsys, tmp_path, value):
        manifest = constant_gap_manifest(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli("waves", manifest, f"--threshold={value}")
        assert exc.value.code == 2
        assert f"threshold must be finite, got {value}" in capsys.readouterr().err

    def test_threshold_flag(self, run_cli, tmp_path):
        write_csv(
            tmp_path / "t.csv",
            [(2000, 0.5), (2001, 5.0), (2002, 8.0), (2003, 2.0), (2004, 0.8)],
        )
        manifest = write_manifest(
            tmp_path / "m.json", {"dataset": "th", "series": [{"file": "t.csv"}]}
        )
        code, out, _ = run_cli("waves", manifest, "--no-timestamp", "--threshold", "1.0")
        assert code == 0
        tech = json.loads(out)["payload"]["technologies"][0]
        assert tech["begin_year"] == 2001
        assert tech["end_year"] == 2003

    def test_constant_gaps_give_null_spearman_and_quiet_stderr(self, tmp_path):
        manifest = constant_gap_manifest(tmp_path)
        done = run_python("-m", "techsub.cli", "waves", manifest, "--no-timestamp")
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        gaps = json.loads(done.stdout)["payload"]["intro_gaps"]
        assert [p["gap_years"] for p in gaps["points"]] == [2, 2]
        assert gaps["spearman"] is None

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"dataset": ' + b"7" * 5000 + b"}", "invalid JSON"),
            (b'{"dataset": "\xff"}', "not valid UTF-8"),
            (b'{"series": 5}', "'series' must be a list"),
            (b'{"series": null}', "'series' must be a list"),
            (b'{"period": {"first": true, "last": 2000}}', "period first must be an integer"),
            (b'{"series": [{"file": "a.csv", "name": 5}]}', "'name' must be a string"),
            (b'{"dataset": ["x"]}', "'dataset' must be a string"),
        ],
    )
    def test_unreadable_manifest_is_parse_failure(
        self, run_cli, tmp_path, content, message
    ):
        manifest = tmp_path / "m.json"
        manifest.write_bytes(content)
        code, out, err = run_cli("waves", manifest)
        assert code == 3
        assert err.startswith("techsub: parse error: ") and message in err
        assert out == ""

    def test_series_entry_that_is_not_an_object_names_the_manifest(self, run_cli, tmp_path):
        manifest = write_manifest(tmp_path / "m.json", {"series": [5]})
        code, out, err = run_cli("waves", manifest)
        assert (code, out) == (3, "")
        assert err == (
            f"techsub: parse error: {manifest}: manifest series entry must be an object with a "
            "'file' key\n"
        )

    def test_deeply_nested_manifest_is_parse_failure(self, run_cli, tmp_path):
        """Nesting too deep for json.loads is a parse failure, not a traceback."""
        manifest = tmp_path / "m.json"
        manifest.write_text("[" * 200_000)
        code, out, err = run_cli("waves", manifest)
        assert (code, out) == (3, "")
        assert err.startswith(
            f"techsub: parse error: {manifest}: invalid JSON (maximum recursion depth exceeded"
        )

    def test_manifest_without_series_is_validation_failure(self, run_cli, tmp_path):
        manifest = write_manifest(tmp_path / "m.json", {"dataset": "empty"})
        code, _, err = run_cli("waves", manifest)
        assert code == 4
        assert "no series" in err

    def test_series_file_that_cannot_be_opened_is_io_failure(self, run_cli, tmp_path):
        """A series file that is not there fails the run, as a missing input
        does in every command; only a file whose contents are bad is a
        per-series warning."""
        self.make_manifest(tmp_path)
        (tmp_path / "b.csv").unlink()
        report = tmp_path / "r.json"
        code, out, err = run_cli("waves", tmp_path / "m.json", "--output", report)
        assert (code, out) == (3, "")
        assert err.startswith("techsub: i/o error: ") and "b.csv" in err
        assert not report.exists()

    def test_no_analyzable_series_names_each_reason(self, run_cli, tmp_path):
        write_csv(tmp_path / "z.csv", [(2000, 0.0), (2001, 0.0)])
        manifest = write_manifest(tmp_path / "m.json", {"series": [{"file": "z.csv"}]})
        code, out, err = run_cli("waves", manifest)
        assert (code, out) == (4, "")
        assert err == (
            f"techsub: validation error: {manifest}: no series could be analyzed: "
            "z.csv: series 'z' never exceeds threshold 0.0\n"
        )

    def test_period_in_a_year_gap_warns_that_it_does_not_overlap(self, run_cli, tmp_path):
        write_csv(tmp_path / "a.csv", [(2000, 1.0), (2001, 2.0), (2010, 0.0)])
        write_csv(tmp_path / "b.csv", [(y, float(y - 2003)) for y in range(2003, 2010)])
        manifest = write_manifest(tmp_path / "m.json", {
            "series": [{"file": "a.csv"}, {"file": "b.csv"}],
            "period": {"first": 2004, "last": 2008},
        })
        code, out, err = run_cli("waves", manifest, "--no-timestamp")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["warnings"] == [
            "a.csv: period 2004-2008 does not overlap any observation of series 'a'"
        ]
        assert [t["name"] for t in report["payload"]["technologies"]] == ["b"]


class TestSimulate:
    def params_file(self, tmp_path, **overrides):
        doc = {
            "victim": {"K": 100.0, "a": 5.0, "b": 0.5},
            "killer": {"K": 200.0, "a": 8.0, "b": 1.0},
            "years": {"first": 0, "last": 30},
        }
        doc.update(overrides)
        path = tmp_path / "params.json"
        path.write_text(json.dumps(doc))
        return path

    def test_writes_both_series(self, run_cli, tmp_path):
        from techsub.ingest import read_series

        params = self.params_file(tmp_path)
        kout, vout = tmp_path / "k.csv", tmp_path / "v.csv"
        code, out, _ = run_cli(
            "simulate", params, "--killer-out", kout, "--victim-out", vout
        )
        assert code == 0
        killer = read_series(kout)
        victim = read_series(vout)
        assert len(killer) == 31 and len(victim) == 31
        assert victim.values[10] == pytest.approx(100.0 / 2.0)  # inflection at a/b

    def test_noise_free_runs_are_byte_identical(self, run_cli, tmp_path):
        params = self.params_file(tmp_path)
        contents = []
        for i in (1, 2):
            kout, vout = tmp_path / f"k{i}.csv", tmp_path / f"v{i}.csv"
            run_cli("simulate", params, "--killer-out", kout, "--victim-out", vout)
            contents.append(kout.read_bytes() + vout.read_bytes())
        assert contents[0] == contents[1]

    def test_seeded_noise_is_deterministic_and_positive(self, run_cli, tmp_path):
        from techsub.ingest import read_series

        params = self.params_file(tmp_path, noise_sigma=0.05, seed=42)
        contents = []
        for i in (1, 2):
            kout, vout = tmp_path / f"k{i}.csv", tmp_path / f"v{i}.csv"
            run_cli("simulate", params, "--killer-out", kout, "--victim-out", vout)
            contents.append(kout.read_bytes() + vout.read_bytes())
        assert contents[0] == contents[1]
        assert all(v > 0 for v in read_series(tmp_path / "k1.csv").values)

    def test_simulated_pair_recovers_exponent_end_to_end(self, run_cli, tmp_path):
        params = self.params_file(tmp_path)
        kout, vout = tmp_path / "k.csv", tmp_path / "v.csv"
        run_cli("simulate", params, "--killer-out", kout, "--victim-out", vout)
        code, out, _ = run_cli(
            "fit-killer", kout, vout, "--no-timestamp", "--period", "0:5"
        )
        assert code == 0
        assert json.loads(out)["payload"]["beta"] == pytest.approx(2.0, rel=0.05)

    def test_empty_year_range_is_validation_failure(self, run_cli, tmp_path):
        params = self.params_file(tmp_path, years={"first": 5, "last": 2})
        code, _, err = run_cli(
            "simulate", params, "--killer-out", tmp_path / "k.csv",
            "--victim-out", tmp_path / "v.csv",
        )
        assert code == 4
        assert "empty year range" in err

    def test_missing_section_is_parse_failure(self, run_cli, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"victim": {"K": 1, "a": 0, "b": 1}}))
        code, _, _ = run_cli(
            "simulate", path, "--killer-out", tmp_path / "k.csv",
            "--victim-out", tmp_path / "v.csv",
        )
        assert code == 3

    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    @pytest.mark.parametrize(
        "overrides, code, message",
        [
            ({"seed": -1}, 4, "seed must be >= 0"),
            ({"seed": "x"}, 3, "seed must be an integer"),
            ({"seed": 1.5}, 3, "seed must be an integer"),
            ({"seed": True}, 3, "seed must be an integer"),
            ({"seed": None}, 3, "seed must be an integer"),
        ],
    )
    def test_bad_seed_rejected_whatever_the_noise(
        self, run_cli, tmp_path, sigma, overrides, code, message
    ):
        params = self.params_file(tmp_path, noise_sigma=sigma, **overrides)
        got, _, err = run_cli(
            "simulate", params, "--killer-out", tmp_path / "k.csv",
            "--victim-out", tmp_path / "v.csv",
        )
        assert got == code
        assert message in err
        assert not (tmp_path / "k.csv").exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"victim": {"K": "x", "a": 5.0, "b": 0.5}}, "victim K must be a number"),
            ({"victim": {"K": "100", "a": 5.0, "b": 0.5}}, "victim K must be a number"),
            ({"killer": {"K": 200.0, "a": None, "b": 1.0}}, "killer a must be a number"),
            ({"killer": {"K": 200.0, "a": 8.0, "b": True}}, "killer b must be a number"),
            ({"killer": {"K": 10**400, "a": 8.0, "b": 1.0}}, "killer K is too large"),
            ({"years": {"first": "x", "last": 30}}, "years first must be an integer"),
            ({"years": {"first": 0, "last": [30]}}, "years last must be an integer"),
            ({"years": {"first": 1990.7, "last": 2000}}, "years first must be an integer"),
            ({"victim": "logistic"}, "victim parameters must be an object"),
            ({"killer": [200.0, 8.0, 1.0]}, "killer parameters must be an object"),
        ],
    )
    def test_non_numeric_params_are_parse_failures(
        self, run_cli, tmp_path, overrides, message
    ):
        params = self.params_file(tmp_path, **overrides)
        got, _, err = run_cli(
            "simulate", params, "--killer-out", tmp_path / "k.csv",
            "--victim-out", tmp_path / "v.csv",
        )
        assert got == 3
        assert err.startswith("techsub: parse error: ") and message in err
        assert not (tmp_path / "k.csv").exists()

    def test_series_parameters_that_are_not_an_object_name_the_file(self, run_cli, tmp_path):
        params = self.params_file(tmp_path, victim=5)
        k_csv, v_csv = tmp_path / "k.csv", tmp_path / "v.csv"
        code, out, err = run_cli("simulate", params, "--killer-out", k_csv, "--victim-out", v_csv)
        assert (code, out) == (3, "")
        assert err == f"techsub: parse error: {params}: victim parameters must be an object, got 5\n"
        assert not k_csv.exists() and not v_csv.exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"victim": {"K": 100.0, "a": 5.0, "b": 0.5, "name": 5}}, "victim name must be a string"),
            ({"killer": {"K": 200.0, "a": 8.0, "b": 1.0, "name": ["x"]}}, "killer name must be a string"),
            ({"killer": {"K": 200.0, "a": 8.0, "b": 1.0, "name": None}}, "killer name must be a string"),
            ({"victim": {"K": 100.0, "a": 5.0, "b": 0.5, "unit": 1.5}}, "victim unit must be a string"),
        ],
    )
    def test_non_string_name_or_unit_is_parse_failure(
        self, run_cli, tmp_path, overrides, message
    ):
        params = self.params_file(tmp_path, **overrides)
        got, _, err = run_cli(
            "simulate", params, "--killer-out", tmp_path / "k.csv",
            "--victim-out", tmp_path / "v.csv",
        )
        assert got == 3
        assert err.startswith("techsub: parse error: ") and message in err
        assert not (tmp_path / "k.csv").exists()

    @pytest.mark.parametrize("root", ["5", "\"victim killer years\"", "null"])
    def test_non_object_root_is_parse_failure(self, run_cli, tmp_path, root):
        params = tmp_path / "params.json"
        params.write_text(root)
        got, _, err = run_cli(
            "simulate", params, "--killer-out", tmp_path / "k.csv",
            "--victim-out", tmp_path / "v.csv",
        )
        assert got == 3
        assert "root must be an object" in err

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"victim": {}, "killer": {}, "years": {}, "seed": ' + b"7" * 5000 + b"}",
             "invalid JSON"),
            (b'{"victim": {"name": "\xff"}, "killer": {}, "years": {}}', "not valid UTF-8"),
        ],
    )
    def test_unreadable_params_are_parse_failures(self, run_cli, tmp_path, content, message):
        params = tmp_path / "params.json"
        params.write_bytes(content)
        got, _, err = run_cli(
            "simulate", params, "--killer-out", tmp_path / "k.csv",
            "--victim-out", tmp_path / "v.csv",
        )
        assert got == 3
        assert err.startswith(f"techsub: parse error: {params}: {message} (")
        assert not (tmp_path / "k.csv").exists()

    @pytest.mark.parametrize(
        "sigma, code, message",
        [
            ("x", 3, "noise_sigma must be a number"),
            ([0.1], 3, "noise_sigma must be a number"),
            (-0.1, 4, "noise_sigma must be finite and >= 0"),
            (math.inf, 4, "noise_sigma must be finite and >= 0"),
            (math.nan, 4, "noise_sigma must be finite and >= 0"),
        ],
    )
    def test_bad_noise_sigma_rejected(self, run_cli, tmp_path, sigma, code, message):
        params = self.params_file(tmp_path, noise_sigma=sigma)
        got, _, err = run_cli(
            "simulate", params, "--killer-out", tmp_path / "k.csv",
            "--victim-out", tmp_path / "v.csv",
        )
        assert got == code
        assert message in err

    def test_overflowing_noise_factor_is_validation_failure_without_traceback(self, tmp_path):
        # exp(1000 * z) overflows for the first draw z above 0.71
        params = self.params_file(tmp_path, noise_sigma=1000.0, seed=1)
        done = run_python(
            "-m", "techsub.cli", "simulate", params, "--killer-out", tmp_path / "k.csv",
            "--victim-out", tmp_path / "v.csv",
        )
        assert done.returncode == 4
        assert done.stderr == (
            "techsub: validation error: noise_sigma 1000.0 draws a noise factor past the float "
            "range\n"
        )
        assert not (tmp_path / "v.csv").exists() and not (tmp_path / "k.csv").exists()

    def test_infinite_noise_factor_names_noise_sigma(self, run_cli, tmp_path):
        """noise_sigma * z overflows to inf for seed 2's first draw, and
        exp(inf) is inf rather than an OverflowError."""
        params = self.params_file(
            tmp_path, years={"first": 0, "last": 0}, noise_sigma=1e308, seed=2
        )
        k_csv, v_csv = tmp_path / "k.csv", tmp_path / "v.csv"
        code, out, err = run_cli("simulate", params, "--killer-out", k_csv, "--victim-out", v_csv)
        assert (code, out) == (4, "")
        assert err == (
            "techsub: validation error: noise_sigma 1e+308 draws a noise factor past the float "
            "range\n"
        )
        assert not k_csv.exists() and not v_csv.exists()

    @pytest.mark.parametrize("seed", [5, 6])
    def test_underflowing_noise_factor_names_noise_sigma(self, run_cli, tmp_path, seed):
        """exp(1000 * z) is 0.0 for the victim's draw at seed 5 and the
        killer's at seed 6; a logistic level is never 0."""
        params = self.params_file(
            tmp_path, years={"first": 0, "last": 0}, noise_sigma=1000, seed=seed
        )
        k_csv, v_csv = tmp_path / "k.csv", tmp_path / "v.csv"
        code, out, err = run_cli("simulate", params, "--killer-out", k_csv, "--victim-out", v_csv)
        assert (code, out) == (4, "")
        assert err == (
            "techsub: validation error: noise_sigma 1000.0 draws a noise factor past the float "
            "range\n"
        )
        assert not k_csv.exists() and not v_csv.exists()

    def test_underflowing_curve_names_the_series_and_year(self, run_cli, tmp_path):
        params = self.params_file(tmp_path, victim={"K": 1e-300, "a": 100, "b": 1},
                                  years={"first": 0, "last": 1})
        k_csv, v_csv = tmp_path / "k.csv", tmp_path / "v.csv"
        code, out, err = run_cli("simulate", params, "--killer-out", k_csv, "--victim-out", v_csv)
        assert (code, out) == (4, "")
        assert err == (
            "techsub: validation error: series 'victim': simulated level underflows to 0.0 at "
            "year 0\n"
        )
        assert not k_csv.exists() and not v_csv.exists()

    def test_deeply_nested_params_are_parse_failure(self, run_cli, tmp_path):
        params = tmp_path / "params.json"
        params.write_text("[" * 200_000)
        k_csv = tmp_path / "k.csv"
        code, out, err = run_cli(
            "simulate", params, "--killer-out", k_csv, "--victim-out", tmp_path / "v.csv"
        )
        assert (code, out) == (3, "")
        assert err.startswith(
            f"techsub: parse error: {params}: invalid JSON (maximum recursion depth exceeded"
        )
        assert not k_csv.exists()

    def test_invalid_params_rejected(self, run_cli, tmp_path):
        params = self.params_file(tmp_path, killer={"K": -5.0, "a": 0.0, "b": 1.0})
        code, _, err = run_cli(
            "simulate", params, "--killer-out", tmp_path / "k.csv",
            "--victim-out", tmp_path / "v.csv",
        )
        assert code == 4
        assert "carrying capacity" in err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"killer": {"a": 8.0, "b": 1.0}}, "killer parameters missing key 'K'"),
            ({"years": [0, 30]}, "'years' must hold integer 'first' and 'last'"),
        ],
    )
    def test_missing_capacity_or_non_object_years_is_parse_failure(
        self, run_cli, tmp_path, overrides, message
    ):
        params = self.params_file(tmp_path, **overrides)
        got, _, err = run_cli(
            "simulate", params, "--killer-out", tmp_path / "k.csv",
            "--victim-out", tmp_path / "v.csv",
        )
        assert got == 3
        assert err.startswith("techsub: parse error: ") and message in err
        assert not (tmp_path / "v.csv").exists()

    def test_level_past_the_range_of_exp_is_written_positive(self, run_cli, tmp_path):
        """At year 0, a - b*t = 705: the level is K*exp(-705), about 6.6e-297,
        not 0, so fit-killer keeps the year."""
        params = self.params_file(
            tmp_path, killer={"K": 1e10, "a": 705.0, "b": 1.0}, years={"first": 0, "last": 5}
        )
        kout, vout = tmp_path / "k.csv", tmp_path / "v.csv"
        assert run_cli("simulate", params, "--killer-out", kout, "--victim-out", vout)[0] == 0
        assert kout.read_text().splitlines()[2] == "0,6.643397797997952e-297"
        code, out, _ = run_cli("fit-killer", kout, vout, "--no-timestamp")
        assert code == 0
        assert json.loads(out)["payload"]["n_dropped"] == 0


class TestInputsReadOnce:
    """Each command opens each input it reads once, and a report lists the
    digest of the bytes that were parsed."""

    def cases(self, tmp_path):
        """Each command's arguments and the files it reads, first the one
        its report lists first."""
        killer = write_csv(tmp_path / "k.csv", [(y, 2.0 * y**3) for y in range(1, 11)])
        victim = write_csv(tmp_path / "v.csv", [(y, float(y)) for y in range(1, 11)])
        shares = write_csv(tmp_path / "s.csv", [(y, y / 10.0) for y in range(1, 10)])
        manifest = constant_gap_manifest(tmp_path)
        params = tmp_path / "p.json"
        params.write_text(json.dumps({
            "victim": {"K": 100.0, "a": 5.0, "b": 0.5},
            "killer": {"K": 200.0, "a": 8.0, "b": 1.0},
            "years": {"first": 0, "last": 30},
        }))
        return {
            "fit-killer": (["fit-killer", killer, victim], [killer, victim]),
            "fisher-pry": (["fisher-pry", shares], [shares]),
            "waves": (["waves", manifest], [manifest, *(tmp_path / f"{t}.csv" for t in "abc")]),
            "simulate": (
                ["simulate", params, "--killer-out", tmp_path / "ko.csv",
                 "--victim-out", tmp_path / "vo.csv"],
                [params],
            ),
        }

    @pytest.mark.parametrize("command", ["fit-killer", "fisher-pry", "waves", "simulate"])
    def test_each_input_is_opened_once(self, run_cli, tmp_path, monkeypatch, command):
        argv, inputs = self.cases(tmp_path)[command]
        real, reads = builtins.open, []

        def counting_open(file, mode="r", *args, **kwargs):
            if not set(mode) & set("wax+"):
                reads.append(str(file))
            return real(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        assert run_cli(*argv)[0] == 0
        assert sorted(reads) == sorted(map(str, inputs))

    @pytest.mark.parametrize("command", ["fit-killer", "fisher-pry", "waves"])
    def test_report_digests_the_bytes_parsed(self, run_cli, tmp_path, monkeypatch, command):
        """The first input is rewritten after it is parsed, when a series
        is first restricted to the period (None here), and before the report
        is built."""
        argv, inputs = self.cases(tmp_path)[command]
        parsed = inputs[0].read_bytes()
        restrict = TimeSeries.restrict

        def rewrite_then_restrict(series, bounds):
            inputs[0].write_bytes(parsed + b"# rewritten\n")
            return restrict(series, bounds)

        monkeypatch.setattr(TimeSeries, "restrict", rewrite_then_restrict)
        code, out, _ = run_cli(*argv, "--no-timestamp")
        assert code == 0
        assert inputs[0].read_bytes() != parsed
        digests = [entry["sha256"] for entry in json.loads(out)["inputs"]]
        assert digests[0] == hashlib.sha256(parsed).hexdigest()


class TestImportBoundary:
    """No command loads numpy or scipy, simulate with noise included. The
    records, the CLI, the SVG escaping, the t test of B = 1, the exact
    regression and wave sums and the report timestamp load none of the
    stdlib modules in HEAVY (added to what the interpreter loaded at
    start-up), in any command; digests use CPython's built-in SHA-256, so
    no command loads hashlib or OpenSSL's _hashlib. Without site (python
    -S), no command loads pathlib or typing either."""

    HEAVY = (
        "dataclasses", "inspect", "statistics", "fractions", "decimal", "html", "datetime"
    )
    SCRIPT = textwrap.dedent(
        """
        import json, sys
        before = set(sys.modules)
        def loaded():
            new = set(sys.modules) - before
            return {
                "estimation": "techsub.estimation" in sys.modules,
                "numpy": "numpy" in sys.modules,
                "scipy": any(m.split(".")[0] == "scipy" for m in sys.modules),
                "heavy": sorted(m for m in new if m.split(".")[0] in HEAVY),
                "pathlib": "pathlib" in sys.modules,
                "hashlib": sorted(m for m in new if m in ("hashlib", "_hashlib")),
                "sha": sorted(m for m in new if m in ("_sha2", "_sha256")),
                "typing": "typing" in sys.modules,
            }
        from techsub.cli import main
        stages = [loaded()]
        params, noisy, manifest, k, v, shares = sys.argv[1:]
        assert main(["simulate", noisy, "--killer-out", k, "--victim-out", v]) == 0
        stages.append(loaded())
        assert main(["simulate", params, "--killer-out", k, "--victim-out", v]) == 0
        stages.append(loaded())
        assert main(["fit-killer", k, v, "--regime-tolerance", "abs:0.1", "--no-timestamp"]) == 0
        stages.append(loaded())
        assert main(["fisher-pry", shares]) == 0
        stages.append(loaded())
        assert main(["fit-killer", k, v, "--no-timestamp"]) == 0
        stages.append(loaded())
        assert main(["waves", manifest]) == 0
        stages.append(loaded())
        print(json.dumps(stages))
        """
    )

    def probe(self, tmp_path, *flags):
        """What was loaded after the import and after each command, from a
        fresh interpreter started with flags."""
        doc = {
            "victim": {"K": 100.0, "a": 5.0, "b": 0.5},
            "killer": {"K": 200.0, "a": 8.0, "b": 1.0},
            "years": {"first": 0, "last": 30},
            "noise_sigma": 0.0,
        }
        params = tmp_path / "params.json"
        params.write_text(json.dumps(doc))
        noisy = tmp_path / "noisy.json"
        noisy.write_text(json.dumps({**doc, "noise_sigma": 0.05, "seed": 7}))
        shares = write_csv(
            tmp_path / "shares.csv",
            [(t, 1.0 / (1.0 + math.exp(-0.4 * (t - 10) + 0.1 * math.sin(t)))) for t in range(21)],
        )
        script = tmp_path / "probe.py"
        script.write_text(f"HEAVY = {self.HEAVY!r}\n" + self.SCRIPT)
        done = run_python(
            *flags, script, params, noisy, constant_gap_manifest(tmp_path), tmp_path / "k.csv",
            tmp_path / "v.csv", shares,
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    def test_modules_loaded_per_command(self, tmp_path):
        stages = self.probe(tmp_path)
        assert stages[0]["estimation"]
        # import, noisy simulate, noise-free simulate, fit-killer with a
        # fixed band, fisher-pry, fit-killer with the default t test, waves
        assert len(stages) == 7
        for loaded in stages:
            assert not loaded["numpy"] and not loaded["scipy"]
            assert loaded["heavy"] == []
        assert [loaded["hashlib"] for loaded in stages] == [[]] * 7
        # simulate builds no report, so neither run loads a SHA-256 module
        # beyond what random, which noise loads, brings for its own sha512
        # (_sha2 on 3.12); the first report loads the built-in one
        done = run_python("-c", (
            "import json, sys; before = set(sys.modules); import random; "
            "print(json.dumps(sorted((set(sys.modules) - before) & {'_sha2', '_sha256'})))"
        ))
        from_random = json.loads(done.stdout)
        built_in = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
        assert [loaded["sha"] for loaded in stages[1:4]] == [
            from_random, from_random, from_random or [built_in]
        ]

    def test_no_command_loads_pathlib_without_site(self, tmp_path):
        """Under -S no .pth file runs, so what is loaded is the package's
        own doing: files are read and written through open()."""
        stages = self.probe(tmp_path, "-S")
        assert len(stages) == 7
        assert [loaded["pathlib"] for loaded in stages] == [False] * 7

    def test_no_command_loads_typing_without_site(self, tmp_path):
        """The records are collections.namedtuple subclasses, so under -S
        nothing loads typing; nor does a digest load hashlib."""
        stages = self.probe(tmp_path, "-S")
        assert len(stages) == 7
        assert [loaded["typing"] for loaded in stages] == [False] * 7
        assert [loaded["hashlib"] for loaded in stages] == [[]] * 7

    def test_cli_import_leaves_out_the_network_stack(self):
        done = run_python(
            "-c",
            "import sys, techsub.cli; "
            "print([m for m in ('xml.sax', 'http.client') if m in sys.modules])",
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestParsers:
    """main builds only the named command's parser, once per process; it
    must parse and print help exactly as that command's subparser in the
    full parser."""

    VALID = [
        ["fit-killer", "k.csv", "v.csv"],
        ["fit-killer", "k.csv", "v.csv", "--period", "2000:2010", "--plot", "p.svg",
         "--regime-tolerance", "abs:0.1", "--no-timestamp", "--output", "r.json"],
        ["fisher-pry", "s.csv"],
        ["fisher-pry", "s.csv", "--period", "1:5", "--plot", "p.svg", "--no-timestamp"],
        ["waves", "m.json"],
        ["waves", "m.json", "--threshold", "2.5", "--output", "r.json"],
        ["simulate", "p.json", "--killer-out", "k.csv", "--victim-out", "v.csv"],
    ]

    def test_each_parser_is_built_once(self):
        from techsub.cli import COMMANDS, build_parser

        for name in [*COMMANDS, None]:
            assert build_parser(name) is build_parser(name)
        assert build_parser() is build_parser(None)

    def test_shared_parser_carries_nothing_between_calls(self, run_cli, tmp_path):
        """A usage error, then a run with a period and a fixed band, leave
        nothing behind: the next plain run reports what a fresh interpreter
        does."""
        years = range(2000, 2010)
        victim = write_csv(tmp_path / "v.csv", [(y, float(y - 1999)) for y in years])
        killer = write_csv(
            tmp_path / "k.csv", [(y, math.exp(2.0) * (y - 1999) ** 1.05) for y in years]
        )
        with pytest.raises(SystemExit) as exc:
            run_cli("fit-killer", "--bogus")
        assert exc.value.code == 2
        code, out, _ = run_cli(
            "fit-killer", killer, victim, "--period", "2003:2007",
            "--regime-tolerance", "abs:0.1", "--no-timestamp",
        )
        assert code == 0
        payload = json.loads(out)["payload"]
        assert (payload["n"], payload["regime"]) == (5, "proportional-growth")
        code, out, _ = run_cli("fit-killer", killer, victim, "--no-timestamp")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert (payload["n"], payload["regime"]) == (10, "development")
        fresh = run_python("-m", "techsub.cli", "fit-killer", killer, victim, "--no-timestamp")
        assert fresh.returncode == 0, fresh.stderr
        assert out == fresh.stdout

    def test_command_help_matches_the_full_parser(self):
        from techsub.cli import COMMANDS, build_parser

        full = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ).choices
        assert list(full) == list(COMMANDS)
        for name in COMMANDS:
            assert build_parser(name).format_help() == full[name].format_help()

    @pytest.mark.parametrize("argv", VALID)
    def test_namespace_matches_the_full_parser(self, argv):
        from techsub.cli import build_parser

        full = vars(build_parser().parse_args(argv))
        assert full.pop("command") == argv[0]
        assert vars(build_parser(argv[0]).parse_args(argv[1:])) == full

    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_top_level_help_lists_every_command(self, run_cli, capsys, flag):
        from techsub.cli import COMMANDS

        with pytest.raises(SystemExit) as exc:
            run_cli(flag)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: techsub [-h] [--version]")
        words = " ".join(out.split())  # help lines wrap to the terminal width
        for name, help_line in COMMANDS.items():
            assert f"{name} {help_line}" in words

    def test_version(self, run_cli, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"techsub {techsub.__version__}\n"

    def test_no_command_is_usage_error(self, run_cli, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli()
        assert exc.value.code == 2
        assert "the following arguments are required: command" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self, run_cli, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("fit-killers", "k.csv", "v.csv")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: techsub [-h] [--version]")
        assert "invalid choice: 'fit-killers'" in err

    def test_unrecognized_argument_shows_the_command_usage(self, power_law_pair):
        killer_csv, victim_csv = power_law_pair
        done = run_python("-m", "techsub.cli", "fit-killer", killer_csv, victim_csv, "--bogus")
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("usage: techsub fit-killer [-h]")
        assert done.stderr.endswith(
            "techsub fit-killer: error: unrecognized arguments: --bogus\n"
        )
        assert "Traceback" not in done.stderr
