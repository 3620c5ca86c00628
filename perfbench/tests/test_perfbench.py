"""Tests of the benchmark itself: its oracle rejects wrong outputs, its
tail percentile is the one it claims, its inputs follow the seed, and
its tracer splits time the way it says.

    python3 -m pytest -q perfbench/tests
"""

import copy
import hashlib
import json
import random
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import inputs  # noqa: E402
import metrics  # noqa: E402
import oracle  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from techsub.cli import main as techsub_main  # noqa: E402


@pytest.fixture
def fit_killer_output(tmp_path):
    case = inputs.killer_case(random.Random(7), tmp_path, "fk")
    report, svg = tmp_path / "report.json", tmp_path / "plot.svg"
    code = techsub_main(["fit-killer", str(case.killer_csv), str(case.victim_csv),
                         "--plot", str(svg), "--output", str(report)])
    assert code == 0
    return case, oracle.load_report(report), svg.read_text(encoding="utf-8")


def test_fit_killer_output_passes_as_produced(fit_killer_output):
    case, report, svg = fit_killer_output
    assert oracle.check_fit_killer(case, "ttest", report, svg) == []


def test_perturbed_beta_fails(fit_killer_output):
    case, report, svg = fit_killer_output
    bad = copy.deepcopy(report)
    bad["payload"]["beta"] += 1e-6
    assert any("beta" in p for p in oracle.check_fit_killer(case, "ttest", bad, svg))


@pytest.mark.parametrize("name", ["se_alpha", "se_beta", "f_stat", "p_value_beta",
                                  "p_value_f"])
def test_perturbed_statistic_fails(fit_killer_output, name):
    case, report, svg = fit_killer_output
    bad = copy.deepcopy(report)
    bad["payload"][name] *= 1.0 + 1e-5
    assert any(p.startswith(name) for p in oracle.check_fit_killer(case, "ttest", bad, svg))


def test_wrong_regime_label_fails(fit_killer_output):
    case, report, svg = fit_killer_output
    for label in ("development", "proportional-growth", "under-development"):
        if label == report["payload"]["regime"]:
            continue
        bad = copy.deepcopy(report)
        bad["payload"]["regime"] = label
        assert any("regime" in p for p in oracle.check_fit_killer(case, "ttest", bad, svg))


def test_missing_svg_circle_fails(fit_killer_output):
    case, report, svg = fit_killer_output
    head, _, tail = svg.partition("<circle ")
    bad_svg = head + tail.split("\n", 1)[1]
    assert oracle.svg_circles(bad_svg) == oracle.svg_circles(svg) - 1
    assert any("circles" in p for p in oracle.check_fit_killer(case, "ttest", report, bad_svg))


def test_wrong_t_half_anchor_and_intro_gaps_fail(tmp_path):
    rng = random.Random(3)
    shares = inputs.shares_case(rng, tmp_path, "fp")
    report, svg = tmp_path / "fp.json", tmp_path / "fp.svg"
    assert techsub_main(["fisher-pry", str(shares.shares_csv), "--plot", str(svg),
                         "--output", str(report)]) == 0
    doc = oracle.load_report(report)
    assert oracle.check_fisher_pry(shares, doc, svg.read_text()) == []
    doc["payload"]["t_half"] += 2e-6
    assert oracle.check_fisher_pry(shares, doc, svg.read_text())

    waves = inputs.waves_case(rng, tmp_path, "wv")
    out = tmp_path / "wv.json"
    assert techsub_main(["waves", str(waves.manifest), "--output", str(out)]) == 0
    doc = oracle.load_report(out)
    assert oracle.check_waves(waves, doc) == []
    assert doc["payload"]["intro_gaps"]["spearman"] is not None
    for mutate in (lambda g: g.update(spearman=g["spearman"] + 1e-9),
                   lambda g: g.update(spearman=None),
                   lambda g: g["points"][0].update(gap_years=g["points"][0]["gap_years"] + 1)):
        bad = copy.deepcopy(doc)
        mutate(bad["payload"]["intro_gaps"])
        assert any("intro_gaps" in p for p in oracle.check_waves(waves, bad))
    doc["payload"]["technologies"][0]["peak_year"] += 1
    assert oracle.check_waves(waves, doc)



def test_tail_percentile_leaves_ten_samples_above():
    samples = list(range(1, 101))  # 1..100
    pct, value = metrics.tail_percentile(reversed(samples))
    assert (pct, value) == (90.0, 90)
    assert sum(s > value for s in samples) == metrics.TAIL_BEYOND

    pct, value = metrics.tail_percentile([5.0] * 3 + [1.0] * 9)  # n = 12
    assert value == 1.0 and pct == pytest.approx(100 * 2 / 12)

    assert metrics.tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_speed_scale_brings_times_to_the_reference():
    ref = speed.REFERENCE_NS
    assert speed.scale(ref, ref) == 1.0
    assert speed.scale(2 * ref, 2 * ref) == 0.5  # a host at half speed
    assert speed.scale(ref, 3 * ref) == 0.5
    assert speed.probe_ns() > 0


def _tree_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _generate(seed: int, directory: Path) -> str:
    directory.mkdir()
    rng = random.Random(seed)
    for i in range(4):
        inputs.killer_case(rng, directory, f"fk{i}")
        inputs.shares_case(rng, directory, f"fp{i}")
        inputs.waves_case(rng, directory, f"wv{i}")
        inputs.simulate_case(rng, directory, f"sm{i}")
    series = [inputs.logistic_case(rng, stage) for stage in inputs.STAGES * 4]
    (directory / "logistic.json").write_text(json.dumps([s.values for s in series]))
    return _tree_digest(directory)


def test_same_seed_gives_identical_inputs(tmp_path):
    first = _generate(11, tmp_path / "a")
    assert _generate(11, tmp_path / "b") == first
    assert _generate(12, tmp_path / "c") != first


def test_self_time_subtracts_children():
    t = tracer.Tracer()
    t.spans = [
        ["cli.main", "cli", 0, 100, -1, 1],
        ["ingest.read_series", "ingest", 10, 40, 0, 1],
        ["ingest.parse_series", "ingest", 15, 35, 1, 1],
        ["estimation.ols_fit", "estimation", 50, 90, 0, 1],
    ]
    s = t.summary()
    assert s["self_ns"]["cli"] == 100 - 30 - 40
    assert s["self_ns"]["ingest"] == (30 - 20) + 20
    assert s["calls"]["ingest"] == 2
    assert s["per_call_ns"]["estimation.ols_fit"] == [40]


def test_install_wraps_cross_module_bindings_and_uninstall_restores():
    pkg = types.SimpleNamespace()
    for layer in tracer.LAYERS:
        mod = types.ModuleType(f"fakepkg.{layer}")
        setattr(pkg, layer, mod)
    exec("def read_series(x):\n    return x + 1", pkg.ingest.__dict__)
    pkg.cli.read_series = pkg.ingest.read_series
    exec("def main(x):\n    return read_series(x) * 2", pkg.cli.__dict__)
    original = pkg.ingest.read_series
    t = tracer.Tracer()
    t.install(pkg)
    try:
        assert pkg.cli.main(1) == 4
    finally:
        t.uninstall()
    assert pkg.ingest.read_series is original and pkg.cli.read_series is original
    assert [s[0] for s in t.spans] == ["cli.main", "ingest.read_series"]
    assert t.spans[1][4] == 0


def test_parse_importtime_sums_self_times():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   _io",
        "import time:       200 |        300 |     numpy.core",
        "import time:        50 |        350 |   numpy",
        "import time:       400 |        400 |   scipy.special",
        "some other stderr line",
    ])
    assert tracer.parse_importtime(text) == {
        "total_us": 750, "numpy_us": 250, "scipy_us": 400, "modules": 4}
