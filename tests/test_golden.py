"""Pinned output bytes of all four commands on fixed inputs.

Every report (``--no-timestamp``, inputs named by relative path), both
SVG plots and both noise-free simulate CSVs are compared by sha256 with
digests recorded before the CLI stopped re-deriving fitted data. The
three fit reports were re-pinned when the regression moved to math.fsum
sums and a pure-Python t tail, and again when it moved to exact integer
sums with correctly rounded results: each time only float fields moved,
in their last digits. A refactor that changes any output byte fails here; a deliberate
output change must update the digest and say why.
"""

import hashlib
import json
import math

from conftest import write_csv, write_manifest

GOLDEN = {
    "sim_victim.csv": "8a6a600e9841c8fe49170fec99c6f5328ba39ea9fe2117805d5abd95d9b9f131",
    "sim_killer.csv": "22998c66d44c1bb9b8c9b7c59bcac83719479cc1d9d20a39e1715480e845a364",
    "fit_ttest.json": "a5d01537966b3113c5834f0a6061ecfde16a173336033cb9cfae09d96a7ac17f",
    "fit_abs.json": "14819dcfc9da957c45557286912920932b46c516bc9c8a4cc151ccc8595965fd",
    "fit.svg": "0f5abf5ac045b915db7375cbd024e246c1814206eb852ffb220ce6fa66598fc3",
    "fp.json": "d5bbd875fcb1615a5bf4971ece5922f45204757e77c0a490f8c2914fdb654dfb",
    "fp.svg": "8e509a8e960cd027a9335962715d8f8c2353792e5f42ee8e79ccfda9229b80dd",
    "waves.json": "922355116d4227f00cd278f6c4c91dc4796cb3d5ffb0352ea1f01766bfdd7725",
}


def write_inputs(tmp_path):
    """Deterministic inputs with a dropped zero, a period cut and an
    in-progress wave, so filtering and alignment show in the bytes."""
    years = range(1980, 2006)
    victim = [(y, 50.0 + 30.0 * math.sin(0.4 * i) + 2.0 * i) for i, y in enumerate(years)]
    killer = [
        (y, 0.0 if i == 7 else math.exp(0.3 + 1.4 * math.log(v) + 0.05 * math.cos(1.3 * i)))
        for i, (y, v) in enumerate(victim)
    ]
    write_csv(tmp_path / "victim.csv", victim)
    write_csv(tmp_path / "killer.csv", killer[2:] + [(2006, 9.5)])
    shares = [
        (y, 1.0 / (1.0 + math.exp(-0.35 * (y - 1993) + 0.1 * math.sin(y))))
        for y in years
    ]
    write_csv(tmp_path / "shares.csv", shares)
    write_csv(tmp_path / "a.csv", [(1950 + i, float(v)) for i, v in enumerate([1, 4, 9, 7, 3, 2, 0])])
    write_csv(tmp_path / "b.csv", [(1953 + i, float(v)) for i, v in enumerate([2, 5, 11, 14, 8, 1, 0, 0])])
    write_csv(tmp_path / "c.csv", [(1956 + i, float(v)) for i, v in enumerate([1, 3, 6, 10, 18, 30])])
    write_manifest(
        tmp_path / "m.json",
        {"dataset": "golden", "series": [{"file": f} for f in ("a.csv", "b.csv", "c.csv")]},
    )
    (tmp_path / "sim.json").write_text(json.dumps({
        "victim": {"K": 120.0, "a": 6.0, "b": 0.45, "name": "old"},
        "killer": {"K": 300.0, "a": 9.5, "b": 0.8, "name": "new", "unit": "units"},
        "years": {"first": 0, "last": 30},
    }))


def test_all_commands_match_pinned_bytes(run_cli, tmp_path, monkeypatch):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    runs = [
        ("simulate", "sim.json", "--killer-out", "sim_killer.csv",
         "--victim-out", "sim_victim.csv"),
        ("fit-killer", "killer.csv", "victim.csv", "--no-timestamp", "--period",
         "1981:2004", "--plot", "fit.svg", "--output", "fit_ttest.json"),
        ("fit-killer", "killer.csv", "victim.csv", "--no-timestamp",
         "--regime-tolerance", "abs:0.1", "--output", "fit_abs.json"),
        ("fisher-pry", "shares.csv", "--no-timestamp", "--period", "1982:2003",
         "--plot", "fp.svg", "--output", "fp.json"),
        ("waves", "m.json", "--no-timestamp", "--output", "waves.json"),
    ]
    for argv in runs:
        code, _, err = run_cli(*argv)
        assert code == 0, err
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN
    }
    assert got == GOLDEN
