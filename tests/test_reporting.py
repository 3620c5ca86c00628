import hashlib
import json
import math
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import make_series
from techsub.estimation import KillerFit, Regime, killer_fit, ols_fit
from techsub.reporting import (
    build_report,
    fit_payload,
    regime_narrative,
    render_report,
    significance_stars,
)


class TestSignificanceStars:
    @pytest.mark.parametrize(
        "p,stars",
        [
            (0.0005, "***"),
            (0.001, "**"),
            (0.005, "**"),
            (0.01, "*"),
            (0.049, "*"),
            (0.05, ""),
            (0.5, ""),
        ],
    )
    def test_thresholds(self, p, stars):
        assert significance_stars(p) == stars


@pytest.fixture
def inverse_fit():
    years = range(2000, 2008)
    victim = make_series([(y, 100.0 * 0.8**i) for i, y in enumerate(years)], "v")
    killer = make_series([(y, 2.0 * 1.5**i) for i, y in enumerate(years)], "k")
    return killer_fit(killer, victim)


class TestNarrative:
    def test_under_development_with_inverse_note(self, inverse_fit):
        text = regime_narrative(inverse_fit)
        assert "under-development" in text
        assert "opposite" in text
        assert inverse_fit.co_movement == "inverse"

    def test_payload_carries_regime_and_direction(self, inverse_fit):
        payload = fit_payload("log(killer) = alpha + B*log(victim)", inverse_fit)
        assert payload["regime"] == "under-development"
        assert payload["co_movement"] == "inverse"
        assert payload["beta"] < 0


INVERSE_NOTE = (
    " The negative sign means the two levels move in opposite directions over the"
    " period (killer expanding while the victim contracts, or vice versa)."
)


@pytest.mark.parametrize("co_movement", ["direct", "inverse"])
@pytest.mark.parametrize(
    "regime,beta,sentence",
    [
        (
            Regime.DEVELOPMENT, 1.4567,
            "B = 1.457 exceeds 1: the killer technology grows at a greater relative"
            " rate than the victim (development regime).",
        ),
        (
            Regime.PROPORTIONAL_GROWTH, 0.98765,
            "B = 0.9877 is indistinguishable from 1: killer and victim levels change"
            " at a proportional relative rate (proportional-growth regime).",
        ),
        (
            Regime.UNDER_DEVELOPMENT, -1.28,
            "B = -1.28 falls below 1: the killer technology grows at a lower relative"
            " rate than the victim (under-development regime).",
        ),
    ],
    ids=["development", "proportional-growth", "under-development"],
)
def test_narrative_full_text(regime, beta, sentence, co_movement):
    """The narrative is a function of the record alone: B to four
    significant digits, the regime's sentence, and the inverse note."""
    regression = ols_fit([0.0, 1.0, 2.0], [0.0, 1.0, 2.5])._replace(beta=beta)
    fit = KillerFit(regression, regime, co_movement, (2000, 2001, 2002), 0)
    expected = sentence + (INVERSE_NOTE if co_movement == "inverse" else "")
    assert regime_narrative(fit) == expected


def digest(data: bytes) -> str:
    """The sha256 build_report lists for one input whose parsed bytes are data."""
    return build_report("c", "d", {}, [("input.csv", data)])["inputs"][0]["sha256"]


class TestFileDigest:
    """build_report hashes with CPython's built-in SHA-256 (_sha2 from 3.12,
    _sha256 before it), hashlib only where neither exists: the same hex."""

    @given(st.binary(max_size=4096))
    @example(b"")
    @example(bytes(range(256)) * 257)  # over 64 KiB
    def test_matches_hashlib(self, data):
        assert digest(data) == hashlib.sha256(data).hexdigest()

    def test_falls_back_to_hashlib(self, monkeypatch):
        real, called = hashlib.sha256, []

        def spy(data):
            called.append(data)
            return real(data)

        monkeypatch.setattr(hashlib, "sha256", spy)
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setitem(sys.modules, "_sha256", None)
        data = b"year,value\n2000,1.0\n"
        assert digest(data) == real(data).hexdigest()
        assert called == [data]


class TestBuildReport:
    def test_field_order_and_digest(self):
        data = b"year,value\n2000,1.0\n"
        doc = build_report(
            command="fit-killer",
            dataset="demo",
            payload={"x": 0.1 + 0.2},
            inputs=[("input.csv", data)],
            narrative="n",
        )
        keys = list(doc.keys())
        assert keys == [
            "tool", "version", "command", "dataset", "log_base",
            "inputs", "payload", "narrative", "warnings",
        ]
        assert doc["inputs"] == [
            {"path": "input.csv", "sha256": hashlib.sha256(data).hexdigest()}
        ]

    def test_numeric_fields_survive_serialization_exactly(self):
        value = 0.1 + 0.2  # not exactly representable in decimal
        doc = build_report("c", "d", {"v": value, "inf": float("inf")}, [])
        back = json.loads(render_report(doc))
        assert back["payload"]["v"] == value
        assert back["payload"]["inf"] is None

    @given(st.dictionaries(st.sampled_from(["f_stat", "beta", "n"]), st.floats(), max_size=3))
    def test_every_report_is_strict_json(self, payload):
        """A non-finite payload float is written as null with one warning
        naming its field; every other float round-trips exactly."""
        def refuse(constant):
            raise ValueError(f"non-RFC 8259 constant {constant}")

        doc = build_report("c", "d", payload, [], warnings=["w"])
        back = json.loads(render_report(doc), parse_constant=refuse)
        bad = [k for k, v in payload.items() if not math.isfinite(v)]
        assert back["payload"] == {k: None if k in bad else v for k, v in payload.items()}
        assert back["warnings"][0] == "w"
        assert [w.split(" ", 1)[0] for w in back["warnings"][1:]] == bad
