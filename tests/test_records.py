"""The public result records are collections.namedtuple subclasses: their
field order is the report's key order, four of them carry defaults, and
four validate in __new__, _replace and _make alike. Nothing here imports
numpy or scipy, so every supported interpreter runs it."""

import pytest

import techsub
from conftest import check_record
from techsub.errors import ValidationError
from techsub.estimation import (
    AbsoluteTolerance,
    FisherPryFit,
    KillerFit,
    Regime,
    RegressionFit,
    TTestTolerance,
)
from techsub.growth import AllometricModel, LogisticParams
from techsub.ingest import DatasetManifest, SeriesRef, TimeSeries
from techsub.waves import IntroGapDiagnostic, Takeover, WaveEvents, WaveMetrics

REGRESSION = dict(
    n=3, alpha=0.5, se_alpha=0.1, beta=1.5, se_beta=0.2, r2=0.9, r2_adj=0.8,
    se_estimate=0.3, f_stat=9.0, p_value_f=0.2, p_value_beta=0.2,
    xs=(0.0, 1.0, 2.0), ys=(0.5, 2.0, 3.5),
)

# one valid record of each class, its fields in the pinned order
RECORDS = {
    RegressionFit: REGRESSION,
    TTestTolerance: dict(alpha=0.01),
    AbsoluteTolerance: dict(value=0.1),
    KillerFit: dict(
        regression=RegressionFit(**REGRESSION), regime=Regime.DEVELOPMENT,
        co_movement="direct", years_used=(2000, 2001, 2002), n_dropped=0,
    ),
    FisherPryFit: dict(
        slope=0.4, intercept=-4.0, t_half=10.0, regression=RegressionFit(**REGRESSION)
    ),
    LogisticParams: dict(K=1.0, a=2.0, b=3.0),
    AllometricModel: dict(A=2.0, B=1.5, C1=0.5),
    TimeSeries: dict(name="s", unit="u", points=((2000, 1.0), (2001, 2.5))),
    SeriesRef: dict(file="a.csv", name="a", unit="u"),
    DatasetManifest: dict(
        dataset="d", series=(SeriesRef("a.csv"),), period=(2000, 2010), base_dir="data"
    ),
    WaveEvents: dict(name="a", begin_year=2000, peak_year=2005, end_year=2010),
    WaveMetrics: dict(
        upwave_years=5, downwave_years=5, cycle_years=10, upwave_fraction=50.0,
        downwave_fraction=50.0,
    ),
    Takeover: dict(year=2003, challenger_value=3.0, established_value=2.0,
                   established_share_pct=40.0),
    IntroGapDiagnostic: dict(points=((2, 5), (3, 4)), spearman=-1.0),
}

each_record = pytest.mark.parametrize(
    "cls,fields", RECORDS.items(), ids=[cls.__name__ for cls in RECORDS]
)


def test_every_public_record_is_listed():
    public = {v for v in vars(techsub).values() if isinstance(v, type) and hasattr(v, "_fields")}
    assert public == set(RECORDS) and len(RECORDS) == 14


@each_record
def test_fields_are_pinned(cls, fields):
    assert cls._fields == tuple(fields)


@each_record
def test_record_is_a_value(cls, fields):
    record = check_record(cls, **fields)
    assert repr(record).startswith(f"{cls.__name__}(")
    rebuilt = cls._make(fields.values())
    assert rebuilt == record and type(rebuilt) is cls
    assert type(record._replace()) is cls


def test_repr_is_pinned():
    assert repr(LogisticParams(K=1.0, a=2.0, b=3.0)) == "LogisticParams(K=1.0, a=2.0, b=3.0)"


def test_defaults():
    assert TTestTolerance().alpha == 0.05
    assert AbsoluteTolerance().value == 0.05
    assert SeriesRef("a.csv") == SeriesRef(file="a.csv", name=None, unit="")
    assert DatasetManifest("d") == DatasetManifest(dataset="d", series=(), period=None,
                                                   base_dir="")
    with_defaults = {cls for cls in RECORDS if cls._field_defaults}
    assert with_defaults == {TTestTolerance, AbsoluteTolerance, SeriesRef, DatasetManifest}


@pytest.mark.parametrize(
    "cls,bad,match",
    [
        (LogisticParams, dict(K=-1.0), "carrying capacity"),
        (AllometricModel, dict(C1=0.0), "coupling constant"),
        (TimeSeries, dict(points=((2001, 1.0), (2000, 2.0))), "strictly increasing"),
        (WaveEvents, dict(begin_year=2006), "after peak"),
    ],
    ids=["LogisticParams", "AllometricModel", "TimeSeries", "WaveEvents"],
)
def test_replace_and_make_validate(cls, bad, match):
    record = cls(**RECORDS[cls])
    with pytest.raises(ValidationError, match=match):
        record._replace(**bad)
    with pytest.raises(ValidationError, match=match):
        cls._make({**RECORDS[cls], **bad}.values())
