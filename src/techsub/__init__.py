"""Technology substitution analytics.

Fits logistic growth curves, estimates the allometric growth coefficient
B of a killer/victim technology pair by log-log OLS, classifies the
substitution regime, fits Fisher-Pry share-substitution lines and
computes technological-wave and disruption metrics.
"""

from .errors import EstimationError, ParseError, TechsubError, ValidationError
from .estimation import (
    AbsoluteTolerance,
    FisherPryFit,
    KillerFit,
    Regime,
    RegressionFit,
    TTestTolerance,
    classify_regime,
    fisher_pry_fit,
    killer_fit,
    logistic_fit,
    ols_fit,
)
from .growth import (
    AllometricModel,
    LogisticParams,
    allometric_constants,
    logistic_value,
)
from .ingest import (
    DatasetManifest,
    SeriesRef,
    TimeSeries,
    align_pair,
    load_manifest,
    parse_series,
    read_series,
    serialize_series,
)
from .reporting import VERSION as __version__
from .waves import (
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

__all__ = [
    "AbsoluteTolerance",
    "AllometricModel",
    "DatasetManifest",
    "EstimationError",
    "FisherPryFit",
    "IntroGapDiagnostic",
    "KillerFit",
    "LogisticParams",
    "ParseError",
    "Regime",
    "RegressionFit",
    "SeriesRef",
    "TTestTolerance",
    "Takeover",
    "TechsubError",
    "TimeSeries",
    "ValidationError",
    "WaveEvents",
    "WaveMetrics",
    "align_pair",
    "allometric_constants",
    "classify_regime",
    "extract_wave_events",
    "fisher_pry_fit",
    "intro_gap_diagnostic",
    "killer_fit",
    "load_manifest",
    "logistic_fit",
    "logistic_value",
    "ols_fit",
    "parse_series",
    "read_series",
    "serialize_series",
    "summarize_waves",
    "takeover_year",
    "wave_metrics",
    "waves_payload",
]
