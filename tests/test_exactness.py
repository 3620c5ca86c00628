"""Exactness of the regression, Fisher-Pry t_half, the wave summary, the
takeover share and the introduction-gap rank correlation against Fraction
oracles, and of the logistic level against a decimal one.

Every float field of RegressionFit except the two p-values, t_half, the
takeover share, every wave mean and SD, and Spearman's rho must be the
float nearest the exact rational (or, for the standard errors, SDs and
rho, the exact square root), ties to even. The oracles here sum in
decimal.Decimal at a precision that rounds nothing, take the textbook
formulas in fractions.Fraction and find each square root by search, so
they share no code with the integer kernel under test. The logistic
level K/(1 + exp(a - b*t)), whose float exp is not correctly rounded,
must lie within a few ulps of a 60-digit Decimal evaluation, also where
exp overflows. This module imports neither numpy nor scipy and runs on
any supported Python.
"""

import math
import random
import struct
from decimal import Context, Decimal, Inexact, localcontext
from fractions import Fraction

import pytest

from techsub.errors import EstimationError
from techsub.estimation import exact_ints, fisher_pry_fit, ols_fit, sqrt_ratio
from techsub.growth import LogisticParams, logistic_value
from techsub.ingest import TimeSeries
from techsub.waves import (
    WaveEvents, WaveMetrics, intro_gap_diagnostic, summarize_waves, takeover_year, wave_metrics,
)

# holds every digit of the sums below; the Inexact trap proves it
EXACT = Context(prec=4000, Emin=-9999, traps=[Inexact])
EXACT_FIELDS = ("alpha", "beta", "se_alpha", "se_beta", "r2", "r2_adj", "se_estimate", "f_stat")


def rounded_sqrt(v: Fraction) -> float:
    """The float nearest sqrt(v), ties to even, found by stepping from a
    float estimate until sqrt(v) lies between the midpoints to its
    neighbours. Raises OverflowError past the largest float."""
    if v == 0:
        return 0.0
    e = (v.numerator.bit_length() - v.denominator.bit_length()) // 2
    c = math.ldexp(math.sqrt(v / Fraction(4) ** e), e)
    while True:
        below = (Fraction(c) + Fraction(math.nextafter(c, 0.0))) / 2
        above = Fraction(c) + Fraction(math.ulp(c)) / 2
        odd = struct.unpack("<q", struct.pack("<d", c))[0] & 1
        if v < below * below or (v == below * below and odd):
            c = math.nextafter(c, 0.0)
        elif v > above * above or (v == above * above and odd):
            c = math.nextafter(c, math.inf)
        else:
            return c


def exact_sum(terms):
    """The exact sum of products of floats, as a Fraction: each float is an
    exact decimal, and the EXACT context rounds nothing."""
    with localcontext(EXACT):
        return Fraction(sum(math.prod(map(Decimal, t)) for t in terms))


def exact_regression(xs, ys):
    """The RegressionFit float fields from the textbook formulas in exact
    rational arithmetic: centred sums, SSE = SST - Sxy^2/Sxx, the standard
    errors from s^2 (X'X)^-1. Fields outside the float range raise
    OverflowError."""
    n = len(xs)
    x_mean = exact_sum((v,) for v in xs) / n
    y_mean = exact_sum((v,) for v in ys) / n
    sxx = exact_sum((u, u) for u in xs) - n * x_mean * x_mean
    sxy = exact_sum(zip(xs, ys)) - n * x_mean * y_mean
    sst = exact_sum((v, v) for v in ys) - n * y_mean * y_mean
    beta = sxy / sxx
    sse = sst - sxy * sxy / sxx
    dof = n - 2
    r2 = 1 - sse / sst if sst else Fraction(1)
    s2 = sse / dof
    if sse:
        f_stat = float(beta * beta / (s2 / sxx))
    else:
        f_stat = math.inf if beta else 0.0
    return {
        "alpha": float(y_mean - beta * x_mean),
        "beta": float(beta),
        "se_alpha": rounded_sqrt(s2 * (Fraction(1, n) + x_mean * x_mean / sxx)),
        "se_beta": rounded_sqrt(s2 / sxx),
        "r2": float(r2),
        "r2_adj": float(1 - (1 - r2) * (n - 1) / dof),
        "se_estimate": rounded_sqrt(s2),
        "f_stat": f_stat,
    }


def _wide_float(rng):
    """A float of random sign with an exponent anywhere from the subnormals
    up to 1e300."""
    return rng.choice((-1.0, 1.0)) * rng.random() * 10.0 ** rng.uniform(-323.0, 300.0)


def regression_cases(count=2_100, seed=20_190_101):
    """Seeded (xs, ys): mostly log-scale levels with a power-law trend,
    then tight clusters at extreme exponents, floats of any exponent, and
    small multiples of the least subnormal."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(3, 60)
        kind = i % 10
        if kind < 6:
            xs = [math.log(rng.uniform(1.0, 1e6)) for _ in range(n)]
            a, b = rng.uniform(-5.0, 5.0), rng.uniform(-3.0, 3.0)
            ys = [a + b * v + rng.gauss(0.0, 0.3) for v in xs]
        elif kind < 8:
            scale = 10.0 ** rng.uniform(-300.0, 300.0)
            xs = [scale * rng.uniform(1.0, 2.0) for _ in range(n)]
            ys = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-20.0, 20.0) for _ in range(n)]
        elif kind == 8:
            xs = [_wide_float(rng) for _ in range(n)]
            ys = [_wide_float(rng) for _ in range(n)]
        else:
            xs = [rng.randint(-50, 50) * 5e-324 for _ in range(n)]
            ys = [rng.randint(-9, 9) * rng.choice((5e-324, 2.0**-1022)) for _ in range(n)]
        yield xs, ys


def check_fit(xs, ys):
    """ols_fit(xs, ys) has every exact field equal to the oracle's, or
    raises EstimationError exactly when the oracle finds zero variance in
    xs or a field outside the float range."""
    if len(set(xs)) == 1:
        with pytest.raises(EstimationError, match="zero variance"):
            ols_fit(xs, ys)
        return "degenerate"
    try:
        want = exact_regression(xs, ys)
    except OverflowError:
        with pytest.raises(EstimationError, match="overflows a float"):
            ols_fit(xs, ys)
        return "overflow"
    fit = ols_fit(xs, ys)
    got = {name: getattr(fit, name) for name in EXACT_FIELDS}
    assert got == want, (xs, ys)
    return "fit"


def test_regression_fields_are_correctly_rounded():
    outcomes = [check_fit(xs, ys) for xs, ys in regression_cases()]
    # at least 2,000 fits compared; the rest are refused, each for its reason
    assert outcomes.count("fit") >= 2_000


@pytest.mark.parametrize(
    "xs,ys",
    [
        # these once overflowed the float sums of squares; exactly they fit
        ([1e308, 1.5e308, 1.7e308], [1.0, 2.0, 3.5]),
        ([1e200, 2e200, 3.5e200], [1.0, 2.0, 3.5]),
        ([1.0, 2.0, 3.5], [-1e308, 1e308, 1.7e308]),
        ([1e160, 1.0000001e160, 1.0000003e160], [1.0, 2.0, 3.5]),
        # a perfect line and a constant response
        ([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]),
        ([1.0, 2.0, 3.0], [7.0, 7.0, 7.0]),
    ],
)
def test_extreme_inputs_fit_exactly(xs, ys):
    assert check_fit(xs, ys) == "fit"


@pytest.mark.parametrize(
    "xs,ys",
    [
        # beta = 2/5e-324; the xs vary, by one subnormal step
        ([0.0, 5e-324, 1e-323], [0.0, 1.0, 2.0]),
        # F: the residual is a subnormal against a spread of 1e300
        ([0.0, 1.0, 2.0], [5e-324, 1e300, 2e300]),
    ],
)
def test_values_beyond_the_float_range_are_estimation_errors(xs, ys):
    assert check_fit(xs, ys) == "overflow"


def exact_mean_sd(values):
    v = [float(u) for u in values if u is not None]
    if not v:
        return None, None
    n = len(v)
    mean = exact_sum((u,) for u in v) / n
    if n < 2:
        return float(mean), None
    return float(mean), rounded_sqrt((exact_sum((u, u) for u in v) - n * mean * mean) / (n - 1))


def wave_sets(count=2_000, seed=20_190_102):
    """Seeded lists of WaveMetrics: waves read off random anchor years
    (integer lengths, percentage splits, some zero-length cycles), and
    records holding floats of extreme exponent."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(0, 40)
        if i % 4 == 3:
            yield [
                WaveMetrics(*(rng.randint(0, 10**6) for _ in range(3)), _wide_float(rng),
                            rng.choice((None, rng.uniform(0.0, 100.0))))
                for _ in range(n)
            ]
        else:
            metrics = []
            for _ in range(n):
                begin = rng.randint(1800, 2000)
                peak = begin + rng.choice((0, rng.randint(0, 60)))
                end = peak + rng.choice((0, rng.randint(0, 60)))
                metrics.append(wave_metrics(WaveEvents("t", begin, peak, end)))
            yield metrics


def test_wave_means_and_sds_are_correctly_rounded():
    for metrics in wave_sets():
        want = {
            name: exact_mean_sd([getattr(m, name) for m in metrics])
            for name in WaveMetrics._fields
        }
        assert summarize_waves(metrics) == want, metrics


@pytest.mark.parametrize(
    "values",
    [[0.1, 0.2, 0.3], [5e-324, -1e-323, 1.7e308], [3.0], [-0.0, 0.0], [1e300, 1e-300]],
)
def test_exact_ints_represent_every_value(values):
    ints, d = exact_ints(values)
    assert d & (d - 1) == 0
    assert [Fraction(p, d) for p in ints] == [Fraction(v) for v in values]


@pytest.mark.parametrize(
    "p,q",
    [(0, 1), (1, 1), (2, 1), (1, 3), (4, 9), (2**2100, 3), (1, 2**2200), (10**616, 7),
     # sqrt(p/q) exactly halfway between two floats: ties to even
     ((2**53 + 1) ** 2, 2**108), ((2**53 + 3) ** 2, 2**108)],
)
def test_sqrt_ratio_is_correctly_rounded(p, q):
    try:
        want = rounded_sqrt(Fraction(p, q))
    except OverflowError:
        with pytest.raises(OverflowError):
            sqrt_ratio(p, q)
    else:
        assert sqrt_ratio(p, q) == want


def share_series(count=2_000, seed=20_190_103):
    """Seeded logistic share series: runs of 3 to 60 years with a random
    start, slope and half-substitution year, and noise on the logits."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, 60)
        first = rng.randint(1800, 2000)
        years = sorted(rng.sample(range(first, first + 2 * n), n))
        slope = rng.choice((-1.0, 1.0)) * rng.uniform(0.01, 1.0)
        mid = rng.uniform(first - 20, first + 2 * n + 20)
        logits = [max(-30.0, min(30.0, slope * (t - mid) + rng.gauss(0.0, 0.2))) for t in years]
        yield TimeSeries("s", "", tuple((t, 1.0 / (1.0 + math.exp(-z))) for t, z in zip(years, logits)))


def test_t_half_is_correctly_rounded():
    """t_half is the float nearest -alpha/beta of the exact regression on
    the fit's own years and logits, not the ratio of the two rounded fields."""
    for shares in share_series():
        fit = fisher_pry_fit(shares)
        xs, ys = fit.regression.xs, fit.regression.ys
        n = len(xs)
        x_mean = exact_sum((v,) for v in xs) / n
        y_mean = exact_sum((v,) for v in ys) / n
        beta = (exact_sum(zip(xs, ys)) - n * x_mean * y_mean) / (
            exact_sum((u, u) for u in xs) - n * x_mean * x_mean
        )
        assert fit.t_half == float(x_mean - y_mean / beta), shares


def takeover_pairs(count=2_000, seed=20_190_104):
    """Seeded (established, challenger) levels with 0 <= established <
    challenger: ordinary levels, levels of any exponent, zero, and levels
    within a few binades of the largest float."""
    rng = random.Random(seed)
    for i in range(count):
        kind = i % 4
        if kind < 2:
            pair = [rng.uniform(0.0, 1e4) * 10.0 ** rng.uniform(-6.0, 6.0) for _ in range(2)]
        elif kind == 2:
            pair = [abs(_wide_float(rng)), rng.choice((0.0, abs(_wide_float(rng))))]
        else:
            pair = [math.ldexp(rng.uniform(0.5, 1.0), rng.randint(1016, 1024)) for _ in range(2)]
        old, new = sorted(pair)
        if old < new:
            yield old, new


def test_takeover_share_is_correctly_rounded():
    for old, new in takeover_pairs():
        crossing = takeover_year(
            TimeSeries("new", "", ((0, new),)), TimeSeries("old", "", ((0, old),))
        )
        want = 100 * Fraction(old) / (Fraction(old) + Fraction(new))
        assert crossing.established_share_pct == float(want), (old, new)


def rank_sets(count=2_400, seed=20_190_105):
    """Seeded (gap, disruption) integer pairs, 2 to 40 of them: values from
    small ranges (many ties) to wide ones, and every tenth set with one
    side constant."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(2, 40)
        gap_top, dp_top = rng.choice((1, 2, 5, 20, 1000)), rng.choice((1, 2, 5, 20, 1000))
        points = [(rng.randint(0, gap_top), rng.randint(0, dp_top)) for _ in range(n)]
        if i % 20 == 9:
            points = [(points[0][0], d) for _, d in points]
        elif i % 20 == 19:
            points = [(g, points[0][1]) for g, _ in points]
        yield points


def exact_rho(points):
    """Spearman's rho from the textbook formula: the Pearson correlation of
    average ranks (the mean of tied positions) as Fractions, the float
    nearest its exact square root carrying the cross sum's sign; None when
    a side has zero variance."""
    n = len(points)
    ranks = [
        [sum(u < v for u in side) + Fraction(side.count(v) + 1, 2) for v in side]
        for side in zip(*points)
    ]
    centred = [[r - Fraction(n + 1, 2) for r in side] for side in ranks]
    sgg, sdd = (sum(r * r for r in side) for side in centred)
    sgd = sum(a * b for a, b in zip(*centred))
    if sgg == 0 or sdd == 0:
        return None
    return math.copysign(rounded_sqrt(sgd * sgd / (sgg * sdd)), sgd)


def test_spearman_rho_is_correctly_rounded():
    outcomes = []
    for points in rank_sets():
        chain = [
            (WaveEvents("old", 0, 10, 10 + dp), WaveEvents("new", gap, gap, None))
            for gap, dp in points
        ]
        want = exact_rho(points)
        assert intro_gap_diagnostic(chain).spearman == want, points
        outcomes.append(want is None)
    # at least 2,000 values compared, and None for the 240 sets built with a constant side
    assert outcomes.count(False) >= 2_000 and outcomes.count(True) >= 240


def logistic_cases(count=2_000, seed=20_190_106):
    """Seeded (K, u) pairs, u = a - b*t exact: capacities of any exponent,
    u from where exp(u) underflows to where K*exp(-u) does, u near the
    edge of exp's range, and simulate's K = 1e10, a = 705, b = 1 at t = 0."""
    rng = random.Random(seed)
    yield 1e10, 705.0
    for i in range(count):
        K = 10.0 ** rng.uniform(-300.0, 308.0)
        yield K, rng.uniform(700.0, 720.0) if i % 4 == 0 else rng.uniform(-800.0, 1500.0)


def test_logistic_level_is_within_4_ulps_of_a_decimal_oracle():
    """Decimal.exp is correctly rounded, and 60 digits leave the oracle's
    own error far below an ulp; the float level has libm's exp (within an
    ulp) and at most three rounded operations. Past exp's range the level
    is positive, not 0, until it underflows."""
    with localcontext(Context(prec=60)):
        for K, u in logistic_cases():
            got = logistic_value(LogisticParams(K, u, 1.0), 0.0)
            want = float(Decimal(K) / (1 + Decimal(u).exp()))
            assert abs(got - want) <= 4 * math.ulp(want), (K, u, got, want)
