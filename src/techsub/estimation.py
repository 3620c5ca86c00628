"""Model fitting: simple OLS with diagnostics, the killer/victim log-log
regression, regime classification of the growth coefficient B, nonlinear
logistic fitting and the Fisher-Pry share-substitution fit.

All logarithms are natural. Non-positive observations are dropped from
log-space fits (and counted), never clamped.

The regression and its t tail are pure Python: sums are exact ints, so
every float it reports but the p values is correctly rounded. The t tail
gives the slope's p-value and the default regime call: B is proportional
unless the p-value of the t test of B = 1 falls below the level. numpy is
imported inside logistic_fit only, and no command loads it to fit a line.
"""

from __future__ import annotations

import enum
import math
import sys
from collections import namedtuple

from .errors import EstimationError, ValidationError
from .growth import LogisticParams
from .ingest import TimeSeries, align_pair


class RegressionFit(namedtuple("RegressionFit", "n alpha se_alpha beta se_beta r2 r2_adj "
                                 "se_estimate f_stat p_value_f p_value_beta xs ys")):
    """Simple linear regression y = alpha + beta*x with full diagnostics.

    n is an int, xs and ys the fitted float tuples, every other field a
    float. se_estimate is the residual standard error; r2_adj penalizes
    degrees of freedom; f_stat equals the squared slope t statistic (simple
    regression identity), so the F test and the two-sided slope t test on
    n - 2 degrees of freedom have one p value, stored in both p fields.
    The field order is the report's key order; xs and ys are not reported.
    """

    __slots__ = ()


class Regime(str, enum.Enum):
    """How fast the killer technology grows relative to the victim. A str
    enum: each member equals its value, which json.dumps writes."""

    UNDER_DEVELOPMENT = "under-development"
    PROPORTIONAL_GROWTH = "proportional-growth"
    DEVELOPMENT = "development"


class TTestTolerance(namedtuple("TTestTolerance", "alpha", defaults=(0.05,))):
    """Proportional unless a two-sided t test rejects slope = 1 at level alpha."""

    __slots__ = ()

    def proportional(self, fit: RegressionFit) -> bool:
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError(f"t test level alpha must lie in (0, 1), got {self.alpha}")
        return t_tail(_t_ratio(fit.beta - 1.0, fit.se_beta), fit.n - 2) >= self.alpha


class AbsoluteTolerance(namedtuple("AbsoluteTolerance", "value", defaults=(0.05,))):
    """Proportional when |slope - 1| is at most value."""

    __slots__ = ()

    def proportional(self, fit: RegressionFit) -> bool:
        if not 0.0 <= self.value < math.inf:
            raise ValidationError(f"tolerance must be finite and >= 0, got {self.value}")
        return abs(fit.beta - 1.0) <= self.value


class KillerFit(namedtuple("KillerFit", "regression regime co_movement years_used n_dropped")):
    """Result of regressing log killer level on log victim level: the
    RegressionFit, its Regime, co_movement "direct" or "inverse" (the sign
    of B), the int years used and the int count of years dropped."""

    __slots__ = ()


class FisherPryFit(namedtuple("FisherPryFit", "slope intercept t_half regression")):
    """Straight-line fit of the log share odds ln(f/(1-f)) against time:
    the float slope, intercept and t_half, then the RegressionFit."""

    __slots__ = ()


# stands in for a zero denominator in the continued fraction (Lentz's method)
_TINY = 1e-300


def _beta_half(dof: int) -> float:
    """B(dof/2, 1/2), from B(1/2, 1/2) = pi or B(1, 1/2) = 2 and
    B(a + 1, 1/2) = B(a, 1/2) * a / (a + 1/2)."""
    a, beta = (0.5, math.pi) if dof % 2 else (1.0, 2.0)
    while a < 0.5 * dof:
        beta *= a / (a + 0.5)
        a += 1.0
    return beta


def t_tail(t: float, dof: int) -> float:
    """Two-sided Student t tail P(|T| >= |t|) on integer dof >= 1.

    This is the regularised incomplete beta I_x(dof/2, 1/2) at
    x = dof/(dof + t^2). Near the centre, x >= (a + 1)/(a + 5/2) with
    a = dof/2, and for dof 1 at any t, it is one minus the finite sums of
    Abramowitz & Stegun 26.7.3/26.7.4; elsewhere it is the incomplete beta
    continued fraction (Lentz's method) times x^a sqrt(1 - x) / (a B(a, 1/2)).
    """
    t2 = t * t
    if math.isinf(t2):
        return 0.0
    s = dof + t2
    x = dof / s
    a = 0.5 * dof
    if dof == 1 or x >= (a + 1.0) / (a + 2.5):
        term = total = 1.0
        if dof % 2:
            # 1 - (2/pi)(theta + sin cos (1 + (2/3)x + (2*4)/(3*5)x^2 + ...))
            for k in range(1, (dof - 1) // 2):
                term *= x * (2 * k) / (2 * k + 1)
                total += term
            sin_cos = math.sqrt(x * t2 / s) if dof > 1 else 0.0
            return (math.atan2(math.sqrt(dof), abs(t)) - sin_cos * total) / (0.5 * math.pi)
        # 1 - sin (1 + (1/2)x + (1*3)/(2*4)x^2 + ...)
        for k in range(1, dof // 2):
            term *= x * (2 * k - 1) / (2 * k)
            total += term
        return 1.0 - abs(t) / math.sqrt(s) * total
    c, d = 1.0, 1.0 / (1.0 - (a + 0.5) * x / (a + 1.0))
    h = d
    for m in range(1, 10_000):
        am = a + 2 * m
        num = m * (0.5 - m) * x / ((am - 1.0) * am)
        d = 1.0 / (1.0 + num * d or _TINY)
        c = 1.0 + num / c or _TINY
        h *= d * c
        num = -(a + m) * (a + 0.5 + m) * x / (am * (am + 1.0))
        d = 1.0 / (1.0 + num * d or _TINY)
        c = 1.0 + num / c or _TINY
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= sys.float_info.epsilon:
            break
    # x^a: pow's error is a times x's rounding error; exp's is about
    # a*|ln x| ulp, smaller when x > 1/2
    xa = math.exp(-a * math.log1p(t2 / dof)) if x > 0.5 else x**a
    return xa * math.sqrt(t2 / s) / (a * _beta_half(dof)) * h


def _t_ratio(estimate: float, se: float) -> float:
    """estimate / se; a zero se gives 0 for a zero estimate, else +-inf."""
    if se > 0.0:
        return estimate / se
    return math.copysign(math.inf, estimate) if estimate else 0.0


def exact_ints(values: list[float]) -> tuple[list[int], int]:
    """(ints, d) with values[i] == ints[i] / d exactly: every finite float is
    p / 2^k, so one power of two d serves all and every sum is an exact int."""
    ratios = [v.as_integer_ratio() for v in values]
    d = max(q for _, q in ratios)
    return [p * (d // q) for p, q in ratios], d


def sqrt_ratio(p: int, q: int) -> float:
    """sqrt(p / q) correctly rounded, for ints p >= 0 and q > 0.

    The integer root of a radicand of at least 2*53 + 3 bits is rounded to
    odd, then once to a float (Boldo & Melquiond 2008); OverflowError past
    the float range."""
    s = max(0, (110 - p.bit_length() + q.bit_length()) // 2)
    n, rem = divmod(p << 2 * s, q)
    r = math.isqrt(n)
    return (r | (rem > 0 or r * r < n)) / (1 << s)


def centred_sums(X: list[int], Y: list[int]) -> tuple[int, int, int, int, int]:
    """(sx, sy, qxx, qxy, qyy) of equal-length int lists: their exact sums and n
    times their centred sums of squares and products, as qxx = n*sxx - sx^2."""
    n, sx, sy = len(X), sum(X), sum(Y)
    return (sx, sy, n * sum(u * u for u in X) - sx * sx,
            n * sum(u * v for u, v in zip(X, Y)) - sx * sy, n * sum(v * v for v in Y) - sy * sy)


def ols_fit(xs: list[float], ys: list[float]) -> RegressionFit:
    """Ordinary least squares of ys on xs with diagnostics.

    Requires n >= 3 (residual degrees of freedom), finite values and
    non-degenerate xs. Perfect fits report se_estimate 0, infinite F and
    zero p values. Sums are exact ints, so every field but the p values is
    correctly rounded; p_value_beta = p_value_f = t_tail(sqrt(F)), F = t^2.
    """
    return _ols(xs, ys)[0]


def _ols(xs: list[float], ys: list[float]) -> tuple[RegressionFit, tuple]:
    """ols_fit's result and its exact sums (n, dx, sx, sy, qxx, qxy)."""
    x = [float(v) for v in xs]
    y = [float(v) for v in ys]
    n = len(x)
    if len(y) != n:
        raise EstimationError(f"xs and ys lengths differ ({n} vs {len(y)})")
    if n < 3:
        raise EstimationError(f"need at least 3 observations, got {n}")
    if not all(map(math.isfinite, x + y)):
        raise EstimationError("xs and ys must be finite (NaN or infinity found)")
    (X, dx), (Y, dy) = exact_ints(x), exact_ints(y)
    # the q are n dx^2, n dx dy and n dy^2 times the centred sums; SSE = r / (n dy^2 qxx)
    sx, sy, qxx, qxy, qyy = centred_sums(X, Y)
    if qxx == 0:
        raise EstimationError("xs have zero variance, slope undefined")
    q = qxx * qyy
    r = q - qxy * qxy
    dof = n - 2
    try:
        alpha = (sy * qxx - sx * qxy) / (n * dy * qxx)
        beta = qxy * dx / (qxx * dy)
        se_estimate = sqrt_ratio(r, n * dof * dy * dy * qxx)
        se_beta = sqrt_ratio(r * dx * dx, dof * (dy * qxx) ** 2)
        se_alpha = sqrt_ratio(r * (qxx + sx * sx), dof * (n * dy * qxx) ** 2)
        f_stat = qxy * qxy * dof / r if r else (math.inf if qxy else 0.0)
    except OverflowError:
        raise EstimationError("a fitted value overflows a float; rescale xs or ys") from None
    r2, r2_adj = (qxy * qxy / q, (dof * q - (n - 1) * r) / (dof * q)) if q else (1.0, 1.0)
    p_value = t_tail(math.sqrt(f_stat), dof)
    fit = RegressionFit(n, alpha, se_alpha, beta, se_beta, r2, r2_adj, se_estimate, f_stat,
                        p_value, p_value, tuple(x), tuple(y))
    return fit, (n, dx, sx, sy, qxx, qxy)


def classify_regime(fit: RegressionFit, policy=TTestTolerance()) -> Regime:
    """Label the estimated growth coefficient B = fit.beta against 1.

    Proportional growth when the policy calls beta proportional (default:
    the two-sided t test of beta = 1 has a p-value of at least 5%);
    otherwise development when beta exceeds 1, under-development when it
    falls below. The comparison is literal, so a large negative beta still
    lands in under-development; sign is reported separately as co-movement
    direction.
    """
    if policy.proportional(fit):
        return Regime.PROPORTIONAL_GROWTH
    return Regime.DEVELOPMENT if fit.beta > 1.0 else Regime.UNDER_DEVELOPMENT


def killer_fit(killer: TimeSeries, victim: TimeSeries, policy=TTestTolerance()) -> KillerFit:
    """Fit log(killer) = alpha + B*log(victim) on year-aligned observations.

    Aligns the two series on year (inner join; restrict each first to fit
    a period), drops years where either level is non-positive, and runs
    OLS in natural-log space. Needs at least 3 usable aligned observations.
    """
    years = []
    log_k = []
    log_v = []
    dropped = 0
    for year, kv, vv in align_pair(killer, victim):
        if kv > 0.0 and vv > 0.0:
            years.append(year)
            log_k.append(math.log(kv))
            log_v.append(math.log(vv))
        else:
            dropped += 1
    if len(years) < 3:
        raise EstimationError(
            f"only {len(years)} aligned strictly-positive observations "
            f"(need 3); {dropped} dropped for non-positivity"
        )
    regression = ols_fit(log_v, log_k)
    regime = classify_regime(regression, policy)
    co_movement = "inverse" if regression.beta < 0 else "direct"
    return KillerFit(
        regression=regression,
        regime=regime,
        co_movement=co_movement,
        years_used=tuple(years),
        n_dropped=dropped,
    )


# logistic_fit's search interval for K and the sizes of its first and later scans
K_EPSILON = 1e-14
K_MAX_FACTOR = 50.0
K_GRID_SIZE = 384
K_NARROW_SIZE = 32


def logistic_fit(series: TimeSeries) -> LogisticParams:
    """Fit a logistic curve to a series by least squares on levels.

    One-dimensional search over the capacity K on (max(series)*(1+K_EPSILON),
    max(series)*K_MAX_FACTOR], over ln(K - max) so the sharp minimum near a
    saturated series stays resolvable: one scan of K_GRID_SIZE points finds
    the basin, then scans of K_NARROW_SIZE points between the best point's two
    neighbours narrow it until they lie within 1e-12 (8 to 10 narrowing scans,
    at most 704 candidates in all). Each scan runs in place in one (size, n)
    buffer, rounding each step as the plain numpy expression would (the same
    floats). For each candidate K, a and b come from closed-form OLS on
    ln(K-v) - ln(v) = a - b*t, every sum over the series alone taken once per
    fit; the objective, the sum of squared level residuals, is scored divided
    by max(series)**2 so that it neither overflows nor underflows. One
    overflow block, entered once per fit, covers the whole search: past the
    year check only exp(a - b*t) can overflow, and its inf gives the exact
    limit 0. Rising series give b > 0, declining ones b < 0.

    Non-positive observations are dropped; at least 4 must remain and the
    series must not be constant. The years must convert to floats whose
    centred sum of squares is positive and finite. The search interval must be
    representable: K_EPSILON*max a normal float and K_MAX_FACTOR*max finite
    (max from about 2.2e-294 to 3.6e306).
    """
    import numpy as np

    pts = [(y, v) for y, v in series.points if v > 0.0]
    if len(pts) < 4:
        raise EstimationError(f"need at least 4 strictly positive observations, got {len(pts)}")
    try:
        t, v = np.array(list(zip(*pts)), dtype=float)
    except OverflowError:
        raise EstimationError("a year overflows a float; shift the years") from None
    v_max = float(v.max())
    if v.min() == v_max:
        raise EstimationError("series is constant, no S-shaped growth to fit")
    if K_EPSILON * v_max < sys.float_info.min or math.isinf(K_MAX_FACTOR * v_max):
        raise EstimationError(f"series maximum {v_max!r} is outside the fittable range")
    n = len(v)
    steps = np.arange(K_GRID_SIZE, dtype=float)
    buffer = np.empty((K_GRID_SIZE, n))
    with np.errstate(over="ignore"):
        t_mean = np.add.reduce(t) / n
        dt = t - t_mean
        dt_dt = float(dt @ dt)
        if not 0.0 < dt_dt < math.inf:
            raise EstimationError("years have zero variance as floats, growth rate undefined"
                                  if dt_dt == 0.0 else "the years' spread overflows a float")
        log_v = np.log(v)
        log_v_dt = float(log_v @ dt)
        log_v_mean = np.add.reduce(log_v) / n
        w = v / v_max
        # gap = K - max(series); searched in log space
        lo, hi = math.log(K_EPSILON * v_max), math.log((K_MAX_FACTOR - 1.0) * v_max)
        size = K_GRID_SIZE
        while True:
            # np.linspace(lo, hi, size) by linspace's own arithmetic
            u = steps[:size] * ((hi - lo) / (size - 1))
            u += lo
            u[-1] = hi
            gaps = np.exp(u)
            K = (v_max + gaps)[:, None]
            # z holds ln(K - v), then the scaled prediction, then the residual
            z = buffer[:size]
            np.log(np.subtract(K, v, z), z)
            b = (log_v_dt - z @ dt) / dt_dt
            a = np.add.reduce(z, 1) / n - log_v_mean + b * t_mean
            np.multiply(b[:, None], t, z)
            np.subtract(a[:, None], z, z)
            np.exp(z, z)
            z += 1.0
            np.divide(K / v_max, z, z)
            np.subtract(w, z, z)
            best = int(np.einsum("ij,ij->i", z, z).argmin())
            lo, hi = float(u[max(best - 1, 0)]), float(u[min(best + 1, size - 1)])
            if hi - lo <= 1e-12:
                break
            size = K_NARROW_SIZE
    a, b = float(a[best]), float(b[best])
    if b == 0.0:
        raise EstimationError("degenerate fit: zero growth rate")
    return LogisticParams(K=v_max + float(gaps[best]), a=a, b=b)


def fisher_pry_fit(shares: TimeSeries) -> FisherPryFit:
    """Fit the substitution line ln(f/(1-f)) = intercept + slope*t.

    All share values must lie strictly in (0, 1). The half-substitution
    time t_half = -intercept/slope, where the fitted share crosses 1/2, is
    one correctly rounded ratio of exact sums. A zero slope, or a year or
    t_half beyond the float range, raises EstimationError.
    """
    for year, f in shares.points:
        if not (0.0 < f < 1.0):
            raise ValidationError(
                f"share at year {year} must lie strictly in (0, 1), got {f}"
            )
    logits = [math.log(f / (1.0 - f)) for f in shares.values]
    try:
        regression, (n, dx, sx, sy, qxx, qxy) = _ols([float(y) for y in shares.years], logits)
        if regression.beta == 0.0:
            raise EstimationError("share series has zero trend, t_half undefined")
        # -alpha/beta from the regression's exact sums, with dy cancelled
        t_half = (sx * qxy - sy * qxx) / (n * dx * qxy)
    except OverflowError:
        raise EstimationError("a year or t_half lies beyond the float range") from None
    return FisherPryFit(regression.beta, regression.alpha, t_half, regression)
