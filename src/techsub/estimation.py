"""Model fitting: simple OLS with diagnostics, the killer/victim log-log
regression, regime classification of the growth coefficient B, nonlinear
logistic fitting and the Fisher-Pry share-substitution fit.

All logarithms are natural. Non-positive observations are dropped from
log-space fits (and counted), never clamped.

The regression and its t tail are pure Python: sums are math.fsum, so
they are correctly rounded and the same on every CPU. numpy is imported
inside logistic_fit only, and no command loads it to fit a line.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

from .errors import EstimationError, ValidationError
from .growth import LogisticParams, logistic_value
from .ingest import TimeSeries, align_pair


@dataclass(frozen=True)
class RegressionFit:
    """Simple linear regression y = alpha + beta*x with full diagnostics.

    se_estimate is the residual standard error; r2_adj penalizes degrees
    of freedom; f_stat equals the squared slope t statistic (simple
    regression identity), so the F test and the two-sided slope t test on
    n - 2 degrees of freedom have one p value, stored in both p fields.
    """

    alpha: float
    beta: float
    se_alpha: float
    se_beta: float
    r2: float
    r2_adj: float
    se_estimate: float
    f_stat: float
    p_value_f: float
    p_value_beta: float
    n: int
    xs: tuple[float, ...]
    ys: tuple[float, ...]


class Regime(enum.Enum):
    """How fast the killer technology grows relative to the victim."""

    UNDER_DEVELOPMENT = "under-development"
    PROPORTIONAL_GROWTH = "proportional-growth"
    DEVELOPMENT = "development"


@dataclass(frozen=True)
class TTestTolerance:
    """Proportionality band from a two-sided t test of slope = 1."""

    alpha: float = 0.05

    def tolerance(self, fit: RegressionFit) -> float:
        return t_critical(self.alpha, fit.n - 2) * fit.se_beta


@dataclass(frozen=True)
class AbsoluteTolerance:
    """Fixed half-width band around slope = 1."""

    value: float = 0.05

    def tolerance(self, fit: RegressionFit) -> float:
        return self.value


DEFAULT_TOLERANCE = TTestTolerance()


@dataclass(frozen=True)
class KillerFit:
    """Result of regressing log killer level on log victim level."""

    regression: RegressionFit
    regime: Regime
    co_movement: str
    years_used: tuple[int, ...]
    n_dropped: int


@dataclass(frozen=True)
class FisherPryFit:
    """Straight-line fit of the log share odds ln(f/(1-f)) against time."""

    slope: float
    intercept: float
    t_half: float
    regression: RegressionFit


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


def t_tail(t: float, dof: int, beta: float | None = None) -> float:
    """Two-sided Student t tail P(|T| >= |t|) on integer dof >= 1.

    This is the regularised incomplete beta I_x(dof/2, 1/2) at
    x = dof/(dof + t^2). Near the centre, x >= (a + 1)/(a + 5/2) with
    a = dof/2, and for dof 1 at any t, it is one minus the finite sums of
    Abramowitz & Stegun 26.7.3/26.7.4; elsewhere it is the incomplete beta
    continued fraction (Lentz's method) times x^a sqrt(1 - x) / (a B(a, 1/2)).
    beta, if given, is B(dof/2, 1/2).
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
    if beta is None:
        beta = _beta_half(dof)
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
    return xa * math.sqrt(t2 / s) / (a * beta) * h


def _hill_start(alpha: float, dof: int) -> float:
    """Hill's approximation to t_critical (1970, CACM Algorithm 396);
    exact for dof 1 and 2."""
    if dof == 1:
        return 1.0 / math.tan(0.5 * math.pi * alpha)
    if dof == 2:
        return math.sqrt(2.0 / (alpha * (2.0 - alpha)) - 2.0)
    n = float(dof)
    a = 1.0 / (n - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(0.5 * math.pi * a) * n
    y = (d * alpha) ** (2.0 / n)
    if y > 0.05 + a:
        z = NormalDist().inv_cdf(1.0 - 0.5 * alpha)
        y = z * z
        if dof < 5:
            c += 0.3 * (n - 4.5) * (z + 0.6)
        c = (((0.05 * d * z - 5.0) * z - 7.0) * z - 2.0) * z + b + c
        y = (((((0.4 * y + 6.3) * y + 36.0) * y + 94.5) / c - y - 3.0) / b + 1.0) * z
        y = math.expm1(a * y * y)
    else:
        y = (
            (1.0 / (((n + 6.0) / (n * y) - 0.089 * d - 0.822) * (n + 2.0) * 3.0)
             + 0.5 / (n + 4.0)) * y - 1.0
        ) * (n + 1.0) / (n + 2.0) + 1.0 / y
    return math.sqrt(n * y)


def t_critical(alpha: float, dof: int) -> float:
    """The t > 0 with t_tail(t, dof) == alpha, for 0 < alpha < 1.

    Halley steps on t_tail from _hill_start, until a step is below 1e-6
    relative; the first two derivatives of the tail are closed-form, so
    each step costs one tail evaluation. One or two steps are usual.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"t test level alpha must lie in (0, 1), got {alpha}")
    beta = _beta_half(dof)
    n = float(dof)
    t = _hill_start(alpha, dof)
    for _ in range(20):
        s = n + t * t
        # tail' = -2 f(t) and tail'' = 2 f(t) (n + 1) t / s, f the density
        density = (n / s) ** (0.5 * (n + 1.0)) / (math.sqrt(n) * beta)
        newton = (t_tail(t, dof, beta) - alpha) / (2.0 * density)
        step = newton / max(1.0 - newton * (n + 1.0) * t / (2.0 * s), 0.5)
        t = max(t + step, 0.5 * t)
        if abs(step) <= 1e-6 * t:
            break
    return t


def ols_fit(xs: Sequence[float], ys: Sequence[float]) -> RegressionFit:
    """Ordinary least squares of ys on xs with diagnostics.

    Requires n >= 3 (residual degrees of freedom), finite values and
    non-degenerate xs. Perfect fits report se_estimate 0, infinite F and
    zero p values. Every sum is math.fsum, so the result does not depend
    on summation order. p_value_beta and p_value_f are the same number,
    t_tail of the slope's t statistic, since F = t^2.
    """
    x = [float(v) for v in xs]
    y = [float(v) for v in ys]
    n = len(x)
    if len(y) != n:
        raise EstimationError(f"xs and ys lengths differ ({n} vs {len(y)})")
    if n < 3:
        raise EstimationError(f"need at least 3 observations, got {n}")
    if not all(map(math.isfinite, x + y)):
        raise EstimationError("xs and ys must be finite (NaN or infinity found)")
    x_mean = math.fsum(x) / n
    y_mean = math.fsum(y) / n
    dx = [v - x_mean for v in x]
    dy = [v - y_mean for v in y]
    sxx = math.fsum([d * d for d in dx])
    if sxx == 0.0:
        raise EstimationError("xs have zero variance, slope undefined")
    sxy = math.fsum([u * v for u, v in zip(dx, dy)])
    sst = math.fsum([d * d for d in dy])

    beta = sxy / sxx
    alpha = y_mean - beta * x_mean
    sse = math.fsum([(v - (alpha + beta * u)) ** 2 for u, v in zip(x, y)])
    dof = n - 2

    r2 = 1.0 - sse / sst if sst > 0.0 else 1.0
    r2_adj = 1.0 - (1.0 - r2) * (n - 1) / dof
    se_estimate = math.sqrt(sse / dof)
    se_beta = se_estimate / math.sqrt(sxx)
    se_alpha = se_estimate * math.sqrt(1.0 / n + x_mean**2 / sxx)

    if se_beta > 0.0:
        t_beta = beta / se_beta
    else:
        t_beta = math.inf if beta != 0.0 else 0.0
    p_value = t_tail(t_beta, dof)

    return RegressionFit(
        alpha=alpha,
        beta=beta,
        se_alpha=se_alpha,
        se_beta=se_beta,
        r2=r2,
        r2_adj=r2_adj,
        se_estimate=se_estimate,
        f_stat=t_beta * t_beta,
        p_value_f=p_value,
        p_value_beta=p_value,
        n=n,
        xs=tuple(x),
        ys=tuple(y),
    )


def classify_regime(fit: RegressionFit, policy=None) -> Regime:
    """Label the estimated growth coefficient B = fit.beta against 1.

    Proportional growth when |beta - 1| falls inside the policy's band
    (default: two-sided t test at 5%), development when beta exceeds 1 by
    more than the band, under-development otherwise. The comparison is
    literal, so a large negative beta still lands in under-development;
    sign is reported separately as co-movement direction.
    """
    policy = policy or DEFAULT_TOLERANCE
    deviation = fit.beta - 1.0
    if abs(deviation) <= policy.tolerance(fit):
        return Regime.PROPORTIONAL_GROWTH
    if deviation > 0.0:
        return Regime.DEVELOPMENT
    return Regime.UNDER_DEVELOPMENT


def killer_fit(
    killer: TimeSeries,
    victim: TimeSeries,
    bounds: tuple[int, int] | None = None,
    policy=None,
) -> KillerFit:
    """Fit log(killer) = alpha + B*log(victim) on year-aligned observations.

    Aligns the two series on year (inner join, optionally restricted to
    bounds), drops years where either level is non-positive, and runs OLS
    in natural-log space. Needs at least 3 usable aligned observations.
    """
    years = []
    log_k = []
    log_v = []
    dropped = 0
    for year, kv, vv in align_pair(killer, victim, bounds):
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


# logistic_fit's search interval for K and the size of each scan
K_EPSILON = 1e-14
K_MAX_FACTOR = 50.0
K_GRID_SIZE = 384


def _logit_ols(np, gaps, t, v):
    """Closed-form (a, b, level SSE / max(v)**2) for each capacity K = max(v) + gap.

    gaps is an array of candidates; each result is an array with one entry
    per candidate, all computed in one (candidates x n) pass. np is the
    numpy module, passed in so that the search does not import per scan.
    """
    v_max = v.max()
    K = (v_max + gaps)[:, None]
    z = np.log((K - v) / v)
    t_mean = t.mean()
    z_mean = z.mean(axis=1)
    dt = t - t_mean
    b = -((z - z_mean[:, None]) @ dt) / float(dt @ dt)
    a = z_mean + b * t_mean
    # residuals at unit scale, so that the SSE neither overflows nor underflows
    with np.errstate(over="ignore"):
        pred = (K / v_max) / (
            1.0 + np.exp(np.clip(a[:, None] - b[:, None] * t, -700.0, 700.0))
        )
    resid = v / v_max - pred
    return a, b, np.einsum("ij,ij->i", resid, resid)


def logistic_fit(series: TimeSeries) -> LogisticParams:
    """Fit a logistic curve to a series by least squares on levels.

    One-dimensional search over the capacity K on
    (max(series)*(1+K_EPSILON), max(series)*K_MAX_FACTOR], over
    ln(K - max) so the sharp minimum near a saturated series stays
    resolvable: scan K_GRID_SIZE points, narrow to the best point's two
    neighbours and scan again, until they lie within 1e-12. For each
    candidate K the remaining parameters come from closed-form OLS on the
    logit-linearized data ln((K-v)/v) = a - b*t; the objective is the sum
    of squared level residuals. Rising series give b > 0, declining ones
    b < 0.

    Non-positive observations are dropped; at least 4 must remain and the
    series must not be constant (it has no S-shaped curve to fit). The
    search interval must be representable: K_EPSILON*max a normal float
    and K_MAX_FACTOR*max finite (max from about 2.2e-294 to 3.6e306).
    """
    import numpy as np

    pts = [(y, v) for y, v in series.points if v > 0.0]
    if len(pts) < 4:
        raise EstimationError(
            f"need at least 4 strictly positive observations, got {len(pts)}"
        )
    t = np.array([y for y, _ in pts], dtype=float)
    v = np.array([x for _, x in pts], dtype=float)
    if np.all(v == v[0]):
        raise EstimationError("series is constant, no S-shaped growth to fit")

    v_max = float(v.max())
    if K_EPSILON * v_max < sys.float_info.min or math.isinf(K_MAX_FACTOR * v_max):
        raise EstimationError(f"series maximum {v_max!r} is outside the fittable range")
    # gap = K - max(series); searched in log space
    lo = math.log(K_EPSILON * v_max)
    hi = math.log((K_MAX_FACTOR - 1.0) * v_max)
    while True:
        u = np.linspace(lo, hi, K_GRID_SIZE)
        gaps = np.exp(u)
        a, b, sse = _logit_ols(np, gaps, t, v)
        best = int(np.argmin(sse))
        lo = u[max(best - 1, 0)]
        hi = u[min(best + 1, K_GRID_SIZE - 1)]
        if hi - lo <= 1e-12:
            break

    a, b = float(a[best]), float(b[best])
    if b == 0.0:
        raise EstimationError("degenerate fit: zero growth rate")
    return LogisticParams(K=v_max + float(gaps[best]), a=a, b=b)


def logistic_sse(params: LogisticParams, series: TimeSeries) -> float:
    """Sum of squared level residuals of a logistic curve over a series."""
    return sum((v - logistic_value(params, y)) ** 2 for y, v in series.points)


def fisher_pry_fit(shares: TimeSeries) -> FisherPryFit:
    """Fit the substitution line ln(f/(1-f)) = intercept + slope*t.

    All share values must lie strictly in (0, 1). The half-substitution
    time t_half = -intercept/slope is where the fitted share crosses 1/2;
    a zero slope leaves it undefined and raises EstimationError.
    """
    for year, f in shares.points:
        if not (0.0 < f < 1.0):
            raise ValidationError(
                f"share at year {year} must lie strictly in (0, 1), got {f}"
            )
    years = [float(y) for y in shares.years]
    logits = [math.log(f / (1.0 - f)) for f in shares.values]
    regression = ols_fit(years, logits)
    if regression.beta == 0.0:
        raise EstimationError("share series has zero trend, t_half undefined")
    return FisherPryFit(
        slope=regression.beta,
        intercept=regression.alpha,
        t_half=-regression.alpha / regression.beta,
        regression=regression,
    )
