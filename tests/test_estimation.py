import contextlib
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import check_record, make_series
from techsub.errors import EstimationError, TechsubError, ValidationError
from techsub.estimation import (
    K_EPSILON,
    K_GRID_SIZE,
    K_MAX_FACTOR,
    K_NARROW_SIZE,
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
from techsub.growth import LogisticParams, logistic_value

np = pytest.importorskip("numpy")
stats = pytest.importorskip("scipy.stats")


def logistic_sse(params, series):
    """Sum of squared level residuals of a logistic curve over a series:
    the score the fit tests compare fits by."""
    return sum((v - logistic_value(params, y)) ** 2 for y, v in series.points)


def mpmath_t_tail(mp, t, dof):
    """Independent oracle: P(|T| >= |t|) on dof degrees of freedom as
    mpmath's regularised incomplete beta, at its working precision."""
    t, dof = mp.mpf(t), mp.mpf(dof)
    return mp.betainc(dof / 2, mp.mpf(1) / 2, 0, dof / (dof + t * t), regularized=True)


def brute_force_ols(xs, ys):
    """Independent oracle: assemble and solve the normal equations as
    matrices, diagnostics from raw residual sums."""
    X = np.column_stack([np.ones(len(xs)), np.asarray(xs, float)])
    y = np.asarray(ys, float)
    coef = np.linalg.solve(X.T @ X, X.T @ y)
    resid = y - X @ coef
    sse = float(resid @ resid)
    sst = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - sse / sst if sst > 0 else 1.0
    cov = sse / (len(xs) - 2) * np.linalg.inv(X.T @ X)
    return {
        "alpha": float(coef[0]),
        "beta": float(coef[1]),
        "r2": r2,
        "se_alpha": math.sqrt(cov[0, 0]),
        "se_beta": math.sqrt(cov[1, 1]),
    }


def six_scan_logistic_fit(series):
    """Reference: the capacity search as 384-point scans only (six per
    fit), each candidate scored by its own closed-form OLS on the logits
    ln((K-v)/v), narrowing to the best point's two neighbours until they
    lie within 1e-12."""
    t = np.array(series.years, dtype=float)
    v = np.array(series.values, dtype=float)
    v_max = v.max()
    lo = math.log(K_EPSILON * v_max)
    hi = math.log((K_MAX_FACTOR - 1.0) * v_max)
    while True:
        u = np.linspace(lo, hi, 384)
        gaps = np.exp(u)
        K = (v_max + gaps)[:, None]
        z = np.log((K - v) / v)
        z_mean = z.mean(axis=1)
        dt = t - t.mean()
        b = -((z - z_mean[:, None]) @ dt) / float(dt @ dt)
        a = z_mean + b * t.mean()
        with np.errstate(over="ignore"):
            pred = (K / v_max) / (
                1.0 + np.exp(np.clip(a[:, None] - b[:, None] * t, -700.0, 700.0))
            )
        resid = v / v_max - pred
        best = int(np.argmin(np.einsum("ij,ij->i", resid, resid)))
        lo, hi = u[max(best - 1, 0)], u[min(best + 1, 383)]
        if hi - lo <= 1e-12:
            break
    return LogisticParams(K=v_max + float(gaps[best]), a=float(a[best]), b=float(b[best]))


def reference_scan_fit(series):
    """Reference: logistic_fit's nested scans without the zoom, written with
    np.linspace, np.clip, .mean and a fresh array per step (the same scan
    sizes, arithmetic, bracket rule and stop), for a series that passes
    logistic_fit's checks."""
    pts = [(y, v) for y, v in series.points if v > 0.0]
    t = np.array([y for y, _ in pts], dtype=float)
    v = np.array([x for _, x in pts], dtype=float)
    v_max = float(v.max())
    t_mean = t.mean()
    dt = t - t_mean
    dt_dt = float(dt @ dt)
    log_v = np.log(v)
    log_v_dt = float(log_v @ dt)
    log_v_mean = log_v.mean()
    w = v / v_max
    lo = math.log(K_EPSILON * v_max)
    hi = math.log((K_MAX_FACTOR - 1.0) * v_max)
    size = K_GRID_SIZE
    while True:
        u = np.linspace(lo, hi, size)
        gaps = np.exp(u)
        K = (v_max + gaps)[:, None]
        log_k_minus_v = np.log(K - v)
        b = (log_v_dt - log_k_minus_v @ dt) / dt_dt
        a = log_k_minus_v.mean(axis=1) - log_v_mean + b * t_mean
        with np.errstate(over="ignore"):
            pred = (K / v_max) / (
                1.0 + np.exp(np.clip(a[:, None] - b[:, None] * t, -700.0, 700.0))
            )
        resid = w - pred
        best = int(np.argmin(np.einsum("ij,ij->i", resid, resid)))
        lo = u[max(best - 1, 0)]
        hi = u[min(best + 1, size - 1)]
        if hi - lo <= 1e-12:
            break
        size = K_NARROW_SIZE
    return LogisticParams(K=v_max + float(gaps[best]), a=float(a[best]), b=float(b[best]))


def assert_matches_the_reference(series):
    """logistic_fit against reference_scan_fit on one series: the SSE of the
    series divided by its max no worse than the reference's beyond
    rounding, K and b within 1e-6 of the reference's, b of the same sign."""
    fit, ref = logistic_fit(series), reference_scan_fit(series)
    v_max = max(series.values)

    def scaled_sse(params):
        return sum(((v - logistic_value(params, y)) / v_max) ** 2 for y, v in series.points)

    assert scaled_sse(fit) <= scaled_sse(ref) * (1 + 1e-9) + 1e-24, series
    assert abs(fit.K / ref.K - 1) <= 1e-6 and abs(fit.b / ref.b - 1) <= 1e-6, series
    assert math.copysign(1.0, fit.b) == math.copysign(1.0, ref.b), series


def stage_series(rng, stage):
    """(series, truth, noise): a rising series on years 0..n-1, n 15 to 56,
    K 1 to 1e6, multiplicative noise sigma 0 or up to 0.1. early: the
    window ends before the inflection; inflection: it lies in the middle
    half; saturated: the window starts just before it and ends on the
    plateau."""
    n = int(rng.integers(15, 57))
    span = n - 1
    K = 10 ** rng.uniform(0, 6)
    noise = (0.0, rng.uniform(0.0, 0.1))[int(rng.integers(2))]
    if stage == "early":
        b = rng.uniform(3.0, 10.0) / span
        t_infl = span + rng.uniform(1.0, 4.0) / b
    elif stage == "inflection":
        b = rng.uniform(6.0, 20.0) / span
        t_infl = rng.uniform(0.25, 0.75) * span
    else:
        t_infl = rng.uniform(0.05, 0.25) * span
        b = rng.uniform(15.0, 45.0) / (span - t_infl)
        t_infl = max(t_infl, 1.0 / b)
    truth = LogisticParams(K=K, a=b * t_infl, b=b)
    eps = noise * rng.standard_normal(n)
    points = [(t, logistic_value(truth, t) * math.exp(eps[t])) for t in range(n)]
    return make_series(points), truth, noise


def make_fit(beta, se_beta, n):
    """RegressionFit shell for classification tests (only beta, se, n matter)."""
    return RegressionFit(
        alpha=0.0,
        beta=beta,
        se_alpha=0.0,
        se_beta=se_beta,
        r2=0.9,
        r2_adj=0.9,
        se_estimate=0.1,
        f_stat=(beta / se_beta) ** 2 if se_beta else math.inf,
        p_value_f=0.001,
        p_value_beta=0.001,
        n=n,
        xs=(),
        ys=(),
    )


class TestRecords:
    def test_result_records_are_values(self):
        regression = check_record(RegressionFit, **make_fit(1.5, 0.1, 10)._asdict())
        check_record(
            KillerFit, regression=regression, regime=Regime.DEVELOPMENT,
            co_movement="direct", years_used=(2000, 2001, 2002), n_dropped=0,
        )
        check_record(FisherPryFit, slope=0.5, intercept=-2.0, t_half=4.0, regression=regression)
        check_record(TTestTolerance, alpha=0.01)
        check_record(AbsoluteTolerance, value=0.1)

    def test_tolerance_defaults(self):
        assert TTestTolerance().alpha == 0.05
        assert AbsoluteTolerance().value == 0.05


class TestOlsFit:
    def test_perfect_line(self):
        fit = ols_fit([1, 2, 3], [2, 4, 6])
        assert fit.beta == pytest.approx(2.0)
        assert fit.alpha == pytest.approx(0.0, abs=1e-14)
        assert fit.r2 == pytest.approx(1.0)
        assert fit.se_estimate == pytest.approx(0.0, abs=1e-13)
        assert fit.p_value_beta == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_instance(self):
        # normal-equations oracle, worked by hand: beta = Sxy/Sxx = 3/2,
        # alpha = 10/3 - 1.5*2 = 1/3, SSE = 1/6, r2 = 27/28
        fit = ols_fit([1, 2, 3], [2, 3, 5])
        assert fit.beta == pytest.approx(1.5, rel=1e-12)
        assert fit.alpha == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert fit.r2 == pytest.approx(27.0 / 28.0, rel=1e-12)
        sse = fit.se_estimate**2 * (fit.n - 2)
        assert sse == pytest.approx(1.0 / 6.0, rel=1e-9)
        assert fit.r2_adj == pytest.approx(1 - (1 - 27 / 28) * 2 / 1, rel=1e-12)
        assert fit.f_stat == pytest.approx(27.0, rel=1e-9)

    def test_degenerate_x_rejected(self):
        with pytest.raises(EstimationError, match="zero variance"):
            ols_fit([1, 1, 1], [2, 3, 4])

    def test_too_few_observations(self):
        with pytest.raises(EstimationError, match="at least 3"):
            ols_fit([1, 2], [2, 3])

    def test_unequal_lengths_rejected(self):
        with pytest.raises(EstimationError) as caught:
            ols_fit([1, 2, 3], [1, 2])
        assert str(caught.value) == "xs and ys lengths differ (3 vs 2)"

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(3, 50))
            xs = rng.uniform(-10, 10, n)
            if np.ptp(xs) == 0:
                continue
            ys = rng.uniform(-10, 10, n)
            fit = ols_fit(xs, ys)
            oracle = brute_force_ols(xs, ys)
            assert fit.alpha == pytest.approx(oracle["alpha"], abs=1e-9)
            assert fit.beta == pytest.approx(oracle["beta"], abs=1e-9)
            assert fit.r2 == pytest.approx(oracle["r2"], abs=1e-9)
            assert fit.se_alpha == pytest.approx(oracle["se_alpha"], abs=1e-9)
            assert fit.se_beta == pytest.approx(oracle["se_beta"], abs=1e-9)

    def test_f_equals_squared_t_and_p_values_agree(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            fit = ols_fit(rng.uniform(-5, 5, n), rng.uniform(-5, 5, n))
            t = fit.beta / fit.se_beta
            assert fit.f_stat == pytest.approx(t * t, rel=1e-9)
            assert fit.p_value_f == pytest.approx(fit.p_value_beta, rel=1e-9)
            assert 0.0 <= fit.p_value_beta <= 1.0
            assert fit.r2_adj <= fit.r2 <= 1.0

    @pytest.mark.parametrize(
        "xs, ys, p_expected",
        [
            ([0, 1, 2], [1, 3, 5], 0.0),  # perfect fit, dof 1
            ([0, 1, 2, 3, 4], [1, 3, 5, 7, 9], 0.0),  # perfect fit
            ([1, 2, 3, 4], [1, 2, 2, 1], 1.0),  # zero slope
            ([1, 2, 3], [2, 3, 5], None),  # dof 1
        ],
    )
    def test_p_values_at_the_edges_match_scipy_stats(self, xs, ys, p_expected):
        fit = ols_fit(xs, ys)
        if p_expected is None:
            # dof 1 is the Cauchy law: P(|T| >= |t|) = (2/pi) atan(1/|t|)
            closed = 2.0 / math.pi * math.atan(1.0 / abs(fit.beta / fit.se_beta))
            assert fit.p_value_beta == fit.p_value_f
            assert abs(fit.p_value_beta - closed) <= 2 * math.ulp(closed)
            return
        assert fit.p_value_beta == p_expected
        assert fit.p_value_f == p_expected
        if fit.se_beta > 0.0:
            t = fit.beta / fit.se_beta
        else:
            t = math.inf if fit.beta else 0.0
        assert fit.p_value_beta == float(2.0 * stats.t.sf(abs(t), fit.n - 2))
        assert fit.p_value_f == float(stats.f.sf(fit.f_stat, 1, fit.n - 2))

    def test_p_values_match_scipy_stats(self):
        # one t tail feeds both p values (F = t^2); scipy.stats is the oracle
        rng = np.random.default_rng(2024)
        for _ in range(400):
            n = int(rng.integers(3, 60))
            xs = rng.uniform(-5, 5, n)
            noise = rng.standard_normal(n) * 10.0 ** rng.uniform(-4, 1)
            fit = ols_fit(xs, rng.uniform(-2, 2) * xs + noise)
            t = fit.beta / fit.se_beta
            assert fit.p_value_f == fit.p_value_beta
            want = float(2.0 * stats.t.sf(abs(t), n - 2))
            assert fit.p_value_beta == pytest.approx(want, rel=2e-14, abs=0.0)

    def test_p_values_match_mpmath(self):
        mp = pytest.importorskip("mpmath")
        from techsub.estimation import t_tail

        rng = np.random.default_rng(88)
        cases = [
            (float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, math.log10(300))),
             int(rng.integers(1, 61)))
            for _ in range(1000)
        ]
        # far tails, down to p of about 1e-300
        cases += [(t, dof) for dof in (1, 2, 3, 7, 30, 60) for t in (1e3, 1e6, 1e12, 1e50, 1e150)]
        with mp.workdps(40):
            for t, dof in cases:
                want = mpmath_t_tail(mp, t, dof)
                if want < mp.mpf("1e-300"):
                    continue
                assert abs(t_tail(t, dof) / want - 1) <= 1e-14, (t, dof)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=30),
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.integers(0, 29),
        st.booleans(),
    )
    def test_non_finite_input_rejected(self, values, bad, index, in_xs):
        clean = list(range(len(values)))
        dirty = list(values)
        dirty[index % len(dirty)] = bad
        xs, ys = (dirty, values) if in_xs else (clean, dirty)
        with pytest.raises(EstimationError, match="finite"):
            ols_fit(xs, ys)

    @given(
        st.lists(st.floats(-10, 10), min_size=3, max_size=30),
        st.floats(-100, 100),
    )
    def test_shifting_ys_moves_only_alpha(self, ys, d):
        xs = list(range(len(ys)))
        base = ols_fit(xs, ys)
        shifted = ols_fit(xs, [y + d for y in ys])
        assert shifted.alpha == pytest.approx(base.alpha + d, abs=1e-8)
        assert shifted.beta == pytest.approx(base.beta, abs=1e-9)

    @given(
        st.lists(st.floats(-10, 10), min_size=3, max_size=30),
        st.floats(0.01, 100),
    )
    def test_scaling_xs_divides_beta(self, ys, c):
        xs = list(range(1, len(ys) + 1))
        base = ols_fit(xs, ys)
        assume(base.r2 < 1.0)
        scaled = ols_fit([x * c for x in xs], ys)
        assert scaled.beta == pytest.approx(base.beta / c, rel=1e-9, abs=1e-12)
        assert scaled.r2 == pytest.approx(base.r2, rel=1e-9, abs=1e-12)


class TestClassifyRegime:
    # (beta, printed standard error, observation count of the period)
    PAPER_CASES = [
        ("farm tractor", -1.42, 0.08, 41, Regime.UNDER_DEVELOPMENT),
        ("thermoelectric", 1.46, 0.08, 56, Regime.DEVELOPMENT),
        ("diesel tractor", -0.76, 0.18, 17, Regime.UNDER_DEVELOPMENT),
        ("cd", 2.1, 0.55, 25, Regime.DEVELOPMENT),
        ("streaming", -1.28, 0.08, 15, Regime.UNDER_DEVELOPMENT),
    ]

    @pytest.mark.parametrize("name,beta,se,n,expected", PAPER_CASES)
    def test_literal_comparison_against_one(self, name, beta, se, n, expected):
        fit = make_fit(beta, se, n)
        assert classify_regime(fit, AbsoluteTolerance(0.05)) is expected

    def test_exact_unity_is_proportional_under_any_policy(self):
        for se in (0.0, 0.1, 10.0):
            fit = make_fit(1.0, se, 20)
            assert classify_regime(fit) is Regime.PROPORTIONAL_GROWTH
            assert classify_regime(fit, AbsoluteTolerance(0.0)) is Regime.PROPORTIONAL_GROWTH

    def test_t_test_decision_matches_mpmath(self):
        # B just inside / just outside 1 +- t* se, with t* the mpmath root of
        # the two-sided tail at level alpha
        mp = pytest.importorskip("mpmath")
        se, margin = mp.mpf(0.17), mp.mpf(1e-12)
        sides = ((1, Regime.DEVELOPMENT), (-1, Regime.UNDER_DEVELOPMENT))
        with mp.workdps(40):
            for alpha in (0.001, 0.01, 0.05, 0.1, 0.5):
                for n in (3, 4, 5, 10, 31, 56, 200):
                    t_crit = mp.findroot(
                        lambda t: mpmath_t_tail(mp, t, n - 2) - alpha,
                        float(stats.t.ppf(1.0 - alpha / 2.0, n - 2)),
                    )
                    for sign, beyond in sides:
                        for scale, expected in (
                            (1 - margin, Regime.PROPORTIONAL_GROWTH), (1 + margin, beyond),
                        ):
                            beta = float(1 + sign * t_crit * se * scale)
                            got = classify_regime(make_fit(beta, 0.17, n), TTestTolerance(alpha))
                            assert got is expected, (alpha, n, sign, scale)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, math.nan])
    def test_t_test_level_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValidationError, match=r"alpha must lie in \(0, 1\)"):
            classify_regime(make_fit(1.3, 0.17, 31), TTestTolerance(alpha))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.1])
    def test_absolute_tolerance_outside_range_rejected(self, value):
        # B is exactly 1, so a NaN or negative band would call it
        # under-development and an infinite one anything proportional
        fit = ols_fit([1, 2, 3, 4], [1, 2, 3, 4])
        with pytest.raises(ValidationError) as caught:
            classify_regime(fit, AbsoluteTolerance(value))
        assert str(caught.value) == f"tolerance must be finite and >= 0, got {value}"

    def test_t_test_policy_depends_on_precision(self):
        # same point estimate, different standard errors
        assert classify_regime(make_fit(1.46, 0.08, 56)) is Regime.DEVELOPMENT
        assert classify_regime(make_fit(1.46, 0.50, 56)) is Regime.PROPORTIONAL_GROWTH

    def test_imprecise_large_beta_is_proportional_under_t_test(self):
        # |2.1 - 1| / 0.55 = 2.0 misses the 5% critical value on 23 dof,
        # so the default policy refuses to call it development
        assert classify_regime(make_fit(2.1, 0.55, 25)) is Regime.PROPORTIONAL_GROWTH

    @given(
        st.floats(-4, 4),
        st.floats(-4, 4),
        st.floats(0.001, 2),
        st.integers(3, 60),
    )
    def test_monotone_in_beta(self, b1, b2, se, n):
        order = {
            Regime.UNDER_DEVELOPMENT: 0,
            Regime.PROPORTIONAL_GROWTH: 1,
            Regime.DEVELOPMENT: 2,
        }
        lo, hi = min(b1, b2), max(b1, b2)
        r_lo = classify_regime(make_fit(lo, se, n))
        r_hi = classify_regime(make_fit(hi, se, n))
        assert order[r_lo] <= order[r_hi]


class TestKillerFit:
    def test_exact_power_law(self):
        # Kl = e^2 * V^3 sampled at V = 1..10
        years = range(2000, 2010)
        victim = make_series([(y, float(v)) for y, v in zip(years, range(1, 11))], "victim")
        killer = make_series(
            [(y, math.exp(2.0) * v**3) for y, (_, v) in zip(years, victim.points)],
            "killer",
        )
        fit = killer_fit(killer, victim)
        assert fit.regression.beta == pytest.approx(3.0, rel=1e-12)
        assert fit.regression.alpha == pytest.approx(2.0, rel=1e-12)
        assert fit.regression.r2 == pytest.approx(1.0, rel=1e-12)
        assert fit.regime is Regime.DEVELOPMENT
        assert fit.co_movement == "direct"
        assert fit.n_dropped == 0
        assert fit.years_used == tuple(years)

    def test_logistic_pair_small_value_regime(self):
        victim_p = LogisticParams(K=100, a=5, b=0.5)
        killer_p = LogisticParams(K=200, a=8, b=1.0)
        years = range(0, 6)  # both levels below 10% of capacity here
        victim = make_series([(t, logistic_value(victim_p, t)) for t in years], "v")
        killer = make_series([(t, logistic_value(killer_p, t)) for t in years], "k")
        fit = killer_fit(killer, victim)
        assert fit.regression.beta == pytest.approx(killer_p.b / victim_p.b, rel=0.05)

    def test_non_positive_observations_dropped(self):
        victim = make_series([(1, 1.0), (2, 0.0), (3, 3.0), (4, 4.0)], "v")
        killer = make_series([(1, 2.0), (2, 5.0), (3, 6.0), (4, 9.0)], "k")
        fit = killer_fit(killer, victim)
        assert fit.n_dropped == 1
        assert fit.years_used == (1, 3, 4)
        assert fit.regression.n == 3

    def test_too_few_usable_observations(self):
        victim = make_series([(1, 1.0), (2, 0.0), (3, 3.0)], "v")
        killer = make_series([(1, 2.0), (2, 5.0), (3, 6.0)], "k")
        with pytest.raises(EstimationError, match="aligned strictly-positive"):
            killer_fit(killer, victim)

    @pytest.mark.parametrize("c", [0.5, 2.0, 1000.0])
    def test_scaling_killer_shifts_alpha_by_log_c(self, c):
        years = range(1990, 1999)
        victim = make_series([(y, 2.0 + 0.3 * i) for i, y in enumerate(years)], "v")
        killer = make_series([(y, 5.0 * 1.3**i) for i, y in enumerate(years)], "k")
        base = killer_fit(killer, victim)
        scaled_killer = make_series([(y, v * c) for y, v in killer.points], "k")
        scaled = killer_fit(scaled_killer, victim)
        assert scaled.regression.alpha == pytest.approx(
            base.regression.alpha + math.log(c), rel=1e-9
        )
        assert scaled.regression.beta == pytest.approx(base.regression.beta, rel=1e-9)
        assert scaled.regression.r2 == pytest.approx(base.regression.r2, rel=1e-9)
        assert scaled.regime is base.regime


# the capacity search may overflow only in exp(a - b*t) inside its errstate
# block, where inf gives the exact limit 0; any other numpy warning fails
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestLogisticFit:
    @pytest.mark.parametrize(
        "K,a,b,t0,t1",
        [
            (100.0, 5.0, 0.5, 0, 20),
            (1000.0, 4.0, 0.25, 0, 40),
            (3.5, 8.0, 0.9, 0, 25),
            (250.0, -2.0, 0.3, 0, 30),
        ],
    )
    def test_recovers_exact_samples(self, K, a, b, t0, t1):
        truth = LogisticParams(K=K, a=a, b=b)
        series = make_series(
            [(t, logistic_value(truth, t)) for t in range(t0, t1 + 1)], "s"
        )
        fit = logistic_fit(series)
        assert fit.K == pytest.approx(K, rel=0.005)
        assert fit.a == pytest.approx(a, rel=0.005)
        assert fit.b == pytest.approx(b, rel=0.005)
        assert logistic_sse(fit, series) <= 1e-12 * K * K

    def test_constant_series_rejected(self):
        series = make_series([(t, 5.0) for t in range(4)], "flat")
        with pytest.raises(EstimationError, match="constant"):
            logistic_fit(series)

    @pytest.mark.parametrize(
        "K,a,b,t0,t1",
        [
            (100.0, 5.0, 0.5, 0, 20),
            (1000.0, 4.0, 0.25, 0, 40),
            (3.5, 8.0, 0.9, 0, 25),
            (250.0, -2.0, 0.3, 0, 30),
            (42.0, 6.0, 0.45, 0, 29),
            (7.25, 3.1, 0.18, 0, 60),
            (1e6, 12.0, 1.5, 0, 22),
        ],
    )
    def test_recovers_declining_samples(self, K, a, b, t0, t1):
        # criterion 5's curves mirrored in time: same a, growth rate -b
        truth = LogisticParams(K=K, a=a, b=-b)
        series = make_series(
            [(t, logistic_value(truth, t)) for t in range(-t1, -t0 + 1)], "down"
        )
        fit = logistic_fit(series)
        assert fit.K == pytest.approx(K, rel=0.005)
        assert fit.a == pytest.approx(a, rel=0.005)
        assert fit.b == pytest.approx(-b, rel=0.005)

    def test_overflowing_search_interval_stops(self):
        # 49 * max(series) overflows to infinity; the search must end
        series = make_series([(t, 1e307 * (1 + t)) for t in range(6)], "huge")
        with np.errstate(invalid="ignore"), pytest.raises(TechsubError):
            logistic_fit(series)

    @pytest.mark.parametrize("exponent", range(-294, 301, 6))
    def test_fit_scales_with_the_series(self, exponent):
        # the level SSE at 10**exponent would overflow or underflow if it
        # were scored at the series' own scale
        line = [(t, float(t + 1)) for t in range(6)]
        scale = float(f"1e{exponent}")
        base = logistic_fit(make_series(line, "s"))
        fit = logistic_fit(make_series([(t, scale * v) for t, v in line], "s"))
        assert fit.K / scale == pytest.approx(base.K, rel=1e-6)
        assert fit.a == pytest.approx(base.a, rel=1e-6)
        assert fit.b == pytest.approx(base.b, rel=1e-6)

    @pytest.mark.parametrize("scale", [1e-295, 1e-311, 1e307, 3.6e306])
    def test_unsearchable_magnitudes_rejected(self, scale):
        series = make_series([(t, scale * (1 + t) / 6) for t in range(6)], "s")
        with pytest.raises(EstimationError, match="outside the fittable range"):
            logistic_fit(series)

    def test_zero_growth_rate_rejected(self):
        # a symmetric hump: the best fit over the capacity search is flat
        series = make_series([(0, 1.0), (1, 2.0), (2, 2.0), (3, 1.0)], "hump")
        with pytest.raises(EstimationError) as caught:
            logistic_fit(series)
        assert str(caught.value) == "degenerate fit: zero growth rate"

    @pytest.mark.parametrize("years", [range(4), range(-3, 1)], ids=["valley", "mirrored"])
    def test_flat_valley_rejected(self, years):
        # the best fit moves by about 3e-17 over the years, under one rounding step
        series = make_series(zip(years, [2.0, 1.0, 1.0, 2.0]), "valley")
        with pytest.raises(EstimationError) as caught:
            logistic_fit(series)
        assert str(caught.value) == "degenerate fit: zero growth rate"

    def test_too_few_positive_observations(self):
        series = make_series([(0, 0.0), (1, 0.0), (2, 1.0), (3, 2.0)], "sparse")
        with pytest.raises(EstimationError, match="at least 4"):
            logistic_fit(series)

    @pytest.mark.parametrize(
        "years,message",
        [
            ([10**400 + i for i in range(6)], "a year overflows a float; shift the years"),
            # every 2**60 + i rounds to the one float 2**60
            ([2**60 + i for i in range(6)],
             "years have zero variance as floats, growth rate undefined"),
            # the centred sum of squares is about 1.75e601
            ([10**300 * i for i in range(6)], "the years' spread overflows a float"),
        ],
        ids=["beyond-floats", "one-float", "spread-overflows"],
    )
    def test_years_that_floats_cannot_hold_are_estimation_failures(self, years, message):
        series = make_series(list(zip(years, [1.0, 2.0, 4.0, 7.0, 9.0, 9.8])))
        with pytest.raises(EstimationError) as caught:
            logistic_fit(series)
        assert type(caught.value) is EstimationError and str(caught.value) == message

    @pytest.mark.parametrize(
        "points,error",
        [
            ([(t, float(t + 1)) for t in range(6)], None),
            # exp(a - b*t) overflows to inf at some candidates
            ([(t, 10.0 ** (-300 + 75 * t)) for t in range(9)], None),
            ([(t, 5.0) for t in range(4)], "constant"),
            ([(t, 1e-311 * (1 + t)) for t in range(6)], "outside the fittable range"),
            ([(2**60 + t, float(t + 1)) for t in range(6)], "zero variance"),
        ],
        ids=["fits", "fits-past-exp-overflow", "constant", "unfittable-range", "one-float-year"],
    )
    def test_numpy_error_state_is_as_before(self, points, error):
        before = np.geterr()
        with pytest.raises(EstimationError, match=error) if error else contextlib.nullcontext():
            logistic_fit(make_series(points))
        assert np.geterr() == before

    @given(
        st.floats(min_value=0.5, max_value=1e4),
        st.floats(min_value=-10.0, max_value=20.0),
        st.floats(min_value=0.05, max_value=2.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_recovery_property_over_valid_params(self, K, a, b):
        truth = LogisticParams(K=K, a=a, b=b)
        t0 = math.floor(truth.t_inflection) - 10
        series = make_series(
            [(t, logistic_value(truth, t)) for t in range(t0, t0 + 25)], "s"
        )
        fit = logistic_fit(series)
        assert fit.K == pytest.approx(K, rel=0.005)
        assert fit.b == pytest.approx(b, rel=0.005)

    def test_noisy_recovery_within_5_percent(self):
        # 1% multiplicative noise, n = 30, fixed seed
        truth = LogisticParams(K=100, a=5, b=0.5)
        rng = np.random.default_rng(1234)
        noise = rng.standard_normal(30)
        series = make_series(
            [
                (t, logistic_value(truth, t) * math.exp(0.01 * noise[t]))
                for t in range(30)
            ],
            "noisy",
        )
        fit = logistic_fit(series)
        assert fit.K == pytest.approx(100.0, rel=0.05)
        # frozen regression pin for the fixed seed
        assert fit.K == pytest.approx(100.94817043989518, rel=1e-9)

    @pytest.mark.parametrize("seed", range(20))
    def test_noisy_fit_is_no_worse_than_a_dense_grid(self, seed):
        # oracle: the best of 4096 log-spaced gaps K - max over the same
        # interval, with a and b from np.polyfit on the logits
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 41))
        sigma = (0.01, 0.05)[seed % 2]
        b = rng.uniform(0.1, 1.0)
        truth = LogisticParams(K=10 ** rng.uniform(0, 4), a=b * rng.uniform(5, n), b=b)
        noise = rng.standard_normal(n)
        series = make_series(
            [(t, logistic_value(truth, t) * math.exp(sigma * noise[t])) for t in range(n)]
        )
        t = np.arange(n, dtype=float)
        v = np.array(series.values)
        v_max = v.max()
        K = v_max + np.geomspace(K_EPSILON * v_max, (K_MAX_FACTOR - 1) * v_max, 4096)
        slope, intercept = np.polyfit(t, np.log((K[None, :] - v[:, None]) / v[:, None]), 1)
        pred = K / (1 + np.exp(intercept + slope * t[:, None]))
        grid_best = float(((v[:, None] - pred) ** 2).sum(axis=0).min())
        assert logistic_sse(logistic_fit(series), series) <= (1 + 1e-9) * grid_best

    @pytest.mark.parametrize("stage", ["early", "inflection", "saturated"])
    def test_no_worse_than_full_scans(self, stage):
        # 120 seeded series per stage, each also mirrored in time (b < 0);
        # the truth is recoverable when noise-free with the inflection in
        # the window and the top level below K * (1 - 1e-14)
        rng = np.random.default_rng(["early", "inflection", "saturated"].index(stage))
        for _ in range(120):
            rising, truth, noise = stage_series(rng, stage)
            falling = make_series([(-t, v) for t, v in reversed(rising.points)])
            v_max = max(rising.values)
            identifiable = (
                noise == 0.0
                and 0 <= truth.t_inflection <= rising.years[-1]
                and v_max < truth.K * (1 - 1e-14)
            )
            for series, sign in ((rising, 1.0), (falling, -1.0)):
                fit, ref = logistic_fit(series), six_scan_logistic_fit(series)
                assert logistic_sse(fit, series) <= (
                    logistic_sse(ref, series) * (1 + 1e-6) + 1e-24 * v_max**2
                ), series
                assert all(map(math.isfinite, fit)) and fit.K > v_max and ref.K > v_max
                assert math.copysign(1.0, fit.b) == math.copysign(1.0, ref.b) == sign
                if identifiable:
                    assert fit.K == pytest.approx(truth.K, rel=0.005)
                    assert fit.a == pytest.approx(truth.a, rel=0.005)
                    assert fit.b == pytest.approx(sign * truth.b, rel=0.005)

    def test_zoomed_search_scans_at_most_once_more_than_the_nested_one(self, monkeypatch):
        # one np.einsum per scan, counted over test_no_worse_than_full_scans'
        # 720 series: a zoomed window whose best candidate is an end point is
        # rescanned as its whole bracket, and zooming stops for that fit
        einsum, calls = np.einsum, []
        monkeypatch.setattr(np, "einsum", lambda *args: calls.append(1) or einsum(*args))

        def scans(fit, series):
            calls.clear()
            fit(series)
            return len(calls)

        extra = {}
        for i, stage in enumerate(["early", "inflection", "saturated"]):
            rng = np.random.default_rng(i)
            for j in range(120):
                rising = stage_series(rng, stage)[0]
                falling = make_series([(-t, v) for t, v in reversed(rising.points)])
                for series, sign in ((rising, 1), (falling, -1)):
                    extra[stage, j, sign] = (
                        scans(logistic_fit, series) - scans(reference_scan_fit, series)
                    )
        assert max(extra.values()) <= 1
        # the 26th saturated series, both ways: its first zoomed window misses,
        # so it takes 12 scans where the nested search takes 11
        assert extra["saturated", 25, 1] == extra["saturated", 25, -1] == 1

    @pytest.mark.parametrize("seed", [34, 116, 123, 141, 168, 389])
    def test_first_scan_finds_the_basin_of_a_multimodal_sse(self, seed):
        # at 30% noise the level SSE over K has more than one basin: with a
        # 32-point first scan the search narrows into one at about half the
        # true K, with an SSE 0.1% to 10% above the best
        truth = LogisticParams(K=1e4, a=40.0, b=0.8)
        noise = np.exp(0.3 * np.random.default_rng(seed).standard_normal(51))
        series = make_series([(t, logistic_value(truth, t) * noise[t]) for t in range(51)])
        best = logistic_sse(six_scan_logistic_fit(series), series)
        assert logistic_sse(logistic_fit(series), series) <= (1 + 1e-9) * best

    @pytest.mark.parametrize("stage", ["early", "inflection", "saturated"])
    def test_scan_is_bit_identical_to_the_reference(self, stage):
        # 120 seeded series per stage, each also mirrored in time; the zoomed
        # scans must land where the reference's nested scans do
        rng = np.random.default_rng(100 + ["early", "inflection", "saturated"].index(stage))
        for _ in range(120):
            rising = stage_series(rng, stage)[0]
            falling = make_series([(-t, v) for t, v in reversed(rising.points)])
            for series in (rising, falling):
                assert_matches_the_reference(series)

    def test_multimodal_and_rescaled_scans_are_bit_identical_to_the_reference(self):
        truth = LogisticParams(K=1e4, a=40.0, b=0.8)
        cases = []
        for seed in [34, 116, 123, 141, 168, 389]:
            noise = np.exp(0.3 * np.random.default_rng(seed).standard_normal(51))
            cases.append([(t, logistic_value(truth, t) * noise[t]) for t in range(51)])
        for exponent in range(-294, 301, 6):
            cases.append([(t, float(f"1e{exponent}") * (t + 1)) for t in range(6)])
        # levels over 320 and 600 decades: a - b*t passes 709 at some
        # candidates, so exp overflows to inf and the prediction is exactly 0
        cases.append([(t, 10.0 ** (-300 + 40 * t)) for t in range(9)])
        cases.append([(t, 10.0 ** (-300 + 75 * t)) for t in range(9)])
        for points in cases:
            assert_matches_the_reference(make_series(points))

    def test_parameters_are_python_floats(self):
        truth = LogisticParams(K=100.0, a=5.0, b=0.5)
        series = make_series([(t, logistic_value(truth, t)) for t in range(21)], "s")
        fit = logistic_fit(series)
        assert [type(fit.K), type(fit.a), type(fit.b)] == [float, float, float]

    def test_search_settings_are_not_parameters(self):
        import inspect

        assert list(inspect.signature(logistic_fit).parameters) == ["series"]


class TestFisherPry:
    def test_exact_logistic_share(self):
        pts = [(t, 1.0 / (1.0 + math.exp(-(t - 5)))) for t in range(0, 11)]
        fit = fisher_pry_fit(make_series(pts, "share"))
        assert fit.slope == pytest.approx(1.0, rel=1e-9)
        assert fit.t_half == pytest.approx(5.0, abs=1e-9)
        assert fit.regression.r2 == pytest.approx(1.0, abs=1e-9)

    def test_symmetric_three_point_logits(self):
        fit = fisher_pry_fit(make_series([(0, 0.1), (1, 0.5), (2, 0.9)], "share"))
        assert fit.slope == pytest.approx(math.log(9.0), rel=1e-12)
        assert fit.t_half == pytest.approx(1.0, abs=1e-12)

    def test_constant_share_rejected(self):
        with pytest.raises(EstimationError, match="zero trend"):
            fisher_pry_fit(make_series([(0, 0.5), (1, 0.5), (2, 0.5)], "share"))

    @pytest.mark.parametrize("bad", [0.0, 1.0, 1.5, -0.1])
    def test_share_domain_enforced(self, bad):
        with pytest.raises(ValidationError, match="strictly in"):
            fisher_pry_fit(make_series([(0, 0.2), (1, bad), (2, 0.6)], "share"))

    def test_half_time_consistency(self):
        fit = fisher_pry_fit(make_series([(0, 0.1), (1, 0.3), (2, 0.4), (3, 0.9)], "share"))
        assert fit.t_half == pytest.approx(-fit.intercept / fit.slope, rel=1e-9)

    @given(
        st.floats(min_value=0.05, max_value=2.0),
        st.floats(min_value=-20.0, max_value=20.0),
    )
    @settings(max_examples=50)
    def test_any_exact_logistic_share_gives_unit_r2(self, slope, intercept):
        # share odds exactly exponential in t, so the logit line is exact;
        # |logit| capped at 16: shares closer to 0/1 than ~1e-7 lose the
        # information to float rounding before the fit ever sees it
        pts = []
        for t in range(0, 12):
            z = intercept + slope * t
            assume(abs(z) <= 16)
            pts.append((t, 1.0 / (1.0 + math.exp(-z))))
        fit = fisher_pry_fit(make_series(pts, "share"))
        assert fit.regression.r2 == pytest.approx(1.0, abs=1e-9)
        assert fit.slope == pytest.approx(slope, rel=1e-7)
