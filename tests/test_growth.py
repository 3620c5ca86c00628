import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import check_record
from techsub.errors import ValidationError
from techsub.growth import (
    AllometricModel,
    LogisticParams,
    allometric_constants,
    logistic_value,
)

np = pytest.importorskip("numpy")

capacities = st.floats(min_value=1e-3, max_value=1e9)
locations = st.floats(min_value=-50.0, max_value=50.0)
rates = st.floats(min_value=-5.0, max_value=5.0).filter(lambda b: abs(b) >= 1e-3)
params_st = st.builds(LogisticParams, K=capacities, a=locations, b=rates)


class TestRecords:
    def test_records_are_values(self):
        check_record(LogisticParams, K=10.0, a=6.0, b=1.5)
        check_record(AllometricModel, A=2.0, B=1.5, C1=0.5)

    def test_replace_validates(self):
        p = LogisticParams(K=10.0, a=6.0, b=1.5)
        assert p._replace(b=-1.5) == LogisticParams(10.0, 6.0, -1.5)
        with pytest.raises(ValidationError, match="carrying capacity"):
            p._replace(K=-1.0)
        with pytest.raises(ValidationError, match="coupling constant"):
            AllometricModel(A=2.0, B=1.5, C1=0.5)._replace(C1=math.inf)


class TestLogisticParams:
    def test_inflection_is_a_over_b(self):
        p = LogisticParams(K=10.0, a=6.0, b=1.5)
        assert p.t_inflection * p.b == p.a

    @pytest.mark.parametrize("K,a,b", [(0.0, 1, 1), (-5.0, 1, 1), (10.0, 1, 0.0)])
    def test_invalid_params_rejected(self, K, a, b):
        with pytest.raises(ValidationError):
            LogisticParams(K=K, a=a, b=b)

    @given(params_st)
    def test_value_at_inflection_is_half_capacity(self, p):
        v = logistic_value(p, p.t_inflection)
        assert v == pytest.approx(p.K / 2.0, rel=1e-12)


class TestLogisticValue:
    def test_inflection_midpoint(self):
        assert logistic_value(LogisticParams(K=100, a=0, b=1), 0.0) == pytest.approx(50.0)

    def test_inflection_from_a_equals_bt(self):
        assert logistic_value(LogisticParams(K=1000, a=4, b=0.5), 8.0) == pytest.approx(500.0)

    def test_direct_evaluation(self):
        # 100 / (1 + e^2), checked against an independent scalar calculation
        v = logistic_value(LogisticParams(K=100, a=2, b=1), 0.0)
        assert v == pytest.approx(11.920292202211755, rel=1e-12)

    def test_far_tails_keep_their_levels(self):
        """Past the range of exp(a - b*t) the level is K*exp(b*t - a), not 0
        (here exp(-1000) alone underflows to 0); below it, K."""
        p = LogisticParams(K=1e300, a=0, b=1)
        assert logistic_value(p, -1000.0) == pytest.approx(math.exp(math.log(1e300) - 1000))
        assert logistic_value(p, -701.0) == pytest.approx(1e300 * math.exp(-701))
        assert logistic_value(p, 1000.0) == 1e300

    @given(params_st, st.floats(min_value=-30, max_value=30), st.floats(min_value=1e-6, max_value=10))
    def test_monotone_and_bounded_for_positive_b(self, p, u, dt):
        assume(p.b > 0)
        t1 = (p.a - u) / p.b
        t2 = t1 + dt
        u2 = p.a - p.b * t2
        assume(abs(u2) <= 30)
        v1 = logistic_value(p, t1)
        v2 = logistic_value(p, t2)
        assert 0.0 < v1 < p.K
        assert 0.0 < v2 < p.K
        assert v1 <= v2
        # strictness needs the increment to clear one ulp of K: near the
        # asymptotes the slope K*e^-|u|*b*dt drops below float resolution
        if p.b * dt >= 1e-6 and abs(u) <= 16 and abs(u2) <= 16:
            assert v1 < v2


class TestAllometricConstants:
    def test_identical_dynamics(self):
        victim = LogisticParams(K=100, a=5, b=1)
        killer = LogisticParams(K=200, a=5, b=1)
        m = allometric_constants(victim, killer)
        assert m.B == 1.0
        assert m.C1 == pytest.approx(1.0, rel=1e-12)
        assert m.A == pytest.approx(2.0, rel=1e-12)

    def test_coupling_constant_formula(self):
        victim = LogisticParams(K=100, a=3, b=0.5)
        killer = LogisticParams(K=100, a=10, b=1)
        m = allometric_constants(victim, killer)
        assert m.B == 2.0
        # C1 = exp(0.5 * (10 - 6)) = e^2
        assert m.C1 == pytest.approx(7.38905609893065, rel=1e-12)

    def test_unit_capacities_zero_inflections(self):
        victim = LogisticParams(K=1, a=0, b=2)
        killer = LogisticParams(K=1, a=0, b=1)
        m = allometric_constants(victim, killer)
        assert m.B == 0.5
        assert m.C1 == 1.0
        assert m.A == 1.0

    def test_invalid_model_constants_rejected(self):
        with pytest.raises(ValidationError):
            AllometricModel(A=-1.0, B=1.0, C1=1.0)
        with pytest.raises(ValidationError):
            AllometricModel(A=1.0, B=1.0, C1=0.0)

    def test_matches_simulated_killer_in_deep_small_value_regime(self):
        # Power-law limit of the exact odds identity: the prediction error
        # factor is (1-v/K1)^B / (1-kl/K2), about B*v/K1 for small levels,
        # so the 2% match needs victim levels at or below ~1% of capacity.
        victim = LogisticParams(K=100, a=5, b=0.5)
        killer = LogisticParams(K=200, a=8, b=1.0)
        model = allometric_constants(victim, killer)
        checked = 0
        for t in range(-10, 31):
            v = logistic_value(victim, t)
            if v > 0.01 * victim.K:
                continue
            kl_true = logistic_value(killer, t)
            kl_pred = model.A * v**model.B
            assert kl_pred == pytest.approx(kl_true, rel=0.02)
            checked += 1
        assert checked >= 5


class TestOddsIdentity:
    """V/(K1-V) = C1 * (Kl/(K2-Kl))**(1/B) holds exactly, not only in the
    small-value limit. Exponents are kept inside [-12, 60] because K - level
    loses relative precision once the level sits within ~1e-12 of K."""

    @given(params_st, params_st, st.floats(min_value=-12, max_value=60))
    def test_identity_everywhere(self, victim, killer, u1):
        try:
            model = allometric_constants(victim, killer)
        except ValidationError:
            assume(False)  # A or C1 not representable for this pair
        assume(abs(victim.b * (killer.t_inflection - victim.t_inflection)) <= 200)
        t = (victim.a - u1) / victim.b
        u2 = killer.a - killer.b * t
        assume(-12 <= u2 <= 200)
        assume(abs(u2 / model.B) <= 200)
        v = logistic_value(victim, t)
        kl = logistic_value(killer, t)
        assume(0.0 < v < victim.K and 0.0 < kl < killer.K)
        lhs = v / (victim.K - v)
        rhs = model.C1 * (kl / (killer.K - kl)) ** (1.0 / model.B)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_small_value_log_log_slope_near_B(self):
        # With levels capped at 10% of capacity the log-log scatter slope
        # sits within 1% of B; sampling reaches deep into the early regime
        # where the power law is closest to exact.
        victim = LogisticParams(K=100, a=5, b=0.5)
        killer = LogisticParams(K=200, a=8, b=1.0)
        model = allometric_constants(victim, killer)
        ts = np.arange(-10.0, 5.61, 0.25)
        v = np.array([logistic_value(victim, t) for t in ts])
        kl = np.array([logistic_value(killer, t) for t in ts])
        keep = (v <= 0.1 * victim.K) & (kl <= 0.1 * killer.K)
        slope = np.polyfit(np.log(v[keep]), np.log(kl[keep]), 1)[0]
        assert slope == pytest.approx(model.B, rel=0.01)
