"""Logistic growth curves and the allometric killer/victim relation.

A technology level following bounded S-shaped growth is modeled as

    level(t) = K / (1 + exp(a - b*t))

with carrying capacity K, location constant a and growth rate b. Two
technologies growing this way against the same clock are coupled through
an exact odds identity, which in the small-value regime collapses to the
allometric power law  killer = A * victim**B  with B = b_killer/b_victim.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ValidationError

# exp argument beyond this would overflow a double
_EXP_LIMIT = 700.0


class LogisticParams(NamedTuple("LogisticParams", [("K", float), ("a", float), ("b", float)])):
    """Parameters (K, a, b) of one logistic growth curve.

    K is the carrying capacity (same units as the series), a the
    dimensionless location constant and b the per-year growth rate.
    The inflection time a/b is where the curve crosses K/2.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, K: float, a: float, b: float):
        if not (K > 0):
            raise ValidationError(f"carrying capacity K must be > 0, got {K}")
        if b == 0:
            raise ValidationError("growth rate b must be nonzero")
        for name, value in (("K", K), ("a", a), ("b", b)):
            if not math.isfinite(value):
                raise ValidationError(f"parameter {name} must be finite")
        return super().__new__(cls, K, a, b)

    @property
    def t_inflection(self) -> float:
        """Year at which the curve reaches K/2."""
        return self.a / self.b


class AllometricModel(NamedTuple("AllometricModel", [("A", float), ("B", float), ("C1", float)])):
    """Power-law relation killer = A * victim**B between two levels.

    A is the scale constant, B the growth-coefficient exponent
    (ratio of the two logistic growth rates) and C1 the coupling
    constant exp(b_victim * (t2 - t1)) of the underlying odds identity.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, A: float, B: float, C1: float):
        if not (A > 0 and math.isfinite(A)):
            raise ValidationError(f"scale constant A must be finite and > 0, got {A}")
        if not (C1 > 0 and math.isfinite(C1)):
            raise ValidationError(f"coupling constant C1 must be finite and > 0, got {C1}")
        return super().__new__(cls, A, B, C1)


def logistic_value(params: LogisticParams, t: float) -> float:
    """Evaluate K / (1 + exp(a - b*t)) at year t.

    Total over valid params: where exp(a - b*t) overflows, 1 + exp(b*t - a)
    is 1.0, so the level is K * exp(b*t - a), taken in two halves so that
    neither underflows before the product does.
    """
    u = params.a - params.b * t
    try:
        return params.K / (1.0 + math.exp(u))
    except OverflowError:
        half = math.exp(-u / 2)
        return params.K * half * half


def allometric_constants(
    victim: LogisticParams, killer: LogisticParams
) -> AllometricModel:
    """Derive the allometric model linking two logistic curves.

    B = b_killer / b_victim and C1 = exp(b_victim * (t2 - t1)), with t1,
    t2 the victim and killer inflection times. The scale constant is the
    small-value limit of the exact odds identity:

        A = K_killer * C1**(-B) / K_victim**B
    """
    if victim.b == 0:
        raise ValidationError("victim growth rate must be nonzero (B undefined)")
    B = killer.b / victim.b
    t1 = victim.t_inflection
    t2 = killer.t_inflection
    c1_exponent = victim.b * (t2 - t1)
    if abs(c1_exponent) > _EXP_LIMIT:
        raise ValidationError(
            f"coupling constant exp({c1_exponent:.6g}) is not representable"
        )
    C1 = math.exp(c1_exponent)
    # A spans many orders of magnitude for large |B|; assemble it in log
    # space so only a truly unrepresentable A fails, not an intermediate.
    log_A = math.log(killer.K) - B * c1_exponent - B * math.log(victim.K)
    if abs(log_A) > _EXP_LIMIT:
        raise ValidationError(
            f"scale constant exp({log_A:.6g}) is not representable for this pair"
        )
    return AllometricModel(A=math.exp(log_A), B=B, C1=C1)
