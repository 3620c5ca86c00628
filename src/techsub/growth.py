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
import sys
from collections import namedtuple

from .errors import ValidationError


class LogisticParams(namedtuple("LogisticParams", "K a b")):
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


class AllometricModel(namedtuple("AllometricModel", "A B C1")):
    """Power-law relation killer = A * victim**B between two levels.

    A is the scale constant, B the growth-coefficient exponent
    (ratio of the two logistic growth rates) and C1 the coupling
    constant exp(b_victim * (t2 - t1)) of the underlying odds identity.
    A and C1 must be positive normal floats: NaN, inf, 0 and subnormals fail.
    B must be finite.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, A: float, B: float, C1: float):
        if not sys.float_info.min <= A < math.inf:
            raise ValidationError(f"scale constant A must be a normal float > 0, got {A}")
        if not sys.float_info.min <= C1 < math.inf:
            raise ValidationError(f"coupling constant C1 must be a normal float > 0, got {C1}")
        if not math.isfinite(B):
            raise ValidationError(f"exponent B must be finite, got {B}")
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


def allometric_constants(victim: LogisticParams, killer: LogisticParams) -> AllometricModel:
    """Derive the allometric model linking two logistic curves.

    B = b_killer / b_victim and C1 = exp(b_victim * (t2 - t1)), with t1,
    t2 the victim and killer inflection times. The scale constant is the
    small-value limit of the exact odds identity:

        A = K_killer * C1**(-B) / K_victim**B

    Raises ValidationError unless A and C1 are positive normal floats.
    """
    B = killer.b / victim.b
    c1_exponent = victim.b * (killer.t_inflection - victim.t_inflection)
    # A spans many orders of magnitude for large |B|; assemble it in log
    # space so only a truly unrepresentable A fails, not an intermediate.
    log_A = math.log(killer.K) - B * c1_exponent - B * math.log(victim.K)
    try:
        return AllometricModel(A=math.exp(log_A), B=B, C1=math.exp(c1_exponent))
    except OverflowError:
        raise ValidationError(f"scale constant exp({log_A:.6g}) or coupling constant "
                              f"exp({c1_exponent:.6g}) is not representable") from None
