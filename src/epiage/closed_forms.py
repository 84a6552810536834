"""Closed-form expressions for constant rates on the unbounded age domain.

With every rate constant, the frozen-pressure steady system integrates
explicitly into a sum of two exponentials, the stationary mixing density
is mu * exp(-mu a), and the amplification factor becomes the rational
function

    (B + mu/rho) / ((B + mu/beta) (B + (mu+phi+gamma)/rho)),

whose unit crossings solve a quadratic.  These forms serve as oracles for
the general machinery and give the explicit backward-bifurcation test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateParameterError, DomainError
from .parameters import ConstantRates

#: the general form divides by K, D and K D; where K or |D| is below this
#: share of K + B beta, or below the floor (K D underflows), the expm1
#: form is used instead
_CONFLUENT_SHARE = 1e-3
_CONFLUENT_FLOOR = 1e-100


def closed_form_profiles(B: float, rates: ConstantRates, ages):
    """Steady (s, i, r) at the given ages for frozen pressure B.

    With K = phi+gamma+B rho and D = K - B beta, the general form sums
    s = exp(-B beta a) and exp(-K a) with weights in 1/K and 1/D.  Near
    the confluent case D = 0, where the solution picks up an a*exp term,
    and where K is small it would lose its digits; there r = (phi+gamma)
    ((1 - exp(-K a))/K - (s - exp(-K a))/D) with both ratios from expm1,
    and i = 1 - s - r.
    """
    if not 0.0 <= B < math.inf:
        raise DomainError("B must be finite and >= 0")
    a = np.asarray(ages, dtype=float)
    if not np.all(a >= 0):
        raise DomainError("ages must be >= 0")
    if B == 0:
        one = np.ones_like(a)
        return one, np.zeros_like(a), np.zeros_like(a)
    pg = rates.exit_pressure
    K = pg + B * rates.rho
    D = pg + B * (rates.rho - rates.beta)
    s = np.exp(-B * rates.beta * a)
    decay = np.exp(-K * a)
    if min(K, abs(D)) > max(_CONFLUENT_SHARE * (K + B * rates.beta), _CONFLUENT_FLOOR):
        i = (
            B * rates.rho / K
            - (B * (rates.rho - rates.beta) / D) * s
            - (B * rates.beta * pg / (K * D)) * decay
        )
        r = pg / K - (pg / D) * s + (B * rates.beta * pg / (K * D)) * decay
        return s, i, r
    # (s - decay) / D is the larger of the two exponentials times
    # _fraction(|D|), so no term grows where D or K vanishes
    larger = s if D > 0 else decay
    r = pg * (_fraction(K, a) - larger * _fraction(abs(D), a))
    return s, -np.expm1(-B * rates.beta * a) - r, r


def _fraction(x: float, a):
    """(1 - exp(-x a)) / x, which is a at x = 0."""
    return a if x == 0 else -np.expm1(-x * a) / x


def amplification_exact(B: float, rates: ConstantRates) -> float:
    """Rational amplification factor; requires beta > 0 and rho > 0."""
    if rates.beta <= 0 or rates.rho <= 0:
        raise DegenerateParameterError(
            "rational amplification needs beta > 0 and rho > 0; "
            "use the general machinery for degenerate rates"
        )
    if not 0.0 <= B < math.inf:
        raise DomainError("B must be finite and >= 0")
    mu, pg = rates.mu, rates.exit_pressure
    return (B + mu / rates.rho) / (
        (B + mu / rates.beta) * (B + (mu + pg) / rates.rho)
    )


def r0_rc_exact(rates: ConstantRates):
    """(R0, RC) = (beta/(mu+phi+gamma), beta/mu)."""
    return rates.beta / (rates.mu + rates.exit_pressure), rates.beta / rates.mu


def fixed_points_exact(rates: ConstantRates) -> list:
    """Roots of the rational amplification = 1 inside the open unit interval.

    The quadratic is solved in a cancellation-safe order: the larger
    magnitude root from the formula, the other via the product of roots
    (the bistable regimes have roots ~60x apart, so the naive formula
    loses digits on the small one).
    """
    if rates.beta <= 0 or rates.rho <= 0:
        raise DegenerateParameterError("quadratic form needs beta > 0 and rho > 0")
    mu, pg = rates.mu, rates.exit_pressure
    b = mu / rates.beta + (mu + pg) / rates.rho - 1.0
    c = (mu / rates.rho) * ((mu + pg) / rates.beta - 1.0)
    disc = b * b - 4.0 * c
    if disc < 0:
        return []
    sign = 1.0 if b >= 0 else -1.0
    big = (-b - sign * math.sqrt(disc)) / 2.0
    if big == 0.0:
        candidates = [0.0, -b]
    else:
        candidates = [big, c / big]
    return sorted(x for x in candidates if 0.0 < x < 1.0)


@dataclass(frozen=True)
class RegionReport:
    """Backward-bifurcation region of a constant-rate set.

    region 1: infection-free only; region 2: two endemic pressures
    coexist below threshold (backward bifurcation); region 3: unique
    endemic pressure above threshold.  ``beta_threshold`` is the paper's
    bound rho mu / (mu + (sqrt(rho) - sqrt(phi+gamma))^2), reported but
    not used to decide the region.
    """

    region: int
    r0: float
    rc: float
    beta_threshold: float


def bifurcation_region(rates: ConstantRates) -> RegionReport:
    """Region of a constant-rate set, decided by the quadratic's root count.

    region 3 when R0 > 1; region 2 when R0 < 1 and ``fixed_points_exact``
    finds two roots in (0, 1); region 1 otherwise.  The paper's test, R0 <
    1 < RC with beta above ``beta_threshold``, predicts the two roots only
    in the relapse-dominant regime rho > phi+gamma with small mu; where
    treatment/recovery dominates relapse it claims region 2 for most sets
    without any endemic state.
    """
    r0_value, rc_value = r0_rc_exact(rates)
    pg = rates.exit_pressure
    threshold = rates.rho * rates.mu / (
        rates.mu + (math.sqrt(rates.rho) - math.sqrt(pg)) ** 2
    )
    if r0_value > 1.0:
        region = 3
    elif (
        r0_value < 1.0
        and rates.beta > 0.0
        and rates.rho > 0.0
        and len(fixed_points_exact(rates)) == 2
    ):
        region = 2
    else:
        region = 1
    return RegionReport(region, r0_value, rc_value, threshold)
