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

#: |phi+gamma+B(rho-beta)| below this switches to the confluent limit
_CONFLUENT_EPS = 1e-9


def closed_form_profiles(B: float, rates: ConstantRates, ages):
    """Steady (s, i, r) at the given ages for frozen pressure B.

    Handles the confluent case phi+gamma+B(rho-beta) = 0, where the two
    exponentials coincide and the solution picks up an a*exp term.
    """
    if B < 0:
        raise DomainError("B must be >= 0")
    a = np.asarray(ages, dtype=float)
    if np.any(a < 0):
        raise DomainError("ages must be >= 0")
    if B == 0:
        one = np.ones_like(a)
        return one, np.zeros_like(a), np.zeros_like(a)
    pg = rates.exit_pressure
    K = pg + B * rates.rho
    D = pg + B * (rates.rho - rates.beta)
    s = np.exp(-B * rates.beta * a)
    decay = np.exp(-K * a)
    if abs(D) < _CONFLUENT_EPS:
        i = B * rates.rho / K + (pg * (a + 1.0 / K) - 1.0) * decay
        r = pg / K - pg * (a + 1.0 / K) * decay
    else:
        i = (
            B * rates.rho / K
            - (B * (rates.rho - rates.beta) / D) * s
            - (B * rates.beta * pg / (K * D)) * decay
        )
        r = pg / K - (pg / D) * s + (B * rates.beta * pg / (K * D)) * decay
    return s, i, r


def amplification_exact(B: float, rates: ConstantRates) -> float:
    """Rational amplification factor; requires beta > 0 and rho > 0."""
    if rates.beta <= 0 or rates.rho <= 0:
        raise DegenerateParameterError(
            "rational amplification needs beta > 0 and rho > 0; "
            "use the general machinery for degenerate rates"
        )
    if B < 0:
        raise DomainError("B must be >= 0")
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
