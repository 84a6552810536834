"""Closed-form expressions for constant rates on the unbounded age domain.

With every rate constant, the frozen-pressure steady system integrates
explicitly into two exponentials, the stationary mixing density is
mu exp(-mu a), and the amplification factor is the rational function
beta (rho B + mu) / ((beta B + mu)(rho B + mu + phi + gamma)), whose
denominator factors are each at least mu.  Its unit crossings are the
roots of the cleared quadratic beta rho B^2 + (beta (mu+phi+gamma-rho) +
mu rho) B + mu (mu+phi+gamma-beta), linear where beta rho = 0.  One
formula each takes every constant-rate set, relapse-free ones included;
they serve as oracles for the general machinery and give the explicit
backward-bifurcation test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .parameters import ConstantRates


def closed_form_profiles(B: float, rates: ConstantRates, ages):
    """Steady (s, i, r) at the given ages for frozen pressure B.

    With K = phi+gamma+B rho and D = K - B beta, s = exp(-B beta a),
    F = (1 - exp(-K a))/K and G = (s - exp(-K a))/D,

        i = B (rho F - (rho - beta) G),    r = (phi+gamma) (F - G).

    G is the larger of the two exponentials times (1 - exp(-|D| a))/|D|,
    and both ratios come from expm1, so no term grows where D or K
    vanishes and i, r keep their digits at young ages.
    """
    if not 0.0 <= B < math.inf:
        raise DomainError("B must be finite and >= 0")
    a = np.asarray(ages, dtype=float)
    if not np.all(a >= 0):
        raise DomainError("ages must be >= 0")
    pg = rates.exit_pressure
    K = pg + B * rates.rho
    D = K - B * rates.beta
    s = np.exp(-B * rates.beta * a)
    F = _fraction(K, a)
    G = (s if D > 0 else np.exp(-K * a)) * _fraction(abs(D), a)
    return s, B * (rates.rho * F - (rates.rho - rates.beta) * G), pg * (F - G)


def _fraction(x: float, a):
    """(1 - exp(-x a)) / x, which is a at x = 0."""
    return a if x == 0 else -np.expm1(-x * a) / x


def amplification_exact(B: float, rates: ConstantRates) -> float:
    """beta (rho B + mu) / ((beta B + mu) (rho B + mu + phi + gamma))."""
    if not 0.0 <= B < math.inf:
        raise DomainError("B must be finite and >= 0")
    mu, beta, rho, pg = rates.mu, rates.beta, rates.rho, rates.exit_pressure
    return beta * (rho * B + mu) / ((beta * B + mu) * (rho * B + mu + pg))


def r0_rc_exact(rates: ConstantRates):
    """(R0, RC) = (beta/(mu+phi+gamma), beta/mu)."""
    return rates.beta / (rates.mu + rates.exit_pressure), rates.beta / rates.mu


def fixed_points_exact(rates: ConstantRates) -> list:
    """Roots in (0, 1) of the cleared quadratic a B^2 + b B + c = 0, where
    amplification_exact(B) = 1.

    a = beta rho, b = beta (mu+phi+gamma-rho) + mu rho and
    c = mu (mu+phi+gamma-beta).  With q = -(b + sign(b) sqrt(b^2 - 4ac))/2
    the roots are c/q and q/a, which lose no digits to cancellation (the
    bistable regimes have roots ~60x apart).  Where a = 0, c/q = -c/b is
    the linear root and q/a is infinite or nan, which the filter drops;
    so is q/a where a subnormal a makes it overflow.
    """
    mu, beta, rho = rates.mu, rates.beta, rates.rho
    a = beta * rho
    # fsum rounds mu+phi+gamma-rho and mu+phi+gamma-beta once each, so c
    # keeps its digits next to R0 = 1
    b = beta * math.fsum((mu, rates.phi, rates.gamma, -rho)) + mu * rho
    c = mu * math.fsum((mu, rates.phi, rates.gamma, -beta))
    disc = b * b - 4.0 * a * c
    if disc < 0:
        return []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        roots = np.divide([c, q], [q, a])
    return sorted(float(x) for x in roots if 0.0 < x < 1.0)


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
    elif r0_value < 1.0 and len(fixed_points_exact(rates)) == 2:
        region = 2
    else:
        region = 1
    return RegionReport(region, r0_value, rc_value, threshold)
