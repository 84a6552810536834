"""Threshold quantities of the linearization about the infection-free state.

The growth equation (Euler-Lotka form) for the exponential rate lam is

    G(lam) = integral over a of density(a) * W(a; lam) = 1,

where W(a; lam) is the expected transmission kernel accumulated along age,
i.e. the solution of W' = beta(a) - (lam + phi(a) + gamma(a)) W, W(0) = 0.
G is continuous, strictly decreasing and convex, so it has exactly one
real root, and the root's sign matches the sign of G(0) - 1 = R0 - 1.

R0 = G(0) is the reproduction number with treatment/recovery damping; RC
drops the damping factor and bounds R0 from above.  RC < 1 forces global
extinction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _sweep
from ._roots import bracketed_root
from .demography import DemographicKernel, refine_kernel
from .errors import NumericsError, ParameterError, ToleranceError
from .grids import cell_stages
from .parameters import as_parameter_set

_MAX_REFINEMENTS = 6
_BRACKET_LIMIT = 1e6


@dataclass(frozen=True)
class ThresholdReport:
    r0: float
    rc: float
    growth_rate: float
    region: str  # "extinction" | "bistable-candidate" | "endemic"


class _LotkaData:
    """Age-grid samples reused across repeated G evaluations."""

    def __init__(self, params, kernel: DemographicKernel):
        self.params = params
        self.kernel = kernel
        self.nodes = kernel.ages
        exit_pressure = params.exit_pressure()
        self.damping = exit_pressure.cumulative(self.nodes)
        self.exit_nodes = exit_pressure(self.nodes)
        stages = cell_stages(self.nodes)
        self.stage_beta = params.beta(stages)
        self._finer = None

    def refined(self) -> "_LotkaData":
        if self._finer is None:
            self._finer = _LotkaData(self.params, refine_kernel(self.params, self.kernel))
        return self._finer

    def g_value(self, lam: float) -> float:
        psi = self.damping + lam * self.nodes
        # only differences of the decay samples enter the correction, so
        # the constant lam shift is immaterial
        w = _sweep.exp_sweep(self.nodes, psi, self.stage_beta, self.exit_nodes)
        if not np.all(np.isfinite(w)):
            return math.inf
        return float(self.kernel.integrate(self.kernel.density * w))

    def rc_value(self) -> float:
        cum_beta = self.params.beta.cumulative(self.nodes)
        return float(self.kernel.integrate(self.kernel.density * cum_beta))


def _richardson(evaluate, data: _LotkaData, rtol: float):
    value = evaluate(data)
    if math.isinf(value):
        return value
    for _ in range(_MAX_REFINEMENTS):
        data = data.refined()
        finer = evaluate(data)
        if abs(finer - value) <= rtol * max(abs(finer), 1e-300):
            return finer
        value = finer
    raise ToleranceError(
        f"quadrature refinement stalled above rtol={rtol:g}", best=value
    )


def euler_lotka(lam: float, params, kernel: DemographicKernel, rtol: float = 1e-8):
    """G(lam); returns +inf when the growing integrand overflows."""
    params = as_parameter_set(params)
    return _richardson(lambda d: d.g_value(lam), _LotkaData(params, kernel), rtol)


def r0(params, kernel: DemographicKernel, rtol: float = 1e-8) -> float:
    """Reproduction number with treatment/recovery damping: G(0)."""
    return _r0(_LotkaData(as_parameter_set(params), kernel), rtol)


def rc(params, kernel: DemographicKernel, rtol: float = 1e-8) -> float:
    """Reproduction number without damping; RC < 1 gives global extinction."""
    return _rc(_LotkaData(as_parameter_set(params), kernel), rtol)


def dominant_growth_rate(
    params, kernel: DemographicKernel, tol: float = 1e-8
) -> float:
    """Unique real root of G(lam) = 1 of the monotone G, to |G - 1| <= tol.

    The initial bracket [-2 max(mu+phi+gamma), max beta] is grown
    geometrically until it straddles the root.  Chandrupatla's bracketed
    method then solves 1 - 1/G(lam) = 0, which is linear in lam for
    constant rates and nearly so otherwise, and which is 1 where G
    overflows; it stops at |1 - 1/G| <= tol / (1 + tol), which gives
    |G - 1| <= tol.
    """
    return _growth_rate(_LotkaData(as_parameter_set(params), kernel), tol)


def _r0(data: _LotkaData, rtol: float = 1e-8) -> float:
    return _richardson(lambda d: d.g_value(0.0), data, rtol)


def _rc(data: _LotkaData, rtol: float = 1e-8) -> float:
    return _richardson(lambda d: d.rc_value(), data, rtol)


def _growth_rate(data: _LotkaData, tol: float) -> float:
    if tol <= 0:
        raise ParameterError("tol must be positive")
    params = data.params
    # quadrature noise one decade below the residual target suffices
    rtol = max(min(tol * 1e-1, 1e-9), 1e-12)

    def g(lam):
        try:
            return _richardson(lambda d: d.g_value(lam), data, rtol)
        except ToleranceError as exc:
            # far from the root the integrand is violently exponential and
            # the relative tolerance is unreachable, but the sign of G - 1
            # is unambiguous; only near G = 1 do we insist on precision
            if abs(exc.best - 1.0) > 1e-3:
                return exc.best
            raise

    def f(g_value):
        return 1.0 - 1.0 / g_value if g_value > 0.0 else -math.inf

    if params.beta.max_value() <= 0:
        raise NumericsError("beta vanishes identically; G has no root")
    lo = -2.0 * (params.mu.max_value() + params.exit_pressure().max_value())
    hi = params.beta.max_value()
    g_lo = g(lo)
    while g_lo <= 1.0:
        lo *= 2.0
        if abs(lo) > _BRACKET_LIMIT:
            raise NumericsError("bracket for the growth rate grew beyond 1e6/year")
        g_lo = g(lo)
    g_hi = g(hi)
    while g_hi >= 1.0:
        hi *= 2.0
        if hi > _BRACKET_LIMIT:
            raise NumericsError("bracket for the growth rate grew beyond 1e6/year")
        g_hi = g(hi)
    root, _ = bracketed_root(
        lambda lam: f(g(lam)), lo, hi, f(g_lo), f(g_hi), tol / (1.0 + tol), "growth-rate"
    )
    return root


def classify(params, kernel: DemographicKernel, tol: float = 1e-8) -> ThresholdReport:
    """Assemble R0, RC, the dominant growth rate, and the region label.

    The three share one set of grid samples and one chain of refined
    kernels.
    """
    data = _LotkaData(as_parameter_set(params), kernel)
    r0_value = _r0(data)
    rc_value = _rc(data)
    growth = _growth_rate(data, tol)
    if rc_value < 1.0:
        region = "extinction"
    elif r0_value > 1.0:
        region = "endemic"
    else:
        region = "bistable-candidate"
    return ThresholdReport(r0_value, rc_value, growth, region)
