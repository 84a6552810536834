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

Each value is refined on a chain of kernels, every panel halved per
level, until two successive levels agree to a relative rtol (Richardson's
check).  R0, RC and ``euler_lotka`` check the value itself.  The growth
rate is solved on the base grid alone and the check is made at its root
only; see ``dominant_growth_rate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def g_zero(self) -> float:
        """G(0) on this level, shared by R0 and the growth-rate bracket."""
        return self.g_value(0.0)

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

    The equation solved is 1 - 1/G(lam) = 0, which is linear in lam for
    constant rates and nearly so otherwise, and which is 1 where G
    overflows.  It is first solved on the kernel's own grid: G(0) = R0
    ends the bracket on one side, the other end, -2 max(mu+phi+gamma) or
    max beta, is doubled until it straddles the root, and one
    false-position step, then Chandrupatla's method, stop at |1 - 1/G| <=
    tol / (1 + tol), which gives |G - 1| <= tol.

    Richardson's check is made at the root only.  On each refined grid G
    is evaluated at the root, which is accepted once it is still within
    tol there and G changed by at most rtol = max(min(tol/10, 1e-9),
    1e-12) relative from the coarser grid.  A root outside tol is solved
    again on the finer grid, from a step along the secant of the last grid
    solved on.  ``ToleranceError`` (``best`` the last root) after
    ``_MAX_REFINEMENTS`` grids.
    """
    return _growth_rate(_LotkaData(as_parameter_set(params), kernel), tol)


def _r0(data: _LotkaData, rtol: float = 1e-8) -> float:
    return _richardson(lambda d: d.g_zero, data, rtol)


def _rc(data: _LotkaData, rtol: float = 1e-8) -> float:
    return _richardson(lambda d: d.rc_value(), data, rtol)


def _residual(g_value: float) -> float:
    """1 - 1/G: linear in lam for constant rates, 1 where G overflows."""
    return 1.0 - 1.0 / g_value if g_value > 0.0 else -math.inf


def _growth_rate(data: _LotkaData, tol: float) -> float:
    if tol <= 0:
        raise ParameterError("tol must be positive")
    params = data.params
    if params.beta.max_value() <= 0:
        raise NumericsError("beta vanishes identically; G has no root")
    ftol = tol / (1.0 + tol)
    # quadrature noise one decade below the residual target suffices
    rtol = max(min(tol * 1e-1, 1e-9), 1e-12)

    level, g = data, {0.0: data.g_zero}
    f = _recorded(level, g)
    f_zero = _residual(g[0.0])
    # G(0) = R0 ends the bracket on one side; grow the other end until
    # 1 - 1/G there has the strictly opposite sign
    far = params.beta.max_value() if f_zero >= 0.0 else -2.0 * (
        params.mu.max_value() + params.exit_pressure().max_value()
    )
    f_far = f(far)
    while (f_far < 0.0) == (f_zero < 0.0) or f_far == 0.0:
        far *= 2.0
        if abs(far) > _BRACKET_LIMIT:
            raise NumericsError("bracket for the growth rate grew beyond 1e6/year")
        f_far = f(far)
    lam = 0.0 if abs(f_zero) <= ftol else _solve(f, 0.0, far, f_zero, f_far, ftol)

    # walk up the refinement chain evaluating at the root only: accept it
    # once G there is converged to rtol and still within tol of 1, else
    # re-solve on the finer level next to it
    solved = g
    for _ in range(_MAX_REFINEMENTS):
        coarse = g[lam]
        level, g = level.refined(), {}
        f = _recorded(level, g)
        f_lam = f(lam)
        if abs(f_lam) > ftol:
            lam = _near(f, solved, lam, f_lam, ftol)
            solved = g
        elif abs(g[lam] - coarse) <= rtol * abs(g[lam]):
            return lam
    raise ToleranceError(f"growth-rate refinement stalled above rtol={rtol:g}", best=lam)


def _recorded(level: _LotkaData, g: dict):
    """1 - 1/G on ``level`` as a function of lam, recording G in ``g``."""

    def f(lam):
        value = g[lam] = level.g_value(lam)
        return _residual(value)

    return f


def _solve(f, a: float, b: float, fa: float, fb: float, ftol: float) -> float:
    """Root of f in the bracket [a, b]: one false-position step, then
    Chandrupatla's method on what remains of the bracket."""
    x = a - fa * (b - a) / (fb - fa)
    if min(a, b) < x < max(a, b):
        fx = f(x)
        if abs(fx) <= ftol:
            return x
        if (fx < 0.0) == (fa < 0.0):
            a, fa = x, fx
        else:
            b, fb = x, fx
    return bracketed_root(f, a, b, fa, fb, ftol, "growth-rate")[0]


def _near(f, solved: dict, lam: float, f_lam: float, ftol: float) -> float:
    """Root of f next to lam, where |f_lam| > ftol.

    The first step follows the secant through the evaluations of G in
    ``solved`` (a coarser grid) next to lam, and is no wider than those
    two points are apart; steps double until f changes sign, and
    ``_solve`` takes the last one.
    """
    points = sorted((x, _residual(value)) for x, value in solved.items())
    points = [(x, fx) for x, fx in points if math.isfinite(fx)]
    k = [x for x, _ in points].index(lam)
    (a, fa), (b, fb) = points[max(k - 1, 0)], points[min(k + 1, len(points) - 1)]
    if b == a:
        # no finite neighbour: a step of |f_lam| relative to lam
        step = abs(f_lam) * max(abs(lam), 1.0)
    else:
        step = min(b - a, abs(f_lam) * (b - a) / (fa - fb)) if fa > fb else b - a
    # 1 - 1/G decreases, so the root lies on the side f_lam points to
    step = math.copysign(step, f_lam)
    a, fa = lam, f_lam
    while abs(step) <= _BRACKET_LIMIT:
        b = a + step
        fb = f(b)
        if abs(fb) <= ftol:
            return b
        if (fb < 0.0) != (fa < 0.0):
            return _solve(f, a, b, fa, fb, ftol)
        a, fa, step = b, fb, 2.0 * step
    raise NumericsError("bracket for the growth rate grew beyond 1e6/year")


def classify(params, kernel: DemographicKernel, tol: float = 1e-8) -> ThresholdReport:
    """Assemble R0, RC, the dominant growth rate, and the region label.

    The three share one set of grid samples and one chain of refined
    kernels, and R0's G(0) on the base grid ends the growth-rate bracket.
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
