"""Threshold quantities of the linearization about the infection-free state.

The growth equation (Euler-Lotka form) for the exponential rate lam is

    G(lam) = integral over a of density(a) * W(a; lam) = 1,

where W(a; lam) is the expected transmission kernel accumulated along age,
i.e. the solution of W' = beta(a) - (lam + phi(a) + gamma(a)) W, W(0) = 0:
the steady solver's sweep at B = 0, on the samples of ``_LotkaData``.
G is continuous, strictly decreasing and convex, so it has exactly one
real root, and the root's sign matches the sign of G(0) - 1 = R0 - 1.

R0 = G(0) is the reproduction number with treatment/recovery damping; RC
drops the damping factor and bounds R0 from above.  RC < 1 forces global
extinction.

Every value is refined by ``grids.adapt`` from one level below the
kernel's grid, on half its panels in every block (``coarsened``), whose
refinement is the kernel's own grid: R0, RC and ``euler_lotka`` at their
own point.  Where the rates are smooth, the first pass settles, and the
value is the quadrature on the kernel's grid.  The growth rate is solved
on the coarse grid, adapted at its root, and solved again only while G on
the adapted grid is outside the tolerance; see ``dominant_growth_rate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._roots import bracketed_root
from .demography import DemographicKernel, _kernel_on
from .errors import DomainError, NumericsError, ParameterError, ToleranceError
from .grids import adapt
from .parameters import as_parameter_set
from .steady import _check_tolerance, _SteadyData

_BRACKET_LIMIT = 1e6


@dataclass(frozen=True)
class ThresholdReport:
    r0: float
    rc: float
    growth_rate: float
    region: str  # "extinction" | "bistable-candidate" | "endemic"


class _LotkaData(_SteadyData):
    """The steady sweep's samples on a kernel's grid, its finer levels and G's integrands."""

    def __init__(self, params, kernel: DemographicKernel):
        super().__init__(params, kernel.ages)
        self.kernel = kernel
        self._integrands = {}
        self._levels = {}

    @classmethod
    def below(cls, params, kernel: DemographicKernel) -> "_LotkaData":
        """The samples of ``kernel.grid.coarsened()``, where every value
        starts to refine, with those of ``kernel`` as the level that the
        coarse grid's refinement reaches."""
        params = as_parameter_set(params)
        coarse = kernel.grid.coarsened()
        if coarse is kernel.grid:
            return cls(params, kernel)
        data = cls(params, _kernel_on(params, coarse))
        data._levels[_key(kernel.grid)] = cls(params, kernel)
        return data

    def on(self, grid) -> "_LotkaData":
        """The samples of ``grid``, built once and freed with this one."""
        if grid is self.kernel.grid:
            return self
        key = _key(grid)
        if key not in self._levels:
            self._levels[key] = _LotkaData(self.params, _kernel_on(self.params, grid))
        return self._levels[key]

    def integrand(self, lam: float) -> np.ndarray:
        """density * W(.; lam) at the nodes, swept once for each lam."""
        if lam not in self._integrands:
            self._integrands[lam] = self.kernel.density * self.sweep(lam=lam)
        return self._integrands[lam]

    def g_value(self, lam: float) -> float:
        values = self.integrand(lam)
        if not np.all(np.isfinite(values)):
            return math.inf
        return float(self.kernel.integrate(values))

    def residual(self, lam: float) -> float:
        """1 - 1/G: linear in lam for constant rates, 1 where G overflows."""
        g = self.g_value(lam)
        return 1.0 - 1.0 / g if g > 0.0 else -math.inf


def _key(grid) -> tuple:
    return grid.panels, grid.edges.tobytes()


def _adapted(data: _LotkaData, grid, rtol: float, integrand):
    """``grids.adapt`` on the quadrature of ``integrand(level)``, where
    ``level`` is ``data.on(grid)``: (value, grid).  The shares are of the
    integrand less the value on ``grid`` times the density p, which is
    normalised on each grid: so the error of that normalisation stays in
    the blocks it comes from, and the value's change spreads over none."""
    _check_tolerance(rtol, "rtol")
    level = data.on(grid)
    centre = float(level.kernel.integrate(integrand(level)))

    def evaluate(grid):
        level = data.on(grid)
        values = integrand(level)
        centred = grid.shares(values - centre * level.kernel.density)
        return float(level.kernel.integrate(values)), centred

    return adapt(evaluate, grid, rtol)


def euler_lotka(lam: float, params, kernel: DemographicKernel, rtol: float = 1e-8):
    """G(lam) for finite lam; returns +inf when the growing integrand overflows.

    For lam > -e, with e = min(phi + gamma), W' <= max beta - (lam + e) W
    and the density sums to 1, so G(lam) <= max beta / (lam + e).  A value
    above that bound by more than a factor 1 + rtol, which the sweep gives
    on the drinking rates for lam of about 1e10 and more, where psi loses
    the exit pressure's digits, raises ``NumericsError``; so does a lam
    whose product with the oldest age overflows, about 1e306 and more.
    """
    if not math.isfinite(lam):
        raise DomainError("lam must be finite")
    _check_tolerance(rtol, "rtol")  # before the sweep of the overflow check
    data = _LotkaData.below(params, kernel)
    if math.isinf(data.g_value(lam)):
        return math.inf
    value = _adapted(data, data.kernel.grid, rtol, lambda level: level.integrand(lam))[0]
    floor = lam + data.params.exit_pressure().min_value()
    if floor > 0.0 and value > (1.0 + rtol) * data.params.beta.max_value() / floor:
        raise NumericsError(f"G({lam!r}) = {value!r} exceeds its bound max beta / (lam + e)")
    return value


def r0(params, kernel: DemographicKernel, rtol: float = 1e-8) -> float:
    """Reproduction number with treatment/recovery damping: G(0)."""
    return _r0(_LotkaData.below(params, kernel), rtol)


def rc(params, kernel: DemographicKernel, rtol: float = 1e-8) -> float:
    """Reproduction number without damping; RC < 1 gives global extinction."""
    return _rc(_LotkaData.below(params, kernel), rtol)


def dominant_growth_rate(
    params, kernel: DemographicKernel, tol: float = 1e-8
) -> float:
    """Unique real root of G(lam) = 1 of the monotone G, to |G - 1| <= tol.

    The equation solved is 1 - 1/G(lam) = 0, which is linear in lam for
    constant rates and nearly so otherwise, and which is 1 where G
    overflows.  It is first solved one level below the kernel's grid, on
    half its panels in every block: G(0) = R0 there ends the bracket on
    one side, the other end, -2 max(mu+phi+gamma) or max beta, is doubled
    until it straddles the root, and one false-position step, then
    Chandrupatla's method, stop at |1 - 1/G| <= tol / (1 + tol), which
    gives |G - 1| <= tol.

    G at the root is then adapted from that grid to rtol = max(min(tol/10,
    1e-9), 1e-12), which for smooth rates stops with the kernel's grid as
    the finer one.  The root stands once G on the finer grid is within
    tol - rtol of 1; else it is solved again there, from a step along the
    secant through G(0) and the root.  So tol must exceed 1e-12, else
    ``ParameterError`` before any sweep.  ``ToleranceError`` (``best`` the last root) past
    the node budget, or for a root below -(mu + phi + gamma) at the last
    knot, where only the truncation of the age domain puts it.
    """
    return _growth_rate(_LotkaData.below(params, kernel), tol)


def _r0(data: _LotkaData, rtol: float = 1e-8) -> float:
    return _adapted(data, data.kernel.grid, rtol, lambda level: level.integrand(0.0))[0]


def _rc(data: _LotkaData, rtol: float = 1e-8) -> float:
    return _adapted(data, data.kernel.grid, rtol, lambda x: x.kernel.density * x.cum_beta)[0]


def _check_growth_tolerance(tol: float) -> None:
    """``ParameterError`` unless tol exceeds 1e-12: the root keeps tol - rtol
    for itself, and the quadrature's rtol is at least 1e-12."""
    _check_tolerance(tol, "tol")
    if tol <= 1e-12:
        raise ParameterError("tol must exceed 1e-12, the growth rate's quadrature floor")


def _growth_rate(data: _LotkaData, tol: float) -> float:
    _check_growth_tolerance(tol)
    params = data.params
    if params.beta.max_value() <= 0:
        raise NumericsError("beta vanishes identically; G has no root")
    ftol = tol / (1.0 + tol)
    # quadrature noise one decade below the residual target suffices
    rtol = max(min(tol * 1e-1, 1e-9), 1e-12)
    # on the adapted grid the root keeps rtol of tol for the quadrature
    # error that is left
    fine_ftol = (tol - rtol) / (1.0 + tol - rtol)

    f = data.residual
    f_zero = f(0.0)
    # G(0) = R0 ends the bracket on one side; the other end grows until
    # 1 - 1/G there has the strictly opposite sign
    far = params.beta.max_value() if f_zero >= 0.0 else -2.0 * (
        params.mu.max_value() + params.exit_pressure().max_value()
    )
    lam = 0.0 if abs(f_zero) <= ftol else _solve(f, 0.0, f_zero, far, ftol)

    # every rate holds its last value beyond the table, so with contact there
    # G diverges below this abscissa, and only the truncation puts a root there
    abscissa = -(params.mu.values[-1] + params.exit_pressure().values[-1])
    grid = data.kernel.grid
    while True:
        if lam < abscissa and params.contact.values[-1] > 0.0:
            raise ToleranceError("growth root below the abscissa of the untruncated tail", best=lam)
        try:
            grid = _adapted(data, grid, rtol, lambda level: level.integrand(lam))[1]
        except ToleranceError as err:
            raise ToleranceError(str(err), best=lam) from err
        f = data.on(grid.refined()).residual
        f_lam = f(lam)
        if abs(f_lam) <= fine_ftol:
            return lam
        # a first step along the secant from 0 to lam, exact for constant rates
        step = f_lam * lam / f_zero if lam and math.isfinite(f_zero) else f_lam
        lam = _solve(f, lam, f_lam, step, fine_ftol)


def _solve(f, a: float, fa: float, step: float, ftol: float) -> float:
    """Root of f next to a, where f is fa: the step from a doubles until f
    has the strictly opposite sign there, then one false-position step,
    then Chandrupatla's method on what remains of the bracket."""
    while True:
        b = a + step
        fb = f(b)
        if (fb < 0.0) != (fa < 0.0) and fb != 0.0:
            break
        step *= 2.0
        if abs(step) > _BRACKET_LIMIT:
            raise NumericsError("bracket for the growth rate grew beyond 1e6/year")
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


def classify(params, kernel: DemographicKernel, tol: float = 1e-8) -> ThresholdReport:
    """Assemble R0, RC, the dominant growth rate, and the region label.

    The three share the samples of every grid they visit, and R0's G(0)
    on the coarse grid below the kernel's ends the growth-rate bracket.
    """
    _check_growth_tolerance(tol)
    data = _LotkaData.below(params, kernel)
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
