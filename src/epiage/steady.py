"""Endemic steady states via the fixed-point map of the infection pressure.

Freezing the force of infection at a trial value B turns the steady-state
system into linear ODEs in age with known boundary values:

    s(a) = exp(-B * integral of beta),
    r' = (phi+gamma) (1 - s - r) - B rho r,     r(0) = 0,
    i = 1 - s - r.

``induced_pressure`` maps B to the pressure generated by that profile;
its fixed points are the endemic states.  ``amplification`` is the ratio
induced/assumed, continuously extended to B = 0 by the reproduction
number, and endemic states are its unit crossings in (0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _sweep
from .demography import DemographicKernel
from .errors import DomainError, NumericsError, ParameterError, ToleranceError
from .grids import cell_stages
from .parameters import as_parameter_set
from .thresholds import r0 as _r0

#: below this, amplification(B) returns the analytic B -> 0 limit
SMALL_PRESSURE = 1e-6

_SCAN_POINTS = 512
_MAX_BISECT = 200


def _refined_ages(ages: np.ndarray, rate: float, target: float = 0.05):
    """Subdivide cells so the source varies slowly within each sub-cell.

    Returns the refined node array and the indices of the original ages in
    it.  ``rate`` is the fastest variation rate of the inhomogeneous term;
    sub-cells satisfy h * rate <= target.
    """
    h = np.diff(ages)
    n_sub = np.maximum(1, np.ceil(h * rate / target).astype(int))
    n_sub = np.minimum(n_sub, 4096)
    pieces = [np.array([ages[0]])]
    for left, width, n in zip(ages[:-1], h, n_sub):
        pieces.append(left + width * np.arange(1, n + 1) / n)
    refined = np.concatenate(pieces)
    index = np.concatenate([[0], np.cumsum(n_sub)])
    return refined, index


def susceptible_profile(B: float, params, ages) -> np.ndarray:
    """s(a) = exp(-B * cumulative transmission rate)."""
    if B < 0:
        raise DomainError("B must be >= 0")
    params = as_parameter_set(params)
    ages = np.asarray(ages, dtype=float)
    return np.exp(-B * params.beta.cumulative(ages))


def recovered_profile(B: float, params, ages) -> np.ndarray:
    """Temporarily recovered fraction of the frozen-pressure steady system.

    Evaluates the variation-of-parameters kernel by the exponential sweep
    on an internally refined sub-grid (the decay part of the kernel is
    exact at any step, but the source needs sub-cells once B * beta is
    fast compared to the spacing of ``ages``).  ``ages`` must start at 0
    where r vanishes.
    """
    if B < 0:
        raise DomainError("B must be >= 0")
    params = as_parameter_set(params)
    ages = np.asarray(ages, dtype=float)
    if ages.size == 0 or ages[0] != 0.0:
        raise DomainError("ages must start at 0 (boundary r(0) = 0)")
    refined, index = _refined_ages(ages, B * params.beta.max_value())
    data = _SteadyData(params, refined)
    return data.recovered(B)[index]


def infected_profile(B: float, params, ages) -> np.ndarray:
    params = as_parameter_set(params)
    ages = np.asarray(ages, dtype=float)
    s = susceptible_profile(B, params, ages)
    return 1.0 - s - recovered_profile(B, params, ages)


class _SteadyData:
    """Cumulative-rate samples reused across repeated profile evaluations."""

    def __init__(self, params, ages: np.ndarray):
        self.params = params
        self.ages = ages
        stages = cell_stages(ages)
        exit_pressure = params.exit_pressure()
        self.stage_exit = exit_pressure(stages)
        self.stage_cum_beta = params.beta.cumulative(stages)
        self.cum_beta = params.beta.cumulative(ages)
        self.cum_exit = exit_pressure.cumulative(ages)
        self.cum_rho = params.rho.cumulative(ages)
        self.exit_nodes = exit_pressure(ages)
        self.rho_nodes = params.rho(ages)

    def susceptible(self, B: float):
        return np.exp(-B * self.cum_beta)

    def recovered(self, B: float):
        g = self.stage_exit * -np.expm1(-B * self.stage_cum_beta)
        psi = self.cum_exit + B * self.cum_rho
        decay = self.exit_nodes + B * self.rho_nodes
        r = _sweep.exp_sweep(self.ages, psi, g, decay)
        return np.maximum(r, 0.0)

    def infected(self, B):
        return 1.0 - self.susceptible(B) - self.recovered(B)


@dataclass(frozen=True)
class SteadyState:
    """An endemic steady state: fixed-point pressure and its age profiles."""

    b_star: float
    ages: np.ndarray
    s: np.ndarray
    i: np.ndarray
    r: np.ndarray
    residual: float


def induced_pressure(B: float, params, kernel: DemographicKernel) -> float:
    """Pressure generated by the steady profiles built under pressure B."""
    if B < 0:
        raise DomainError("B must be >= 0")
    if B == 0:
        return 0.0
    params = as_parameter_set(params)
    data = _SteadyData(params, kernel.ages)
    return float(kernel.integrate(data.infected(B) * kernel.density))


def amplification(B: float, params, kernel: DemographicKernel) -> float:
    """Ratio of induced to assumed pressure; tends to R0 as B -> 0."""
    params = as_parameter_set(params)
    if B < SMALL_PRESSURE:
        return _r0(params, kernel)
    return induced_pressure(B, params, kernel) / B


def find_fixed_points(params, kernel: DemographicKernel, tol: float = 1e-10):
    """All endemic pressures in (0, 1), with their steady profiles.

    Scans the amplification on a log-dense set of probes (bistable
    regimes have roots two orders of magnitude apart, so linear probing
    misses the small one), brackets every unit crossing, and refines each
    bracket by bisection until |amplification - 1| <= tol.
    """
    if tol <= 0:
        raise ParameterError("tol must be positive")
    params = as_parameter_set(params)
    data = _SteadyData(params, kernel.ages)
    density = kernel.density

    def excess(B):
        value = float(kernel.integrate(data.infected(float(B)) * density)) / B - 1.0
        if not np.isfinite(value):
            raise NumericsError(f"amplification is not finite at B = {B!r}")
        return value

    probes = np.geomspace(SMALL_PRESSURE, 1.0, _SCAN_POINTS)
    values = [excess(B) for B in probes]

    roots = []
    for k in range(len(probes) - 1):
        f_lo, f_hi = values[k], values[k + 1]
        if f_lo == 0.0:
            roots.append((probes[k], 0.0))
            continue
        if f_lo * f_hi >= 0.0:
            continue
        lo, hi = probes[k], probes[k + 1]
        g_lo = f_lo
        root = None
        for _ in range(_MAX_BISECT):
            mid = 0.5 * (lo + hi)
            f_mid = excess(mid)
            if abs(f_mid) <= tol:
                root = (mid, abs(f_mid))
                break
            if f_mid * g_lo > 0:
                lo = mid
                g_lo = f_mid
            else:
                hi = mid
            if hi - lo <= 1e-16 * max(1.0, mid):
                break
        if root is None:
            raise ToleranceError(
                f"fixed-point bisection stalled above tol={tol:g}",
                best=0.5 * (lo + hi),
            )
        roots.append(root)
    if values[-1] == 0.0:
        roots.append((probes[-1], 0.0))

    states = []
    for b_star, excess_value in sorted(roots):
        s = data.susceptible(b_star)
        r = data.recovered(b_star)
        i = 1.0 - s - r
        states.append(
            SteadyState(
                b_star=float(b_star),
                ages=kernel.ages,
                s=s,
                i=i,
                r=r,
                residual=float(excess_value * b_star),
            )
        )
    return states
