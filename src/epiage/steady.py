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

``find_fixed_points`` scans the excess amplification - 1 on a coarse
geometric set of probes from 1e-9 up to the a-priori bound B_cut above
which no endemic state exists, and at most to 1, skipping the probes
below an a-priori floor where the excess keeps the sign of its first
probe, and hands the samples to ``_roots.crossings``: its extremum split
finds a root pair hidden inside one probe interval, and it refines every
sign change until |amplification - 1| <= tol.

The bound: with B frozen, i' = B (beta s + rho r) - (phi+gamma) i <=
m B (1 - i) - e i for m = max(beta, rho) and e = min(phi+gamma), so
i(a) < m B / (m B + e) at every age.  The pressure is a quadrature of i
with nonnegative weights summing to one, so amplification(B) <
m / (m B + e), which is at most 1 - delta from B_cut = 1/(1 - delta) - e/m
on; when m <= (1 - delta) e there is no endemic state at all.

The floor: u = i/B and R0's kernel W (W' = beta - (phi+gamma) W, W(0) =
0) obey (u - W)' = rho r - beta (1 - s) - (phi+gamma) (u - W), and both
source terms lie in [0, m B cumbeta(a)] since 0 <= r <= 1 - s <=
B cumbeta.  So |u - W|(a) <= m B cumbeta(a) / e, and with the same
weights |amplification(B) - R0| <= B m RC / e for RC = integral of
p cumbeta.  Against the first probe B0 = 1e-9, |excess(B) - excess(B0)|
<= (B + B0) m RC / e, so wherever (B + B0) m RC < (|excess(B0)| - delta) e
the excess has the sign of excess(B0) and stays more than delta from 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _sweep
from ._roots import crossings
from .demography import DemographicKernel
from .errors import DomainError, NumericsError, ParameterError
from .grids import cell_stages
from .parameters import as_parameter_set
from .thresholds import r0 as _r0

#: below this, amplification(B) returns the analytic B -> 0 limit
SMALL_PRESSURE = 1e-6

#: the fixed-point scan starts here; roots below it are not found
_SCAN_FLOOR = 1e-9
_SCAN_POINTS = 48
#: margin delta of the a-priori bound: beyond B_cut the excess is below
#: -delta, far outside the sweep's discretisation error
_BOUND_MARGIN = 1e-2


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


def _refined_data(B: float, params, ages):
    """Profile data on ``ages`` refined for pressure B, and the original ages' indices."""
    if B < 0:
        raise DomainError("B must be >= 0")
    params = as_parameter_set(params)
    ages = np.asarray(ages, dtype=float)
    if ages.size == 0 or ages[0] != 0.0:
        raise DomainError("ages must start at 0 (boundary r(0) = 0)")
    refined, index = _refined_ages(ages, B * params.beta.max_value())
    return _SteadyData(params, refined), index


def recovered_profile(B: float, params, ages) -> np.ndarray:
    """Temporarily recovered fraction of the frozen-pressure steady system.

    Evaluates the variation-of-parameters kernel by the exponential sweep
    on an internally refined sub-grid (the decay part of the kernel is
    exact at any step, but the source needs sub-cells once B * beta is
    fast compared to the spacing of ``ages``).  ``ages`` must start at 0
    where r vanishes.
    """
    data, index = _refined_data(B, params, ages)
    return data.recovered(B)[index]


def infected_profile(B: float, params, ages) -> np.ndarray:
    """Infected fraction of the frozen-pressure steady system, on the
    refined sub-grid of ``recovered_profile``."""
    data, index = _refined_data(B, params, ages)
    return data.infected(B, data.recovered(B))[index]


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

    def infected(self, B: float, recovered: np.ndarray):
        """i = 1 - s - r, with 1 - s from expm1 so that small B keeps its digits."""
        return -np.expm1(-B * self.cum_beta) - recovered

    def pressure(self, B: float, recovered: np.ndarray, kernel: DemographicKernel) -> float:
        """Pressure induced under B, given r; ``kernel`` is on the same ages."""
        infected = self.infected(B, recovered)
        return float(kernel.integrate(infected * kernel.density))


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
    data = _SteadyData(as_parameter_set(params), kernel.ages)
    return data.pressure(B, data.recovered(B), kernel)


def amplification(B: float, params, kernel: DemographicKernel) -> float:
    """Ratio of induced to assumed pressure; tends to R0 as B -> 0."""
    params = as_parameter_set(params)
    if B < SMALL_PRESSURE:
        return _r0(params, kernel)
    return induced_pressure(B, params, kernel) / B


def _scan(excess, data: _SteadyData, kernel: DemographicKernel):
    """(B, excess(B)) at the probes the fixed-point scan needs.

    Of the geometric probes from 1e-9 to 1 these are the first, every
    later one between the floor and B_cut (see the module docstring), the
    last two below the floor and the first two at or beyond B_cut.  So the
    extremum checks next to either bound see the neighbours of the full
    scan, and every dropped probe or check lies where the excess cannot
    reach 0.  Where the bound leaves no endemic state at all, m <= (1 -
    delta) e, there are no probes.  The tests are written without a
    division: m = 0 (no transmission, no relapse) has no probes and e = 0
    skips none below the floor.
    """
    params = data.params
    m = max(params.beta.max_value(), params.rho.max_value())
    e = params.exit_pressure().min_value()
    if m <= (1.0 - _BOUND_MARGIN) * e:
        return []
    probes = [float(B) for B in np.geomspace(_SCAN_FLOOR, 1.0, _SCAN_POINTS)]
    stop = next(
        (k + 2 for k, B in enumerate(probes) if (1.0 - _BOUND_MARGIN) * (m * B + e) >= m),
        len(probes),
    )
    probes = probes[:stop]
    first = excess(probes[0])
    spread = m * kernel.integrate(data.cum_beta * kernel.density)
    slack = (abs(first) - _BOUND_MARGIN) * e
    below = sum((B + probes[0]) * spread < slack for B in probes[1:])
    return [(probes[0], first)] + [(B, excess(B)) for B in probes[max(1, below - 1) :]]


def find_fixed_points(params, kernel: DemographicKernel, tol: float = 1e-10):
    """All endemic pressures in (0, 1), with their steady profiles.

    Scans the excess amplification - 1 on a coarse geometric set of
    probes from 1e-9 to 1 (bistable regimes have roots orders of
    magnitude apart, so linear probing misses the small one), cut after
    the second probe at or beyond the a-priori bound B_cut and started
    from the last two probes below the a-priori floor, past the first
    probe (see the module docstring); the cuts drop only probes and
    extremum checks that cannot change the result, so the roots are those
    of the full scan; where the bound rules out every endemic state no
    probe is evaluated.
    ``_roots.crossings`` then splits every scanned one-sided extremum with
    Brent's minimiser, so a close root pair inside one probe interval is
    still found, and refines every sign change by Chandrupatla's method
    until |amplification - 1| <= tol.  Each root's profiles reuse the
    recovered fraction of the evaluation that found it.
    """
    if tol <= 0:
        raise ParameterError("tol must be positive")
    params = as_parameter_set(params)
    data = _SteadyData(params, kernel.ages)

    # r at every evaluation within tol of a root, for the roots' profiles
    recovered = {}

    def excess(B):
        r = data.recovered(B)
        value = data.pressure(B, r, kernel) / B - 1.0
        if not np.isfinite(value):
            raise NumericsError(f"amplification is not finite at B = {B!r}")
        if abs(value) <= tol:
            recovered[B] = r
        return value

    samples = _scan(excess, data, kernel)
    states = []
    for b_star, excess_value in crossings(excess, samples, tol, "fixed-point"):
        s = data.susceptible(b_star)
        r = recovered[b_star]
        i = data.infected(b_star, r)
        states.append(
            SteadyState(
                b_star=float(b_star),
                ages=kernel.ages,
                s=s,
                i=i,
                r=r,
                residual=float(abs(excess_value) * b_star),
            )
        )
    return states
