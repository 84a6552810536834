"""Endemic steady states via the fixed-point map of the infection pressure.

Freezing the force of infection at a trial value B turns the steady-state
system into linear ODEs in age with known boundary values; the one
swept, by ``_SteadyData.sweep``, is that of u = i/B:

    s(a) = exp(-B * integral of beta),
    u' = rho + (beta - rho) s - (phi + gamma + lam + B rho) u,   u(0) = 0,
    i = B u,    r = (1 - s) - B u   (lam = 0).

At B = 0 the source is beta and u the growth equation's W(.; lam), R0's
kernel W at lam = 0; rho is sampled only for B > 0.  ``amplification``,
the ratio of induced to assumed pressure, is the pressure quadrature of
u at every B >= 0: no division by B, and R0 on the kernel's grid, bit
for bit, at B = 0.  ``induced_pressure`` is B times it, and endemic
states are its unit crossings in (0, 1].  r loses relative digits only
at young ages, where r is far below i.  ``infected_profile`` and
``recovered_profile`` sweep u on the same graded grid, cut at the oldest
requested age, and refine it by ``grids.adapt``: the blocks across which
i and r still change are split until those changes converge.

``find_fixed_points`` scans the excess amplification - 1 on a coarse
geometric set of probes from 1e-9 up to the a-priori bound B_cut above
which no endemic state exists, and at most to 1, skipping the probes
below an a-priori floor where the excess keeps the sign of its first
probe, and hands the samples to ``_roots.crossings``: its extremum split
finds a root pair hidden inside one probe interval, and it refines every
sign change until |amplification - 1| <= tol.  Where relapse never
exceeds transmission the excess cannot turn, and bisecting the indices
of the same probes finds the one bracket the scan would.

The bound: with B frozen, i' = B (beta s + rho r) - (phi+gamma) i <=
m B (1 - i) - e i for m = max(beta, rho) and e = min(phi+gamma), so
i(a) < m B / (m B + e) at every age.  The pressure is a quadrature of i
with nonnegative weights summing to one, so amplification(B), the same
quadrature of u = i/B, is below m / (m B + e), which is at most
1 - delta from B_cut = 1/(1 - delta) - e/m on; when m <= (1 - delta) e
there is no endemic state at all.

The floor: u and W obey (u - W)' = rho r - beta (1 - s) - (phi+gamma)
(u - W), and both source terms lie in [0, m B cumbeta(a)] since 0 <= r
<= 1 - s <= B cumbeta.  So |u - W|(a) <= m B cumbeta(a) / e, and with
the same weights |amplification(B) - R0| <= B m RC / e for RC =
integral of p cumbeta.  Against the first probe B0 = 1e-9,
|excess(B) - excess(B0)| <= (B + B0) m RC / e, so wherever
(B + B0) m RC < (|excess(B0)| - delta) e the excess has the sign of
excess(B0) and stays more than delta from 0.

The comparison: where rho <= beta at every age, the source beta s + rho
(1 - s) = rho + (beta - rho) s of u does not grow with B, as s falls
with B, and its decay phi + gamma + B rho does not shrink.  With u >= 0,
u(B2) <= u(B1) at every age for B2 > B1, and so amplification(B2) <=
amplification(B1): the excess is nonincreasing, with one sign change at
most, so one endemic state at most.  The tables are piecewise linear
and held past their last knots, so rho <= beta at the union of their
knots decides it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _sweep
from ._roots import crossings
from .demography import DemographicKernel, _analysis_grid
from .errors import DomainError, NumericsError, ParameterError
from .grids import adapt, cell_stages
from .parameters import as_parameter_set

#: the fixed-point scan starts here; roots below it are not found
_SCAN_FLOOR = 1e-9
_SCAN_POINTS = 48
#: margin delta of the a-priori bound: beyond B_cut the excess is below
#: -delta, far outside the sweep's discretisation error
_BOUND_MARGIN = 1e-2


def _check_tolerance(value: float, name: str) -> None:
    if not 0.0 < value < math.inf:
        raise ParameterError(f"{name} must be positive and finite")


def _check_pressure(B: float) -> None:
    if not 0.0 <= B < math.inf:
        raise DomainError("B must be finite and >= 0")


def susceptible_profile(B: float, params, ages) -> np.ndarray:
    """s(a) = exp(-B * cumulative transmission rate)."""
    _check_pressure(B)
    params = as_parameter_set(params)
    ages = np.asarray(ages, dtype=float)
    return np.exp(-B * params.beta.cumulative(ages))


def _refined_profiles(B: float, params, ages, which: int) -> np.ndarray:
    """i (``which`` 0) or r (1) at ``ages``, swept on the analysis grid up
    to max(ages) with ``ages`` added as nodes, in whatever order they come.

    ``grids.adapt`` refines the grid by the profile's change across each
    block, to 1e-10 absolute: i and r are fractions of the population.
    """
    _check_pressure(B)
    params = as_parameter_set(params)
    ages = np.asarray(ages, dtype=float)
    if ages.size == 0 or ages[0] != 0.0:
        raise DomainError("ages must start at 0 (boundary i(0) = r(0) = 0)")
    if not np.all(np.isfinite(ages)) or ages.min() < 0.0:
        raise DomainError("ages must be finite and >= 0")
    if ages.max() == 0.0:
        return np.zeros_like(ages)

    def evaluate(grid):
        nodes = np.union1d(grid.nodes, ages)
        data = _SteadyData(params, nodes)
        _, i, r = data.profiles(B, data.sweep(B))
        profile = (i, r)[which]
        at_edges = profile[np.searchsorted(nodes, grid.edges)]
        return profile[np.searchsorted(nodes, ages)], np.diff(at_edges)

    return adapt(evaluate, _analysis_grid(params, ages.max()), 1e-10, least=1.0)[0]


def infected_profile(B: float, params, ages) -> np.ndarray:
    """Infected fraction i = B u of the frozen-pressure steady system, to
    1e-10; ``ages`` must start at 0 and may come in any order."""
    return _refined_profiles(B, params, ages, 0)


def recovered_profile(B: float, params, ages) -> np.ndarray:
    """Temporarily recovered fraction r = (1 - s) - B u of the frozen-pressure
    steady system, to 1e-10; ``ages`` must start at 0 and may come in any order."""
    return _refined_profiles(B, params, ages, 1)


class _SteadyData:
    """Rate samples on ``ages``, shared by every sweep there."""

    def __init__(self, params, ages: np.ndarray):
        self.params = params
        self.ages = ages
        exit_pressure = params.exit_pressure()
        self.stage_beta = params.beta(cell_stages(ages))
        self.cum_beta = params.beta.cumulative(ages)
        self.cum_exit = exit_pressure.cumulative(ages)
        self.exit_nodes = exit_pressure(ages)

    @cached_property
    def _relapse(self):
        """rho, beta - rho, cumbeta at the stages; rho, its integral at the nodes."""
        stages, rho = cell_stages(self.ages), self.params.rho
        stage_rho = rho(stages)
        return (stage_rho, self.stage_beta - stage_rho, self.params.beta.cumulative(stages),
                rho(self.ages), rho.cumulative(self.ages))

    def sweep(self, B: float = 0.0, lam: float = 0.0):
        """u under frozen pressure B at growth rate lam (see the module docstring)."""
        g, psi, decay = self.stage_beta, self.cum_exit, self.exit_nodes
        if B:
            rho, beta_less_rho, cum_beta, rho_nodes, cum_rho = self._relapse
            g = rho + beta_less_rho * np.exp(-B * cum_beta)
            psi = psi + B * cum_rho
            decay = decay + B * rho_nodes
        if lam:  # only differences of the decay enter the sweep: lam stays out
            with np.errstate(over="ignore"):
                psi = psi + lam * self.ages
            if math.isinf(psi[-1]):
                if lam > 0.0:
                    raise NumericsError(f"the sweep's decay exponent overflows at lam = {lam!r}")
                # u overflows as well, which is G's +inf; a finite floor
                # keeps the sweep's differences from inf - inf
                psi = np.maximum(psi, -np.finfo(float).max)
        return _sweep.exp_sweep(self.ages, psi, g, decay)

    def profiles(self, B: float, u: np.ndarray):
        """(s, i, r) from u, with 1 - s from expm1 so that small B keeps its digits."""
        i = B * u
        r = np.maximum(-np.expm1(-B * self.cum_beta) - i, 0.0)
        return np.exp(-B * self.cum_beta), i, r


def _amplification(data: _SteadyData, B: float, kernel: DemographicKernel):
    """(amplification at B, u); ``kernel`` is on the ages of ``data``."""
    u = data.sweep(B)
    return float(kernel.integrate(u * kernel.density)), u


@dataclass(frozen=True)
class SteadyState:
    """An endemic steady state: fixed-point pressure and its age profiles."""

    b_star: float
    ages: np.ndarray
    s: np.ndarray
    i: np.ndarray
    r: np.ndarray
    residual: float


def amplification(B: float, params, kernel: DemographicKernel) -> float:
    """Ratio of induced to assumed pressure, the quadrature of p u; at B = 0
    it is R0 on the kernel's grid."""
    _check_pressure(B)
    data = _SteadyData(as_parameter_set(params), kernel.ages)
    return _amplification(data, B, kernel)[0]


def induced_pressure(B: float, params, kernel: DemographicKernel) -> float:
    """Pressure generated by the steady profiles built under pressure B,
    B * amplification(B)."""
    return B * amplification(B, params, kernel)


def _relapse_within_transmission(params) -> bool:
    """rho <= beta at every age.  Both tables are piecewise linear and held
    at their end values past their end knots, so the union of their knots
    decides it exactly."""
    knots = np.union1d(params.beta.ages, params.rho.ages)
    return bool(np.all(params.rho(knots) <= params.beta(knots)))


def _bisect(excess, probes, first: float):
    """(B, excess(B)) around the one sign change of a nonincreasing excess.

    Bisects the indices of ``probes``, whose first excess is ``first``:
    the lower end keeps a positive excess, and the upper end is taken as
    negative until evaluated, as it is past B_cut.  So it returns the two
    consecutive probes between which the full scan sees the sign change
    (the last two, as they read, where the excess stays nonnegative up to
    the last probe), or the first probe alone where the excess starts at
    or below 0.
    """
    lo, hi, f_lo, f_hi = 0, len(probes) - 1, first, None
    if f_lo <= 0.0:
        return [(probes[lo], f_lo)]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        value = excess(probes[mid])
        if value > 0.0:
            lo, f_lo = mid, value
        else:
            hi, f_hi = mid, value
    if f_hi is None:
        f_hi = excess(probes[hi])
    return [(probes[lo], f_lo), (probes[hi], f_hi)]


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
    skips none below the floor.  Where relapse never exceeds
    transmission, the samples are those ``_bisect`` takes from the probes
    up to B_cut.
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
    if _relapse_within_transmission(params):
        return _bisect(excess, probes, first)
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
    probe is evaluated.  Where relapse never exceeds transmission the
    excess is nonincreasing (see the module docstring), so bisecting the
    indices of the same probes, from the first to the last one past
    B_cut, brackets its one sign change by the same two probes as the
    scan, in about 6 sweeps where the scan takes about 25.
    ``_roots.crossings`` then splits every scanned one-sided extremum with
    Brent's minimiser, so a close root pair inside one probe interval is
    still found, and refines every sign change by Chandrupatla's method
    until |amplification - 1| <= tol.  Each root's profiles come from the
    u of the evaluation that found it, with no further sweep.
    """
    _check_tolerance(tol, "tol")
    params = as_parameter_set(params)
    data = _SteadyData(params, kernel.ages)

    # u at every evaluation within tol of a root, for the roots' profiles
    swept = {}

    def excess(B):
        value, u = _amplification(data, B, kernel)
        value -= 1.0
        if not np.isfinite(value):
            raise NumericsError(f"amplification is not finite at B = {B!r}")
        if abs(value) <= tol:
            swept[B] = u
        return value

    samples = _scan(excess, data, kernel)
    states = []
    for b_star, excess_value in crossings(excess, samples, tol, "fixed-point"):
        s, i, r = data.profiles(b_star, swept[b_star])
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
