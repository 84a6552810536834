"""Demographic quantities: survival, total population, mixing density.

The infinite age domain is truncated to [0, A].  Kernels renormalize the
stationary mixing density so its quadrature over [0, A] is exactly one,
which the fixed-point analysis relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .grids import GridSpec, QuadratureGrid
from .parameters import RATE_NAMES, ParameterSet, as_parameter_set
from .profiles import as_profile

#: default truncation: age_max is chosen so survival(age_max) <= this
SURVIVAL_CUTOFF = 1e-6
#: bisection steps whose midpoints ``truncation_age`` evaluates at once
_BISECTION_BLOCK = 6


def survival(params: ParameterSet, a):
    """Probability of remaining in the system to age ``a``.

    Exact for constant and piecewise-linear exit rates (the cumulative
    integral of a linear segment is a closed form).
    """
    return np.exp(-params.mu.cumulative(a))


def population_on(params: ParameterSet, n0, a):
    """Total population density on the ages ``a`` as a function of time.

    Characteristics carry the initial profile for t < a and the inflow of
    newborns for t >= a; the two branches agree along t = a exactly when
    n0(0) equals the birth rate, and the inflow branch is used there.  The
    parts that do not change with time (the cumulative exit rate and the
    inflow branch) are computed here once; the returned function of t
    evaluates the carried branch on the ages above t.
    """
    n0 = as_profile(n0)
    a = np.atleast_1d(np.asarray(a, dtype=float))
    cum_mu = params.mu.cumulative(a)
    inflow = params.birth_rate * np.exp(-cum_mu)

    def at(t: float) -> np.ndarray:
        if t < 0:
            raise DomainError("time must be >= 0")
        out = inflow.copy()
        young = a > t
        if np.any(young):
            start = a[young] - t
            carried = np.exp(-(cum_mu[young] - params.mu.cumulative(start)))
            out[young] = n0(start) * carried
        return out

    return at


def total_population(params: ParameterSet, n0, t: float, a):
    """Total population density at time ``t`` and age ``a`` (see ``population_on``)."""
    out = population_on(params, n0, a)(t)
    return float(out[0]) if np.ndim(a) == 0 else out


@dataclass(frozen=True)
class DemographicKernel:
    """Stationary mixing density cached on an age grid.

    density: the stationary mixing density p(a_k) with quadrature exactly
    1 over the grid; norm: the normalizing integral of contact * survival
    before renormalization.
    """

    grid: QuadratureGrid
    density: np.ndarray
    norm: float

    @property
    def ages(self) -> np.ndarray:
        return self.grid.nodes

    def integrate(self, values: np.ndarray) -> float:
        return self.grid.integrate(values)


def _kernel_on(params: ParameterSet, grid: QuadratureGrid) -> DemographicKernel:
    if params.mu.min_value() <= 0:
        raise ParameterError("mu must be strictly positive to build a kernel")
    weighted = params.contact(grid.nodes) * survival(params, grid.nodes)
    norm = grid.integrate(weighted)
    if not norm > 0:
        raise ParameterError("normalizing integral of contact * survival is <= 0")
    density = weighted / norm
    # second pass pins the quadrature of the density at exactly one
    density = density / grid.integrate(density)
    return DemographicKernel(grid, density, float(norm))


def stationary_mixing(params, grid) -> DemographicKernel:
    """Kernel on a simulation grid (or any prebuilt quadrature grid)."""
    params = as_parameter_set(params)
    if isinstance(grid, GridSpec):
        grid = QuadratureGrid.uniform(grid.age_max, grid.n_age)
    return _kernel_on(params, grid)


def truncation_age(params: ParameterSet, cutoff: float = SURVIVAL_CUTOFF) -> float:
    """Smallest age A with survival(A) <= cutoff, found by bisection.

    The bisection starts from the first power of two (up to 2^29) where
    survival is at or below the cutoff.  Each array call evaluates the
    midpoints of the next ``_BISECTION_BLOCK`` steps, every one the
    bisection could reach; walking down that tree makes the scalar
    bisection's decisions, so A is bit for bit that of bisecting one step
    at a time.
    """
    target = math.log(1.0 / cutoff)
    powers = 2.0 ** np.arange(30)
    with np.errstate(over="ignore"):
        reached = params.mu.cumulative(powers) >= target
    if not reached.any():
        raise ParameterError("survival decays too slowly to truncate")
    hi = float(powers[reached.argmax()])
    lo = hi / 2.0 if hi > 1.0 else 0.0
    steps = 0
    while steps < 80:
        # level k holds the 2^k midpoints k steps down, the midpoints of
        # the intervals between neighbours of the points above it; interval
        # i splits into 2i (below its midpoint) and 2i + 1 (above)
        points, levels = [lo, hi], []
        for _ in range(_BISECTION_BLOCK):
            mids = [0.5 * (a + b) for a, b in zip(points, points[1:])]
            levels.append(mids)
            points = [x for pair in zip(points, mids) for x in pair] + points[-1:]
        short = params.mu.cumulative(np.array(sum(levels, []))) < target
        i = 0
        for k, mids in enumerate(levels[: 80 - steps]):
            mid = mids[i]
            # lo and hi are adjacent doubles: every later step would repeat this
            if mid == lo or mid == hi:
                return hi
            if short[2**k - 1 + i]:
                lo, i = mid, 2 * i + 1
            else:
                hi, i = mid, 2 * i
        steps += len(levels)
    return hi


def analysis_kernel(
    params,
    cutoff: float = SURVIVAL_CUTOFF,
    panels_per_block: int = 128,
    age_max: float | None = None,
) -> DemographicKernel:
    """Kernel on a graded grid suited to steady-state and threshold work.

    The grid refines dyadically towards age 0 so that boundary layers of
    width ~1/(phi+gamma+rho+beta) are resolved, while the far tail keeps
    coarse blocks.
    """
    params = as_parameter_set(params)
    if age_max is None:
        age_max = truncation_age(params, cutoff)
    fastest = (
        params.mu.max_value()
        + params.beta.max_value()
        + params.phi.max_value()
        + params.gamma.max_value()
        + params.rho.max_value()
        + 1.0
    )
    knots = np.unique(
        np.concatenate([getattr(params, name).ages for name in RATE_NAMES])
    )
    grid = QuadratureGrid.graded(
        age_max, 1.0 / fastest, panels_per_block, knots=knots
    )
    return _kernel_on(params, grid)


def refine_kernel(params, kernel: DemographicKernel) -> DemographicKernel:
    """Same kernel with every quadrature panel halved (for Richardson checks)."""
    return _kernel_on(as_parameter_set(params), kernel.grid.refined())
