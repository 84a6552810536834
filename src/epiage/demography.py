"""Demographic quantities: survival, total population, mixing density.

The infinite age domain is truncated to [0, A], where survival first
falls to ``SURVIVAL_CUTOFF``: the exit rate's exact cumulative, inverted.
Kernels renormalize the stationary mixing density so its quadrature over
[0, A] is exactly one, which the fixed-point analysis relies on.
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


def truncation_age(params, cutoff: float = SURVIVAL_CUTOFF) -> float:
    """Smallest age A <= 2^29 with survival(A) <= cutoff in (0, 1), from
    ``mu.age_at``: a full bisection's A wherever mu does not fall at A, and
    a few ulps from it at most where mu falls (see ``AgeProfile.age_at``)."""
    if not 0.0 < cutoff < 1.0:
        raise ParameterError("cutoff must lie in (0, 1)")
    age = as_parameter_set(params).mu.age_at(math.log(1.0 / cutoff))
    if age > 2.0**29:
        raise ParameterError("survival decays too slowly to truncate")
    return age


def _analysis_grid(params: ParameterSet, age_max: float):
    """Graded grid suited to steady-state and threshold work.

    The grid refines dyadically towards age 0 so that boundary layers of
    width ~1/(phi+gamma+rho+beta) are resolved, while the far tail keeps
    coarse blocks.
    """
    # mu + beta + phi + gamma + rho + 1, added in that order
    fastest = sum(getattr(params, name).max_value() for name in RATE_NAMES[:5]) + 1.0
    knots = np.concatenate([getattr(params, name).ages for name in RATE_NAMES])
    return QuadratureGrid.graded(age_max, 1.0 / fastest, knots=knots)


def analysis_kernel(params, age_max: float | None = None) -> DemographicKernel:
    """Kernel on the graded grid of ``_analysis_grid`` over [0, age_max],
    by default up to ``truncation_age`` at ``SURVIVAL_CUTOFF``."""
    params = as_parameter_set(params)
    if age_max is None:
        age_max = truncation_age(params)
    return _kernel_on(params, _analysis_grid(params, age_max))


def refine_kernel(params, kernel: DemographicKernel) -> DemographicKernel:
    """Same kernel with every quadrature panel halved."""
    return _kernel_on(as_parameter_set(params), kernel.grid.refined())
