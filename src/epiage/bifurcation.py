"""Parameter sweeps producing backward-bifurcation diagram data.

Each swept value yields a diagram row: the reproduction number plus every
endemic branch (fixed-point pressure and its infected age profile), with
an optional empirical stability tag.  Stability is operational: perturb
the steady profile by a relative epsilon both ways, simulate, and ask
whether the pressure returns to the fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .closed_forms import closed_form_profiles, fixed_points_exact, r0_rc_exact
from .config import cosine_bump
from .demography import analysis_kernel
from .errors import ModelError, ParameterError
from .grids import GridSpec
from .parameters import ConstantRates
from .steady import SteadyState, find_fixed_points
from .thresholds import r0 as _r0
from .transport import auto_time_steps, simulate

#: |B_general - B_quadratic| beyond this fails a constant-rate cross-check
_CROSS_CHECK_TOL = 1e-8

PROBE_EPSILON = 0.05
PROBE_HORIZON = 5.0
#: the probe simulates 0-200 years of age on 4000 cells of 0.05 years
_PROBE_AGE_MAX = 200.0
_PROBE_AGE_STEPS = 4000


@dataclass(frozen=True)
class Branch:
    b_star: float
    ages: np.ndarray
    infected: np.ndarray
    stability: str  # "stable" | "unstable" | "untested"


@dataclass(frozen=True)
class DiagramRow:
    swept_value: float
    r0: float
    branches: tuple
    error: str | None = None


def stability_probe(params, steady: SteadyState, epsilon: float = PROBE_EPSILON) -> str:
    """Tag a steady state by perturb-and-resimulate.

    The infected profile is scaled by (1 +- epsilon) with the susceptible
    fraction absorbing the change; the state is stable when the pressure
    ends within epsilon/2 of the fixed point for both signs after
    ``PROBE_HORIZON`` years, on a 0.05-year grid over ages 0-200.  The
    infection-free state (b_star == 0) is probed with a small additive
    bump instead, and is stable when the induced pressure at the horizon
    has at least halved.
    """
    if not 0 < epsilon <= 0.1:
        raise ParameterError("epsilon must lie in (0, 0.1]")
    if isinstance(params, ConstantRates):
        params = params.to_parameter_set()
    n_time = auto_time_steps(params, _PROBE_AGE_MAX, PROBE_HORIZON, _PROBE_AGE_STEPS)
    grid = GridSpec(_PROBE_AGE_MAX, PROBE_HORIZON, _PROBE_AGE_STEPS, n_time)
    nodes = grid.age_nodes()

    try:
        if steady.b_star == 0.0:
            width = _PROBE_AGE_MAX / 2.0
            i0 = cosine_bump(nodes, epsilon, width, width)
            traj = simulate(
                params, (1.0 - i0, i0, np.zeros_like(nodes)), grid, store=n_time
            )
            return "stable" if traj.b_series[-1] <= 0.5 * traj.b_series[0] else "unstable"
        band = 0.5 * epsilon * steady.b_star
        for sign in (+1.0, -1.0):
            i0 = np.interp(nodes, steady.ages, steady.i) * (1.0 + sign * epsilon)
            r0_row = np.interp(nodes, steady.ages, steady.r)
            i0[0] = 0.0
            r0_row[0] = 0.0
            s0 = 1.0 - i0 - r0_row
            # where s* is already ~0 the recovered pool absorbs the bump
            deficit = np.minimum(s0, 0.0)
            r0_row = r0_row + deficit
            s0 = s0 - deficit
            if r0_row.min() < 0:
                raise ParameterError("perturbation exceeds the recovered pool")
            traj = simulate(params, (s0, i0, r0_row), grid, store=n_time)
            if abs(traj.b_series[-1] - steady.b_star) > band:
                return "unstable"
        return "stable"
    except ModelError:
        return "untested"


def sweep(
    base,
    param: str,
    values,
    kernel=None,
    tol: float = 1e-10,
    probe: bool = False,
    cross_check: bool = True,
):
    """Diagram rows for every swept value of one rate.

    Constant-rate bases use the quadratic closed form for the roots (and,
    when ``cross_check`` is set, verify the general fixed-point solver
    agrees to 1e-8).  Failures are recorded on their row; the sweep always
    returns one row per value.
    """
    values = [float(v) for v in values]
    if any(v <= 0 for v in values):
        raise ParameterError("swept values must be positive")
    if sorted(values) != values:
        raise ParameterError("swept values must be sorted ascending")
    rows = []
    for value in values:
        try:
            rows.append(
                _sweep_row(base, param, value, kernel, tol, probe, cross_check)
            )
        except ModelError as exc:
            rows.append(DiagramRow(value, float("nan"), (), error=str(exc)))
    return rows


def _sweep_row(base, param, value, kernel, tol, probe, cross_check):
    constant = isinstance(base, ConstantRates)
    if constant:
        rates = replace(base, **{param: value})
        params = rates.to_parameter_set()
    else:
        params = base.with_rate(param, value)
        rates = None
    row_kernel = kernel
    if row_kernel is None or param == "mu":
        row_kernel = analysis_kernel(params)

    if constant:
        r0_value = r0_rc_exact(rates)[0]
        roots = fixed_points_exact(rates)
        states = []
        for b in roots:
            s, i, r = closed_form_profiles(b, rates, row_kernel.ages)
            states.append(
                SteadyState(b, row_kernel.ages, s, i, r, residual=0.0)
            )
        error = None
        if cross_check:
            general = find_fixed_points(params, row_kernel, tol)
            if len(general) != len(roots) or any(
                abs(g.b_star - b) > _CROSS_CHECK_TOL
                for g, b in zip(general, roots)
            ):
                error = (
                    "general fixed-point solver disagrees with the quadratic: "
                    f"{[g.b_star for g in general]} vs {roots}"
                )
    else:
        r0_value = _r0(params, row_kernel)
        states = find_fixed_points(params, row_kernel, tol)
        error = None

    branches = []
    for state in states:
        tag = "untested"
        if probe and error is None:
            tag = stability_probe(params, state)
        branches.append(Branch(state.b_star, state.ages, state.i, tag))
    return DiagramRow(float(value), float(r0_value), tuple(branches), error)
