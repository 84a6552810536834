"""Parameter sweeps producing backward-bifurcation diagram data.

Each swept value yields a diagram row: the reproduction number plus every
endemic branch (fixed-point pressure and its infected age profile), with
an optional empirical stability tag.  Rows whose rates are all constant
take R0 and the branches from the closed forms and check them against the
general fixed-point solver; other rows use the general solver alone.
Stability is operational: perturb the steady profile by ``PROBE_EPSILON``
relative both ways, simulate, and ask whether the pressure returns to the
fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_forms import closed_form_profiles, fixed_points_exact, r0_rc_exact
from .config import cosine_bump
from .demography import analysis_kernel
from .errors import ModelError, ParameterError
from .grids import GridSpec
from .parameters import as_parameter_set
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


def stability_probe(params, steady: SteadyState) -> str:
    """Tag a steady state by perturb-and-resimulate.

    The infected profile is scaled by (1 +- PROBE_EPSILON) with the
    susceptible fraction absorbing the change; the state is stable when
    the pressure ends within PROBE_EPSILON/2 of the fixed point for both
    signs after ``PROBE_HORIZON`` years, on a 0.05-year grid over ages
    0-200.  The infection-free state (b_star == 0) is probed with a small
    additive bump instead, and is stable when the induced pressure at the
    horizon has at least halved.
    """
    params = as_parameter_set(params)
    n_time = auto_time_steps(params, _PROBE_AGE_MAX, PROBE_HORIZON, _PROBE_AGE_STEPS)
    grid = GridSpec(_PROBE_AGE_MAX, PROBE_HORIZON, _PROBE_AGE_STEPS, n_time)
    nodes = grid.age_nodes()

    try:
        if steady.b_star == 0.0:
            width = _PROBE_AGE_MAX / 2.0
            i0 = cosine_bump(nodes, PROBE_EPSILON, width, width)
            traj = simulate(
                params, (1.0 - i0, i0, np.zeros_like(nodes)), grid, store=n_time
            )
            return "stable" if traj.b_series[-1] <= 0.5 * traj.b_series[0] else "unstable"
        band = 0.5 * PROBE_EPSILON * steady.b_star
        for sign in (+1.0, -1.0):
            i0 = np.interp(nodes, steady.ages, steady.i) * (1.0 + sign * PROBE_EPSILON)
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


def sweep(base, param: str, values, tol: float = 1e-10, probe: bool = False):
    """Diagram rows for every swept value of one rate.

    Each row builds its own analysis kernel.  When every rate of the row
    is constant (``ParameterSet.constant_rates``), R0 and the roots come
    from the closed forms, and the general fixed-point solver must agree
    with the quadratic to 1e-8; otherwise the general solver gives them.
    Failures are recorded on their row; the sweep always returns one row
    per value.
    """
    values = [float(v) for v in values]
    if any(v <= 0 for v in values):
        raise ParameterError("swept values must be positive")
    if sorted(values) != values:
        raise ParameterError("swept values must be sorted ascending")
    rows = []
    for value in values:
        try:
            rows.append(_sweep_row(base, param, value, tol, probe))
        except ModelError as exc:
            rows.append(DiagramRow(value, float("nan"), (), error=str(exc)))
    return rows


def _sweep_row(base, param, value, tol, probe):
    params = as_parameter_set(base).with_rate(param, value)
    kernel = analysis_kernel(params)
    rates = params.constant_rates()
    error = None
    if rates is None:
        r0_value = _r0(params, kernel)
        states = find_fixed_points(params, kernel, tol)
    else:
        r0_value = r0_rc_exact(rates)[0]
        roots = fixed_points_exact(rates)
        states = []
        for b in roots:
            s, i, r = closed_form_profiles(b, rates, kernel.ages)
            states.append(SteadyState(b, kernel.ages, s, i, r, residual=0.0))
        general = find_fixed_points(params, kernel, tol)
        if len(general) != len(roots) or any(
            abs(g.b_star - b) > _CROSS_CHECK_TOL for g, b in zip(general, roots)
        ):
            error = (
                "general fixed-point solver disagrees with the quadratic: "
                f"{[g.b_star for g in general]} vs {roots}"
            )

    branches = []
    for state in states:
        tag = "untested"
        if probe and error is None:
            tag = stability_probe(params, state)
        branches.append(Branch(state.b_star, state.ages, state.i, tag))
    return DiagramRow(value, float(r0_value), tuple(branches), error)
