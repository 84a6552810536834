"""Explicit first-order upwind solver for the rescaled fraction system.

Each time step advances the interior nodes with the three update formulas

    s+ = s + dt (-beta s B - D s)
    i+ = i + dt (beta s B - (phi+gamma) i + rho r B - D i)
    r+ = r + dt ((phi+gamma) i - rho r B - D r)

where D is the backward age difference and B the quadrature of i against
the mixing density at the current time.  The reaction terms are computed
once and reused across the three updates, so they cancel exactly in the
sum s+i+r and conservation holds to roundoff.  ``simulate`` keeps every
``store``-th time row in memory, the last one always, and returns them
with the pressure at every time node once the run has ended.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .demography import population_on, stationary_mixing
from .errors import ParameterError, ShapeError, TimeStepError
from .grids import GridSpec, QuadratureGrid
from .parameters import as_parameter_set

#: abort threshold for the positivity monitor (well below the invariant's
#: roundoff allowance, so only genuine blow-ups trip it)
_POSITIVITY_ABORT = -1e-10

_SUM_TOL = 1e-12
_AUTO_STORE_LIMIT = 4_000_000
_AUTO_STORE_ROWS = 256


@dataclass(frozen=True)
class TimeStepReport:
    ok: bool
    dt_max: float
    reasons: tuple


def stable_timestep(params, grid: GridSpec) -> TimeStepReport:
    """CFL and positivity gate for the explicit scheme.

    Requires dt < da, plus the worst-case (B = 1) positivity bounds
    dt (1/da + max(phi+gamma+rho)) <= 1 and dt (1/da + max beta) <= 1.
    ``dt_max`` is the largest step passing all three.
    """
    params = as_parameter_set(params)
    da, dt = grid.da, grid.dt
    reaction = (
        params.phi.max_value() + params.gamma.max_value() + params.rho.max_value()
    )
    infection = params.beta.max_value()
    bound_i = 1.0 / (1.0 / da + reaction)
    bound_s = 1.0 / (1.0 / da + infection)
    dt_max = min(np.nextafter(da, 0.0), bound_i, bound_s)
    reasons = []
    if not dt < da:
        reasons.append(f"dt = {dt:g} must be < da = {da:g}")
    if dt * (1.0 / da + reaction) > 1.0:
        reasons.append(f"positivity: dt (1/da + {reaction:g}) > 1")
    if dt * (1.0 / da + infection) > 1.0:
        reasons.append(f"positivity: dt (1/da + {infection:g}) > 1")
    return TimeStepReport(not reasons, dt_max, tuple(reasons))


def auto_time_steps(params, age_max: float, time_max: float, n_age: int) -> int:
    """Time steps over [0, time_max] at 0.9 of ``stable_timestep``'s dt_max.

    This is what ``time_steps = auto`` means; dt_max depends on the age
    grid and the rates, not on the number of time steps.
    """
    gate = stable_timestep(params, GridSpec(age_max, time_max, n_age, 2))
    return max(2, int(np.ceil(time_max / (0.9 * gate.dt_max))))


def check_initial(s, i, r) -> None:
    """Raise ``ParameterError`` unless (s, i, r) are admissible initial rows.

    They must be finite, sum to 1 to 1e-12 at every node, have
    i(0) = r(0) = 0 at the inflow boundary and be nonnegative to -1e-13.
    """
    # a NaN or inf anywhere makes the sum NaN or inf, which fails the test
    if not np.max(np.abs(s + i + r - 1.0)) <= _SUM_TOL:
        raise ParameterError("initial fractions must be finite and sum to 1 (tolerance 1e-12)")
    if i[0] != 0.0 or r[0] != 0.0:
        raise ParameterError("inflow boundary requires i0(0) = r0(0) = 0")
    if min(s.min(), i.min(), r.min()) < -1e-13:
        raise ParameterError("initial fractions must be nonnegative")


def _step(state, B, dt, da, beta, exit_pressure, rho):
    """Advance the stacked (s, i, r) rows of ``state`` by one upwind step.

    The rates are given without the inflow node.  Each row's update keeps
    the order of operations of the three formulas in the module docstring.
    """
    s, i, r = state[:, 1:]
    infection = beta * s * B
    recovery = exit_pressure * i
    relapse = rho * r * B
    new = np.empty_like(state)
    new[:, 0] = 1.0, 0.0, 0.0
    # rows = state + dt * (reaction - diff / da), built in place; + and *
    # commute exactly, so every row has the bits of its formula
    rows = new[:, 1:]
    np.negative(infection, out=rows[0])
    np.subtract(infection, recovery, out=rows[1])
    rows[1] += relapse
    np.subtract(recovery, relapse, out=rows[2])
    rows -= np.diff(state, axis=1) / da
    rows *= dt
    rows += state[:, 1:]
    return new


@dataclass(frozen=True)
class StateField:
    """(s, i, r) rows stored at the times in ``times``."""

    times: np.ndarray
    ages: np.ndarray
    s: np.ndarray
    i: np.ndarray
    r: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    """Simulation output.

    ``b_series`` holds the pressure at every time node regardless of row
    storage.  ``conservation_max`` and ``minimum_value`` are running
    monitors over every node the solver visited.
    """

    grid: GridSpec
    field: StateField
    b_series: np.ndarray
    conservation_max: float
    minimum_value: float

    @property
    def final_row(self):
        return self.field.s[-1], self.field.i[-1], self.field.r[-1]


def simulate(params, initial, grid: GridSpec, n0=None, store="auto") -> Trajectory:
    """Run the upwind scheme over the full (t, a) rectangle.

    initial: (s0, i0, r0) as arrays on the age nodes; must sum to 1
        pointwise with i0(0) = r0(0) = 0.
    n0: the initial total population.  None weights the pressure with the
        stationary mixing density (the population starts at demographic
        steady state); a profile rebuilds the density every step from the
        total population ``population_on(params, n0, ages)`` at that time.
    store: "auto" or a stride int >= 1 controlling rows kept ("full" is
        the same as 1; the final row and every monitor are always exact);
        anything else raises ``ParameterError``.
    """
    integer = isinstance(store, (int, np.integer)) and not isinstance(store, bool)
    if not (integer and store >= 1 or store in ("auto", "full")):
        raise ParameterError(f"store must be 'auto', 'full' or an integer >= 1, not {store!r}")
    params = as_parameter_set(params)
    gate = stable_timestep(params, grid)
    if not gate.ok:
        raise TimeStepError(
            "; ".join(gate.reasons) + f"; largest safe dt = {gate.dt_max:.6g}",
            suggested_dt=gate.dt_max,
        )

    nodes = grid.age_nodes()
    s, i, r = (np.asarray(x, dtype=float) for x in initial)
    if not s.shape == i.shape == r.shape == nodes.shape:
        raise ShapeError("initial rows must match the age grid")
    check_initial(s, i, r)
    state = np.maximum(np.array([s, i, r]), 0.0)
    state[0, 0] = 1.0
    s, i, r = state

    quad = QuadratureGrid.uniform(grid.age_max, grid.n_age)
    weights = quad.weights
    if n0 is None:
        density = stationary_mixing(params, quad).density
    else:
        contact = params.contact(nodes)
        population = population_on(params, n0, nodes)

    beta, rho = params.beta(nodes)[1:], params.rho(nodes)[1:]
    exit_pressure = (params.phi(nodes) + params.gamma(nodes))[1:]
    dt, da = grid.dt, grid.da

    n_time = grid.n_time
    if store == "auto":
        full_size = (n_time + 1) * (grid.n_age + 1)
        store = 1 if full_size <= _AUTO_STORE_LIMIT else int(
            np.ceil(n_time / _AUTO_STORE_ROWS)
        )
    stride = 1 if store == "full" else int(store)
    kept_j = np.append(np.arange(0, n_time, stride), n_time)
    rows = np.empty((3, kept_j.size, nodes.size))
    time_nodes = grid.time_nodes()
    b_series = np.empty(n_time + 1)

    conservation = 0.0
    minimum = np.inf
    n_stored = 0
    for j in range(n_time + 1):
        if n0 is not None:
            weighted = contact * population(time_nodes[j])
            norm = float(weights @ weighted)
            if not norm > 0:
                raise ParameterError("mixing normalization vanished mid-run")
            density = weighted / norm
        B = float(weights @ (i * density))
        b_series[j] = B

        conservation = max(conservation, float(np.max(np.abs(s + i + r - 1.0))))
        row_min = float(state.min())
        minimum = min(minimum, row_min)
        if row_min < _POSITIVITY_ABORT:
            worst = min((s.min(), "s"), (i.min(), "i"), (r.min(), "r"))[1]
            k = int(np.argmin({"s": s, "i": i, "r": r}[worst]))
            raise TimeStepError(
                f"positivity lost at step {j}, age node {k} ({worst} = {row_min:g}); "
                f"largest safe dt = {gate.dt_max:.6g}",
                suggested_dt=gate.dt_max,
                node=(j, k),
            )
        if j % stride == 0 or j == n_time:
            rows[:, n_stored] = state
            n_stored += 1
        if j == n_time:
            break
        state = _step(state, B, dt, da, beta, exit_pressure, rho)
        s, i, r = state

    return Trajectory(
        grid=grid,
        field=StateField(time_nodes[kept_j], nodes, *rows),
        b_series=b_series,
        conservation_max=conservation,
        minimum_value=float(minimum),
    )
