"""Property checks of the transport solver over random rate tables and grids.

Whenever ``stable_timestep`` passes a grid, ``simulate`` conserves
s + i + r to roundoff and keeps every fraction nonnegative, with the
stationary mixing density and with one rebuilt from a random initial
population ``n0``.  A grid the gate rejects is rejected by ``simulate``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiage import AgeProfile, GridSpec, ParameterSet, TimeStepError, simulate, stable_timestep


def rate_table(low, high):
    """Piecewise-linear profile with 1-4 knots over ages [0, 60]."""
    knot = st.tuples(st.floats(0.0, 60.0), st.floats(low, high))
    return st.lists(knot, min_size=1, max_size=4, unique_by=lambda k: k[0]).map(
        lambda knots: AgeProfile.from_table(sorted(knots))
    )


rate_sets = st.builds(
    ParameterSet,
    mu=rate_table(1e-3, 0.5),
    beta=rate_table(0.0, 200.0),
    phi=rate_table(0.0, 100.0),
    gamma=rate_table(0.0, 100.0),
    rho=rate_table(0.0, 200.0),
    contact=rate_table(0.05, 3.0),
)


@settings(max_examples=40, deadline=None)
@given(
    params=rate_sets,
    n0=st.none() | rate_table(0.1, 2.0),
    age_max=st.floats(1.0, 60.0),
    n_age=st.integers(2, 40),
    time_max=st.floats(0.01, 0.5),
    safety=st.floats(0.2, 1.1),
    seed=st.integers(0, 2**32 - 1),
)
def test_simulate_conserves_and_stays_positive(
    params, n0, age_max, n_age, time_max, safety, seed
):
    probe = stable_timestep(params, GridSpec(age_max, time_max, n_age, 2))
    n_time = max(2, int(np.ceil(time_max / (safety * probe.dt_max))))
    grid = GridSpec(age_max, time_max, n_age, n_time)

    rng = np.random.default_rng(seed)
    infected = rng.uniform(0.0, 1.0, n_age + 1)
    share = rng.uniform(0.0, 1.0, n_age + 1)
    i0, r0 = infected * share, infected * (1.0 - share)
    i0[0] = r0[0] = 0.0
    initial = (1.0 - i0 - r0, i0, r0)

    if not stable_timestep(params, grid).ok:
        with pytest.raises(TimeStepError):
            simulate(params, initial, grid, n0=n0)
        return
    trajectory = simulate(params, initial, grid, n0=n0)
    assert trajectory.conservation_max <= 1e-12
    assert trajectory.minimum_value >= -1e-14
