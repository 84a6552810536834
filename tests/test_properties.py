"""Property checks of the transport solver over random rate tables and grids.

Whenever ``stable_timestep`` passes a grid, ``simulate`` conserves
s + i + r to roundoff and keeps every fraction nonnegative, with the
stationary mixing density and with one rebuilt from a random initial
population ``n0``.  A grid the gate rejects is rejected by ``simulate``.
A trajectory written to CSV reads back bit for bit, and its bytes are
those of formatting every value by itself.  The stage integrals psi_m of
the exponential sweep are correct to a few ulp on both branches.
"""

import sys
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiage import (
    AgeProfile,
    GridSpec,
    ParameterSet,
    StateField,
    TimeStepError,
    simulate,
    stable_timestep,
)
from epiage._sweep import _SERIES_RANGE, _psi
from epiage.io import read_trajectory, write_trajectory


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


# Doubles for the CSV round trip.  Every field draws s, i and r from a small
# pool that always holds signed zeros, subnormals and extremes, so values
# repeat and 0.0 sits next to -0.0.
SPECIAL_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e300, -1e300]
doubles = st.sampled_from(SPECIAL_DOUBLES) | st.floats(allow_nan=False, allow_infinity=False)


def axis(min_size, max_size):
    """Strictly increasing grid axis (0.0 and -0.0 count as one value)."""
    values = st.lists(doubles, min_size=min_size, max_size=max_size, unique_by=float)
    return values.map(lambda chosen: np.array(sorted(chosen)))


def wide_axis(min_size, max_size):
    """Increasing axis of random signs and magnitudes, too long to draw one by one."""

    def build(size, seed):
        rng = np.random.default_rng(seed)
        return np.unique(rng.standard_normal(size) * 10.0 ** rng.integers(-320, 300, size))

    return st.builds(build, st.integers(min_size, max_size), st.integers(0, 2**32 - 1))


@st.composite
def state_fields(draw, times, ages):
    """StateFields whose s, i and r repeat values within and across rows."""
    times, ages = draw(times), draw(ages)
    pool = np.array(SPECIAL_DOUBLES + draw(st.lists(doubles, max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (times.size, ages.size)
    return StateField(times, ages, *(pool[rng.integers(0, pool.size, shape)] for _ in "sir"))


def check_csv_round_trip(directory, field):
    path = write_trajectory(directory / "trajectory.csv", field)
    columns = (field.s.ravel(), field.i.ravel(), field.r.ravel())
    points = [(t, a) for t in field.times for a in field.ages]
    rows = "".join(
        "%.17g,%.17g,%.17g,%.17g,%.17g\r\n" % (t, a, s, i, r)
        for (t, a), s, i, r in zip(points, *columns)
    )
    assert path.read_bytes() == ("t,a,s,i,r\r\n" + rows).encode()
    back = read_trajectory(path)
    for name in ("times", "ages", "s", "i", "r"):
        bits = getattr(back, name).view(np.uint64)
        assert np.array_equal(bits, getattr(field, name).view(np.uint64))


@settings(max_examples=40, deadline=None)
@given(field=state_fields(axis(1, 6), axis(1, 6)), block_rows=st.integers(1, 9))
def test_trajectory_csv_round_trip_is_bit_exact(tmp_path_factory, field, block_rows):
    """Small blocks put block boundaries inside small fields."""
    with mock.patch("epiage.io._BLOCK_ROWS", block_rows):
        check_csv_round_trip(tmp_path_factory.mktemp("csv"), field)


@pytest.mark.slow
@settings(max_examples=10, deadline=None)
@given(field=state_fields(axis(7, 12), wide_axis(1000, 1200)))
def test_large_trajectory_csv_round_trip_is_bit_exact(tmp_path_factory, field):
    """7000-14400 rows: the writer's own block boundary falls inside most fields."""
    check_csv_round_trip(tmp_path_factory.mktemp("csv"), field)


def psi_reference(x, m):
    """psi_m(x) to 40 digits from a series of positive terms.

    x <= 0: sum_j |x|^j m!/(m+j+1)!.  x > 0: psi_m(x) = e^{-x} int_0^1
    s^m e^{xs} ds = e^{-x} sum_j x^j / (j! (m+j+1)).
    """
    with localcontext() as ctx:
        ctx.prec = 40
        y = abs(Decimal(x))
        total, power, j = Decimal(0), Decimal(1), 0
        while True:
            # power is |x|^j m!/(m+j)! for x <= 0 and x^j / j! for x > 0
            term = power / (m + j + 1)
            total += term
            power = power * y / (m + j + 1 if x <= 0 else j + 1)
            j += 1
            if j > y and term < total * Decimal("1e-40"):
                break
        return total if x <= 0 else total * (-y).exp()


# both ends of the series range, x near 0, and |x| up to 700, where e^|x|
# nears the largest double
LO, HI = _SERIES_RANGE
psi_arguments = (
    st.floats(-700.0, 700.0)
    | st.floats(LO - 0.5, LO + 0.5)
    | st.floats(HI - 0.5, HI + 0.5)
    | st.floats(-1e-3, 1e-3)
)


@settings(max_examples=300, deadline=None)
@given(x=psi_arguments)
def test_psi_within_4_ulp_of_series_reference(x):
    values = _psi(np.array([x]))[:, 0]
    for m in range(4):
        exact = psi_reference(x, m)
        assert abs(Decimal(values[m]) - exact) <= 4 * Decimal(sys.float_info.epsilon) * exact, m
