"""Property checks of the transport solver over random rate tables and grids.

Whenever ``stable_timestep`` passes a grid, ``simulate`` conserves
s + i + r to roundoff and keeps every fraction nonnegative, with the
stationary mixing density and with one rebuilt from a random initial
population ``n0``.  A grid the gate rejects is rejected by ``simulate``.
A trajectory written to CSV reads back bit for bit, and its bytes are
those of formatting every value by itself.  The stage integrals psi_m of
the exponential sweep are correct to a few ulp on both branches.  The
numpy formatter behind the CSV writer gives the bytes of ``'%.17g' %`` on
raw bit patterns, on powers of ten and their neighbours, and on exact and
near ties of the 18th digit.

The steady solver's a-priori bound holds: from B_cut on, the pressure
induced under B is at most m B / (m B + e) and the amplification is
below 1.  So does its floor: where the linear-response bound allows, the
excess keeps the sign of the first probe, more than delta from 0.  The
number of endemic states is odd exactly when R0 > 1.  A rendered config parses back to an equal one, and the sign of
the growth rate is the sign of R0 - 1; the growth rate solves the
converged growth equation to tol.  The root finder behind both
pressure grids finds a close root pair between two samples, none where
the maximum stays below 0, and an exact zero at a sample once.
"""

import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epiage import (
    AgeProfile,
    ConstantRates,
    GridSpec,
    InitialSpec,
    ParameterSet,
    RunConfig,
    StateField,
    TimeStepError,
    ToleranceError,
    amplification,
    analysis_kernel,
    classify,
    euler_lotka,
    find_fixed_points,
    induced_pressure,
    parse_config,
    r0_rc_exact,
    render_config,
    simulate,
    stable_timestep,
)
from epiage import _g17, steady
from epiage._roots import crossings
from epiage.parameters import RATE_NAMES, as_parameter_set
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


def printf_g17(values):
    return ["%.17g" % value for value in values.tolist()]


def exact_ties():
    """Doubles whose 18th significant digit is an exact tie.

    For odd M < 2^53 and j >= 1, M 2^-j = M 5^j 10^-j: when M 5^j has 18
    digits, its last digit is 5 and nothing follows, so '%.17g' rounds half
    to even.  Scaling by 10^t (M 5^t 2^(t-j), still a double while
    M 5^t < 2^53) keeps the digits and moves the exponent.
    """
    ties = []
    for j in range(2, 26):
        low, high = -(-(10**17) // 5**j), (10**18 - 1) // 5**j
        for m in {low, low + 1, (low + high) // 2, (low + high) // 2 + 1, high - 1, high}:
            if m % 2 == 1 and m < 2**53:
                ties += [m * 5**t * Fraction(2) ** (t - j) for t in range(j + 1) if m * 5**t < 2**53]
    values = np.array([float(tie) for tie in ties])
    assert all(Fraction(value) == tie for value, tie in zip(values.tolist(), ties))
    return values


# Doubles whose 18th-digit remainder lies within 1e-17 of one half without
# being a tie, found by a modular search over M 2^q 10^p.  Without the
# formatter's margin, the product's own rounding error sends the first two
# the wrong way.
NEAR_TIES = [
    float.fromhex(text)
    for text in (
        "0x1.70f4d8d6e3f4cp-304",
        "0x1.57a340eb5d4f1p-760",
        "0x1.9ed2f8bb00613p+1001",
        "0x1.24d23c932ad4fp+467",
        "0x1.93360a1a0b62dp-744",
        "0x1.e66c16bad73ddp+956",
        "0x1.011f2d73116f4p+537",
        "0x1.6e22db4568793p-247",
        "0x1.fc6c26f899dd1p-951",
    )
]


def test_near_ties_are_near_ties():
    for value in NEAR_TIES:
        digits = Fraction(value) * Fraction(10) ** (16 - math.floor(math.log10(value)))
        assert 10**16 <= digits < 10**17
        assert 0 < abs(digits - int(digits) - Fraction(1, 2)) < Fraction(1, 10**17)


def edge_doubles():
    """Powers of ten and their neighbours, extremes, large integers, ties."""
    powers = np.array([float(f"1e{p}") for p in range(-323, 309)])
    integers = np.concatenate([np.arange(-40.0, 41.0) + c for c in (2.0**53, 1e16, 1e17)])
    values = np.concatenate(
        [
            powers,
            np.nextafter(powers, 0.0),
            np.nextafter(powers, np.inf),
            [5e-324, np.finfo(float).max],
            integers,
            exact_ties(),
            NEAR_TIES,
        ]
    )
    return np.concatenate([values, -values])


def test_g17_matches_printf_on_edge_doubles():
    values = edge_doubles()
    assert _g17.format17(values) == printf_g17(values)


@settings(max_examples=200, deadline=None)
@given(
    bits=st.lists(st.integers(0, 2**64 - 1), max_size=40),
    floats=st.lists(st.floats(), max_size=40),
    chunk=st.integers(1, 9),
)
def test_g17_matches_printf(bits, floats, chunk):
    """Raw bit patterns reach NaN payloads, infinities, subnormals and both
    zeros; small chunks put chunk boundaries inside each draw."""
    values = np.concatenate([np.array(bits, dtype=np.uint64).view(np.float64), floats])
    with mock.patch("epiage._g17._CHUNK", chunk):
        assert _g17.format17(values) == printf_g17(values)


@settings(max_examples=40, deadline=None)
@given(params=rate_sets, share=st.floats(0.0, 1.0))
def test_no_endemic_pressure_past_the_bound(params, share):
    """With m = max(beta, rho) and e = min(phi + gamma), i(a) < m B / (m B + e)
    at every age, so no endemic state lies at B >= B_cut = 1/(1 - delta) - e/m
    (every B when m = 0).  Below ``SMALL_PRESSURE`` amplification is R0, not
    the frozen-pressure ratio, so the draws start there."""
    m = max(params.beta.max_value(), params.rho.max_value())
    e = params.exit_pressure().min_value()
    b_cut = 1.0 / (1.0 - steady._BOUND_MARGIN) - e / m if m > 0 else 0.0
    assume(b_cut < 1.0)
    low = max(b_cut, steady.SMALL_PRESSURE)
    B = low + share * (1.0 - low)
    kernel = analysis_kernel(params)
    assert induced_pressure(B, params, kernel) * (m * B + e) <= m * B
    assert amplification(B, params, kernel) < 1.0


@settings(max_examples=40, deadline=None)
@given(params=rate_sets, share=st.floats(0.0, 1.0))
def test_excess_keeps_its_sign_below_the_floor(params, share):
    """Against the first probe B0 = 1e-9, |excess(B) - excess(B0)| <=
    (B + B0) m RC / e with RC the quadrature of p cumbeta, so wherever
    (B + B0) m RC < (|excess(B0)| - delta) e the excess has the sign of
    excess(B0) and stays more than delta from 0.  ``induced_pressure``
    gives the frozen-pressure ratio at every B; ``amplification`` returns
    R0 below 1e-6."""
    m = max(params.beta.max_value(), params.rho.max_value())
    e = params.exit_pressure().min_value()
    kernel = analysis_kernel(params)
    spread = m * kernel.integrate(params.beta.cumulative(kernel.ages) * kernel.density)
    b0 = steady._SCAN_FLOOR
    first = induced_pressure(b0, params, kernel) / b0 - 1.0
    slack = (abs(first) - steady._BOUND_MARGIN) * e
    assume(slack > 2.0 * b0 * spread)
    top = 1.0 if slack >= (1.0 + b0) * spread else slack / spread - b0
    B = b0 + share * (top - b0)
    assume((B + b0) * spread < slack)
    excess = induced_pressure(B, params, kernel) / B - 1.0
    assert np.sign(excess) == np.sign(first)
    assert abs(excess) > steady._BOUND_MARGIN


#: draws keep R0 this far from 1: the truncated age domain moves R0 by
#: about the survival cutoff, and the lower root of a pair tends to 0 as
#: R0 tends to 1
R0_MARGIN = 1e-3
#: draws keep the quadratic's discriminant this far from 0, relative to
#: b^2, so that its roots are at least 1% apart (a fold pair closer than
#: that can vanish on the truncated domain, as at beta 16.80367)
FOLD_MARGIN = 1e-4


#: the tolerance ``find_fixed_points`` refines roots to by default
FIXED_POINT_TOL = 1e-10


def excess_noise(params, kernel, B):
    """Spread of the excess amplification - 1 over seven pressures within
    3e-12 relative of B, where its true change is far below 1e-10."""
    near = B * (1.0 + 1e-12 * np.arange(-3, 4))
    values = [induced_pressure(x, params, kernel) / x - 1.0 for x in near]
    return max(values) - min(values)


@settings(max_examples=40, deadline=None)
@given(
    mu=st.floats(1e-3, 0.5),
    beta=st.floats(0.0, 200.0, exclude_min=True),
    phi=st.floats(0.0, 100.0),
    gamma=st.floats(0.0, 100.0),
    rho=st.floats(0.0, 200.0, exclude_min=True),
)
def test_root_parity_matches_the_region(mu, beta, phi, gamma, rho):
    """The number of endemic states is odd exactly when R0 > 1: one above
    threshold, none or a pair below it.  A floor that dropped a low root
    would break it.

    Where the root search stalls, the excess must be too noisy near the
    stall to reach tol: on long age domains (mu near 1e-3) with a root
    near 1e-5, rounding in the frozen-pressure profiles moves the excess
    by 1e-9 to 1e-7, so ``find_fixed_points`` raises there.
    """
    rates = ConstantRates(mu=mu, beta=beta, phi=phi, gamma=gamma, rho=rho)
    r0 = r0_rc_exact(rates)[0]
    b = mu / beta + (mu + phi + gamma) / rho - 1.0
    c = (mu / rho) * ((mu + phi + gamma) / beta - 1.0)
    assume(abs(r0 - 1.0) > R0_MARGIN)
    assume(abs(b * b - 4.0 * c) > FOLD_MARGIN * b * b)
    kernel = analysis_kernel(rates)
    try:
        states = find_fixed_points(rates, kernel, tol=FIXED_POINT_TOL)
    except ToleranceError as error:
        assert excess_noise(rates, kernel, error.best) > FIXED_POINT_TOL
        return
    assert len(states) % 2 == (1 if r0 > 1.0 else 0)


positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def initial_fractions(draw):
    """i0 as a table that vanishes at age 0, r0 optional; i0 + r0 <= 1."""

    def table():
        knot = st.tuples(st.floats(0.0, 60.0), st.floats(0.0, 0.5))
        knots = sorted(draw(st.lists(knot, min_size=1, max_size=4, unique_by=lambda k: k[0])))
        return AgeProfile.from_table([(knots[0][0], 0.0)] + knots[1:])

    i0 = table()
    r0 = table() if draw(st.booleans()) else None
    return InitialSpec(kind="table", i0=i0, r0=r0)


@st.composite
def bumps(draw):
    width = draw(positive)
    center = width + draw(st.floats(0.0, 100.0))
    amplitude = draw(st.floats(0.0, 1.0))
    return InitialSpec(kind="bump", amplitude=amplitude, center=center, width=width)


# what one config line can hold: no comment sign, no line break, no
# surrounding blanks
directories = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"), blacklist_characters="#"),
    min_size=1,
).map(str.strip).filter(bool)


@st.composite
def sweeps(draw):
    if draw(st.booleans()):
        return {}
    return dict(
        sweep_param=draw(st.sampled_from(RATE_NAMES[:5])),
        sweep_values=tuple(draw(st.lists(doubles, min_size=1, max_size=5))),
        sweep_probe=draw(st.booleans()),
    )


@st.composite
def run_configs(draw):
    rates = {name: draw(rate_table(0.0, 200.0)) for name in RATE_NAMES}
    params = ParameterSet(birth_rate=draw(positive), **rates)
    steps = (draw(st.integers(2, 4000)), draw(st.integers(2, 10**6)))
    grid = GridSpec(draw(positive), draw(positive), *steps)
    return RunConfig(
        params=params,
        grid=grid,
        initial=draw(st.just(InitialSpec(kind="zero")) | bumps() | initial_fractions()),
        stride=draw(st.just("auto") | st.integers(1, 10**6)),
        directory=draw(st.none() | directories),
        **draw(sweeps()),
    )


@settings(max_examples=60, deadline=None)
@given(config=run_configs())
def test_rendered_config_parses_back_equal(config):
    assert parse_config(render_config(config)) == config


#: the tolerance ``classify`` solves the growth equation to
GROWTH_TOL = 1e-8

constant_rate_sets = st.builds(
    dict,
    mu=st.floats(1e-3, 0.5),
    beta=st.floats(0.0, 200.0, exclude_min=True),
    phi=st.floats(0.0, 100.0),
    gamma=st.floats(0.0, 100.0),
    rho=st.floats(0.0, 200.0),
)


def truncated_root_below_abscissa(params, kernel):
    """True when the growth root of the truncated age domain lies below
    -(mu + phi + gamma) past the last knot, where the model's G diverges
    (tiny beta)."""
    params = as_parameter_set(params)
    tail = params.mu.values[-1] + params.exit_pressure().values[-1]
    return euler_lotka(-tail, params, kernel) < 1.0


@settings(max_examples=40, deadline=None)
@given(rates=constant_rate_sets)
def test_growth_rate_sign_is_sign_of_r0_minus_1(rates):
    """Within 10 tol of R0 = 1 the solver's tolerance cannot decide the sign.

    Below about beta = 1e-72 the truncated domain's growth root sits so far
    below the abscissa that its integrand is a steep exponential at the
    oldest age, which the quadrature cannot resolve to tolerance, so
    ``classify`` raises; that is the one failure allowed here.
    """
    assume(rates["phi"] + rates["gamma"] + rates["rho"] > 0.0)
    params = ConstantRates(**rates)
    kernel = analysis_kernel(params)
    try:
        report = classify(params, kernel, tol=GROWTH_TOL)
    except ToleranceError:
        assert truncated_root_below_abscissa(params, kernel)
        return
    assume(abs(report.r0 - 1.0) > 10 * GROWTH_TOL)
    assert np.sign(report.growth_rate) == np.sign(report.r0 - 1.0)


@settings(max_examples=40, deadline=None)
@given(
    params=rate_sets
    | constant_rate_sets.filter(lambda r: r["phi"] + r["gamma"] + r["rho"] > 0.0).map(
        lambda r: ConstantRates(**r).to_parameter_set()
    )
)
def test_growth_rate_solves_the_converged_growth_equation(params):
    """The root is refined only where it is checked, so check it against
    G converged to 1e-10: |G(lam) - 1| <= tol.

    Where six refinements do not bring G to 1e-10 relative, the last
    refined value stands in; the one ``classify`` failure allowed is the
    growth root below the abscissa.
    """
    assume(params.beta.max_value() > 0.0)
    kernel = analysis_kernel(params)
    try:
        lam = classify(params, kernel, tol=GROWTH_TOL).growth_rate
    except ToleranceError:
        assert truncated_root_below_abscissa(params, kernel)
        return
    try:
        g = euler_lotka(lam, params, kernel, rtol=1e-10)
    except ToleranceError as err:
        g = err.best
    assert abs(g - 1.0) <= GROWTH_TOL


@pytest.mark.xfail(raises=ToleranceError, strict=True, reason="growth root below the abscissa")
def test_growth_rate_of_a_tiny_beta():
    params = ConstantRates(mu=0.0125, beta=1e-77, phi=60.0, gamma=13.0, rho=1.0)
    kernel = analysis_kernel(params)
    assert truncated_root_below_abscissa(params, kernel)
    assert classify(params, kernel, tol=GROWTH_TOL).growth_rate < 0.0


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(3, 9),
    middle=st.floats(0.0, 1.0),
    height=st.floats(1e-6, 0.24) | st.floats(-1.0, -1e-6),
)
def test_crossings_split_a_close_pair(n, middle, height):
    """f = height - (x - m)^2 sampled at 0, 1, ..., n with m in [1, n - 1]:
    its roots m -+ sqrt(height) lie less than one sample interval apart."""
    m = 1.0 + middle * (n - 2)

    def f(x):
        return height - (x - m) ** 2

    tol = 1e-12
    samples = [(float(k), f(float(k))) for k in range(n + 1)]
    roots = crossings(f, samples, tol, "test")
    if height < 0.0:
        assert roots == []
        return
    assert len(roots) == 2
    for (x, fx), expected in zip(roots, (m - math.sqrt(height), m + math.sqrt(height))):
        assert fx == f(x) and abs(fx) <= tol
        assert x == pytest.approx(expected, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 9), data=st.data(), tangent=st.booleans())
def test_crossings_return_a_sample_zero_once(n, data, tangent):
    """A zero at sample j, crossed (x - j) or touched (-(x - j)^2)."""
    j = data.draw(st.integers(0, n))

    def f(x):
        return -((x - j) ** 2) if tangent else x - j

    samples = [(float(k), f(float(k))) for k in range(n + 1)]
    assert crossings(f, samples, 1e-12, "test") == [(float(j), 0.0)]
