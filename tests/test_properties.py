"""Property checks of the transport solver over random rate tables and grids.

Whenever ``stable_timestep`` passes a grid, ``simulate`` conserves
s + i + r to roundoff and keeps every fraction nonnegative, with the
stationary mixing density and with one rebuilt from a random initial
population ``n0``.  A grid the gate rejects is rejected by ``simulate``.
A trajectory written to CSV reads back bit for bit, and its bytes are
those of formatting every value by itself.  The stage integrals psi_m of
the exponential sweep are correct to a few ulp on both branches, for a
real x and for a complex one with Re x >= 0.  The
numpy formatter behind the CSV writer gives the ASCII bytes of
``'%.17g' %`` on raw bit patterns, on powers of ten and their neighbours,
and on exact and near ties of the 18th digit.

The steady solver's a-priori bound holds: from B_cut on, the pressure
induced under B is at most m B / (m B + e) and the amplification is
below 1.  So does its floor: where the linear-response bound allows, the
excess keeps the sign of the first probe, more than delta from 0.
Where relapse never exceeds transmission, the amplification does not
grow at the scan's probes, and the bisected scan returns at most one
state, bit for bit that of the full scan.  The number of endemic states
is odd exactly when R0 > 1.  The profile helpers meet the closed forms
at unsorted, repeated ages.  A rendered config parses back to an equal
one, and the sign of the growth rate is the sign of R0 - 1; the growth
rate solves the converged growth equation to tol.  The root finder
behind both pressure grids finds a close root pair between two samples,
none where the maximum stays below 0, and an exact zero at a sample
once.  On constant rates, the stability tag of every steady state is
"unstable" exactly where the untruncated model's characteristic function,
a rational function of lam, has a zero with Re lam > 0.
"""

import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from epiage import (
    AgeProfile,
    ConstantRates,
    GridSpec,
    InitialSpec,
    ParameterSet,
    RunConfig,
    StateField,
    SteadyState,
    TimeStepError,
    ToleranceError,
    amplification,
    analysis_kernel,
    classify,
    closed_form_profiles,
    euler_lotka,
    find_fixed_points,
    fixed_points_exact,
    induced_pressure,
    infected_profile,
    parse_config,
    r0_rc_exact,
    recovered_profile,
    render_config,
    simulate,
    stability_probe,
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


def complex_psi_reference(x, m):
    """psi_m(x) of a complex x from the series sum_j (-x)^j m!/(m+j+1)!,
    summed in 80-digit decimals, real and imaginary parts apart."""
    with localcontext() as ctx:
        ctx.prec = 80
        minus = (-Decimal(x.real), -Decimal(x.imag))
        power, weight = (Decimal(1), Decimal(0)), Decimal(math.factorial(m)) / math.factorial(m + 1)
        total, j = (Decimal(0), Decimal(0)), 0
        while True:
            term = (power[0] * weight, power[1] * weight)
            total = (total[0] + term[0], total[1] + term[1])
            power = (power[0] * minus[0] - power[1] * minus[1],
                     power[0] * minus[1] + power[1] * minus[0])
            j += 1
            weight /= m + j + 1
            if j > abs(x) and abs(term[0]) + abs(term[1]) < Decimal("1e-40"):
                return complex(float(total[0]), float(total[1]))


@settings(max_examples=200, deadline=None)
@given(
    radius=st.floats(0.0, 60.0) | st.floats(HI - 0.1, HI + 0.1) | st.floats(0.0, 1e-3),
    angle=st.floats(-math.pi / 2, math.pi / 2),
)
def test_complex_psi_within_4_ulp_of_series_reference(radius, angle):
    """A complex sweep's decay has Re x >= 0: on either side of the switch
    at |x| = 2.25, psi_m is within 4 ulp relative of the series."""
    x = complex(radius * math.cos(angle), radius * math.sin(angle))
    values = _psi(np.array([x]))[:, 0]
    for m in range(4):
        exact = complex_psi_reference(x, m)
        assert abs(values[m] - exact) <= 4 * sys.float_info.epsilon * abs(exact), m


def printf_g17(values):
    return [("%.17g" % value).encode("ascii") for value in values.tolist()]


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
@example(
    params=ConstantRates(mu=0.5, beta=3.0, phi=0.0, gamma=4.0, rho=0.0).to_parameter_set(),
    share=5e-324,
)
def test_no_endemic_pressure_past_the_bound(params, share):
    """With m = max(beta, rho) and e = min(phi + gamma), i(a) < m B / (m B + e)
    at every age, so no endemic state lies at B >= B_cut = 1/(1 - delta) - e/m
    (every B when m = 0)."""
    m = max(params.beta.max_value(), params.rho.max_value())
    e = params.exit_pressure().min_value()
    b_cut = 1.0 / (1.0 - steady._BOUND_MARGIN) - e / m if m > 0 else 0.0
    assume(b_cut < 1.0)
    low = max(b_cut, 0.0)
    B = low + share * (1.0 - low)
    kernel = analysis_kernel(params)
    amp = amplification(B, params, kernel)
    # the bound on i divided by B: at a subnormal B the product B * amp
    # rounds to a multiple of 5e-324, which can lie above m B / (m B + e)
    assert amp * (m * B + e) <= m
    assert induced_pressure(B, params, kernel) == B * amp
    assert amp < 1.0


@settings(max_examples=40, deadline=None)
@given(params=rate_sets, share=st.floats(0.0, 1.0))
def test_excess_keeps_its_sign_below_the_floor(params, share):
    """Against the first probe B0 = 1e-9, |excess(B) - excess(B0)| <=
    (B + B0) m RC / e with RC the quadrature of p cumbeta, so wherever
    (B + B0) m RC < (|excess(B0)| - delta) e the excess has the sign of
    excess(B0) and stays more than delta from 0."""
    m = max(params.beta.max_value(), params.rho.max_value())
    e = params.exit_pressure().min_value()
    kernel = analysis_kernel(params)
    spread = m * kernel.integrate(params.beta.cumulative(kernel.ages) * kernel.density)
    b0 = steady._SCAN_FLOOR
    first = amplification(b0, params, kernel) - 1.0
    slack = (abs(first) - steady._BOUND_MARGIN) * e
    assume(slack > 2.0 * b0 * spread)
    top = 1.0 if slack >= (1.0 + b0) * spread else slack / spread - b0
    B = b0 + share * (top - b0)
    assume((B + b0) * spread < slack)
    excess = amplification(B, params, kernel) - 1.0
    assert np.sign(excess) == np.sign(first)
    assert abs(excess) > steady._BOUND_MARGIN


@st.composite
def relapse_within_transmission(draw):
    """Random rate tables with rho <= beta at every knot of the two tables,
    so at every age: rho is a drawn table cut down to beta on the union of
    their knots."""
    params = draw(rate_sets)
    knots = np.union1d(params.beta.ages, params.rho.ages)
    rho = np.minimum(params.rho(knots), params.beta(knots))
    return params.with_rate("rho", AgeProfile(knots, rho))


@settings(max_examples=40, deadline=None)
@given(params=relapse_within_transmission())
def test_relapse_within_transmission_has_one_state_at_most(params):
    """Where relapse never exceeds transmission, the source beta s + rho (1 - s)
    does not grow with B and the decay phi + gamma + B rho does not shrink,
    so u and the amplification do not grow either: at most one endemic
    state, whose bracket the bisection of the probes finds as the full
    scan does, bit for bit."""
    kernel = analysis_kernel(params)
    data = steady._SteadyData(params, kernel.ages)
    probes = np.geomspace(steady._SCAN_FLOOR, 1.0, steady._SCAN_POINTS)
    amp = np.array([steady._amplification(data, float(B), kernel)[0] for B in probes])
    assert np.all(amp[1:] <= amp[:-1] * (1.0 + 1e-13))
    bisected = find_fixed_points(params, kernel)
    with mock.patch.object(steady, "_relapse_within_transmission", return_value=False):
        scanned = find_fixed_points(params, kernel)
    assert len(bisected) == len(scanned) <= 1
    for got, want in zip(bisected, scanned):
        assert (got.b_star, got.residual) == (want.b_star, want.residual)
        for field in ("s", "i", "r"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


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
    would break it."""
    rates = ConstantRates(mu=mu, beta=beta, phi=phi, gamma=gamma, rho=rho)
    r0 = r0_rc_exact(rates)[0]
    b = mu / beta + (mu + phi + gamma) / rho - 1.0
    c = (mu / rho) * ((mu + phi + gamma) / beta - 1.0)
    assume(abs(r0 - 1.0) > R0_MARGIN)
    assume(abs(b * b - 4.0 * c) > FOLD_MARGIN * b * b)
    states = find_fixed_points(rates, analysis_kernel(rates), tol=FIXED_POINT_TOL)
    assert len(states) % 2 == (1 if r0 > 1.0 else 0)


#: states whose characteristic function has a zero within this distance
#: of the imaginary axis (per year) are skipped: a fold puts one at 0, a
#: Hopf point one on the axis, where a count on the truncated domain
#: cannot decide
AXIS_MARGIN = 1e-3


def unstable_zeros(rates, B):
    """Zeros with Re lam > 0 of Delta on the untruncated model, and their
    least distance to the imaginary axis.  With P = mu + beta B and Q = mu
    + phi + gamma + rho B, Delta is N(lam) / (P Q (lam + P) (lam + Q)), whose
    poles lie at -P and -Q, and N is the quadratic
    P Q (lam + P)(lam + Q) - mu beta Q (lam + mu + rho B) - rho e c (lam + P)
    with e = phi + gamma and c = beta B."""
    mu, beta, e, rho = rates.mu, rates.beta, rates.exit_pressure, rates.rho
    c = beta * B
    P, Q = mu + c, mu + e + rho * B
    roots = np.roots([
        P * Q,
        P * Q * (P + Q) - mu * beta * Q - rho * e * c,
        P * P * Q * Q - mu * beta * Q * (mu + rho * B) - rho * e * c * P,
    ])
    return int(np.sum(roots.real > 0.0)), float(np.min(np.abs(roots.real)))


@settings(max_examples=30, deadline=None)
@given(rates=st.builds(
    dict,
    mu=st.floats(1e-3, 0.5),
    beta=st.floats(0.0, 200.0, exclude_min=True),
    phi=st.floats(0.0, 100.0),
    gamma=st.floats(0.0, 100.0),
    rho=st.floats(0.0, 200.0),
))
def test_count_matches_the_rational_characteristic_function(rates):
    """On constant rates the zeros of Delta with Re lam > 0 are those of a
    quadratic: ``stability_probe`` says "unstable" exactly where it has
    one, at the infection-free state and at every endemic state, away from
    the imaginary axis."""
    assume(rates["phi"] + rates["gamma"] + rates["rho"] > 0.0)
    rates = ConstantRates(**rates)
    ages = analysis_kernel(rates).ages
    for B in [0.0] + fixed_points_exact(rates):
        count, nearest = unstable_zeros(rates, B)
        if nearest < AXIS_MARGIN:
            continue
        state = SteadyState(B, ages, *closed_form_profiles(B, rates, ages), residual=0.0)
        assert stability_probe(rates, state) == ("unstable" if count else "stable"), B


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


@settings(max_examples=60, deadline=None)
@given(
    rates=constant_rate_sets,
    B=st.floats(0.0, 1.0),
    ages=st.lists(st.floats(0.0, 60.0), max_size=8).map(lambda rest: [0.0] + rest),
)
def test_profile_helpers_match_the_closed_forms(rates, B, ages):
    """The sweep starts at age 0 like the closed forms, so nothing is
    truncated: the helpers meet them at any ages, unsorted or repeated."""
    assume(rates["phi"] + rates["gamma"] + rates["rho"] > 0.0)
    rates = ConstantRates(**rates)
    _, i_c, r_c = closed_form_profiles(B, rates, ages)
    assert np.abs(infected_profile(B, rates, ages) - i_c).max() <= 1e-9
    assert np.abs(recovered_profile(B, rates, ages) - r_c).max() <= 1e-9


@settings(max_examples=40, deadline=None)
@given(rates=constant_rate_sets)
def test_growth_rate_sign_is_sign_of_r0_minus_1(rates):
    """Within 10 tol of R0 = 1 the solver's tolerance cannot decide the sign.

    For a tiny beta the truncated domain's growth root sits below the
    abscissa, where the model's G diverges, so ``classify`` raises; that
    is the one failure allowed here.
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

    Where the node budget does not bring G to 1e-10 relative, the last
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


@pytest.mark.xfail(
    raises=ToleranceError, strict=True,
    reason="FOUND: classify raises ToleranceError on a subnormal transmission rate "
    "although the growth root lies above the abscissa",
)
@pytest.mark.parametrize(
    "rates",
    [
        dict(phi=[(32.0, 0.0), (35.0, 54.0)], rho=1.0),
        dict(phi=[(34.0, 0.0), (35.0, 53.0)], rho=0.0, contact=3.0),
    ],
    ids=["quadrature-refinement", "root-search"],
)
def test_growth_rate_of_a_subnormal_beta(rates):
    """Two draws of the converged-growth-equation property, at mu 0.001,
    beta 5e-324 and gamma 0: G at the abscissa is inf, so the growth root
    lies above it, yet ``classify`` stalls, in the quadrature's refinement
    for the first and in the root search for the second."""
    params = ParameterSet(mu=0.001, beta=5e-324, gamma=0.0, **rates)
    kernel = analysis_kernel(params)
    assert not truncated_root_below_abscissa(params, kernel)
    lam = classify(params, kernel, tol=GROWTH_TOL).growth_rate
    assert abs(euler_lotka(lam, params, kernel) - 1.0) <= GROWTH_TOL


def test_growth_rate_where_the_changes_are_rounding_noise():
    """A falsifying example of the converged-growth-equation property: G
    at the root converged on the base grid, and its changes over six
    refinements, 3e-14 to 3e-13, are rounding that need not halve."""
    params = ParameterSet(
        mu=AgeProfile.constant(0.0078125),
        beta=AgeProfile.constant(1.0),
        phi=AgeProfile.constant(0.0),
        gamma=AgeProfile([0.0, 1.0], [0.0, 0.25]),
        rho=AgeProfile.constant(0.0),
        contact=AgeProfile.constant(1.0),
        birth_rate=1.0,
    )
    kernel = analysis_kernel(params)
    lam = classify(params, kernel, tol=GROWTH_TOL).growth_rate
    assert abs(euler_lotka(lam, params, kernel, rtol=1e-10) - 1.0) <= GROWTH_TOL


def test_growth_rate_re_solved_on_every_level():
    """A falsifying example of the converged-growth-equation property: the
    exit pressure falls to 0 at age 30 and jumps at 31, and the root moves
    out of tol - rtol on five refinements in a row; each move used to
    start the count of halving changes again, until the levels ran out.
    Where G there does not reach 1e-10 relative, as in the property, the
    last refined value stands in."""
    params = ParameterSet(
        mu=AgeProfile.constant(0.46875),
        beta=AgeProfile.constant(1.0),
        phi=AgeProfile.constant(0.0),
        gamma=AgeProfile([0.0, 30.0, 31.0], [29.0, 0.0, 11.0]),
        rho=AgeProfile.constant(0.0),
        contact=AgeProfile.constant(1.0),
        birth_rate=1.0,
    )
    kernel = analysis_kernel(params)
    lam = classify(params, kernel, tol=GROWTH_TOL).growth_rate
    try:
        g = euler_lotka(lam, params, kernel, rtol=1e-10)
    except ToleranceError as err:
        g = err.best
    assert abs(g - 1.0) <= GROWTH_TOL


def test_growth_rate_of_a_pre_asymptotic_chain():
    """A falsifying example of the converged-growth-equation property: at
    the root solved on the base grid G changes by 6e-10 on the first
    refinement and by 5e-9 on the second, and converges to |G - 1| =
    1.0025e-8; one agreement accepted that root."""
    params = ParameterSet(
        mu=AgeProfile([0.0, 1.0], [0.0625, 0.06874389031089108]),
        beta=AgeProfile.constant(120.0),
        phi=AgeProfile([0.0, 1.0, 9.0], [1.0, 28.0, 4.0]),
        gamma=AgeProfile([3.0, 10.0, 34.0, 53.0], [1.0, 20.0, 31.0, 8.0]),
        rho=AgeProfile([0.0, 12.0, 40.25], [0.0, 0.0, 0.0]),
        contact=AgeProfile.constant(1.0),
        birth_rate=1.0,
    )
    kernel = analysis_kernel(params)
    lam = classify(params, kernel, tol=GROWTH_TOL).growth_rate
    assert abs(euler_lotka(lam, params, kernel, rtol=1e-10) - 1.0) <= GROWTH_TOL


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
