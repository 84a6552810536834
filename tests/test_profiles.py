import math

import numpy as np
import pytest
from scipy.integrate import quad

from epiage import AgeProfile, DomainError, ParameterError, as_profile, profile_sum


def test_constant_profile_evaluation():
    p = AgeProfile.constant(0.0125)
    assert p(37.0) == 0.0125
    assert p(0.0) == 0.0125


def test_table_midpoint_interpolation():
    p = AgeProfile.from_table([(0.0, 0.0), (10.0, 1.0)])
    assert p(5.0) == 0.5


def test_table_clamps_beyond_last_knot():
    p = AgeProfile.from_table([(0.0, 0.0), (10.0, 1.0)])
    assert p(25.0) == 1.0
    assert p(10.0) == 1.0


def test_negative_age_rejected():
    p = AgeProfile.constant(1.0)
    with pytest.raises(DomainError):
        p(-1.0)
    with pytest.raises(DomainError):
        p.cumulative(-0.5)


def test_nan_age_rejected():
    p = as_profile([(0.0, 1.0), (10.0, 2.0)])
    with pytest.raises(DomainError, match="age must be >= 0"):
        p(math.nan)
    with pytest.raises(DomainError, match="age must be >= 0"):
        p.cumulative([0.0, math.nan])
    assert p.cumulative(math.inf) == math.inf


@pytest.mark.parametrize("level", [math.nan, -1.0, -math.inf])
def test_age_at_rejects_nan_and_negative_levels(level):
    with pytest.raises(DomainError):
        as_profile([(0.0, 1.0), (10.0, 2.0)]).age_at(level)


def test_age_at_ends():
    p = as_profile([(0.0, 1.0), (10.0, 0.0)])
    assert p.age_at(0.0) == 0.0
    # the rate is 0 past the last knot, so the cumulative stops at 5
    assert p.age_at(5.5) == math.inf
    assert AgeProfile.constant(1.0).age_at(math.inf) == math.inf


@pytest.mark.parametrize(
    "spec, level",
    [
        # the quadratic's v^2 overflows
        (1e300, 13.8),
        ([(0.0, 1e300), (1.0, 1e200)], 1e299),
        # rising from 0: the root is sqrt(rest / h)
        ([(0.0, 0.0), (1.0, 1.0)], 1e-300),
        # falling to 0 at the knot, where the cumulative flattens
        ([(0.0, 1.0), (10.0, 0.0)], 5.0),
    ],
)
def test_age_at_is_a_crossing_at_extreme_scales(spec, level):
    p = as_profile(spec)
    age = p.age_at(level)
    assert p.cumulative(age) >= level > p.cumulative(math.nextafter(age, 0.0))


def test_age_at_crosses_a_rounding_plateau():
    """a * 5e-324 rounds to 5e-324 for every a in (0.5, 1.5): a search by
    single doubles from the root 1.0 would take 2^52 steps."""
    assert AgeProfile.constant(5e-324).age_at(5e-324) == math.nextafter(0.5, 1.0)


def test_invalid_tables_rejected():
    with pytest.raises(ParameterError):
        AgeProfile.from_table([(0.0, 1.0), (0.0, 2.0)])  # not increasing
    with pytest.raises(ParameterError):
        AgeProfile.from_table([(0.0, -1.0), (1.0, 2.0)])  # negative value
    with pytest.raises(ParameterError):
        AgeProfile([], [])


def test_cumulative_exact_on_linear_segments():
    p = AgeProfile.from_table([(0.0, 0.01), (100.0, 0.03)])
    # trapezoid of a linear function is exact
    assert p.cumulative(100.0) == pytest.approx(2.0, abs=1e-14)
    assert p.cumulative(50.0) == pytest.approx(0.5 * (0.01 + 0.02) * 50, abs=1e-14)
    # beyond the table the value is clamped
    assert p.cumulative(120.0) == pytest.approx(2.0 + 20 * 0.03, abs=1e-13)


def test_cumulative_matches_adaptive_quadrature(rng):
    knots = np.sort(rng.uniform(0.0, 80.0, 5))
    knots[0] = 0.0
    values = rng.uniform(0.0, 3.0, 5)
    p = AgeProfile(knots, values)
    for a in (0.3, 7.7, 45.0, 79.0, 95.0):
        oracle, _ = quad(p, 0.0, a, limit=200, points=list(knots[knots < a]))
        assert p.cumulative(a) == pytest.approx(oracle, abs=1e-9)


def test_cumulative_with_offset_first_knot():
    # constant continuation before the first knot
    p = AgeProfile.from_table([(10.0, 2.0), (20.0, 4.0)])
    assert p(0.0) == 2.0
    assert p.cumulative(10.0) == pytest.approx(20.0)
    assert p.cumulative(15.0) == pytest.approx(20.0 + 0.5 * (2.0 + 3.0) * 5.0)


def piecewise_cumulative(ages, values, a):
    """The integral by cases: before the first knot, past the last one,
    and on the segment that holds a."""
    lead = ages[0] * values[0]
    if a <= ages[0]:
        return a * values[0]
    seg = 0.5 * (values[1:] + values[:-1]) * np.diff(ages)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    if a >= ages[-1]:
        return lead + cum[-1] + (a - ages[-1]) * values[-1]
    k = np.searchsorted(ages, a, side="right") - 1
    da = a - ages[k]
    slope = (values[k + 1] - values[k]) / (ages[k + 1] - ages[k])
    return lead + cum[k] + da * (values[k] + 0.5 * slope * da)


def test_cumulative_bits_match_the_piecewise_reference(rng):
    """Bit for bit, at random ages, at every knot and next to it, at 0
    and at infinity, on tables with and without a knot at age 0."""
    for trial in range(40):
        knots = np.sort(rng.uniform(0.0, 80.0, 1 + trial % 5))
        if trial % 2:
            knots[0] = 0.0
        values = rng.uniform(0.0, 3.0, knots.size) * (rng.random(knots.size) < 0.8)
        p = AgeProfile(knots, values)
        ages = np.concatenate([
            [0.0, 5e-324, np.inf],
            rng.uniform(0.0, 120.0, 50),
            knots,
            np.nextafter(knots, 0.0),
            np.nextafter(knots, np.inf),
        ])
        with np.errstate(invalid="ignore"):  # inf * 0 past a zero last value
            expected = [piecewise_cumulative(knots, values, a) for a in ages]
            got = p.cumulative(ages)
        np.testing.assert_array_equal(got, expected)


def test_cumulative_finite_at_a_knot_after_a_subnormal_gap():
    # the slope 1 / 1e-310 overflows; 0 * inf at the next knot gave NaN
    p = AgeProfile([0.0, 1e-310, 2e-310], [0.0, 1.0, 0.0])
    assert p.cumulative(1e-310) == pytest.approx(0.5e-310, rel=1e-9, abs=0.0)
    assert p.cumulative(1.0) == pytest.approx(1e-310, rel=1e-9, abs=0.0)


def test_segment_integral_past_the_largest_double():
    # 0.5 * 1.7e308 * 1.7e308 overflows to inf, the integral's right limit;
    # it warned, so under error::RuntimeWarning building the profile raised
    p = as_profile([(0.0, 1.7e308), (1.7e308, 0.0)])
    assert p.cumulative(1.0) == 1.7e308
    assert p.cumulative(np.nextafter(1.7e308, np.inf)) == np.inf


def test_value_finite_inside_a_subnormal_gap():
    # the slope -3 / 2.2e-309 overflows, so interp gave -inf at 1e-309,
    # which the graded grid, keeping every knot as a block edge, evaluates
    p = AgeProfile([0.0, 2.2e-309, 1.0], [90.0, 87.0, 7.0])
    assert p(1e-309) == pytest.approx(90.0 - 3.0 / 2.2, rel=1e-3)
    np.testing.assert_array_equal(p(np.array([0.0, 2.2e-309, 0.5])), [90.0, 87.0, 47.0])


def test_as_profile_coercions():
    assert as_profile(2.5)(1.0) == 2.5
    assert as_profile([(0, 1.0), (5, 2.0)])(5.0) == 2.0
    p = AgeProfile.constant(1.0)
    assert as_profile(p) is p


def test_profile_sum_exact_on_knot_union():
    p = AgeProfile.from_table([(0.0, 1.0), (10.0, 3.0)])
    q = AgeProfile.from_table([(0.0, 2.0), (4.0, 0.0), (10.0, 2.0)])
    s = profile_sum(p, q)
    for a in np.linspace(0, 12, 23):
        assert s(a) == pytest.approx(p(a) + q(a), abs=1e-14)


def test_profiles_are_immutable():
    p = AgeProfile.constant(1.0)
    with pytest.raises(AttributeError):
        p.values = np.array([2.0])
