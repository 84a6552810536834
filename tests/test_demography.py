import math

import numpy as np
import pytest
from scipy.integrate import quad

from epiage import (
    AgeProfile,
    GridSpec,
    ParameterError,
    ParameterSet,
    analysis_kernel,
    as_profile,
    stationary_mixing,
    survival,
    total_population,
    truncation_age,
    validate,
)
from epiage.presets import PRESETS, preset_config


def make_params(**overrides):
    base = dict(mu=0.0125, beta=60.0, phi=60.0, gamma=13.0, rho=76.65, contact=1.0)
    base.update(overrides)
    return ParameterSet(**base)


def reference(params, cutoff):
    """Truncation age by 80 steps of bisection from a power of two."""
    target = math.log(1.0 / cutoff)
    hi = 1.0
    while params.mu.cumulative(hi) < target:
        hi *= 2.0
    lo = hi / 2.0 if hi > 1.0 else 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if params.mu.cumulative(mid) < target:
            lo = mid
        else:
            hi = mid
    return hi


class TestSurvival:
    def test_starts_at_one(self):
        assert survival(make_params(), 0.0) == 1.0

    def test_constant_exit_closed_form(self):
        # exp(-mu a), cross-checked by adaptive quadrature of the exponent
        params = make_params()
        value = survival(params, 80.0)
        assert value == pytest.approx(np.exp(-1.0), rel=1e-14)
        exponent, _ = quad(params.mu, 0.0, 80.0)
        assert value == pytest.approx(np.exp(-exponent), rel=1e-12)

    def test_linear_exit_segment_exact(self):
        params = make_params(mu=[(0.0, 0.01), (100.0, 0.03)])
        # fine Riemann-sum oracle for the exponent
        ages = np.linspace(0, 100, 200001)
        riemann = np.trapezoid(params.mu(ages), ages)
        assert survival(params, 100.0) == pytest.approx(np.exp(-2.0), rel=1e-13)
        assert survival(params, 100.0) == pytest.approx(np.exp(-riemann), rel=1e-9)

    def test_monotone_nonincreasing(self, rng):
        knots = np.sort(rng.uniform(0, 90, 4))
        knots[0] = 0.0
        params = make_params(mu=list(zip(knots, rng.uniform(0.001, 0.1, 4))))
        ages = np.linspace(0, 120, 300)
        values = survival(params, ages)
        assert values[0] == 1.0
        assert np.all(np.diff(values) <= 1e-15)
        assert np.all(values > 0)


class TestMixingDensity:
    def test_large_domain_tends_to_exponential(self):
        params = make_params()
        kernel = stationary_mixing(params, GridSpec(800.0, 1.0, 1600, 10))
        assert kernel.density[0] == pytest.approx(0.0125, rel=1e-3)

    def test_normalization_is_exact(self):
        params = make_params()
        for grid in (GridSpec(100.0, 1.0, 200, 10), GridSpec(100.0, 1.0, 201, 10)):
            kernel = stationary_mixing(params, grid)
            assert kernel.integrate(kernel.density) == pytest.approx(1.0, abs=1e-12)

    def test_contact_scale_cancels(self):
        k1 = stationary_mixing(make_params(contact=1.0), GridSpec(100.0, 1.0, 200, 10))
        k2 = stationary_mixing(make_params(contact=2.0), GridSpec(100.0, 1.0, 200, 10))
        assert np.allclose(k1.density, k2.density, rtol=0, atol=1e-15)
        assert k2.norm == pytest.approx(2 * k1.norm, rel=1e-14)

    def test_rejects_nonpositive_exit_rate(self):
        params = make_params(mu=[(0.0, 0.0), (50.0, 0.01)])
        with pytest.raises(ParameterError):
            stationary_mixing(params, GridSpec(100.0, 1.0, 200, 10))

    @pytest.mark.parametrize("birth_rate", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_birth_rate_not_positive_and_finite(self, birth_rate):
        # an infinite birth rate made total_population infinite at young ages
        with pytest.raises(ParameterError):
            make_params(birth_rate=birth_rate)

    def test_rejects_vanishing_contact(self):
        params = make_params(contact=0.0)
        with pytest.raises(ParameterError):
            stationary_mixing(params, GridSpec(100.0, 1.0, 200, 10))

    def test_analysis_kernel_domain_choice(self):
        params = make_params()
        age = truncation_age(params, 1e-6)
        assert survival(params, age) <= 1e-6 + 1e-12
        assert survival(params, age * 0.99) > 1e-6
        kernel = analysis_kernel(params)
        assert kernel.ages[-1] == pytest.approx(age, rel=1e-6)
        assert kernel.integrate(kernel.density) == pytest.approx(1.0, abs=1e-12)

    def test_truncation_age_matches_the_80_step_bisection(self, rng):
        for _ in range(40):
            n = rng.integers(1, 5)
            knots = np.sort(rng.uniform(0.0, 200.0, n))
            params = make_params(mu=list(zip(knots, rng.uniform(1e-3, 2.0, n))))
            cutoff = 10.0 ** rng.uniform(-14.0, -0.5)
            assert truncation_age(params, cutoff) == reference(params, cutoff)

    def test_truncation_age_is_a_crossing_of_the_cumulative(self, rng):
        """On 2000 tables whose rate rises and falls, A is a crossing of the
        rounded cumulative.  Where the rate does not fall at A (a constant
        rate, past the last knot, or on a rising segment) the rounded
        cumulative is monotone, and A is the bisection's."""
        for _ in range(2000):
            n = rng.integers(1, 6)
            knots = np.sort(rng.uniform(0.0, 200.0, n))
            knots[0] *= rng.integers(0, 2)
            values = rng.uniform(1e-3, 2.0, n)
            params = make_params(mu=list(zip(knots, values)))
            cutoff = 10.0 ** rng.uniform(-14.0, -0.5)
            target, age = math.log(1.0 / cutoff), truncation_age(params, cutoff)
            cumulative = params.mu.cumulative
            assert cumulative(age) >= target > cumulative(math.nextafter(age, 0.0))
            k = np.searchsorted(knots, age)
            if k in (0, n) or values[k] >= values[k - 1]:
                assert age == reference(params, cutoff)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_truncation_age_of_each_preset(self, preset):
        """The four drinking-rate presets share mu; a moved bit fails."""
        expected = 294.5918426327379 if preset == "agedep" else 1105.240844637142
        assert truncation_age(preset_config(preset).params) == expected

    def test_truncation_age_of_constant_rates(self):
        config = preset_config("bistable-high")
        assert truncation_age(config.rates) == truncation_age(config.params)

    @pytest.mark.parametrize("cutoff", [0.0, -1.0, math.inf, 1.0, 1.5, math.nan])
    def test_truncation_age_rejects_a_cutoff_outside_the_unit_interval(self, cutoff):
        with pytest.raises(ParameterError, match=r"cutoff must lie in \(0, 1\)"):
            truncation_age(make_params(), cutoff)

    def test_density_integral_against_adaptive_oracle(self):
        params = make_params(contact=[(0.0, 0.6), (20.0, 1.2), (100.0, 0.3)])
        kernel = analysis_kernel(params)
        A = kernel.ages[-1]
        weighted = lambda a: params.contact(a) * np.exp(-params.mu.cumulative(a))
        oracle, _ = quad(weighted, 0.0, A, limit=500, points=[20.0, 100.0])
        # profile kinks inside quadrature panels cap the rate for tables
        assert kernel.norm == pytest.approx(oracle, rel=2e-6)


class TestTotalPopulation:
    def test_inflow_branch_closed_form(self):
        params = make_params()
        # t > a: birth_rate * survival(a)
        assert total_population(params, 1.0, 100.0, 80.0) == pytest.approx(
            np.exp(-1.0), rel=1e-14
        )

    def test_initial_condition_branch(self):
        params = make_params()
        n0 = AgeProfile.from_table([(0.0, 1.0), (50.0, 3.0)])
        ages = np.array([5.0, 20.0, 45.0])
        assert np.allclose(total_population(params, n0, 0.0, ages), n0(ages))

    def test_steady_state_is_time_independent(self):
        params = make_params()
        ages = np.linspace(0.0, 100.0, 11)
        n0 = lambda a: params.birth_rate * np.exp(-params.mu.cumulative(a))
        n0_profile = AgeProfile(ages, n0(ages))  # piecewise-linear sample
        # use the exact survival-shaped n0 by comparing both branches directly
        for t in (0.0, 13.0, 77.0, 200.0):
            values = total_population(params, n0_profile, t, ages)
            carried = np.where(
                t >= ages, params.birth_rate * np.exp(-params.mu.cumulative(ages)), values
            )
            assert np.allclose(values[t >= ages], carried[t >= ages], rtol=1e-14)
        # with constant mu the survival curve restricted to a fine grid is
        # close to piecewise linear, so t-independence holds approximately
        fine = np.linspace(0.0, 100.0, 4001)
        n0_fine = AgeProfile(fine, n0(fine))
        probe_ages = np.array([10.0, 40.0, 90.0])
        base = total_population(params, n0_fine, 0.0, probe_ages)
        for t in (3.0, 9.0):
            now = total_population(params, n0_fine, t, probe_ages)
            assert np.allclose(now, base, rtol=1e-7)


class TestValidate:
    def test_compatible_initial_population(self):
        params = make_params()
        report = validate(params, as_profile(1.0))
        assert report.compatible and report.ok

    def test_incompatibility_flagged(self):
        params = make_params()
        report = validate(params, as_profile(2.0))
        assert not report.compatible
        assert "discontinuous" in report.messages[0]

    def test_zero_exit_rate_flagged(self):
        params = make_params(mu=[(0.0, 0.0), (50.0, 0.02)])
        report = validate(params, as_profile(1.0))
        assert not report.mu_positive
        assert not report.ok
