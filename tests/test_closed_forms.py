import numpy as np
import pytest

from epiage import (
    ConstantRates,
    DegenerateParameterError,
    amplification_exact,
    bifurcation_region,
    closed_form_profiles,
    fixed_points_exact,
    r0_rc_exact,
)


def bisect_rational(rates, lo, hi, tol=1e-12):
    """Independent root oracle: bisection on the rational amplification."""
    f = lambda B: amplification_exact(B, rates) - 1.0
    f_lo = f(lo)
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if abs(f_mid) <= tol:
            return mid
        if f_mid * f_lo > 0:
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    raise AssertionError("oracle bisection failed to converge")


class TestClosedFormProfiles:
    def test_no_pressure(self, rates_bistable):
        s, i, r = closed_form_profiles(0.0, rates_bistable, np.linspace(0, 80, 9))
        assert np.all(s == 1.0) and np.all(i == 0.0) and np.all(r == 0.0)

    def test_boundary_age(self, rates_bistable):
        s, i, r = closed_form_profiles(0.37, rates_bistable, np.array([0.0]))
        assert s[0] == 1.0
        assert abs(i[0]) < 1e-12 and abs(r[0]) < 1e-12

    def test_sum_is_one_pointwise(self, rates_bistable, rng):
        ages = np.linspace(0, 100, 401)
        for B in rng.uniform(0.001, 0.99, 8):
            s, i, r = closed_form_profiles(B, rates_bistable, ages)
            assert np.abs(s + i + r - 1.0).max() < 1e-12

    def test_confluent_case_continuous(self):
        # rho < beta makes phi+gamma+B(rho-beta) vanish at some B
        rates = ConstantRates(mu=0.5, beta=10.0, phi=2.0, gamma=1.0, rho=4.0)
        b_degenerate = (rates.phi + rates.gamma) / (rates.beta - rates.rho)
        ages = np.linspace(0, 10, 41)
        exact = closed_form_profiles(b_degenerate, rates, ages)
        nearby = closed_form_profiles(b_degenerate * (1 + 1e-7), rates, ages)
        for e, n in zip(exact, nearby):
            assert np.abs(e - n).max() < 1e-5

    def test_confluent_matches_general_sweep(self):
        from epiage import infected_profile

        rates = ConstantRates(mu=0.5, beta=10.0, phi=2.0, gamma=1.0, rho=4.0)
        b_degenerate = (rates.phi + rates.gamma) / (rates.beta - rates.rho)
        ages = np.linspace(0, 10, 41)
        _, i_closed, _ = closed_form_profiles(b_degenerate, rates, ages)
        i_general = infected_profile(b_degenerate, rates, ages)
        assert np.abs(i_closed - i_general).max() < 1e-9


class TestRationalAmplification:
    def test_limit_is_r0(self, rates_bistable):
        r0_value, _ = r0_rc_exact(rates_bistable)
        assert amplification_exact(0.0, rates_bistable) == pytest.approx(
            r0_value, rel=1e-14
        )

    def test_bistable_value(self, rates_bistable):
        assert amplification_exact(0.1, rates_bistable) == pytest.approx(
            0.94965, abs=1e-5
        )

    def test_large_pressure_decay(self, rates_bistable):
        for B in (1e3, 1e6):
            assert B * amplification_exact(B, rates_bistable) == pytest.approx(
                1.0, rel=1e-2
            )

    def test_degenerate_rates_rejected(self):
        no_relapse = ConstantRates(mu=0.1, beta=1.0, phi=1.0, gamma=0.5, rho=0.0)
        with pytest.raises(DegenerateParameterError):
            amplification_exact(0.5, no_relapse)
        with pytest.raises(DegenerateParameterError):
            fixed_points_exact(no_relapse)


class TestThresholdRatios:
    def test_three_regimes(self, rates_extinction, rates_bistable, rates_endemic):
        r0_value, rc_value = r0_rc_exact(rates_bistable)
        assert r0_value == pytest.approx(0.8218, abs=1e-3)
        assert rc_value == 4800.0
        r0_value, rc_value = r0_rc_exact(rates_extinction)
        assert r0_value == pytest.approx(1.5e-4, rel=1e-2)
        assert rc_value == pytest.approx(0.88, rel=1e-12)
        r0_value, rc_value = r0_rc_exact(rates_endemic)
        assert r0_value == pytest.approx(1.6436, abs=1e-3)
        assert rc_value == 9600.0


class TestQuadraticFixedPoints:
    def test_bistable_roots_against_bisection(self, rates_bistable):
        roots = fixed_points_exact(rates_bistable)
        assert len(roots) == 2
        assert roots[0] == pytest.approx(7.60812e-4, rel=1e-4)
        assert roots[1] == pytest.approx(4.64868e-2, rel=1e-4)
        # independent oracle: bisection on the rational form
        small = bisect_rational(rates_bistable, 1e-8, 5e-3)
        large = bisect_rational(rates_bistable, 5e-3, 0.5)
        assert roots[0] == pytest.approx(small, abs=1e-10)
        assert roots[1] == pytest.approx(large, abs=1e-10)
        for b in roots:
            assert abs(amplification_exact(b, rates_bistable) - 1.0) <= 1e-12

    def test_extinction_set_no_roots(self, rates_extinction):
        assert fixed_points_exact(rates_extinction) == []

    def test_endemic_set_single_root(self, rates_endemic):
        roots = fixed_points_exact(rates_endemic)
        assert len(roots) == 1
        oracle = bisect_rational(rates_endemic, 1e-6, 0.9)
        assert roots[0] == pytest.approx(oracle, abs=1e-10)
        assert abs(amplification_exact(roots[0], rates_endemic) - 1.0) <= 1e-12


class TestBifurcationRegion:
    def test_drinking_regimes(self, rates_extinction, rates_bistable, rates_endemic):
        assert bifurcation_region(rates_extinction).region == 1
        assert bifurcation_region(rates_bistable).region == 2
        assert bifurcation_region(rates_endemic).region == 3

    def test_bistable_beta_threshold_value(self, rates_bistable):
        report = bifurcation_region(rates_bistable)
        # rho mu / (mu + (sqrt(rho) - sqrt(phi+gamma))^2) by direct arithmetic
        expected = 76.65 * 0.0125 / (0.0125 + (np.sqrt(76.65) - np.sqrt(73.0)) ** 2)
        assert report.beta_threshold == pytest.approx(expected, rel=1e-14)
        assert report.beta_threshold == pytest.approx(16.8, abs=0.05)

    def test_below_threshold_is_region_one(self):
        rates = ConstantRates(mu=0.0125, beta=10.0, phi=60.0, gamma=13.0, rho=76.65)
        assert bifurcation_region(rates).region == 1
        assert fixed_points_exact(rates) == []

    def test_no_region_two_without_two_roots(self):
        # R0 = 0.99983 < 1 < RC and beta clears the paper's threshold, but
        # with rho < phi + gamma the quadratic has no root in (0, 1)
        rates = ConstantRates(mu=0.0125, beta=73.0, phi=60.0, gamma=13.0, rho=5.0)
        assert fixed_points_exact(rates) == []
        report = bifurcation_region(rates)
        assert report.region == 1
        assert report.r0 < 1.0 < report.rc and rates.beta > report.beta_threshold

    def test_region_is_the_root_count_on_random_sets(self, rng):
        # treatment-dominant and large-mu sets, where the two inequalities
        # predicted region 2 for most sets without an endemic state
        for _ in range(2000):
            rates = ConstantRates(
                mu=10.0 ** rng.uniform(-2.5, 0.0),
                beta=rng.uniform(0.1, 150.0),
                phi=rng.uniform(0.0, 80.0),
                gamma=rng.uniform(0.1, 20.0),
                rho=rng.uniform(0.1, 150.0),
            )
            report = bifurcation_region(rates)
            roots = fixed_points_exact(rates)
            if report.r0 > 1.0:
                assert report.region == 3
            else:
                assert report.region == (2 if report.r0 < 1.0 and len(roots) == 2 else 1)

    def test_region_two_iff_two_roots_near_reference_rates(self):
        # relapse-dominant grid around the bistable reference values
        mismatches = 0
        for beta in np.linspace(10.0, 100.0, 10):
            for rho in np.linspace(75.0, 95.0, 10):
                for exit_pressure in np.linspace(50.0, 74.0, 10):
                    rates = ConstantRates(
                        mu=0.0125,
                        beta=beta,
                        phi=exit_pressure - 13.0,
                        gamma=13.0,
                        rho=rho,
                    )
                    predicted = bifurcation_region(rates).region == 2
                    actual = len(fixed_points_exact(rates)) == 2
                    mismatches += predicted != actual
        assert mismatches == 0
