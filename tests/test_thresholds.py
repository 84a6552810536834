import numpy as np
import pytest

from epiage import _sweep, thresholds
from epiage import (
    AgeProfile,
    ConstantRates,
    NumericsError,
    ParameterSet,
    analysis_kernel,
    classify,
    dominant_growth_rate,
    euler_lotka,
    r0,
    rc,
)
from epiage.presets import AGE_DEPENDENT_RATES


def analytic_r0(rates):
    return rates.beta / (rates.mu + rates.phi + rates.gamma)


def analytic_growth(rates):
    # constant-rate growth equation beta/(lam + mu + phi + gamma) = 1
    return rates.beta - (rates.mu + rates.phi + rates.gamma)


class TestR0:
    def test_drinking_regimes(self, rates_bistable, rates_endemic, rates_extinction,
                              kernel_bistable, kernel_endemic, kernel_extinction):
        assert r0(rates_bistable, kernel_bistable) == pytest.approx(0.8218, abs=1e-3)
        assert r0(rates_endemic, kernel_endemic) == pytest.approx(1.6436, abs=1e-3)
        assert r0(rates_extinction, kernel_extinction) == pytest.approx(1.5e-4, rel=1e-2)

    def test_matches_ratio_on_800_year_domain(self, rates_bistable):
        kernel = analysis_kernel(rates_bistable, age_max=800.0)
        assert r0(rates_bistable, kernel) == pytest.approx(
            analytic_r0(rates_bistable), rel=1e-6
        )

    @pytest.mark.parametrize("knot", [1e-8, 1e-20, 8.2e-129])
    def test_rate_knot_at_a_tiny_age(self, knot):
        # the kink at the knot must stay a block edge of the graded grid, or
        # Richardson converges at first order and stalls; up to the knot,
        # R0 = beta / (mu + phi + gamma) = 1/3
        params = ParameterSet(
            mu=0.5, beta=AgeProfile([0.0, knot], [0.0, 0.5]), phi=0.0, gamma=1.0, rho=0.0
        )
        assert r0(params, analysis_kernel(params)) == pytest.approx(1.0 / 3.0, rel=1e-6)

    def test_zero_transmission(self, rates_bistable, kernel_bistable):
        silent = ConstantRates(mu=0.0125, beta=0.0, phi=60.0, gamma=13.0, rho=76.65)
        kernel = analysis_kernel(silent)
        assert r0(silent, kernel) == 0.0


class TestRC:
    def test_extinction_set(self, rates_extinction, kernel_extinction):
        assert rc(rates_extinction, kernel_extinction) == pytest.approx(0.88, rel=1e-3)

    def test_bistable_set(self, rates_bistable, kernel_bistable):
        assert rc(rates_bistable, kernel_bistable) == pytest.approx(4800.0, rel=1e-3)

    def test_zero_transmission(self):
        silent = ConstantRates(mu=0.0125, beta=0.0, phi=60.0, gamma=13.0, rho=76.65)
        assert rc(silent, analysis_kernel(silent)) == 0.0

    def test_rc_bounds_r0(self, rng):
        for _ in range(10):
            rates = ConstantRates(
                mu=rng.uniform(0.05, 0.8),
                beta=rng.uniform(0.1, 8.0),
                phi=rng.uniform(0.1, 4.0),
                gamma=rng.uniform(0.1, 4.0),
                rho=rng.uniform(0.1, 8.0),
            )
            kernel = analysis_kernel(rates)
            assert rc(rates, kernel) >= r0(rates, kernel)


class TestEulerLotka:
    def test_lambda_zero_is_r0(self, rates_bistable, kernel_bistable):
        assert euler_lotka(0.0, rates_bistable, kernel_bistable) == pytest.approx(
            r0(rates_bistable, kernel_bistable), abs=1e-10
        )

    def test_constant_rate_closed_form(self, rates_bistable, kernel_bistable):
        # beta/(lam + mu + phi + gamma) from symbolic integration of the
        # nested integral for the unbounded domain
        value = euler_lotka(10.0, rates_bistable, kernel_bistable)
        assert value == pytest.approx(60.0 / 83.0125, rel=1e-8)

    def test_strictly_decreasing_and_convex(self, rates_bistable, kernel_bistable):
        lams = np.array([-20.0, -5.0, 0.0, 5.0, 20.0, 60.0])
        values = [euler_lotka(l, rates_bistable, kernel_bistable) for l in lams]
        assert all(a > b for a, b in zip(values, values[1:]))
        # convexity on equispaced triples
        for triple in ([-20.0, 0.0, 20.0], [-5.0, 5.0, 15.0], [0.0, 30.0, 60.0]):
            g = [euler_lotka(l, rates_bistable, kernel_bistable) for l in triple]
            assert g[1] < 0.5 * (g[0] + g[2])

    def test_overflow_sentinel(self, rates_bistable, kernel_bistable):
        assert euler_lotka(-1000.0, rates_bistable, kernel_bistable) == np.inf


class TestDominantGrowthRate:
    def test_bistable_set(self, rates_bistable, kernel_bistable):
        lam = dominant_growth_rate(rates_bistable, kernel_bistable)
        assert lam == pytest.approx(-13.0125, abs=1e-4)

    def test_endemic_set(self, rates_endemic, kernel_endemic):
        lam = dominant_growth_rate(rates_endemic, kernel_endemic)
        assert lam == pytest.approx(46.9875, abs=1e-4)

    def test_sign_matches_r0_on_random_sets(self, rng):
        from epiage import truncation_age

        for _ in range(50):
            rates = ConstantRates(
                mu=rng.uniform(0.05, 1.0),
                beta=rng.uniform(0.1, 10.0),
                phi=rng.uniform(0.05, 5.0),
                gamma=rng.uniform(0.05, 5.0),
                rho=rng.uniform(0.05, 5.0),
            )
            # comparing against the unbounded-domain root needs the domain
            # sized by the slowest decay e^{-beta a}, not survival alone
            params = rates.to_parameter_set()
            age_max = max(truncation_age(params, 1e-9), 30.0 / rates.beta)
            kernel = analysis_kernel(rates, age_max=age_max)
            lam = dominant_growth_rate(rates, kernel)
            r0_value = r0(rates, kernel)
            assert np.sign(lam) == np.sign(r0_value - 1.0)
            # the analytic constant-rate root, exact on the unbounded domain
            assert lam == pytest.approx(analytic_growth(rates), abs=5e-4)

    @pytest.mark.parametrize("regime", ["bistable", "endemic"])
    def test_few_evaluations_and_residual_within_tol(self, regime, request, monkeypatch):
        # 1 - 1/G is linear in lam for constant rates, so the false-position
        # step from the bracket [lo, 0] or [0, hi] lands next to the root,
        # and only the root is evaluated on the refined grid
        rates = request.getfixturevalue(f"rates_{regime}")
        kernel = request.getfixturevalue(f"kernel_{regime}")
        g_value = thresholds._LotkaData.g_value
        calls = []

        def counted(data, lam):
            calls.append(lam)
            return g_value(data, lam)

        monkeypatch.setattr(thresholds._LotkaData, "g_value", counted)
        tol = 1e-8
        lam = dominant_growth_rate(rates, kernel, tol=tol)
        assert len(calls) <= 5
        assert abs(euler_lotka(lam, rates, kernel, rtol=1e-10) - 1.0) <= tol

    def test_vanishing_g_bounds_the_bracket(self, rates_bistable, kernel_bistable, monkeypatch):
        # a G that underflows to 0 counts as far below 1, not as a division error
        g_value = thresholds._LotkaData.g_value
        monkeypatch.setattr(
            thresholds._LotkaData, "g_value",
            lambda data, lam: 0.0 if lam >= 0.0 else g_value(data, lam),
        )
        lam = dominant_growth_rate(rates_bistable, kernel_bistable)
        assert lam == pytest.approx(-13.0125, abs=1e-4)

    def test_invariant_under_refinement(self, rates_bistable, kernel_bistable, rates_endemic):
        from epiage import refine_kernel

        lam1 = dominant_growth_rate(rates_bistable, kernel_bistable, tol=1e-8)
        lam2 = dominant_growth_rate(
            rates_bistable, refine_kernel(rates_bistable, kernel_bistable), tol=1e-8
        )
        assert lam1 == pytest.approx(lam2, abs=1e-6)

    def test_no_transmission_raises(self):
        silent = ConstantRates(mu=0.0125, beta=0.0, phi=60.0, gamma=13.0, rho=76.65)
        with pytest.raises(NumericsError):
            dominant_growth_rate(silent, analysis_kernel(silent))


class TestToleranceContract:
    def test_stalled_refinement_carries_best_estimate(self):
        from epiage import ParameterSet, ToleranceError

        params = ParameterSet(
            mu=0.0125,
            beta=[(0.0, 5.0), (20.0, 60.0), (50.0, 10.0)],
            phi=60.0,
            gamma=13.0,
            rho=76.65,
        )
        kernel = analysis_kernel(params, panels_per_block=4)
        with pytest.raises(ToleranceError) as err:
            r0(params, kernel, rtol=1e-15)
        # the estimate is still in the right ballpark
        assert 0.1 < err.value.best < 2.0


def level0_sweeps(monkeypatch, kernel):
    """Sweeps counted in units of one sweep on ``kernel``'s grid."""
    sweep = _sweep.exp_sweep
    nodes = []

    def counted(ages, psi, *args):
        nodes.append(psi.size)
        return sweep(ages, psi, *args)

    monkeypatch.setattr(_sweep, "exp_sweep", counted)
    return lambda: sum(nodes) / kernel.ages.size


class TestClassify:
    @pytest.mark.parametrize("regime", ["bistable", "endemic"])
    def test_constant_rate_sweeps(self, regime, request, monkeypatch):
        # R0 at levels 0 and 1 (3 units), the far bracket end and the
        # false-position step (2, and one more step for the bistable set),
        # the root at level 1 (2): 7-8 in all
        rates = request.getfixturevalue(f"rates_{regime}")
        kernel = request.getfixturevalue(f"kernel_{regime}")
        sweeps = level0_sweeps(monkeypatch, kernel)
        classify(rates, kernel)
        assert sweeps() <= 9

    def test_age_dependent_sweeps(self, monkeypatch):
        # the agedep preset at the tolerance run_config passes on: its
        # chain is pre-asymptotic up to level 5, which only the root climbs
        params = ParameterSet(**AGE_DEPENDENT_RATES)
        kernel = analysis_kernel(params)
        sweeps = level0_sweeps(monkeypatch, kernel)
        report = classify(params, kernel, tol=1e-9)
        assert sweeps() <= 120
        assert abs(euler_lotka(report.growth_rate, params, kernel, rtol=1e-11) - 1.0) <= 1e-9

    def test_three_regions(self, rates_extinction, rates_bistable, rates_endemic,
                           kernel_extinction, kernel_bistable, kernel_endemic):
        assert classify(rates_extinction, kernel_extinction).region == "extinction"
        assert classify(rates_bistable, kernel_bistable).region == "bistable-candidate"
        assert classify(rates_endemic, kernel_endemic).region == "endemic"

    def test_one_refinement_chain(self, rates_bistable, kernel_bistable, monkeypatch):
        # classify gives the public functions' values bit for bit, and its
        # three quantities share one chain of refined kernels
        refine = thresholds.refine_kernel
        calls = []

        def counted(params, kernel):
            calls.append(kernel.ages.size)
            return refine(params, kernel)

        monkeypatch.setattr(thresholds, "refine_kernel", counted)
        alone, depths = [], []
        for compute in (r0, rc, dominant_growth_rate):
            calls.clear()
            alone.append(compute(rates_bistable, kernel_bistable))
            depths.append(len(calls))
        calls.clear()
        report = classify(rates_bistable, kernel_bistable)
        assert (report.r0, report.rc, report.growth_rate) == tuple(alone)
        assert len(calls) == max(depths)

    def test_report_fields_consistent(self, rates_bistable, kernel_bistable):
        report = classify(rates_bistable, kernel_bistable)
        assert report.r0 <= report.rc
        assert np.sign(report.growth_rate) == np.sign(report.r0 - 1.0)

    def test_age_dependent_profiles(self):
        params = ParameterSet(
            mu=0.0125,
            beta=[(0.0, 5.0), (20.0, 60.0), (50.0, 10.0)],
            phi=[(0.0, 40.0), (40.0, 70.0)],
            gamma=13.0,
            rho=[(0.0, 30.0), (40.0, 85.0)],
            contact=[(0.0, 0.8), (25.0, 1.2), (80.0, 0.4)],
        )
        kernel = analysis_kernel(params)
        report = classify(params, kernel)
        assert report.r0 <= report.rc
        assert np.sign(report.growth_rate) == np.sign(report.r0 - 1.0)
