import collections
import gc

import numpy as np
import pytest

from epiage import _sweep, thresholds
from epiage import (
    AgeProfile,
    ConstantRates,
    DomainError,
    NumericsError,
    ParameterError,
    ParameterSet,
    QuadratureGrid,
    ToleranceError,
    analysis_kernel,
    classify,
    dominant_growth_rate,
    euler_lotka,
    r0,
    rc,
)
from epiage.grids import cell_stages
from epiage.parameters import as_parameter_set
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
        # the refinement converges at first order and stalls; up to the knot,
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

    @pytest.mark.parametrize("lam", [-74.0, -1e6, -1e8, -1e10, -1e100, -1e300, -1.7e308])
    def test_overflow_sentinel_for_every_lower_lam(self, rates_bistable, kernel_bistable, lam):
        # G is nonincreasing and overflows from about lam = -74 on; the
        # sweep's sources are inf * 0 = nan there from lam = -1e8, which
        # must not read as a zero source
        assert euler_lotka(lam, rates_bistable, kernel_bistable) == np.inf

    @pytest.mark.parametrize("lam", [1e10, 1e12, 1e20, 1e300])
    def test_value_above_its_bound_raises(self, rates_bistable, kernel_bistable, lam):
        # G <= max beta / (lam + min(phi + gamma)); the sweep gives 0.99993
        # against 6e-19 at lam = 1e20, and 5.3e-6 too much at 1e10
        with pytest.raises(NumericsError, match="exceeds its bound"):
            euler_lotka(lam, rates_bistable, kernel_bistable)

    @pytest.mark.parametrize("lam", [1e306, 1e307, 1.7e308])
    def test_overflowing_exponent_raises(self, rates_bistable, kernel_bistable, lam):
        # lam times the oldest age overflows the sweep's decay exponent,
        # where G is about 6e-305 at most: not the +inf of a lower lam
        with pytest.raises(NumericsError, match="overflows"):
            euler_lotka(lam, rates_bistable, kernel_bistable)

    @pytest.mark.parametrize(
        "agedep, lam",
        [(False, lam) for lam in (0.0, 1.0, 1e3, 1e6, 1e8)]
        + [(True, lam) for lam in (0.0, 1.0, 1e3, 1e6)],
    )
    def test_value_within_its_bound(self, rates_bistable, kernel_bistable, agedep, lam):
        params = ParameterSet(**AGE_DEPENDENT_RATES) if agedep else rates_bistable
        kernel = analysis_kernel(params) if agedep else kernel_bistable
        params = as_parameter_set(params)
        bound = params.beta.max_value() / (lam + params.exit_pressure().min_value())
        assert 0.0 < euler_lotka(lam, params, kernel) <= bound

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    def test_non_finite_lam_rejected_before_any_sweep(
        self, rates_bistable, kernel_bistable, monkeypatch, lam
    ):
        # G tends to 0 as lam grows and has no value at nan: +inf is no answer
        count = level0_sweeps(monkeypatch, kernel_bistable)
        with pytest.raises(DomainError):
            euler_lotka(lam, rates_bistable, kernel_bistable)
        assert count() == 0


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
        params = ParameterSet(
            mu=0.0125,
            beta=[(0.0, 5.0), (20.0, 60.0), (50.0, 10.0)],
            phi=60.0,
            gamma=13.0,
            rho=76.65,
        )
        kernel = analysis_kernel(params)
        with pytest.raises(ToleranceError) as err:
            r0(params, kernel, rtol=1e-15)
        # the estimate is still in the right ballpark
        assert 0.1 < err.value.best < 2.0

    def test_growth_rate_where_the_exit_pressure_jumps(self):
        """The exit pressure drops from 17 to 0 over ages 53.5-54: the layer
        behind the knot needs its blocks split there, which halving every
        panel six times never matched at rtol 1e-9."""
        params = ParameterSet(
            mu=[(0, 0.064453125)], beta=[(0, 56)], phi=[(53.5, 17), (54, 0)],
            gamma=[(0, 0)], rho=[(0, 0)], contact=[(0, 0.0625), (25, 3)],
        )
        report = classify(params, analysis_kernel(params))
        assert report.growth_rate == pytest.approx(40.4449, rel=1e-5)

    def test_growth_equation_past_a_steep_knot_pair(self):
        """phi rises from 0 to 52 over ages 58-59: halving every panel six
        times left G at classify's root changing by 1.0e-10, just above
        rtol 1e-10."""
        params = ParameterSet(
            mu=[(0, 0.03125)], beta=[(0, 3)], phi=[(58, 0), (59, 52)],
            gamma=[(0, 0)], rho=[(0, 0)],
        )
        kernel = analysis_kernel(params)
        lam = classify(params, kernel).growth_rate
        assert lam == pytest.approx(2.4986724, rel=1e-7)
        assert euler_lotka(lam, params, kernel, rtol=1e-10) == pytest.approx(1.0, abs=1e-8)


def level0_sweeps(monkeypatch, kernel):
    """Sweeps counted in units of one sweep on ``kernel``'s grid."""
    sweep = _sweep.exp_sweep
    nodes = []

    def counted(ages, psi, *args):
        nodes.append(psi.size)
        return sweep(ages, psi, *args)

    monkeypatch.setattr(_sweep, "exp_sweep", counted)
    return lambda: sum(nodes) / kernel.ages.size


class TestBadTolerance:
    """A NaN, infinite or nonpositive tolerance is rejected before any
    sweep, not after the root or refinement steps run out."""

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-8])
    @pytest.mark.parametrize("solver", [classify, dominant_growth_rate])
    def test_tol(self, rates_bistable, kernel_bistable, monkeypatch, solver, tol):
        count = level0_sweeps(monkeypatch, kernel_bistable)
        with pytest.raises(ParameterError):
            solver(rates_bistable, kernel_bistable, tol=tol)
        assert count() == 0

    @pytest.mark.parametrize("tol", [1e-12, 1e-13])
    @pytest.mark.parametrize("solver", [classify, dominant_growth_rate])
    @pytest.mark.parametrize("regime", ["bistable", "endemic"])
    def test_tol_at_the_quadrature_floor(self, request, monkeypatch, solver, regime, tol):
        """G is adapted to no finer than 1e-12, which would leave a root
        within tol no residual to meet: such a tol names the floor."""
        rates = request.getfixturevalue(f"rates_{regime}")
        kernel = request.getfixturevalue(f"kernel_{regime}")
        count = level0_sweeps(monkeypatch, kernel)
        with pytest.raises(ParameterError, match="1e-12"):
            solver(rates, kernel, tol=tol)
        assert count() == 0

    @pytest.mark.parametrize("rtol", [np.nan, np.inf, 0.0, -1e-8])
    @pytest.mark.parametrize(
        "value", [r0, rc, lambda *args, **kw: euler_lotka(0.5, *args, **kw)]
    )
    def test_rtol(self, rates_bistable, kernel_bistable, monkeypatch, value, rtol):
        count = level0_sweeps(monkeypatch, kernel_bistable)
        with pytest.raises(ParameterError):
            value(rates_bistable, kernel_bistable, rtol=rtol)
        assert count() == 0


class TestClassify:
    @pytest.mark.parametrize("regime", ["bistable", "endemic"])
    def test_constant_rate_sweeps(self, regime, request, monkeypatch):
        # every value starts one level below the kernel's grid, on half
        # its nodes: R0 there and on the kernel's grid (1.5 units), the far
        # bracket end and the false-position step (1, and 0.5 for one more
        # step on the bistable set), the root on the kernel's grid (1):
        # 3.5-4 in all
        rates = request.getfixturevalue(f"rates_{regime}")
        kernel = request.getfixturevalue(f"kernel_{regime}")
        sweeps = level0_sweeps(monkeypatch, kernel)
        classify(rates, kernel)
        assert sweeps() <= 5

    def test_age_dependent_sweeps(self, monkeypatch):
        # the agedep preset at the tolerance run_config passes on, from one
        # level below the kernel's grid: 41.5 units measured, with 25% to
        # spare; most are G adapted at the root
        params = ParameterSet(**AGE_DEPENDENT_RATES)
        kernel = analysis_kernel(params)
        sweeps = level0_sweeps(monkeypatch, kernel)
        report = classify(params, kernel, tol=1e-9)
        assert sweeps() <= 52
        assert abs(euler_lotka(report.growth_rate, params, kernel, rtol=1e-11) - 1.0) <= 1e-9

    def test_age_dependent_against_the_reference(self):
        # the agedep preset at the tolerance run_config passes on, against
        # bench/agedep_reference.json: scipy Radau (rtol 1e-10, atol 1e-15)
        # split at the rate knots
        params = ParameterSet(**AGE_DEPENDENT_RATES)
        report = classify(params, analysis_kernel(params), tol=1e-9)
        assert report.r0 == pytest.approx(0.8562044282210285, rel=1e-8)
        assert report.rc == pytest.approx(1683.5097403941454, rel=1e-8)
        # |G - 1| <= 1e-9 moves the root by 1e-9 / |dG/dlam| at most
        assert abs(report.growth_rate - -8.353533056032532) <= 1e-9 / 0.02012188892730471

    @pytest.mark.parametrize("regime", ["bistable", "endemic"])
    def test_first_pass_keeps_the_kernel_grid_bits(self, regime, request):
        # smooth rates converge on the first pass, which compares the grid
        # one level below the kernel's with the kernel's own and returns
        # the kernel-grid quadrature of density * W at lam = 0
        params = as_parameter_set(request.getfixturevalue(f"rates_{regime}"))
        kernel = request.getfixturevalue(f"kernel_{regime}")
        ages = kernel.ages
        exit_pressure = params.exit_pressure()
        w = _sweep.exp_sweep(
            ages, exit_pressure.cumulative(ages), params.beta(cell_stages(ages)), exit_pressure(ages)
        )
        assert r0(params, kernel) == float(kernel.integrate(kernel.density * w))

    def test_builds_every_grid_once(self, preset_kernel, monkeypatch):
        # each grid's refinement is kept on it, and the kernel's grid is
        # the level its coarsening refines to
        params, kernel = preset_kernel
        build = QuadratureGrid._blocks.__func__
        built = collections.Counter()

        def counted(cls, edges, n_panels):
            grid = build(cls, edges, n_panels)
            built[n_panels, grid.edges.tobytes()] += 1
            return grid

        monkeypatch.setattr(QuadratureGrid, "_blocks", classmethod(counted))
        classify(params, kernel, tol=1e-9)
        assert built and max(built.values()) == 1

    def test_leaves_no_cyclic_garbage(self, preset_kernel):
        params, kernel = preset_kernel
        gc.collect()
        gc.disable()
        try:
            classify(params, kernel, tol=1e-9)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_leaves_no_level_with_relapse_samples(self, preset_kernel, monkeypatch):
        # R0, RC and the growth rate sweep at B = 0, where the steady
        # sweep's source is beta alone: rho is never sampled
        params, kernel = preset_kernel
        below = thresholds._LotkaData.below.__func__
        made = []

        def kept(cls, params, kernel):
            made.append(below(cls, params, kernel))
            return made[-1]

        monkeypatch.setattr(thresholds._LotkaData, "below", classmethod(kept))
        classify(params, kernel, tol=1e-9)
        (data,) = made
        levels = [data, *data._levels.values()]
        assert len(levels) > 1
        assert not any("_relapse" in vars(level) for level in levels)

    def test_three_regions(self, rates_extinction, rates_bistable, rates_endemic,
                           kernel_extinction, kernel_bistable, kernel_endemic):
        assert classify(rates_extinction, kernel_extinction).region == "extinction"
        assert classify(rates_bistable, kernel_bistable).region == "bistable-candidate"
        assert classify(rates_endemic, kernel_endemic).region == "endemic"

    def test_one_refinement_chain(self, rates_bistable, kernel_bistable, monkeypatch):
        # classify gives the public functions' values bit for bit, and its
        # three quantities share the kernels of the grids they refine on
        build = thresholds._kernel_on
        calls = []

        def counted(params, grid):
            calls.append(grid.nodes.size)
            return build(params, grid)

        monkeypatch.setattr(thresholds, "_kernel_on", counted)
        alone, depths = [], []
        for compute in (r0, rc, dominant_growth_rate):
            calls.clear()
            alone.append(compute(rates_bistable, kernel_bistable))
            depths.append(len(calls))
        calls.clear()
        report = classify(rates_bistable, kernel_bistable)
        assert (report.r0, report.rc, report.growth_rate) == tuple(alone)
        assert min(depths) > 0
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
