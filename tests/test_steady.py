import gc

import numpy as np
import pytest

from epiage import (
    ConstantRates,
    amplification,
    amplification_exact,
    analysis_kernel,
    closed_form_profiles,
    find_fixed_points,
    fixed_points_exact,
    induced_pressure,
    infected_profile,
    r0,
    recovered_profile,
    susceptible_profile,
    truncation_age,
)
from epiage import _sweep, grids, steady, thresholds
from epiage.errors import DomainError, ParameterError, ToleranceError
from epiage.parameters import as_parameter_set


def drinking_rates(beta):
    return ConstantRates(mu=0.0125, beta=beta, phi=60.0, gamma=13.0, rho=76.65)


def count_sweeps(monkeypatch):
    """List that gains one entry per ``exp_sweep`` call of the steady solver."""
    calls = []
    sweep = _sweep.exp_sweep

    def counted(*args, **kwargs):
        calls.append(None)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(steady._sweep, "exp_sweep", counted)
    return calls


class TestProfiles:
    def test_susceptible_no_pressure(self, rates_bistable):
        ages = np.linspace(0, 50, 11)
        assert np.all(susceptible_profile(0.0, rates_bistable, ages) == 1.0)

    def test_susceptible_constant_rate_closed_form(self, rates_bistable):
        # exp(-B beta a) at B = 0.1, a = 1
        value = susceptible_profile(0.1, rates_bistable, np.array([0.0, 1.0]))
        assert value[0] == 1.0
        assert value[1] == pytest.approx(np.exp(-6.0), rel=1e-14)

    def test_recovered_vanishes_without_pressure(self, rates_bistable):
        ages = np.linspace(0, 50, 11)
        assert np.all(recovered_profile(0.0, rates_bistable, ages) == 0.0)

    def test_profiles_match_closed_forms(self, rates_bistable):
        ages = np.linspace(0.0, 50.0, 201)
        s_c, i_c, r_c = closed_form_profiles(0.1, rates_bistable, ages)
        assert np.abs(recovered_profile(0.1, rates_bistable, ages) - r_c).max() < 1e-8
        assert np.abs(infected_profile(0.1, rates_bistable, ages) - i_c).max() < 1e-8

    def test_recovered_bounded_by_complement(self, rates_bistable, rng):
        ages = np.linspace(0.0, 80.0, 161)
        for B in rng.uniform(0.01, 0.9, 5):
            s = susceptible_profile(B, rates_bistable, ages)
            r = recovered_profile(B, rates_bistable, ages)
            assert np.all(r >= 0.0)
            assert np.all(r <= 1.0 - s + 1e-12)

    def test_negative_pressure_rejected(self, rates_bistable):
        with pytest.raises(DomainError):
            susceptible_profile(-0.1, rates_bistable, np.array([0.0, 1.0]))
        with pytest.raises(DomainError):
            recovered_profile(-0.1, rates_bistable, np.array([0.0, 1.0]))

    def test_susceptible_rejects_a_nan_age(self, rates_bistable):
        with pytest.raises(DomainError, match="age must be >= 0"):
            susceptible_profile(0.1, rates_bistable, [0.0, np.nan])

    def test_ages_must_start_at_zero(self, rates_bistable):
        with pytest.raises(DomainError):
            recovered_profile(0.1, rates_bistable, np.array([1.0, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_ages_must_be_finite_and_nonnegative(self, rates_bistable, bad):
        for helper in (infected_profile, recovered_profile):
            with pytest.raises(DomainError):
                helper(0.1, rates_bistable, np.array([0.0, bad, 2.0]))

    def test_unsorted_ages(self, rates_bistable):
        """Each requested age is a node of the sweep, in whatever order."""
        ages = np.array([0.0, 2.0, 1.0])
        _, i_c, r_c = closed_form_profiles(0.1, rates_bistable, ages)
        assert np.abs(infected_profile(0.1, rates_bistable, ages) - i_c).max() < 1e-10
        assert np.abs(recovered_profile(0.1, rates_bistable, ages) - r_c).max() < 1e-10

    def test_repeated_ages(self, rates_bistable):
        ages = np.array([0.0, 3.0, 3.0, 0.0, 1.5])
        _, i_c, r_c = closed_form_profiles(0.2, rates_bistable, ages)
        assert np.abs(infected_profile(0.2, rates_bistable, ages) - i_c).max() < 1e-10
        assert np.abs(recovered_profile(0.2, rates_bistable, ages) - r_c).max() < 1e-10

    def test_boundary_age_alone(self, rates_bistable):
        for helper in (infected_profile, recovered_profile):
            np.testing.assert_array_equal(helper(0.1, rates_bistable, [0.0]), [0.0])

    def test_no_exit_by_death(self, rates_bistable):
        """mu = 0 has no stationary mixing density, but the profiles need
        none: mu does not enter them."""
        from epiage import ParameterSet

        params = ParameterSet(mu=0.0, beta=60.0, phi=60.0, gamma=13.0, rho=76.65)
        ages = np.linspace(0.0, 20.0, 21)
        _, i_c, r_c = closed_form_profiles(0.1, rates_bistable, ages)
        assert np.abs(infected_profile(0.1, params, ages) - i_c).max() < 1e-10
        assert np.abs(recovered_profile(0.1, params, ages) - r_c).max() < 1e-10

    def test_refinement_cap_carries_best_estimate(self, rates_bistable, monkeypatch):
        ages = np.linspace(0.0, 50.0, 11)
        monkeypatch.setattr(grids, "_MAX_NODES", 0)
        with pytest.raises(ToleranceError) as err:
            infected_profile(0.1, rates_bistable, ages)
        _, i_c, _ = closed_form_profiles(0.1, rates_bistable, ages)
        assert np.abs(err.value.best - i_c).max() < 1e-8

    @pytest.mark.parametrize("B", [np.nan, np.inf])
    def test_pressure_must_be_finite(self, rates_bistable, kernel_bistable, B):
        ages = np.array([0.0, 1.0])
        for helper in (susceptible_profile, infected_profile, recovered_profile):
            with pytest.raises(DomainError):
                helper(B, rates_bistable, ages)
        for pressure_map in (amplification, induced_pressure):
            with pytest.raises(DomainError):
                pressure_map(B, rates_bistable, kernel_bistable)


class TestAgeDependentOracle:
    def test_recovered_profile_matches_stiff_integrator(self):
        from scipy.integrate import solve_ivp

        from epiage import ParameterSet

        params = ParameterSet(
            mu=0.0125,
            beta=[(0.0, 5.0), (15.0, 75.0), (35.0, 70.0), (60.0, 15.0), (100.0, 5.0)],
            phi=[(0.0, 35.0), (30.0, 50.0), (60.0, 45.0), (100.0, 35.0)],
            gamma=13.0,
            rho=[(0.0, 20.0), (25.0, 65.0), (40.0, 85.0), (60.0, 80.0), (100.0, 40.0)],
        )
        B = 0.05
        exit_pressure = params.exit_pressure()

        def rhs(a, y):
            s = np.exp(-B * params.beta.cumulative(a))
            return exit_pressure(a) * (1.0 - s - y[0]) - B * params.rho(a) * y[0]

        ages = np.linspace(0.0, 100.0, 51)
        oracle = solve_ivp(
            rhs,
            (0.0, 100.0),
            [0.0],
            t_eval=ages,
            method="LSODA",
            rtol=1e-11,
            atol=1e-13,
            max_step=1.0,
        )
        mine = recovered_profile(B, params, ages)
        assert np.abs(oracle.y[0] - mine).max() < 1e-9

    def test_rate_knots_inside_the_requested_cells(self):
        """Knots at 33, 43, 61 and 67 fall inside cells of the requested
        ages; they are nodes of the sweep all the same."""
        from scipy.integrate import solve_ivp

        from epiage import ParameterSet

        params = ParameterSet(
            mu=0.0125,
            beta=[(0.0, 5.0), (15.0, 75.0), (35.0, 70.0), (60.0, 15.0), (100.0, 5.0)],
            phi=[(0.0, 35.0), (33.0, 50.0), (61.0, 45.0), (100.0, 35.0)],
            gamma=13.0,
            rho=[(0.0, 20.0), (25.0, 65.0), (43.0, 85.0), (67.0, 80.0), (100.0, 40.0)],
        )
        B = 1e-4
        exit_pressure = params.exit_pressure()

        def rhs(a, y):
            s = np.exp(-B * params.beta.cumulative(a))
            return exit_pressure(a) * (1.0 - s - y[0]) - B * params.rho(a) * y[0]

        ages = np.linspace(0.0, 100.0, 11)
        oracle = solve_ivp(
            rhs,
            (0.0, 100.0),
            [0.0],
            t_eval=ages,
            method="LSODA",
            rtol=1e-12,
            atol=1e-15,
            max_step=0.05,
        )
        mine = recovered_profile(B, params, ages)
        assert np.abs(oracle.y[0] - mine).max() < 1e-9


class TestPressureMap:
    def test_no_pressure_induces_none(self, rates_bistable, kernel_bistable):
        assert induced_pressure(0.0, rates_bistable, kernel_bistable) == 0.0

    def test_saturation_below_one(self, rates_bistable, kernel_bistable):
        value = induced_pressure(1.0, rates_bistable, kernel_bistable)
        assert 0.0 < value < 1.0

    def test_pressure_in_unit_interval_everywhere(self, rates_bistable, kernel_bistable):
        for B in np.geomspace(1e-6, 1.0, 9):
            value = induced_pressure(B, rates_bistable, kernel_bistable)
            assert 0.0 <= value < 1.0

    def test_matches_rational_form(self, rates_bistable, kernel_bistable):
        value = induced_pressure(0.1, rates_bistable, kernel_bistable)
        assert value == pytest.approx(0.1 * 0.94965, abs=1e-6)

    def test_amplification_limit_is_r0(self, preset_kernel):
        # at B = 0 the steady sweep is R0's sweep of W, with the same source
        # beta, so the two quadratures on the kernel's grid agree bit for bit
        params, kernel = preset_kernel
        limit = amplification(0.0, params, kernel)
        assert limit == thresholds._LotkaData(params, kernel).g_value(0.0)
        # R0 adapts its grid; on agedep's kernel grid G(0) is 5e-8 off it
        assert limit == pytest.approx(r0(params, kernel), rel=1e-7)

    def test_amplification_is_continuous_at_small_pressure(self):
        # the lower branch of a backward bifurcation leaves B = 0 as R0
        # nears 1, so the excess must hold its digits below 1e-5 too
        rates = drinking_rates(60.0)
        kernel = analysis_kernel(rates, age_max=truncation_age(as_parameter_set(rates), 1e-12))
        for B in np.geomspace(1e-9, 1e-5, 17):
            assert amplification(B, rates, kernel) == pytest.approx(
                amplification_exact(B, rates), abs=1e-10
            )

    def test_amplification_at_one_below_one(self, rates_bistable, kernel_bistable):
        assert amplification(1.0, rates_bistable, kernel_bistable) < 1.0

    def test_general_matches_rational_on_random_draws(self, rng):
        for _ in range(20):
            rates = ConstantRates(
                mu=rng.uniform(0.1, 0.8),
                beta=rng.uniform(0.3, 8.0),
                phi=rng.uniform(0.3, 4.0),
                gamma=rng.uniform(0.3, 4.0),
                rho=rng.uniform(0.3, 8.0),
            )
            kernel = analysis_kernel(rates, age_max=truncation_age(as_parameter_set(rates), 1e-12))
            B = rng.uniform(0.01, 0.99)
            general = amplification(B, rates, kernel)
            rational = amplification_exact(B, rates)
            assert general == pytest.approx(rational, abs=1e-8)


class TestFindFixedPoints:
    def test_extinction_set_has_no_roots(self, rates_extinction, kernel_extinction):
        assert find_fixed_points(rates_extinction, kernel_extinction) == []

    def test_bistable_set_has_two_roots(self, rates_bistable, kernel_bistable):
        states = find_fixed_points(rates_bistable, kernel_bistable)
        oracle = fixed_points_exact(rates_bistable)
        assert len(states) == 2
        for state, expected in zip(states, oracle):
            assert state.b_star == pytest.approx(expected, abs=1e-8)
            assert state.residual <= 1e-10

    def test_endemic_set_has_one_root(self, rates_endemic, kernel_endemic):
        states = find_fixed_points(rates_endemic, kernel_endemic)
        assert len(states) == 1
        assert states[0].b_star == pytest.approx(
            fixed_points_exact(rates_endemic)[0], abs=1e-8
        )

    def test_leaves_no_cyclic_garbage(self, preset_kernel):
        params, kernel = preset_kernel
        gc.collect()
        gc.disable()
        try:
            find_fixed_points(params, kernel)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_root_below_one_micro(self):
        # R0 = 0.99983: the lower root sits at 5.9e-7, below the old first
        # probe at 1e-6, and |excess(1e-9)| < delta, so the floor skips none
        rates = drinking_rates(73.0)
        kernel = analysis_kernel(rates)
        first = induced_pressure(1e-9, rates, kernel) / 1e-9 - 1.0
        assert abs(first) < steady._BOUND_MARGIN
        states = find_fixed_points(rates, kernel)
        oracle = fixed_points_exact(rates)
        assert oracle == pytest.approx([5.9057e-7, 0.0472841], rel=1e-4)
        assert [state.b_star for state in states] == pytest.approx(oracle, abs=1e-8)

    def test_root_on_a_long_age_domain(self):
        # mu = 2^-9 makes the age domain about 7000 years long; with the
        # excess as r-based pressure over B the search stalled near 1e-5
        rates = ConstantRates(mu=0.001953125, beta=42.0, phi=0.0, gamma=35.0, rho=1.0)
        states = find_fixed_points(rates, analysis_kernel(rates))
        assert fixed_points_exact(rates) == pytest.approx([9.570905e-6], rel=1e-6)
        assert len(states) == 1
        assert states[0].b_star == pytest.approx(9.570905e-6, rel=1e-5)

    def test_root_pair_inside_one_probe_interval(self):
        rates = drinking_rates(16.8037)
        kernel = analysis_kernel(rates)
        # the roots are 0.27% apart, so the coarse scan sees no sign change
        # around them; only the refinement at the excess maximum finds them
        tol = 1e-10
        states = find_fixed_points(rates, kernel, tol=tol)
        assert len(states) == 2
        for state in states:
            assert abs(amplification(state.b_star, rates, kernel) - 1.0) <= tol
        assert states[0].b_star == pytest.approx(0.0233244, abs=1e-7)
        assert states[1].b_star == pytest.approx(0.0233877, abs=1e-7)

    def test_profile_sweeps_per_solve(self, rates_bistable, kernel_bistable, monkeypatch):
        calls = count_sweeps(monkeypatch)
        assert len(find_fixed_points(rates_bistable, kernel_bistable)) == 2
        assert len(calls) <= 150

    def test_scan_stops_past_the_pressure_bound(self, rates_bistable, kernel_bistable, monkeypatch):
        # max(beta, rho) = 76.65 against phi + gamma = 73: no endemic state
        # above B_cut = 1/0.99 - 73/76.65 = 0.058, so the probes beyond the
        # second one past it go; the full 48-probe scan takes 58 sweeps
        calls = count_sweeps(monkeypatch)
        states = find_fixed_points(rates_bistable, kernel_bistable)
        assert [state.b_star for state in states] == pytest.approx(
            fixed_points_exact(rates_bistable), abs=1e-8
        )
        assert len(calls) < 58

    def test_scan_starts_past_the_floor_bound(self, rates_bistable, kernel_bistable, monkeypatch):
        # R0 = 0.82, so by the linear-response bound the excess stays below
        # -delta up to B = 3.3e-5; the probes below that go, but for the
        # last two, and the scan from 1e-9 up to B_cut takes 53 sweeps
        calls = count_sweeps(monkeypatch)
        states = find_fixed_points(rates_bistable, kernel_bistable)
        assert [state.b_star for state in states] == pytest.approx(
            fixed_points_exact(rates_bistable), abs=1e-8
        )
        assert len(calls) <= 35

    def test_floor_bound_settles_the_extinction_rates(
        self, rates_extinction, kernel_extinction, monkeypatch
    ):
        # R0 = 1.5e-4: the bound keeps the excess below -delta beyond the
        # last probe, so the first probe and the last two settle it; the
        # scan from 1e-9 up to B_cut takes 43 sweeps
        calls = count_sweeps(monkeypatch)
        assert find_fixed_points(rates_extinction, kernel_extinction) == []
        assert len(calls) <= 3

    def test_no_scan_where_the_bound_rules_out_every_state(self, monkeypatch):
        # max(beta, rho) = 50 <= 0.99 (phi + gamma): amplification < 1 at
        # every B, so two probes settle it; the full scan takes 64 sweeps
        rates = ConstantRates(mu=0.0125, beta=40.0, phi=60.0, gamma=13.0, rho=50.0)
        kernel = analysis_kernel(rates)
        calls = count_sweeps(monkeypatch)
        assert find_fixed_points(rates, kernel) == []
        assert len(calls) <= 2

    def test_no_transmission_and_no_relapse(self, monkeypatch):
        rates = ConstantRates(mu=0.0125, beta=0.0, phi=60.0, gamma=13.0, rho=0.0)
        kernel = analysis_kernel(rates)
        calls = count_sweeps(monkeypatch)
        assert find_fixed_points(rates, kernel) == []
        assert len(calls) <= 2

    def test_bisection_where_relapse_stays_within_transmission(
        self, rates_endemic, kernel_endemic, monkeypatch
    ):
        # beta 120 > rho 76.65: the excess falls with B, so bisecting the
        # 47 probe indices brackets the one root; the scan takes 29 sweeps
        calls = count_sweeps(monkeypatch)
        states = find_fixed_points(rates_endemic, kernel_endemic)
        assert [state.b_star for state in states] == pytest.approx(
            fixed_points_exact(rates_endemic), abs=1e-8
        )
        assert len(calls) <= 12

    @pytest.mark.parametrize(
        "rates",
        [
            # beta = rho takes the bisection too: the check allows equality
            drinking_rates(76.65),
            drinking_rates(90.0),
            drinking_rates(120.0),
            drinking_rates(200.0),
            # phi + gamma = 0 puts B_cut above 1, and the root between the
            # last two probes: the bisection evaluates the last one itself
            ConstantRates(mu=0.0125, beta=50.0, phi=0.0, gamma=0.0, rho=10.0),
        ],
    )
    def test_bisection_gives_the_bits_of_the_scan(self, rates, monkeypatch):
        kernel = analysis_kernel(rates)
        assert steady._relapse_within_transmission(rates.to_parameter_set())
        bisected = find_fixed_points(rates, kernel)
        monkeypatch.setattr(steady, "_relapse_within_transmission", lambda params: False)
        scanned = find_fixed_points(rates, kernel)
        assert len(bisected) == len(scanned) <= 1
        for got, want in zip(bisected, scanned):
            assert (got.b_star, got.residual) == (want.b_star, want.residual)
            for field in ("s", "i", "r"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes()

    def test_relapse_above_transmission_between_knots_keeps_the_scan(self, monkeypatch):
        # rho <= beta at beta's knots, but at rho's knot 50 relapse is 101
        # against beta(50) = 100: the excess may turn, so every probe counts
        from epiage import ParameterSet

        params = ParameterSet(
            mu=0.0125, beta=[(0.0, 80.0), (100.0, 120.0)], phi=60.0, gamma=13.0,
            rho=[(0.0, 70.0), (50.0, 101.0)],
        )
        assert np.all(params.rho(params.beta.ages) <= params.beta(params.beta.ages))
        assert not steady._relapse_within_transmission(params)

        def no_bisection(*args):
            raise AssertionError("bisected a set whose relapse exceeds transmission")

        monkeypatch.setattr(steady, "_bisect", no_bisection)
        find_fixed_points(params, analysis_kernel(params))

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0])
    def test_bad_tolerance_rejected_before_any_sweep(
        self, rates_bistable, kernel_bistable, monkeypatch, tol
    ):
        calls = count_sweeps(monkeypatch)
        with pytest.raises(ParameterError):
            find_fixed_points(rates_bistable, kernel_bistable, tol=tol)
        assert calls == []

    def test_steady_state_invariants(self, rates_bistable, kernel_bistable):
        for state in find_fixed_points(rates_bistable, kernel_bistable):
            total = state.s + state.i + state.r
            assert np.abs(total - 1.0).max() < 1e-10
            assert state.s[0] == 1.0 and state.i[0] == 0.0 and state.r[0] == 0.0
            for field in (state.s, state.i, state.r):
                assert np.all(field >= -1e-12) and np.all(field <= 1.0 + 1e-12)


class TestResimulation:
    def test_stable_root_holds_under_resimulation(self, rates_bistable, kernel_bistable):
        from epiage import GridSpec, simulate, stable_timestep

        state = find_fixed_points(rates_bistable, kernel_bistable)[1]
        age_max, da, horizon = 300.0, 0.025, 5.0
        n_age = round(age_max / da)
        gate = stable_timestep(rates_bistable, GridSpec(age_max, horizon, n_age, 10 ** 6))
        grid = GridSpec(
            age_max, horizon, n_age, int(np.ceil(horizon / (0.9 * gate.dt_max)))
        )
        nodes = grid.age_nodes()
        i0 = np.interp(nodes, state.ages, state.i)
        r0_row = np.interp(nodes, state.ages, state.r)
        i0[0] = r0_row[0] = 0.0
        trajectory = simulate(
            rates_bistable, (1.0 - i0 - r0_row, i0, r0_row), grid
        )
        deviation = np.abs(trajectory.b_series - state.b_star) / state.b_star
        assert deviation.max() < 0.01

    def test_unstable_root_departs_monotonically(self, rates_bistable, kernel_bistable):
        from epiage import GridSpec, simulate, stable_timestep

        state = find_fixed_points(rates_bistable, kernel_bistable)[0]
        age_max, da, horizon = 300.0, 0.025, 5.0
        n_age = round(age_max / da)
        gate = stable_timestep(rates_bistable, GridSpec(age_max, horizon, n_age, 10 ** 6))
        grid = GridSpec(
            age_max, horizon, n_age, int(np.ceil(horizon / (0.9 * gate.dt_max)))
        )
        nodes = grid.age_nodes()
        i0 = np.interp(nodes, state.ages, state.i)
        r0_row = np.interp(nodes, state.ages, state.r)
        i0[0] = r0_row[0] = 0.0
        trajectory = simulate(
            rates_bistable, (1.0 - i0 - r0_row, i0, r0_row), grid
        )
        deviation = np.abs(trajectory.b_series - state.b_star)
        # leaves the 1% band and keeps going
        assert deviation[-1] > 0.01 * state.b_star
        tail = deviation[-200:]
        assert np.all(np.diff(tail) >= -1e-12)
