import numpy as np
import pytest
from scipy.integrate import quad

from epiage import (
    ConstantRates,
    GridSpec,
    ParameterError,
    ShapeError,
    TimeStepError,
    closed_form_profiles,
    cosine_bump,
    fixed_points_exact,
    AgeProfile,
    simulate,
    stable_timestep,
    stationary_mixing,
    survival,
)
from epiage import transport


def stable_grid(params, age_max, time_max, da, safety=0.9):
    n_age = round(age_max / da)
    gate = stable_timestep(params, GridSpec(age_max, time_max, n_age, 10 ** 6))
    n_time = int(np.ceil(time_max / (safety * gate.dt_max)))
    return GridSpec(age_max, time_max, n_age, n_time)


class TestStableTimestep:
    def test_reference_rates_bound(self, rates_bistable):
        # 1 / (1/da + max(phi+gamma+rho)) with da = 0.5
        grid = GridSpec(100.0, 10.0, 200, 25)  # dt = 0.4, far too large
        report = stable_timestep(rates_bistable, grid)
        assert not report.ok
        assert report.dt_max == pytest.approx(1.0 / (2.0 + 149.65), rel=1e-12)

    def test_pure_advection_under_cfl(self):
        quiet = ConstantRates(mu=1e-12, beta=0.0, phi=0.0, gamma=1e-12, rho=0.0)
        grid = GridSpec(10.0, 9.0, 20, 20)  # dt = 0.45 = 0.9 da
        assert stable_timestep(quiet, grid).ok

    def test_equal_steps_rejected(self):
        quiet = ConstantRates(mu=1e-12, beta=0.0, phi=0.0, gamma=1e-12, rho=0.0)
        grid = GridSpec(10.0, 10.0, 20, 20)  # dt = da
        report = stable_timestep(quiet, grid)
        assert not report.ok
        assert any("dt" in reason for reason in report.reasons)


def first_step(params, initial, grid):
    """Pressure at t = 0 and the row after one step of a ``store=1`` run."""
    traj = simulate(params, initial, grid, store=1)
    return traj.b_series[0], (traj.field.s[1], traj.field.i[1], traj.field.r[1])


class TestForceOfInfection:
    def test_no_infection(self, rates_bistable):
        grid = GridSpec(100.0, 1.0, 200, 300)
        nodes = grid.age_nodes()
        zero = np.zeros_like(nodes)
        B, _ = first_step(rates_bistable, (np.ones_like(nodes), zero, zero), grid)
        assert B == 0.0

    def test_full_infection_saturates(self, rates_bistable):
        # everyone past the inflow node infected: B misses only that node's weight
        grid = GridSpec(100.0, 1.0, 200, 300)
        nodes = grid.age_nodes()
        i0 = np.ones_like(nodes)
        i0[0] = 0.0
        B, _ = first_step(rates_bistable, (1.0 - i0, i0, np.zeros_like(nodes)), grid)
        kernel = stationary_mixing(rates_bistable, grid)
        missing = kernel.grid.weights[0] * kernel.density[0]
        assert B == pytest.approx(1.0 - missing, abs=1e-12)

    def test_linear_profile_against_adaptive_oracle(self, rates_bistable):
        grid = GridSpec(100.0, 1.0, 200, 300)
        nodes = grid.age_nodes()
        i0 = nodes / 100.0
        value, _ = first_step(rates_bistable, (1.0 - i0, i0, np.zeros_like(nodes)), grid)
        mu = 0.0125
        weight, _ = quad(lambda a: np.exp(-mu * a), 0, 100.0)
        oracle, _ = quad(lambda a: (a / 100.0) * np.exp(-mu * a) / weight, 0, 100.0)
        assert value == pytest.approx(oracle, abs=1e-8)

    def test_shape_mismatch(self, rates_bistable):
        grid = GridSpec(100.0, 1.0, 200, 300)
        nodes = grid.age_nodes()
        zero = np.zeros_like(nodes)
        for initial in (
            (np.ones(5), np.zeros(5), np.zeros(5)),
            (np.ones_like(nodes), np.zeros(nodes.size - 1), zero),
            (np.ones_like(nodes), zero, np.zeros((2, nodes.size))),
        ):
            with pytest.raises(ShapeError):
                simulate(rates_bistable, initial, grid)


class TestStep:
    def test_infection_free_row_is_fixed(self, rates_bistable):
        grid = GridSpec(100.0, 1.0, 200, 1000)
        nodes = grid.age_nodes()
        row = (np.ones_like(nodes), np.zeros_like(nodes), np.zeros_like(nodes))
        B, (s, i, r) = first_step(rates_bistable, row, grid)
        assert B == 0.0
        assert np.all(s == 1.0) and np.all(i == 0.0) and np.all(r == 0.0)

    def test_three_node_grid_hand_computed(self, rates_bistable):
        # da = 1, dt = 0.004; spreadsheet-style evaluation of the update
        grid = GridSpec(2.0, 1.0, 2, 250)
        beta, pg, rho = 60.0, 73.0, 76.65
        dt, da = 0.004, 1.0
        s = np.array([1.0, 0.8, 0.7])
        i = np.array([0.0, 0.15, 0.2])
        r = np.array([0.0, 0.05, 0.1])
        B, (s_new, i_new, r_new) = first_step(rates_bistable, (s, i, r), grid)
        assert 0.0 < B < 1.0
        for k in (1, 2):
            exp_s = s[k] + dt * (-beta * s[k] * B - (s[k] - s[k - 1]) / da)
            exp_i = i[k] + dt * (
                beta * s[k] * B - pg * i[k] + rho * r[k] * B - (i[k] - i[k - 1]) / da
            )
            exp_r = r[k] + dt * (pg * i[k] - rho * r[k] * B - (r[k] - r[k - 1]) / da)
            assert s_new[k] == pytest.approx(exp_s, abs=1e-16)
            assert i_new[k] == pytest.approx(exp_i, abs=1e-16)
            assert r_new[k] == pytest.approx(exp_r, abs=1e-16)
        assert (s_new[0], i_new[0], r_new[0]) == (1.0, 0.0, 0.0)

    def test_stacked_step_has_the_bits_of_each_formula(self, rng):
        """The in-place step on stacked rows against each formula evaluated
        row by row, in the order the module docstring writes it."""
        from epiage.transport import _step

        s, i, r = rng.uniform(0.0, 1.0, (3, 64))
        beta, exit_pressure, rho = rng.uniform(0.0, 80.0, (3, 63))
        B, dt, da = 0.37, 1.0 / 1024.0 + 1e-9, 0.5 + 1e-12
        infection, recovery, relapse = beta * s[1:] * B, exit_pressure * i[1:], rho * r[1:] * B
        expected = [
            s[1:] + dt * (-infection - (s[1:] - s[:-1]) / da),
            i[1:] + dt * (infection - recovery + relapse - (i[1:] - i[:-1]) / da),
            r[1:] + dt * (recovery - relapse - (r[1:] - r[:-1]) / da),
        ]
        new = _step(np.array([s, i, r]), B, dt, da, beta, exit_pressure, rho)
        assert new[:, 0].tolist() == [1.0, 0.0, 0.0]
        assert np.array_equal(new[:, 1:].view(np.uint64), np.array(expected).view(np.uint64))

    def test_reactions_cancel_in_sum(self, rates_bistable):
        grid = GridSpec(10.0, 1.0, 20, 1000)
        nodes = grid.age_nodes()
        rng = np.random.default_rng(3)
        i = 0.3 * rng.uniform(0.0, 1.0, nodes.size)
        r = 0.3 * rng.uniform(0.0, 1.0, nodes.size)
        i[0] = r[0] = 0.0
        s = 1.0 - i - r
        B, (s_new, i_new, r_new) = first_step(rates_bistable, (s, i, r), grid)
        assert B > 0.0
        # sum evolves by pure advection of the (identically 1) sum
        assert np.abs(s_new + i_new + r_new - 1.0).max() < 1e-15


class TestSimulate:
    def test_infection_free_trajectory(self, rates_bistable):
        grid = stable_grid(rates_bistable, 50.0, 1.0, 0.5)
        nodes = grid.age_nodes()
        traj = simulate(
            rates_bistable,
            (np.ones_like(nodes), np.zeros_like(nodes), np.zeros_like(nodes)),
            grid,
        )
        assert np.all(traj.field.i == 0.0)
        assert np.all(traj.field.s == 1.0)
        assert traj.conservation_max == 0.0

    def test_extinction_regime_decays(self, rates_extinction):
        grid = stable_grid(rates_extinction, 100.0, 10.0, 0.5)
        nodes = grid.age_nodes()
        i0 = cosine_bump(nodes, 0.5, 20.0, 5.0)
        traj = simulate(rates_extinction, (1.0 - i0, i0, np.zeros_like(nodes)), grid)
        assert traj.field.i[-1].max() < 1e-4
        assert traj.conservation_max <= 1e-12
        assert traj.minimum_value >= -1e-14

    def test_endemic_regime_converges_to_fixed_point(self, rates_endemic):
        grid = stable_grid(rates_endemic, 200.0, 10.0, 0.05)
        nodes = grid.age_nodes()
        i0 = cosine_bump(nodes, 0.5, 20.0, 5.0)
        traj = simulate(rates_endemic, (1.0 - i0, i0, np.zeros_like(nodes)), grid)
        target = fixed_points_exact(rates_endemic)[0]
        assert abs(traj.b_series[-1] - target) / target < 0.05

    def test_monotone_extinction_after_boundary_transient(self, rates_extinction):
        # domain short enough that every initial characteristic exits
        grid = stable_grid(rates_extinction, 5.0, 12.0, 0.05)
        nodes = grid.age_nodes()
        i0 = cosine_bump(nodes, 0.3, 2.5, 1.5)
        traj = simulate(
            rates_extinction, (1.0 - i0, i0, np.zeros_like(nodes)), grid, store=1
        )
        sup = traj.field.i.max(axis=1)
        transient = int(np.ceil(grid.age_max / grid.dt))
        tail = sup[transient:]
        assert np.all(np.diff(tail) <= 1e-15)

    def test_full_mixing_at_steady_population_matches_stationary(self, rates_bistable):
        grid = stable_grid(rates_bistable, 60.0, 0.5, 0.25)
        nodes = grid.age_nodes()
        i0 = cosine_bump(nodes, 0.4, 20.0, 10.0)
        # the steady population on a fine table; its linear interpolation
        # error sets the gap (2.2e-10 on 241 knots, 2.4e-12 on 2401)
        params = rates_bistable.to_parameter_set()
        ages = np.linspace(0.0, 60.0, 24001)
        n0 = AgeProfile(ages, params.birth_rate * survival(params, ages))
        still = simulate(rates_bistable, (1.0 - i0, i0, np.zeros_like(nodes)), grid)
        moving = simulate(
            rates_bistable, (1.0 - i0, i0, np.zeros_like(nodes)), grid, n0=n0
        )
        assert np.abs(still.b_series - moving.b_series).max() < 1e-12

    def test_initial_data_must_sum_to_one(self, rates_bistable):
        grid = stable_grid(rates_bistable, 50.0, 1.0, 0.5)
        nodes = grid.age_nodes()
        bad = 0.5 * np.ones_like(nodes)
        with pytest.raises(ParameterError):
            simulate(rates_bistable, (bad, bad, bad), grid)

    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_nan_initial_data_rejected(self, rates_bistable, row):
        """A NaN slips past tolerance tests (every comparison is False)."""
        grid = stable_grid(rates_bistable, 50.0, 1.0, 0.5)
        nodes = grid.age_nodes()
        initial = [np.ones_like(nodes), np.zeros_like(nodes), np.zeros_like(nodes)]
        initial[row][3] = np.nan
        with pytest.raises(ParameterError):
            simulate(rates_bistable, tuple(initial), grid)

    def test_unstable_grid_rejected_with_suggestion(self, rates_bistable):
        grid = GridSpec(100.0, 10.0, 200, 25)
        nodes = grid.age_nodes()
        with pytest.raises(TimeStepError) as err:
            simulate(
                rates_bistable,
                (np.ones_like(nodes), np.zeros_like(nodes), np.zeros_like(nodes)),
                grid,
            )
        assert err.value.suggested_dt == pytest.approx(1.0 / (2.0 + 149.65), rel=1e-12)

    def test_b_series_definition_and_bounds(self, rates_bistable):
        grid = stable_grid(rates_bistable, 100.0, 1.0, 0.5)
        nodes = grid.age_nodes()
        i0 = cosine_bump(nodes, 0.6, 40.0, 20.0)
        traj = simulate(
            rates_bistable, (1.0 - i0, i0, np.zeros_like(nodes)), grid, store=1
        )
        kernel = stationary_mixing(rates_bistable, grid)
        assert traj.b_series[0] == pytest.approx(
            kernel.integrate(i0 * kernel.density), abs=1e-15
        )
        assert np.all(traj.b_series >= 0.0)
        assert np.all(traj.b_series <= 1.0 + 1e-12)
        # inflow boundary holds on every stored row
        assert np.all(traj.field.s[:, 0] == 1.0)
        assert np.all(traj.field.i[:, 0] == 0.0)
        assert np.all(traj.field.r[:, 0] == 0.0)

    def test_store_stride_keeps_final_row(self, rates_extinction):
        grid = stable_grid(rates_extinction, 50.0, 1.0, 0.5)
        nodes = grid.age_nodes()
        i0 = cosine_bump(nodes, 0.2, 20.0, 5.0)
        traj = simulate(
            rates_extinction, (1.0 - i0, i0, np.zeros_like(nodes)), grid, store=50
        )
        assert traj.field.times[-1] == pytest.approx(grid.time_max)
        assert traj.b_series.size == grid.n_time + 1

    @pytest.mark.parametrize("store", [0, -3, 2.7, True, "every"])
    def test_store_must_be_a_stride(self, rates_extinction, store, monkeypatch):
        """Anything but "auto", "full" or an int >= 1 is rejected before the
        first step; 0 and -3 used to store every row, 2.7 a stride of 2."""
        grid = stable_grid(rates_extinction, 50.0, 1.0, 0.5)
        nodes = grid.age_nodes()
        i0 = cosine_bump(nodes, 0.2, 20.0, 5.0)

        def no_step(*args):
            raise AssertionError("stepped before the store check")

        monkeypatch.setattr(transport, "_step", no_step)
        with pytest.raises(ParameterError, match="store"):
            simulate(rates_extinction, (1.0 - i0, i0, np.zeros_like(nodes)), grid, store=store)

    def test_odd_panel_count_uses_trapezoid_weights(self, rates_extinction):
        # 201 age panels: the pressure quadrature falls back to trapezoid
        grid = GridSpec(100.0, 1.0, 201, round(1.0 / 0.004))
        nodes = grid.age_nodes()
        i0 = cosine_bump(nodes, 0.3, 20.0, 5.0)
        traj = simulate(rates_extinction, (1.0 - i0, i0, np.zeros_like(nodes)), grid)
        assert traj.conservation_max <= 1e-12
        assert 0.0 <= traj.b_series[0] <= 1.0

    def test_scheme_first_order_convergence(self, rates_bistable):
        # error against the analytic endemic profile, measured away from
        # the sub-grid inflow layer (width ~1/(phi+gamma+B rho) = 5 days)
        target = fixed_points_exact(rates_bistable)[1]

        def error_at(da, dt):
            grid = GridSpec(200.0, 2.0, round(200.0 / da), int(np.ceil(2.0 / dt)))
            nodes = grid.age_nodes()
            s, i, r = closed_form_profiles(target, rates_bistable, nodes)
            i[0] = r[0] = 0.0
            traj = simulate(
                rates_bistable, (1.0 - i - r, i, r), grid, store=grid.n_time
            )
            i_exact = closed_form_profiles(target, rates_bistable, nodes)[1]
            mask = nodes >= 1.0
            return np.abs(traj.final_row[1] - i_exact)[mask].max()

        errors = [error_at(0.5, 0.004), error_at(0.25, 0.002), error_at(0.125, 0.001)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 1.8 <= coarse / fine <= 2.2
