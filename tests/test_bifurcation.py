import tracemalloc

import numpy as np
import pytest

from epiage import (
    ConstantRates,
    GridSpec,
    NumericsError,
    ParameterError,
    ParameterSet,
    SteadyState,
    amplification,
    analysis_kernel,
    closed_form_profiles,
    find_fixed_points,
    fixed_points_exact,
    refine_kernel,
    simulate,
    stability_probe,
    sweep,
)
from epiage.parameters import as_parameter_set
from epiage.presets import AGE_DEPENDENT_RATES
from epiage.transport import auto_time_steps


class TestSweep:
    def test_branch_counts_across_regimes(self, rates_bistable):
        rows = sweep(rates_bistable, "beta", [0.011, 60.0, 120.0])
        assert [len(row.branches) for row in rows] == [0, 2, 1]
        assert all(row.error is None for row in rows)
        # R0 column is the constant-rate ratio
        assert rows[1].r0 == pytest.approx(0.8218, abs=1e-3)

    def test_cross_check_against_general_solver(self, rates_bistable):
        rows = sweep(rates_bistable, "beta", [60.0, 120.0])
        assert all(row.error is None for row in rows)

    def test_constant_parameter_set_uses_closed_forms(self, rates_bistable):
        """A ParameterSet whose rates are all constant gives the ConstantRates row."""
        params = ParameterSet(
            mu=0.0125, beta=60.0, phi=60.0, gamma=13.0, rho=76.65, contact=2.5,
            birth_rate=3.0,
        )
        for value in (60.0, 120.0):
            (general,) = sweep(params, "beta", [value])
            (closed,) = sweep(rates_bistable, "beta", [value])
            assert general.error is None
            assert general.r0 == closed.r0
            assert [b.b_star for b in general.branches] == [
                b.b_star for b in closed.branches
            ]

    @pytest.mark.parametrize("rho", [0.0, 1e-300])
    def test_rows_without_relapse(self, rho):
        """No relapse: a forward bifurcation, one stable branch above threshold."""
        rates = ConstantRates(mu=0.0125, beta=60.0, phi=60.0, gamma=13.0, rho=rho)
        rows = sweep(rates, "beta", [50.0, 100.0, 200.0], probe=True)
        assert all(np.isfinite(row.r0) and row.error is None for row in rows)
        assert [len(row.branches) for row in rows] == [0, 1, 1]
        assert [b.stability for row in rows for b in row.branches] == ["stable"] * 2
        # mu/(mu+phi+gamma) - mu/beta; no row error puts the general solver
        # within 1e-8 of it
        assert rows[1].branches[0].b_star == pytest.approx(4.6203561e-5, rel=1e-7)

    def test_row_failing_the_cross_check_is_probed(self):
        """At beta 20 and 25 the general solver misses the quadratic's roots
        by more than 1e-8: the rows keep that error, and the probe still
        tags their closed-form branches."""
        rows = sweep(drinking_rates(20.0), "beta", [20.0, 25.0], probe=True)
        assert all(row.error is not None for row in rows)
        assert [[b.stability for b in row.branches] for row in rows] == [
            ["unstable", "stable"]
        ] * 2

    def test_below_backward_threshold_no_branches(self, rates_bistable):
        # beta = 10 sits below the two-root threshold (~16.8) with R0 < 1
        rows = sweep(rates_bistable, "beta", [10.0])
        assert rows[0].branches == ()

    def test_empty_values(self, rates_bistable):
        assert sweep(rates_bistable, "beta", []) == []

    def test_unsorted_values_rejected(self, rates_bistable):
        with pytest.raises(ParameterError):
            sweep(rates_bistable, "beta", [60.0, 0.011])

    def test_row_count_preserved_on_failure(self, rates_bistable):
        # mu = 1e-12 leaves survival too slow to truncate, so no kernel can
        # be built; that row records the error and the next row still runs
        rows = sweep(rates_bistable, "mu", [1e-12, 0.0125])
        assert len(rows) == 2
        assert "survival decays too slowly to truncate" in rows[0].error
        assert rows[0].branches == ()
        assert rows[1].error is None
        assert len(rows[1].branches) == 2

    def test_general_path_age_dependent(self):
        params = ParameterSet(
            mu=0.0125,
            beta=70.0,
            phi=[(0.0, 55.0), (40.0, 65.0)],
            gamma=13.0,
            rho=76.65,
        )
        rows = sweep(params, "beta", [0.011, 70.0])
        assert len(rows) == 2
        assert len(rows[0].branches) == 0
        assert len(rows[1].branches) == 2
        assert rows[1].r0 < 1.0  # backward-bifurcation territory

    def test_branches_sorted_and_consistent_with_quadratic(self, rates_bistable):
        rows = sweep(rates_bistable, "beta", [20.0, 60.0, 90.0])
        for row in rows:
            values = [branch.b_star for branch in row.branches]
            assert values == sorted(values)
            oracle = fixed_points_exact(
                ConstantRates(
                    mu=0.0125, beta=row.swept_value, phi=60.0, gamma=13.0, rho=76.65
                )
            )
            assert values == pytest.approx(oracle, abs=1e-12)


def drinking_rates(beta):
    return ConstantRates(mu=0.0125, beta=beta, phi=60.0, gamma=13.0, rho=76.65)


def closed_form_states(rates):
    """The exact branches of ``rates`` on the analysis grid."""
    ages = analysis_kernel(rates).ages
    return [
        SteadyState(b, ages, *closed_form_profiles(b, rates, ages), residual=0.0)
        for b in fixed_points_exact(rates)
    ]


def sequential_recurrence(a, b):
    """y_k = a_k y_{k-1} + b_k from y_{-1} = 0, one k at a time in long double."""
    a, b = (np.asarray(x, dtype=np.clongdouble) for x in (a, b))
    y, previous = np.empty_like(b), np.zeros(b.shape[:-1], dtype=np.clongdouble)
    for k in range(b.shape[-1]):
        previous = a[..., k] * previous + b[..., k]
        y[..., k] = previous
    return y


def infection_free_state(ages):
    return SteadyState(
        0.0, ages, np.ones_like(ages), np.zeros_like(ages), np.zeros_like(ages), 0.0
    )


def exact_delta(rates, B, lam):
    """Delta of the untruncated model on constant rates, a rational function
    of lam: with p = mu e^(-mu a) every integral is a Laplace transform at
    mu.  c = beta B and k = phi + gamma + rho B."""
    mu, beta, e, rho = rates.mu, rates.beta, rates.exit_pressure, rates.rho
    c, k = beta * B, e + rho * B
    return (
        1.0
        - mu * beta * (mu + lam + rho * B) / ((mu + c) * (mu + c + lam) * (mu + lam + k))
        - rho * e * c / ((mu + c) * (mu + k) * (mu + lam + k))
    )


def characteristic_at(rates, B, lam, kernel=None):
    """Delta of the state at B on ``kernel`` (the analysis kernel by default)
    at every lam of ``lam``."""
    import epiage.bifurcation as bifurcation

    params = as_parameter_set(rates)
    kernel = analysis_kernel(params) if kernel is None else kernel
    characteristic = bifurcation._Characteristic(params, kernel)
    s, _, r = characteristic.profiles(B, characteristic.sweep(B))
    return characteristic.delta(np.asarray(lam), B, s, r)


class TestStabilityProbe:
    def test_bistable_pair_tags(self, rates_bistable, kernel_bistable):
        small, large = find_fixed_points(rates_bistable, kernel_bistable)
        assert stability_probe(rates_bistable, large) == "stable"
        assert stability_probe(rates_bistable, small) == "unstable"

    def test_infection_free_state_stable_below_threshold(
        self, rates_extinction, kernel_extinction
    ):
        zero = infection_free_state(kernel_extinction.ages)
        assert stability_probe(rates_extinction, zero) == "stable"

    def test_infection_free_state_unstable_above_threshold(
        self, rates_endemic, kernel_endemic
    ):
        zero = infection_free_state(kernel_endemic.ages)
        assert stability_probe(rates_endemic, zero) == "unstable"

    def test_upper_branch_stable_where_scheme_sits_below_b_star(self):
        """At beta 30 the upwind scheme's upper equilibrium lies 2.5% below
        b*; the count, on the model itself, does not see it."""
        (row,) = sweep(drinking_rates(30.0), "beta", [30.0], probe=True)
        assert row.error is None
        assert [branch.stability for branch in row.branches] == ["unstable", "stable"]

    def test_band_rows_read_unstable_stable(self):
        """At beta 17.0 and 17.5, between the model's fold at 16.80 and the
        fold of the 4000-cell upwind scheme at about 18.2, each row has the
        model's bistable pair: the lower branch repels, the upper attracts."""
        rows = sweep(drinking_rates(17.0), "beta", [17.0, 17.5], probe=True)
        assert [[b.stability for b in row.branches] for row in rows] == [
            ["unstable", "stable"]
        ] * 2

    def test_pair_near_the_fold(self):
        rates = drinking_rates(19.0)
        lower, upper = closed_form_states(rates)
        assert stability_probe(rates, lower) == "unstable"
        assert stability_probe(rates, upper) == "stable"

    def test_lower_branch_next_to_zero(self):
        """At beta 73 the solver's lower root is near 5.9e-7."""
        rates = drinking_rates(73.0)
        states = find_fixed_points(rates, analysis_kernel(rates))
        assert len(states) == 2
        assert stability_probe(rates, states[0]) == "unstable"

    def test_tags_across_the_drinking_betas(self):
        """Closed-form states at beta 16.7-20 in steps of 0.1 and 25-200 in
        steps of 5: no branch below the model's fold at 16.80, the bistable
        pair up to 70, and one stable branch from 75 on."""
        betas = [round(16.7 + 0.1 * k, 1) for k in range(34)] + [
            20.0 + 5.0 * k for k in range(1, 37)
        ]
        for beta in betas:
            rates = drinking_rates(beta)
            tags = [stability_probe(rates, state) for state in closed_form_states(rates)]
            if beta < 16.85:
                expected = []
            elif beta < 72.5:
                expected = ["unstable", "stable"]
            else:
                expected = ["stable"]
            assert tags == expected, beta

    def test_state_on_other_ages(self, rates_bistable):
        """A state sampled on other ages than the analysis kernel's is
        probed at its pressure, on the kernel's own profiles."""
        kernel = analysis_kernel(rates_bistable, age_max=400.0)
        small, large = find_fixed_points(rates_bistable, kernel)
        assert [stability_probe(rates_bistable, state) for state in (small, large)] == [
            "unstable", "stable"
        ]

    def test_probe_runs_no_simulation(self, monkeypatch, rates_bistable, kernel_bistable):
        import epiage.bifurcation as bifurcation
        import epiage.transport as transport

        def refuse(*args, **kwargs):
            raise AssertionError("stability_probe ran a simulation")

        monkeypatch.setattr(transport, "simulate", refuse)
        monkeypatch.setattr(bifurcation, "simulate", refuse, raising=False)
        small, large = find_fixed_points(rates_bistable, kernel_bistable)
        zero = infection_free_state(kernel_bistable.ages)
        tags = [stability_probe(rates_bistable, state) for state in (zero, small, large)]
        assert tags == ["stable", "unstable", "stable"]

    def test_one_characteristic_per_probed_row(self, monkeypatch, rates_bistable):
        """Every branch of a row is probed on the row's one characteristic
        function, on the row's kernel; a row with no branch builds none."""
        import epiage.bifurcation as bifurcation

        built = []
        init = bifurcation._Characteristic.__init__

        def counted(self, params, kernel):
            built.append(params.beta.values[0])
            init(self, params, kernel)

        monkeypatch.setattr(bifurcation._Characteristic, "__init__", counted)
        rows = sweep(rates_bistable, "beta", [10.0, 45.0, 60.0], probe=True)
        assert [len(row.branches) for row in rows] == [0, 2, 2]
        assert [b.stability for b in rows[1].branches] == ["unstable", "stable"]
        assert built == [45.0, 60.0]

        def refuse(self, params, kernel):
            raise NumericsError("no characteristic function")

        monkeypatch.setattr(bifurcation._Characteristic, "__init__", refuse)
        (row,) = sweep(rates_bistable, "beta", [45.0], probe=True)
        assert row.error is None
        assert [b.stability for b in row.branches] == ["untested", "untested"]

    def test_count_memory_peak(self):
        """The upper branch at beta 45 takes its 7 points on the axis in one
        batch of (7, 2433) complex rows."""
        rates = drinking_rates(45.0)
        _, upper = closed_form_states(rates)
        tracemalloc.start()
        try:
            tag = stability_probe(rates, upper)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tag == "stable"
        assert peak <= 5e6

    def test_points_of_delta_per_branch(self, monkeypatch):
        """At beta 45 Delta(0) < 0 decides the lower branch with no other
        point; the upper one, where Delta(0) > 0, takes the 7 points of
        theta strictly between 0 and pi in one batch, and no refinement."""
        import epiage.bifurcation as bifurcation

        points = []
        delta = bifurcation._Characteristic.delta

        def counted(self, lam, B, s, r):
            points.append((np.size(lam), bool(np.any(lam))))
            return delta(self, lam, B, s, r)

        monkeypatch.setattr(bifurcation._Characteristic, "delta", counted)
        rates = drinking_rates(45.0)
        lower, upper = closed_form_states(rates)
        assert stability_probe(rates, lower) == "unstable"
        assert points == [(1, False)]
        points.clear()
        assert stability_probe(rates, upper) == "stable"
        assert points == [(1, False), (7, True)]
        assert bifurcation._THETA_POINTS - 2 == 7 <= bifurcation._THETA_BATCH

    @pytest.mark.parametrize(
        "where, value",
        [("zero", 0.0), ("zero", -0.0), ("zero", np.nan), ("axis", 0.0), ("axis", np.nan)],
        ids=["+0 at 0", "-0 at 0", "nan at 0", "0 on the axis", "nan on the axis"],
    )
    def test_delta_vanishing_is_untested(self, monkeypatch, where, value):
        """A Delta of 0 (or nan) at lam = 0 or at a point of the axis leaves
        the branch untested: a fold, or a Hopf point."""
        import epiage.bifurcation as bifurcation

        delta = bifurcation._Characteristic.delta

        def vanishing(self, lam, B, s, r):
            values = delta(self, lam, B, s, r)
            if (where == "zero") != bool(np.any(lam)):
                values[-1] = value
            return values

        monkeypatch.setattr(bifurcation._Characteristic, "delta", vanishing)
        rates = drinking_rates(45.0)
        _, upper = closed_form_states(rates)
        assert stability_probe(rates, upper) == "untested"

    def test_refinement_past_the_point_limit_is_untested(self, monkeypatch):
        """A Delta whose arg jumps by pi at omega = 2, as next to a zero on
        the axis, keeps splitting the points of theta there until there are
        more than ``_THETA_MAX``."""
        import epiage.bifurcation as bifurcation

        monkeypatch.setattr(
            bifurcation._Characteristic, "delta",
            lambda self, lam, B, s, r: np.where(lam.imag > 2.0, -1.0, 1.0) + 0j,
        )
        rates = drinking_rates(120.0)
        (upper,) = closed_form_states(rates)
        assert stability_probe(rates, upper) == "untested"

    def test_transmitted_against_the_table_segments(self):
        """C(a; lam) on ``agedep``'s table beta against the integral of
        beta e^(lam x) taken segment by segment of the table, where beta is
        linear: [e^(lam x) (beta(x) / lam - slope / lam^2)] at the segment's
        ends, in Python complex arithmetic."""
        import epiage.bifurcation as bifurcation

        params = ParameterSet(**AGE_DEPENDENT_RATES)
        kernel = analysis_kernel(params)
        lam = 1j * np.array([0.3, 1.0, 30.0])
        transmitted = bifurcation._Characteristic(params, kernel).transmitted(lam)
        knots, values = params.beta.ages, params.beta.values
        for k in (5, 500, 1500, 3000, kernel.ages.size - 1):
            a = float(kernel.ages[k])
            ends = [0.0] + [x for x in knots if 0.0 < x < a] + [a]
            for row, z in enumerate(lam):
                total = 0.0
                for x0, x1 in zip(ends[:-1], ends[1:]):
                    slope = (params.beta(x1) - params.beta(x0)) / (x1 - x0)
                    total += sum(
                        sign * np.exp(z * x) * (params.beta(x) / z - slope / z**2)
                        for sign, x in ((1.0, x1), (-1.0, x0))
                    )
                expected = np.exp(-z * a) * total
                assert abs(transmitted[row, k] - expected) <= 1e-11 * max(values), (a, z)

    @pytest.mark.parametrize("agedep", [False, True])
    def test_delta_at_zero_is_minus_the_excess_slope(self, agedep):
        """Delta(0) = 1 - d(B amplification(B))/dB, which is -B E'(B) at a
        root of the excess E, at both branches and at 1.3 times each, at
        beta 45 and on ``agedep``, and 1 - R0 on the grid at B = 0; the
        derivative by a Richardson central difference, to 2e-6 relative."""
        params = ParameterSet(**AGE_DEPENDENT_RATES) if agedep else drinking_rates(45.0)
        kernel = analysis_kernel(params)
        states = find_fixed_points(params, kernel)
        assert len(states) == 2
        for state, rising in zip(states, (True, False)):
            for B in (state.b_star, 1.3 * state.b_star):
                at_zero = characteristic_at(params, B, [0.0], kernel)[0]

                def induced(x):
                    return x * amplification(x, params, kernel)

                h = 1e-4 * B
                wide = (induced(B + 2 * h) - induced(B - 2 * h)) / (4 * h)
                narrow = (induced(B + h) - induced(B - h)) / (2 * h)
                expected = 1.0 - (4.0 * narrow - wide) / 3.0
                assert at_zero == pytest.approx(expected, rel=2e-6)
                if B == state.b_star:
                    assert bool(at_zero < 0.0) is rising
        at_zero = characteristic_at(params, 0.0, [0.0], kernel)[0]
        assert at_zero == pytest.approx(1.0 - amplification(0.0, params, kernel), rel=1e-6)

    @pytest.mark.parametrize("agedep", [False, True])
    def test_delta_on_the_axis_against_a_refined_kernel(self, agedep):
        """Delta(i omega) for omega from 0.01 to 1e3 at both branches, at
        beta 45 and on ``agedep``, within 1e-6 of its value on the kernel
        with every panel halved."""
        params = ParameterSet(**AGE_DEPENDENT_RATES) if agedep else drinking_rates(45.0)
        kernel = analysis_kernel(params)
        finer = refine_kernel(params, kernel)
        lam = 1j * np.geomspace(0.01, 1e3, 11)
        for state in find_fixed_points(params, kernel):
            coarse = characteristic_at(params, state.b_star, lam, kernel)
            fine = characteristic_at(params, state.b_star, lam, finer)
            assert np.max(np.abs(coarse - fine)) <= 1e-6

    def test_delta_against_the_untruncated_model(self):
        """On constant rates Delta is rational in lam; the kernel grid's
        Delta on [0, A], where survival falls to 1e-6, meets it to 1e-6 at
        both branches and the infection-free state, at beta 45 and 120."""
        lam = np.concatenate([[0.0], 1j * np.geomspace(0.01, 1e3, 11)])
        for beta in (45.0, 120.0):
            rates = drinking_rates(beta)
            for B in [0.0] + fixed_points_exact(rates):
                values = np.concatenate([
                    characteristic_at(rates, B, lam[:1]), characteristic_at(rates, B, lam[1:])
                ])
                assert np.max(np.abs(values - exact_delta(rates, B, lam))) <= 1e-6, (beta, B)

    @pytest.mark.parametrize(
        "zeros, unstable",
        [
            ([-1.0, -2.0], False),
            ([-0.1 + 5j, -0.1 - 5j], False),
            ([0.3, 2.0], True),
            ([0.2 + 3j, 0.2 - 3j], True),
            ([0.05 + 40j, 0.05 - 40j, -1.0], True),
        ],
        ids=["two stable", "stable pair", "two unstable", "unstable pair", "fast pair"],
    )
    def test_winding_counts_the_zeros_of_a_rational_function(self, zeros, unstable):
        """Delta = prod (lam - z) / (lam + 1)^n, positive at 0 and 1 at
        infinity: ``_winds`` finds a zero with Re lam > 0 exactly where one
        is given, a pair of complex ones included."""
        import epiage.bifurcation as bifurcation

        def delta(lam):
            return np.prod([(lam - z) / (lam + 1.0) for z in zeros], axis=0)

        assert delta(np.zeros(1))[0].real > 0.0
        assert bifurcation._winds(delta) is unstable

    @pytest.mark.parametrize(
        "kind", ["keep B=0", "keep B=0.045", "keep B=0.5", "circle pi/8", "circle pi",
                 "circle batch", "gate floor", "ones"],
    )
    def test_linear_recurrence_against_sequential(self, kind):
        """The complex sweep's recurrence against the sequential one in long
        double, to 4e-15 relative, on n = 1, 2, 3, 255, 256, 257 and 4000
        factors: the hard cases of the upwind scheme at beta 45 on 4000
        cells of 0.05 years, at its time step for one year.  keep and q of
        its frozen-pressure equilibrium; its s recurrence at B = 0.045 on
        the unit circle, one theta or two at once, theta = pi giving the
        smallest |a|; every factor at its gate's floor lam / (2 - lam) in
        modulus, negative; and every factor 1."""
        from epiage import _sweep
        from epiage.transport import auto_time_steps

        params = as_parameter_set(drinking_rates(45.0))
        da = 0.05
        dt = 1.0 / auto_time_steps(params, 200.0, 1.0, 4000)
        ages = da * np.arange(1, 4001)
        beta, exit_rate, rho = params.beta(ages), params.exit_pressure()(ages), params.rho(ages)
        n, lam = ages.size, dt / da
        positive = np.random.default_rng(33).uniform(1.0, 2.0, n)
        if kind.startswith("keep"):
            B = float(kind.split("=")[1])
            s = np.exp(-np.cumsum(np.log1p(da * B * beta)))
            a = 1.0 / (1.0 + da * (exit_rate + B * rho))
            b = da * (rho + (beta - rho) * s) * a
        elif kind.startswith("circle"):
            B = 0.045
            theta = {"pi/8": [np.pi / 8], "pi": [np.pi], "batch": [np.pi / 8, np.pi]}[kind.split()[1]]
            den = np.exp(1j * np.array(theta))[:, None] - (1.0 - lam - dt * B * beta)
            a = lam / den
            b = -dt * beta * np.exp(-np.cumsum(np.log1p(da * B * beta))) / den
        else:
            a = np.full(n, -lam / (2.0 - lam) if kind == "gate floor" else 1.0)
            b = positive
        for size in (1, 2, 3, 255, 256, 257, n):
            y = _sweep._linear_recurrence(a[..., :size], b[..., :size])
            expected = sequential_recurrence(a[..., :size], b[..., :size])
            assert y.shape == b[..., :size].shape
            assert np.max(np.abs(y - expected) / np.abs(expected)) <= 4e-15, size


def test_the_library_never_prints(capfd, tmp_path, rates_extinction, kernel_extinction):
    """A preset run, a probed sweep and a probe of the infection-free
    state leave stdout and stderr empty, at the file descriptors too."""
    from epiage.presets import preset_config, run_config

    run_config(preset_config("extinction"), tmp_path)
    (row,) = sweep(drinking_rates(45.0), "beta", [45.0], probe=True)
    assert [b.stability for b in row.branches] == ["unstable", "stable"]
    zero = infection_free_state(kernel_extinction.ages)
    assert stability_probe(rates_extinction, zero) == "stable"
    assert capfd.readouterr() == ("", "")


@pytest.mark.slow
def test_simulate_agrees_with_the_count():
    """A run of the upwind scheme on ages 0-200 in 4000 cells, for 5 years
    at beta 45 and 20 on ``agedep``, from each branch's state with i
    scaled by 1 -+ 5%: from the branch counted stable the pressure settles
    within 3% of b* (the scheme's own upper equilibrium lies 0.65-2.5% from
    the model's), and from the one counted unstable it leaves by more than
    5%."""
    n_age, age_max = 4000, 200.0
    ages = np.linspace(0.0, age_max, n_age + 1)
    agedep = ParameterSet(**AGE_DEPENDENT_RATES)
    for rates, years in ((drinking_rates(45.0), 5), (agedep, 20)):
        steps = years * auto_time_steps(as_parameter_set(rates), age_max, 1.0, n_age)
        grid = GridSpec(age_max, float(years), n_age, steps)
        lower, upper = find_fixed_points(rates, analysis_kernel(rates))
        for state, returns in ((lower, False), (upper, True)):
            assert stability_probe(rates, state) == ("stable" if returns else "unstable")
            s = np.interp(ages, state.ages, state.s)
            i = np.interp(ages, state.ages, state.i)
            for sign in (1.0, -1.0):
                # the recovered pool absorbs the change in i
                shifted = (s, (1.0 + sign * 0.05) * i, 1.0 - s - (1.0 + sign * 0.05) * i)
                assert shifted[2].min() >= 0.0
                end = simulate(rates, shifted, grid, store=grid.n_time).b_series[-1]
                drift = abs(end / state.b_star - 1.0)
                assert (drift <= 0.03) if returns else (drift > 0.05), (rates, sign, drift)
