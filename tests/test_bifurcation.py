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
    analysis_kernel,
    closed_form_profiles,
    find_fixed_points,
    fixed_points_exact,
    simulate,
    stability_probe,
    sweep,
)
from epiage.parameters import as_parameter_set
from epiage.presets import AGE_DEPENDENT_RATES


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


def with_inflow_node(s, i, r):
    """Interior-node rows of the probe scheme with the inflow node s = 1 prepended."""
    return tuple(np.concatenate([[edge], row]) for edge, row in zip((1.0, 0.0, 0.0), (s, i, r)))


def infection_free_state(ages):
    return SteadyState(
        0.0, ages, np.ones_like(ages), np.zeros_like(ages), np.zeros_like(ages), 0.0
    )


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
        """At beta 30 the scheme's upper equilibrium is 2.5% below b*."""
        (row,) = sweep(drinking_rates(30.0), "beta", [30.0], probe=True)
        assert row.error is None
        assert [branch.stability for branch in row.branches] == ["unstable", "stable"]

    def test_no_unstable_tag_where_the_grid_misses_the_fold(self):
        """At beta 17.5 the model has two branches and the probe grid none."""
        rates = drinking_rates(17.5)
        tags = [stability_probe(rates, state) for state in closed_form_states(rates)]
        assert len(tags) == 2
        assert "unstable" not in tags

    def test_pair_near_the_fold(self):
        rates = drinking_rates(19.0)
        lower, upper = closed_form_states(rates)
        assert stability_probe(rates, lower) == "unstable"
        assert stability_probe(rates, upper) == "stable"

    def test_walk_finds_the_close_root_pair_past_the_fold(self):
        """At beta 18.2 the grid's roots near 0.02216 and 0.02428 both lie
        inside one doubled walk step from the lower b* = 0.01592."""
        import epiage.bifurcation as bifurcation

        rates = drinking_rates(18.2)
        lower, upper = closed_form_states(rates)
        scheme = bifurcation._UpwindScheme(as_parameter_set(rates))
        root = bifurcation._scheme_root(scheme.excess, lower.b_star)
        assert root is not None
        B, rising = root
        assert B == pytest.approx(0.02216, rel=1e-3)
        assert scheme.excess(B * 0.999) < 0.0 < scheme.excess(B * 1.001)
        assert rising is True
        assert stability_probe(rates, lower) == "unstable"
        assert stability_probe(rates, upper) == "stable"

    def test_lower_branch_next_to_zero(self):
        """At beta 73 the solver's lower root is near 5.9e-7 and the
        scheme's near 2e-6, where the scheme excess must hold to 1e-10."""
        rates = drinking_rates(73.0)
        states = find_fixed_points(rates, analysis_kernel(rates))
        assert len(states) == 2
        assert stability_probe(rates, states[0]) == "unstable"

    def test_tags_across_the_drinking_betas(self):
        """Closed-form states at beta 16.7-20 in steps of 0.1 and 25-200 in
        steps of 5: no branch below the model's fold, two that the grid
        misses (its fold lies higher) up to 18.1, the bistable pair up to
        70, and one stable branch from 75 on."""
        betas = [round(16.7 + 0.1 * k, 1) for k in range(34)] + [
            20.0 + 5.0 * k for k in range(1, 37)
        ]
        for beta in betas:
            rates = drinking_rates(beta)
            tags = [stability_probe(rates, state) for state in closed_form_states(rates)]
            if beta < 16.85:
                expected = []
            elif beta < 18.15:
                expected = ["untested", "untested"]
            elif beta < 72.5:
                expected = ["unstable", "stable"]
            else:
                expected = ["stable"]
            assert tags == expected, beta

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

    def test_one_scheme_per_probed_row(self, monkeypatch, rates_bistable):
        """Every branch of a row is probed on the row's one scheme; a row
        with no branch builds none."""
        import epiage.bifurcation as bifurcation

        built = []
        init = bifurcation._UpwindScheme.__init__

        def counted(self, params):
            built.append(params.beta.values[0])
            init(self, params)

        monkeypatch.setattr(bifurcation._UpwindScheme, "__init__", counted)
        rows = sweep(rates_bistable, "beta", [10.0, 45.0, 60.0], probe=True)
        assert [len(row.branches) for row in rows] == [0, 2, 2]
        assert [b.stability for b in rows[1].branches] == ["unstable", "stable"]
        assert built == [45.0, 60.0]

        def refuse(self, params):
            raise NumericsError("no probe scheme")

        monkeypatch.setattr(bifurcation._UpwindScheme, "__init__", refuse)
        (row,) = sweep(rates_bistable, "beta", [45.0], probe=True)
        assert row.error is None
        assert [b.stability for b in row.branches] == ["untested", "untested"]

    def test_probe_memory_peak(self):
        rates = drinking_rates(45.0)
        _, upper = closed_form_states(rates)
        tracemalloc.start()
        try:
            tag = stability_probe(rates, upper)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tag == "stable"
        assert peak <= 1.5e6

    def test_points_of_f_per_branch(self, monkeypatch):
        """At beta 45 the walk finds the excess rising through the lower
        branch, which decides it with no point of f; the upper one, where
        the excess falls, takes the 8 initial points after theta = 0 and
        no refinement."""
        import epiage.bifurcation as bifurcation

        points = []
        characteristic = bifurcation._UpwindScheme.characteristic

        def counted(self, theta, B, s, r):
            points.append(np.size(theta))
            return characteristic(self, theta, B, s, r)

        monkeypatch.setattr(bifurcation._UpwindScheme, "characteristic", counted)
        rates = drinking_rates(45.0)
        lower, upper = closed_form_states(rates)
        assert stability_probe(rates, lower) == "unstable"
        assert points == []
        assert stability_probe(rates, upper) == "stable"
        assert points == [bifurcation._CIRCLE_BATCH] * 4 == [2] * 4
        assert sum(points) == bifurcation._CIRCLE_POINTS - 1 == 8

    @pytest.mark.parametrize("agedep", [False, True])
    def test_f_at_one_is_minus_the_excess_slope(self, agedep):
        """f(1) = -E(B) - B E'(B) for the scheme's excess E, at the
        equilibrium of both branches, at beta 45 and on ``agedep``, and
        away from it; E' by a central difference.  At B = 0 it is -E(0)."""
        import epiage.bifurcation as bifurcation

        params = ParameterSet(**AGE_DEPENDENT_RATES) if agedep else drinking_rates(45.0)
        states = find_fixed_points(params, analysis_kernel(params))
        assert len(states) == 2
        scheme = bifurcation._UpwindScheme(as_parameter_set(params))
        for state, rising in zip(states, (True, False)):
            B, direction = bifurcation._scheme_root(scheme.excess, state.b_star)
            assert direction is rising
            for pressure in (B, 1.3 * B):
                s, _, r = scheme.equilibrium(pressure)
                f1 = scheme.characteristic([0.0], pressure, s, r)[0]
                h = 1e-5 * pressure
                slope = (scheme.excess(pressure + h) - scheme.excess(pressure - h)) / (2.0 * h)
                expected = -scheme.excess(pressure) - pressure * slope
                assert f1.imag == 0.0
                assert f1.real == pytest.approx(expected, rel=1e-5)
                assert bool(f1.real < 0.0) is rising
        # the infection-free state: f(1) = -E(0)
        s, _, r = scheme.equilibrium(0.0)
        f1 = scheme.characteristic([0.0], 0.0, s, r)[0]
        assert f1.imag == 0.0
        assert f1.real == pytest.approx(-scheme.excess(0.0), rel=0.0, abs=1e-11)

    def test_direction_rule_matches_the_sign_of_f_at_one(self):
        """Over seeded constant-rate sets with rho in [78, 130] and R0 in
        [0.45, 1.2], the excess rises through the scheme's equilibrium
        exactly where a computed f(1) < 0."""
        import epiage.bifurcation as bifurcation

        rng = np.random.default_rng(32)
        compared = {True: 0, False: 0}
        for _ in range(24):
            # R0 = beta / (mu + phi + gamma)
            rates = ConstantRates(
                mu=0.0125, beta=rng.uniform(0.45, 1.2) * 73.0125,
                phi=60.0, gamma=13.0, rho=rng.uniform(78.0, 130.0),
            )
            scheme = bifurcation._UpwindScheme(as_parameter_set(rates))
            for b_star in fixed_points_exact(rates):
                root = bifurcation._scheme_root(scheme.excess, b_star)
                if root is None:
                    continue
                B, rising = root
                s, _, r = scheme.equilibrium(B)
                f1 = scheme.characteristic([0.0], B, s, r)[0].real
                assert rising is bool(f1 < 0.0), (rates, b_star)
                compared[rising] += 1
        assert min(compared.values()) >= 5, compared

    def test_linear_recurrence_of_the_equilibrium(self):
        """u of the scheme's frozen-pressure equilibrium against the
        sequential recurrence in long double, at beta 45."""
        import epiage.bifurcation as bifurcation

        scheme = bifurcation._UpwindScheme(as_parameter_set(drinking_rates(45.0)))
        ld = np.longdouble
        beta, exit_rate, rho = (np.asarray(x, dtype=ld) for x in (scheme.beta, scheme.exit, scheme.rho))
        da = ld(scheme.da)
        for B in (0.0, 0.0023, 0.045, 0.5):
            _, u = scheme._log_s_and_u(B)
            s = np.cumprod(1.0 / (1.0 + da * ld(B) * beta))
            q = da * (rho + (beta - rho) * s)
            keep = 1.0 / (1.0 + da * (exit_rate + ld(B) * rho))
            expected, previous = np.empty_like(q), ld(0.0)
            for k in range(q.size):
                previous = (previous + q[k]) * keep[k]
                expected[k] = previous
            assert np.max(np.abs(u - expected) / expected) <= 4e-15, B

    @pytest.mark.parametrize(
        "kind", ["keep B=0", "keep B=0.045", "keep B=0.5", "circle pi/8", "circle pi",
                 "circle batch", "gate floor", "ones"],
    )
    def test_linear_recurrence_against_sequential(self, kind):
        """The blocked recurrence against the sequential one in long double,
        to 4e-15 relative, on n = 1, L - 1, L, L + 1 and 4000 factors, L
        the block length: keep and q of ``_log_s_and_u`` at beta 45; the
        s recurrence of ``characteristic`` at B = 0.045, one theta or two
        at once, theta = pi giving the smallest |a|; every factor at the
        gate's floor lam / (2 - lam), the modulus at theta = pi of a cell
        with d = 1 - lam, where no rate acts; and every factor 1."""
        import epiage.bifurcation as bifurcation

        scheme = bifurcation._UpwindScheme(as_parameter_set(drinking_rates(45.0)))
        n, lam = scheme.beta.size, scheme.dt / scheme.da
        positive = np.random.default_rng(33).uniform(1.0, 2.0, n)
        if kind.startswith("keep"):
            B = float(kind.split("=")[1])
            s = np.exp(-np.cumsum(np.log1p(scheme.da * B * scheme.beta)))
            a = 1.0 / (1.0 + scheme.da * (scheme.exit + B * scheme.rho))
            b = scheme.da * (scheme.rho + (scheme.beta - scheme.rho) * s) * a
        elif kind.startswith("circle"):
            B = 0.045
            theta = {"pi/8": [np.pi / 8], "pi": [np.pi], "batch": [np.pi / 8, np.pi]}[kind.split()[1]]
            den = np.exp(1j * np.array(theta))[:, None] - (1.0 - lam - scheme.dt * B * scheme.beta)
            a = lam / den
            b = -scheme.dt * scheme.beta * scheme.equilibrium(B)[0] / den
        else:
            a = np.full(n, -lam / (2.0 - lam) if kind == "gate floor" else 1.0)
            b = positive
        length = bifurcation._block_length(a)
        assert 2 <= length < n
        for size in sorted({1, length - 1, length, length + 1, n} & set(range(1, n + 1))):
            y = bifurcation._linear_recurrence(a[..., :size], b[..., :size])
            expected = sequential_recurrence(a[..., :size], b[..., :size])
            assert y.shape == b[..., :size].shape
            assert np.max(np.abs(y - expected) / np.abs(expected)) <= 4e-15, size

    @pytest.mark.parametrize(
        "excess, expected",
        [
            (lambda b: (b - 0.5) * 2.0, (0.5, True)),
            (lambda b: (0.5 - b) * 2.0, (0.5, False)),
            (lambda b: (0.5 - b) * -2.0, (0.5, True)),
            (lambda b: (b - 0.5) * -2.0, (0.5, False)),
            (lambda b: 0.0, None),
        ],
        ids=["+0 rising", "+0 falling", "-0 rising", "-0 falling", "flat"],
    )
    def test_scheme_root_at_an_exact_zero(self, excess, expected):
        """An excess of exactly +0.0 or -0.0 at b* = 0.5 gives b* and the
        direction in which the excess crosses it; a flat one gives None."""
        import epiage.bifurcation as bifurcation

        assert excess(0.5) == 0.0
        assert bifurcation._scheme_root(excess, 0.5) == expected

    @pytest.mark.parametrize("cells", [30, 60])
    def test_infection_free_tag_matches_dense_step_map(self, monkeypatch, cells):
        """Over seeded constant-rate sets with R0 in [0.3, 2] and rho in
        [0, 130], the infection-free state is "unstable" exactly where the
        Jacobian of the transport step there has an eigenvalue outside the
        unit disk, on ``cells`` cells of 0.05 years."""
        import epiage.bifurcation as bifurcation

        monkeypatch.setattr(bifurcation, "_PROBE_AGE_MAX", 0.05 * cells)
        monkeypatch.setattr(bifurcation, "_PROBE_AGE_STEPS", cells)
        zero = infection_free_state(np.linspace(0.0, 0.05 * cells, cells + 1))
        rng = np.random.default_rng(37)
        tags = {"unstable": 0, "stable": 0}
        for _ in range(20):
            # R0 = beta / (mu + phi + gamma)
            rates = ConstantRates(
                mu=0.0125, beta=rng.uniform(0.3, 2.0) * 73.0125,
                phi=60.0, gamma=13.0, rho=rng.uniform(0.0, 130.0),
            )
            tag = stability_probe(rates, zero)
            scheme = bifurcation._UpwindScheme(as_parameter_set(rates))
            s, i, r = scheme.equilibrium(0.0)
            J, _ = step_jacobians(scheme, s, i, r)
            assert (tag == "unstable") == (eigenvalues_outside(J) > 0), rates
            tags[tag] += 1
        assert min(tags.values()) >= 3, tags

    def test_count_matches_dense_step_map(self, monkeypatch):
        """f(z) = det(zI - J) / det(zI - A), and the probe calls J unstable
        where it has an eigenvalue outside the unit disk, with J the Jacobian
        of the transport step on a 30-cell grid and A the same at frozen
        pressure; 30 cells are one block of the recurrences."""
        check_against_dense_step_map(monkeypatch, cells=30, blocks=1)

    def test_count_matches_dense_step_map_across_blocks(self, monkeypatch):
        """The same on 400 cells, three blocks at theta = pi, so that the
        carries between blocks enter f and the count."""
        check_against_dense_step_map(monkeypatch, cells=400, blocks=3)


def step_jacobians(scheme, s, i, r):
    """J, the Jacobian of one transport step about the interior nodes
    (s, i, r) of ``scheme``, and A, the same at the frozen pressure
    B = c^T i; central differences."""
    from epiage.transport import _step

    rates = (scheme.beta, scheme.exit, scheme.rho)

    def step(x, pressure=None):
        s, i, r = with_inflow_node(*np.split(x, 3))
        if pressure is None:
            pressure = scheme.c @ i[1:]
        new = _step(np.array([s, i, r]), pressure, scheme.dt, scheme.da, *rates)
        return np.concatenate([part[1:] for part in new])

    def jacobian(g, x, h=1e-6):
        columns = [(g(x + h * e) - g(x - h * e)) / (2 * h) for e in np.eye(x.size)]
        return np.column_stack(columns)

    x = np.concatenate([s, i, r])
    B = scheme.c @ i
    return jacobian(step, x), jacobian(lambda y: step(y, B), x)


def eigenvalues_outside(J):
    return int(np.sum(np.abs(np.linalg.eigvals(J)) > 1.0))


def check_against_dense_step_map(monkeypatch, cells, blocks):
    """f against det(zI - J) / det(zI - A) and the probe's verdict against
    the eigenvalues of J, on ``cells`` cells of 0.05 years, where the
    recurrences of f at theta = pi take ``blocks`` blocks."""
    import epiage.bifurcation as bifurcation

    monkeypatch.setattr(bifurcation, "_PROBE_AGE_MAX", 0.05 * cells)
    monkeypatch.setattr(bifurcation, "_PROBE_AGE_STEPS", cells)
    params = as_parameter_set(drinking_rates(45.0))
    scheme = bifurcation._UpwindScheme(params)
    theta = np.array([0.0, 0.7, 2.0, np.pi])
    lam = scheme.dt / scheme.da
    assert -(-cells // bifurcation._block_length(lam / (2.0 - lam))) == blocks

    def ratio(z, J, A):
        (sign_j, log_j), (sign_a, log_a) = (
            np.linalg.slogdet(z * np.eye(len(M)) - M) for M in (J, A)
        )
        return sign_j / sign_a * np.exp(log_j - log_a)

    # an endemic state, and the infection-free one with a mixing weight
    # large enough to push an eigenvalue of J out of the disk
    for c_scale, frozen in ((1.0, 0.04), (10.0, 0.0)):
        scheme.c = scheme.c * c_scale
        s, i, r = scheme.equilibrium(frozen)
        B = scheme.c @ i
        J, A = step_jacobians(scheme, s, i, r)
        f = scheme.characteristic(theta, B, s, r)
        expected = [ratio(z, J, A) for z in np.exp(1j * theta)]
        np.testing.assert_allclose(f, expected, rtol=1e-7)
        outside = eigenvalues_outside(J)
        # theta[0] = 0: f(1) < 0 exactly where J has an eigenvalue outside
        assert (f[0].real < 0.0) == (outside == 1)
        assert outside == (1 if c_scale > 1.0 else 0)
        if c_scale > 1.0:
            # f(1) = -E(0) < 0: the probe decides from the excess at 0
            zero = infection_free_state(np.linspace(0.0, 0.05 * cells, cells + 1))
            assert stability_probe(params, zero, scheme=scheme) == "unstable"
        else:
            # f(1) > 0: the winding count
            assert scheme.unstable(B, s, r) == (outside > 0)


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
    """+-5% about the scheme's own equilibrium on the probe grid, at the
    probe's time step: at beta 45, run for 5 years, and on ``agedep``, run
    for 20, the upper branch returns and the lower one leaves."""
    import epiage.bifurcation as bifurcation

    n_age = bifurcation._PROBE_AGE_STEPS
    age_max = bifurcation._PROBE_AGE_MAX
    agedep = ParameterSet(**AGE_DEPENDENT_RATES)
    for rates, years in ((drinking_rates(45.0), 5), (agedep, 20)):
        scheme = bifurcation._UpwindScheme(as_parameter_set(rates))
        grid = GridSpec(age_max, float(years), n_age, years * round(1.0 / scheme.dt))
        lower, upper = (state.b_star for state in find_fixed_points(rates, analysis_kernel(rates)))
        for b_star, returns in ((lower, False), (upper, True)):
            B, rising = bifurcation._scheme_root(scheme.excess, b_star)
            assert rising is not returns
            s, i, r = with_inflow_node(*scheme.equilibrium(B))
            assert scheme.c @ i[1:] == pytest.approx(B, rel=1e-9)
            for sign in (1.0, -1.0):
                # the recovered pool absorbs the change in i
                shifted = (s, (1.0 + sign * 0.05) * i, r - sign * 0.05 * i)
                assert shifted[2].min() >= 0.0
                end = simulate(rates, shifted, grid, store=grid.n_time).b_series[-1]
                drift = abs(end / B - 1.0)
                assert (drift <= 1e-3) if returns else (drift > 0.05)
