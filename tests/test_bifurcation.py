import numpy as np
import pytest

from epiage import (
    ConstantRates,
    ParameterError,
    ParameterSet,
    SteadyState,
    find_fixed_points,
    fixed_points_exact,
    stability_probe,
    sweep,
)


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


@pytest.mark.slow
class TestStabilityProbe:
    def test_bistable_pair_tags(self, rates_bistable, kernel_bistable):
        small, large = find_fixed_points(rates_bistable, kernel_bistable)
        assert stability_probe(rates_bistable, large) == "stable"
        assert stability_probe(rates_bistable, small) == "unstable"

    def test_infection_free_state_stable_below_threshold(
        self, rates_extinction, kernel_extinction
    ):
        ages = kernel_extinction.ages
        zero = SteadyState(
            b_star=0.0,
            ages=ages,
            s=np.ones_like(ages),
            i=np.zeros_like(ages),
            r=np.zeros_like(ages),
            residual=0.0,
        )
        assert stability_probe(rates_extinction, zero) == "stable"

    def test_probe_runs_keep_first_and_last_rows(
        self, monkeypatch, rates_bistable, kernel_bistable
    ):
        """The probe reads only b_series, so each run stores just two rows."""
        import epiage.bifurcation as bifurcation

        original = bifurcation.simulate
        kept = []

        def recording(*args, **kwargs):
            trajectory = original(*args, **kwargs)
            kept.append(trajectory.field.times.size)
            return trajectory

        monkeypatch.setattr(bifurcation, "simulate", recording)
        _, large = find_fixed_points(rates_bistable, kernel_bistable)
        ages = kernel_bistable.ages
        zero = SteadyState(
            0.0, ages, np.ones_like(ages), np.zeros_like(ages), np.zeros_like(ages), 0.0
        )
        assert stability_probe(rates_bistable, large) == "stable"
        assert stability_probe(rates_bistable, zero) == "stable"
        assert kept == [2, 2, 2]
