"""Named desk-scale experiments and their artifact emission.

Every preset writes, into the chosen output directory:

    report.txt          R0, RC, dominant growth rate, region
    initial.csv         the initial fractions on the age grid
    trajectory.csv      stored (t, a, s, i, r) rows
    b_series.csv        the pressure at every time node
    steady_states.csv   every endemic steady state of the preset's rates

The three constant-rate regimes use the drinking-dynamics magnitudes
(exit 0.0125, treatment 60, recovery 13, relapse 76.65 per year) with
transmission 0.011 / 60 / 120 selecting extinction, bistability, and the
endemic region.  The bistable pair shares its rates and differs only in
the initial bump: the large bump converges to the upper fixed point, the
small one dies out.  ``agedep`` runs bundled age-dependent profiles whose
relapse rate exceeds transmission over the older age groups.
"""

from __future__ import annotations

from pathlib import Path

from . import io
from .config import InitialSpec, RunConfig
from .demography import analysis_kernel
from .errors import ParameterError
from .grids import GridSpec
from .parameters import ConstantRates, ParameterSet
from .steady import find_fixed_points
from .thresholds import classify
from .transport import auto_time_steps, simulate

_DRINKING = dict(mu=0.0125, phi=60.0, gamma=13.0, rho=76.65)

AGE_DEPENDENT_RATES = dict(
    mu=[(0.0, 0.011), (40.0, 0.012), (70.0, 0.02), (100.0, 0.06)],
    beta=[(0.0, 5.0), (15.0, 75.0), (35.0, 70.0), (60.0, 15.0), (100.0, 5.0)],
    phi=[(0.0, 35.0), (30.0, 50.0), (60.0, 45.0), (100.0, 35.0)],
    gamma=[(0.0, 13.0)],
    rho=[(0.0, 20.0), (25.0, 65.0), (40.0, 85.0), (60.0, 80.0), (100.0, 40.0)],
    contact=[(0.0, 0.6), (20.0, 1.2), (45.0, 1.0), (70.0, 0.5), (100.0, 0.3)],
)


def _constant_config(beta, age_max, da, initial, time_max=10.0):
    rates = ConstantRates(beta=beta, **_DRINKING)
    params = rates.to_parameter_set()
    n_age = round(age_max / da)
    n_time = auto_time_steps(params, age_max, time_max, n_age)
    grid = GridSpec(age_max, time_max, n_age, n_time)
    # fine grids keep ~64 stored rows so trajectory files stay reviewable
    stride = "auto" if n_age <= 400 else max(1, n_time // 64)
    return RunConfig(
        params=params,
        rates=rates,
        grid=grid,
        mixing="stationary",
        initial=initial,
        stride=stride,
    )


def _agedep_config():
    params = ParameterSet(**{k: v for k, v in AGE_DEPENDENT_RATES.items()})
    age_max, da, time_max = 100.0, 0.25, 10.0
    n_age = round(age_max / da)
    n_time = auto_time_steps(params, age_max, time_max, n_age)
    grid = GridSpec(age_max, time_max, n_age, n_time)
    initial = InitialSpec(kind="bump", amplitude=0.9, center=50.0, width=50.0)
    return RunConfig(params=params, rates=None, grid=grid, mixing="stationary", initial=initial)


def preset_config(name: str) -> RunConfig:
    """Configuration of a named preset (see PRESETS for the names)."""
    if name == "extinction":
        return _constant_config(
            beta=0.011,
            age_max=100.0,
            da=0.5,
            initial=InitialSpec(kind="bump", amplitude=0.5, center=20.0, width=5.0),
        )
    if name == "bistable-high":
        return _constant_config(
            beta=60.0,
            age_max=200.0,
            da=0.05,
            initial=InitialSpec(kind="bump", amplitude=0.9, center=50.0, width=50.0),
        )
    if name == "bistable-low":
        return _constant_config(
            beta=60.0,
            age_max=200.0,
            da=0.05,
            initial=InitialSpec(
                kind="bump", amplitude=0.9e-3, center=50.0, width=50.0
            ),
        )
    if name == "endemic":
        return _constant_config(
            beta=120.0,
            age_max=200.0,
            da=0.05,
            initial=InitialSpec(kind="bump", amplitude=0.5, center=20.0, width=5.0),
        )
    if name == "agedep":
        return _agedep_config()
    raise ParameterError(f"unknown preset {name!r}; choose one of {sorted(PRESETS)}")


PRESETS = ("extinction", "bistable-high", "bistable-low", "endemic", "agedep")


def run_config(config: RunConfig, out_dir, tol: float = 1e-10) -> dict:
    """Execute a full run (thresholds, simulation, steady states) to disk."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = {}

    kernel = analysis_kernel(config.params)
    report = classify(config.params, kernel, tol=max(tol, 1e-9))
    written["report"] = io.write_report(out / "report.txt", report)

    ages = config.grid.age_nodes()
    s0, i0, r0 = config.initial.rows(ages)
    written["initial"] = io.write_initial(out / "initial.csv", ages, s0, i0, r0)

    trajectory = simulate(
        config.params,
        (s0, i0, r0),
        config.grid,
        mixing=config.mixing,
        store=config.stride,
    )
    written["trajectory"] = io.write_trajectory(out / "trajectory.csv", trajectory.field)
    written["b_series"] = io.write_b_series(
        out / "b_series.csv", config.grid.time_nodes(), trajectory.b_series
    )

    states = find_fixed_points(config.params, kernel, tol=tol)
    written["steady_states"] = io.write_steady_states(
        out / "steady_states.csv", states
    )
    written["_trajectory_object"] = trajectory
    written["_states"] = states
    written["_report"] = report
    return written


def run_preset(name: str, out_dir, tol: float = 1e-10) -> dict:
    """Run a named preset; artifacts land in ``out_dir``.

    Runs are deterministic: repeating one produces identical files.
    """
    return run_config(preset_config(name), out_dir, tol=tol)
