"""Named desk-scale experiments and the run phases that write artifacts.

A run is a fixed list of phases over one configuration; each phase
computes one stage of the pipeline and writes its files into the output
directory:

    thresholds      report.txt          R0, RC, dominant growth rate, region
    simulation      initial.csv         the initial fractions on the age grid
                    trajectory.csv      stored (t, a, s, i, r) rows: about
                                        400 ages (every ``n_age // 400``-th
                                        and the last), and about 64 time
                                        rows in a preset
                    b_series.csv        the pressure at every time node
    steady states   steady_states.csv   every endemic steady state
    sweep           diagram.csv         the bifurcation diagram of [sweep]

``run_config`` (and so every preset) runs the first three; the CLI's
config subcommands each run a fixed subset (see ``cli``).  The simulation
phase runs ``simulate`` to its end and then writes its tables, all in the
calling process; ``written["_trajectory_object"]`` holds the rows written.

The three constant-rate regimes use the drinking-dynamics magnitudes
(exit 0.0125, treatment 60, recovery 13, relapse 76.65 per year) with
transmission 0.011 / 60 / 120 selecting extinction, bistability, and the
endemic region.  The bistable pair shares its rates and differs only in
the initial bump: the large bump converges to the upper fixed point, the
small one dies out.  ``agedep`` runs bundled age-dependent profiles whose
relapse rate exceeds transmission over the older age groups.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import io
from .bifurcation import sweep
from .config import InitialSpec, RunConfig
from .demography import analysis_kernel
from .errors import ModelError, ParameterError
from .grids import GridSpec
from .parameters import ConstantRates, ParameterSet, as_parameter_set
from .steady import _check_tolerance, find_fixed_points
from .thresholds import classify
from .transport import StateField, auto_time_steps, simulate

#: the growth-rate equation is solved to max(tol, this)
_GROWTH_TOL_FLOOR = 1e-9

_DRINKING = dict(mu=0.0125, phi=60.0, gamma=13.0, rho=76.65)

AGE_DEPENDENT_RATES = dict(
    mu=[(0.0, 0.011), (40.0, 0.012), (70.0, 0.02), (100.0, 0.06)],
    beta=[(0.0, 5.0), (15.0, 75.0), (35.0, 70.0), (60.0, 15.0), (100.0, 5.0)],
    phi=[(0.0, 35.0), (30.0, 50.0), (60.0, 45.0), (100.0, 35.0)],
    gamma=[(0.0, 13.0)],
    rho=[(0.0, 20.0), (25.0, 65.0), (40.0, 85.0), (60.0, 80.0), (100.0, 40.0)],
    contact=[(0.0, 0.6), (20.0, 1.2), (45.0, 1.0), (70.0, 0.5), (100.0, 0.3)],
)


def _config(rates, age_max, da, amplitude, center, width, time_max=10.0):
    """Stationary-mixing run of ``rates`` from a cos^2 bump of infection."""
    params = as_parameter_set(rates)
    n_age = round(age_max / da)
    n_time = auto_time_steps(params, age_max, time_max, n_age)
    # ~64 stored rows so trajectory files stay reviewable
    stride = max(1, n_time // 64)
    return RunConfig(
        params=params,
        grid=GridSpec(age_max, time_max, n_age, n_time),
        initial=InitialSpec(kind="bump", amplitude=amplitude, center=center, width=width),
        stride=stride,
    )


def preset_config(name: str) -> RunConfig:
    """Configuration of a named preset (see PRESETS for the names)."""
    if name == "extinction":
        return _config(ConstantRates(beta=0.011, **_DRINKING), 100.0, 0.5, 0.5, 20.0, 5.0)
    if name == "bistable-high":
        return _config(ConstantRates(beta=60.0, **_DRINKING), 200.0, 0.05, 0.9, 50.0, 50.0)
    if name == "bistable-low":
        return _config(ConstantRates(beta=60.0, **_DRINKING), 200.0, 0.05, 0.9e-3, 50.0, 50.0)
    if name == "endemic":
        return _config(ConstantRates(beta=120.0, **_DRINKING), 200.0, 0.05, 0.5, 20.0, 5.0)
    if name == "agedep":
        return _config(ParameterSet(**AGE_DEPENDENT_RATES), 100.0, 0.25, 0.9, 50.0, 50.0)
    raise ParameterError(f"unknown preset {name!r}; choose one of {sorted(PRESETS)}")


PRESETS = ("extinction", "bistable-high", "bistable-low", "endemic", "agedep")


class _Run:
    """What the phases of one run share.

    ``written`` maps each artifact to its path, and ``_report``,
    ``_trajectory_object``, ``_states`` and ``_rows`` to the objects the
    phases computed; the analysis kernel is built once, on first use.
    """

    def __init__(self, config: RunConfig, out_dir, tol: float):
        self.config = config
        self.tol = tol
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.written = {}

    @cached_property
    def kernel(self):
        return analysis_kernel(self.config.params)


def _thresholds(run: _Run):
    report = classify(run.config.params, run.kernel, tol=max(run.tol, _GROWTH_TOL_FLOOR))
    run.written["report"] = io.write_report(run.out / "report.txt", report)
    run.written["_report"] = report


def _simulation(run: _Run):
    config = run.config
    grid = config.grid
    ages = grid.age_nodes()
    s0, i0, r0 = config.initial.rows(ages)
    run.written["initial"] = io.write_initial(run.out / "initial.csv", ages, s0, i0, r0)
    trajectory = simulate(config.params, (s0, i0, r0), grid, store=config.stride)
    # ~400 stored ages so trajectory files stay reviewable
    keep = np.append(np.arange(0, grid.n_age, max(1, grid.n_age // 400)), grid.n_age)
    full = trajectory.field
    field = StateField(full.times, ages[keep], full.s[:, keep], full.i[:, keep], full.r[:, keep])
    trajectory = replace(trajectory, field=field)
    del full  # every stored age: freed before the tables are written
    run.written["trajectory"] = io.write_trajectory(run.out / "trajectory.csv", field)
    run.written["b_series"] = io.write_b_series(
        run.out / "b_series.csv", grid.time_nodes(), trajectory.b_series
    )
    run.written["_trajectory_object"] = trajectory


def _steady(run: _Run):
    states = find_fixed_points(run.config.params, run.kernel, tol=run.tol)
    run.written["steady_states"] = io.write_steady_states(
        run.out / "steady_states.csv", states
    )
    run.written["_states"] = states


def _diagram(run: _Run):
    config = run.config
    if not config.sweep_param:
        raise ModelError("config needs a [sweep] section for this command")
    rows = sweep(
        config.params,
        config.sweep_param,
        sorted(config.sweep_values),
        tol=run.tol,
        probe=config.sweep_probe,
    )
    run.written["diagram"] = io.write_diagram(
        run.out / "diagram.csv", rows, ages=config.grid.age_nodes()
    )
    run.written["_rows"] = rows


def _run(config: RunConfig, out_dir, tol: float, phases) -> dict:
    """Run ``phases`` in order on one config; returns their ``written`` map."""
    _check_tolerance(tol, "tol")  # before any phase writes a file
    run = _Run(config, out_dir, tol)
    for phase in phases:
        phase(run)
    return run.written


def run_config(config: RunConfig, out_dir, tol: float = 1e-10) -> dict:
    """Execute a full run (thresholds, simulation, steady states) to disk."""
    return _run(config, out_dir, tol, (_thresholds, _simulation, _steady))


def run_preset(name: str, out_dir, tol: float = 1e-10) -> dict:
    """Run a named preset; artifacts land in ``out_dir``.

    Runs are deterministic: repeating one produces identical files.
    """
    return run_config(preset_config(name), out_dir, tol=tol)
