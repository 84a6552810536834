"""Age-structured three-compartment epidemic model with nonlinear relapse.

The rescaled fractions (s, i, r) ride an age transport equation with an
infection pressure B(t) that couples all ages through a proportional
mixing density.  The package simulates the system (first-order upwind),
computes its thresholds (R0, RC, dominant growth rate), solves for every
endemic steady state through the fixed-point map of the pressure, and
maps the backward-bifurcation region where two endemic states coexist
below threshold.
"""

from .bifurcation import Branch, DiagramRow, stability_probe, sweep
from .closed_forms import (
    RegionReport,
    amplification_exact,
    bifurcation_region,
    closed_form_profiles,
    fixed_points_exact,
    r0_rc_exact,
)
from .config import InitialSpec, RunConfig, cosine_bump, parse_config, render_config
from .demography import (
    DemographicKernel,
    analysis_kernel,
    refine_kernel,
    stationary_mixing,
    survival,
    total_population,
    truncation_age,
)
from .errors import (
    ConfigError,
    DomainError,
    ModelError,
    NumericsError,
    ParameterError,
    ShapeError,
    TimeStepError,
    ToleranceError,
)
from .grids import GridSpec, QuadratureGrid
from .parameters import ConstantRates, ParameterSet, ValidationReport, validate
from .presets import PRESETS, preset_config, run_config, run_preset
from .profiles import AgeProfile, as_profile, profile_sum
from .steady import (
    SteadyState,
    amplification,
    find_fixed_points,
    induced_pressure,
    infected_profile,
    recovered_profile,
    susceptible_profile,
)
from .thresholds import (
    ThresholdReport,
    classify,
    dominant_growth_rate,
    euler_lotka,
    r0,
    rc,
)
from .transport import (
    StateField,
    TimeStepReport,
    Trajectory,
    simulate,
    stable_timestep,
)

__version__ = "0.1.0"
