"""Mixing density rebuilt from a transient total population.

The solver's default (stationary mixing) assumes the population already
sits at its demographic steady state, where the mixing density is fixed.
Given an initial total population n0, the density p(t, a) is instead
rebuilt each step from the total population carried along
characteristics.  This script runs the same epidemic both ways, first
with n0 a fine table of the steady population (the pressures then agree
to the table's interpolation error, about 1e-14) and then with a
younger-than-steady initial population where they genuinely differ.
"""

import numpy as np

from epiage import (
    AgeProfile,
    ConstantRates,
    GridSpec,
    cosine_bump,
    simulate,
    survival,
    total_population,
    validate,
)
from epiage.transport import auto_time_steps

rates = ConstantRates(mu=0.0125, beta=60.0, phi=60.0, gamma=13.0, rho=76.65)
params = rates.to_parameter_set()

age_max, time_max, da = 100.0, 2.0, 0.25
n_age = round(age_max / da)
grid = GridSpec(age_max, time_max, n_age, auto_time_steps(rates, age_max, time_max, n_age))
nodes = grid.age_nodes()
i0 = cosine_bump(nodes, 0.4, 30.0, 15.0)
initial = (1.0 - i0, i0, np.zeros_like(nodes))

stationary = simulate(rates, initial, grid)
table = np.linspace(0.0, age_max, 40001)
steady_n0 = AgeProfile(table, params.birth_rate * survival(params, table))
full_steady = simulate(rates, initial, grid, n0=steady_n0)
gap = np.abs(stationary.b_series - full_steady.b_series).max()
print(f"steady population: stationary vs rebuilt mixing max |dB| = {gap:.2e}")

# a younger population: steady shape tilted toward low ages
young = AgeProfile(nodes, survival(params, nodes) * (1.0 + np.exp(-nodes / 15.0)))
report = validate(params, young)
print(f"young n0 compatible with the birth inflow at age 0? {report.compatible}")

full_young = simulate(rates, initial, grid, n0=young)
print(f"{'t':>6} {'B stationary':>14} {'B full(young n0)':>17}")
times = grid.time_nodes()
for t_probe in (0.0, 0.5, 1.0, 2.0):
    j = np.searchsorted(times, t_probe)
    print(f"{t_probe:6.2f} {stationary.b_series[j]:14.6g} {full_young.b_series[j]:17.6g}")

print("\ntotal population along characteristics (young n0):")
for (t, a) in ((0.0, 30.0), (10.0, 30.0), (40.0, 30.0)):
    print(f"  n(t={t:5.1f}, a={a:4.1f}) = {total_population(params, young, t, a):.5f}")
