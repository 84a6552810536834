"""Map the backward-bifurcation region for constant rates.

With constant rates the amplification factor of the fixed-point map is a
rational function of the assumed pressure B, and its unit crossings solve
a quadratic.  Two endemic states coexist below threshold (R0 < 1) exactly
when that quadratic has two roots in (0, 1).  In the relapse-dominant
plane mapped here (rho above phi + gamma, small mu) this is the paper's
test: R0 < 1 < RC and the transmission rate clears an explicit bound
built from the relapse and treatment rates.

The script prints the amplification curve for the reference bistable
rates, the quadratic's roots, and a slice of the region map over the
(transmission, relapse) plane.
"""

import numpy as np

from epiage import (
    ConstantRates,
    amplification_exact,
    bifurcation_region,
    fixed_points_exact,
)

rates = ConstantRates(mu=0.0125, beta=60.0, phi=60.0, gamma=13.0, rho=76.65)

print("amplification factor for the reference bistable rates:")
for B in np.geomspace(1e-5, 1.0, 11):
    marker = " <-- crosses 1" if abs(amplification_exact(B, rates) - 1) < 0.05 else ""
    print(f"  B = {B:10.3e}: {amplification_exact(B, rates):8.5f}{marker}")

roots = fixed_points_exact(rates)
print(f"\nfixed-point pressures: {[f'{b:.6g}' for b in roots]}")
region = bifurcation_region(rates)
print(
    f"region {region.region} (R0 = {region.r0:.4f}, RC = {region.rc:.0f}, "
    f"beta threshold = {region.beta_threshold:.2f})"
)

print("\nregion map over (beta, rho), exit pressure fixed at 73/yr:")
rhos = np.linspace(75.0, 95.0, 6)
betas = np.linspace(5.0, 120.0, 12)
header = "beta\\rho " + " ".join(f"{r:6.1f}" for r in rhos)
print(header)
for beta in betas:
    row = []
    for rho in rhos:
        rates_ij = ConstantRates(mu=0.0125, beta=beta, phi=60.0, gamma=13.0, rho=rho)
        row.append(str(bifurcation_region(rates_ij).region))
    print(f"{beta:8.1f} " + " ".join(f"{r:>6}" for r in row))
print("\n1 = infection-free only, 2 = bistable (backward bifurcation), 3 = endemic")
