"""Build backward-bifurcation diagram data by sweeping the transmission rate.

Each swept value yields the reproduction number and every endemic branch.
Crossing the fold threshold (about 16.8/yr here) turns on two branches;
crossing R0 = 1 (beta = 73.0125) leaves a single one.  Writes the diagram
to diagram.csv next to this script and prints the branch structure, with
any row error (a failed closed-form cross-check) next to its branches,
and the stability tags of one bistable value.
"""

from pathlib import Path

import numpy as np

from epiage import ConstantRates, sweep
from epiage.io import write_diagram

base = ConstantRates(mu=0.0125, beta=60.0, phi=60.0, gamma=13.0, rho=76.65)

values = [5.0, 10.0, 16.0, 18.0, 25.0, 40.0, 60.0, 73.0, 74.0, 90.0, 120.0]
rows = sweep(base, "beta", values)

print(f"{'beta':>8} {'R0':>10} branches (pressure values)")
for row in rows:
    branch_text = ", ".join(f"{b.b_star:.5g}" for b in row.branches) or "-"
    if row.error is not None:
        branch_text += f"  [error: {row.error}]"
    print(f"{row.swept_value:8.2f} {row.r0:10.5f} {branch_text}")

out = Path(__file__).with_name("diagram.csv")
write_diagram(out, rows, ages=np.linspace(0.0, 100.0, 201))
print(f"\nwrote {out}")

print("\nstability of the two branches at beta = 60 (eigenvalues of the linearised upwind step):")
probed = sweep(base, "beta", [60.0], probe=True)
for branch in probed[0].branches:
    print(f"  B* = {branch.b_star:.6g}: {branch.stability}")
