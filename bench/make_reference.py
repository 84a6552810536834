"""Recompute the `agedep` preset's reference values apart from epiage.

Usage, from the repository root:

    python3 bench/make_reference.py

It rewrites bench/agedep_reference.json (about 16 s on one core).  Only
the preset's rate tables come from the program; every number is computed
here from the model equations with scipy:

* the age domain is [0, A] with survival(A) = SURVIVAL_CUTOFF, A found by
  brentq on the exact integral of the piecewise-linear exit rate;
* every integral is an extra component of one Radau integration, split
  at the rate knots so each piece has smooth coefficients;
* R0 = G(0) and the growth rate solves G(lam) = 1, where
  G(lam) = int p W, W' = beta - (lam + phi + gamma) W, W(0) = 0;
* RC = int p(a) int_0^a beta;
* the endemic pressures solve induced(B) = B, where induced(B) is the
  quadrature of i against the mixing density p = contact F / int contact F
  for the frozen-pressure steady system (s' = -B beta s,
  r' = (phi+gamma) i - B rho r, i = 1 - s - r); each sign change of
  induced(B)/B - 1 on a geometric scan is refined with brentq.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

ROOT = Path(__file__).resolve().parents[1]
OUT = Path(__file__).resolve().with_name("agedep_reference.json")

SURVIVAL_CUTOFF = 1e-6
RTOL, ATOL = 1e-10, 1e-15
SCAN = np.geomspace(1e-7, 1.0, 22)


class Rates:
    """Piecewise-linear rate tables, held constant beyond their end knots."""

    def __init__(self, tables):
        self.tables = {k: np.asarray(v, dtype=float) for k, v in tables.items()}
        self.knots = np.unique(np.concatenate([t[:, 0] for t in self.tables.values()]))

    def on_piece(self, lo, hi):
        """Rates on [lo, hi] (no knot inside) as functions of age."""
        ends = {k: np.interp([lo, hi], t[:, 0], t[:, 1]) for k, t in self.tables.items()}
        slopes = {k: (v[1] - v[0]) / (hi - lo) for k, v in ends.items()}

        def rate(name, a):
            return ends[name][0] + slopes[name] * (a - lo)

        return rate

    def cumulative(self, name, a):
        """Exact integral over [0, a] of the clamped linear interpolant."""
        table = self.tables[name]
        inside = table[:, 0][(table[:, 0] > 0.0) & (table[:, 0] < a)]
        ages = np.unique(np.concatenate([[0.0, a], inside]))
        values = np.interp(ages, table[:, 0], table[:, 1])
        return float(np.sum(0.5 * (values[1:] + values[:-1]) * np.diff(ages)))


def truncation_age(rates):
    target = math.log(1.0 / SURVIVAL_CUTOFF)
    hi = 1.0
    while rates.cumulative("mu", hi) < target:
        hi *= 2.0
    return brentq(lambda a: rates.cumulative("mu", a) - target, 0.0, hi, xtol=1e-14, rtol=1e-15)


def integrate(system, y0, rates, age_max):
    """Radau from 0 to age_max, restarted at every rate knot.

    ``system(rate)`` returns the right-hand side and its Jacobian for the
    rates of one piece.
    """
    edges = np.unique(np.concatenate([[0.0], rates.knots[rates.knots < age_max], [age_max]]))
    y = np.asarray(y0, dtype=float)
    for lo, hi in zip(edges[:-1], edges[1:]):
        rhs, jac = system(rates.on_piece(lo, hi))
        sol = solve_ivp(rhs, (lo, hi), y, method="Radau", jac=jac, rtol=RTOL, atol=ATOL)
        if not sol.success:
            raise RuntimeError(sol.message)
        y = sol.y[:, -1]
    return y


def growth_function(rates, age_max, lam):
    """G(lam) and, as extra outputs, RC (for lam = 0 the first is R0)."""

    def system(rate):
        def rhs(a, y):
            w, cum_beta, surv = y[:3]
            beta, weight = rate("beta", a), rate("contact", a) * surv
            decay = lam + rate("phi", a) + rate("gamma", a)
            return [beta - decay * w, beta, -rate("mu", a) * surv,
                    weight, w * weight, cum_beta * weight]

        def jac(a, y):
            w, cum_beta, surv = y[:3]
            contact = rate("contact", a)
            out = np.zeros((6, 6))
            out[0, 0] = -(lam + rate("phi", a) + rate("gamma", a))
            out[2, 2] = -rate("mu", a)
            out[3, 2] = contact
            out[4, 0], out[4, 2] = contact * surv, contact * w
            out[5, 1], out[5, 2] = contact * surv, contact * cum_beta
            return out

        return rhs, jac

    y = integrate(system, [0.0, 0.0, 1.0, 0.0, 0.0, 0.0], rates, age_max)
    return y[4] / y[3], y[5] / y[3]


def induced_pressure(rates, age_max, B):
    def system(rate):
        def rhs(a, y):
            s, r, surv = y[:3]
            i = 1.0 - s - r
            weight = rate("contact", a) * surv
            pg = rate("phi", a) + rate("gamma", a)
            return [-B * rate("beta", a) * s, pg * i - B * rate("rho", a) * r,
                    -rate("mu", a) * surv, weight, i * weight]

        def jac(a, y):
            s, r, surv = y[:3]
            pg, contact = rate("phi", a) + rate("gamma", a), rate("contact", a)
            out = np.zeros((5, 5))
            out[0, 0] = -B * rate("beta", a)
            out[1, 0], out[1, 1] = -pg, -pg - B * rate("rho", a)
            out[2, 2] = -rate("mu", a)
            out[3, 2] = contact
            out[4, 0] = out[4, 1] = -contact * surv
            out[4, 2] = (1.0 - s - r) * contact
            return out

        return rhs, jac

    y = integrate(system, [1.0, 0.0, 1.0, 0.0, 0.0], rates, age_max)
    return y[4] / y[3]


def main():
    sys.path.insert(0, str(ROOT / "src"))
    from epiage.presets import AGE_DEPENDENT_RATES

    tables = {k: [list(map(float, p)) for p in v] for k, v in AGE_DEPENDENT_RATES.items()}
    rates = Rates(tables)
    age_max = truncation_age(rates)

    r0, rc = growth_function(rates, age_max, 0.0)

    def g_minus_one(lam):
        return growth_function(rates, age_max, lam)[0] - 1.0

    lo, hi = (-1.0, 0.0) if r0 < 1.0 else (0.0, 1.0)
    while np.sign(g_minus_one(lo)) == np.sign(g_minus_one(hi)):
        lo, hi = (2.0 * lo, lo) if r0 < 1.0 else (hi, 2.0 * hi)
    growth = brentq(g_minus_one, lo, hi, xtol=1e-11, rtol=1e-12)
    step = 1e-5
    slope = (g_minus_one(growth + step) - g_minus_one(growth - step)) / (2.0 * step)

    def excess(B):
        return induced_pressure(rates, age_max, B) / B - 1.0

    values = [excess(B) for B in SCAN]
    roots = []
    for k in range(len(SCAN) - 1):
        if values[k] * values[k + 1] < 0:
            roots.append(brentq(excess, SCAN[k], SCAN[k + 1], xtol=1e-14, rtol=1e-12))

    reference = {
        "preset": "agedep",
        "rates": tables,
        "survival_cutoff": SURVIVAL_CUTOFF,
        "age_max": age_max,
        "r0": r0,
        "rc": rc,
        "growth_rate": growth,
        "growth_slope": slope,
        "roots": roots,
        "method": "scipy Radau (rtol 1e-10, atol 1e-15) split at rate knots; brentq",
    }
    OUT.write_text(json.dumps(reference, indent=2) + "\n")
    print(json.dumps({k: reference[k] for k in ("age_max", "r0", "rc", "growth_rate", "roots")}))


if __name__ == "__main__":
    main()
