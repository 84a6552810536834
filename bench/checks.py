"""Output checks that do not rely on epiage's own numerics.

Every check returns a list of problems, each a ``(code, message)`` pair;
an empty list means the output passed.  The codes let a named program
fault declare which failures it explains (see ``workloads.FAULTS``).

The constant-rate oracles here are derived afresh from the model:

* roots of amplification(B) = 1 solve
  B^2 + (mu/beta + (mu+pg)/rho - 1) B + (mu/rho)((mu+pg)/beta - 1) = 0,
  with pg = phi + gamma;
* with s = exp(-B beta a) and K = pg + B rho, the recovered fraction is
  r = pg ((1 - e^{-K a})/K - (e^{-B beta a} - e^{-K a})/(K - B beta));
* on the truncated age domain [0, A] with survival e^{-mu A} = CUTOFF and
  density mu e^{-mu a} / (1 - e^{-mu A}), the growth function is
  G_A(lam) = beta (E - mu (1 - e^{-(mu+k) A})/(mu+k)) / (k E),
  k = lam + pg, E = 1 - e^{-mu A}; R0 = G_A(0) and
  RC = beta (1/mu - A e^{-mu A}/E).  On [0, inf) these become
  beta/(mu+pg), beta/mu and the growth rate beta - mu - pg.
"""

from __future__ import annotations

import math
from itertools import islice

import numpy as np

#: survival level at which the analysis kernel truncates the age domain
CUTOFF = 1e-6
#: share of beta/mu that RC loses on [0, A]: mu A e^{-mu A} / (1 - e^{-mu A})
RC_SHARE = CUTOFF * math.log(1.0 / CUTOFF) / (1.0 - CUTOFF)
#: relative stopping rule of the program's Richardson refinement
QUADRATURE_RTOL = 1e-8
#: absolute accuracy required of every fixed point and steady profile
ROOT_TOL = 1e-8
#: trajectory invariants
SUM_TOL = 1e-12
NEGATIVE_TOL = -1e-14


def quadratic_roots(mu, beta, pg, rho):
    """Endemic pressures in (0, 1), cancellation-free."""
    b = mu / beta + (mu + pg) / rho - 1.0
    c = (mu / rho) * ((mu + pg) / beta - 1.0)
    disc = b * b - 4.0 * c
    if disc < 0:
        return []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    roots = [q, c / q] if q != 0.0 else [0.0, -b]
    return sorted(x for x in roots if 0.0 < x < 1.0)


def steady_profiles(B, mu, beta, pg, rho, ages):
    """Closed-form (s, i, r) of the frozen-pressure steady system."""
    a = np.asarray(ages, dtype=float)
    rate_s = B * beta
    rate_k = pg + B * rho
    d = rate_k - rate_s
    s = np.exp(-rate_s * a)
    if d == 0.0:
        gap = a * np.exp(-rate_k * a)
    else:
        # (e^{-rate_s a} - e^{-rate_k a}) / d, evaluated without cancellation
        gap = np.exp(-min(rate_s, rate_k) * a) * -np.expm1(-abs(d) * a) / abs(d)
    r = pg * (-np.expm1(-rate_k * a) / rate_k - gap)
    return s, 1.0 - s - r, r


def truncation_age(mu):
    return math.log(1.0 / CUTOFF) / mu


def growth_function(lam, mu, beta, pg, age_max):
    """G_A(lam) for constant rates on [0, age_max]."""
    k = lam + pg
    e = -math.expm1(-mu * age_max)
    tail = mu * -math.expm1(-(mu + k) * age_max) / (mu + k)
    return beta * (e - tail) / (k * e)


def constant_thresholds(mu, beta, pg):
    """Infinite-domain values and the shares truncation to [0, A] moves them.

    The growth root on [0, A] is found by bisection on the monotone G_A
    inside a bracket where k = lam + pg and mu + k keep their signs.
    """
    age_max = truncation_age(mu)
    lam_inf = beta - mu - pg
    half = 0.5 * min(abs(beta - mu), beta)
    lo, hi = lam_inf - half, lam_inf + half
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if growth_function(mid, mu, beta, pg, age_max) > 1.0:
            lo = mid
        else:
            hi = mid
    lam_a = 0.5 * (lo + hi)
    step = 1e-3 * half
    slope = (
        growth_function(lam_a + step, mu, beta, pg, age_max)
        - growth_function(lam_a - step, mu, beta, pg, age_max)
    ) / (2.0 * step)
    r0_inf = beta / (mu + pg)
    return {
        "age_max": age_max,
        "r0": r0_inf,
        "r0_share": abs(growth_function(0.0, mu, beta, pg, age_max) / r0_inf - 1.0),
        "rc": beta / mu,
        "rc_share": RC_SHARE,
        "growth_rate": lam_inf,
        "growth_share": abs(lam_a - lam_inf),
        "growth_slope": slope,
    }


def expected_region(r0, rc):
    if rc < 1.0:
        return "extinction"
    if r0 > 1.0:
        return "endemic"
    return "bistable-candidate"


def check_report_properties(report, n_roots):
    """Properties any run has, whatever its rates."""
    problems = []
    if np.sign(report.growth_rate) != np.sign(report.r0 - 1.0):
        problems.append(("growth-sign", f"growth rate {report.growth_rate!r} vs R0 {report.r0!r}"))
    if n_roots % 2 != (1 if report.r0 > 1.0 else 0):
        problems.append(("parity", f"{n_roots} roots with R0 = {report.r0!r}"))
    return problems


def check_thresholds(report, rates, tol):
    """R0, RC, growth rate and region of a constant-rate set.

    ``tol`` is the growth-equation tolerance the program was asked for;
    its bisection stops at |G - 1| <= tol with G computed to a relative
    tol / 10, so the root is off by at most 2 tol / |G'|.
    """
    mu, beta, pg = rates.mu, rates.beta, rates.phi + rates.gamma
    ref = constant_thresholds(mu, beta, pg)
    problems = []
    for key in ("r0", "rc"):
        value = getattr(report, key)
        if abs(value / ref[key] - 1.0) > QUADRATURE_RTOL + ref[key + "_share"]:
            problems.append((key, f"{key} = {value!r}, closed form {ref[key]!r}"))
    allowed = ref["growth_share"] + 2.0 * tol / abs(ref["growth_slope"])
    if abs(report.growth_rate - ref["growth_rate"]) > allowed:
        problems.append(
            ("growth-rate", f"growth rate {report.growth_rate!r}, closed form {ref['growth_rate']!r}")
        )
    region = expected_region(ref["r0"], ref["rc"])
    if report.region != region:
        problems.append(("region", f"region {report.region!r}, expected {region!r}"))
    return problems


def check_domain(ages, mu):
    age_max = truncation_age(mu)
    if abs(ages[-1] - age_max) > 1e-9 * age_max or ages[0] != 0.0:
        return [("domain", f"age domain [{ages[0]!r}, {ages[-1]!r}], expected [0, {age_max!r}]")]
    return []


def check_constant_states(states, rates, tol):
    """Roots against the quadratic, profiles against the closed form."""
    mu, beta, pg, rho = rates.mu, rates.beta, rates.phi + rates.gamma, rates.rho
    roots = quadratic_roots(mu, beta, pg, rho)
    found = [state.b_star for state in states]
    if len(found) != len(roots):
        return [("root-count", f"roots {found!r}, quadratic {roots!r}")]
    problems = []
    for state, root in zip(states, roots):
        if abs(state.b_star - root) > ROOT_TOL:
            problems.append(("root-value", f"root {state.b_star!r}, quadratic {root!r}"))
        if abs(state.residual) > tol * state.b_star:
            problems.append(("residual", f"residual {state.residual!r} at {state.b_star!r}"))
        expect = steady_profiles(state.b_star, mu, beta, pg, rho, state.ages)
        worst = max(float(np.max(np.abs(got - want))) for got, want in zip((state.s, state.i, state.r), expect))
        if not worst <= ROOT_TOL:
            problems.append(("profile", f"profile off by {worst:.3g} at B = {state.b_star!r}"))
    return problems


def check_field(field):
    """Conservation and positivity of every stored trajectory row."""
    total = field.s + field.i + field.r
    problems = []
    worst = float(np.max(np.abs(total - 1.0)))
    if not worst <= SUM_TOL:
        problems.append(("conservation", f"max |s+i+r-1| = {worst:.3g}"))
    lowest = float(min(field.s.min(), field.i.min(), field.r.min()))
    if not lowest >= NEGATIVE_TOL:
        problems.append(("positivity", f"smallest stored value {lowest:.3g}"))
    return problems


def split_rows(lines):
    return [line.rstrip("\r\n").split(",") for line in lines]


def compare_rows(label, rows, expected, first_row=0):
    """Problems where the text ``rows`` do not read back as ``expected``.

    ``expected`` holds one array per column.  Numbers must parse to the
    identical double; text columns (such as stability tags) must match.
    """
    if any(len(row) != len(expected) for row in rows):
        return [("csv", f"{label}: a row near {first_row} has the wrong width")]
    for col, want in enumerate(expected):
        texts = [row[col] for row in rows]
        if want.dtype.kind in "US":
            same = np.asarray(texts) == want
        else:
            same = np.array([float(t) for t in texts]) == want
        if not np.all(same):
            bad = first_row + int(np.argmin(same))
            return [("csv", f"{label}: row {bad} column {col} does not read back")]
    return []


def check_csv(path, header, n_rows, expected, chunk=65536):
    """Every value of a CSV file reads back as exactly the expected double.

    ``expected(lo, hi)`` returns the expected columns of data rows
    [lo, hi); the file is compared chunk by chunk so a large one never
    sits in memory whole.
    """
    with open(path, newline="") as handle:
        first = split_rows(islice(handle, 1))
        if first != [header]:
            return [("csv", f"{path.name}: header {first[:1]!r}")]
        lo = 0
        while rows := split_rows(islice(handle, chunk)):
            hi = lo + len(rows)
            if hi > n_rows:
                return [("csv", f"{path.name}: more than {n_rows} rows")]
            problems = compare_rows(path.name, rows, expected(lo, hi), lo)
            if problems:
                return problems
            lo = hi
    if lo != n_rows:
        return [("csv", f"{path.name}: {lo} rows, expected {n_rows}")]
    return []


def check_report_file(path, report):
    want = {
        "R0": report.r0,
        "RC": report.rc,
        "dominant growth rate": report.growth_rate,
    }
    got = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        got[key] = value
    problems = []
    for key, value in want.items():
        text = got.get(key, "").split(" ")[0]
        if not text or float(text) != value:
            problems.append(("csv", f"report.txt: {key} = {got.get(key)!r}, expected {value!r}"))
    if got.get("region") != report.region:
        problems.append(("csv", f"report.txt: region {got.get('region')!r}"))
    return problems


def check_reference(report, states, reference, tol):
    """Thresholds and fixed points against the stored independent solve."""
    problems = []
    for key in ("r0", "rc"):
        value, want = getattr(report, key), reference[key]
        if abs(value / want - 1.0) > QUADRATURE_RTOL:
            problems.append((key, f"{key} = {value!r}, reference {want!r}"))
    allowed = 2.0 * tol / abs(reference["growth_slope"])
    if abs(report.growth_rate - reference["growth_rate"]) > allowed:
        problems.append(
            ("growth-rate", f"growth rate {report.growth_rate!r}, reference {reference['growth_rate']!r}")
        )
    region = expected_region(reference["r0"], reference["rc"])
    if report.region != region:
        problems.append(("region", f"region {report.region!r}, expected {region!r}"))
    found, roots = [state.b_star for state in states], reference["roots"]
    if len(found) != len(roots):
        return problems + [("root-count", f"roots {found!r}, reference {roots!r}")]
    for got, want in zip(found, roots):
        if abs(got - want) > ROOT_TOL:
            problems.append(("root-value", f"root {got!r}, reference {want!r}"))
    return problems


def expected_tags(n_roots, r0):
    """Stability of each branch: the upper one attracts, a lower one repels."""
    if r0 > 1.0:
        return ["stable"] * n_roots
    return ["unstable", "stable"] if n_roots == 2 else []
