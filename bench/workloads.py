"""The three workloads: inputs made from a seed, timed operations, checks.

Each workload's ``run_round(timer)`` runs one round of its operations,
timing each inside ``timer.op`` and checking its outputs outside the
timed region, and returns one ``Outcome`` per operation.  The program is
called through its module attributes, so a traced run sees every call.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from epiage import bifurcation, demography, io, presets, steady, thresholds
from epiage.parameters import ConstantRates

import checks

DRINKING = dict(mu=0.0125, phi=60.0, gamma=13.0, rho=76.65)
REFERENCE = Path(__file__).with_name("agedep_reference.json")

#: program faults that make one operation fail every time, and the check
#: codes each one explains; an operation tagged with a fault counts as
#: failed, any other failing operation makes the run incorrect
FAULTS = {
    "fold-pair-missed": {"root-count"},
    "truncation-cross-check": {"root-value"},
    "root-below-scan-floor": {"root-count", "parity"},
    "agedep-root-accuracy": {"root-value"},
    "probe-band-vs-scheme": {"stability-tag"},
}

#: tolerances run_config passes on: fixed points to tol, the growth
#: equation to max(tol, 1e-9)
PRESET_TOL = 1e-10
PRESET_GROWTH_TOL = 1e-9
#: steady-scan: classify at its default tolerance, fixed points at 1e-10
SCAN_GROWTH_TOL = 1e-8
SCAN_TOL = 1e-10


@dataclass
class Outcome:
    name: str
    fault: str | None
    problems: list = field(default_factory=list)


def constant_rates(beta, rho=DRINKING["rho"]):
    return ConstantRates(mu=DRINKING["mu"], beta=beta, phi=DRINKING["phi"], gamma=DRINKING["gamma"], rho=rho)


class Presets:
    """The five named presets, each run once through run_config."""

    FAULT_AT = {"agedep": "agedep-root-accuracy"}

    def __init__(self, seed, scratch):
        self.names = [str(n) for n in np.random.default_rng(seed).permutation(presets.PRESETS)]
        self.configs = {name: presets.preset_config(name) for name in self.names}
        self.reference = json.loads(REFERENCE.read_text())
        tables = {k: [list(map(float, p)) for p in v] for k, v in presets.AGE_DEPENDENT_RATES.items()}
        if tables != self.reference["rates"]:
            raise SystemExit(f"{REFERENCE.name} was made for other agedep rates; rerun make_reference.py")
        self.scratch = scratch

    def run_round(self, timer):
        outcomes = []
        for name in self.names:
            out = Path(tempfile.mkdtemp(dir=self.scratch))
            try:
                with timer.op(name):
                    written = presets.run_config(self.configs[name], out, tol=PRESET_TOL)
                problems = self.check(name, written, out)
            finally:
                shutil.rmtree(out)
            outcomes.append(Outcome(name, self.FAULT_AT.get(name), problems))
        return outcomes

    def check(self, name, written, out):
        config = self.configs[name]
        report, states = written["_report"], written["_states"]
        trajectory = written["_trajectory_object"]
        problems = checks.check_report_properties(report, len(states))
        problems += checks.check_field(trajectory.field)
        problems += self.check_files(config, report, states, trajectory, out)
        rates = config.rates
        if rates is None:
            problems += checks.check_reference(report, states, self.reference, PRESET_GROWTH_TOL)
            return problems
        problems += checks.check_thresholds(report, rates, PRESET_GROWTH_TOL)
        problems += checks.check_constant_states(states, rates, PRESET_TOL)
        if states:
            problems += checks.check_domain(states[0].ages, rates.mu)
        final = trajectory.b_series[-1]
        roots = checks.quadratic_roots(rates.mu, rates.beta, rates.phi + rates.gamma, rates.rho)
        if name == "bistable-high" and not abs(final - roots[-1]) <= 0.05 * roots[-1]:
            problems.append(("attractor", f"final pressure {final!r}, upper root {roots[-1]!r}"))
        if name == "bistable-low" and not final < 1e-6:
            problems.append(("attractor", f"final pressure {final!r} did not die out"))
        return problems

    @staticmethod
    def check_files(config, report, states, trajectory, out):
        problems = checks.check_report_file(out / "report.txt", report)
        ages = config.grid.age_nodes()
        initial = (ages, *config.initial.rows(ages))
        problems += checks.check_csv(
            out / "initial.csv", ["a", "s0", "i0", "r0"], ages.size,
            lambda lo, hi: [col[lo:hi] for col in initial],
        )
        f = trajectory.field
        n_ages = f.ages.size

        def trajectory_rows(lo, hi):
            index = np.arange(lo, hi)
            flat = [x.reshape(-1)[lo:hi] for x in (f.s, f.i, f.r)]
            return [f.times[index // n_ages], f.ages[index % n_ages], *flat]

        problems += checks.check_csv(
            out / "trajectory.csv", ["t", "a", "s", "i", "r"], f.s.size, trajectory_rows
        )
        series = (config.grid.time_nodes(), trajectory.b_series)
        problems += checks.check_csv(
            out / "b_series.csv", ["t", "B"], series[1].size,
            lambda lo, hi: [col[lo:hi] for col in series],
        )
        parts = [[] for _ in range(7)]
        for k, st in enumerate(states):
            n = st.ages.size
            block = (np.full(n, float(k)), np.full(n, st.b_star), np.full(n, st.residual), st.ages, st.s, st.i, st.r)
            for column, piece in zip(parts, block):
                column.append(piece)
        columns = [np.concatenate(column) if column else np.empty(0) for column in parts]
        problems += checks.check_csv(
            out / "steady_states.csv", ["branch", "b_star", "residual", "a", "s", "i", "r"],
            columns[0].size, lambda lo, hi: [col[lo:hi] for col in columns],
        )
        return problems


class ProbeSweep:
    """A probed beta sweep at the drinking rates; one operation per row."""

    VALUES = (5.0, 30.0, 40.0, 45.0, 60.0, 72.0, 90.0, 120.0, 200.0)
    FAULT_AT = {30.0: "probe-band-vs-scheme"}

    def __init__(self, seed, scratch):
        self.order = [float(v) for v in np.random.default_rng(seed).permutation(self.VALUES)]
        self.base = constant_rates(60.0)
        self.scratch = scratch

    def run_round(self, timer):
        rows = {}
        for value in self.order:
            with timer.op(f"beta={value:g}"):
                (rows[value],) = bifurcation.sweep(self.base, "beta", [value], probe=True)
        ordered = [rows[v] for v in self.VALUES]
        out = Path(tempfile.mkdtemp(dir=self.scratch))
        try:
            path = out / "diagram.csv"
            with timer.section("write_diagram"):
                io.write_diagram(path, ordered)
            lines = checks.split_rows(path.read_text().splitlines())
        finally:
            shutil.rmtree(out)
        return [
            Outcome(f"beta={value:g}", self.FAULT_AT.get(value), self.check_row(value, row) + csv_problems)
            for value, row, csv_problems in zip(self.VALUES, ordered, self.check_diagram(ordered, lines))
        ]

    @staticmethod
    def check_diagram(rows, lines):
        """Per diagram row, the problems where diagram.csv does not read back."""
        sample_ages = next(row.branches[0].ages for row in rows if row.branches)
        header = ["swept_value", "r0", "branch_index", "b_star", "stability"]
        header += ["i_star@" + format(float(a), ".17g") for a in sample_ages]
        header_problems = [] if lines[:1] == [header] else [("csv", "diagram.csv: header")]
        lines = lines[1:]
        per_row = []
        for row in rows:
            n = len(row.branches)
            mine, lines = lines[:n], lines[n:]
            expected = [
                np.full(n, row.swept_value), np.full(n, row.r0), np.arange(n, dtype=float),
                np.array([b.b_star for b in row.branches]), np.array([b.stability for b in row.branches], dtype=str),
            ]
            profiles = np.empty((n, sample_ages.size))
            for k, branch in enumerate(row.branches):
                profiles[k] = np.interp(sample_ages, branch.ages, branch.infected)
            expected += list(profiles.T)
            per_row.append(header_problems + checks.compare_rows(f"diagram.csv beta={row.swept_value:g}", mine, expected))
        if lines:
            per_row[-1].append(("csv", "diagram.csv: extra rows"))
        return per_row

    def check_row(self, value, row):
        rates = constant_rates(value)
        mu, pg, rho = rates.mu, rates.phi + rates.gamma, rates.rho
        problems = []
        if row.error is not None:
            problems.append(("cross-check", row.error))
        r0 = value / (mu + pg)
        if abs(row.r0 / r0 - 1.0) > 1e-12:
            problems.append(("r0", f"R0 {row.r0!r}, closed form {r0!r}"))
        roots = checks.quadratic_roots(mu, value, pg, rho)
        found = [b.b_star for b in row.branches]
        if len(found) % 2 != (1 if row.r0 > 1.0 else 0):
            problems.append(("parity", f"{len(found)} branches with R0 = {row.r0!r}"))
        if len(found) != len(roots):
            return problems + [("root-count", f"branches {found!r}, quadratic {roots!r}")]
        for branch, root in zip(row.branches, roots):
            if abs(branch.b_star - root) > checks.ROOT_TOL:
                problems.append(("root-value", f"branch {branch.b_star!r}, quadratic {root!r}"))
            _, infected, _ = checks.steady_profiles(branch.b_star, mu, value, pg, rho, branch.ages)
            worst = float(np.max(np.abs(branch.infected - infected)))
            if not worst <= checks.ROOT_TOL:
                problems.append(("profile", f"infected profile off by {worst:.3g}"))
        tags = [b.stability for b in row.branches]
        if tags != checks.expected_tags(len(roots), r0):
            problems.append(("stability-tag", f"tags {tags!r} at beta = {value:g}"))
        return problems


class SteadyScan:
    """Constant-rate sets through analysis_kernel, classify, find_fixed_points.

    Draws are made per region from ranges that keep away from the named
    faults, so that the share of failed operations does not depend on
    the seed: region 1 (no endemic state) with rho below phi + gamma,
    region 2 (two states below threshold) with rho in [78, 130] and R0 in
    [0.45, 0.95], region 3 (one state) with R0 in [1.1, 3].
    """

    NAMED = (
        (16.80367, "fold-pair-missed"),
        (20.0, "truncation-cross-check"),
        (73.0, "root-below-scan-floor"),
    )
    DRAWS = (((20.0, 65.0), (0.05, 0.9)), ((78.0, 130.0), (0.45, 0.95)), ((20.0, 130.0), (1.1, 3.0)))
    PER_REGION = 7

    def __init__(self, seed, scratch):
        rng = np.random.default_rng(seed)
        sets = [(constant_rates(beta), fault) for beta, fault in self.NAMED]
        scale = DRINKING["mu"] + DRINKING["phi"] + DRINKING["gamma"]
        for (rho_lo, rho_hi), (r0_lo, r0_hi) in self.DRAWS:
            for _ in range(self.PER_REGION):
                rho = float(rng.uniform(rho_lo, rho_hi))
                sets.append((constant_rates(float(rng.uniform(r0_lo, r0_hi)) * scale, rho), None))
        self.sets = [(rates, rates.to_parameter_set(), fault) for rates, fault in
                     (sets[k] for k in rng.permutation(len(sets)))]

    def run_round(self, timer):
        outcomes = []
        for rates, params, fault in self.sets:
            name = f"beta={rates.beta:.8g},rho={rates.rho:.8g}"
            with timer.op(name):
                kernel = demography.analysis_kernel(params)
                report = thresholds.classify(params, kernel)
                states = steady.find_fixed_points(params, kernel, tol=SCAN_TOL)
            problems = checks.check_domain(kernel.ages, rates.mu)
            problems += checks.check_report_properties(report, len(states))
            problems += checks.check_thresholds(report, rates, SCAN_GROWTH_TOL)
            problems += checks.check_constant_states(states, rates, SCAN_TOL)
            outcomes.append(Outcome(name, fault, problems))
        return outcomes


WORKLOADS = {"presets": Presets, "probe-sweep": ProbeSweep, "steady-scan": SteadyScan}
