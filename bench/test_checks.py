"""The benchmark's output checks reject perturbed outputs.

    python3 -m pytest bench/test_checks.py -q

Each test feeds a check a genuine program output, which must pass, and
the same output with one small perturbation, which must be rejected.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from epiage import GridSpec, analysis_kernel, bifurcation, find_fixed_points, io, simulate  # noqa: E402

RATES = workloads.constant_rates(60.0)


def codes(problems):
    return {code for code, _ in problems}


@pytest.fixture(scope="module")
def states():
    return find_fixed_points(RATES, analysis_kernel(RATES), tol=1e-10)


@pytest.fixture(scope="module")
def field():
    grid = GridSpec(age_max=50.0, time_max=1.0, n_age=100, n_time=400)
    ages = grid.age_nodes()
    i0 = 0.5 * np.sin(np.pi * ages / 50.0) ** 2
    return simulate(RATES, (1.0 - i0, i0, np.zeros_like(ages)), grid, store="full").field


def test_root_moved_by_1e_7(states):
    assert checks.check_constant_states(states, RATES, 1e-10) == []
    moved = [dataclasses.replace(states[0], b_star=states[0].b_star + 1e-7)] + states[1:]
    assert "root-value" in codes(checks.check_constant_states(moved, RATES, 1e-10))


def test_trajectory_row_sum_off_by_1e_11(field):
    assert checks.check_field(field) == []
    s = field.s.copy()
    s[3, 40] += 1e-11
    assert codes(checks.check_field(dataclasses.replace(field, s=s))) == {"conservation"}


def test_swapped_stability_tag():
    (row,) = bifurcation.sweep(RATES, "beta", [60.0])
    sweep = workloads.ProbeSweep(1, None)

    def tagged(tags):
        branches = tuple(dataclasses.replace(b, stability=t) for b, t in zip(row.branches, tags))
        return dataclasses.replace(row, branches=branches)

    assert sweep.check_row(60.0, tagged(["unstable", "stable"])) == []
    assert codes(sweep.check_row(60.0, tagged(["stable", "unstable"]))) == {"stability-tag"}


def test_csv_value_cut_to_15_digits(field, tmp_path):
    path = tmp_path / "trajectory.csv"
    io.write_trajectory(path, field)
    n_ages = field.ages.size

    def expected(lo, hi):
        index = np.arange(lo, hi)
        flat = [x.reshape(-1)[lo:hi] for x in (field.s, field.i, field.r)]
        return [field.times[index // n_ages], field.ages[index % n_ages], *flat]

    header = ["t", "a", "s", "i", "r"]
    assert checks.check_csv(path, header, field.s.size, expected, chunk=1000) == []
    lines = path.read_text().splitlines(keepends=True)
    row = 1 + 2500
    cells = lines[row].rstrip("\r\n").split(",")
    value = float(cells[3])
    cut = format(value, ".15g")
    assert float(cut) != value
    cells[3] = cut
    lines[row] = ",".join(cells) + "\r\n"
    path.write_text("".join(lines))
    assert codes(checks.check_csv(path, header, field.s.size, expected, chunk=1000)) == {"csv"}
