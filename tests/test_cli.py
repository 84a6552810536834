import numpy as np
import pytest

from epiage import PRESETS, preset_config, run_config, run_preset, simulate
from epiage.bifurcation import sweep
from epiage.cli import main
from epiage.config import parse_config
from epiage.io import read_trajectory, write_diagram

CONFIG = """
[parameters]
mu = 0.0125
beta = 60
phi = 60
gamma = 13
rho = 76.65
contact = 1

[grid]
age_max = 100
time_max = 0.5
age_steps = 200
time_steps = auto

[initial]
kind = bump
amplitude = 0.5
center = 20
width = 5

[sweep]
param = beta
values = 0.011, 60, 120
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG)
    return path


def test_thresholds_command(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["thresholds", "--config", str(config_path), "--out", str(out)]) == 0
    text = (out / "report.txt").read_text()
    assert "bistable-candidate" in text
    assert "R0 = 0.82" in text


def test_simulate_command(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
    field = read_trajectory(out / "trajectory.csv")
    assert field.ages.size == 201
    b_lines = (out / "b_series.csv").read_text().splitlines()
    assert b_lines[0] == "t,B"
    assert (out / "initial.csv").exists()
    assert (out / "report.txt").exists()


def test_steady_command(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["steady", "--config", str(config_path), "--out", str(out)]) == 0
    lines = (out / "steady_states.csv").read_text().splitlines()
    branches = {line.split(",")[0] for line in lines[1:]}
    assert branches == {"0", "1"}
    captured = capsys.readouterr()
    assert "fixed point" in captured.out


def test_bifurcation_command(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["bifurcation", "--config", str(config_path), "--out", str(out)]) == 0
    lines = (out / "diagram.csv").read_text().splitlines()
    # 0 + 2 + 1 branches across the swept transmission values
    assert len(lines) == 4


def test_preset_command_writes_artifacts(tmp_path):
    out = tmp_path / "preset_out"
    assert main(["preset", "extinction", "--out", str(out)]) == 0
    for name in (
        "report.txt",
        "initial.csv",
        "trajectory.csv",
        "b_series.csv",
        "steady_states.csv",
    ):
        assert (out / name).exists()
    assert "extinction" in (out / "report.txt").read_text()


def test_presets_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["preset", "extinction", "--out", str(out1)])
    main(["preset", "extinction", "--out", str(out2)])
    for name in ("trajectory.csv", "b_series.csv", "report.txt", "steady_states.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def kept_ages(grid):
    """The age nodes a run keeps: every ``n_age // 400``-th, and the last."""
    keep = np.append(np.arange(0, grid.n_age, max(1, grid.n_age // 400)), grid.n_age)
    return grid.age_nodes()[keep]


@pytest.mark.parametrize("name", PRESETS)
def test_preset_keeps_about_64_time_rows(name, tmp_path):
    """About 64 time rows and about 400 ages: 401 on every preset grid but
    ``extinction``'s 201."""
    config = preset_config(name)
    grid = config.grid
    assert config.stride == max(1, grid.n_time // 64)
    written = run_preset(name, tmp_path)
    field = written["_trajectory_object"].field
    times, ages = field.times, field.ages
    assert times.size <= 66
    assert times[0] == 0.0 and times[-1] == grid.time_max
    assert np.array_equal(ages, kept_ages(grid))
    assert ages[0] == 0.0 and ages[-1] == grid.age_max
    assert ages.size == (201 if name == "extinction" else 401)
    with open(written["trajectory"], "rb") as table:
        assert sum(1 for _ in table) == 1 + times.size * ages.size


@pytest.mark.parametrize("name", ["extinction", "endemic"])
def test_thinned_preset_rows_are_the_full_runs_rows(name, tmp_path):
    """The stored (t, a) values are a store=1 run's, bit for bit, and the
    pressure keeps every time node."""
    written = run_preset(name, tmp_path)
    config = preset_config(name)
    initial = config.initial.rows(config.grid.age_nodes())
    full = simulate(config.params, initial, config.grid, store=1)
    stored = read_trajectory(written["trajectory"])
    kept = np.ix_(
        np.searchsorted(full.field.times, stored.times),
        np.searchsorted(full.field.ages, stored.ages),
    )
    field = written["_trajectory_object"].field
    assert np.array_equal(stored.ages, kept_ages(config.grid))
    assert np.array_equal(stored.times, field.times) and np.array_equal(stored.ages, field.ages)
    for column in ("s", "i", "r"):
        expected = getattr(full.field, column)[kept]
        got = getattr(stored, column)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), column
    lines = written["b_series"].read_text().splitlines()[1:]
    b_series = np.array([float(line.split(",")[1]) for line in lines])
    assert np.array_equal(b_series.view(np.uint64), full.b_series.view(np.uint64))


def test_missing_config_is_clean_error(tmp_path, capsys):
    code = main(["thresholds", "--config", str(tmp_path / "nope.ini")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_bad_config_reports_line(config_path, tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(CONFIG.replace("rho = 76.65", "rho = many"))
    code = main(["thresholds", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "line" in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("age_max", "nan"),
        ("time_max", "inf"),
        ("center", "inf"),
        ("width", "inf"),
        ("age_steps", "1"),
        ("time_steps", "1"),
    ],
)
def test_non_finite_extent_reports_line(tmp_path, capsys, key, value):
    lines = CONFIG.splitlines()
    number = next(n for n, line in enumerate(lines, start=1) if line.startswith(key))
    lines[number - 1] = f"{key} = {value}"
    bad = tmp_path / "bad.ini"
    bad.write_text("\n".join(lines))
    code = main(["thresholds", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"error: line {number}" in capsys.readouterr().err


#: the files each config subcommand writes
SUBCOMMAND_FILES = {
    "thresholds": {"report.txt"},
    "simulate": {"report.txt", "initial.csv", "trajectory.csv", "b_series.csv"},
    "steady": {"report.txt", "steady_states.csv"},
    "bifurcation": {"diagram.csv"},
}

#: stdout of each config subcommand on CONFIG, output directory written as OUT
SUBCOMMAND_STDOUT = {
    "thresholds": [
        "wrote OUT/report.txt",
        "R0 = 0.821777  RC = 4799.93  growth = -13.0125/yr  region = bistable-candidate",
    ],
    "simulate": [
        "wrote OUT/report.txt",
        "wrote OUT/initial.csv",
        "wrote OUT/trajectory.csv",
        "wrote OUT/b_series.csv",
        "B(T) = 0.000111972; max |s+i+r-1| = 6.66e-16",
    ],
    "steady": [
        "wrote OUT/report.txt",
        "wrote OUT/steady_states.csv",
        "fixed point B* = 0.0007608132112 (residual 2e-14)",
        "fixed point B* = 0.04648682198 (residual 1.2e-14)",
    ],
    "bifurcation": [
        "wrote OUT/diagram.csv",
        "beta = 0.011: R0 = 0.0001507, 0 branch(es)",
        "beta = 60: R0 = 0.8218, 2 branch(es)",
        "beta = 120: R0 = 1.644, 1 branch(es)",
    ],
}


@pytest.fixture(scope="module", params=[False, True], ids=["plain", "probe"])
def library_run(request, tmp_path_factory):
    """CONFIG (with ``probe = true`` for the probe case) run through the library."""
    text = CONFIG + ("probe = true\n" if request.param else "")
    config = parse_config(text)
    out = tmp_path_factory.mktemp("library")
    run_config(config, out, tol=1e-10)
    rows = sweep(
        config.rates, config.sweep_param, sorted(config.sweep_values),
        tol=1e-10, probe=config.sweep_probe,
    )
    write_diagram(out / "diagram.csv", rows, ages=config.grid.age_nodes())
    return text, out


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_FILES))
def test_subcommand_matches_library_run(command, library_run, tmp_path, capsys):
    text, reference = library_run
    config_path = tmp_path / "run.ini"
    config_path.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(config_path), "--out", str(out)]) == 0
    written = {path.name for path in out.iterdir()}
    assert written == SUBCOMMAND_FILES[command]
    for name in written:
        assert (out / name).read_bytes() == (reference / name).read_bytes(), name
    lines = capsys.readouterr().out.replace(str(out), "OUT").splitlines()
    assert lines == SUBCOMMAND_STDOUT[command]


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
@pytest.mark.parametrize("command", [*sorted(SUBCOMMAND_FILES), "preset"])
def test_nonpositive_tol_writes_no_file(command, tol, config_path, tmp_path, capsys):
    out = tmp_path / "out"
    where = ["extinction"] if command == "preset" else ["--config", str(config_path)]
    assert main([command, *where, "--out", str(out), "--tol", tol]) == 2
    assert "tol must be positive and finite" in capsys.readouterr().err
    assert not out.exists()
