import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiage import (
    Branch,
    ConfigError,
    ConstantRates,
    DiagramRow,
    ShapeError,
    StateField,
    SteadyState,
    cosine_bump,
    parse_config,
    render_config,
)
from epiage import io, transport
from epiage._g17 import format17
from epiage.io import (
    _BLOCK_ROWS,
    read_trajectory,
    write_b_series,
    write_diagram,
    write_initial,
    write_report,
    write_steady_states,
    write_trajectory,
)

BISTABLE_INI = """
# reference bistable run
[parameters]
mu = 0.0125
beta = 60
phi = 60
gamma = 13
rho = 76.65
contact = 1
birth_rate = 1.0

[grid]
age_max = 100
time_max = 10
age_steps = 200
time_steps = auto

[initial]
kind = bump
amplitude = 0.5
center = 20
width = 5
"""


def line_of(key):
    """1-based line of ``key`` in BISTABLE_INI."""
    lines = BISTABLE_INI.splitlines()
    return next(n for n, line in enumerate(lines, start=1) if line.startswith(f"{key} ="))


def with_value(key, value):
    """BISTABLE_INI with ``key`` set to ``value``, on the same line."""
    return BISTABLE_INI.replace(f"{key} = ", f"{key} = {value} #", 1)


class TestParseConfig:
    def test_reference_constants(self):
        config = parse_config(BISTABLE_INI)
        assert config.rates is not None
        assert config.rates.beta == 60.0
        assert config.grid.da == 0.5
        # auto time stepping respects the positivity bound
        assert config.grid.dt < 1.0 / (2.0 + 149.65)

    def test_inline_profile_table(self):
        text = BISTABLE_INI.replace("beta = 60", "beta = 0:5, 20:60, 50:10")
        config = parse_config(text)
        assert config.rates is None
        assert config.params.beta(20.0) == 60.0
        assert config.params.beta(35.0) == 35.0
        # a constant-valued table keeps the closed-form rates, as floats
        flat = parse_config(BISTABLE_INI.replace("beta = 60", "beta = 0:60, 50:60"))
        assert flat.rates == ConstantRates(0.0125, 60.0, 60.0, 13.0, 76.65)
        assert {type(value) for value in vars(flat.rates).values()} == {float}
        # a varying contact rate rules them out
        text = BISTABLE_INI.replace("contact = 1", "contact = 0:0.5, 40:1.5")
        assert parse_config(text).rates is None

    def test_csv_profile(self, tmp_path):
        (tmp_path / "beta.csv").write_text("age,value\n0,5\n20,60\n50,10\n")
        text = BISTABLE_INI.replace("beta = 60", "beta = @beta.csv")
        config = parse_config(text, base_dir=tmp_path)
        assert config.params.beta(20.0) == 60.0

    def test_missing_csv_flagged_with_line(self, tmp_path):
        text = BISTABLE_INI.replace("beta = 60", "beta = @missing.csv")
        with pytest.raises(ConfigError) as err:
            parse_config(text, base_dir=tmp_path)
        assert err.value.line is not None

    def test_decreasing_table_rejected(self):
        text = BISTABLE_INI.replace("beta = 60", "beta = 20:60, 0:5")
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_unknown_key_rejected_with_line(self):
        text = BISTABLE_INI + "\nwibble = 3\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "wibble" in str(err.value)

    def test_malformed_number(self):
        text = BISTABLE_INI.replace("mu = 0.0125", "mu = zero")
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_bump_vanishes_at_zero(self):
        config = parse_config(BISTABLE_INI)
        ages = config.grid.age_nodes()
        _, i0, _ = config.initial.rows(ages)
        assert i0[0] < 1e-12
        # direct evaluation oracle
        assert i0[np.searchsorted(ages, 20.0)] == pytest.approx(0.5)

    def test_bump_touching_zero_rejected(self):
        text = BISTABLE_INI.replace("center = 20", "center = 3")
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_table_nonzero_at_age_zero_rejected(self):
        # the solver's inflow boundary needs i0(0) exactly 0, so the
        # config must reject even a tiny value there before any file is written
        initial = BISTABLE_INI.split("[initial]")[0] + (
            "[initial]\nkind = table\ni0 = 0:1e-13, 10:0.1, 100:0\n"
        )
        with pytest.raises(ConfigError):
            parse_config(initial)

    def test_nan_initial_rows_rejected(self):
        # a NaN amplitude parses as a float and makes the bump NaN
        text = BISTABLE_INI.replace("amplitude = 0.5", "amplitude = nan")
        with pytest.raises(ConfigError):
            parse_config(text)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("age_max", "nan"),
            ("age_max", "inf"),
            ("age_max", "0"),
            ("time_max", "nan"),
            ("time_max", "inf"),
            ("time_max", "-1"),
            # counts below 2; under time_steps = auto a small age_steps
            # used to escape as a bare ParameterError
            ("age_steps", "1"),
            ("age_steps", "0"),
            ("time_steps", "1"),
            ("time_steps", "-3"),
        ],
    )
    def test_grid_extent_must_be_positive_and_finite(self, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config(with_value(key, value))
        assert err.value.line == line_of(key)

    @pytest.mark.parametrize("key", ["center", "width"])
    def test_nan_bump_rejected(self, key):
        """A NaN center or width would make the bump vanish everywhere."""
        with pytest.raises(ConfigError) as err:
            parse_config(with_value(key, "nan"))
        assert err.value.line == line_of(key)

    @pytest.mark.parametrize("key", ["amplitude", "center", "width"])
    @pytest.mark.parametrize("value", ["inf", "-inf"])
    def test_infinite_bump_rejected(self, key, value):
        """Rejected on the key's own line; an infinite center or width used
        to make the bump vanish everywhere."""
        with pytest.raises(ConfigError) as err:
            parse_config(with_value(key, value))
        assert err.value.line == line_of(key)

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_stride_at_least_one(self, value):
        """A stride below 1 used to parse and store every row."""
        text = BISTABLE_INI + f"\n[output]\nstride = {value}\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line == text.splitlines().index(f"stride = {value}") + 1

    @pytest.mark.parametrize("value", ["inf", "1e400", "nan", "0"])
    def test_birth_rate_positive_and_finite(self, value):
        """Rejected on its own line; an infinite birth rate used to be
        accepted and make the total population infinite."""
        with pytest.raises(ConfigError) as err:
            parse_config(with_value("birth_rate", value))
        assert err.value.line == line_of("birth_rate")

    def test_round_trip_lossless(self):
        config = parse_config(BISTABLE_INI)
        again = parse_config(render_config(config))
        assert again.grid == config.grid
        assert again.rates == config.rates
        assert again.initial == config.initial
        assert render_config(again) == render_config(config)

    def test_sweep_section(self):
        text = BISTABLE_INI + "\n[sweep]\nparam = beta\nvalues = 0.011, 60, 120\n"
        config = parse_config(text)
        assert config.sweep_param == "beta"
        assert config.sweep_values == (0.011, 60.0, 120.0)


class TestCosineBump:
    def test_compact_support(self):
        ages = np.linspace(0, 100, 201)
        bump = cosine_bump(ages, 0.5, 20.0, 5.0)
        assert bump[ages <= 15.0].max() == 0.0
        assert bump[ages >= 25.0].max() == 0.0
        assert bump.max() == pytest.approx(0.5)

    def test_finite_at_the_largest_widths(self):
        """The bump is invariant under scaling ages, center and width by a
        power of two; near 1e308 its phase used to overflow to NaN."""
        ages = np.linspace(0.0, 1.7e308, 5)
        bump = cosine_bump(ages, 0.5, 1e308, 1e308)
        assert np.all(np.isfinite(bump))
        np.testing.assert_array_equal(bump, cosine_bump(ages / 1024, 0.5, 1e308 / 1024, 1e308 / 1024))


class TestCsvRoundTrip:
    def test_trajectory_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        times = np.array([0.0, 0.25, 1.0 / 3.0])
        ages = np.linspace(0.0, 7.0, 5)
        field = StateField(
            times=times,
            ages=ages,
            s=rng.uniform(0, 1, (3, 5)),
            i=rng.uniform(0, 1e-8, (3, 5)),
            r=rng.uniform(0, 1, (3, 5)) * 1e17,
        )
        path = write_trajectory(tmp_path / "traj.csv", field)
        back = read_trajectory(path)
        assert np.array_equal(back.times, field.times)
        assert np.array_equal(back.ages, field.ages)
        assert np.array_equal(back.s, field.s)
        assert np.array_equal(back.i, field.i)
        assert np.array_equal(back.r, field.r)

    def test_b_series_and_report(self, tmp_path):
        from epiage.thresholds import ThresholdReport

        path = write_b_series(tmp_path / "b.csv", [0.0, 0.5], [1e-17, 0.25])
        lines = path.read_text().splitlines()
        assert lines[0] == "t,B"
        assert float(lines[1].split(",")[1]) == 1e-17
        report_path = write_report(
            tmp_path / "report.txt",
            ThresholdReport(0.8218, 4800.0, -13.0125, "bistable-candidate"),
        )
        text = report_path.read_text()
        assert "bistable-candidate" in text and "4800" in text


def test_every_writer_bytes(tmp_path):
    """Exact bytes: header row, CRLF line ends, 17 significant digits."""
    ages = np.array([0.0, 1.0 / 3.0])
    path = write_initial(
        tmp_path / "initial.csv", ages, [1.0, 1e-17], [0.0, -0.0], [0.5, 2.0 / 3.0]
    )
    assert path.read_bytes() == (
        b"a,s0,i0,r0\r\n"
        b"0,1,0,0.5\r\n"
        b"0.33333333333333331,1.0000000000000001e-17,-0,0.66666666666666663\r\n"
    )

    field = StateField(
        times=np.array([0.0, 0.5]),
        ages=ages,
        s=np.array([[1.0, 1e-17], [0.5, 0.25]]),
        i=np.array([[0.0, -0.0], [1.0 / 3.0, 0.1]]),
        r=np.array([[0.0, 2.0 / 3.0], [0.25, 0.5]]),
    )
    path = write_trajectory(tmp_path / "trajectory.csv", field)
    assert path.read_bytes() == (
        b"t,a,s,i,r\r\n"
        b"0,0,1,0,0\r\n"
        b"0,0.33333333333333331,1.0000000000000001e-17,-0,0.66666666666666663\r\n"
        b"0.5,0,0.5,0.33333333333333331,0.25\r\n"
        b"0.5,0.33333333333333331,0.25,0.10000000000000001,0.5\r\n"
    )

    path = write_b_series(tmp_path / "b_series.csv", [0.0, 0.5], [1e-17, 1.0 / 3.0])
    assert path.read_bytes() == (
        b"t,B\r\n"
        b"0,1.0000000000000001e-17\r\n"
        b"0.5,0.33333333333333331\r\n"
    )

    states = [
        SteadyState(
            1.0 / 3.0, ages, np.array([1.0, 0.5]), np.array([0.0, 0.25]),
            np.array([0.0, 0.25]), -0.0,
        ),
        SteadyState(
            0.5, ages, np.array([1.0, 1e-17]), np.array([0.0, 0.5]),
            np.array([0.0, 0.5]), 1e-17,
        ),
    ]
    path = write_steady_states(tmp_path / "steady_states.csv", states)
    assert path.read_bytes() == (
        b"branch,b_star,residual,a,s,i,r\r\n"
        b"0,0.33333333333333331,-0,0,1,0,0\r\n"
        b"0,0.33333333333333331,-0,0.33333333333333331,0.5,0.25,0.25\r\n"
        b"1,0.5,1.0000000000000001e-17,0,1,0,0\r\n"
        b"1,0.5,1.0000000000000001e-17,0.33333333333333331,1.0000000000000001e-17,"
        b"0.5,0.5\r\n"
    )

    rows = [
        DiagramRow(10.0, 0.5, ()),
        DiagramRow(
            60.0,
            1.0 / 3.0,
            (
                Branch(0.1, ages, np.array([0.0, 0.5]), "unstable"),
                Branch(0.5, ages, np.array([0.0, 2.0 / 3.0]), "stable"),
            ),
        ),
    ]
    path = write_diagram(tmp_path / "diagram.csv", rows)
    assert path.read_bytes() == (
        b"swept_value,r0,branch_index,b_star,stability,"
        b"i_star@0,i_star@0.33333333333333331\r\n"
        b"60,0.33333333333333331,0,0.10000000000000001,unstable,0,0.5\r\n"
        b"60,0.33333333333333331,1,0.5,stable,0,0.66666666666666663\r\n"
    )
    path = write_diagram(tmp_path / "empty.csv", [])
    assert path.read_bytes() == b"swept_value,r0,branch_index,b_star,stability\r\n"


def naive_table(header, specs, columns):
    """Reference bytes: every value formatted by itself, row by row."""
    template = ",".join(specs) + "\r\n"
    rows = "".join(template % row for row in zip(*columns))
    return (",".join(header) + "\r\n" + rows).encode()


def table_columns(specs, columns):
    """The table writer's columns for ``naive_table``'s: a ``%.17g`` column
    as floats, any other as its cells formatted beforehand."""
    return [
        np.asarray(values, dtype=float) if spec == "%.17g"
        else np.array([(spec % value).encode() for value in values], dtype=object)
        for spec, values in zip(specs, columns)
    ]


def test_block_boundary_bytes(tmp_path):
    """Repeats, signed zeros and list inputs across a block boundary, and
    branch indices of two digits."""
    n = _BLOCK_ROWS + 3
    times = list(range(n))  # integer-valued list input
    values = np.linspace(-1.0, 1.0, n)
    edge = [0.0, -0.0, 1.0 / 3.0, 1.0 / 3.0, -0.0, 0.0]
    values[_BLOCK_ROWS - 3 : _BLOCK_ROWS + 3] = edge
    values[:2] = values[-2:] = [-0.0, 1.0 / 3.0]
    path = write_b_series(tmp_path / "b.csv", times, values.tolist())
    assert path.read_bytes() == naive_table(
        ["t", "B"], ["%.17g", "%.17g"], [times, values.tolist()]
    )

    ages = np.array([0.0, -0.0, 1.0 / 3.0])
    ages = np.resize(ages, _BLOCK_ROWS // 12 + 3)
    states = [
        SteadyState(b, ages, ages, -ages, ages, -0.0) for b in np.linspace(1.0 / 3.0, 0.5, 12)
    ]
    path = write_steady_states(tmp_path / "steady.csv", states)
    rows = [
        (k, state.b_star, state.residual, a, s, i, r)
        for k, state in enumerate(states)
        for a, s, i, r in zip(state.ages, state.s, state.i, state.r)
    ]
    assert path.read_bytes() == naive_table(
        ["branch", "b_star", "residual", "a", "s", "i", "r"],
        ["%d"] + ["%.17g"] * 6,
        list(zip(*rows)),
    )

    tags = ["stable", "unstable", "untested"]
    branch_ages = np.array([0.0, 1.0])
    diagram = [
        DiagramRow(
            float(value),
            1.0 / 3.0,
            tuple(
                Branch(0.25 * k, branch_ages, np.array([0.0, value]), tags[(value + k) % 3])
                for k in range(12)
            ),
        )
        for value in range(_BLOCK_ROWS // 12 + 3)
    ]
    path = write_diagram(tmp_path / "diagram.csv", diagram)
    rows = [
        (row.swept_value, row.r0, k, branch.b_star, branch.stability, 0.0, branch.infected[1])
        for row in diagram
        for k, branch in enumerate(row.branches)
    ]
    assert path.read_bytes() == naive_table(
        ["swept_value", "r0", "branch_index", "b_star", "stability", "i_star@0", "i_star@1"],
        ["%.17g", "%.17g", "%d", "%.17g", "%s", "%.17g", "%.17g"],
        list(zip(*rows)),
    )


#: doubles whose runs of equal bits the writer must keep apart: both zeros,
#: both infinities, and two NaN payloads
RUN_POOL = [
    0.0, -0.0, 1.0 / 3.0, 5e-324, 1e-300, np.inf, -np.inf, np.nan,
    float(np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]),
]


@st.composite
def run_columns(draw):
    """1-4 equal-length columns drawn from ``RUN_POOL``."""
    n_rows = draw(st.integers(0, 30))
    column = st.lists(st.sampled_from(RUN_POOL), min_size=n_rows, max_size=n_rows)
    return draw(st.lists(column, min_size=1, max_size=4))


@settings(max_examples=60, deadline=None)
@given(columns=run_columns(), block_rows=st.integers(1, 9))
def test_runs_across_columns_and_blocks(tmp_path_factory, columns, block_rows):
    """Runs of a small pool of doubles cross column and block boundaries."""
    header, specs = [f"x{j}" for j in range(len(columns))], ["%.17g"] * len(columns)
    path = tmp_path_factory.mktemp("runs") / "table.csv"
    with mock.patch("epiage.io._BLOCK_ROWS", block_rows):
        io._write_table(path, header, table_columns(specs, columns))
    assert path.read_bytes() == naive_table(header, specs, columns)


def test_each_age_and_plateau_formatted_once(tmp_path, monkeypatch):
    """A trajectory formats its ages and times once, and each run of equal
    bits among s, i and r once: here s = 1 and i = r = 0 past age 10."""
    formatted = []

    def counted(values):
        values = np.asarray(values, dtype=float)
        formatted.append(values.size)
        return format17(values)

    monkeypatch.setattr(io, "format17", counted)
    times, ages = np.array([0.0, 0.5, 1.0]), np.linspace(0.0, 100.0, 1000)
    rng = np.random.default_rng(3)
    young = ages <= 10.0
    s, i, r = (np.where(young, rng.uniform(size=(3, 1000)), 0.0) for _ in "sir")
    s[:, ~young] = 1.0
    field = StateField(times, ages, s, i, r)
    assert times.size * ages.size <= _BLOCK_ROWS
    bits = np.concatenate([s.ravel(), i.ravel(), r.ravel()]).view(np.uint64)
    heads = 1 + np.count_nonzero(bits[1:] != bits[:-1])
    path = write_trajectory(tmp_path / "trajectory.csv", field)
    assert sum(formatted) <= ages.size + times.size + heads
    assert path.read_bytes() == naive_table(
        ["t", "a", "s", "i", "r"],
        ["%.17g"] * 5,
        [np.repeat(times, ages.size), np.tile(ages, times.size)]
        + [s.ravel(), i.ravel(), r.ravel()],
    )


def five_block_table():
    """Header, specs and columns of a %d, %.17g, %s table of 5 blocks less 7 rows."""
    n = 5 * _BLOCK_ROWS - 7
    rng = np.random.default_rng(5)
    values = rng.choice([0.0, -0.0, 1.0 / 3.0, 1e-300, 0.1], n) * rng.uniform(0.5, 2.0, n)
    words = [("stable", "unstable", "untested")[k % 3] for k in range(n)]
    header, specs = ["k", "x", "tag"], ["%d", "%.17g", "%s"]
    return header, specs, [list(range(n)), values.tolist(), words]


def test_failed_writer_raises(tmp_path, monkeypatch):
    """An exception while formatting a later block propagates as it is,
    and the partial file is removed."""
    boom = RuntimeError("formatting failed")
    calls = []

    def fails_third(values):
        calls.append(None)
        if len(calls) == 3:
            raise boom
        return format17(values)

    monkeypatch.setattr(io, "format17", fails_third)
    header, specs, columns = five_block_table()
    path = tmp_path / "table.csv"
    with pytest.raises(RuntimeError) as err:
        io._write_table(path, header, table_columns(specs, columns))
    assert err.value is boom
    assert len(calls) == 3
    assert not path.exists()


@pytest.mark.parametrize("pinned", [True, False], ids=["one-cpu", "every-cpu"])
def test_failed_producer_removes_the_table(tmp_path, monkeypatch, pinned):
    """A simulation that fails mid-run leaves no trajectory.csv or
    b_series.csv; initial.csv, written before it started, stays.  It is so
    whether the run may use one CPU or all of them, and no process is forked
    on either mask: this process writes every table."""
    from epiage import presets

    mask = os.sched_getaffinity(0)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    boom = RuntimeError("positivity lost")
    step = transport._step
    steps = []

    def fails_tenth(*args):
        steps.append(None)
        if len(steps) == 10:
            raise boom
        return step(*args)

    monkeypatch.setattr(transport, "_step", fails_tenth)
    config = presets.preset_config("extinction")
    try:
        if pinned:
            os.sched_setaffinity(0, {min(mask)})
        with pytest.raises(RuntimeError) as err:
            presets._run(config, tmp_path, 1e-10, (presets._simulation,))
    finally:
        os.sched_setaffinity(0, mask)
    assert err.value is boom
    assert not forks
    assert {path.name for path in tmp_path.iterdir()} == {"initial.csv"}


def test_unequal_columns_rejected(tmp_path):
    with pytest.raises(ShapeError):
        write_b_series(tmp_path / "b.csv", [0.0, 0.5, 1.0], [0.1, 0.2])


@pytest.mark.parametrize("name", ["s", "i", "r"])
def test_trajectory_of_the_wrong_shape_rejected(tmp_path, name):
    """Rows of (ages x times) values would write well-formed lines that
    read back as another field; no file is written."""
    times, ages = np.array([0.0, 1.0]), np.array([0.0, 1.0, 2.0])
    rows = dict.fromkeys("sir", np.zeros((times.size, ages.size)))
    rows[name] = np.arange(6.0).reshape(ages.size, times.size)
    path = tmp_path / "trajectory.csv"
    with pytest.raises(ShapeError, match=name):
        write_trajectory(path, StateField(times, ages, **rows))
    assert not path.exists()


class TestDiagramCsv:
    def test_empty_diagram_header_only(self, tmp_path):
        path = write_diagram(tmp_path / "d.csv", [])
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("swept_value,r0,branch_index,b_star,stability")

    def test_bistable_row_two_branches(self, tmp_path, rates_bistable):
        from epiage import sweep

        rows = sweep(rates_bistable, "beta", [10.0, 60.0])
        ages = np.linspace(0.0, 100.0, 11)
        path = write_diagram(tmp_path / "d.csv", rows, ages=ages)
        lines = path.read_text().splitlines()
        # header + 0 branches for beta=10 + 2 branches for beta=60
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "60" and first[2] == "0" and first[4] == "untested"
        second = lines[2].split(",")
        assert second[2] == "1"
        assert float(second[3]) > float(first[3])

    def test_steady_states_file(self, tmp_path, rates_bistable, kernel_bistable):
        from epiage import find_fixed_points

        states = find_fixed_points(rates_bistable, kernel_bistable)
        path = write_steady_states(tmp_path / "s.csv", states)
        lines = path.read_text().splitlines()
        assert lines[0] == "branch,b_star,residual,a,s,i,r"
        assert len(lines) == 1 + sum(s.ages.size for s in states)
