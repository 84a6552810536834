"""CSV and report emission.

Every CSV artifact goes through one table writer: a header row, then one
row per record, fields separated by commas and lines ended by CRLF.
Float columns are serialized with 17 significant digits so that re-reading
a file reproduces the in-memory doubles bit-exactly (branch indices too:
their digits are the integers'); object or bytes columns hold ready ASCII
cells, such as stability words.  No field is ever quoted.
Rows are written in blocks of ASCII ``bytes``, formatted, joined and
written without a detour through ``str``.  Within a block the float
columns are stacked, and each run of equal bits (so 0.0 and -0.0 stay
apart, and so do NaN payloads) is formatted once: untouched plateaus of s,
i and r repeat bit for bit down a column.  The trajectory's times and ages
are formatted once per table and repeated as ready cells.  The run heads
get their digits from an exact product in numpy (``_g17.format17``); a
value the product cannot decide falls back, alone, to ``b'%.17g' %``, and
every byte is that of ``'%.17g' %``.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from ._g17 import format17
from .errors import ShapeError
from .thresholds import ThresholdReport
from .transport import StateField


#: rows formatted per write call; bounds the temporary Python objects
_BLOCK_ROWS = 8192


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_table(path, header, columns) -> Path:
    """Write ``header`` and the rows of equal-length ``columns``.

    A column of object or bytes dtype holds ready ``bytes`` cells; any
    other column is read as float64 and written as ``'%.17g' %`` would.
    In each block of ``_BLOCK_ROWS`` rows the float columns are stacked,
    and each run of equal bits among them is formatted once, by
    ``_g17.format17``.  On any exception the file is removed.
    """
    path = Path(path)
    arrays = [np.asarray(column) for column in columns]
    arrays = [a if a.dtype.kind in "OS" else a.astype(float, copy=False) for a in arrays]
    n_rows = len(arrays[0])
    if any(len(array) != n_rows for array in arrays):
        raise ShapeError(f"columns differ in length: {[len(a) for a in arrays]}")
    try:
        with open(path, "wb") as handle:
            handle.write((",".join(header) + "\r\n").encode("ascii"))
            _write_rows(handle, arrays)
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    return path


def _write_rows(handle, arrays) -> None:
    """Write every row as ASCII, one ``_BLOCK_ROWS`` block at a time."""
    floats = [j for j, array in enumerate(arrays) if array.dtype == float]
    for block_start in range(0, len(arrays[0]), _BLOCK_ROWS):
        blocks = [array[block_start : block_start + _BLOCK_ROWS] for array in arrays]
        cells = [None if block.dtype == float else block.tolist() for block in blocks]
        if floats:
            for j, column in zip(floats, _float_cells([blocks[j] for j in floats])):
                cells[j] = column
        handle.write(b"\r\n".join(map(b",".join, zip(*cells))) + b"\r\n")


def _float_cells(blocks) -> list:
    """The ``%.17g`` fields, as ``bytes``, of equal-length float column blocks.

    The blocks are stacked end to end, and each run of equal bits is
    formatted once, in one ``format17`` call, and repeated; the temporary
    arrays are freed on return, before the rows are joined.
    """
    stacked = np.stack(blocks)
    bits = stacked.view(np.uint64).ravel()
    heads = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    texts = np.array(format17(bits[heads].view(float)), dtype=object)
    cells = np.repeat(texts, np.diff(heads, append=bits.size))
    return cells.reshape(stacked.shape).tolist()


def write_report(path, report: ThresholdReport) -> Path:
    path = Path(path)
    lines = [
        f"R0 = {fmt(report.r0)}",
        f"RC = {fmt(report.rc)}",
        f"dominant growth rate = {fmt(report.growth_rate)} 1/year",
        f"region = {report.region}",
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_b_series(path, times, values) -> Path:
    return _write_table(path, ["t", "B"], [times, values])


def write_trajectory(path, field: StateField) -> Path:
    """Long-format rows (t, a, s, i, r) for every stored time row.

    s, i and r must each have the shape (times, ages); times and ages are
    formatted once each, and their cells are repeated down the table.
    """
    shape = (np.size(field.times), np.size(field.ages))
    for name in "sir":
        if np.shape(getattr(field, name)) != shape:
            raise ShapeError(f"{name} must have the shape (times, ages) = {shape}")
    times = np.array(format17(field.times), dtype=object)
    ages = np.array(format17(field.ages), dtype=object)
    return _write_table(
        path,
        ["t", "a", "s", "i", "r"],
        [
            np.repeat(times, ages.size),
            np.tile(ages, times.size),
            np.ravel(field.s),
            np.ravel(field.i),
            np.ravel(field.r),
        ],
    )


def read_trajectory(path) -> StateField:
    """Inverse of write_trajectory (bit-exact for its own output)."""
    values = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if header != ["t", "a", "s", "i", "r"]:
            raise ValueError(f"unexpected trajectory header: {header!r}")
        for row in reader:
            values.append([float(x) for x in row])
    data = np.asarray(values)
    times = np.unique(data[:, 0])
    ages = np.unique(data[:, 1])
    shape = (times.size, ages.size)
    if times.size * ages.size != data.shape[0]:
        raise ValueError("trajectory rows do not form a full grid")
    order = np.lexsort((data[:, 1], data[:, 0]))
    data = data[order]
    return StateField(
        times=times,
        ages=ages,
        s=data[:, 2].reshape(shape),
        i=data[:, 3].reshape(shape),
        r=data[:, 4].reshape(shape),
    )


def write_initial(path, ages, s0, i0, r0) -> Path:
    return _write_table(path, ["a", "s0", "i0", "r0"], [ages, s0, i0, r0])


def write_steady_states(path, states) -> Path:
    """Long-format steady profiles; one block of rows per branch."""
    sizes = [state.ages.size for state in states]
    columns = [
        np.repeat(np.arange(len(states)), sizes),
        np.repeat([state.b_star for state in states], sizes),
        np.repeat([state.residual for state in states], sizes),
    ]
    columns += [
        np.concatenate([np.empty(0)] + [getattr(state, name) for state in states])
        for name in ("ages", "s", "i", "r")
    ]
    return _write_table(path, ["branch", "b_star", "residual", "a", "s", "i", "r"], columns)


def write_diagram(path, rows, ages=None) -> Path:
    """Bifurcation diagram CSV: one row per branch.

    Columns: swept_value, r0, branch_index, b_star, stability, then the
    infected profile sampled at ``ages`` (defaulting to each branch's own
    age grid; pass explicit ages to make rows comparable across kernels).
    """
    branches = [branch for row in rows for branch in row.branches]
    counts = [len(row.branches) for row in rows]
    if ages is not None:
        sample_ages = np.asarray(ages, dtype=float)
    else:
        sample_ages = branches[0].ages if branches else np.empty(0)
    profiles = np.array(
        [np.interp(sample_ages, branch.ages, branch.infected) for branch in branches]
    ).reshape(len(branches), sample_ages.size)
    header = ["swept_value", "r0", "branch_index", "b_star", "stability"]
    header += [f"i_star@{fmt(a)}" for a in sample_ages]
    columns = [
        np.repeat([row.swept_value for row in rows], counts),
        np.repeat([row.r0 for row in rows], counts),
        [index for count in counts for index in range(count)],
        [branch.b_star for branch in branches],
        [branch.stability.encode("ascii") for branch in branches],
    ]
    return _write_table(path, header, columns + list(profiles.T))
