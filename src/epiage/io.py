"""CSV and report emission.

Every CSV artifact goes through one table writer: a header row, then one
row per record, fields separated by commas and lines ended by CRLF.
Numbers are serialized with 17 significant digits so that re-reading a
file reproduces the in-memory doubles bit-exactly; branch indices are
integers and stability tags plain words, so no field is ever quoted.
Rows are written in blocks of ASCII ``bytes``, formatted, joined and
written without a detour through ``str``.  Within a block the float
columns are stacked, and each run of equal bits (so 0.0 and -0.0 stay
apart, and so do NaN payloads) is formatted once: untouched plateaus of s,
i and r repeat bit for bit down a column.  The trajectory's times and ages
are formatted once per table and repeated as ready cells.  The run heads
get their digits from an exact product in numpy (``_g17.format17``); a
value the product cannot decide falls back, alone, to ``b'%.17g' %``, and
every byte is that of ``'%.17g' %``.

The blocks of a table are cut into contiguous shares, one per CPU in
``os.sched_getaffinity(0)`` and never more shares than blocks.  The
calling process writes the header and the first share into the file; each
later share is written by a child made with ``os.fork`` into its own
temporary spool, and the parent reaps the children in order and appends
their spools.  Every share runs the same per-block code, so the bytes do
not depend on how many shares there are.  One process writes the whole
table where ``os.fork`` or ``os.sched_getaffinity`` is missing, where one
CPU is available, or where the table is one block.  On Python 3.12 and
later a process running other OS threads (an OpenBLAS pool when
``OPENBLAS_NUM_THREADS`` is unset) gets CPython's fork
``DeprecationWarning``.
"""

from __future__ import annotations

import csv
import os
import shutil
import tempfile
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from ._g17 import format17
from .errors import ShapeError
from .thresholds import ThresholdReport
from .transport import StateField


#: rows formatted per write call; bounds the temporary Python objects
_BLOCK_ROWS = 8192
#: the column kind of ready-formatted ``bytes`` cells
_CELLS = "cells"


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_table(path, header, columns) -> Path:
    """Write ``header`` and the rows of equal-length ``(values, format)`` columns.

    Each format is a printf conversion: ``%.17g`` for floats, ``%d`` for
    integers, ``%s`` for words; or ``_CELLS`` for ``bytes`` cells formatted
    beforehand.  In each block of ``_BLOCK_ROWS`` rows the ``%.17g``
    columns are stacked, and each run of equal bits among them is
    formatted once, by ``_g17.format17``; the bytes are those of
    formatting every value with ``'%.17g' %``.

    Shares of blocks after the first are written by forked children (see
    the module docstring); raises ``OSError`` naming the file if one fails.
    """
    path = Path(path)
    arrays = [
        np.asarray(values, dtype=float) if spec == "%.17g" else np.asarray(values)
        for values, spec in columns
    ]
    specs = [spec for _, spec in columns]
    n_rows = len(arrays[0])
    if any(len(array) != n_rows for array in arrays):
        raise ShapeError(f"columns differ in length: {[len(a) for a in arrays]}")
    n_blocks = -(-n_rows // _BLOCK_ROWS)
    forkable = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    n_cpus = len(os.sched_getaffinity(0)) if forkable else 1
    n_shares = max(1, min(n_cpus, n_blocks))
    edges = [n_blocks * k // n_shares * _BLOCK_ROWS for k in range(n_shares)] + [n_rows]
    with open(path, "wb") as handle, ExitStack() as stack:
        handle.write((",".join(header) + "\r\n").encode("ascii"))
        pids, spools = [], []
        try:
            for start, stop in zip(edges[1:], edges[2:]):
                spools.append(stack.enter_context(tempfile.TemporaryFile()))
                pids.append(_fork_writer(spools[-1], arrays, specs, start, stop))
            _write_rows(handle, arrays, specs, 0, edges[1])
        finally:
            failed = [pid for pid in pids if os.waitpid(pid, 0)[1] != 0]
        if failed:
            raise OSError(f"writing {path}: {len(failed)} of {len(pids)} forked writers failed")
        for spool in spools:
            spool.seek(0)
            shutil.copyfileobj(spool, handle)
    return path


def _fork_writer(spool, arrays, specs, start, stop) -> int:
    """Fork a child that writes rows [start, stop) into ``spool``; its pid.

    The child never returns: it exits with status 0 once the spool is
    flushed, and with 1 on any exception.
    """
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            _write_rows(spool, arrays, specs, start, stop)
            spool.flush()
            code = 0
        finally:
            os._exit(code)
    return pid


def _write_rows(handle, arrays, specs, start, stop) -> None:
    """Write rows [start, stop) as ASCII, one ``_BLOCK_ROWS`` block at a time."""
    floats = [j for j, spec in enumerate(specs) if spec == "%.17g"]
    for block_start in range(start, stop, _BLOCK_ROWS):
        blocks = [array[block_start : block_start + _BLOCK_ROWS] for array in arrays]
        cells = [
            block.tolist() if spec == _CELLS
            else None if spec == "%.17g"
            else [(spec % value).encode("ascii") for value in block.tolist()]
            for block, spec in zip(blocks, specs)
        ]
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
    return _write_table(path, ["t", "B"], [(times, "%.17g"), (values, "%.17g")])


def write_trajectory(path, field: StateField) -> Path:
    """Long-format rows (t, a, s, i, r) for every stored time row.

    Times and ages are formatted once each; their cells are repeated down
    the table.
    """
    times = np.array(format17(field.times), dtype=object)
    ages = np.array(format17(field.ages), dtype=object)
    return _write_table(
        path,
        ["t", "a", "s", "i", "r"],
        [
            (np.repeat(times, ages.size), _CELLS),
            (np.tile(ages, times.size), _CELLS),
            (np.ravel(field.s), "%.17g"),
            (np.ravel(field.i), "%.17g"),
            (np.ravel(field.r), "%.17g"),
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
    return _write_table(
        path,
        ["a", "s0", "i0", "r0"],
        [(ages, "%.17g"), (s0, "%.17g"), (i0, "%.17g"), (r0, "%.17g")],
    )


def write_steady_states(path, states) -> Path:
    """Long-format steady profiles; one block of rows per branch."""
    sizes = [state.ages.size for state in states]

    def stacked(name):
        return np.concatenate([np.empty(0)] + [getattr(state, name) for state in states])

    return _write_table(
        path,
        ["branch", "b_star", "residual", "a", "s", "i", "r"],
        [
            (np.repeat(np.arange(len(states)), sizes), "%d"),
            (np.repeat([state.b_star for state in states], sizes), "%.17g"),
            (np.repeat([state.residual for state in states], sizes), "%.17g"),
            (stacked("ages"), "%.17g"),
            (stacked("s"), "%.17g"),
            (stacked("i"), "%.17g"),
            (stacked("r"), "%.17g"),
        ],
    )


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
        (np.repeat([row.swept_value for row in rows], counts), "%.17g"),
        (np.repeat([row.r0 for row in rows], counts), "%.17g"),
        ([index for count in counts for index in range(count)], "%d"),
        ([branch.b_star for branch in branches], "%.17g"),
        ([branch.stability for branch in branches], "%s"),
    ]
    columns += [(profile, "%.17g") for profile in profiles.T]
    return _write_table(path, header, columns)
