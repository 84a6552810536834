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

A table's rows may be written while they are produced: the trajectory
is written while ``transport._march`` simulates it, and its rows live in
an anonymous shared mapping.  The calling process writes the header,
opens a pipe of tickets and forks one front writer.  The producer runs in
the calling process and writes one byte, a ticket, into the pipe for each
block it completes; the last block is complete once every row is filled.
For a table whose rows are all present every ticket is written at once.
Reading a ticket is the claim: the front writer writes the next block
from the front straight into the file for each ticket it reads.  Once the
producer is done, the calling process closes its write end and, for each
ticket it reads, writes the next block from the back into a temporary
spool.  There is one ticket per block and each is read by one process, so
front and back meet with no overlap and no gap, and nothing shared needs
a lock.  A block's rows are read only after a ``read`` of a ticket that
was written after they were stored.  Once the front writer is reaped, the
back blocks are appended in order.  Both writers run the same per-block
code, so the bytes do not depend on how the blocks were shared.  A pipe
holds 64 KiB of tickets on Linux, so a table of more than 65,536 blocks
(537 M rows) makes the producer wait on the front writer.  One process
writes the whole table where ``os.fork`` or ``os.sched_getaffinity`` is
missing, where one CPU is available, or where the table is one block.  On
Python 3.12 and later a process running other OS threads (an OpenBLAS
pool when ``OPENBLAS_NUM_THREADS`` is unset) gets CPython's fork
``DeprecationWarning``.
"""

from __future__ import annotations

import csv
import os
import tempfile
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


def _write_table(path, header, columns, stored=None) -> Path:
    """Write ``header`` and the rows of equal-length ``columns``.

    A column of object or bytes dtype holds ready ``bytes`` cells; any
    other column is read as float64 and written as ``'%.17g' %`` would.
    In each block of ``_BLOCK_ROWS`` rows the float columns are stacked,
    and each run of equal bits among them is formatted once, by
    ``_g17.format17``.

    ``stored`` is None when every row is present.  Otherwise it is the
    producer of the rows: an iterable that fills them in order as it runs
    and yields how many it has filled, ending with all of them.

    Blocks are shared between two processes (see the module docstring).
    On any exception the file is removed; the exception is the producer's
    own, or ``OSError`` naming the file if the front writer failed.
    """
    path = Path(path)
    arrays = [np.asarray(column) for column in columns]
    arrays = [a if a.dtype.kind in "OS" else a.astype(float, copy=False) for a in arrays]
    n_rows = len(arrays[0])
    if any(len(array) != n_rows for array in arrays):
        raise ShapeError(f"columns differ in length: {[len(a) for a in arrays]}")
    alone = (
        n_rows <= _BLOCK_ROWS
        or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity"))
        or len(os.sched_getaffinity(0)) < 2
    )
    try:
        with open(path, "wb") as handle:
            handle.write((",".join(header) + "\r\n").encode("ascii"))
            if alone:
                _produce(stored, n_rows, lambda: None)
                _write_rows(handle, arrays, 0, n_rows)
            else:
                _share_blocks(handle, arrays, stored)
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    return path


def _produce(stored, n_rows, publish) -> None:
    """Run the producer ``stored`` to its end, calling ``publish()`` once
    for each block as it is completed; the last block is complete once
    every row is filled."""
    n_blocks = -(-n_rows // _BLOCK_ROWS)
    rows = published = 0
    for rows in (n_rows,) if stored is None else stored:
        completed = n_blocks if rows >= n_rows else rows // _BLOCK_ROWS
        while published < completed:
            publish()
            published += 1
    if rows != n_rows:
        raise ShapeError(f"the producer filled {rows} of {n_rows} rows")


def _share_blocks(handle, arrays, stored) -> None:
    """Write the rows into ``handle``, after its header, with one forked
    front writer and this process at the back (see the module docstring)."""
    n_blocks = -(-len(arrays[0]) // _BLOCK_ROWS)
    handle.flush()
    read_end, write_end = os.pipe()
    with (
        open(read_end, "rb", 0) as tickets,
        open(write_end, "wb", 0) as ticket,
        tempfile.TemporaryFile() as spool,
    ):
        pid = _fork(_write_front, handle, arrays, tickets, ticket)
        places = []  # (offset, length) of each back block in the spool, last first
        try:
            with ticket:
                _produce(stored, len(arrays[0]), lambda: ticket.write(b"."))
            block = n_blocks
            while tickets.read(1):
                block -= 1
                start, offset = block * _BLOCK_ROWS, spool.tell()
                _write_rows(spool, arrays, start, start + _BLOCK_ROWS)
                places.append((offset, spool.tell() - offset))
        except BaseException:
            while tickets.read(1):
                pass  # the front writer stops at its next claim
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
        if status != 0:
            raise OSError(f"writing {handle.name}: the forked front writer failed")
        handle.seek(0, os.SEEK_END)
        for offset, length in reversed(places):
            spool.seek(offset)
            handle.write(spool.read(length))


def _fork(work, *args) -> int:
    """Fork a child that runs ``work(*args)``; its pid.

    The child never returns: it exits with status 0 once ``work`` returns,
    and with 1 on any exception.
    """
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            work(*args)
            code = 0
        finally:
            os._exit(code)
    return pid


def _write_front(handle, arrays, tickets, ticket) -> None:
    """Write the next block from the front into ``handle`` for each ticket
    read from ``tickets``, until the pipe ends.

    The write end ``ticket`` is closed first, so the pipe ends once the
    calling process has closed its end, or died.
    """
    ticket.close()
    start = 0
    while tickets.read(1):
        _write_rows(handle, arrays, start, start + _BLOCK_ROWS)
        start += _BLOCK_ROWS
    handle.flush()


def _write_rows(handle, arrays, start, stop) -> None:
    """Write rows [start, stop) as ASCII, one ``_BLOCK_ROWS`` block at a time."""
    floats = [j for j, array in enumerate(arrays) if array.dtype == float]
    for block_start in range(start, stop, _BLOCK_ROWS):
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


def write_trajectory(path, field: StateField, stored=None) -> Path:
    """Long-format rows (t, a, s, i, r) for every stored time row.

    Times and ages are formatted once each; their cells are repeated down
    the table.  ``stored``, if given, is the rest of the ``transport._march``
    generator whose first yield was ``field``: the rows are written while it
    runs, and an exception it raises removes the file and propagates.
    """
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
        None if stored is None else (rows * ages.size for rows in stored),
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
