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

A table's rows may be written while they are produced: the trajectory
is written while ``transport._march`` simulates it, and its rows live in
an anonymous shared mapping.  The calling process writes the header and
forks one front writer, which claims blocks in order as the producer
publishes them and writes them straight into the file.  Once the producer
is done, the calling process claims blocks from the back into a temporary
spool, beside ``n_cpus - 2`` more forked back writers, each with its own
spool; ``n_cpus`` is the size of ``os.sched_getaffinity(0)``, and there
are never more writers than blocks.  For a table whose rows are all
present the producer is done at once.  Front and back meet through two
claim counters and the published row count, in a small shared mapping;
they are read and changed only while holding a one-byte pipe token, so a
writer reads a row only after a system call that followed the row's
store.  Once the children are reaped, the back blocks are appended in
order.  Every writer runs the same per-block code, so the bytes do not
depend on how the blocks were shared.  One process writes the whole table
where ``os.fork`` or ``os.sched_getaffinity`` is missing, where one CPU
is available, or where the table is one block.  On Python 3.12 and later
a process running other OS threads (an OpenBLAS pool when
``OPENBLAS_NUM_THREADS`` is unset) gets CPython's fork
``DeprecationWarning``.
"""

from __future__ import annotations

import csv
import mmap
import os
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
#: the shared counters of a forked table write: blocks claimed from the
#: front, the first block claimed from the back, and the rows published
_FRONT, _BACK, _READY = range(3)


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_table(path, header, columns, stored=None) -> Path:
    """Write ``header`` and the rows of equal-length ``(values, format)`` columns.

    Each format is a printf conversion: ``%.17g`` for floats, ``%d`` for
    integers, ``%s`` for words; or ``_CELLS`` for ``bytes`` cells formatted
    beforehand.  In each block of ``_BLOCK_ROWS`` rows the ``%.17g``
    columns are stacked, and each run of equal bits among them is
    formatted once, by ``_g17.format17``; the bytes are those of
    formatting every value with ``'%.17g' %``.

    ``stored`` is None when every row is present.  Otherwise it is the
    producer of the rows: an iterable that fills them in order as it runs
    and yields how many it has filled, ending with all of them.

    Blocks are shared among processes (see the module docstring).  On any
    exception the file is removed; the exception is the producer's own,
    or ``OSError`` naming the file if a forked writer failed.
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
    forkable = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    n_cpus = len(os.sched_getaffinity(0)) if forkable else 1
    n_workers = min(n_cpus, -(-n_rows // _BLOCK_ROWS))
    try:
        with open(path, "wb") as handle:
            handle.write((",".join(header) + "\r\n").encode("ascii"))
            if n_workers < 2:
                _produce(stored, n_rows, lambda rows: None)
                _write_rows(handle, arrays, specs, 0, n_rows)
            else:
                _share_blocks(handle, arrays, specs, n_workers, stored)
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    return path


def _produce(stored, n_rows, publish) -> None:
    """Run the producer ``stored`` to its end.

    ``publish(rows)`` is called each time a block is completed, and once
    more at the end with every row.
    """
    rows, mark = 0, _BLOCK_ROWS
    for rows in (n_rows,) if stored is None else stored:
        if rows >= mark:
            publish(rows)
            mark = rows - rows % _BLOCK_ROWS + _BLOCK_ROWS
    if rows != n_rows:
        raise ShapeError(f"the producer filled {rows} of {n_rows} rows")
    publish(rows)


class _Token:
    """A one-byte pipe token: the process that has read the byte alone may
    touch the shared counters, and writes the byte back when done."""

    def __init__(self):
        self._read, self._write = os.pipe()
        os.write(self._write, b".")

    def __enter__(self):
        os.read(self._read, 1)

    def __exit__(self, *exc):
        os.write(self._write, b".")

    def close(self):
        os.close(self._read)
        os.close(self._write)


def _share_blocks(handle, arrays, specs, n_workers, stored) -> None:
    """Write the rows into ``handle``, after its header, with ``n_workers``
    processes: one forked front writer, this process and ``n_workers - 2``
    forked back writers (see the module docstring)."""
    n_blocks = -(-len(arrays[0]) // _BLOCK_ROWS)
    # the claim counters and the published row count, then where each block
    # claimed from the back sits: (spool, offset, length)
    control = np.frombuffer(mmap.mmap(-1, 8 * (3 + 3 * n_blocks)), dtype=np.int64)
    control[_BACK] = n_blocks
    handle.flush()
    pids = []
    with ExitStack() as stack:
        token = _Token()
        stack.callback(token.close)
        spools = [stack.enter_context(tempfile.TemporaryFile()) for _ in range(n_workers - 1)]
        try:
            _run_front(handle, arrays, specs, control, token, stored, pids)
            for owner, spool in enumerate(spools[1:], start=1):
                pids.append(_fork(_claim_back, spool, arrays, specs, control, token, owner))
            _claim_back(spools[0], arrays, specs, control, token, 0)
        finally:
            failed = [pid for pid in pids if os.waitpid(pid, 0)[1] != 0]
        if failed:
            raise OSError(
                f"writing {handle.name}: {len(failed)} of {len(pids)} forked writers failed"
            )
        handle.seek(0, os.SEEK_END)
        places = control[3:].reshape(n_blocks, 3)
        for owner, offset, length in places[control[_BACK] :].tolist():
            spools[owner].seek(offset)
            handle.write(spools[owner].read(length))


def _run_front(handle, arrays, specs, control, token, stored, pids) -> None:
    """Fork the front writer, add its pid to ``pids``, and run the producer
    ``stored`` beside it, publishing each completed block."""
    wake_read, wake = os.pipe()

    def publish(rows):
        with token:
            control[_READY] = rows
        try:
            os.write(wake, b".")
        except (BrokenPipeError, BlockingIOError):
            pass  # the front writer is gone, or has wake-ups enough queued

    try:
        os.set_blocking(wake, False)
        try:
            pids.append(
                _fork(_claim_front, handle, arrays, specs, control, token, (wake_read, wake))
            )
        finally:
            os.close(wake_read)
        _produce(stored, len(arrays[0]), publish)
    except BaseException:
        with token:
            control[_BACK] = 0  # the front writer stops at its next claim
        raise
    finally:
        os.close(wake)  # the front writer's last wake-up


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


def _claim_front(handle, arrays, specs, control, token, pipe) -> None:
    """Claim blocks in order as they are published, and write each into
    ``handle``; wait on the wake pipe ``pipe`` while the next block is
    unpublished.

    ``pipe`` is the pipe's read and write ends.  The write end is closed
    first, so the pipe ends once the producer's process closes its end or
    dies.  Returns once the front meets the back, or once the pipe has
    ended and the next block is still unpublished.
    """
    wake, producer_end = pipe
    os.close(producer_end)
    n_rows = len(arrays[0])
    waking = True
    while True:
        with token:
            block, back, ready = control[:3].tolist()
            start = block * _BLOCK_ROWS
            stop = min(start + _BLOCK_ROWS, n_rows)
            claimed = block < back and ready >= stop
            if claimed:
                control[_FRONT] = block + 1
        if claimed:
            _write_rows(handle, arrays, specs, start, stop)
        elif block >= back or not waking:
            break
        else:
            waking = os.read(wake, 1) != b""
    handle.flush()


def _claim_back(spool, arrays, specs, control, token, owner) -> None:
    """Claim blocks from the back until the back meets the front; write
    each into ``spool`` and record where it sits there."""
    n_rows = len(arrays[0])
    places = control[3:].reshape(-1, 3)
    while True:
        with token:
            block = int(control[_BACK]) - 1
            claimed = block >= control[_FRONT]
            if claimed:
                control[_BACK] = block
        if not claimed:
            break
        start, offset = block * _BLOCK_ROWS, spool.tell()
        _write_rows(spool, arrays, specs, start, min(start + _BLOCK_ROWS, n_rows))
        places[block] = owner, offset, spool.tell() - offset
    spool.flush()


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
            (np.repeat(times, ages.size), _CELLS),
            (np.tile(ages, times.size), _CELLS),
            (np.ravel(field.s), "%.17g"),
            (np.ravel(field.i), "%.17g"),
            (np.ravel(field.r), "%.17g"),
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
