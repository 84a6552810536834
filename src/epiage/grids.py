"""Discretization grids.

``GridSpec`` is the uniform (t, a) rectangle used by the transport solver.
``QuadratureGrid`` is a 1-d age grid carrying composite-Simpson weights; it
can be uniform or graded (dyadic blocks refining towards age 0, which is
where the steady-state boundary layers live).

``adapt`` refines every solved number: it splits only the blocks whose
share of the value still changes, so a layer is graded wherever it lies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError, ToleranceError

#: nodes ``adapt`` may evaluate, summed over its passes, before it gives up
_MAX_NODES = 1 << 20


@dataclass(frozen=True)
class GridSpec:
    """Uniform space-time grid on [0, time_max] x [0, age_max].

    The CFL requirement dt < da is enforced by ``transport.stable_timestep``
    (and by ``simulate``), not at construction, so that offending grids can
    still be built and diagnosed.
    """

    age_max: float
    time_max: float
    n_age: int
    n_time: int

    def __post_init__(self):
        if not (0.0 < self.age_max < math.inf and 0.0 < self.time_max < math.inf):
            raise ParameterError("grid extents must be positive and finite")
        if self.n_age < 2 or self.n_time < 2:
            raise ParameterError("grid needs at least 2 subintervals per axis")

    @property
    def da(self) -> float:
        return self.age_max / self.n_age

    @property
    def dt(self) -> float:
        return self.time_max / self.n_time

    def age_nodes(self) -> np.ndarray:
        return _nodes(self.age_max, self.n_age)

    def time_nodes(self) -> np.ndarray:
        return _nodes(self.time_max, self.n_time)


def _nodes(length: float, n: int) -> np.ndarray:
    """n + 1 uniform nodes on [0, length].

    Near the largest double the last node of linspace's ramp overflows
    before linspace sets it to ``length``; the others stay finite.
    """
    with np.errstate(over="ignore"):
        return np.linspace(0.0, length, n + 1)


def _simpson_weights(n_panels: int, h) -> np.ndarray:
    """Composite Simpson weights of n_panels panels of width h (an array
    of widths gives one row each).

    Falls back to the composite trapezoid rule when n_panels is odd.
    """
    w = np.multiply.outer(h, np.ones(n_panels + 1))
    if n_panels % 2 == 0:
        w *= 1.0 / 3.0
        w[..., 1:-1:2] *= 4.0
        w[..., 2:-1:2] *= 2.0
    else:
        w[..., 0] *= 0.5
        w[..., -1] *= 0.5
    return w


def cell_stages(nodes: np.ndarray) -> np.ndarray:
    """Ages at the 4 cubic stage points {0, 1/3, 2/3, 1} of every cell.

    Returns an (n_cells, 4) array; consecutive cells repeat their shared
    endpoint.
    """
    left = nodes[:-1]
    h = np.diff(nodes)
    offsets = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
    return left[:, None] + h[:, None] * offsets[None, :]


@dataclass(frozen=True)
class QuadratureGrid:
    """Age nodes plus matching quadrature weights.

    The nodes form blocks of ``panels`` uniform panels each, between
    consecutive ``edges``; consecutive blocks share their boundary node.
    ``integrate`` is a single weighted sum, exact for cubics on even-panel
    blocks.
    """

    nodes: np.ndarray
    weights: np.ndarray
    panels: int

    @classmethod
    def uniform(cls, length: float, n_panels: int) -> "QuadratureGrid":
        if not 0.0 < length < math.inf or n_panels < 2:
            raise ParameterError("quadrature grid needs finite length > 0, panels >= 2")
        return cls._blocks([0.0, length], n_panels)

    @classmethod
    def graded(
        cls,
        length: float,
        finest: float,
        panels_per_block: int = 128,
        knots=(),
    ):
        """Dyadic blocks [0, A/2^J], [A/2^J, A/2^(J-1)], ..., [A/2, A].

        J is chosen so the innermost block is no wider than ``finest``;
        every block gets ``panels_per_block`` uniform Simpson panels.
        ``knots`` are extra interior block edges (profile kinks land on
        cell boundaries there, preserving the 4th-order behaviour of the
        rule and of the exponential sweep).
        """
        if not (0.0 < length < math.inf and finest > 0.0):
            raise ParameterError("length must be positive and finite, finest scale positive")
        if panels_per_block % 2 or panels_per_block < 2:
            raise ParameterError("panels_per_block must be even and >= 2")
        depth = max(1, math.ceil(math.log2(length / min(finest, length))))
        fixed = np.unique([0.0, length] + [k for k in knots if 0.0 < k < length])
        dyadic = length * 2.0 ** -np.arange(depth, 0, -1)
        # a dyadic edge within 1e-9 A of age 0, a knot or A gives way to it,
        # so that every kink stays a block edge however close to another
        gap = np.abs(dyadic[:, None] - fixed[None, :]).min(axis=1)
        edges = np.union1d(fixed, dyadic[gap > 1e-9 * length])
        return cls._blocks(edges, panels_per_block)

    @classmethod
    def _blocks(cls, edges, n_panels: int) -> "QuadratureGrid":
        """``n_panels`` uniform Simpson panels between consecutive edges."""
        edges = np.asarray(edges, dtype=float)
        lo, hi = edges[:-1, None], edges[1:]
        h = (hi[:, None] - lo) / n_panels
        # near the largest double the last node of the ramp can overflow
        with np.errstate(over="ignore"):
            nodes = lo + h * np.arange(1, n_panels + 1)
        # the edge itself, also where h underflows in a block narrower
        # than its panels (a knot at 5e-324) or the ramp overflowed: the
        # next block's first node must sample the rates on its own side
        nodes[:, -1] = hi
        w = _simpson_weights(n_panels, h[:, 0])
        weights = np.zeros(nodes.size + 1)
        weights[1:] = w[:, 1:].ravel()
        weights[:-1:n_panels] += w[:, 0]
        return cls(np.concatenate([edges[:1], nodes.ravel()]), weights, n_panels)

    def integrate(self, values: np.ndarray) -> float:
        values = np.asarray(values)
        if values.shape[-1] != self.nodes.size:
            raise ShapeError(
                f"expected {self.nodes.size} samples, got {values.shape[-1]}"
            )
        # einsum sums in a fixed order; a BLAS dot product sums in an order
        # set by its thread count, which moved the last digits of results
        return np.einsum("...i,i->...", values, self.weights)

    @property
    def edges(self) -> np.ndarray:
        """The ages where blocks start, and the last age."""
        return self.nodes[:: self.panels]

    def shares(self, values: np.ndarray) -> np.ndarray:
        """Integral of ``values`` over each block."""
        n = self.panels
        rows = np.lib.stride_tricks.sliding_window_view(values, n + 1)[::n]
        return np.einsum("bi,i->b", rows, _simpson_weights(n, 1.0 / n)) * np.diff(self.edges)

    def refined(self) -> "QuadratureGrid":
        """Every panel split in two: the grid with every block split in two.

        Built once and kept on this grid, so each grid holds the next finer
        one: a chain, which frees as soon as its coarsest grid is freed.
        """
        finer = self.__dict__.get("_finer")
        if finer is None:
            # the frozen dataclass refuses setattr; the cache is no field
            finer = self.__dict__["_finer"] = self._blocks(self.edges, 2 * self.panels)
        return finer

    def coarsened(self) -> "QuadratureGrid":
        """The same edges with half the panels in every block, so that its
        ``refined()`` rebuilds this grid; this grid itself where half the
        panels would not be an even count (Simpson's rule needs one)."""
        if self.panels % 4:
            return self
        return self._blocks(self.edges, self.panels // 2)

    def split(self, which: np.ndarray) -> "QuadratureGrid":
        """Same panels per block, with the blocks flagged in ``which`` cut in two."""
        edges = self.edges
        return self._blocks(np.union1d(edges, 0.5 * (edges[:-1] + edges[1:])[which]), self.panels)


def adapt(evaluate, grid: QuadratureGrid, rtol: float, least: float = 1e-300):
    """(value, grid): ``evaluate`` refined by error from ``grid``.

    ``evaluate(grid)`` returns a value on the grid and its shares, one
    per block.  Each pass evaluates ``grid`` and ``grid.refined()``; once
    their shares differ by at most rtol max(|value|, least) in all, the
    finer value is returned with ``grid``.  Summed |differences| cannot
    cancel as a pre-asymptotic change of the value can.  Else the blocks
    that differ by more than that bound / blocks are split (at least the
    one that differs most), or all of them after a pass whose differences
    did not halve.  ``ToleranceError``, with the last finer value as
    ``best``, once ``_MAX_NODES`` nodes would have been evaluated.
    """
    best, shares = evaluate(grid)
    spent, last = grid.nodes.size, np.inf
    while True:
        finer = grid.refined()
        spent += finer.nodes.size
        if spent > _MAX_NODES:
            raise ToleranceError(f"quadrature refinement stalled above rtol={rtol:g}", best=best)
        best, finer_shares = evaluate(finer)
        change = np.abs(finer_shares - shares)
        bound = rtol * max(np.max(np.abs(best)), least)
        if change.sum() <= bound:
            return best, grid
        # changes that did not halve come from other blocks than those split,
        # as errors a sweep carries downstream; a NaN change splits its block
        cut = min(bound / change.size, change.max()) if change.sum() <= 0.5 * last else 0.0
        last = change.sum()
        grid = grid.split(~(change <= cut))
        spent += grid.nodes.size
        shares = evaluate(grid)[1]
