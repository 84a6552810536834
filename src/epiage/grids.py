"""Discretization grids.

``GridSpec`` is the uniform (t, a) rectangle used by the transport solver.
``QuadratureGrid`` is a 1-d age grid carrying composite-Simpson weights; it
can be uniform or graded (dyadic blocks refining towards age 0, which is
where the steady-state boundary layers live).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ShapeError

#: halvings of every panel a refinement chain may take before it gives up
_MAX_REFINEMENTS = 6


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


def _simpson_weights(n_panels: int, h: float) -> np.ndarray:
    """Weights of the composite Simpson rule on n_panels uniform panels.

    Falls back to the composite trapezoid rule when n_panels is odd.
    """
    w = np.full(n_panels + 1, h)
    if n_panels % 2 == 0:
        w *= 1.0 / 3.0
        w[1:-1:2] *= 4.0
        w[2:-1:2] *= 2.0
    else:
        w[0] *= 0.5
        w[-1] *= 0.5
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

    ``blocks`` lists (start_index, n_panels) per uniform block; consecutive
    blocks share their boundary node.  ``integrate`` is a single dot
    product, exact for cubics on even-panel blocks.
    """

    nodes: np.ndarray
    weights: np.ndarray
    blocks: tuple = field(default=())

    @classmethod
    def uniform(cls, length: float, n_panels: int) -> "QuadratureGrid":
        if not 0.0 < length < math.inf or n_panels < 2:
            raise ParameterError("quadrature grid needs finite length > 0, panels >= 2")
        nodes = np.linspace(0.0, length, n_panels + 1)
        w = _simpson_weights(n_panels, length / n_panels)
        return cls(nodes, w, ((0, n_panels),))

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
        nodes = [np.array([edges[0]])]
        weights = np.zeros(1)
        blocks = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            h = (hi - lo) / n_panels
            blocks.append((len(weights) - 1, n_panels))
            block = lo + h * np.arange(1, n_panels + 1)
            # the edge itself, also where h underflows in a block narrower
            # than its panels (a knot at 5e-324): the next block's first
            # node must sample the rates on its own side of the edge
            block[-1] = hi
            nodes.append(block)
            w = _simpson_weights(n_panels, h)
            weights[-1] += w[0]
            weights = np.concatenate([weights, w[1:]])
        return cls(np.concatenate(nodes), weights, tuple(blocks))

    def integrate(self, values: np.ndarray) -> float:
        values = np.asarray(values)
        if values.shape[-1] != self.nodes.size:
            raise ShapeError(
                f"expected {self.nodes.size} samples, got {values.shape[-1]}"
            )
        return values @ self.weights

    def refined(self) -> "QuadratureGrid":
        """Same block edges with every panel split in two."""
        starts = [start for start, _ in self.blocks]
        return self._blocks(self.nodes[starts + [-1]], 2 * self.blocks[0][1])
