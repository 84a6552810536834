import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from epiage import GridSpec, ParameterError, ParameterSet, QuadratureGrid, analysis_kernel
from epiage.grids import _simpson_weights, cell_stages


def test_grid_spec_derived_steps():
    g = GridSpec(100.0, 10.0, 200, 1000)
    assert g.da == 0.5
    assert g.dt == 0.01
    assert g.age_nodes()[0] == 0.0
    assert g.age_nodes()[-1] == 100.0
    assert g.time_nodes().size == 1001


def test_grid_spec_validation():
    with pytest.raises(ParameterError):
        GridSpec(-1.0, 10.0, 10, 10)
    with pytest.raises(ParameterError):
        GridSpec(1.0, 10.0, 1, 10)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_extents_rejected(bad):
    with pytest.raises(ParameterError):
        GridSpec(bad, 10.0, 10, 10)
    with pytest.raises(ParameterError):
        GridSpec(1.0, bad, 10, 10)
    with pytest.raises(ParameterError):
        QuadratureGrid.uniform(bad, 10)
    with pytest.raises(ParameterError):
        QuadratureGrid.graded(bad, 0.1)
    with pytest.raises(ParameterError):
        QuadratureGrid.graded(10.0, math.nan)


def test_nodes_at_the_largest_extent():
    """linspace's ramp overflows at its last node before it is set to the
    extent; the nodes stay finite and end there."""
    g = GridSpec(1.7976931348623157e308, 1.7976931348623157e308, 3, 3)
    for nodes in (g.age_nodes(), g.time_nodes()):
        assert np.all(np.isfinite(nodes))
        assert nodes[-1] == 1.7976931348623157e308


@pytest.mark.parametrize("n_panels", [3, 7])
def test_uniform_grid_at_the_largest_extent(n_panels):
    """The ramp's last node overflows before the edge replaces it, with no
    warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = QuadratureGrid.uniform(1.7976931348623157e308, n_panels)
    assert np.all(np.isfinite(grid.nodes))
    assert grid.nodes[-1] == 1.7976931348623157e308


def test_uniform_grid_is_one_block_of_linspace_nodes():
    """``uniform`` builds one block of ``_blocks``: its nodes and weights are
    those of linspace and the Simpson (or, for an odd count, trapezoid)
    weights of the panel width, bit for bit, up to the largest double and
    down to subnormal panels (where the width underflows to 0, linspace
    rounds the interior nodes of the ramp, and ``_blocks`` keeps them at 0)."""
    rng = np.random.default_rng(7)
    lengths = [1e-310, 1e-300, 1.0, 2.0, 1e300, 1.7976931348623157e308]
    lengths += list(10.0 ** rng.uniform(-300.0, 300.0, 24))
    for length in lengths:
        for n_panels in (2, 3, 4, 5, 7, 128, 129, int(rng.integers(2, 5000))):
            with np.errstate(over="ignore"):
                grid = QuadratureGrid.uniform(length, n_panels)
                nodes = np.linspace(0.0, length, n_panels + 1)
                weights = _simpson_weights(n_panels, length / n_panels)
            assert grid.panels == n_panels
            assert grid.nodes.tobytes() == nodes.tobytes()
            assert grid.weights.tobytes() == weights.tobytes()


def test_uniform_simpson_exact_for_cubics():
    g = QuadratureGrid.uniform(2.0, 10)
    vals = g.nodes ** 3 - 2 * g.nodes ** 2 + 1
    assert g.integrate(vals) == pytest.approx(2.0 ** 4 / 4 - 2 * 8 / 3 + 2, rel=1e-14)


def test_uniform_trapezoid_fallback_odd_panels():
    g = QuadratureGrid.uniform(1.0, 5)
    # exact for linear functions only
    assert g.integrate(3.0 * g.nodes) == pytest.approx(1.5, rel=1e-14)
    assert abs(g.integrate(g.nodes ** 2) - 1.0 / 3.0) > 1e-6


def test_graded_grid_resolves_boundary_layer():
    grid = QuadratureGrid.graded(1000.0, 1.0 / 150.0, 128)
    rate = 140.0
    value = grid.integrate(np.exp(-rate * grid.nodes))
    oracle = (1.0 - np.exp(-rate * 1000.0)) / rate
    assert value == pytest.approx(oracle, rel=1e-9)
    # slow tail integrand on the same nodes
    value = grid.integrate(np.exp(-0.0125 * grid.nodes))
    oracle, _ = quad(lambda a: np.exp(-0.0125 * a), 0, 1000.0, limit=500)
    assert value == pytest.approx(oracle, rel=1e-9)


def test_refined_grid_shows_fourth_order():
    grid = QuadratureGrid.graded(100.0, 0.1, 16)
    finer = grid.refined()
    assert finer.nodes.size == 2 * grid.nodes.size - 1
    oracle, _ = quad(lambda a: np.cos(a / 10.0), 0, 100.0, limit=500)
    coarse_err = abs(grid.integrate(np.cos(grid.nodes / 10.0)) - oracle)
    fine_err = abs(finer.integrate(np.cos(finer.nodes / 10.0)) - oracle)
    assert fine_err < coarse_err / 10.0  # ~16x for a 4th-order rule


def test_block_edges_are_nodes_where_the_panel_width_underflows():
    # a knot at 5e-324 makes a block whose panels are 0 wide: its last node
    # is still the edge, so the next block samples a kink there from its
    # own side, and refining keeps the edge
    grid = QuadratureGrid.graded(60.0, 0.01, 16, knots=[5e-324, 1.0])
    assert grid.nodes[16] == 5e-324
    assert grid.refined().nodes[32] == 5e-324
    step = np.where(grid.nodes > 0.0, 2.0, 0.5)
    assert grid.integrate(step) == pytest.approx(120.0, rel=1e-14)


def test_refined_grid_is_built_once():
    grid = QuadratureGrid.graded(100.0, 0.1, 16)
    assert grid.refined() is grid.refined()


def same_bits(grid, other):
    return grid.panels == other.panels and all(
        getattr(grid, name).tobytes() == getattr(other, name).tobytes()
        for name in ("nodes", "weights", "edges")
    )


def test_coarsened_preset_grids_refine_back_bit_for_bit(preset_kernel):
    grid = preset_kernel[1].grid
    coarse = grid.coarsened()
    assert coarse.panels == grid.panels // 2
    assert same_bits(coarse.refined(), grid)


def test_coarsened_grid_refines_back_past_a_zero_width_block():
    # a knot at 5e-324 gives a block whose panels underflow to 0 wide
    params = ParameterSet(
        mu=[(0, 0.0125)], beta=[(0, 60)], phi=[(0, 60), (5e-324, 30)],
        gamma=[(0, 13)], rho=[(0, 76.65)],
    )
    grid = analysis_kernel(params).grid
    assert grid.edges[1] == 5e-324
    assert same_bits(grid.coarsened().refined(), grid)


@pytest.mark.parametrize(
    "grid",
    [QuadratureGrid.uniform(1.0, 3), QuadratureGrid.graded(10.0, 0.1, 2),
     QuadratureGrid.graded(10.0, 0.1, 6)],
    ids=["odd", "two-per-block", "six-per-block"],
)
def test_grids_without_an_even_half_are_their_own_coarsening(grid):
    assert grid.coarsened() is grid


def test_cell_stages_shape_and_endpoints():
    grid = QuadratureGrid.uniform(1.0, 4)
    st = cell_stages(grid.nodes)
    assert st.shape == (4, 4)
    assert np.allclose(st[:, 0], grid.nodes[:-1])
    assert np.allclose(st[:, -1], grid.nodes[1:])
