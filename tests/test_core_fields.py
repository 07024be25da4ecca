import numpy as np
import pytest

from hk import _fem
from hk.core_fields import CellGrid, DomainGrid, ScalarField, dump_field

from oracles import (boundary_mask, cell_average, load_field, node_coords,
                     wrap_node)


def test_make_cell_grid_counts():
    grid = CellGrid(4)
    assert grid.n_elems == 16
    assert grid.n_nodes == 16  # periodic nodes are identified


def test_make_cell_grid_spacing():
    assert CellGrid(64).h == 1.0 / 64


@pytest.mark.parametrize("n", [3, 2, 12, 0])
def test_make_cell_grid_rejects_unsupported(n):
    with pytest.raises(ValueError, match="unsupported"):
        CellGrid(n)


def test_periodic_wrap_bitwise():
    grid = CellGrid(8)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(grid.n_nodes)
    f = ScalarField(grid, vals)
    ix = rng.integers(0, 8, size=50)
    iy = rng.integers(0, 8, size=50)
    same = wrap_node(grid, ix + 8, iy)
    assert np.array_equal(f.values[wrap_node(grid, ix, iy)], f.values[same])


def test_domain_grid_interior_count():
    dom = DomainGrid(8)
    assert dom.n_nodes == 81
    assert boundary_mask(dom).sum() == 4 * 8
    assert _fem.free_dofs(dom).size == 7 * 7


def test_domain_interior_is_a_permutation_of_the_interior_nodes():
    # each grid's block pattern goes with the grid
    for n in range(2, 257):
        dom = DomainGrid(n)
        assert np.array_equal(np.sort(_fem.free_dofs(dom)),
                              np.flatnonzero(~boundary_mask(dom))), n


def test_quadrature_weights_sum_to_area():
    grid = CellGrid(8)
    assert np.isclose(grid.weights.sum(), grid.h ** 2)


def test_quadrature_exact_for_bilinear_products():
    # 2x2 Gauss integrates x^a y^b exactly for a, b <= 3
    pts = _fem.REF_POINTS
    w = _fem.REF_WEIGHTS
    for a in range(4):
        for b in range(4):
            val = (w * pts[:, 0] ** a * pts[:, 1] ** b).sum()
            assert abs(val - 1.0 / ((a + 1) * (b + 1))) < 1e-14


def test_gradient_affine_exact():
    dom = DomainGrid(8)
    coords = node_coords(dom)
    g = _fem.qp_gradient(coords[:, 0], dom.conn, dom.h)
    assert np.abs(g[..., 0] - 1.0).max() < 1e-13
    assert np.abs(g[..., 1]).max() < 1e-13


def test_gradient_constant_zero():
    grid = CellGrid(8)
    g = _fem.qp_gradient(np.full(grid.n_nodes, 3.5), grid.conn, grid.h)
    assert np.abs(g).max() < 1e-14


def test_gradient_bilinear_hand_value():
    # f = x1 x2 on (0,1)^2: the interpolant is the function itself and
    # grad f = (x2, x1); at the element center of a one-element grid both
    # components equal 1/2
    dom = DomainGrid(2)
    coords = node_coords(dom)
    g = _fem.qp_gradient(coords[:, 0] * coords[:, 1], dom.conn, dom.h)
    pts = dom.qp_coords()
    assert np.abs(g[..., 0] - pts[..., 1]).max() < 1e-14
    assert np.abs(g[..., 1] - pts[..., 0]).max() < 1e-14


def test_sym_gradient_rigid_rotation():
    dom = DomainGrid(6)
    coords = node_coords(dom)
    g = _fem.qp_gradient(np.stack([coords[:, 1], -coords[:, 0]], axis=-1),
                         dom.conn, dom.h)
    s = 0.5 * (g + np.swapaxes(g, -1, -2))
    assert np.abs(s).max() < 1e-14


def test_sym_gradient_affine_cases():
    dom = DomainGrid(4)
    coords = node_coords(dom)
    g = _fem.qp_gradient(np.stack([coords[:, 0], np.zeros(dom.n_nodes)],
                                  axis=-1), dom.conn, dom.h)
    s = 0.5 * (g + np.swapaxes(g, -1, -2))
    assert np.abs(s - np.diag([1.0, 0.0])).max() < 1e-13
    g = _fem.qp_gradient(np.stack([coords[:, 1], coords[:, 0]], axis=-1),
                         dom.conn, dom.h)
    s2 = 0.5 * (g + np.swapaxes(g, -1, -2))
    assert np.abs(s2 - np.array([[0.0, 1.0], [1.0, 0.0]])).max() < 1e-13


def test_sym_gradient_symmetry_pointwise():
    grid = CellGrid(8)
    rng = np.random.default_rng(1)
    g = _fem.qp_gradient(rng.standard_normal((grid.n_nodes, 2)), grid.conn,
                         grid.h)
    s = 0.5 * (g + np.swapaxes(g, -1, -2))
    assert np.abs(s - np.swapaxes(s, -1, -2)).max() < 1e-15


def test_cell_average_constant():
    grid = CellGrid(8)
    assert np.isclose(cell_average(ScalarField(
        grid, np.full(grid.n_nodes, 5.0))), 5.0)


def test_cell_average_sine():
    grid = CellGrid(64)
    vals = np.sin(2 * np.pi * grid.node_coords()[:, 0])
    assert abs(cell_average(ScalarField(grid, vals))) <= 1e-3


def test_cell_average_two_phase():
    grid = CellGrid(16)
    vals = np.where(grid.node_coords()[:, 0] < 0, 1.0, 3.0)
    # evaluate at quadrature points of the piecewise interpolant: the
    # interface column mixes, so use the quadrature data directly
    pts = grid.qp_coords()
    data = np.where(pts[..., 0] < 0, 1.0, 3.0)
    assert np.isclose(cell_average(data), 2.0)


def test_dump_and_load_roundtrip(tmp_path):
    grid = CellGrid(4)
    rng = np.random.default_rng(3)
    f = ScalarField(grid, rng.standard_normal(grid.n_nodes))
    path = tmp_path / "demo.field"
    dump_field(f, "demo", path)
    with open(path) as stream:
        header = stream.readline()
    assert header == "FIELD demo grid=4 components=1\n"
    back = load_field(path, grid)
    assert np.array_equal(back.values, f.values)


def test_fields_immutable():
    grid = CellGrid(4)
    f = ScalarField(grid, np.zeros(grid.n_nodes))
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_qp_coords_built_once_and_read_only():
    for grid in (CellGrid(8), DomainGrid(8)):
        pts = grid.qp_coords()
        assert grid.qp_coords() is pts
        assert np.array_equal(pts, _fem.qp_coords(grid.n, grid.h, grid.origin))
        with pytest.raises(ValueError):
            pts[0, 0, 0] = 1.0
