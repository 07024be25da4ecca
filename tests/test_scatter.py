"""Sums onto nodes and eps-cells against np.add.at, the reference they replace.

Values span four orders of magnitude, so a sum taken in another order than
array order differs in the last bits (reversing it changes about a third
of the node sums on CellGrid(8)).
"""

import numpy as np
import pytest

from hk import _fem
from hk.cell_problems import BatchScalarCellSolver
from hk.constitutive import Geometry, OperatorSpec
from hk.core_fields import CellGrid, DomainGrid
from hk.corrector import EpsPartition


def spread_values(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-2, 2, shape)


@pytest.mark.parametrize("grid", [CellGrid(8), DomainGrid(16)], ids=repr)
@pytest.mark.parametrize("tail", [(), (2,), (2, 2)])
def test_node_scatter_equals_add_at(grid, tail):
    values = spread_values(grid.conn.shape + tail)
    expected = np.zeros((grid.n_nodes,) + tail)
    np.add.at(expected, grid.conn, values)
    got = _fem.node_sum(grid, values)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("tail", [(), (2,)])
def test_batch_scatter_equals_add_at(k, tail):
    grid = CellGrid(8)
    spec = OperatorSpec(family="power-law", p=3.0, alpha=1.0,
                        geometry=Geometry("uniform"), sigma=(2.0, 2.0))
    per_elem = spread_values((k,) + grid.conn.shape + tail, seed=k)
    expected = np.zeros((k, grid.n_nodes) + tail)
    for j in range(k):
        np.add.at(expected[j], grid.conn, per_elem[j])
    got = np.empty_like(expected)
    assert BatchScalarCellSolver(spec, grid)._scatter(per_elem, got) is got
    assert np.array_equal(got, expected)


def test_eps_cell_scatter_equals_add_at():
    part = EpsPartition(0.25)
    ids = part.cell_of(DomainGrid(16).qp_coords().reshape(-1, 2))
    table = spread_values((ids.size, 64))
    expected = np.zeros((part.n_cells, 64))
    np.add.at(expected, ids, table)
    got = _fem.scatter(_fem.scatter_matrix(ids, part.n_cells), table)
    assert np.array_equal(got, expected)
