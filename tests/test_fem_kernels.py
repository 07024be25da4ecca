"""The Q1 kernels' constant-operator matmuls against their einsum forms."""

import numpy as np
import pytest

from hk import _fem
from hk.core_fields import DomainGrid, make_cell_grid

GRIDS = {"cell-8": lambda: make_cell_grid(8), "domain-6": lambda: DomainGrid(6)}


def _close(got, ref):
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.fixture(params=sorted(GRIDS))
def grid(request):
    return GRIDS[request.param]()


@pytest.mark.parametrize("tail", [(), (2,)])
def test_qp_gradient_matches_einsum(grid, tail):
    nodal = np.random.default_rng(1).standard_normal((grid.n_nodes,) + tail)
    ref = np.einsum("qad,ea...->eq...d", _fem.SHAPE_GRAD,
                    nodal[grid.conn]) / grid.h
    got = _fem.qp_gradient(nodal, grid.conn, grid.h)
    _close(got, ref)
    assert got.flags.c_contiguous


@pytest.mark.parametrize("tail", [(2,), (2, 2)])
def test_divergence_residual_matches_einsum(grid, tail):
    flux = np.random.default_rng(2).standard_normal((grid.n_elems, 4) + tail)
    w = grid.h * grid.h * _fem.REF_WEIGHTS
    per_elem = np.einsum("q,eq...d,qad->ea...", w, flux,
                         _fem.SHAPE_GRAD) / grid.h
    ref = _fem.scatter(grid.node_scatter, per_elem)
    _close(_fem.divergence_residual(grid, flux), ref)


@pytest.mark.parametrize("tail", [(), (2,)])
def test_load_vector_matches_einsum(grid, tail):
    f_qp = np.random.default_rng(3).standard_normal((grid.n_elems, 4) + tail)
    w = grid.h * grid.h * _fem.REF_WEIGHTS
    ref = _fem.scatter(grid.node_scatter,
                       np.einsum("q,eq...,qa->ea...", w, f_qp, _fem.SHAPE))
    _close(_fem.load_vector(grid, f_qp), ref)


@pytest.mark.parametrize("tail", [(), (2, 2)])
def test_assemble_diffusion_matches_einsum(grid, tail):
    coef = np.random.default_rng(4).standard_normal((grid.n_elems, 4) + tail)
    w = grid.h * grid.h * _fem.REF_WEIGHTS
    g = _fem.SHAPE_GRAD / grid.h
    if tail:
        ke = np.einsum("q,qad,eqdc,qbc->eab", w, g, coef, g)
    else:
        ke = np.einsum("q,qad,eq,qbd->eab", w, g, coef, g)
    ref = _fem._csr_from_blocks(grid.conn, ke, grid.n_nodes).toarray()
    got = _fem.assemble_diffusion(grid.conn, grid.h, grid.n_nodes, coef)
    _close(got.toarray(), ref)
