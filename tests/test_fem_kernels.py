"""Kernels in hk's one contraction idiom against their einsum forms.

Element and point maps are 2-D matmuls against constant reference-element
operators; 2-vector and 2x2 algebra is component-wise or a broadcast
product with a sum.  Each is checked against the einsum it replaced.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from hk import _fem
from hk._fem import isotropic_tensor
from hk.constitutive import ElasticTensorField, Geometry, OperatorSpec
from hk.core_fields import CellGrid, DomainGrid
from hk.corrector import two_scale_stress_pairing
from hk.effective import EffectiveElectrostriction
from hk.homogenized import CorrectorData
from oracles import point_eval, point_eval_gradient, solved_block

GRIDS = {"cell-8": lambda: CellGrid(8), "domain-6": lambda: DomainGrid(6)}


def _close(got, ref):
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def _add_at(grid, per_elem):
    """Element-node data (nel, 4, ...) summed onto nodes by ``np.add.at``."""
    out = np.zeros((grid.n_nodes,) + per_elem.shape[2:])
    np.add.at(out, grid.conn, per_elem)
    return out


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
    ref = _add_at(grid, per_elem)
    _close(_fem.divergence_residual(grid, flux), ref)


@pytest.mark.parametrize("tail", [(), (2,)])
def test_load_vector_matches_einsum(grid, tail):
    f_qp = np.random.default_rng(3).standard_normal((grid.n_elems, 4) + tail)
    w = grid.h * grid.h * _fem.REF_WEIGHTS
    ref = _add_at(grid, np.einsum("q,eq...,qa->ea...", w, f_qp, _fem.SHAPE))
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
    ref = solved_block(grid, ke)
    got = _fem.assemble_diffusion(grid, coef)
    _close(got.toarray(), ref)


@pytest.mark.parametrize("tail", [(), (2,)])
def test_qp_values_matches_einsum(grid, tail):
    nodal = np.random.default_rng(5).standard_normal((grid.n_nodes,) + tail)
    ref = np.einsum("qa,ea...->eq...", _fem.SHAPE, nodal[grid.conn])
    _close(_fem.qp_values(nodal, grid.conn), ref)


@pytest.mark.parametrize("tail", [(), (2,), (2, 2)])
def test_integrate_qp_matches_einsum(grid, tail):
    vals = np.random.default_rng(6).standard_normal((grid.n_elems, 4) + tail)
    ref = np.einsum("q,eq...->...", grid.h * grid.h * _fem.REF_WEIGHTS, vals)
    _close(np.asarray(_fem.integrate_qp(grid.h, vals)), ref)


@pytest.mark.parametrize("tail", [(), (2,)])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_lp_norm_qp_matches_einsum(grid, tail, p):
    vals = np.random.default_rng(7).standard_normal((grid.n_elems, 4) + tail)
    mag = np.abs(vals) if not tail else np.sqrt(
        np.einsum("eq...c,eq...c->eq...", vals, vals))
    w = grid.h * grid.h * _fem.REF_WEIGHTS
    ref = np.einsum("q,eq->", w, mag ** p) ** (1.0 / p)
    _close(np.array(_fem.lp_norm_qp(grid.h, vals, p)), ref)


def test_lp_norm_of_masked_differences_matches_weighted_sum(grid):
    # corrector errors drop points by zeroing their differences, where the
    # weighted sum they replace masked the weights
    rng = np.random.default_rng(8)
    diff = rng.standard_normal((4 * grid.n_elems, 2))
    mask = (rng.uniform(size=4 * grid.n_elems) < 0.5).astype(float)
    w = np.broadcast_to(grid.weights, (grid.n_elems, 4)).reshape(-1)
    mag = np.sqrt(np.sum(diff * diff, axis=-1))
    ref = ((w * mask) @ mag ** 3.0) ** (1.0 / 3.0)
    got = _fem.lp_norm_qp(grid.h,
                          (diff * mask[:, None]).reshape(-1, 4, 2), 3.0)
    _close(np.array(got), ref)


def _points(grid, rng, count=200):
    """Random points over the grid's square, with its corners and edges."""
    lo = np.asarray(grid.origin, dtype=float)
    pts = lo + rng.uniform(0.0, grid.n * grid.h, (count, 2))
    pts[:4] = lo + grid.n * grid.h * _fem._CORNERS
    pts[4] = lo + grid.h * np.array([2.0, 3.0])           # a node
    return pts


@pytest.mark.parametrize("tail", [(), (2,)])
def test_point_eval_matches_einsum(grid, tail):
    rng = np.random.default_rng(9)
    nodal = rng.standard_normal((grid.n_nodes,) + tail)
    pts = _points(grid, rng)
    elem, local = _fem.locate_points(pts, grid.n, grid.h, grid.origin)
    ref = np.einsum("pa,pa...->p...", _fem.shape_at(local),
                    nodal[grid.conn[elem]])
    got = point_eval(nodal, grid.conn, grid.h, grid.n, grid.origin, pts)
    _close(got, ref)
    assert point_eval(nodal, grid.conn, grid.h, grid.n, grid.origin,
                      pts.reshape(10, 20, 2)).shape == (10, 20) + tail


@pytest.mark.parametrize("tail", [(), (2,)])
def test_point_eval_gradient_matches_einsum(grid, tail):
    rng = np.random.default_rng(10)
    nodal = rng.standard_normal((grid.n_nodes,) + tail)
    pts = _points(grid, rng)
    elem, local = _fem.locate_points(pts, grid.n, grid.h, grid.origin)
    ref = np.einsum("pad,pa...->p...d", _fem.shape_grad_at(local) / grid.h,
                    nodal[grid.conn[elem]])
    got = point_eval_gradient(nodal, grid.conn, grid.h, grid.n,
                              grid.origin, pts)
    _close(got, ref)


def test_table_row_gradient_matches_einsum():
    from hk.corrector import _table_grad_at
    cell = CellGrid(8)
    rng = np.random.default_rng(11)
    tables = rng.standard_normal((30, cell.n_nodes))
    y = rng.uniform(-0.5, 0.5, (500, 2))
    rows = rng.integers(0, 30, 500)
    elem, local = _fem.locate_points(y, cell.n, cell.h, cell.origin)
    ref = np.einsum("mad,ma->md", _fem.shape_grad_at(local) / cell.h,
                    tables[rows[:, None], cell.conn[elem]])
    _close(_table_grad_at(tables, rows, cell, elem, local), ref)


def test_recovered_gradient_matches_einsum(grid):
    nodal = np.random.default_rng(12).standard_normal(grid.n_nodes)
    corner_grad = _fem.shape_grad_at(_fem._CORNERS) / grid.h
    ge = np.einsum("cad,ea->ecd", corner_grad, nodal[grid.conn])
    counts = _add_at(grid, np.ones(grid.conn.shape))
    ref = _add_at(grid, ge) / counts[:, None]
    _close(_fem.recovered_gradient(grid, nodal), ref)


def test_isotropic_elastic_blocks_match_einsum(grid):
    rng = np.random.default_rng(13)
    lam = rng.uniform(0.5, 2.0, (grid.n_elems, 4))
    mu = rng.uniform(0.5, 2.0, (grid.n_elems, 4))
    w = grid.h * grid.h * _fem.REF_WEIGHTS
    g = _fem.SHAPE_GRAD / grid.h
    ke = (np.einsum("q,eq,qai,qbj->eaibj", w, lam, g, g)
          + np.einsum("q,eq,qaj,qbi->eaibj", w, mu, g, g)
          + np.einsum("q,eq,ij,qak,qbk->eaibj", w, mu, np.eye(2), g, g))
    ref = solved_block(grid, ke.reshape(-1, 8, 8), dofs_per_node=2)
    got = _fem.assemble_elasticity(grid, lam, mu)
    _close(got.toarray(), ref)


def test_tensor_elastic_blocks_match_einsum(grid):
    # a tensor without symmetries, so every entry of the operator counts
    tensor = np.random.default_rng(14).standard_normal((2, 2, 2, 2))
    w = grid.h * grid.h * _fem.REF_WEIGHTS
    g = _fem.SHAPE_GRAD / grid.h
    ke = np.einsum("q,qak,ikjl,qbl->aibj", w, g, tensor, g).reshape(8, 8)
    ref = solved_block(grid, np.broadcast_to(ke, (grid.n_elems, 8, 8)),
                       dofs_per_node=2)
    got = _fem.assemble_elasticity_constant(grid, tensor)
    _close(got.toarray(), ref)


STENCIL_GRIDS = {"domain-2": lambda: DomainGrid(2),
                 "domain-3": lambda: DomainGrid(3),
                 "domain-8": lambda: DomainGrid(8),
                 "cell-4": lambda: CellGrid(4),
                 "cell-8": lambda: CellGrid(8)}


def _random_block(grid, kind, rng):
    """An assembled block of a random coefficient, its element blocks and
    its dofs per node.  The matrix and tensor coefficients have no
    symmetry, so neither does their block."""
    nel = grid.n_elems
    if kind == "scalar":
        coef = rng.uniform(0.5, 2.0, (nel, 4))
        return (_fem.assemble_diffusion(grid, coef),
                coef @ _fem.SCALAR_BLOCK_OP, 1)
    if kind == "matrix":
        coef = 2.0 * np.eye(2) + 0.5 * rng.standard_normal((nel, 4, 2, 2))
        return (_fem.assemble_diffusion(grid, coef),
                coef.reshape(nel, 16) @ _fem.BLOCK_OP, 1)
    if kind == "lame":
        lam, mu = rng.uniform(0.5, 2.0, (2, nel, 4))
        lame = np.stack([lam, mu], axis=-1).reshape(nel, 8)
        return (_fem.assemble_elasticity(grid, lam, mu),
                lame @ _fem.LAME_BLOCK_OP, 2)
    tensor = isotropic_tensor(1.0, 1.0) \
        + 0.2 * rng.standard_normal((2, 2, 2, 2))
    ke = np.tile(tensor.reshape(16), 4) @ _fem.ELASTIC_BLOCK_OP
    return (_fem.assemble_elasticity_constant(grid, tensor),
            np.broadcast_to(ke, (nel, 64)), 2)


@pytest.mark.parametrize("kind", ["scalar", "matrix", "lame", "tensor"])
@pytest.mark.parametrize("name", sorted(STENCIL_GRIDS))
def test_stencil_block_matches_coo_reference(name, kind):
    # Dirichlet N = 2 has one interior node; the periodic grids wrap
    grid = STENCIL_GRIDS[name]()
    block, ke, d = _random_block(grid, kind, np.random.default_rng(21))
    _close(block.toarray(), solved_block(grid, ke, d))
    # sorted with no duplicates, so scipy never sorts the cached pattern
    # in place, and it could not: its index arrays are read-only
    assert block.has_canonical_format
    assert block.indices.dtype == block.indptr.dtype == np.int32
    assert not block.indices.flags.writeable
    assert not block.indptr.flags.writeable


@pytest.mark.parametrize("kind", ["scalar", "matrix", "lame", "tensor"])
@pytest.mark.parametrize("name", sorted(STENCIL_GRIDS))
def test_direct_solves_match_dense_reference(name, kind):
    # the factorization takes the block's arrays as the CSC arrays of its
    # transpose: with no symmetry in the block, a wrong orientation solves
    # the transpose
    grid = STENCIL_GRIDS[name]()
    rng = np.random.default_rng(22)
    block, ke, d = _random_block(grid, kind, rng)
    ref = solved_block(grid, ke, d)
    rhs = rng.standard_normal(d * grid.n_nodes)
    expected = np.zeros(rhs.size)
    if grid.periodic:
        # pinned at node 0, then shifted to zero mean per component
        expected[d:] = np.linalg.solve(ref, rhs[d:])
        expected = expected.reshape(-1, d)
        expected -= expected.mean(axis=0)
        got = _fem.solve_periodic_pinned(block, rhs[:, None], d)
    else:
        free = _fem.free_dofs(grid, d)
        expected[free] = np.linalg.solve(ref, rhs[free])
        got = _fem.solve_dirichlet(block, rhs, grid, d)
    got = got.reshape(expected.shape)
    assert np.abs(got - expected).max() <= 1e-11 * np.abs(expected).max()


def test_isotropic_tensor_matches_einsum():
    eye = np.eye(2)
    ref = (0.7 * np.einsum("ij,kh->ijkh", eye, eye)
           + 1.3 * (np.einsum("ik,jh->ijkh", eye, eye)
                    + np.einsum("ih,jk->ijkh", eye, eye)))
    assert np.array_equal(isotropic_tensor(0.7, 1.3), ref)


@pytest.mark.parametrize("xi_shape", [(5, 64, 4, 2), (64, 4, 2), (2,)])
def test_linear_flux_local_matches_einsum(xi_shape):
    spec = OperatorSpec(family="linear",
                        geometry=Geometry(kind="laminate", fraction=0.5),
                        matrices=([[2.0, 0.5], [0.3, 1.0]],
                                  [[1.0, -0.2], [0.4, 3.0]]))
    cell = CellGrid(8)
    loc = spec.local_coefficients(cell.qp_coords())
    loc = {k: v[None] for k, v in loc.items()} if len(xi_shape) == 4 else loc
    xi = np.random.default_rng(15).standard_normal(xi_shape)
    ref = np.einsum("...ij,...j->...i", loc["bmat"], xi)
    _close(spec.flux_local(loc, xi), ref)


@pytest.mark.parametrize("pairs", [((1.0, 1.0), (3.0, 2.0)),
                                   ((0.5, 0.5), (1.5, 1.0)),
                                   ((0.7, 1.3), (2.1, 0.37))])
def test_tensor_field_stress_matches_einsum(pairs):
    field = ElasticTensorField.from_lame(
        *pairs, Geometry(kind="laminate", fraction=0.5))
    points = CellGrid(8).qp_coords()
    chi = field.geometry.indicator(points)[..., None, None, None, None]
    tensors = np.where(chi, isotropic_tensor(*pairs[1]),
                       isotropic_tensor(*pairs[0]))
    # bitwise on the unit strains, which the effective tensors load
    for i, j in ((0, 0), (0, 1), (1, 1)):
        strain = np.zeros((2, 2))
        strain[i, j] += 0.5
        strain[j, i] += 0.5
        ref = np.einsum("...ijkh,...kh->...ij", tensors, strain)
        assert np.array_equal(field.stress(points, strain), ref)
    rng = np.random.default_rng(18)
    for shape in ((2, 2), (64, 4, 2, 2)):
        mat = rng.standard_normal(shape)
        mat = 0.5 * (mat + np.swapaxes(mat, -1, -2))
        ref = np.einsum("...ijkh,...kh->...ij", tensors, mat)
        got = field.stress(points, mat)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("mat_shape", [(2, 2), (36, 4, 2, 2)])
def test_electrostriction_apply_matches_einsum(mat_shape):
    rng = np.random.default_rng(19)
    eff = EffectiveElectrostriction(rng.standard_normal((2, 2, 2, 2)), {})
    mat = rng.standard_normal(mat_shape)
    ref = np.einsum("ijkl,...ij->...kl", eff.pair_matrices, mat)
    _close(eff.apply(mat), ref)


def test_two_scale_stress_pairing_matches_einsum():
    # 16,384 weighted products per entry, summed in another order
    rng = np.random.default_rng(20)
    sample, cell = DomainGrid(4), CellGrid(8)
    k = 4 * sample.n_elems
    corr = CorrectorData(sample, cell, rng.standard_normal((k, 2)),
                         rng.standard_normal((k, cell.n_nodes)),
                         np.zeros(k), np.zeros(k))

    def psi_x(x1, x2):
        return x1 * (1.0 - x2) + 0.5

    def psi_y(y1, y2):
        return 1.0 + 0.5 * np.sin(2.0 * np.pi * y1) * np.cos(np.pi * y2)

    spts = sample.qp_coords().reshape(-1, 2)
    fx = psi_x(spts[:, 0], spts[:, 1]) \
        * np.broadcast_to(sample.weights, (sample.n_elems, 4)).ravel()
    ypts = cell.qp_coords()
    fy = psi_y(ypts[..., 0], ypts[..., 1]) * cell.weights
    vals = corr.potentials[:, cell.conn]
    total = np.einsum("qad,kea->keqd", _fem.SHAPE_GRAD, vals) / cell.h \
        + corr.loadings[:, None, None, :]
    outer = np.einsum("keqc,keqd->keqcd", total, total)
    ref = np.einsum("k,eq,keqcd->cd", fx, fy, outer)
    _close(two_scale_stress_pairing(corr, psi_x, psi_y), ref)



@pytest.mark.parametrize("tail", [(), (2,), (2, 2)])
def test_take_gathers_equal_fancy_indexing(grid, tail):
    # np.take picks the same entries as fancy indexing, so every kernel
    # fed by a gather is bitwise what it was
    rng = np.random.default_rng(21)
    nodal = rng.standard_normal((grid.n_nodes,) + tail)
    pts = _points(grid, rng)
    elem, local = _fem.locate_points(pts, grid.n, grid.h, grid.origin)
    assert np.array_equal(_fem.element_values(nodal, grid.conn, elem),
                          nodal[grid.conn[elem]])
    c, x, y = _fem._bilinear(nodal[grid.conn[elem]], local)
    value = c[0] + x * c[1] + y * (c[2] + x * c[3])
    assert np.array_equal(point_eval(nodal, grid.conn, grid.h, grid.n,
                                     grid.origin, pts), value)
    assert np.array_equal(
        point_eval_gradient(nodal, grid.conn, grid.h, grid.n, grid.origin,
                            pts),
        _fem.gradient_at_local(nodal[grid.conn[elem]], local, grid.h))
    assert np.array_equal(_fem.qp_values(nodal, grid.conn),
                          _fem.element_map(_fem.SHAPE.T, nodal[grid.conn]))
    if tail != (2, 2):
        assert np.array_equal(
            _fem.qp_gradient(nodal, grid.conn, grid.h),
            _fem.element_map(_fem.GRAD_OP, nodal[grid.conn], 1, 2) / grid.h)
    if tail == ():
        ge = _fem.element_map(_fem.CORNER_GRAD_OP, nodal[grid.conn], 1, 2) \
            / grid.h
        counts = _add_at(grid, np.ones(grid.conn.shape))
        assert np.array_equal(_fem.recovered_gradient(grid, nodal),
                              _add_at(grid, ge) / counts[:, None])
    # a table read at a different row per point
    tables = rng.standard_normal((7, grid.n_nodes))
    rows = rng.integers(0, 7, elem.size)
    assert np.array_equal(
        _fem.element_values(tables, grid.conn, elem, rows),
        tables[rows[:, None], grid.conn[elem]])


def test_gradient_form_matches_element_kernels():
    # K u + F xi is the assembled flux of xi + grad u, and u . K u its
    # quadrature sum against grad u, for a non-symmetric coefficient
    cell = CellGrid(8)
    rng = np.random.default_rng(22)
    coef = rng.standard_normal((cell.n_elems, 4, 2, 2))
    u = rng.standard_normal(cell.n_nodes)
    xi = rng.standard_normal(2)
    gradient = _fem.gradient_matrix(cell)
    _close(gradient @ u, _fem.qp_gradient(u, cell.conn, cell.h).ravel())
    stiffness, load = _fem.gradient_form(gradient, coef)
    grad = _fem.qp_gradient(u, cell.conn, cell.h)
    flux = np.einsum("eqcd,eqd->eqc", coef, xi + grad)
    ref = _fem.divergence_residual(cell, flux / (cell.h ** 2 / 4.0))
    _close(stiffness @ u + load @ xi, ref)
    quad = np.einsum("eqc,eqcd,eqd->", grad, coef, grad)
    assert abs(u @ (stiffness @ u) - quad) <= 1e-13 * abs(quad)
    assert stiffness.nnz == 9 * cell.n_nodes


def test_two_scale_stress_pairing_memory_within_budget():
    # 16,384 sample rows of a cell_n 8 table: one (rows x nodes) temporary
    # would take 8 MiB, twice the work budget; the chunks keep each to it
    import tracemalloc
    rng = np.random.default_rng(23)
    sample, cell = DomainGrid(64), CellGrid(8)
    k = 4 * sample.n_elems
    corr = CorrectorData(sample, cell, rng.standard_normal((k, 2)),
                         rng.standard_normal((k, cell.n_nodes)),
                         np.zeros(k), np.zeros(k))
    assert k * cell.n_nodes * 8 > _fem.WORK_BUDGET_BYTES
    # the grids cache their coordinates on first use, outside the count
    sample.qp_coords(), cell.qp_coords()

    def psi(a, b):
        return 1.0 + a * b

    tracemalloc.start()
    try:
        out = two_scale_stress_pairing(corr, psi, psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(out).all()
    # the budget, plus per-row weights and the sample points
    assert peak <= _fem.WORK_BUDGET_BYTES + 64 * k


_LIBRARY = Path(__file__).resolve().parents[1] / "src" / "hk"


def _identifiers(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]
            yield node.asname
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.arg, ast.keyword)):
            yield node.arg


@pytest.mark.parametrize("path", sorted(_LIBRARY.glob("*.py")),
                         ids=lambda p: p.name)
def test_library_has_one_kernel_idiom(path):
    # contractions are constant-operator matmuls or component-wise
    # algebra: no einsum call and no ``contract`` helper
    names = set(_identifiers(ast.parse(path.read_text(), str(path))))
    assert not {n for n in names if n and "einsum" in n}
    assert not names & {"contract", "_contract"}
    # one assembly path, stencil sums into the solved block: no COO
    # triplets
    assert not names & {"coo_matrix", "coo_array"}


def test_library_has_one_work_budget():
    # every batch of work arrays is sized by one byte budget: one
    # module-level ``*_BUDGET_BYTES`` constant in the library, and no cap
    # on chunk rows beside it
    budgets, names = [], set()
    for path in sorted(_LIBRARY.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names |= set(_identifiers(tree))
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            budgets += [f"{path.stem}.{t.id}" for t in targets
                        if isinstance(t, ast.Name)
                        and t.id.endswith("_BUDGET_BYTES")]
    assert budgets == ["_fem.WORK_BUDGET_BYTES"]
    assert "MAX_CHUNK" not in names


def test_library_has_one_fine_grid_walk():
    # one per-element figure sizes every block of element rows, fine
    # points map to the cell by _fem.cell_points alone (no OscillatoryMap
    # class), and only the elastic load, which scatters rather than sums,
    # walks row_blocks outside _fem
    figures, callers, names = [], set(), set()
    for path in sorted(_LIBRARY.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names |= set(_identifiers(tree))
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            figures += [f"{path.stem}.{t.id}" for t in targets
                        if isinstance(t, ast.Name)
                        and t.id.endswith("_BYTES_PER_ELEMENT")]
            if path.stem == "_fem":
                continue
            owner = getattr(node, "name", "<module>")
            callers |= {f"{path.stem}.{owner}" for sub in ast.walk(node)
                        if isinstance(sub, ast.Call)
                        and ast.unparse(sub.func).endswith("row_blocks")}
    assert figures == ["_fem.ROW_BYTES_PER_ELEMENT"]
    assert "OscillatoryMap" not in names
    assert callers == {"fine_scale._electric_load"}


def test_library_has_one_factorization_policy():
    # every sparse direct solve goes through one factorization helper: one
    # SuperLU call, one elimination order named as a constant, and no
    # grid-specific order beside it
    calls, orders, names = [], set(), set()
    for path in sorted(_LIBRARY.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names |= set(_identifiers(tree))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "splu"):
                calls.append(f"{path.stem}.{ast.unparse(node.func)}")
                orders |= {ast.unparse(k.value) for k in node.keywords
                           if k.arg == "permc_spec"}
            elif isinstance(node, ast.Constant) and node.value in (
                    "NATURAL", "MMD_ATA", "MMD_AT_PLUS_A", "COLAMD"):
                orders.add(repr(node.value))
    assert calls == ["_fem.spla.splu"]
    assert orders == {"'MMD_AT_PLUS_A'"}
    assert "nested_dissection" not in names


@pytest.mark.parametrize("periodic", [False, True], ids=["dirichlet",
                                                         "periodic"])
def test_block_pattern_lives_with_its_grid(periodic):
    import weakref
    make = (lambda: CellGrid(16)) if periodic else (lambda: DomainGrid(16))
    rng = np.random.default_rng(31)
    lam, mu = rng.uniform(1.0, 2.0, (2, 16 * 16, 4))
    grid = make()
    first = _fem.assemble_elasticity(grid, lam, mu)
    pattern = _fem._block_pattern(grid, 2)
    # every solve on one grid shares its pattern
    assert _fem._block_pattern(grid, 2) is pattern
    assert pattern is grid.block_patterns[2]
    dead = weakref.ref(pattern)
    del grid, pattern
    assert dead() is None
    # a new grid builds the same pattern, and the same block, bitwise
    again = _fem.assemble_elasticity(make(), lam, mu)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(first, name), getattr(again, name))


@pytest.mark.parametrize("tail", [(), (2,)], ids=["scalar", "vector"])
@pytest.mark.parametrize("rows", [1, 3, 7, 16])
def test_row_blocks_sum_bitwise_as_whole_tables(rows, tail, monkeypatch):
    # 16 element rows in blocks of 1, 3, 7 (the last block shorter) or all
    grid = DomainGrid(16)
    monkeypatch.setattr(_fem, "WORK_BUDGET_BYTES",
                        rows * 16 * _fem.ROW_BYTES_PER_ELEMENT)
    blocks = _fem.row_blocks(grid.n)
    assert {b.stop - b.start for b in blocks[:-1]} <= {rows}
    assert blocks[0].start == 0 and blocks[-1].stop == grid.n
    rng = np.random.default_rng(32)
    values = rng.standard_normal((grid.n_elems, 4) + tail) \
        * 10.0 ** rng.integers(-6, 6, (grid.n_elems, 4) + tail)
    nodal = np.zeros((grid.n_nodes,) + tail)
    for block in blocks:
        _fem.scatter_rows(nodal, grid, block,
                          _fem.rows_of(values, grid.n, block))
    sums = _fem.row_sums(
        grid.n, lambda block: _fem.rows_of(values, grid.n, block))
    assert np.array_equal(nodal, _add_at(grid, values))
    assert np.array_equal(_fem.integrate_qp(grid.h, sums),
                          _fem.integrate_qp(grid.h, values))


@pytest.mark.parametrize("rows", [1, 3, 7])
def test_cell_points_of_row_blocks_concatenate_bitwise(rows):
    # blocks of 1, 3 and 7 element rows at N = 32 (3 and 7 leave a
    # shorter last block) against the whole grid's y = {x/eps}_Y
    grid, eps = DomainGrid(32), 0.125
    whole = _fem.cell_points(grid, eps)
    assert np.array_equal(whole, _fem.wrap_to_cell(
        _fem.qp_coords(grid.n, grid.h, grid.origin) / eps))
    parts = [_fem.cell_points(grid, eps, slice(start, start + rows))
             for start in range(0, grid.n, rows)]
    assert np.array_equal(np.concatenate(parts), whole)
