"""Vectorized Q1 element kernels, linear-solver plumbing and the Newton driver.

Everything here works on structured square grids (periodic unit cell or
Dirichlet unit square) with 2x2 Gauss quadrature per element.  Quadrature
data is laid out as arrays of shape (n_elements, 4, ...); nodal data as
(n_nodes, ...) with fixed row-major node numbering.  Each kernel takes
scalar and vector data alike (the trailing ``...``).  Contractions take
one form: an element or point map (values, gradients, loads, element
blocks) is a constant reference-element operator applied to all elements
by one 2-D matmul, an element tensor being a coefficient vector times a
constant reference tensor (Kirby & Logg, ACM TOMS 2006); 2-vector and 2x2
algebra is component-wise or a broadcast product summed over its axes.
Gathers are ``np.take``, bitwise the fancy indexing they replace and
several times faster on multi-column data; a point's element data, from
a field or from a table row per point, is one ``element_values``.  Sums
onto nodes keep no per-grid matrix: ``node_sum`` adds each node's
element entries in element order, bitwise as ``np.add.at`` does, by one
slice-add per local node and component on a Dirichlet grid
(``scatter_rows``, which also sums blocks of element rows) and by one
gather per element slot of each node on a periodic grid, whose stencil
wraps (``slot_sums``, shared with the batched cell solver).  Stiffness
matrices are summed per
stencil direction straight into the block of free dofs that the solves
take (``_assemble``).  Only the sums onto eps-cells are a product with a
one-hot CSR matrix (``scatter_matrix``, ``scatter``).  A pass over a
table of cell fields that is linear or quadratic in each row runs at
the nodes: ``gradient_form`` turns per-point coefficients into a
9-point nodal operator K = G^T C G and a load F (G the sparse
``gradient_matrix``), so a row costs a sparse product instead of an
evaluation at every quadrature point.  Every batch of work arrays is
sliced by one rule (``blocks``); every integral over a fine grid walks
its blocks of element rows in one loop (``row_sums``), and every fine
point maps to the unit cell by one function (``cell_points``).  A
Dirichlet grid that the V-cycle cannot halve is factored (``factor``:
banded Cholesky in the block's row order, else SuperLU), any other runs
multigrid PCG down to such a grid (``solve_dirichlet``); periodic cells
take SuperLU.  Nothing is kept for the process: a grid's block
patterns go with the grid, and a V-cycle's transfers with its solve or
with the ``transfers`` dict that a caller shares across its solves.
"""

from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from math import prod
from operator import mul

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpbtrf as _dpbtrf, dpbtrs as _dpbtrs

from .errors import NonConvergence, SingularSystem

_G0 = 0.5 - 0.5 / np.sqrt(3.0)
_G1 = 0.5 + 0.5 / np.sqrt(3.0)

# Quadrature-point order (2x2 Gauss on the reference square [0,1]^2):
# q = 2*iy + ix over (gx, gy) in {g0, g1}^2.
REF_POINTS = np.array([(gx, gy) for gy in (_G0, _G1) for gx in (_G0, _G1)])
REF_WEIGHTS = np.full(4, 0.25)

# Work arrays that scale with a batch stay within this many bytes, the
# size class of a 2 MiB-per-core L2 cache; ``blocks`` slices every batch
# by it: the batched cell solver's chunks of loadings, the chunks of table
# rows of a linear law's attached check and of the stress pairing, and
# the blocks of element rows that the fine-grid integrals (``row_sums``:
# the errors, the pairings, the Maxwell check and the pairing limit) and
# the elastic load (``scatter_rows``) walk.  Cold batched p = 3 cell
# solves, one BLAS thread, best of 15 at n = 8 (200 rows) / n = 16 (100)
# / n = 32 (40): 2 MiB 17.7 / 48.2 / 109 ms, 4 MiB 17.2 / 47.5 / 104 ms,
# 8 MiB 15.6 / 45.1 / 105 ms, 40 MiB 15.8 / 49.1 / 124 ms; 4 and 8 MiB
# are within the host's noise of each other, and the smaller one is kept.
WORK_BUDGET_BYTES = 4 * 2 ** 20

# Local node order: counterclockwise from the lower-left corner.
_CORNERS = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
# nodal values (a) -> coefficients (m) of 1, x, y, xy of the interpolant
# v0 (1-x)(1-y) + v1 x(1-y) + v2 xy + v3 (1-x) y
#   = v0 + (v1 - v0) x + (v3 - v0) y + (v0 - v1 + v2 - v3) xy
BILINEAR_OP = np.array([[1.0, -1.0, -1.0, 1.0],
                        [0.0, 1.0, 0.0, -1.0],
                        [0.0, 0.0, 0.0, 1.0],
                        [0.0, 0.0, 1.0, -1.0]])


def shape_at(local):
    """Q1 shape values at arbitrary local coordinates, (..., 4)."""
    gx = local[..., 0][..., None]
    gy = local[..., 1][..., None]
    cx = _CORNERS[:, 0]
    cy = _CORNERS[:, 1]
    return (cx * gx + (1 - cx) * (1 - gx)) * (cy * gy + (1 - cy) * (1 - gy))


def shape_grad_at(local):
    """Reference Q1 gradients at arbitrary local coordinates, (..., 4, 2)."""
    x, y = local[..., :1], local[..., 1:]
    b = BILINEAR_OP
    return np.stack([b[:, 1] + y * b[:, 3], b[:, 2] + x * b[:, 3]], axis=-1)


def isotropic_tensor(lam, mu):
    """B_{ijkh} = lam d_ij d_kh + mu (d_ik d_jh + d_ih d_jk)."""
    d = np.eye(2)
    return (lam * d[:, :, None, None] * d[None, None, :, :]
            + mu * (d[:, None, :, None] * d[None, :, None, :]
                    + d[:, None, None, :] * d[None, :, :, None]))


# shape values (4 qp, 4 node) and reference gradients (4 qp, 4 node, 2)
SHAPE = shape_at(REF_POINTS)
SHAPE_GRAD = shape_grad_at(REF_POINTS)

# Constant operators of the reference element (h = 1) that make each Q1
# kernel one 2-D matmul over all elements: nodal values (a) -> values (q),
# gradients (q, d) or gradients at the corners (c, d); fluxes (q, d) ->
# ∫ flux . grad N_a (a); sources (q) -> ∫ f N_a (a); scalar (q), matrix
# (q, d, c) or fourth-order (q, i, k, j, l) coefficients -> element blocks.
# Gradients scale by 1/h, fluxes by h, sources by h^2; the blocks do not
# depend on h in two dimensions.
_GT = SHAPE_GRAD.transpose(0, 2, 1)            # (q, d, a)
GRAD_OP = SHAPE_GRAD.transpose(1, 0, 2).reshape(4, 8)
CORNER_GRAD_OP = shape_grad_at(_CORNERS).transpose(1, 0, 2).reshape(4, 8)
DIV_OP = (REF_WEIGHTS[:, None, None] * _GT).reshape(8, 4)
LOAD_OP = REF_WEIGHTS[:, None] * SHAPE
SCALAR_BLOCK_OP = (REF_WEIGHTS[:, None, None]
                   * (_GT[:, :, :, None] * _GT[:, :, None, :]).sum(axis=1)) \
    .reshape(4, 16)
BLOCK_OP = (REF_WEIGHTS[:, None, None, None, None]
            * _GT[:, :, None, :, None] * _GT[:, None, :, None, :]) \
    .reshape(16, 16)
# elastic blocks K[(a,i),(b,j)] = sum_q w d_k N_a B_{ikjl} d_l N_b are the
# matrix blocks (q, k, l) -> (a, b) on each component pair i, j, with rows
# (q, i, k, j, l); the Lame rows apply them to the isotropic basis tensors
ELASTIC_BLOCK_OP = (BLOCK_OP.reshape(4, 1, 2, 1, 2, 4, 1, 4, 1)
                    * np.eye(2).reshape(1, 2, 1, 1, 1, 1, 2, 1, 1)
                    * np.eye(2).reshape(1, 1, 1, 2, 1, 1, 1, 1, 2)) \
    .reshape(64, 64)
LAME_BLOCK_OP = (np.stack([isotropic_tensor(1.0, 0.0),
                           isotropic_tensor(0.0, 1.0)]).reshape(2, 16)
                 @ ELASTIC_BLOCK_OP.reshape(4, 16, 64)).reshape(8, 64)
for _op in (SHAPE, SHAPE_GRAD, GRAD_OP, CORNER_GRAD_OP, BILINEAR_OP, DIV_OP,
            LOAD_OP, SCALAR_BLOCK_OP, BLOCK_OP, ELASTIC_BLOCK_OP,
            LAME_BLOCK_OP):
    _op.setflags(write=False)


def element_map(op, data, d_in=1, d_out=1):
    """Apply a reference-element operator to each element's (or point's) data.

    ``op`` maps (4, d_in) to (4, d_out); ``data`` (nel, 4, *tail, d_in)
    maps to (nel, 4, *tail, d_out), with no last axis where d is 1.  The
    same map acts on every tail entry, so ``op`` is extended over the tail
    and the whole map is one 2-D matmul with no transposed copies.
    """
    tail = data.shape[2:data.ndim - (d_in > 1)]
    t = int(np.prod(tail, dtype=int))
    op = (op.reshape(4, 1, d_in, 4, 1, d_out)
          * np.eye(t)[None, :, None, None, :, None]) \
        .reshape(4 * t * d_in, 4 * t * d_out)
    out = data.reshape(data.shape[0], -1) @ op
    return out.reshape(data.shape[:2] + tail + (d_out,) * (d_out > 1))


def structured_connectivity(n_cells, periodic):
    """Element-to-node map for an n x n structured grid, shape (n^2, 4).

    Periodic grids identify node index i with i + n (n^2 distinct nodes);
    Dirichlet grids keep (n+1)^2 nodes.
    """
    n = n_cells
    ex, ey = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    ex = ex.ravel()
    ey = ey.ravel()
    if periodic:
        def nid(ix, iy):
            return (iy % n) * n + (ix % n)
    else:
        def nid(ix, iy):
            return iy * (n + 1) + ix
    conn = np.stack(
        [nid(ex, ey), nid(ex + 1, ey), nid(ex + 1, ey + 1), nid(ex, ey + 1)],
        axis=-1,
    )
    return np.ascontiguousarray(conn)


def qp_coords(n_cells, h, origin, rows=slice(None)):
    """Physical quadrature-point coordinates, (n_elements, 4, 2).

    ``rows`` picks a range of element rows; their elements come in the
    same order and with the same coordinates as in the whole table.  Each
    coordinate is (corner + origin) + offset, built per axis as a (cells,
    4) table and copied into place.
    """
    offsets = h * REF_POINTS
    x = (np.arange(n_cells) * h + origin[0])[:, None] + offsets[:, 0]
    y = (np.arange(n_cells)[rows] * h + origin[1])[:, None] + offsets[:, 1]
    out = np.empty((y.shape[0], n_cells, 4, 2))
    out[..., 0] = x
    out[..., 1] = y[:, None, :]
    return out.reshape(-1, 4, 2)


def qp_values(nodal, conn):
    """Interpolate nodal data (nn, ...) to quadrature points, (nel, 4, ...)."""
    return element_map(SHAPE.T, np.take(nodal, conn, axis=0))


def qp_gradient(nodal, conn, h):
    """Gradient of a Q1 field at quadrature points.

    Scalar data (nn,) -> (nel, 4, 2); vector data (nn, c) ->
    (nel, 4, c, 2) with [..., c, d] = d u_c / d x_d.
    """
    return element_map(GRAD_OP, np.take(nodal, conn, axis=0), 1, 2) / h


def scatter_matrix(ids, size):
    """One-hot CSR matrix (size x ids.size) summing entries onto ``ids``.

    Column j stands for entry j of ``ids`` in array order, so each row
    holds its entries in that order and ``scatter`` adds them in the order
    numpy's unbuffered ``add.at`` does: the sums are bitwise the same.
    It serves the sums onto eps-cells; sums onto nodes are ``node_sum``.
    """
    ids = np.asarray(ids).ravel()
    return sp.csr_matrix((np.ones(ids.size), (ids, np.arange(ids.size))),
                         shape=(size, ids.size))


def scatter(matrix, values):
    """Sum ``values`` (ids.shape + tail) onto the rows: (size,) + tail.

    ``matrix`` comes from ``scatter_matrix(ids, size)``; the leading axes
    of ``values`` whose sizes multiply to ids.size are the ids' axes.
    """
    n = matrix.shape[1]
    tail = values.shape[list(accumulate(values.shape, mul)).index(n) + 1:]
    return (matrix @ values.reshape(n, -1)).reshape(matrix.shape[:1] + tail)


def node_slots(conn):
    """The element-node slots (e, a) of each node of a periodic grid.

    (n_nodes, 4) indices into ``conn.ravel()``, each node's four in
    increasing order, the order in which ``np.add.at`` adds them.
    """
    return np.argsort(conn.ravel(), kind="stable").reshape(-1, 4)


def slot_sums(entries, slots, sums, part):
    """Sum element-node entries onto nodes by their ``node_slots``.

    ``entries`` (k, 4 nel, t) holds k batch rows of entries in slot
    order; ``sums`` (k, nn, t) receives the node sums and ``part``, of the
    same shape, is scratch.  The sums start from zero and add one slot
    per node at a time, in increasing order, so they are bitwise
    ``np.add.at``'s.  Returns ``sums``.
    """
    sums[...] = 0.0
    for column in slots.T:
        np.take(entries, column, axis=1, mode="clip", out=part)
        sums += part
    return sums


def node_sum(grid, values):
    """Sum element-node data (nel, 4, ...) onto the grid's nodes, (nn, ...).

    Bitwise ``np.add.at`` over ``grid.conn``: a Dirichlet grid sums by
    ``scatter_rows`` over all its element rows, a periodic one by
    ``slot_sums``.  Builds no per-grid matrix.
    """
    tail = values.shape[2:]
    if not grid.periodic:
        nodal = np.zeros((grid.n_nodes,) + tail)
        scatter_rows(nodal, grid, slice(0, grid.n), values)
        return nodal
    shape = (1, grid.n_nodes, prod(tail))
    sums = slot_sums(values.reshape(1, -1, shape[2]), node_slots(grid.conn),
                     np.empty(shape), np.empty(shape))
    return sums.reshape((grid.n_nodes,) + tail)


def divergence_residual(grid, flux):
    """Assemble r_a = sum_e,q w flux . grad(N_a) onto the grid's nodes.

    A flux (nel, 4, 2) gives (nn,); a stress (nel, 4, c, 2) gives
    r_(a,c) = sum w stress_{cd} d_d N_a, (nn, c).
    """
    return node_sum(grid, element_map(DIV_OP, flux, 2) * grid.h)


def load_vector(grid, f_qp):
    """Assemble ∫ f N_a from sources at quadrature points (nel, 4, ...)."""
    return node_sum(grid, element_map(LOAD_OP, f_qp) * (grid.h * grid.h))


def integrate_qp(h, values_qp):
    """Quadrature sum of values given at quadrature points (nel, 4, ...)."""
    per_qp = values_qp.reshape(values_qp.shape[0], 4, -1).sum(axis=0)
    return (h * h * REF_WEIGHTS @ per_qp).reshape(values_qp.shape[2:])


def qp_power(vec_qp, p):
    """|v|^p of quadrature-point scalars (nel, 4) or vectors (nel, 4, c)."""
    # sqrt(v * v) is |v| exactly in binary floating point (barring under-
    # and overflow), so scalar data takes the vector path
    mag = np.sqrt((vec_qp * vec_qp).reshape(vec_qp.shape[:2] + (-1,))
                  .sum(axis=-1))
    return mag ** p


def lp_norm_qp(h, vec_qp, p):
    """L^p norm of quadrature-point scalars (nel, 4) or vectors (nel, 4, c)."""
    return float(integrate_qp(h, qp_power(vec_qp, p)) ** (1.0 / p))


# ---------------------------------------------------------------------------
# Batches and blocks of element rows
# ---------------------------------------------------------------------------

# Per element of a block of element rows, the work arrays of the heaviest
# walk over a fine grid, the corrector errors: the points, their cell
# coordinates and gradients; each point's located element, local
# coordinates and index temporaries (three lookups); the gathered table
# values and their bilinear planes; the differences and their powers.
# Measured under tracemalloc at about 1,300 bytes.
ROW_BYTES_PER_ELEMENT = 2048


def blocks(count, bytes_per_item):
    """Slices covering items 0..count-1, each within the work budget.

    An item's work arrays take ``bytes_per_item``; every slice but the
    last has the same number of items, at least one.
    """
    size = max(1, WORK_BUDGET_BYTES // bytes_per_item)
    return [slice(start, min(start + size, count))
            for start in range(0, count, size)]


def row_blocks(n_cells):
    """Blocks of element rows of an n_cells x n_cells grid (``blocks``)."""
    return blocks(n_cells, ROW_BYTES_PER_ELEMENT * n_cells)


def rows_of(table, n_cells, rows):
    """The entries of element rows ``rows`` of a per-element table."""
    tail = table.shape[1:]
    return table.reshape((n_cells, n_cells) + tail)[rows].reshape((-1,) + tail)


def row_sums(n_cells, integrand):
    """Per-point sums (1, 4, ...) of a table given block by block.

    ``integrand(rows)`` is the table (elements of the rows, 4, ...) over
    each of ``row_blocks(n_cells)`` in turn.  The running sums go in
    front of each block, so numpy's sum over elements runs through the
    whole table in element order, one row after the other, as it does on
    the whole table: ``integrate_qp(h, sums)`` is bitwise the integral of
    the whole table.
    """
    sums = None
    for rows in row_blocks(n_cells):
        values = integrand(rows)
        if sums is not None:
            values = np.concatenate((sums, values))
        sums = values.sum(axis=0, keepdims=True)
    return sums


def wrap_to_cell(points):
    """Map arbitrary coordinates to Y = [-1/2, 1/2)^2 by periodicity."""
    pts = np.asarray(points, dtype=float)
    return pts - np.floor(pts + 0.5)


def cell_points(grid, eps, rows=slice(None)):
    """y = {x/eps}_Y at the quadrature points of element rows ``rows``.

    (n_elements, 4, 2), as ``qp_coords``: the blocks of consecutive rows
    concatenate to the whole grid's.
    """
    return wrap_to_cell(qp_coords(grid.n, grid.h, grid.origin, rows) / eps)


# A node meets its elements in element order at their local nodes 2, 3, 1, 0
# (the elements below-left, below, left of it and its own)
_ROW_SCATTER_ORDER = (2, 3, 1, 0)


def scatter_rows(nodal, grid, rows, values):
    """Add element-node data of element rows ``rows`` onto a Dirichlet grid.

    ``nodal`` (n_nodes, ...) holds the running sums and ``values``
    (elements of the rows, 4, ...) the rows' data per local node.  Each
    local node and component is one slice-add over the node lattice, in
    the order in which a node meets its elements.  Called on zeros, block
    after block from the first row, every node sums its entries in
    element order, as ``np.add.at`` over the grid's connectivity does:
    the sums are bitwise the same.  A slice-add per component keeps the
    inner loop along a row of nodes: one add over a 2-component tail ran
    its inner loop over the 2 components, 15-17 ms at N = 512 against
    7-8 ms split.
    """
    n, comps = grid.n, prod(nodal.shape[1:])
    lattice = nodal.reshape(n + 1, n + 1, comps)
    vals = values.reshape(-1, n, 4, comps)
    for a in _ROW_SCATTER_ORDER:
        x, y = _CORNER_NODES[a]
        for c in range(comps):
            lattice[rows.start + y:rows.stop + y, x:x + n, c] += \
                vals[:, :, a, c]


def locate_points(points, n_cells, h, origin):
    """Element indices and local coordinates for arbitrary points.

    Points on the far edges are assigned to the last element (local
    coordinate 1), so the closed domain is covered.
    """
    rel = (np.asarray(points, dtype=float) - np.asarray(origin)) / h
    idx = np.clip(np.floor(rel).astype(int), 0, n_cells - 1)
    local = rel - idx
    elem = idx[..., 1] * n_cells + idx[..., 0]
    return elem, local


def element_values(nodal, conn, elem, rows=None):
    """Each point's element data, (p, 4, ...), for elements ``elem`` (p,).

    ``nodal`` is a field (nn, ...), or with ``rows`` (p,) a table (K, nn)
    of fields of which point i reads row rows[i].  Gathers by ``np.take``,
    bitwise the fancy-indexed ``nodal[conn[elem]]`` and
    ``nodal[rows[:, None], conn[elem]]``.
    """
    nodes = np.take(conn, elem, axis=0)
    if rows is None:
        return np.take(nodal, nodes, axis=0)
    return np.take(nodal, rows[:, None] * nodal.shape[1] + nodes)


def _bilinear(vals, local):
    """Planes (4, p, ...) of 1, x, y, xy of element data (p, 4, ...); x, y."""
    coef = np.moveaxis(element_map(BILINEAR_OP, vals), 1, 0)
    xy = local.reshape((-1,) + (1,) * (vals.ndim - 2) + (2,))
    return coef, xy[..., 0], xy[..., 1]


def value_at_local(vals, local):
    """Value (p, ...) of Q1 element data (p, 4, ...) at local coordinates."""
    c, x, y = _bilinear(vals, local)
    return c[0] + x * c[1] + y * (c[2] + x * c[3])


def gradient_at_local(vals, local, h):
    """Gradient (p, ..., 2) of Q1 element data at local coordinates (p, 2).

    ``vals`` (p, 4, ...) holds each point's own element values, so they
    may come from one field or from a different table row per point.
    """
    c, x, y = _bilinear(vals, local)
    return np.stack([c[1] + y * c[3], c[2] + x * c[3]], axis=-1) / h


def recovered_gradient(grid, nodal):
    """Nodal-averaged gradient of a Q1 scalar field, (n_nodes, 2).

    Element gradients evaluated at the element corners are averaged over
    the elements sharing each node; on uniform grids this reproduces
    central differences at interior nodes, which are second-order
    accurate (one order better than the raw Q1 gradient).
    """
    ge = element_map(CORNER_GRAD_OP, np.take(nodal, grid.conn, axis=0),
                     1, 2) / grid.h
    counts = node_sum(grid, np.ones(grid.conn.shape))
    return node_sum(grid, ge) / counts[:, None]


# ---------------------------------------------------------------------------
# Sparse assembly
# ---------------------------------------------------------------------------

# A Q1 node couples to the 3 x 3 block of nodes around it, the neighbour
# dx, dy nodes away in direction s = 3 (dy + 1) + (dx + 1).  Local node a
# sits at corner _CORNER_NODES[a] = (x, y) of its element, so it couples to
# local node b in direction _CORNER_NODES[b] - _CORNER_NODES[a].
_CORNER_NODES = _CORNERS.astype(int)


@dataclass(frozen=True)
class _Pattern:
    free: np.ndarray        # grid dofs of the block's rows (and columns)
    mask: np.ndarray        # (side, side, d, 9, d): entry is in the block
    order: np.ndarray       # (side, side, 9): directions by column, or None
    indptr: np.ndarray
    indices: np.ndarray


def _block_pattern(grid, dofs_per_node):
    """The grid's ``_Pattern`` for ``dofs_per_node``, built on first use.

    It is kept in the grid's ``block_patterns``, so it lives as long as
    the grid: every solve on one grid shares it, and a dropped grid's
    patterns go with it.
    """
    patterns = grid.block_patterns
    if dofs_per_node not in patterns:
        patterns[dofs_per_node] = _build_pattern(grid.periodic, grid.n,
                                                 dofs_per_node)
    return patterns[dofs_per_node]


def _build_pattern(periodic, n_cells, dofs_per_node):
    """Dofs and CSR pattern of the block that a grid's systems solve.

    The block's rows and columns are the free dofs, node-major: every dof
    but node 0's on a periodic grid, the interior dofs in row-major node
    order on a Dirichlet one.  Its rows come from a side x side lattice of
    nodes: all n^2 nodes of a periodic grid (node 0's row is dropped), the
    (N-1)^2 interior ones of a Dirichlet grid, each with a record of
    (dof, direction, dof) entries.  ``mask`` marks the entries whose
    direction reaches a free node; ``order`` sorts each node's directions
    by column where (dy, dx) order does not, which is on a periodic grid
    only, where the stencil wraps.  Built from per-node arrays; indptr and
    indices are int32, sorted, and all arrays are read-only.
    """
    n, d = n_cells, dofs_per_node
    side, lo = (n, 0) if periodic else (n - 1, 1)
    iy, ix = np.divmod(np.arange(side * side, dtype=np.int32), side)
    dy, dx = np.divmod(np.arange(9, dtype=np.int32), 3)
    y = iy[:, None] + (lo - 1) + dy
    x = ix[:, None] + (lo - 1) + dx
    order = None
    if periodic:
        # node k is block node k - 1, so node 0 reads -1
        nbr = (y % n) * n + x % n - 1
        nbr[0] = -1
        order = np.argsort(np.where(nbr < 0, side * side, nbr), axis=1,
                           kind="stable")
        nbr = np.take_along_axis(nbr, order, axis=1)
        order = order.reshape(side, side, 9)
        free = np.arange(d, n * n * d)
    else:
        inside = (x >= 1) & (x < n) & (y >= 1) & (y < n)
        nbr = np.where(inside, (y - 1) * side + x - 1, -1)
        nodes = (iy + 1) * (n + 1) + ix + 1
        free = (nodes[:, None] * d + np.arange(d)).ravel()
    nbr = nbr.reshape(side, side, 1, 9, 1)
    mask = np.broadcast_to(nbr >= 0, (side, side, d, 9, d)).copy()
    counts = mask.reshape(side * side * d, -1).sum(axis=1)
    counts = counts[counts > 0]         # periodic node 0 has no rows
    indptr = np.zeros(counts.size + 1, dtype=np.int32)
    indptr[1:] = np.cumsum(counts)
    cols = nbr * d + np.arange(d, dtype=np.int32)
    indices = np.broadcast_to(cols, mask.shape)[mask]
    for arr in (free, mask, order, indptr, indices):
        if arr is not None:
            arr.setflags(write=False)
    return _Pattern(free, mask, order, indptr, indices)


def free_dofs(grid, dofs_per_node=1):
    """The grid dofs of the solved block's rows and columns, in its order."""
    return _block_pattern(grid, dofs_per_node).free


def _stencil_ops(op, dofs_per_node):
    """Per local node a, ``op`` (k, 16 d^2) mapped to node records.

    Returns (4, k, 9 d^2): a's rows of the element block, each entry moved
    to the (dof, direction, dof) slot of a's record that it couples in;
    the directions a does not couple in stay zero.
    """
    d = dofs_per_node
    blocks = op.reshape(-1, 4, d, 4, d)
    out = np.zeros((4, op.shape[0], d, 3, 3, d))
    for a, (ax, ay) in enumerate(_CORNER_NODES):
        for b, (bx, by) in enumerate(_CORNER_NODES):
            out[a, :, :, by - ay + 1, bx - ax + 1] = blocks[:, a, :, b]
    return out.reshape(4, op.shape[0], 9 * d * d)


def _assemble(grid, coef, op, dofs_per_node=1):
    """The solved block of a stiffness with element blocks ``coef @ op``.

    ``coef`` (nel, k) holds each element's coefficients, or (1, k) one set
    for all elements; ``op`` (k, 16 d^2) maps them to the element block in
    local dof order (node-major, component-minor).  Each local node's rows
    of the element blocks come out of one matmul as records of its
    (dof, direction, dof) entries, and one slice-add per local node sums
    them over the (N+1)^2 node lattice; a periodic grid then folds the
    lattice's last row and column onto its first.  The block's entries are
    picked from the records by ``_block_pattern``'s mask: no index array
    per entry is built.
    """
    n, d = grid.n, dofs_per_node
    pattern = _block_pattern(grid, d)
    sums = np.zeros((n + 1, n + 1, 9 * d * d))
    elements = (n, n) if coef.shape[0] > 1 else (1, 1)
    for (ax, ay), node_op in zip(_CORNER_NODES, _stencil_ops(op, d)):
        sums[ay:ay + n, ax:ax + n] += (coef @ node_op).reshape(elements + (-1,))
    if grid.periodic:
        sums[0] += sums[n]
        sums[:, 0] += sums[:, n]
        rows = sums[:n, :n]
    else:
        rows = sums[1:n, 1:n]
    rows = rows.reshape(rows.shape[:2] + (d, 9, d))
    if pattern.order is not None:
        rows = np.take_along_axis(rows, pattern.order[:, :, None, :, None],
                                  axis=3)
    return sp.csr_matrix((rows[pattern.mask], pattern.indices, pattern.indptr),
                         shape=(pattern.free.size, pattern.free.size))


def assemble_diffusion(grid, coef_qp):
    """Solved block of ∫ (D grad u) . grad v with per-qp coefficient.

    coef_qp is (nel, 4) for an isotropic scalar coefficient or
    (nel, 4, 2, 2) for a matrix coefficient.
    """
    coef = coef_qp.reshape(coef_qp.shape[0], -1)
    op = SCALAR_BLOCK_OP if coef.shape[1] == 4 else BLOCK_OP
    return _assemble(grid, coef, op)


def isotropic_stress(lam_qp, mu_qp, strain):
    """lam tr(E) I + 2 mu E for a symmetric strain E (..., 2, 2)."""
    tr = strain[..., 0, 0] + strain[..., 1, 1]
    stress = 2.0 * mu_qp[..., None, None] * strain
    stress[..., 0, 0] += lam_qp * tr
    stress[..., 1, 1] += lam_qp * tr
    return stress


def assemble_elasticity(grid, lam_qp, mu_qp):
    """Solved elastic block for per-qp isotropic Lame coefficients (nel, 4)."""
    lame = np.stack([lam_qp, mu_qp], axis=-1).reshape(lam_qp.shape[0], 8)
    return _assemble(grid, lame, LAME_BLOCK_OP, 2)


def assemble_elasticity_constant(grid, tensor):
    """Solved elastic block for one constant fourth-order tensor coefficient.

    Stress_{ik} = B_{ikjl} d_l u_j, which is B D(u) for the usual symmetries.
    """
    coef = np.tile(np.reshape(tensor, 16), 4)[None]
    return _assemble(grid, coef, ELASTIC_BLOCK_OP, 2)


def gradient_matrix(grid):
    """The gradient of Q1 fields as a sparse map, CSR (8 n_elems, n_nodes).

    Its rows are (element, point, direction) in ``qp_gradient``'s order:
    G @ u is ``qp_gradient(u, grid.conn, grid.h)`` flattened.
    """
    nel = grid.n_elems
    data = np.broadcast_to(GRAD_OP.T / grid.h, (nel, 8, 4))
    cols = np.broadcast_to(grid.conn[:, None, :], (nel, 8, 4))
    return sp.csr_matrix((data.ravel(), cols.ravel(),
                          np.arange(0, 32 * nel + 1, 4)),
                         shape=(8 * nel, grid.n_nodes))


def gradient_form(gradient, coef):
    """Nodal operators of per-point 2x2 coefficients ``coef`` (nel, 4, 2, 2).

    ``coef`` carries the quadrature weights; ``gradient`` is the grid's
    ``gradient_matrix`` G and C the block diagonal of ``coef``.  Returns
    K = G^T C G, CSR (nn, nn) with the 9-point stencil, and F = G^T C
    applied to the two unit vectors, dense (nn, 2).  For a Q1 field u and
    a constant vector xi, K u + F xi is the assembled
    sum_e,q coef (xi + grad u) . grad N_a, and u . K u the quadrature sum
    of grad u . coef grad u: a field's passes cost its nodes, not its
    quadrature points.  C G keeps G's pattern, since a point's two
    gradient rows share their columns: its entries are each point's
    coefficient applied to its two rows of G's entries.
    """
    rows = coef.size // 4
    coef = coef.reshape(rows, 2, 2, 1)
    entries = gradient.data.reshape(rows, 1, 2, 4)
    flux = gradient.copy()
    flux.data = (coef[:, :, 0] * entries[:, :, 0]
                 + coef[:, :, 1] * entries[:, :, 1]).ravel()
    transpose = gradient.T.tocsr()
    return transpose @ flux, transpose @ coef.reshape(-1, 2)


# ---------------------------------------------------------------------------
# Linear solvers
# ---------------------------------------------------------------------------

def vector_dot(a, b):
    """Inner product of two 1-D vectors, from a numpy sum.

    ``a @ b`` and ``np.linalg.norm`` take BLAS ``ddot``, whose partial
    sums, and so whose last bits, depend on the number of BLAS threads.
    """
    return float(np.sum(a * b))


def vector_norm(vector):
    """Euclidean norm of a 1-D vector, from ``vector_dot``."""
    return float(np.sqrt(vector_dot(vector, vector)))


# A block whose entries differ from their mirrors by at most this much,
# relative to its largest entry, is symmetric to round-off; the blocks that
# the workloads and presets factor stay within 5e-16, and the per-phase
# non-symmetric linear laws differ at O(1)
SYMMETRY_RTOL = 1e-13
# Wider bands take SuperLU: ``dpbtrf``'s factors were bitwise the same on
# one and two OpenBLAS threads up to half-bandwidth 133, and differed at
# 193 and 257 (Dirichlet elastic blocks at N = 96 and 128).  Every grid of
# N <= MG_COARSEST_N is within it (kd 129 at most, elastic N = 64); an odd
# elastic grid of N >= 67 is not.
BAND_MAX_KD = 133


def _lower_band(block):
    """LAPACK lower band storage of a symmetric CSR block, or None.

    Returns (n, kd + 1), entry (r, c) with c <= r at [c, r - c], kd the
    block's half-bandwidth in its own row order; its transpose is the
    (kd + 1, n) Fortran array that ``dpbtrf`` factors.  Built from the CSR
    arrays in O(nnz): an entry and its mirror share the slot
    [min(r, c), |r - c|], so each entry above the diagonal is compared
    against the one stored there.  None when one differs by more than
    ``SYMMETRY_RTOL``, or when kd exceeds ``BAND_MAX_KD``.
    """
    n = block.shape[0]
    rows = np.repeat(np.arange(n), np.diff(block.indptr))
    offset = rows - block.indices
    distance = np.abs(offset)
    width = int(distance.max(initial=0)) + 1
    if width > BAND_MAX_KD + 1:
        return None
    slot = np.minimum(rows, block.indices) * width + distance
    band = np.zeros((n, width))
    lower = offset >= 0
    band.ravel()[slot[lower]] = block.data[lower]
    upper = ~lower
    asymmetry = np.abs(block.data[upper] - band.ravel()[slot[upper]])
    if asymmetry.max(initial=0.0) > \
            SYMMETRY_RTOL * np.abs(block.data).max(initial=0.0):
        return None
    return band


def _band_cholesky(band):
    """Banded Cholesky factors (``dpbtrf``, lower) of ``_lower_band``'s band.

    Returns the solve function, as ``factor`` does.  A block that is not
    positive definite raises ``SingularSystem``.
    """
    chol, info = _dpbtrf(band.T, lower=1, overwrite_ab=1)
    if info != 0:
        raise SingularSystem(
            f"block not positive definite (dpbtrf info {info})")

    def solve(rhs):
        x, _ = _dpbtrs(chol, rhs.reshape(rhs.shape[0], -1), lower=1)
        return x.reshape(rhs.shape)

    return solve


def _splu(block):
    """The solve function of a SuperLU factorization of a CSR block.

    The elimination order is SuperLU's minimum degree on A + A^T, which
    needs no grid.  SymmetricMode applies it to rows and columns alike and
    prefers diagonal pivots; the default pivot threshold stays, so a
    diagonal pivot smaller than the largest entry of its column is still
    exchanged.  SuperLU takes the block's CSR arrays as the CSC arrays of
    its transpose, with no copy, and the returned function solves with
    the factors transposed.  It takes (n,) or (n, r) right-hand sides.
    """
    try:
        lu = spla.splu(sp.csc_matrix((block.data, block.indices,
                                      block.indptr), shape=block.shape),
                       permc_spec="MMD_AT_PLUS_A",
                       options={"SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU signals singularity this way
        raise SingularSystem(str(exc)) from exc
    return lambda rhs: lu.solve(rhs, trans="T")


def factor(block):
    """The solve function of one factorization of a Dirichlet block (CSR).

    Every Dirichlet factorization is made here, of a grid that the
    V-cycle cannot halve.  The block's rows are the row-major interior
    dofs, so its half-bandwidth is d (N + 1) - 1.  Banded Cholesky
    (``_band_cholesky``) factors it in that order when ``_lower_band``
    finds it symmetric to round-off and within ``BAND_MAX_KD``; SuperLU
    (``_splu``) factors the rest: non-symmetric blocks and odd elastic
    grids of N >= 67.  It takes (n,) or (n, r) right-hand sides.
    """
    band = _lower_band(block)
    return _splu(block) if band is None else _band_cholesky(band)


# The one size rule of the Dirichlet solves: V-cycles halve the grid while
# N is even and above this, and factor the coarsest grid; a grid with
# nothing to halve (an odd N is only ever a solve_n) is factored whole.  A
# coarse grid carries a high contrast with 2 elements per period (Engquist
# & Luo, SIAM J. Numer. Anal. 34 (1997)), so eps >= 1/32 here; its band is
# kd 129 elastic (8.3 MB).  At N = 128, eps 1/16, two-phase systems take
# 6-22 PCG iterations at contrast 4 to 1e6; at 16 some reached the cap.
MG_COARSEST_N = 64
JACOBI_OMEGA = 0.8
JACOBI_SWEEPS = 2       # damped Jacobi sweeps before and after each correction
PCG_RTOL = 1e-10        # relative residual at which PCG stops
PCG_MAX_ITER = 100      # at which PCG raises NonConvergence

def _prolongation(n_cells, dofs_per_node):
    """Bilinear interpolation from the N/2 grid's free dofs to the N grid's.

    Both grids number their interior nodes row-major, dofs node-major;
    coarse boundary nodes carry the homogeneous Dirichlet value.  Returns
    the prolongation and its transpose, the restriction, both CSR.  Built
    on every call (31 ms at N = 512, one dof per node; 61 ms at two), so
    a caller that solves on one grid several times shares them through
    ``solve_dirichlet``'s ``transfers``.
    """
    # fine node i takes weight 1 from coarse node i/2, or 1/2 from each of
    # (i -/+ 1)/2; the coarse boundary nodes 0 and N/2 drop out
    fine = np.arange(1, n_cells)
    even, odd = fine[fine % 2 == 0], fine[fine % 2 == 1]
    rows = np.concatenate([even, odd, odd])
    cols = np.concatenate([even // 2, odd // 2, odd // 2 + 1])
    vals = np.concatenate([np.ones(even.size), np.full(2 * odd.size, 0.5)])
    keep = (cols >= 1) & (cols < n_cells // 2)
    one_d = sp.csr_matrix((vals[keep], (rows[keep] - 1, cols[keep] - 1)),
                          shape=(n_cells - 1, n_cells // 2 - 1))
    prolong = sp.kron(sp.kron(one_d, one_d), sp.identity(dofs_per_node),
                      format="csr")
    return prolong, prolong.T.tocsr()


def _v_cycle(matrix, n_cells, dofs_per_node, transfers):
    """One geometric V-cycle for ``matrix`` on an N-cell grid's free dofs.

    Levels halve N while it is even and above ``MG_COARSEST_N``; coarse
    operators are Galerkin products R A P of the bilinear prolongation,
    each level smooths with damped Jacobi (``JACOBI_SWEEPS`` sweeps before
    and after its coarse correction, so the cycle is symmetric), and the
    coarsest grid's operator is factored (``factor``: the band, kd 64
    scalar and 129 elastic at N = 64).  Each
    level's prolongation and restriction come from ``transfers``, a dict
    by (N, dofs per node), which this adds the missing ones to.
    Returns the cycle as a function of the residual, for ``_pcg``: a
    ``partial`` of ``_cycle`` over the levels, which holds no reference
    to itself, so the hierarchy goes when the solve drops the cycle.
    """
    levels = []
    while n_cells > MG_COARSEST_N and n_cells % 2 == 0:
        key = (n_cells, dofs_per_node)
        if key not in transfers:
            transfers[key] = _prolongation(n_cells, dofs_per_node)
        prolong, restrict = transfers[key]
        levels.append((matrix, JACOBI_OMEGA / matrix.diagonal(), prolong,
                       restrict))
        matrix = restrict @ matrix @ prolong
        n_cells //= 2
    return partial(_cycle, tuple(levels), factor(matrix))


def _cycle(levels, coarsest, res):
    """The V-cycle from the first of ``levels`` down to ``coarsest``."""
    if not levels:
        return coarsest(res)
    a, weight, prolong, restrict = levels[0]
    out = weight * res
    for _ in range(JACOBI_SWEEPS - 1):
        out += weight * (res - a @ out)
    out += prolong @ _cycle(levels[1:], coarsest, restrict @ (res - a @ out))
    for _ in range(JACOBI_SWEEPS):
        out += weight * (res - a @ out)
    return out


def _pcg(matrix, rhs, precondition, n_cells, dofs_per_node):
    """Preconditioned CG to a relative residual of ``PCG_RTOL``.

    At ``PCG_MAX_ITER`` iterations it raises ``NonConvergence`` with the
    grid, the count and the relative residual.  Inner products are
    ``vector_dot``'s numpy sums.
    """
    x = np.zeros_like(rhs)
    rhs_sq = vector_dot(rhs, rhs)
    stop = PCG_RTOL ** 2 * rhs_sq
    if stop == 0.0:
        return x
    res = rhs.copy()
    direction = precondition(res)
    rz = vector_dot(res, direction)
    for _ in range(PCG_MAX_ITER):
        image = matrix @ direction
        alpha = rz / vector_dot(direction, image)
        x += alpha * direction
        res -= alpha * image
        if vector_dot(res, res) <= stop:
            return x
        z = precondition(res)
        rz, rz_old = vector_dot(res, z), rz
        direction = z + (rz / rz_old) * direction
    residual = np.sqrt(vector_dot(res, res) / rhs_sq)
    raise NonConvergence(
        f"multigrid PCG on the N={n_cells} grid, dofs per node {dofs_per_node}"
        f": relative residual {residual:.3e} after {PCG_MAX_ITER} iterations",
        residual=residual, iterations=PCG_MAX_ITER)


def solve_dirichlet(block, rhs, grid, dofs_per_node=1, transfers=None):
    """Solve with the boundary dofs of a Dirichlet grid held at zero.

    ``block`` is the grid's free-dof block (``assemble_*``); ``rhs``
    covers all dofs of ``grid``, ``dofs_per_node`` per node, node-major,
    and so does the solution.  A grid that the V-cycle cannot halve
    (N <= ``MG_COARSEST_N``, or odd) is factored (``factor``); any other
    solves by CG preconditioned with one V-cycle (``_v_cycle``), which
    raises ``NonConvergence`` at its cap: nothing larger is factored.
    The V-cycle's transfers are kept in ``transfers``, a dict that the
    calls sharing it fill once; without it they go when the call returns.
    """
    free = free_dofs(grid, dofs_per_node)
    x = np.zeros(grid.n_nodes * dofs_per_node)
    if grid.n <= MG_COARSEST_N or grid.n % 2:
        x[free] = factor(block)(rhs[free])
        return x
    cycle = _v_cycle(block, grid.n, dofs_per_node,
                     {} if transfers is None else transfers)
    x[free] = _pcg(block, rhs[free], cycle, grid.n, dofs_per_node)
    return x


def solve_periodic_pinned(block, rhs, dofs_per_node=1):
    """Direct solve of a periodic (constant-nullspace) system.

    ``block`` is the system with the dofs of node 0 pinned (``assemble_*``
    on a periodic grid); ``rhs`` (n, r) holds r right-hand sides, each
    covering every dof.  Solves the pinned system, then removes the
    per-component mean so solutions are zero-mean.  Assumes each
    right-hand side is compatible (orthogonal to constants), which holds
    for divergence-form loads.  The block, whose wrapped stencil spans
    it, is factored once by SuperLU (``_splu``) for all r.  Returns
    (n, r), or (n / d, d, r) with d > 1 dofs per node.
    """
    n = rhs.shape[0]
    x = np.zeros(rhs.shape)
    x[dofs_per_node:] = _splu(block)(rhs[dofs_per_node:])
    # each column as its own contiguous array, so its means are summed as
    # a single right-hand side's are
    cols = [np.ascontiguousarray(c).reshape(-1, dofs_per_node)
            for c in x.reshape(n, -1).T]
    shape = (n // dofs_per_node,) + ((dofs_per_node,) if dofs_per_node > 1
                                     else ())
    return np.stack([(c - c.mean(axis=0)).reshape(shape) for c in cols],
                    axis=-1)


def pinned_residual(block, x, rhs, dofs_per_node=1):
    """Residual of a periodic solution ``x`` on the pinned block's rows.

    ``x`` is (n,) or, with several dofs per node, (n / d, d); ``rhs`` (n,).
    The periodic system annihilates constants, so ``x`` is first shifted
    to vanish at node 0, whose dofs the block drops.
    """
    x = np.reshape(x, (-1, dofs_per_node))
    return block @ (x[1:] - x[0]).ravel() - rhs[dofs_per_node:]


# ---------------------------------------------------------------------------
# Damped Newton
# ---------------------------------------------------------------------------

ARMIJO = 1e-4
# The cell and fine solves' default tolerance, their ``damped_newton``
# caps (Newton steps, Armijo trials per step, frozen-coefficient steps
# after them) and the delta floor of their Newton and frozen coefficients
# (``OperatorSpec.jacobian_local``), read at call time.
CELL_TOL = 1e-10
MAX_NEWTON = 50
MAX_LINESEARCH = 25
MAX_PICARD = 200
DELTA_JAC = 1e-12


@dataclass
class NewtonResult:
    x: np.ndarray               # (k, n) final iterates
    res: np.ndarray             # (k, m) their residual vectors
    norm: np.ndarray            # (k,) their residual norms
    iterations: np.ndarray      # (k,) Newton plus frozen-coefficient steps
    converged: np.ndarray       # (k,) norm <= tol


def damped_newton(x, residual, newton_step, tol, max_newton, max_linesearch,
                  picard_step=None, max_picard=0):
    """Damped Newton on a batch of k independent equations, one per row of x.

    ``residual(rows, x)`` returns the residual vectors (len(rows), m) and
    their norms (len(rows),) for the iterates x of the given rows;
    ``newton_step(rows, x, res)`` the Newton directions, shaped like x.
    The driver copies every residual it keeps, so ``residual`` may return
    a buffer that its next call overwrites; the Newton directions must
    outlive the line search's ``residual`` calls.  Each step starts from
    the iterate of the row's last ``residual`` call.
    Rows above ``tol`` (scalar or per row) take a step with Armijo
    backtracking over t = 1, 1/2, ...; each trial re-evaluates only the
    rows still pending.  A row whose ``max_linesearch`` trials all fail
    keeps its last, smallest-t candidate and stays in Newton: for a
    monotone operator the next Newton direction is again a descent
    direction.  Rows still above ``tol`` after ``max_newton`` steps take up
    to ``max_picard`` steps x <- ``picard_step(rows, x)``, applied as given
    with no line search, when the caller supplies one (the cell and fine
    solves pass relaxed frozen-coefficient steps).  Returns a NewtonResult;
    the caller decides what an unconverged row means.
    """
    x = np.array(x, dtype=float)
    k = x.shape[0]
    tol = np.broadcast_to(np.asarray(tol, dtype=float), (k,))
    res, norm = residual(np.arange(k), x)
    res = np.array(res)
    iterations = np.zeros(k, dtype=int)
    for _ in range(max_newton):
        rows = np.flatnonzero(norm > tol)
        if rows.size == 0:
            break
        step = newton_step(rows, x[rows], res[rows])
        new_x, new_res, new_norm = x[rows], res[rows], norm[rows]
        t = np.ones(rows.size)
        pending = np.ones(rows.size, dtype=bool)
        for _ in range(max_linesearch):
            trial = np.flatnonzero(pending)
            if trial.size == 0:
                break
            cand = x[rows[trial]] + t[trial, None] * step[trial]
            res_c, norm_c = residual(rows[trial], cand)
            new_x[trial], new_res[trial], new_norm[trial] = cand, res_c, norm_c
            ok = norm_c <= (1.0 - ARMIJO * t[trial]) * norm[rows[trial]]
            pending[trial[ok]] = False
            t[trial[~ok]] *= 0.5
        x[rows], res[rows], norm[rows] = new_x, new_res, new_norm
        iterations[rows] += 1
    for _ in range(max_picard if picard_step is not None else 0):
        rows = np.flatnonzero(norm > tol)
        if rows.size == 0:
            break
        x[rows] = picard_step(rows, x[rows])
        res[rows], norm[rows] = residual(rows, x[rows])
        iterations[rows] += 1
    return NewtonResult(x, res, norm, iterations, norm <= tol)
