"""Vectorized Q1 element kernels, linear-solver plumbing and the Newton driver.

Everything here works on structured square grids (periodic unit cell or
Dirichlet unit square) with 2x2 Gauss quadrature per element.  Quadrature
data is laid out as arrays of shape (n_elements, 4, ...); nodal data as
(n_nodes, ...) with fixed row-major node numbering.  Each kernel takes
scalar and vector data alike (the trailing ``...``).  Gathers are fancy
indexing; every sum onto nodes or cells is one product with a one-hot CSR
matrix (``scatter_matrix``), and each grid builds its node matrix once
(``node_scatter``).
"""

from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from operator import mul

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SingularSystem

# contraction with a precomputed (greedy) path: the multi-operand
# assembly einsums are 10x slower without it
contract = partial(np.einsum, optimize=True)

_G0 = 0.5 - 0.5 / np.sqrt(3.0)
_G1 = 0.5 + 0.5 / np.sqrt(3.0)

# Quadrature-point order (2x2 Gauss on the reference square [0,1]^2):
# q = 2*iy + ix over (gx, gy) in {g0, g1}^2.
REF_POINTS = np.array([(gx, gy) for gy in (_G0, _G1) for gx in (_G0, _G1)])
REF_WEIGHTS = np.full(4, 0.25)

# Local node order: counterclockwise from the lower-left corner.
_CORNERS = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def shape_at(local):
    """Q1 shape values at arbitrary local coordinates, (..., 4)."""
    gx = local[..., 0][..., None]
    gy = local[..., 1][..., None]
    cx = _CORNERS[:, 0]
    cy = _CORNERS[:, 1]
    return (cx * gx + (1 - cx) * (1 - gx)) * (cy * gy + (1 - cy) * (1 - gy))


def shape_grad_at(local):
    """Reference Q1 gradients at arbitrary local coordinates, (..., 4, 2)."""
    gx = local[..., 0][..., None]
    gy = local[..., 1][..., None]
    cx = _CORNERS[:, 0]
    cy = _CORNERS[:, 1]
    dx = (2 * cx - 1) * (cy * gy + (1 - cy) * (1 - gy))
    dy = (2 * cy - 1) * (cx * gx + (1 - cx) * (1 - gx))
    return np.stack([dx, dy], axis=-1)


# shape values (4 qp, 4 node) and reference gradients (4 qp, 4 node, 2)
SHAPE = shape_at(REF_POINTS)
SHAPE_GRAD = shape_grad_at(REF_POINTS)
SHAPE.setflags(write=False)
SHAPE_GRAD.setflags(write=False)

# Constant operators of the reference element (h = 1) that make each Q1
# kernel one 2-D matmul over all elements: nodal values (a) -> gradients
# (q, d); fluxes (q, d) -> ∫ flux . grad N_a (a); sources (q) -> ∫ f N_a
# (a); scalar (q) or matrix (q, d, c) coefficients -> element blocks
# ∫ grad N_a . D grad N_b (a, b).  Gradients scale by 1/h, fluxes by h,
# sources by h^2; the blocks do not depend on h in two dimensions.
_GT = SHAPE_GRAD.transpose(0, 2, 1)            # (q, d, a)
GRAD_OP = SHAPE_GRAD.transpose(1, 0, 2).reshape(4, 8)
DIV_OP = (REF_WEIGHTS[:, None, None] * _GT).reshape(8, 4)
LOAD_OP = REF_WEIGHTS[:, None] * SHAPE
SCALAR_BLOCK_OP = (REF_WEIGHTS[:, None, None]
                   * (_GT[:, :, :, None] * _GT[:, :, None, :]).sum(axis=1)) \
    .reshape(4, 16)
BLOCK_OP = (REF_WEIGHTS[:, None, None, None, None]
            * _GT[:, :, None, :, None] * _GT[:, None, :, None, :]) \
    .reshape(16, 16)
for _op in (GRAD_OP, DIV_OP, LOAD_OP, SCALAR_BLOCK_OP, BLOCK_OP):
    _op.setflags(write=False)


def _tail_op(op, tail, d_in, d_out):
    """An element operator extended over ``tail`` axes.

    ``op`` maps per-element data (4, d_in) to (4, d_out); the result maps
    (4, *tail, d_in) to (4, *tail, d_out), the same map on every tail
    entry, so data shaped (nel, 4, *tail, d_in) is one 2-D matmul away
    from its image, with no transposed copies.
    """
    t = int(np.prod(tail, dtype=int))
    if t == 1:
        return op
    eye = np.eye(t)[None, :, None, None, :, None]
    return (op.reshape(4, 1, d_in, 4, 1, d_out) * eye) \
        .reshape(4 * t * d_in, 4 * t * d_out)


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


def qp_coords(n_cells, h, origin):
    """Physical quadrature-point coordinates, (n_elements, 4, 2)."""
    n = n_cells
    ex, ey = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    corner = np.stack([ex.ravel(), ey.ravel()], axis=-1) * h + np.asarray(origin)
    return corner[:, None, :] + h * REF_POINTS[None, :, :]


def qp_values(nodal, conn):
    """Interpolate nodal data (nn, ...) to quadrature points, (nel, 4, ...)."""
    return contract("qa,ea...->eq...", SHAPE, nodal[conn])


def qp_gradient(nodal, conn, h):
    """Gradient of a Q1 field at quadrature points.

    Scalar data (nn,) -> (nel, 4, 2); vector data (nn, c) ->
    (nel, 4, c, 2) with [..., c, d] = d u_c / d x_d.
    """
    vals = nodal[conn]                                      # (nel, a, ...)
    op = _tail_op(GRAD_OP, vals.shape[2:], 1, 2)
    return (vals.reshape(vals.shape[0], -1) @ op / h) \
        .reshape(vals.shape + (2,))


def scatter_matrix(ids, size):
    """One-hot CSR matrix (size x ids.size) summing entries onto ``ids``.

    Column j stands for entry j of ``ids`` in array order, so each row
    holds its entries in that order and ``scatter`` adds them in the order
    numpy's unbuffered ``add.at`` does: the sums are bitwise the same.
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


def divergence_residual(grid, flux):
    """Assemble r_a = sum_e,q w flux . grad(N_a) onto the grid's nodes.

    A flux (nel, 4, 2) gives (nn,); a stress (nel, 4, c, 2) gives
    r_(a,c) = sum w stress_{cd} d_d N_a, (nn, c).
    """
    op = _tail_op(DIV_OP, flux.shape[2:-1], 2, 1)
    per_elem = (flux.reshape(flux.shape[0], -1) @ op) * grid.h
    return scatter(grid.node_scatter, per_elem.reshape(flux.shape[:-1]))


def load_vector(grid, f_qp):
    """Assemble ∫ f N_a from sources at quadrature points (nel, 4, ...)."""
    op = _tail_op(LOAD_OP, f_qp.shape[2:], 1, 1)
    per_elem = (f_qp.reshape(f_qp.shape[0], -1) @ op) * (grid.h * grid.h)
    return scatter(grid.node_scatter, per_elem.reshape(f_qp.shape))


def integrate_qp(h, values_qp):
    """Quadrature sum of values given at quadrature points (nel, 4, ...)."""
    w = h * h * REF_WEIGHTS
    return contract("q,eq...->...", w, values_qp)


def lp_norm_qp(h, vec_qp, p):
    """L^p norm of a quadrature-point vector/scalar field."""
    if vec_qp.ndim == 2:
        mag = np.abs(vec_qp)
    else:
        mag = np.sqrt(contract("eq...c,eq...c->eq...", vec_qp, vec_qp))
    w = h * h * REF_WEIGHTS
    return float(contract("q,eq->", w, mag**p) ** (1.0 / p))


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


def point_eval(nodal, conn, h, n_cells, origin, points):
    """Q1 field (nn, ...) at arbitrary points (..., 2); (...,) + tail."""
    points = np.asarray(points, dtype=float)
    elem, local = locate_points(points.reshape(-1, 2), n_cells, h, origin)
    out = contract("pa,pa...->p...", shape_at(local), nodal[conn[elem]])
    return out.reshape(points.shape[:-1] + out.shape[1:])


def point_eval_gradient(nodal, conn, h, n_cells, origin, points):
    """Gradient of a Q1 field at arbitrary points (..., 2).

    Scalar data gives (..., 2); vector data (..., c, 2) with
    [..., c, d] = d u_c / d x_d.
    """
    points = np.asarray(points, dtype=float)
    elem, local = locate_points(points.reshape(-1, 2), n_cells, h, origin)
    grad = shape_grad_at(local) / h
    out = contract("pad,pa...->p...d", grad, nodal[conn[elem]])
    return out.reshape(points.shape[:-1] + out.shape[1:])


def recovered_gradient(grid, nodal):
    """Nodal-averaged gradient of a Q1 scalar field, (n_nodes, 2).

    Element gradients evaluated at the element corners are averaged over
    the elements sharing each node; on uniform grids this reproduces
    central differences at interior nodes, which are second-order
    accurate (one order better than the raw Q1 gradient).
    """
    corner_grad = shape_grad_at(_CORNERS) / grid.h   # (corner, node, 2)
    ge = contract("cad,ea->ecd", corner_grad, nodal[grid.conn])
    counts = scatter(grid.node_scatter, np.ones(grid.conn.shape))
    return scatter(grid.node_scatter, ge) / counts[:, None]


# ---------------------------------------------------------------------------
# Sparse assembly
# ---------------------------------------------------------------------------

def _csr_from_blocks(conn, ke, n_dofs, dofs_per_node=1):
    """Assemble a CSR matrix from per-element blocks.

    ke: (nel, 4*dpn, 4*dpn) dense blocks in local dof order (node-major,
    component-minor).
    """
    nel = conn.shape[0]
    dpn = dofs_per_node
    if dpn == 1:
        dofs = conn
    else:
        dofs = (conn[:, :, None] * dpn + np.arange(dpn)[None, None, :]).reshape(nel, -1)
    nc = dofs.shape[1]
    rows = np.repeat(dofs, nc, axis=1).ravel()
    cols = np.tile(dofs, (1, nc)).ravel()
    mat = sp.coo_matrix((ke.reshape(nel, -1).ravel(), (rows, cols)),
                        shape=(n_dofs, n_dofs))
    return mat.tocsr()


def assemble_diffusion(conn, h, n_nodes, coef_qp):
    """Stiffness for ∫ (D grad u) . grad v with per-qp coefficient.

    coef_qp is (nel, 4) for an isotropic scalar coefficient or
    (nel, 4, 2, 2) for a matrix coefficient.
    """
    coef = coef_qp.reshape(coef_qp.shape[0], -1)
    op = SCALAR_BLOCK_OP if coef.shape[1] == 4 else BLOCK_OP
    return _csr_from_blocks(conn, coef @ op, n_nodes)


def isotropic_elastic_blocks(h, lam_qp, mu_qp):
    """Per-element 8x8 stiffness blocks for isotropic elasticity.

    K[(a,i),(b,j)] = sum_q w [ lam d_iN_a d_jN_b + mu (d_jN_a d_iN_b
                               + delta_ij d_kN_a d_kN_b) ]
    which is the bilinear form of B D(u) : D(v) for B isotropic.
    """
    w = h * h * REF_WEIGHTS
    g = SHAPE_GRAD / h
    eye = np.eye(2)
    ke = (contract("q,eq,qai,qbj->eaibj", w, lam_qp, g, g)
          + contract("q,eq,qaj,qbi->eaibj", w, mu_qp, g, g)
          + contract("q,eq,ij,qak,qbk->eaibj", w, mu_qp, eye, g, g))
    return ke.reshape(ke.shape[0], 8, 8)


def tensor_elastic_blocks(h, b_qp):
    """Per-element 8x8 blocks for a general fourth-order tensor coefficient.

    b_qp: (nel, 4, 2, 2, 2, 2) with flux stress_{ik} = B_{ikjl} D(u)_{jl};
    for B with the usual minor symmetries this equals B_{ikjl} d_l u_j.
    """
    w = h * h * REF_WEIGHTS
    g = SHAPE_GRAD / h
    ke = contract("q,qak,eqikjl,qbl->eaibj", w, g, b_qp, g)
    return ke.reshape(ke.shape[0], 8, 8)


def isotropic_stress(lam_qp, mu_qp, strain):
    """lam tr(E) I + 2 mu E for a symmetric strain E (..., 2, 2)."""
    tr = strain[..., 0, 0] + strain[..., 1, 1]
    stress = 2.0 * mu_qp[..., None, None] * strain
    stress[..., 0, 0] += lam_qp * tr
    stress[..., 1, 1] += lam_qp * tr
    return stress


def assemble_elasticity(conn, h, n_nodes, lam_qp, mu_qp):
    """Elastic stiffness for per-qp isotropic Lame coefficients."""
    ke = isotropic_elastic_blocks(h, lam_qp, mu_qp)
    return _csr_from_blocks(conn, ke, 2 * n_nodes, dofs_per_node=2)


def assemble_elasticity_constant(conn, h, n_nodes, tensor):
    """Elastic stiffness for one constant fourth-order tensor coefficient."""
    b_qp = np.broadcast_to(tensor, (1, 4, 2, 2, 2, 2))
    ke = tensor_elastic_blocks(h, b_qp)
    ke = np.broadcast_to(ke, (conn.shape[0], 8, 8))
    return _csr_from_blocks(conn, ke, 2 * n_nodes, dofs_per_node=2)


# ---------------------------------------------------------------------------
# Linear solvers
# ---------------------------------------------------------------------------

def _splu(reduced, permc_spec):
    """SuperLU factors of an SPD matrix in symmetric mode.

    SymmetricMode applies the column order to rows and columns alike, so
    it is the elimination order, and prefers diagonal pivots; the default
    pivot threshold stays, so a diagonal pivot smaller than the largest
    entry of its column is still exchanged.
    """
    try:
        return spla.splu(reduced.tocsc(), permc_spec=permc_spec,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU signals singularity this way
        raise SingularSystem(str(exc)) from exc


def factor_dirichlet(matrix, free):
    """Factors of the free-free block, eliminating ``free`` in the order given.

    Dirichlet grids list their interior nodes in nested-dissection order
    (``DomainGrid.interior``), so the natural order of ``free`` is already
    a low-fill elimination order.
    """
    return _splu(matrix[free][:, free], "NATURAL")


def solve_dirichlet(matrix, rhs, free):
    """Direct solve with homogeneous Dirichlet dofs eliminated.

    ``free`` indexes the unconstrained dofs, in elimination order;
    constrained dofs are zero.
    """
    x = np.zeros(matrix.shape[0])
    x[free] = factor_dirichlet(matrix, free).solve(rhs[free])
    return x


def solve_periodic_pinned(matrix, rhs, dofs_per_node=1):
    """Direct solve of a periodic (constant-nullspace) system.

    Pins the dofs of node 0, solves the reduced system, then removes the
    per-component mean so solutions are zero-mean.  Assumes the rhs is
    compatible (orthogonal to constants), which holds for divergence-form
    loads.  Without a grid at hand, the elimination order is SuperLU's
    minimum degree on A + A^T.
    """
    n = matrix.shape[0]
    keep = np.arange(dofs_per_node, n)
    x = np.zeros(n)
    x[keep] = _splu(matrix[keep][:, keep], "MMD_AT_PLUS_A").solve(rhs[keep])
    x = x.reshape(-1, dofs_per_node)
    x = x - x.mean(axis=0)
    return x.ravel() if dofs_per_node == 1 else x


# ---------------------------------------------------------------------------
# Damped Newton
# ---------------------------------------------------------------------------

ARMIJO = 1e-4


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
