"""Independent oracles used to freeze expected values.

Everything here is derived from one-dimensional flux/traction balance or
closed-form calculus, with no code shared with the package's assembly
and solver paths.  ``point_eval`` and ``point_eval_gradient`` are the
exception: they locate points and evaluate a Q1 field or its gradient
there through the package's own kernels, the reference that the located
paths must match bitwise.  The unfolding operator S_eps
(``two_scale_compose_S``) rearranges a field's quadrature values by the
package's eps-cell partition.  ``sample_oscillatory`` copies a cell
field onto a fine grid by an integer node map, the reference for the
pairing that reads the cell field at its cell points.  ``load_field``
reads back the plain-text dumps that ``hk.core_fields.dump_field``
writes.  ``spy_batch_solves`` records the batched cell solves of a run.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from hk import _fem
from hk.core_fields import ScalarField, VectorField
from hk.corrector import EpsPartition


def laminate_flux_balance(sigmas, fractions, p, loading=1.0):
    """Effective axial response of a layered medium via constant flux.

    For layers normal to the first axis, the flux q = sigma |t|^{p-2} t is
    constant and the layer gradients t_k = (q / sigma_k)^{1/(p-1)} must
    average to the loading.  Returns (q, per-layer gradients t_k).
    """
    sigmas = np.asarray(sigmas, dtype=float)
    fractions = np.asarray(fractions, dtype=float)
    if loading <= 0:
        raise ValueError("oracle stated for positive axial loading")
    denom = float((fractions * sigmas ** (-1.0 / (p - 1.0))).sum())
    q = (loading / denom) ** (p - 1.0)
    t = (q / sigmas) ** (1.0 / (p - 1.0))
    return q, t


def laminate_transverse_mean(sigmas, fractions, p, loading=1.0):
    """Transverse response: no corrector, flux averages arithmetically."""
    sigmas = np.asarray(sigmas, dtype=float)
    fractions = np.asarray(fractions, dtype=float)
    return float((fractions * sigmas).sum()) * loading ** (p - 1.0)


def _iso_stress(lam, mu, strain):
    return lam * np.trace(strain) * np.eye(2) + 2.0 * mu * strain


def laminate_elastic_tensor(lame_a, lame_b, fractions=(0.5, 0.5)):
    """Effective elasticity of a two-layer isotropic laminate.

    Solved from first principles: within each layer the strain is the
    macroscopic strain E plus sym(c_k (x) e1) for a constant vector c_k;
    traction continuity across the interface plus zero-average
    compatibility determine c_1, c_2.  Returns the 3x3 response matrix on
    the symmetric-strain basis (E11, E22, E12) and an evaluator
    strain -> per-layer corrections.
    """
    th = np.asarray(fractions, dtype=float)
    lams = (lame_a[0], lame_b[0])
    mus = (lame_a[1], lame_b[1])
    e1 = np.array([1.0, 0.0])

    def solve_corrections(macro_strain):
        # unknowns [c1 (2), c2 (2)]; traction continuity + compatibility
        mat = np.zeros((4, 4))
        rhs = np.zeros(4)
        for k in range(2):
            sgn = 1.0 if k == 0 else -1.0
            for comp in range(2):
                c = np.zeros(2)
                c[comp] = 1.0
                strain = 0.5 * (np.outer(c, e1) + np.outer(e1, c))
                traction = _iso_stress(lams[k], mus[k], strain) @ e1
                mat[0:2, 2 * k + comp] = sgn * traction
        rhs[0:2] = -( _iso_stress(lams[0], mus[0], macro_strain)
                      - _iso_stress(lams[1], mus[1], macro_strain)) @ e1
        mat[2, 0] = th[0]
        mat[2, 2] = th[1]
        mat[3, 1] = th[0]
        mat[3, 3] = th[1]
        sol = np.linalg.solve(mat, rhs)
        return sol[:2], sol[2:]

    basis = [np.array([[1.0, 0.0], [0.0, 0.0]]),
             np.array([[0.0, 0.0], [0.0, 1.0]]),
             np.array([[0.0, 0.5], [0.5, 0.0]])]
    response = np.zeros((3, 3))
    for b_idx, macro in enumerate(basis):
        cs = solve_corrections(macro)
        stresses = []
        strains = []
        for k in range(2):
            extra = 0.5 * (np.outer(cs[k], e1) + np.outer(e1, cs[k]))
            strains.append(macro + extra)
            stresses.append(_iso_stress(lams[k], mus[k], macro + extra))
        mean_stress = th[0] * stresses[0] + th[1] * stresses[1]
        response[0, b_idx] = mean_stress[0, 0]
        response[1, b_idx] = mean_stress[1, 1]
        response[2, b_idx] = mean_stress[0, 1]
    return response, solve_corrections


def manufactured_laplace():
    """phi = sin(pi x) sin(pi y) solves -div(grad phi) = f with this f."""
    def phi(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    def f(x, y):
        return 2.0 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)

    return phi, f


def manufactured_elasticity(lam, mu):
    """u = (sin(pi x) sin(pi y), 0) under constant isotropic elasticity.

    Applying -div(B D(u)) by hand gives the body force returned here.
    """
    def u(x, y):
        return np.stack([np.sin(np.pi * x) * np.sin(np.pi * y),
                         np.zeros_like(x)], axis=-1)

    def g(x, y):
        g1 = (lam + 3.0 * mu) * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)
        g2 = -(lam + mu) * np.pi ** 2 * np.cos(np.pi * x) * np.cos(np.pi * y)
        return np.stack([g1, g2], axis=-1)

    return u, g


def coo_stiffness(conn, ke, n_dofs, dofs_per_node=1):
    """Sparse stiffness summed from per-element blocks as COO triplets.

    ke: dense blocks (nel, 4d, 4d) or flat (nel, 16d^2) for d dofs per
    node, in local dof order (node-major, component-minor).  Every element
    entry gets its own (row, column) pair, and ``tocsr`` sums duplicates.
    """
    nel = conn.shape[0]
    dofs = (conn[:, :, None] * dofs_per_node
            + np.arange(dofs_per_node)).reshape(nel, -1)
    nc = dofs.shape[1]
    rows = np.repeat(dofs, nc, axis=1).ravel()
    cols = np.tile(dofs, (1, nc)).ravel()
    mat = sp.coo_matrix((ke.reshape(nel, -1).ravel(), (rows, cols)),
                        shape=(n_dofs, n_dofs))
    return mat.tocsr()


def solved_block(grid, ke, dofs_per_node=1):
    """``coo_stiffness`` on a grid, cut to the dofs that its solves keep.

    A Dirichlet grid keeps the dofs of its interior nodes, a periodic one
    every dof but node 0's; both in grid order.  Returns a dense array.
    """
    d = dofs_per_node
    full = coo_stiffness(grid.conn, ke, d * grid.n_nodes, d).toarray()
    if grid.periodic:
        free = np.arange(d, d * grid.n_nodes)
    else:
        nodes = np.flatnonzero(~boundary_mask(grid))
        free = (nodes[:, None] * d + np.arange(d)).ravel()
    return full[np.ix_(free, free)]


def node_coords(grid):
    """Coordinates of a Dirichlet grid's (N+1)^2 nodes, row-major, (nn, 2)."""
    ix, iy = np.meshgrid(np.arange(grid.n + 1), np.arange(grid.n + 1),
                         indexing="xy")
    return np.stack([ix.ravel(), iy.ravel()], axis=-1) * grid.h


def boundary_mask(grid):
    """True at the nodes on the boundary of a Dirichlet grid, (nn,)."""
    ix, iy = np.meshgrid(np.arange(grid.n + 1), np.arange(grid.n + 1),
                         indexing="xy")
    return ((ix == 0) | (ix == grid.n) | (iy == 0) | (iy == grid.n)).ravel()


def wrap_node(grid, ix, iy):
    """Periodic node index of lattice position (ix, iy) on a cell grid."""
    return (np.asarray(iy) % grid.n) * grid.n + (np.asarray(ix) % grid.n)


def partition_centers(part):
    """The eps-cell lattice points eps * (cx, cy), by flat cell id."""
    axis = np.arange(part.per_axis) * part.eps
    cx, cy = np.meshgrid(axis, axis, indexing="xy")
    return np.stack([cx.ravel(), cy.ravel()], axis=-1)


def effective_eval(law, xi):
    """An effective law's flux at one loading xi, from ``eval_batch``."""
    return law.eval_batch(np.asarray(xi, dtype=float)[None, :])[0]


def cell_average(f):
    """Quadrature-weighted componentwise mean over the unit cell.

    Takes a field on a periodic cell grid or raw quadrature data
    (nel, 4, ...); |Y| = 1, so the mean is the integral, the 2x2 Gauss
    sum with weight h^2 / 4 at every point.
    """
    if hasattr(f, "grid"):
        if not f.grid.periodic:
            raise ValueError("cell_average expects a field on a CellGrid")
        data = f.at_quadrature()
    else:
        data = np.asarray(f)
    n = int(round(np.sqrt(data.shape[0])))
    if n * n != data.shape[0]:
        raise ValueError("quadrature data does not match a square grid")
    return data.sum(axis=(0, 1)) / (4.0 * n * n)


def grad_y_fields(corr, sample_idx):
    """Corrector gradient fields of table rows at every cell point.

    ``corr`` is a ``CorrectorData``; returns (len(sample_idx), nel_c, 4, 2),
    the Q1 gradient of each row's cell potential at the 2x2 Gauss points
    (point q = 2 iy + ix, local nodes counterclockwise from the lower
    left).
    """
    cell = corr.cell_grid
    gauss = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))
    corners = ((0, 0), (1, 0), (1, 1), (0, 1))

    def hat(c, t):
        return t if c else 1.0 - t

    grad = np.array([[[(2 * cx - 1) * hat(cy, y), hat(cx, x) * (2 * cy - 1)]
                      for cx, cy in corners]
                     for y in gauss for x in gauss])          # (q, a, d)
    vals = corr.potentials[np.asarray(sample_idx)[:, None, None], cell.conn]
    return np.einsum("kea,qad->keqd", vals, grad) / cell.h


def point_eval(nodal, conn, h, n_cells, origin, points):
    """Q1 field (nn, ...) at arbitrary points (..., 2); (...,) + tail."""
    points = np.asarray(points, dtype=float)
    elem, local = _fem.locate_points(points.reshape(-1, 2), n_cells, h,
                                     origin)
    out = _fem.value_at_local(_fem.element_values(nodal, conn, elem), local)
    return out.reshape(points.shape[:-1] + out.shape[1:])


def point_eval_gradient(nodal, conn, h, n_cells, origin, points):
    """Gradient of a Q1 field at arbitrary points (..., 2).

    Scalar data gives (..., 2); vector data (..., c, 2) with
    [..., c, d] = d u_c / d x_d.
    """
    points = np.asarray(points, dtype=float)
    elem, local = _fem.locate_points(points.reshape(-1, 2), n_cells, h,
                                     origin)
    out = _fem.gradient_at_local(_fem.element_values(nodal, conn, elem),
                                 local, h)
    return out.reshape(points.shape[:-1] + out.shape[1:])


def sample_oscillatory(g, eps, domain):
    """A cell field g sampled at y = {x/eps}_Y on the nodes of ``domain``.

    With N = n/eps the map is exact: domain node k/N has x/eps = k/n,
    whose fractional part (in [-1/2, 1/2)) lands on cell node
    (k + n/2) mod n.
    """
    n = g.grid.n
    if abs(domain.n * eps - n) > 1e-9:
        raise ValueError(f"N={domain.n} does not resolve eps={eps} by n={n}")
    ix, iy = np.meshgrid(np.arange(domain.n + 1), np.arange(domain.n + 1),
                         indexing="xy")
    node_map = (((iy + n // 2) % n) * n + (ix + n // 2) % n).ravel()
    return type(g)(domain, g.values[node_map])


@dataclass
class BatchSolveCall:
    """One ``BatchScalarCellSolver.solve`` call: its loadings and result."""

    loadings: np.ndarray        # (K, 2)
    result: object              # the BatchCellResult

    @property
    def row_steps(self):
        """Batched Newton row-steps of the call."""
        return int(self.result.iterations.sum())


def spy_batch_solves(monkeypatch):
    """Record every ``BatchScalarCellSolver.solve`` call while it runs.

    The solver runs as it is, with whatever arguments its caller passes.
    Returns the list that gets one ``BatchSolveCall`` per finished call.
    """
    from hk.cell_problems import BatchScalarCellSolver
    calls = []
    solve = BatchScalarCellSolver.solve

    def recorded(self, loadings, *args, **kwargs):
        result = solve(self, loadings, *args, **kwargs)
        calls.append(BatchSolveCall(np.asarray(loadings), result))
        return result

    monkeypatch.setattr(BatchScalarCellSolver, "solve", recorded)
    return calls


def load_field(path, grid):
    """Read a field that ``dump_field`` wrote to ``path`` onto ``grid``."""
    with open(path) as stream:
        header = stream.readline().split()
        if not header or header[0] != "FIELD":
            raise ValueError("not a field dump")
        comps = int(header[3].split("=")[1])
        ncols = grid.n if grid.periodic else grid.n + 1
        vals = np.zeros((grid.n_nodes, comps))
        for line in stream:
            parts = line.split()
            if not parts:
                continue
            i, j = int(parts[0]), int(parts[1])
            vals[j * ncols + i] = [float(v) for v in parts[2:]]
    if comps == 1:
        return ScalarField(grid, vals[:, 0])
    return VectorField(grid, vals)


@dataclass
class UnfoldedField:
    """v(eps*[x/eps] + eps*y) sampled on the fine quadrature layout.

    ``values[c]`` is the unit-cell trace of v over the c-th interior cell
    in flat cell id order, arranged as (elements-per-cell, 4, ...) in
    unit-cell element order.
    """

    eps: float
    values: np.ndarray          # (n_interior_cells, m*m, 4, ...)
    weight: float               # quadrature weight per point in y-units

    def norm_lp(self, p):
        mag = np.abs(self.values) if self.values.ndim == 3 else np.sqrt(
            (self.values * self.values).sum(axis=-1))
        return float((self.eps ** 2 * self.weight * (mag ** p).sum())
                     ** (1.0 / p))


def two_scale_compose_S(v, eps):
    """Unfold a fine-scale field onto (interior eps-cells) x (unit cell).

    The composition is a rearrangement of quadrature values, so L^p norms
    over whole cells are preserved exactly.  Requires the fine grid to
    resolve each eps-period (N * eps integer).
    """
    domain = v.grid if not isinstance(v, np.ndarray) else None
    if domain is None:
        raise ValueError("two_scale_compose_S expects a field")
    data = v.at_quadrature()
    part = EpsPartition(eps)
    n = domain.n
    m = n * eps
    if abs(m - round(m)) > 1e-9:
        raise ValueError("fine grid does not resolve the eps-cells")
    m = int(round(m))
    # element (ex, ey) belongs to cell (cx, cy) with offset (ox, oy)
    ex = np.arange(n)
    cxa = (ex + m // 2) // m
    oxa = (ex + m // 2) % m
    ex_grid, ey_grid = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    cid = (cxa[ey_grid] * part.per_axis + cxa[ex_grid]).ravel()
    # unit-cell element index: offsets count from the cell's lower-left
    off = (oxa[ey_grid] * m + oxa[ex_grid]).ravel()
    keep = part.interior[cid]
    cells = np.unique(cid[keep])
    cell_pos = np.full(part.n_cells, -1)
    cell_pos[cells] = np.arange(cells.size)
    comp_shape = data.shape[2:]
    values = np.zeros((cells.size, m * m, 4) + comp_shape)
    values[cell_pos[cid[keep]], off[keep]] = data.reshape(
        (n * n, 4) + comp_shape)[keep]
    weight = (1.0 / m) ** 2 / 4.0
    return UnfoldedField(eps, values, weight)
