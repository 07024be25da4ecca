"""Periodic unit-cell and macroscopic grids, fields, and discrete calculus.

The unit cell Y = [-1/2, 1/2]^2 carries periodic structured grids; the
macroscopic domain is the unit square (0,1)^2 with homogeneous Dirichlet
boundary.  Bilinear (Q1) elements with 2x2 Gauss quadrature throughout.
Fields are immutable after construction; all operations are pure.
"""

from functools import cached_property, lru_cache

import numpy as np

from . import _fem


def _is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


class QuadratureRule:
    """2x2 Gauss rule on the reference square, scaled per element.

    Weights sum to the element area; exact for products of bilinears.
    """

    def __init__(self, h):
        self.h = float(h)
        self.points = _fem.REF_POINTS
        self.weights = h * h * _fem.REF_WEIGHTS
        self.weights.setflags(write=False)


class _Grid:
    """What both structured grids share: quadrature points and node scatter."""

    def qp_coords(self):
        """Quadrature-point coordinates (nel, 4, 2), read-only, built once."""
        return self._qp_coords

    @cached_property
    def _qp_coords(self):
        points = _fem.qp_coords(self.n, self.h, self.origin)
        points.setflags(write=False)
        return points

    @cached_property
    def node_scatter(self):
        """One-hot CSR map from element-node slots (nel, 4) to nodes.

        Every sum of element contributions onto this grid's nodes is one
        product with it (``_fem.scatter``); built on first use.
        """
        return _fem.scatter_matrix(self.conn, self.n_nodes)


class CellGrid(_Grid):
    """Periodic structured grid on the unit cell Y = [-1/2, 1/2]^2.

    n cells per side (power of two, n >= 4), h = 1/n.  Node (ix, iy) sits
    at (-1/2 + ix*h, -1/2 + iy*h); index i and i + n name the same node,
    so there are exactly n^2 distinct nodes.
    """

    periodic = True
    d = 2
    origin = (-0.5, -0.5)

    def __init__(self, n):
        if n < 4 or not _is_power_of_two(int(n)):
            raise ValueError(
                f"unsupported n={n}: cell grids need n >= 4 and n a power of 2")
        self.n = int(n)
        self.h = 1.0 / self.n
        self.n_nodes = self.n * self.n
        self.n_elems = self.n * self.n
        self.conn = _fem.structured_connectivity(self.n, periodic=True)
        self.conn.setflags(write=False)
        self.rule = QuadratureRule(self.h)

    def node_coords(self):
        ix, iy = np.meshgrid(np.arange(self.n), np.arange(self.n), indexing="xy")
        return np.stack([ix.ravel(), iy.ravel()], axis=-1) * self.h + self.origin

    def wrap_node(self, ix, iy):
        return (np.asarray(iy) % self.n) * self.n + (np.asarray(ix) % self.n)

    def __eq__(self, other):
        return isinstance(other, CellGrid) and other.n == self.n

    def __hash__(self):
        return hash(("CellGrid", self.n))

    def __repr__(self):
        return f"CellGrid(n={self.n})"


# blocks of at most this many interior nodes end the recursion
_ND_LEAF = 4


@lru_cache(maxsize=None)
def _nested_dissection(n_cells):
    """Interior node ids of an N-cell Dirichlet grid in nested-dissection order.

    The (N-1) x (N-1) block of interior nodes is split along its longer
    side; both halves are ordered recursively and the separator line goes
    last (George, SIAM J. Numer. Anal. 1973), down to blocks of at most
    ``_ND_LEAF`` nodes, which keep row-major order.  Eliminating in this
    order bounds the fill of a Q1 stiffness matrix by O(N^2 log N).
    """
    nn = n_cells + 1
    ids = np.arange(nn * nn).reshape(nn, nn)[1:-1, 1:-1]
    parts = []

    def order(block):
        rows, cols = block.shape
        if rows * cols <= _ND_LEAF:
            parts.append(block.ravel())
        elif cols >= rows:
            mid = cols // 2
            order(block[:, :mid])
            order(block[:, mid + 1:])
            parts.append(block[:, mid])
        else:
            mid = rows // 2
            order(block[:mid])
            order(block[mid + 1:])
            parts.append(block[mid])

    order(ids)
    out = np.concatenate(parts)
    out.setflags(write=False)
    return out


class DomainGrid(_Grid):
    """Structured grid on the unit square (0,1)^2 with N cells per side.

    (N+1)^2 nodes; the boundary mask marks the full topological boundary
    (Dirichlet nodes), leaving (N-1)^2 interior nodes.  ``interior`` lists
    them in nested-dissection order, so Dirichlet solves that eliminate
    the free dofs in the order given (``_fem.solve_dirichlet``) factor
    with little fill; it is computed once per N, on first use.
    """

    periodic = False
    d = 2
    origin = (0.0, 0.0)

    def __init__(self, n_cells):
        if n_cells < 2:
            raise ValueError(f"domain grid needs at least 2 cells, got {n_cells}")
        self.n = int(n_cells)
        self.h = 1.0 / self.n
        nn = self.n + 1
        self.n_nodes = nn * nn
        self.n_elems = self.n * self.n
        self.conn = _fem.structured_connectivity(self.n, periodic=False)
        self.conn.setflags(write=False)
        self.rule = QuadratureRule(self.h)
        ix, iy = np.meshgrid(np.arange(nn), np.arange(nn), indexing="xy")
        boundary = (ix == 0) | (ix == self.n) | (iy == 0) | (iy == self.n)
        self.boundary_mask = boundary.ravel()
        self.boundary_mask.setflags(write=False)

    @property
    def interior(self):
        return _nested_dissection(self.n)

    def node_coords(self):
        nn = self.n + 1
        ix, iy = np.meshgrid(np.arange(nn), np.arange(nn), indexing="xy")
        return np.stack([ix.ravel(), iy.ravel()], axis=-1) * self.h

    def __eq__(self, other):
        return isinstance(other, DomainGrid) and other.n == self.n

    def __hash__(self):
        return hash(("DomainGrid", self.n))

    def __repr__(self):
        return f"DomainGrid(n={self.n})"


def make_cell_grid(n):
    """Periodic unit-cell grid with n cells per side (n >= 4, power of 2)."""
    return CellGrid(n)


class _Field:
    components = None

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        expected = (grid.n_nodes,) if self.components == 1 \
            else (grid.n_nodes,) + self.component_shape
        if values.shape != expected:
            raise ValueError(
                f"{type(self).__name__}: values shape {values.shape} does not "
                f"match grid with {grid.n_nodes} nodes (expected {expected})")
        self.grid = grid
        self.values = values.copy()
        self.values.setflags(write=False)

    def at_quadrature(self):
        """Interpolated values at quadrature points."""
        return _fem.qp_values(self.values, self.grid.conn)


class ScalarField(_Field):
    components = 1
    component_shape = ()


class VectorField(_Field):
    components = 2
    component_shape = (2,)


class TensorField(_Field):
    components = 4
    component_shape = (2, 2)


def gradient(f):
    """Bilinear-element gradient at quadrature points, (nel, 4, 2).

    Exact for affine fields.
    """
    return _fem.qp_gradient(f.values, f.grid.conn, f.grid.h)


def sym_gradient(u):
    """Symmetrized gradient (linearized strain) at quadrature points."""
    g = _fem.qp_gradient(u.values, u.grid.conn, u.grid.h)
    return 0.5 * (g + np.swapaxes(g, -1, -2))


def cell_average(f):
    """Quadrature-weighted componentwise mean over the unit cell.

    Accepts a field on a CellGrid or raw quadrature data (nel, 4, ...);
    |Y| = 1, so the mean equals the integral.
    """
    if isinstance(f, _Field):
        if not isinstance(f.grid, CellGrid):
            raise ValueError("cell_average expects a field on a CellGrid")
        data = f.at_quadrature()
        h = f.grid.h
    else:
        data = np.asarray(f)
        nel = data.shape[0]
        n = int(round(np.sqrt(nel)))
        if n * n != nel:
            raise ValueError("quadrature data does not match a square grid")
        h = 1.0 / n
    return _fem.integrate_qp(h, data)


# ---------------------------------------------------------------------------
# Oscillatory sampling  y = x / eps  (fractional part in Y)
# ---------------------------------------------------------------------------

def _check_commensurate(cell, eps, target):
    inv = 1.0 / eps
    if abs(inv - round(inv)) > 1e-12:
        raise ValueError(f"1/eps must be an integer, got eps={eps}")
    if target.n * eps != cell.n:
        raise ValueError(
            f"incommensurate pairing: domain resolution {target.n} with "
            f"eps={eps} must satisfy N*eps == n (cell n={cell.n}); "
            "each eps-cell must be resolved exactly by the cell grid")
    return int(round(inv))


def oscillatory_node_map(cell, eps, target):
    """Domain node -> cell node index map realizing y = {x/eps}_Y.

    With N = n/eps the map is exact: domain node k/N has x/eps = k/n whose
    fractional part (in [-1/2, 1/2)) lands on cell node (k + n/2) mod n.
    """
    _check_commensurate(cell, eps, target)
    n = cell.n
    nn = target.n + 1
    ix, iy = np.meshgrid(np.arange(nn), np.arange(nn), indexing="xy")
    jx = (ix + n // 2) % n
    jy = (iy + n // 2) % n
    return (jy * n + jx).ravel()


def sample_oscillatory(g, eps, target):
    """Sample a periodic unit-cell field at y = x/eps on a domain grid.

    Requires 1/eps integer and target.n * eps == cell.n so every
    eps-period is resolved by the full cell grid (no aliasing).
    """
    if not isinstance(g.grid, CellGrid):
        raise ValueError("sample_oscillatory expects a field on a CellGrid")
    node_map = oscillatory_node_map(g.grid, eps, target)
    cls = type(g)
    return cls(target, g.values[node_map])


# ---------------------------------------------------------------------------
# Plain-text field dump
# ---------------------------------------------------------------------------

def dump_field(f, name, stream):
    """Write ``FIELD <name> grid=<n> components=<c>`` plus one node per line.

    Rows are ``i j v_1 ... v_c`` with 17 significant digits.  ``stream`` is
    a path or a writable text stream.
    """
    close = False
    if isinstance(stream, (str, bytes)):
        stream = open(stream, "w")
        close = True
    try:
        grid = f.grid
        ncols = grid.n if grid.periodic else grid.n + 1
        vals = f.values.reshape(grid.n_nodes, -1)
        stream.write(f"FIELD {name} grid={grid.n} components={vals.shape[1]}\n")
        for node in range(grid.n_nodes):
            i = node % ncols
            j = node // ncols
            row = " ".join(f"{v:.17g}" for v in vals[node])
            stream.write(f"{i} {j} {row}\n")
    finally:
        if close:
            stream.close()


def load_field(stream, grid):
    """Read a field previously written by dump_field onto ``grid``."""
    close = False
    if isinstance(stream, (str, bytes)):
        stream = open(stream, "r")
        close = True
    try:
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
    finally:
        if close:
            stream.close()
    vals = vals if comps > 1 else vals[:, 0]
    if comps == 1:
        return ScalarField(grid, vals)
    if comps == 2:
        return VectorField(grid, vals)
    return TensorField(grid, vals.reshape(grid.n_nodes, 2, 2))
