"""Periodic unit-cell and macroscopic grids, fields, and discrete calculus.

The unit cell Y = [-1/2, 1/2]^2 carries periodic structured grids; the
macroscopic domain is the unit square (0,1)^2 with homogeneous Dirichlet
boundary.  Bilinear (Q1) elements with 2x2 Gauss quadrature throughout.
Fields are immutable after construction; all operations are pure.  No
field is copied from one grid to the other: a fine-scale reader takes a
cell field at each fine point's ``_fem.cell_points``.
"""

from functools import cached_property

import numpy as np

from . import _fem


def _is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


class _Grid:
    """What both structured grids share: quadrature and block patterns.

    All are built on first use and live as long as the grid; sums onto
    the nodes (``_fem.node_sum``) keep nothing on it.
    """

    @cached_property
    def weights(self):
        """2x2 Gauss weights of one element, h^2 ``_fem.REF_WEIGHTS``, (4,).

        They sum to the element area, read-only.
        """
        weights = self.h * self.h * _fem.REF_WEIGHTS
        weights.setflags(write=False)
        return weights

    def qp_coords(self):
        """Quadrature-point coordinates (nel, 4, 2), read-only, built once."""
        return self._qp_coords

    @cached_property
    def _qp_coords(self):
        points = _fem.qp_coords(self.n, self.h, self.origin)
        points.setflags(write=False)
        return points

    @cached_property
    def block_patterns(self):
        """Patterns of this grid's solved blocks, by dofs per node.

        ``_fem`` adds each on first use; they live as long as the grid.
        """
        return {}


class CellGrid(_Grid):
    """Periodic structured grid on the unit cell Y = [-1/2, 1/2]^2.

    n cells per side (power of two, n >= 4), h = 1/n.  Node (ix, iy) sits
    at (-1/2 + ix*h, -1/2 + iy*h); index i and i + n name the same node,
    so there are exactly n^2 distinct nodes.
    """

    periodic = True
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

    def node_coords(self):
        ix, iy = np.meshgrid(np.arange(self.n), np.arange(self.n), indexing="xy")
        return np.stack([ix.ravel(), iy.ravel()], axis=-1) * self.h + self.origin

    def __eq__(self, other):
        return isinstance(other, CellGrid) and other.n == self.n

    def __hash__(self):
        return hash(("CellGrid", self.n))

    def __repr__(self):
        return f"CellGrid(n={self.n})"


class DomainGrid(_Grid):
    """Structured grid on the unit square (0,1)^2 with N cells per side.

    (N+1)^2 nodes; the full topological boundary carries the Dirichlet
    condition, leaving (N-1)^2 interior nodes.  Their dofs, in row-major
    node order, are the solved block's (``_fem.free_dofs``).
    """

    periodic = False
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

    def __eq__(self, other):
        return isinstance(other, DomainGrid) and other.n == self.n

    def __hash__(self):
        return hash(("DomainGrid", self.n))

    def __repr__(self):
        return f"DomainGrid(n={self.n})"


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


# ---------------------------------------------------------------------------
# Plain-text field dump
# ---------------------------------------------------------------------------

def dump_field(f, name, path):
    """Write ``FIELD <name> grid=<n> components=<c>`` plus one node per line.

    Rows are ``i j v_1 ... v_c`` with 17 significant digits, written to
    the file at ``path``.
    """
    grid = f.grid
    ncols = grid.n if grid.periodic else grid.n + 1
    vals = f.values.reshape(grid.n_nodes, -1)
    with open(path, "w") as stream:
        stream.write(f"FIELD {name} grid={grid.n} components={vals.shape[1]}\n")
        for node in range(grid.n_nodes):
            i = node % ncols
            j = node // ncols
            row = " ".join(f"{v:.17g}" for v in vals[node])
            stream.write(f"{i} {j} {row}\n")
