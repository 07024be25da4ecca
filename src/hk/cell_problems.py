"""Periodic cell problems on the unit cell.

Three kinds of solves:

* scalar monotone problem: find a zero-mean periodic potential eta with
  ∫_Y a(y, xi + grad eta) . grad v = 0 for all periodic v: nonlinear
  families by ``BatchScalarCellSolver`` (damped Newton on banded
  Cholesky, relaxed frozen-coefficient fallback), a few loadings as
  one batch; linear families by one pinned sparse direct solve, one
  factorization for all loadings.  The one setting is the tolerance, a
  float (default ``_fem.CELL_TOL``); the Newton, line-search and
  frozen-coefficient caps and the Jacobian's delta floor are ``_fem``
  constants, shared with the fine solves;
* elastic problem: zero-mean periodic displacement balancing a unit
  macroscopic strain;
* electrostriction problem: displacement driven by the outer product of
  two corrector flux fields.

Warm starts of the scalar cell solves, from solved rows and their
derivatives W = d eta / d xi, follow one rule per law (``cell_predictor``):
a homogeneous law's cell solutions are interpolated on the unit circle of
loading directions (``CirclePredictor``), any other law's are predicted
to first order from one solved row (``NearestPredictor``).

The two elastic problems are linear and share B's stiffness: one sparse
direct solve with the displacement of node 0 pinned
(``_fem.solve_periodic_pinned``), one factorization for all unit strains
and sources together (``solve_elastic_cells``).  All solutions are
normalized to zero mean; on the uniform periodic grid the arithmetic
nodal mean equals the integral, so the normalization is exact.
"""

from dataclasses import dataclass, field
from math import ceil, prod, sqrt

import numpy as np
from scipy.linalg.lapack import dpbsv as _dpbsv

from . import _fem
from .core_fields import CellGrid
from .errors import NonConvergence, SingularSystem


@dataclass
class ScalarCellSolution:
    """Zero-mean periodic potential responding to a constant loading."""

    values: np.ndarray          # nodal, (n^2,)
    residual: float
    iterations: int
    grid: CellGrid = field(repr=False)


@dataclass
class ElasticCellSolution:
    """Zero-mean periodic displacement for one load."""

    values: np.ndarray          # nodal, (n^2, 2)
    residual: float
    iterations: int


def _tol_scale(spec, loadings):
    """max(1, |xi|)^(p_max - 1) per loading, the cell problem's flux scale."""
    return np.maximum(1.0, np.linalg.norm(loadings, axis=-1)) \
        ** (spec.max_exponent - 1.0)


def solve_scalar_cells(spec, loadings, grid, tol=_fem.CELL_TOL, solver=None):
    """Solve the scalar monotone cell problem for loadings (K, 2).

    Linear families: one pinned sparse direct solve, one factorization for
    all K loadings (``iterations`` is 1, ``residual`` the assembled
    residual).  Nonlinear families: one batch on ``solver``, a
    ``BatchScalarCellSolver`` for the same spec and grid (a new one when
    None).  The stopping tolerance is ``tol`` scaled by
    max(1, |loading|)^(p-1) so it stays meaningful across loading
    magnitudes; a residual above it raises NonConvergence.  Returns one
    ScalarCellSolution per loading.
    """
    loadings = np.asarray(loadings, dtype=float).reshape(-1, 2)
    if not np.all(np.isfinite(loadings)):
        raise ValueError("loading must be finite")
    if spec.is_linear:
        loc = spec.local_coefficients(grid.qp_coords())
        rhs = np.stack([-_fem.divergence_residual(grid, spec.flux_local(loc, xi))
                        for xi in loadings], axis=1)
        block = _fem.assemble_diffusion(grid, loc["bmat"])
        etas = np.ascontiguousarray(_fem.solve_periodic_pinned(block, rhs).T)
        residuals = [_fem.vector_norm(_fem.pinned_residual(block, eta, b))
                     for eta, b in zip(etas, np.ascontiguousarray(rhs.T))]
        iterations = np.ones(len(loadings), dtype=int)
    else:
        solver = solver or BatchScalarCellSolver(spec, grid, tol)
        out = solver.solve(loadings)
        etas, residuals, iterations = out.values, out.residuals, out.iterations
    sols = []
    for loading, eta, rnorm, its in zip(loadings, etas, residuals, iterations):
        rnorm, its = float(rnorm), int(its)
        scaled = tol * _tol_scale(spec, loading)
        if rnorm > scaled:
            raise NonConvergence(
                f"scalar cell problem: residual {rnorm:.3e} > {scaled:.3e} "
                f"after {its} iterations (grid n={grid.n})",
                residual=rnorm, iterations=its)
        sols.append(ScalarCellSolution(eta, rnorm, its, grid))
    return sols


def solve_scalar_cell(spec, loading, grid, tol=_fem.CELL_TOL):
    """The cell problem of one loading vector: ``solve_scalar_cells``'s."""
    return solve_scalar_cells(spec, loading, grid, tol)[0]


def cell_predictor(spec):
    """The rule that warm-starts ``spec``'s cell solves from solved rows.

    ``CirclePredictor`` for a homogeneous law (``homogeneity_degree`` not
    None), ``NearestPredictor`` otherwise.  Either class is built from
    solved rows (loadings (m, 2), etas (m, n^2), W = d eta / d xi
    (m, n^2, 2)) and called, as a batch calls its ``start``, with one
    chunk's loadings (k, 2) and optional row indices ``pair``, to give
    their predicted cell solutions (k, n^2); ``anchors(loadings, m)``
    picks the (at most m) rows that a cold batch solves first.  The law
    alone selects the rule.
    """
    return CirclePredictor if spec.homogeneity_degree is not None \
        else NearestPredictor


class NearestPredictor:
    """First-order predictor eta_a + W_a (xi - xi_a) from one solved row a.

    ``pair`` names each new loading's row a, as indices of the solved
    rows; None takes the nearest one in loading space.  Cold batches
    anchor at evenly spaced row indices.
    """

    def __init__(self, loadings, etas, w):
        self.loadings, self.etas, self.w = loadings, etas, w

    @staticmethod
    def anchors(loadings, m):
        return np.arange(m) * (loadings.shape[0] - 1) // (m - 1)

    def __call__(self, loadings, pair=None):
        if pair is None:
            dist = loadings[:, None, :] - self.loadings[None, :, :]
            pair = (dist * dist).sum(axis=-1).argmin(axis=1)
        step = (loadings - self.loadings[pair])[:, :, None]
        return self.etas[pair] + (self.w[pair] @ step)[..., 0]


def _fold(loadings):
    """Folded angles t in [0, pi), signs s and norms r of loadings (K, 2).

    xi = s r (cos t, sin t).
    """
    x, y = loadings[:, 0], loadings[:, 1]
    s = np.where((y < 0.0) | ((y == 0.0) & (x < 0.0)), -1.0, 1.0)
    t = np.arctan2(s * y, s * x)
    # arctan2 rounds to pi just above the negative x axis: that is t = 0
    # with the other sign
    top = t >= np.pi
    t[top] = 0.0
    s[top] = -s[top]
    return t, s, np.hypot(x, y)


class CirclePredictor:
    """A homogeneous law's cell solutions, interpolated in loading angle.

    A law with a ``homogeneity_degree`` (the linear family, the
    unregularized power law) is homogeneous and odd, and so is its
    node-0-pinned discrete cell problem: eta(s xi) = s eta(xi) for every
    real s.  So eta(xi) = s r h(t) at xi = s r (cos t, sin t), with t the
    folded angle in [0, pi), and h(t + pi) = -h(t).  A solved row a with
    xi_a != 0 gives the node h(t_a) = s_a eta_a / r_a and, as
    W = d eta / d xi is even and 0-homogeneous, h'(t_a) = W_a e(t_a) with
    e(t) = (-sin t, cos t).  A loading is predicted as s r H(t), H the
    cubic Hermite interpolant of the nodes on either side of t, the ends
    wrapping to the first and last node with h and h' negated: the
    predictor of a predictor-corrector continuation on the unit circle
    (Allgower & Georg, Numerical Continuation Methods, Springer 1990).

    ``pair`` is ignored.  Zero loadings predict zero and rows with xi = 0
    are not nodes; with no node every prediction is zero.  Predictions
    are sums of elementwise products; a caller passes one chunk of
    loadings at a time, as the batch solver does.  Cold batches anchor
    at evenly spaced folded-angle ranks among the nonzero loadings.
    """

    def __init__(self, loadings, etas, w):
        t, s, r = _fold(loadings)
        nodes = np.flatnonzero(r > 0.0)
        nodes = nodes[np.argsort(t[nodes], kind="stable")]
        self.rows, self.t = nodes, t[nodes]
        self.cos, self.sin = np.cos(self.t), np.sin(self.t)
        self.scale = s[nodes] / r[nodes]
        self.etas, self.w = etas, w

    @staticmethod
    def anchors(loadings, m):
        # the middle ranks of m equal runs, so that the gap across the
        # wrap at t = 0 is as wide as the others
        t, _, r = _fold(loadings)
        ranked = np.flatnonzero(r > 0.0)
        ranked = ranked[np.argsort(t[ranked], kind="stable")]
        m = min(m, ranked.size)
        return np.sort(ranked[(2 * np.arange(m) + 1) * ranked.size
                              // (2 * m)])

    def __call__(self, loadings, pair=None):
        out = np.zeros((loadings.shape[0], self.etas.shape[1]))
        if not self.rows.size:
            return out
        t, s, r = _fold(loadings)
        m = self.t.size
        # the nodes at or below t and above it; -1 and m wrap by pi
        above = np.searchsorted(self.t, t, side="right")
        lo, up = above - 1, above % m
        sign_lo = np.where(above == 0, -1.0, 1.0)
        sign_up = np.where(above == m, -1.0, 1.0)
        t_lo = self.t[lo] - np.pi * (above == 0)
        span = self.t[up] + np.pi * (above == m) - t_lo
        u = (t - t_lo) / span
        v = 1.0 - u
        size = s * r
        for node, sign, value, slope in (
                (lo, sign_lo, (1.0 + 2.0 * u) * v * v, u * v * v),
                (up, sign_up, u * u * (3.0 - 2.0 * u), -u * u * v)):
            rows = self.rows[node]
            c_w = size * sign * slope * span
            # gathered by row: np.take would copy a whole strided column
            for terms, coef in (
                    (self.etas[rows], size * sign * value * self.scale[node]),
                    (self.w[rows, :, 0], -c_w * self.sin[node]),
                    (self.w[rows, :, 1], c_w * self.cos[node])):
                terms *= coef[:, None]
                out += terms
        return out


def corrector_flux(loading, solution):
    """loading + grad(eta) at quadrature points, (nel, 4, 2).

    Its cell mean equals the loading (periodic gradients average to zero).
    """
    grid = solution.grid
    return np.asarray(loading, dtype=float) \
        + _fem.qp_gradient(solution.values, grid.conn, grid.h)


# ---------------------------------------------------------------------------
# Elastic cell problems (sparse direct)
# ---------------------------------------------------------------------------

def unit_strain(i, j):
    """Symmetrized unit strain sym(e_i (x) e_j)."""
    e = np.zeros((2, 2))
    e[i, j] += 0.5
    e[j, i] += 0.5
    return e


def solve_elastic_cells(tensor_b, grid, stresses):
    """Zero-mean periodic displacements balancing quadrature-point stresses.

    ``stresses`` maps a key to a stress tau at quadrature points,
    (nel, 4, 2, 2).  Weak form: ∫ B D(w) : D(v) = ∫ tau : D(v) for every
    periodic v, with B = ``tensor_b``: tau = B E^ij gives the unit-strain
    response U^ij, tau = -C sym(zeta) the electrostriction response chi.
    Solved directly with node 0 pinned, one factorization of B's
    stiffness for all stresses; the two translation modes are removed by
    the zero-mean normalization.  Returns a dict key ->
    ElasticCellSolution in the order of ``stresses``, whose residual is
    the relative residual of the pinned system.  A singular stiffness
    (zero Lame coefficients, say) raises SingularSystem.
    """
    lam, mu = tensor_b.lame_at(grid.qp_coords())
    block = _fem.assemble_elasticity(grid, lam, mu)
    b = np.stack([_fem.divergence_residual(grid, tau).ravel()
                  for tau in stresses.values()])
    xs = np.ascontiguousarray(np.moveaxis(
        _fem.solve_periodic_pinned(block, b.T, dofs_per_node=2), -1, 0))
    sols = {}
    for key, bc, xc in zip(stresses, b, xs):
        bnorm = _fem.vector_norm(bc[2:])
        rnorm = _fem.vector_norm(_fem.pinned_residual(block, xc, bc, 2))
        relres = float(rnorm / bnorm) if bnorm > 0.0 else 0.0
        sols[key] = ElasticCellSolution(xc, relres, 1)
    return sols


def electric_stress(tensor_c, grid, zeta):
    """C sym(zeta) at quadrature points for a source zeta (nel, 4, 2, 2)."""
    return tensor_c.stress(grid.qp_coords(),
                           0.5 * (zeta + np.swapaxes(zeta, -1, -2)))


def solve_elastic_cell_U(tensor_field, grid, i, j):
    """The unit-strain cell problem of one pair: ``solve_elastic_cells``'."""
    stress = tensor_field.stress(grid.qp_coords(), unit_strain(i, j))
    return solve_elastic_cells(tensor_field, grid, {(i, j): stress})[(i, j)]


def solve_electrostriction_cell(tensor_b, tensor_c, zeta_qp, grid,
                                indices=("chi",)):
    """The cell problem of one source: ``solve_elastic_cells``'."""
    return solve_elastic_cells(tensor_b, grid, {
        indices: -electric_stress(tensor_c, grid, zeta_qp)})[indices]


# ---------------------------------------------------------------------------
# Batched scalar cell solves (banded Cholesky over many loadings)
# ---------------------------------------------------------------------------

# Cold batches solve by continuation from anchor rows
# (``BatchScalarCellSolver.solve``) from this many rows and this many cell
# nodes over all rows on: the break-even measured at cell_n 16 (16 rows)
# and cell_n 8 (64 rows).
CONTINUATION_ROWS = 16
CONTINUATION_NODES = 4096


def _folded_order(n):
    """Folded ordering 0, n-1, 1, n-2, ... of one periodic axis.

    Periodic neighbours i and i+1 (mod n) end up at most 2 places apart,
    so a Q1 matrix on the torus numbered this way along both axes has
    half-bandwidth 2n+2.
    """
    order = np.empty(n, dtype=int)
    order[0::2] = np.arange((n + 1) // 2)
    order[1::2] = np.arange(n - 1, (n - 1) // 2, -1)
    return order


@dataclass
class BatchCellResult:
    loadings: np.ndarray        # (K, 2)
    values: np.ndarray          # (K, n^2) zero-mean nodal potentials
    residuals: np.ndarray       # (K,)
    iterations: np.ndarray      # (K,)
    converged: np.ndarray       # (K,) bool


class _Workspace:
    """Work arrays for up to ``rows`` loadings, reused chunk after chunk.

    One allocation holds them all, a region per name.  ``get(name, k,
    *shape, at=0)`` views k rows of a region as (k,) + shape, starting
    ``at`` doubles per row into it, so the parts of a region stay apart
    for every k.  Pages are touched once, on first use, rather than once
    per kernel call as the temporaries of fresh allocations are.
    """

    def __init__(self, layout, rows):
        self.rows = rows
        arena = np.empty(rows * sum(layout.values()))
        self._regions, start = {}, 0
        for name, size in layout.items():
            self._regions[name] = arena[start:start + rows * size]
            start += rows * size

    def get(self, name, k, *shape, at=0):
        return self._regions[name][k * at:k * (at + prod(shape))] \
            .reshape((k,) + shape)


class BatchScalarCellSolver:
    """Solve the scalar cell problem for many loadings at once.

    EffectiveLaw's sweeps and ``solve_scalar_cells`` run it for the
    power-law and variable-exponent families, whose local Jacobians
    d a / d xi are SPD, so each Newton matrix with node 0 pinned is SPD;
    ``attached_residuals`` serves every family.  ``solve`` and
    ``tangents`` raise ValueError for a linear law, whose matrix need not
    be symmetric (the band keeps the a <= b entries of each element
    block); linear laws take ``solve_scalar_cells``' direct solve.  Its
    unknowns are numbered in the folded torus order (node 0 first), which
    makes the matrix banded with half-bandwidth 2n+2.  The matrices of a
    chunk of loadings, stacked along the diagonal, form one band matrix
    of that half-bandwidth: the distinct element-block entries are summed
    straight into its LAPACK lower band storage and factored by one
    banded Cholesky call (``dpbsv``).  Lower, not upper, storage:
    OpenBLAS threads the strided ``dsyr`` of the upper variant, which
    makes these small factorizations ~10x slower.

    Every per-chunk array (gradients, fluxes, Jacobians, element pairs,
    band slot table, band, right-hand sides) lives in the solver's one
    workspace, grown to the largest chunk it has seen; kernels fill it
    with ``out=`` and in-place ufuncs and return views of it, so a caller
    copies what it keeps.  Chunks are
    ``_fem.blocks`` of ``loading_bytes`` per row, so that a workspace
    stays within ``_fem.WORK_BUDGET_BYTES`` (4 MiB: 520
    loadings at n = 4, 115 at n = 8, 23 at n = 16, 4 at n = 32, 1 from
    n = 64 on); the last row of a chunk is factored at the end of the
    stacked band, so the chunk size is part of the bitwise result.
    Results are bitwise deterministic.
    """

    def __init__(self, spec, grid, tol=_fem.CELL_TOL):
        self.spec = spec
        self.grid = grid
        self.tol = tol
        # local coefficients with a leading batch axis
        self.loc = {k: v[None, ...] for k, v in
                    spec.local_coefficients(grid.qp_coords()).items()}
        self._w = grid.weights
        # constant element operators, applied as 2-D matmuls over the
        # (k * nel) elements of a batch: nodal values (a) -> gradients
        # (q, d); fluxes (q, d) -> ∫ flux . grad v per node (a); scalar
        # (q) or matrix (q, d, c) coefficients -> the 10 distinct entries
        # (a <= b) of the symmetric element blocks ∫ grad v_a . A grad v_b
        self._grad_op = _fem.GRAD_OP / grid.h
        self._div_op = _fem.DIV_OP * grid.h
        a, b = np.triu_indices(4)
        self._pair_ops = {op.shape[0]: op[:, 4 * a + b]
                          for op in (_fem.SCALAR_BLOCK_OP, _fem.BLOCK_OP)}
        nn, nel = grid.n_nodes, grid.n_elems
        self._node_slots = _fem.node_slots(grid.conn)
        order = _folded_order(grid.n)
        # node ids in band order; node 0, the pinned node, comes first
        self._band_nodes = (order[:, None] * grid.n + order[None, :]).ravel()
        self._rank = np.empty(nn, dtype=np.intp)
        self._rank[self._band_nodes] = np.arange(nn)
        ranks = self._rank[grid.conn]
        row = np.maximum(ranks[:, a], ranks[:, b])
        col = np.minimum(ranks[:, a], ranks[:, b])
        self.bandwidth = int((row - col).max())
        ldab = self.bandwidth + 1
        # element pair (e, a <= b) -> lower band entry (row, col), stored
        # column-major as LAPACK's ab[row - col, col]; row j of a
        # workspace's slot table is shifted to batch row j of a stacked
        # band, so one unbuffered np.add.at sums every entry's pairs in
        # increasing (e, pair) order, as a bincount over them would
        self._pair_slots = (col * ldab + row - col).ravel()
        # doubles per loading of each workspace array, and what else each
        # holds while its own contents are not needed:
        #   grad   total gradients; the right-hand sides of a band solve
        #          in band order (at 0) and a Newton right-hand side (at
        #          2 nn)
        #   cache  the total gradients of the Newton iterates; in
        #          ``tangents``, their right-hand sides
        #   flux   fluxes; a Jacobian column; element pairs; with the
        #          band, the Jacobian's temporaries
        #   jac    Jacobians; a Newton step, once its band is assembled
        #   slots  the band slot table (integers)
        #   band   band storage; while no band is in flight, nodal values
        #          per element or per-element divergences (at 0), the
        #          scatter's terms or squares (at ``_at_terms``),
        #          residuals (at ``_at_res``) and the scatter's sums (at
        #          ``_at_sums``), and after a solve the solution in node
        #          order (at 0)
        self._layout = {"grad": 8 * nel, "cache": 8 * nel,
                        "flux": 10 * nel, "jac": 16 * nel,
                        "slots": self._pair_slots.size, "band": ldab * nn}
        self._at_terms = 4 * nel
        self._at_res = self._at_terms + 2 * nn
        self._at_sums = self._at_res + nn
        self.loading_bytes = 8 * sum(self._layout.values())
        self._ws = None

    def _workspace(self, k):
        """The solver's workspace, grown to hold k loadings."""
        ws = self._ws
        if ws is None or ws.rows < k:
            ws = self._ws = _Workspace(self._layout, k)
            band_size = (self.bandwidth + 1) * self.grid.n_nodes
            np.add(self._pair_slots, band_size * np.arange(k)[:, None],
                   out=self._slot_table(ws, k))
        return ws

    def _require_nonlinear(self):
        if self.spec.is_linear:
            raise ValueError("the batched cell solver assumes symmetric "
                             "Newton matrices; a linear law takes "
                             "solve_scalar_cells' direct solve")

    def _slot_table(self, ws, k):
        """Band slots of the element pairs of k batch rows, (k, 10 nel)."""
        return ws.get("slots", k, self._pair_slots.size).view(np.intp)

    # -- batched kernels ---------------------------------------------------
    # Each returns a view of the solver's workspace, valid until
    # the next kernel that writes the same array; k is at most ``chunk``.

    def _total_gradient(self, loadings, etas):
        """loading + grad eta at quadrature points for a batch, (k, nel, 4, 2)."""
        k, nel = etas.shape[0], self.grid.n_elems
        ws = self._workspace(k)
        nodal = np.take(etas, self.grid.conn, axis=1, mode="clip",
                        out=ws.get("band", k, nel, 4))
        grad = ws.get("grad", k, nel, 4, 2)
        np.matmul(nodal.reshape(-1, 4), self._grad_op,
                  out=grad.reshape(-1, 8))
        grad += loadings[:, None, None, :]
        return grad

    def _flux_at(self, grad):
        """Fluxes a(y, grad) of total gradients (k, nel, 4, 2)."""
        return self.spec.flux_local(
            self.loc, grad,
            out=self._workspace(grad.shape[0]).get("flux", *grad.shape))

    def _jacobian_at(self, grad):
        """Newton-matrix coefficients d a / d xi at total gradients.

        The constitutive temporaries take the dead fluxes and band.
        """
        k, nel = grad.shape[0], self.grid.n_elems
        ws = self._workspace(k)
        work = [ws.get(name, k, nel, 4, at=4 * nel * i)
                for name in ("flux", "band") for i in range(2)]
        return self.spec.jacobian_local(
            self.loc, grad, delta_floor=_fem.DELTA_JAC,
            out=ws.get("jac", *grad.shape, 2), work=work)

    def _scatter(self, per_elem, out):
        """Per-element nodal data (k, nel, 4, ...) summed onto nodes.

        ``_fem.slot_sums`` adds each node's element slots in increasing
        order, bitwise as ``np.add.at`` does.  The sums run on contiguous
        scratch and are copied to ``out`` (k, nn, ...) at the end, which
        may be a strided view; returns ``out``.
        """
        k, nn = per_elem.shape[0], self.grid.n_nodes
        tail = per_elem.shape[3:]
        ws = self._workspace(k)
        sums = _fem.slot_sums(
            per_elem.reshape(k, -1, prod(tail)), self._node_slots,
            ws.get("band", k, nn, prod(tail), at=self._at_sums),
            ws.get("band", k, nn, prod(tail), at=self._at_terms))
        out[...] = sums.reshape(out.shape)
        return out

    def _divergence(self, flux, out=None):
        """Assembled ∫ flux . grad v for quadrature-point fluxes, (k, nn).

        Written to ``out``, else to the workspace's residual array, whose
        rows are strided: node-major, like a one-hot scatter's product.
        """
        k, nel, nn = flux.shape[0], self.grid.n_elems, self.grid.n_nodes
        ws = self._workspace(k)
        per_elem = ws.get("band", k, nel, 4)
        np.matmul(flux.reshape(-1, 8), self._div_op,
                  out=per_elem.reshape(-1, 4))
        if out is None:
            out = ws.get("band", k, nn, at=self._at_res).reshape(nn, k).T
        return self._scatter(per_elem, out)

    def _row_norms(self, res):
        """Euclidean norms of the rows of a residual (k, nn).

        The squares take the residual's node-major layout, so the sums run
        in the order np.linalg.norm(res, axis=1) takes: bitwise its value.
        """
        k, nn = res.shape
        squares = self._workspace(k).get(
            "band", k, nn, at=self._at_terms).reshape(nn, k).T
        np.multiply(res, res, out=squares)
        return np.sqrt(np.add.reduce(squares, axis=1))

    def _residual(self, loadings, etas):
        """Assembled residual vectors for a batch, (k, nn).

        The total gradient stays in the workspace's ``grad`` array.
        """
        return self._divergence(self._flux_at(
            self._total_gradient(loadings, etas)))

    def _local_jacobians(self, loadings, etas):
        """Newton-matrix coefficients d a / d xi at quadrature points."""
        return self._jacobian_at(self._total_gradient(loadings, etas))

    def _band_solve(self, coef, rhs, out=None):
        """Solve the node-0-pinned systems with coefficients coef.

        ``coef`` holds scalar (k, nel, 4) or symmetric matrix
        (k, nel, 4, 2, 2) coefficients and ``rhs`` (k, nn, r), r <= 2, the
        assembled right-hand sides; returns (k, nn, r) with node 0 at
        zero, in ``out`` when given (it may be ``coef``'s memory, which is
        read first).  The workspace's ``grad`` array is overwritten.  The
        k band matrices, stacked along the diagonal, form one band matrix
        of the same half-bandwidth, factored by one ``dpbsv`` call; node 0
        keeps a unit row and column.  Raises SingularSystem, naming the
        batch row, when a matrix is not positive definite.
        """
        k, nel, nn = coef.shape[0], self.grid.n_elems, self.grid.n_nodes
        ldab = self.bandwidth + 1
        r = rhs.shape[2]
        ws = self._workspace(k)
        # right-hand sides in band order, column-major for LAPACK
        b = ws.get("grad", k, r * nn).reshape(r, k * nn)
        rhs = rhs.reshape(k, nn * r)
        for c in range(r):
            np.take(rhs, self._band_nodes * r + c, axis=1, mode="clip",
                    out=b[c].reshape(k, nn))
        b[:, ::nn] = 0.0
        pairs = ws.get("flux", k, 10 * nel)
        np.matmul(coef.reshape(k * nel, -1),
                  self._pair_ops[coef[0, 0].size], out=pairs.reshape(-1, 10))
        band = ws.get("band", k * nn, ldab)
        band[...] = 0.0
        np.add.at(band.reshape(-1), self._slot_table(ws, k).reshape(-1),
                  pairs.reshape(-1))
        band[::nn] = 0.0
        band[::nn, 0] = 1.0
        _, x, info = _dpbsv(band.T, b.T, lower=1, overwrite_ab=1,
                            overwrite_b=1)
        if info != 0:
            raise SingularSystem(
                f"cell Newton matrix of batch row {(info - 1) // nn} is not "
                f"positive definite (dpbsv info {info})")
        if out is None:
            out = np.empty((k, nn, r))
        node_order = ws.get("band", k, nn)
        for c, xc in enumerate(x.T):
            np.take(xc.reshape(k, nn), self._rank, axis=1, mode="clip",
                    out=node_order)
            out[..., c] = node_order
        return out

    def _integrate(self, values):
        """Quadrature sums over the cell of (k, nel, 4, ...) values: (k, ...)."""
        k = values.shape[0]
        per_qp = values.reshape(k, self.grid.n_elems, 4, -1).sum(axis=1)
        return (self._w @ per_qp).reshape((k,) + values.shape[3:])

    def _tangent_chunk(self, loadings, etas, w):
        """Tangents of one chunk; W = d eta / d xi goes to ``w`` (k, nn, 2)."""
        k = loadings.shape[0]
        ws = self._workspace(k)
        jac = self._local_jacobians(loadings, etas)
        # rhs_j = -∫ A e_j . grad v, one column per direction j
        rhs = ws.get("cache", k, self.grid.n_nodes, 2)
        column = ws.get("flux", *jac.shape[:-1])
        for j in range(2):
            np.copyto(column, jac[..., j])
            self._divergence(column, out=rhs[..., j])
        np.negative(rhs, out=rhs)
        self._band_solve(jac, rhs, out=w)
        w -= w.mean(axis=1, keepdims=True)
        # A is symmetric, so ∫ (A e_i) . grad w_j = -rhs_i . w_j and
        # ∫ A (I + grad w) = ∫ A - rhs^T w
        return self._integrate(jac) - np.swapaxes(rhs, 1, 2) @ w

    def tangents(self, loadings, etas):
        """Consistent tangents and cell-solution derivatives at converged potentials.

        For each loading xi with cell solution eta, w_j solves the
        linearized cell problem ∫ A (e_j + grad w_j) . grad v = 0 with
        A = d a / d xi at xi + grad eta, i.e. the Newton matrix at the
        converged solution with node 0 pinned.  Returns the tangents
        d a_hom / d xi = ∫ A (I + grad w), (K, 2, 2), and the zero-mean
        W = [w_1 w_2] = d eta / d xi, (K, n^2, 2): eta + W (xi' - xi) is
        the first-order predictor of the cell solution at a nearby
        loading xi'.
        """
        self._require_nonlinear()
        loadings = np.asarray(loadings, dtype=float)
        k = loadings.shape[0]
        tangent = np.zeros((k, 2, 2))
        w = np.zeros((k, self.grid.n_nodes, 2))
        for sl in _fem.blocks(k, self.loading_bytes):
            tangent[sl] = self._tangent_chunk(loadings[sl], etas[sl], w[sl])
        return tangent, w

    def _solve_chunk(self, loadings, x0):
        k, nel, nn = loadings.shape[0], self.grid.n_elems, self.grid.n_nodes
        ws = self._workspace(k)
        etas = np.zeros((k, nn)) if x0 is None else np.array(x0, dtype=float)
        # every family maps xi = 0 to flux 0, so a zero loading has eta = 0
        etas[np.linalg.norm(loadings, axis=1) == 0.0] = 0.0
        # total gradients at each row's last evaluated iterate: damped
        # Newton steps (Newton or frozen-coefficient) from that iterate,
        # so a step reuses the gradient of its residual
        grads = ws.get("cache", k, nel, 4, 2)

        def residual(rows, x):
            res = self._residual(loadings[rows], x)
            grads[rows] = ws.get("grad", rows.size, nel, 4, 2)
            return res, self._row_norms(res)

        def gradients(rows):
            return np.take(grads, rows, axis=0, mode="clip",
                           out=ws.get("grad", rows.size, nel, 4, 2))

        def newton_step(rows, x, res):
            # the step goes to the Jacobian's memory, which no residual
            # evaluation of the line search touches
            jac = self._jacobian_at(gradients(rows))
            rhs = ws.get("grad", rows.size, nn, 1, at=2 * nn)
            np.negative(res, out=rhs[..., 0])
            step = ws.get("jac", rows.size, nn, 1)
            return self._band_solve(jac, rhs, out=step)[..., 0]

        def picard_step(rows, x):
            coef = self.spec.frozen_coefficient(self.loc, gradients(rows),
                                                _fem.DELTA_JAC)
            rhs = np.negative(self._divergence(
                coef[..., None] * loadings[rows][:, None, None, :]))
            frozen = self._band_solve(coef, rhs[:, :, None])[..., 0]
            return x + self.spec.frozen_relaxation * (frozen - x)

        out = _fem.damped_newton(
            etas, residual, newton_step,
            self.tol * _tol_scale(self.spec, loadings),
            _fem.MAX_NEWTON, _fem.MAX_LINESEARCH, picard_step,
            _fem.MAX_PICARD)
        etas = out.x - out.x.mean(axis=1, keepdims=True)
        return etas, out.norm, out.iterations, out.converged

    def solve(self, loadings, start=None):
        """Solve for loadings (K, 2); returns a BatchCellResult.

        ``start(chunk_loadings, rows)``, called once per chunk of rows
        (``_fem.blocks``), optionally gives its initial iterates (k, n^2),
        which are copied.  With ``start`` None, a batch of fewer than
        ``CONTINUATION_ROWS`` rows or ``CONTINUATION_NODES`` nodes in all
        (64 rows at n = 8) starts
        every row from eta = 0.  A larger one solves by continuation:
        ceil(sqrt(K)) anchor rows from eta = 0 first, then every other
        row from the law's ``cell_predictor`` built on the anchors, with
        W_a = d eta / d xi from the anchors' tangent solve (the other
        rows start from eta = 0 if an anchor did not converge).  A
        homogeneous law anchors at evenly spaced folded-angle ranks and
        interpolates on the circle (``CirclePredictor``); any other law
        anchors at evenly spaced indices and takes the first-order
        predictor eta_a + W_a (xi - xi_a) of the nearest anchor a in
        loading space (``NearestPredictor``).  Every row is solved once,
        and every start is formed one chunk at a time, so no second
        (K, n^2) table is held.  Rows that do not converge are flagged in
        ``converged``.
        """
        self._require_nonlinear()
        loadings = np.asarray(loadings, dtype=float)
        k = loadings.shape[0]
        out = BatchCellResult(loadings, np.zeros((k, self.grid.n_nodes)),
                              np.zeros(k), np.zeros(k, dtype=int),
                              np.zeros(k, dtype=bool))
        if start is not None or k < max(
                CONTINUATION_ROWS, CONTINUATION_NODES / self.grid.n_nodes):
            self._solve_rows(out, np.arange(k), start)
            return out
        rule = cell_predictor(self.spec)
        anchors = rule.anchors(loadings, ceil(sqrt(k)))
        self._solve_rows(out, anchors)
        rest = np.setdiff1d(np.arange(k), anchors)
        if not out.converged[anchors].all():
            self._solve_rows(out, rest)
            return out
        xi_a, eta_a = loadings[anchors], out.values[anchors]
        predict = rule(xi_a, eta_a, self.tangents(xi_a, eta_a)[1])
        self._solve_rows(out, rest, lambda xi, rows: predict(xi))
        return out

    def _solve_rows(self, out, rows, start=None):
        """Solve ``rows`` of ``out`` in place, a chunk of ``rows`` at a time.

        ``start(chunk_loadings, chunk_rows)`` gives a chunk's initial
        iterates; None starts from eta = 0.
        """
        for sl in _fem.blocks(rows.size, self.loading_bytes):
            r = rows[sl]
            xi = out.loadings[r]
            (out.values[r], out.residuals[r], out.iterations[r],
             out.converged[r]) = self._solve_chunk(
                xi, None if start is None else start(xi, r))

    def flux_means(self, result):
        """Cell means of a(y, loading + grad eta) per sample, (K, 2)."""
        out = np.zeros((result.loadings.shape[0], 2))
        for sl in _fem.blocks(out.shape[0], self.loading_bytes):
            out[sl] = self._integrate(self._flux_at(self._total_gradient(
                result.loadings[sl], result.values[sl])))
        return out

    def attached_residuals(self, loadings, etas):
        """Diagnostics of given cell potentials, two (K,) arrays.

        The weak-form residual norms and the flux-identity defects
        | ∫a.p - ∫a.loading | with p = loading + grad eta.  A nonlinear law
        evaluates the flux once per chunk of loadings.  A linear law
        evaluates the given rows through its assembled periodic operators
        (``_fem.gradient_form``): r = K eta + F loading, a sparse product
        per chunk (``_fem.blocks``), whose defect eta . r equals
        ∫a.p - ∫a.loading exactly under the quadrature.  Norms and
        defects are numpy sums.
        """
        loadings = np.asarray(loadings, dtype=float)
        if self.spec.is_linear:
            return self._linear_attached_residuals(loadings, etas)
        cell = np.zeros(loadings.shape[0])
        identity = np.zeros(loadings.shape[0])
        for sl in _fem.blocks(cell.shape[0], self.loading_bytes):
            p_qp = self._total_gradient(loadings[sl], etas[sl])
            flux = self._flux_at(p_qp)
            cell[sl] = self._row_norms(self._divergence(flux))
            lhs = self._integrate(flux[..., 0] * p_qp[..., 0]
                                  + flux[..., 1] * p_qp[..., 1])
            mean = self._integrate(flux)
            rhs = mean[:, 0] * loadings[sl, 0] + mean[:, 1] * loadings[sl, 1]
            identity[sl] = np.abs(lhs - rhs)
        return cell, identity

    def _linear_attached_residuals(self, loadings, etas):
        """``attached_residuals`` of a linear law, at the cost of its nodes.

        Each chunk of rows is transposed once, (nn, k), so that the sparse
        product and the sums over nodes run along contiguous rows.
        """
        coef = self._w[:, None, None] * self.loc["bmat"][0]
        stiffness, load = _fem.gradient_form(_fem.gradient_matrix(self.grid),
                                             coef)
        cell = np.zeros(loadings.shape[0])
        identity = np.zeros(loadings.shape[0])
        # the transposed rows, their residuals and one product of the two
        for sl in _fem.blocks(cell.shape[0], 24 * self.grid.n_nodes):
            rows = np.ascontiguousarray(etas[sl].T)
            res = stiffness @ rows
            res += load[:, :1] * loadings[sl, 0]
            res += load[:, 1:] * loadings[sl, 1]
            cell[sl] = np.sqrt((res * res).sum(axis=0))
            identity[sl] = np.abs((rows * res).sum(axis=0))
        return cell, identity
