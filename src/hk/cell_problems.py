"""Periodic cell problems on the unit cell.

Three kinds of solves:

* scalar monotone problem: find a zero-mean periodic potential eta with
  ∫_Y a(y, xi + grad eta) . grad v = 0 for all periodic v: nonlinear
  families by ``BatchScalarCellSolver`` (damped Newton on banded
  Cholesky, relaxed frozen-coefficient fallback), a single loading as
  one row; linear families by one pinned sparse direct solve;
* elastic problem: zero-mean periodic displacement balancing a unit
  macroscopic strain;
* electrostriction problem: displacement driven by the outer product of
  two corrector flux fields.

The two elastic problems are linear: one sparse direct solve each, with
the displacement of node 0 pinned (``_fem.solve_periodic_pinned``).  All
solutions are normalized to zero mean; on the uniform periodic grid the
arithmetic nodal mean equals the integral, so the normalization is exact.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpbsv as _dpbsv

from . import _fem
from ._fem import contract as _contract
from .constitutive import OperatorSpec
from .core_fields import CellGrid
from .errors import NonConvergence, SingularSystem


@dataclass
class SolverOptions:
    tol: float = 1e-10
    max_newton: int = 50
    max_picard: int = 200
    max_linesearch: int = 25
    delta_jac: float = 1e-12


@dataclass
class ScalarCellSolution:
    """Zero-mean periodic potential responding to a constant loading."""

    loading: np.ndarray
    values: np.ndarray          # nodal, (n^2,)
    residual: float
    iterations: int
    grid: CellGrid = field(repr=False)
    spec: OperatorSpec = field(repr=False)


@dataclass
class ElasticCellSolution:
    """Zero-mean periodic displacement for one load index pair."""

    indices: tuple
    values: np.ndarray          # nodal, (n^2, 2)
    residual: float
    iterations: int
    grid: CellGrid = field(repr=False)


def _tol_scale(spec, loadings):
    """max(1, |xi|)^(p_max - 1) per loading, the cell problem's flux scale."""
    return np.maximum(1.0, np.linalg.norm(loadings, axis=-1)) \
        ** (spec.max_exponent - 1.0)


def solve_scalar_cell(spec, loading, grid, opts=None):
    """Solve the scalar monotone cell problem for one loading vector.

    Linear families: one pinned sparse direct solve (``iterations`` is 1,
    ``residual`` the assembled residual).  Nonlinear families: one row of
    ``BatchScalarCellSolver``.  The stopping tolerance is opts.tol scaled
    by max(1, |loading|)^(p-1) so it stays meaningful across loading
    magnitudes; a residual above it raises NonConvergence.
    """
    opts = opts or SolverOptions()
    loading = np.asarray(loading, dtype=float)
    if not np.all(np.isfinite(loading)):
        raise ValueError("loading must be finite")
    tol = opts.tol * _tol_scale(spec, loading)
    if spec.is_linear:
        loc = spec.local_coefficients(grid.qp_coords())
        rhs = -_fem.divergence_residual(grid, spec.flux_local(loc, loading))
        matrix = _fem.assemble_diffusion(grid.conn, grid.h, grid.n_nodes,
                                         loc["bmat"])
        eta = _fem.solve_periodic_pinned(matrix, rhs)
        rnorm, iterations = float(np.linalg.norm(matrix @ eta - rhs)), 1
    else:
        out = BatchScalarCellSolver(spec, grid, opts).solve(loading[None])
        eta = out.values[0]
        rnorm, iterations = float(out.residuals[0]), int(out.iterations[0])
    if rnorm > tol:
        raise NonConvergence(
            f"scalar cell problem: residual {rnorm:.3e} > {tol:.3e} after "
            f"{iterations} iterations (grid n={grid.n})",
            residual=rnorm, iterations=iterations)
    return ScalarCellSolution(loading, eta, rnorm, iterations, grid, spec)


def corrector_flux(spec, loading, solution):
    """loading + grad(eta) at quadrature points, (nel, 4, 2).

    Its cell mean equals the loading (periodic gradients average to zero).
    """
    grid = solution.grid
    return np.asarray(loading, dtype=float) \
        + _fem.qp_gradient(solution.values, grid.conn, grid.h)


def verify_flux_identity(spec, loading, solution):
    """| ∫ a(y,p).p - ∫ a(y,p).loading | for p the corrector flux.

    Exact in the continuum; the discrete residual tracks the solver
    tolerance.  Reported as a diagnostic, never raised.
    """
    batch = BatchScalarCellSolver(spec, solution.grid)
    _, identity = batch.attached_residuals(
        np.asarray(loading, dtype=float)[None], solution.values[None])
    return float(identity[0])


# ---------------------------------------------------------------------------
# Elastic cell problems (sparse direct)
# ---------------------------------------------------------------------------

def unit_strain(i, j):
    """Symmetrized unit strain sym(e_i (x) e_j)."""
    e = np.zeros((2, 2))
    e[i, j] += 0.5
    e[j, i] += 0.5
    return e


def _solve_elastic(tensor_field, grid, rhs):
    """Zero-mean periodic displacement for an assembled load (nn, 2).

    Returns the displacement (nn, 2) and the relative residual of the
    system with node 0 pinned.  A singular stiffness (zero Lame
    coefficients, say) raises SingularSystem.
    """
    lam, mu = tensor_field.lame_at(grid.qp_coords())
    matrix = _fem.assemble_elasticity(grid.conn, grid.h, grid.n_nodes, lam, mu)
    b = rhs.ravel()
    x = _fem.solve_periodic_pinned(matrix, b, dofs_per_node=2)
    bnorm = np.linalg.norm(b[2:])
    rnorm = np.linalg.norm((matrix @ x.ravel() - b)[2:])
    return x, float(rnorm / bnorm) if bnorm > 0.0 else 0.0


def solve_elastic_cell_U(tensor_field, grid, i, j):
    """Periodic displacement balancing the unit macroscopic strain (i, j).

    Weak form: ∫ B D(U) : D(v) = ∫ B E^ij : D(v) with E^ij the constant
    symmetrized unit strain, solved directly with node 0 pinned; the two
    translation modes are removed by the zero-mean normalization.
    """
    points = grid.qp_coords()
    strain = unit_strain(i, j)
    stress = tensor_field.apply(points, strain)
    rhs = _fem.divergence_residual(grid, stress)
    x, relres = _solve_elastic(tensor_field, grid, rhs)
    return ElasticCellSolution((i, j), x, relres, 1, grid)


def assemble_zeta(i, j, sol_i, sol_j):
    """Outer product of the two corrector flux fields, (nel, 4, 2, 2)."""
    if sol_i.grid is not sol_j.grid and sol_i.grid != sol_j.grid:
        raise ValueError("corrector solutions live on different grids")
    e_i = np.eye(2)[i]
    e_j = np.eye(2)[j]
    p_i = corrector_flux(sol_i.spec, e_i, sol_i)
    p_j = corrector_flux(sol_j.spec, e_j, sol_j)
    return _contract("eqc,eqd->eqcd", p_i, p_j)


def solve_electrostriction_cell(tensor_field, zeta_qp, grid,
                                variant="C-applied", indices=("chi",)):
    """Periodic displacement driven by an electric stress source.

    variant "as-written": flux C D(chi) + zeta; variant "C-applied"
    (default): flux C (D(chi) + zeta).  Tested against symmetrized
    gradients, so only the symmetric part of the source enters.  Solved
    directly like ``solve_elastic_cell_U``.
    """
    if variant not in ("C-applied", "as-written"):
        raise ValueError(f"unknown electrostriction variant {variant!r}")
    points = grid.qp_coords()
    zeta_sym = 0.5 * (zeta_qp + np.swapaxes(zeta_qp, -1, -2))
    stress = zeta_sym
    if variant == "C-applied":
        stress = _fem.isotropic_stress(*tensor_field.lame_at(points), zeta_sym)
    rhs = -_fem.divergence_residual(grid, stress)
    x, relres = _solve_elastic(tensor_field, grid, rhs)
    return ElasticCellSolution(tuple(indices), x, relres, 1, grid)


# ---------------------------------------------------------------------------
# Batched scalar cell solves (banded Cholesky over many loadings)
# ---------------------------------------------------------------------------

# Work arrays of one chunk of loadings stay within this many bytes.  One
# loading at cell_n 128 needs 38.9 MiB; budgets down to 12 MiB ran the
# benchmark's n = 8 and n = 16 cell solves at most ~3% faster, within its
# run-to-run noise.
CHUNK_BUDGET_BYTES = 40 * 2 ** 20
MAX_CHUNK = 512


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


class BatchScalarCellSolver:
    """Solve the scalar cell problem for many loadings at once.

    EffectiveLaw's sweeps and ``solve_scalar_cell`` (one row) run it for
    the power-law and variable-exponent families, whose local Jacobians
    d a / d xi are SPD, so each Newton matrix with node 0 pinned is SPD;
    ``attached_residuals`` serves every family.  Its unknowns are
    numbered in the folded torus order (node 0 first), which makes the
    matrix banded with half-bandwidth 2n+2.  The matrices of a chunk of
    loadings, stacked along the diagonal, form one band matrix of that
    half-bandwidth: the distinct element-block entries are summed
    straight into its LAPACK lower band storage (one ``bincount``) and
    factored by one banded Cholesky call (``dpbsv``).  Lower, not upper,
    storage: OpenBLAS threads the strided ``dsyr`` of the upper variant,
    which makes these small factorizations ~10x slower.  Chunks are sized
    from ``CHUNK_BUDGET_BYTES`` (40 MiB: 512 loadings at n = 8, 235 at
    n = 16).  Results are bitwise deterministic.
    """

    def __init__(self, spec, grid, opts=None):
        self.spec = spec
        self.grid = grid
        self.opts = opts or SolverOptions()
        # local coefficients with a leading batch axis
        self.loc = {k: v[None, ...] for k, v in
                    spec.local_coefficients(grid.qp_coords()).items()}
        self._w = grid.h * grid.h * _fem.REF_WEIGHTS
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
        nn = grid.n_nodes
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
        # element pair entry (e, a <= b) -> lower band entry (row, col),
        # stored column-major as LAPACK's ab[row - col, col]; row j of
        # the table is shifted to batch row j of a stacked band.  The
        # table grows to the largest batch seen (at most ``chunk`` rows);
        # each call uses the table it read, so concurrent callers can at
        # worst rebuild it
        self._band_slots = (col * ldab + row - col).reshape(1, -1)
        # band storage plus element pairs and their slots, Jacobians,
        # gradients and fluxes
        self.loading_bytes = 8 * (ldab * nn + 52 * grid.n_elems)
        self.chunk = max(1, min(MAX_CHUNK,
                                CHUNK_BUDGET_BYTES // self.loading_bytes))

    # -- batched kernels ---------------------------------------------------

    def _total_gradient(self, loadings, etas):
        """loading + grad eta at quadrature points for a batch, (k, nel, 4, 2)."""
        k = etas.shape[0]
        grad = (etas[:, self.grid.conn].reshape(-1, 4) @ self._grad_op) \
            .reshape(k, -1, 4, 2)
        grad += loadings[:, None, None, :]
        return grad

    def _scatter(self, per_elem):
        """Per-element nodal data (k, nel, 4, ...) summed onto nodes, (k, nn, ...)."""
        return np.swapaxes(_fem.scatter(self.grid.node_scatter,
                                        np.moveaxis(per_elem, 0, 2)), 0, 1)

    def _divergence(self, flux):
        """Assembled ∫ flux . grad v for quadrature-point fluxes, (k, nn)."""
        k = flux.shape[0]
        return self._scatter(
            (flux.reshape(-1, 8) @ self._div_op).reshape(k, -1, 4))

    def _residual(self, loadings, etas):
        """Assembled residual vectors for a batch, (k, nn)."""
        return self._divergence(self.spec.flux_local(
            self.loc, self._total_gradient(loadings, etas)))

    def _local_jacobians(self, loadings, etas):
        """Newton-matrix coefficients d a / d xi at quadrature points."""
        return self.spec.jacobian_local(
            self.loc, self._total_gradient(loadings, etas),
            delta_floor=self.opts.delta_jac)

    def _band_solve(self, coef, rhs):
        """Solve the node-0-pinned systems with coefficients coef.

        ``coef`` holds scalar (k, nel, 4) or symmetric matrix
        (k, nel, 4, 2, 2) coefficients and ``rhs`` (k, nn, r) the
        assembled right-hand sides; returns (k, nn, r) with node 0 at
        zero.  The k band matrices, stacked along the diagonal, form one
        band matrix of the same half-bandwidth, factored by one ``dpbsv``
        call; node 0 keeps a unit row and column.  Raises SingularSystem,
        naming the batch row, when a matrix is not positive definite.
        """
        k = coef.shape[0]
        nn = self.grid.n_nodes
        ldab = self.bandwidth + 1
        pairs = coef.reshape(k * self.grid.n_elems, -1)
        pairs = pairs @ self._pair_ops[pairs.shape[1]]
        slots = self._band_slots
        if slots.shape[0] < k:
            slots = slots[0] + (ldab * nn) * np.arange(k)[:, None]
            self._band_slots = slots
        band = np.bincount(slots[:k].ravel(), weights=pairs.ravel(),
                           minlength=k * ldab * nn).reshape(k * nn, ldab)
        band[::nn] = 0.0
        band[::nn, 0] = 1.0
        b = rhs[:, self._band_nodes].reshape(k * nn, -1)
        b[::nn] = 0.0
        _, x, info = _dpbsv(band.T, b, lower=1, overwrite_ab=1,
                            overwrite_b=1)
        if info != 0:
            raise SingularSystem(
                f"cell Newton matrix of batch row {(info - 1) // nn} is not "
                f"positive definite (dpbsv info {info})")
        return x.reshape(k, nn, -1)[:, self._rank]

    def _chunks(self, k):
        """Slices of at most ``chunk`` rows covering rows 0..k-1."""
        for start in range(0, k, self.chunk):
            yield slice(start, min(start + self.chunk, k))

    def _integrate(self, values):
        """Quadrature sums over the cell of (k, nel, 4, ...) values: (k, ...)."""
        k = values.shape[0]
        per_qp = values.reshape(k, self.grid.n_elems, 4, -1).sum(axis=1)
        return (self._w @ per_qp).reshape((k,) + values.shape[3:])

    def _tangent_chunk(self, loadings, etas):
        jac = self._local_jacobians(loadings, etas)
        # rhs_j = -∫ A e_j . grad v, one column per direction j
        rhs = -np.stack([self._divergence(jac[..., j]) for j in range(2)],
                        axis=-1)
        w = self._band_solve(jac, rhs)
        w -= w.mean(axis=1, keepdims=True)
        # A is symmetric, so ∫ (A e_i) . grad w_j = -rhs_i . w_j and
        # ∫ A (I + grad w) = ∫ A - rhs^T w
        return self._integrate(jac) - np.swapaxes(rhs, 1, 2) @ w, w

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
        loadings = np.asarray(loadings, dtype=float)
        k = loadings.shape[0]
        tangent = np.zeros((k, 2, 2))
        w = np.zeros((k, self.grid.n_nodes, 2))
        for sl in self._chunks(k):
            tangent[sl], w[sl] = self._tangent_chunk(loadings[sl], etas[sl])
        return tangent, w

    def _solve_chunk(self, loadings, warm):
        opts = self.opts
        etas = np.zeros((loadings.shape[0], self.grid.n_nodes)) \
            if warm is None else warm.copy()
        # every family maps xi = 0 to flux 0, so a zero loading has eta = 0
        etas[np.linalg.norm(loadings, axis=1) == 0.0] = 0.0

        def residual(rows, x):
            res = self._residual(loadings[rows], x)
            return res, np.linalg.norm(res, axis=1)

        def newton_step(rows, x, res):
            return self._band_solve(self._local_jacobians(loadings[rows], x),
                                    -res[:, :, None])[..., 0]

        def picard_step(rows, x):
            coef = self.spec.frozen_coefficient(
                self.loc, self._total_gradient(loadings[rows], x),
                opts.delta_jac)
            rhs = -self._divergence(
                coef[..., None] * loadings[rows][:, None, None, :])
            frozen = self._band_solve(coef, rhs[:, :, None])[..., 0]
            return x + self.spec.frozen_relaxation * (frozen - x)

        out = _fem.damped_newton(
            etas, residual, newton_step,
            opts.tol * _tol_scale(self.spec, loadings),
            opts.max_newton, opts.max_linesearch,
            None if self.spec.is_linear else picard_step, opts.max_picard)
        etas = out.x - out.x.mean(axis=1, keepdims=True)
        return etas, out.norm, out.iterations, out.converged

    def solve(self, loadings, warm=None):
        """Solve for loadings (K, 2); returns a BatchCellResult.

        Rows that do not converge are flagged in ``converged``.
        """
        loadings = np.asarray(loadings, dtype=float)
        k = loadings.shape[0]
        out = BatchCellResult(loadings, np.zeros((k, self.grid.n_nodes)),
                              np.zeros(k), np.zeros(k, dtype=int),
                              np.zeros(k, dtype=bool))
        for sl in self._chunks(k):
            (out.values[sl], out.residuals[sl], out.iterations[sl],
             out.converged[sl]) = self._solve_chunk(
                loadings[sl], None if warm is None else warm[sl])
        return out

    def flux_means(self, result):
        """Cell means of a(y, loading + grad eta) per sample, (K, 2)."""
        out = np.zeros((result.loadings.shape[0], 2))
        for sl in self._chunks(out.shape[0]):
            flux = self.spec.flux_local(
                self.loc,
                self._total_gradient(result.loadings[sl], result.values[sl]))
            out[sl] = self._integrate(flux)
        return out

    def attached_residuals(self, loadings, etas):
        """Diagnostics of given cell potentials, two (K,) arrays.

        The weak-form residual norms and the flux-identity defects
        | ∫a.p - ∫a.loading | with p = loading + grad eta, from one
        evaluation of the flux per chunk.
        """
        cell = np.zeros(loadings.shape[0])
        identity = np.zeros(loadings.shape[0])
        for sl in self._chunks(cell.shape[0]):
            p_qp = self._total_gradient(loadings[sl], etas[sl])
            flux = self.spec.flux_local(self.loc, p_qp)
            cell[sl] = np.linalg.norm(self._divergence(flux), axis=1)
            lhs = self._integrate(flux[..., 0] * p_qp[..., 0]
                                  + flux[..., 1] * p_qp[..., 1])
            mean = self._integrate(flux)
            rhs = mean[:, 0] * loadings[sl, 0] + mean[:, 1] * loadings[sl, 1]
            identity[sl] = np.abs(lhs - rhs)
        return cell, identity
