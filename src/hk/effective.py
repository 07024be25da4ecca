"""Effective tensors assembled from cell solutions.

The effective flux law is an evaluable map backed by batched cell solves,
or for a linear law by one pair of unit-loading solves; a law that does
not depend on y takes the same path, its cell solutions being eta = 0.
It keeps no solutions between calls, so a caller that reads them back
(the macro Newton's tangent, the corrector's warm start) keeps them
itself.  The effective elasticity and electrostriction tensors are
constant fourth-order tensors.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _fem
# solve_scalar_cell is re-exported, here and in hk.cli, for
# perfbench/spans.py, whose tracer rebinds it in every hk namespace; a
# perfbench test reads it from both
from .cell_problems import (BatchScalarCellSolver,  # noqa: F401
                            corrector_flux, electric_stress,
                            solve_elastic_cells, solve_scalar_cell,
                            solve_scalar_cells, unit_strain)
from .errors import NonConvergence


class EffectiveLaw:
    """Evaluable effective flux map xi -> mean of a(y, xi + grad eta_xi).

    ``solve`` returns the fluxes and the cell potentials eta_xi of a batch
    of loadings.  Linear laws shortcut to a constant matrix and a
    potential basis from the unit-loading cell solves, which share one
    factorization.  Everything else, a law that does not depend on y
    included (its cell solves meet the tolerance at eta = 0), runs
    batched cell solves on ``batch``, the one scalar cell solver of the
    law, which both modes have for the attached residuals.
    ``eval_batch`` computes fluxes only, so the linear mode builds no
    potentials there.  Nothing is stored between calls.
    """

    def __init__(self, spec, grid, tol=_fem.CELL_TOL):
        self.spec = spec
        self.grid = grid
        self.tol = tol
        self.batch = BatchScalarCellSolver(spec, grid, tol)
        if spec.is_linear:
            self.mode = "linear"
            sols = solve_scalar_cells(spec, np.eye(2), grid, tol)
            self._basis = np.stack([s.values for s in sols])
            self.matrix = _b_hom(spec, grid, sols)
        else:
            self.mode = "general"

    # -- evaluation --------------------------------------------------------

    def solve(self, loadings, warm=None):
        """Effective fluxes (K, 2) and zero-mean cell potentials (K, n^2).

        ``warm`` optionally provides initial cell iterates (K, n^2); only
        general laws run cell solves, so a linear law ignores it.  With
        ``warm`` None a general law's batch starts from eta = 0, and a
        large one solves by continuation from anchor rows
        (``BatchScalarCellSolver.solve``).
        """
        loadings = np.asarray(loadings, dtype=float)
        if self.mode == "linear":
            return (self._closed_form_flux(loadings),
                    loadings @ self._basis)
        return self._solve_loadings(loadings, warm=warm)

    def eval_batch(self, loadings):
        """Effective flux for loadings (K, 2)."""
        loadings = np.asarray(loadings, dtype=float)
        if self.mode == "general":
            return self._solve_loadings(loadings)[0]
        return self._closed_form_flux(loadings)

    def solutions_for(self, loadings, warm=None):
        """Zero-mean cell potentials per loading, (K, n^2).

        A general law runs the batch solve alone: no flux means.
        """
        if self.mode == "general":
            return self._batch_solve(np.asarray(loadings, dtype=float),
                                     warm).values
        return self.solve(loadings, warm=warm)[1]

    def _closed_form_flux(self, loadings):
        """Fluxes of a linear law, (K, 2)."""
        return loadings @ self.matrix.T

    def _batch_solve(self, loadings, warm=None):
        """The batch's converged result; NonConvergence if a row is not."""
        result = self.batch.solve(loadings, warm=warm)
        if not result.converged.all():
            worst = float(result.residuals.max())
            iterations = int(result.iterations.max())
            raise NonConvergence(
                f"batched cell solves: worst residual {worst:.3e} after "
                f"{iterations} iterations (grid n={self.grid.n})",
                residual=worst, iterations=iterations)
        return result

    def _solve_loadings(self, loadings, warm=None):
        result = self._batch_solve(loadings, warm)
        return self.batch.flux_means(result), result.values

    # -- derivatives -------------------------------------------------------

    def jacobian_batch(self, loadings, etas):
        """Consistent tangents d a_hom / d xi, (K, 2, 2), and W = d eta / d xi.

        d a_hom / d xi = ∫ A(y, p) (I + grad w) with p = xi + grad eta_xi,
        A = d a / d xi and w_j the linearized cell solution for the unit
        loading e_j.  ``etas`` are the cell solutions at the loadings, as
        ``solve`` returned them.  Each tangent costs two linear solves
        with the Newton matrix at the converged solution.  The zero-mean
        W = [w_1 w_2], (K, n^2, 2), predicts the cell solution at a
        nearby loading xi' as eta + W (xi' - xi).  A linear law runs no
        cell iterations, so its W is None.
        """
        loadings = np.asarray(loadings, dtype=float)
        if self.mode == "linear":
            return np.broadcast_to(self.matrix,
                                   (loadings.shape[0], 2, 2)).copy(), None
        return self.batch.tangents(loadings, etas)

    def provenance(self):
        return {
            "grid_n": self.grid.n,
            "cell_tol": self.tol,
            "jacobian": "consistent tangent",
            "mode": self.mode,
            "operator": self.spec.fingerprint(),
        }


def _b_hom(spec, grid, sols):
    """b_hom[j, k] = ∫ b (e_k + grad w_k) . (e_j + grad w_j), w = sols."""
    bmat = spec.local_coefficients(grid.qp_coords())["bmat"]
    # p[:, :, k] = e_k + grad w_k and its flux b p_k, (nel, 4, k, 2)
    p = np.stack([corrector_flux(e, s) for e, s in zip(np.eye(2), sols)],
                 axis=2)
    flux = spec.flux_local({"bmat": bmat[:, :, None]}, p)
    return _fem.integrate_qp(
        grid.h, (p[:, :, :, None] * flux[:, :, None]).sum(axis=-1))


# ---------------------------------------------------------------------------
# Effective elasticity and electrostriction
# ---------------------------------------------------------------------------

_SYM_PAIRS = ((0, 0), (1, 1), (0, 1))


@dataclass
class EffectiveElasticity:
    tensor: np.ndarray                       # (2,2,2,2)
    solutions: dict = field(repr=False)      # (i,j) -> ElasticCellSolution


@dataclass
class EffectiveElectrostriction:
    """Per-index-pair averaged electric stress response.

    ``pair_matrices[i, j]`` is the 2x2 matrix multiplying M[i, j] in the
    effective load; ``apply`` contracts against a matrix M.
    """

    pair_matrices: np.ndarray                # (2,2,2,2): [i,j] -> 2x2
    solutions: dict = field(repr=False)

    def apply(self, mat):
        mat = np.asarray(mat, dtype=float)
        return (mat.reshape(-1, 4) @ self.pair_matrices.reshape(4, 4)) \
            .reshape(mat.shape)


def assemble_elastic_tensors(tensor_b, tensor_c, unit_etas, grid):
    """Effective elasticity and electrostriction from one factorization of B.

    ``unit_etas[k]`` is the scalar cell solution at e_k on ``grid``, as
    ``EffectiveLaw.solutions_for(np.eye(2))`` returns them, so a_hom and
    C_hom share one solve of the unit loadings.  Six cell problems share
    one factorization of B's stiffness (``solve_elastic_cells``): the
    unit strains E^ij give U^ij, and the electrostriction sources give
    chi_ij, with zeta_ij the outer product of the corrector fluxes
    e_k + grad eta_k, k = i, j.  Then

        B_hom[i,j,m,n] = ∫ B S^ij : S^mn,  S^ij = E^ij - D(U^ij),
        C_hom[i,j] = ∫ (B D(chi_ij) + C zeta_ij) dy,

    over the three independent symmetric pairs, mirrored onto all sixteen
    entries.  This is the fine system's own cell problem, so it reproduces
    the fine-scale response for constant coefficients, and
    C_hom[i,j]_mn = ∫ C zeta_ij : S^mn.  zeta_10 is the transpose of
    zeta_01, with the same symmetric part, so pair (1, 0) takes (0, 1)'s
    displacement and value.  Returns (EffectiveElasticity,
    EffectiveElectrostriction).
    """
    points = grid.qp_coords()
    fluxes = [np.eye(2)[k] + _fem.qp_gradient(unit_etas[k], grid.conn, grid.h)
              for k in range(2)]
    electric = {(i, j): electric_stress(
        tensor_c, grid, fluxes[i][..., :, None] * fluxes[j][..., None, :])
        for (i, j) in _SYM_PAIRS}
    stresses = {("U", i, j): tensor_b.stress(points, unit_strain(i, j))
                for (i, j) in _SYM_PAIRS}
    stresses.update({("chi", i, j): -tau for (i, j), tau in electric.items()})
    sols = solve_elastic_cells(tensor_b, grid, stresses)

    def strain(kind, i, j):
        grad = _fem.qp_gradient(sols[(kind, i, j)].values, grid.conn, grid.h)
        return 0.5 * (grad + np.swapaxes(grad, -1, -2))

    strains = {(i, j): unit_strain(i, j) - strain("U", i, j)
               for (i, j) in _SYM_PAIRS}
    bhom = np.zeros((2, 2, 2, 2))
    pair = np.zeros((2, 2, 2, 2))
    for (i, j) in _SYM_PAIRS:
        stress = tensor_b.stress(points, strains[(i, j)])
        for (m, n) in _SYM_PAIRS:
            val = _fem.integrate_qp(
                grid.h, (stress * strains[(m, n)]).sum(axis=(-2, -1)))
            for (a, b) in {(i, j), (j, i)}:
                for (c, d) in {(m, n), (n, m)}:
                    bhom[a, b, c, d] = val
        chi_stress = tensor_b.stress(points, strain("chi", i, j))
        pair[i, j] = pair[j, i] = _fem.integrate_qp(
            grid.h, chi_stress + electric[(i, j)])

    def solutions(kind, pairs):
        return {(i, j): sols[(kind, min(i, j), max(i, j))] for (i, j) in pairs}

    all_pairs = [(i, j) for i in range(2) for j in range(2)]
    return (EffectiveElasticity(bhom, solutions("U", _SYM_PAIRS)),
            EffectiveElectrostriction(pair, solutions("chi", all_pairs)))


# ---------------------------------------------------------------------------
# Structural properties of the effective law
# ---------------------------------------------------------------------------

@dataclass
class AHomPropertyReport:
    pairs: int
    theta: float
    min_monotonicity: float
    max_continuity: float
    violation: bool


A_HOM_AUDIT_PAIRS = 100    # loading pairs of ``check_a_hom_properties``
A_HOM_AUDIT_RADIUS = 2.0


def structure_ratios(xi1, xi2, a1, a2, p, growth, holder):
    """Monotonicity and continuity ratios of fluxes a1, a2 at xi1, xi2, (m, 2).

    With w = 1 + |xi1|^2 + |xi2|^2 and d = |xi1 - xi2|, the monotonicity
    ratio is (a1 - a2).(xi1 - xi2) / (w^((p-2)/2) d^2) and the continuity
    ratio |a1 - a2| / (w^(growth/2) d^holder), over the pairs with
    d > 1e-12.  Returns the two ratio arrays.
    """
    diff = a1 - a2
    dxi = xi1 - xi2
    norm_dxi = np.linalg.norm(dxi, axis=-1)
    keep = norm_dxi > 1e-12
    weight = 1.0 + np.sum(xi1 * xi1, axis=-1) + np.sum(xi2 * xi2, axis=-1)
    mono = (np.sum(diff * dxi, axis=-1)[keep]
            / (weight[keep] ** (0.5 * (p - 2.0)) * norm_dxi[keep] ** 2))
    cont = (np.linalg.norm(diff, axis=-1)[keep]
            / (weight[keep] ** (0.5 * growth) * norm_dxi[keep] ** holder))
    return mono, cont


def check_a_hom_properties(law, seed=0):
    """Sampled monotonicity and continuity ratios of the effective law.

    ``A_HOM_AUDIT_PAIRS`` pairs of loadings are drawn uniformly from the
    disc of radius ``A_HOM_AUDIT_RADIUS``.  Monotonicity ratio:
    [a(x1)-a(x2)].(x1-x2) / ((1+|x1|^2+|x2|^2)^((p-2)/2) |x1-x2|^2);
    continuity ratio |a(x1)-a(x2)| / ((1+|x1|^2+|x2|^2)^((p-2-theta)/2)
    |x1-x2|^theta), with theta = alpha/(2-alpha) (``structure_ratios``).
    Report only; the violation flag trips when any monotonicity ratio is
    nonpositive.
    """
    m = A_HOM_AUDIT_PAIRS
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, 2.0 * np.pi, size=(2, m))
    r = A_HOM_AUDIT_RADIUS * np.sqrt(rng.uniform(0.0, 1.0, size=(2, m)))
    xi1 = np.stack([r[0] * np.cos(angle[0]), r[0] * np.sin(angle[0])], axis=-1)
    xi2 = np.stack([r[1] * np.cos(angle[1]), r[1] * np.sin(angle[1])], axis=-1)
    theta = law.spec.alpha / (2.0 - law.spec.alpha)
    p = law.spec.p
    mono, cont = structure_ratios(xi1, xi2, law.eval_batch(xi1),
                                  law.eval_batch(xi2), p, p - 2.0 - theta,
                                  theta)
    return AHomPropertyReport(
        pairs=mono.size, theta=float(theta),
        min_monotonicity=float(mono.min()),
        max_continuity=float(cont.max()),
        violation=bool(mono.min() <= 0.0))
