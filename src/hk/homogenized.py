"""Effective-system solves and first-order corrector reconstruction.

The macroscopic electrostatic problem is solved by Newton iteration on
the effective flux law with its consistent tangent, refreshed at every
iteration, to a tolerance the caller passes as a float (default
``MACRO_TOL``) within the module's constant caps.  Every residual
evaluation asks the law for effective fluxes at all quadrature points,
which for general laws means one cell solve per quadrature-point
loading.  The cell solutions travel with the
iterate that produced them, and so do their derivatives W = d eta / d xi,
which the tangent solve yields.  Every warm cell solve starts from the
law's ``cell_predictor`` on those rows, the ``start`` the batch calls
chunk by chunk: the line-search trials from the stepped-from iterate's,
the corrector reconstruction from the final iterate's.  A homogeneous
law interpolates all of the rows on the unit circle of loading
directions (``CirclePredictor``, cubic Hermite in the angle, rescaled by
|xi'|).  Any other law takes the first-order
predictor eta + W (xi' - xi) of one row: the same quadrature point's for
a trial, the nearest quadrature point's for the reconstruction.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _fem
from .cell_problems import cell_predictor
from .core_fields import CellGrid, DomainGrid, ScalarField, VectorField
from .errors import NonConvergence
from .fine_scale import _source_at_qp


# The macro Newton's default tolerance and its caps (Newton steps, Armijo
# trials per step), read at call time.
MACRO_TOL = 1e-9
MACRO_MAX_ITER = 60
MACRO_MAX_LINESEARCH = 20


@dataclass
class HomogenizedSolution:
    potential: ScalarField
    residual: float
    iterations: int
    residual_history: list = field(default_factory=list)
    # cell solutions at the final iterate, (4 nel, n^2); None for a
    # linear law
    cell_potentials: np.ndarray = None


def _grad_flat(phi, domain):
    return _fem.qp_gradient(phi, domain.conn, domain.h).reshape(-1, 2)


def solve_homogenized_electrostatic(law, f, domain, tol=MACRO_TOL):
    """Solve ∫ a_hom(grad phi) . grad v = ∫ f v on the unit square.

    Linear laws reduce to a single sparse solve with the constant
    effective matrix.  Otherwise: ``_fem.damped_newton`` on the
    consistent tangent of the law (monotonicity makes the Newton
    direction a descent direction for the residual), with no
    frozen-coefficient fallback, until the residual norm is at most
    ``tol``; a solve still above it after ``MACRO_MAX_ITER`` steps raises
    NonConvergence.  Every cell loading is solved once: each residual
    keeps the cell solutions of the iterate it evaluated, the tangent is
    taken at those solutions, and each line-search trial phi + t d
    starts its cell solves from the law's ``cell_predictor`` on the rows
    (xi(phi), eta, W), with W = d eta / d xi from the same tangent solve:
    the circle interpolant of all rows for a homogeneous law, else
    eta + W (xi(phi + t d) - xi(phi)) of the point's own row: the
    ``start`` that the law's batch calls chunk by chunk.
    """
    f_qp = _source_at_qp(f, domain)
    rhs = _fem.load_vector(domain, f_qp)
    free = _fem.free_dofs(domain)
    nel = domain.n_elems

    start = None    # the cell starts of the next residual evaluation
    etas = None     # cell solutions of the iterate last evaluated
    history = []    # residual norm before each Newton step, then the last

    def flux_residual(flux):
        res = _fem.divergence_residual(domain, flux.reshape(nel, 4, 2)) - rhs
        return res[None], np.array([_fem.vector_norm(res[free])])

    def residual(rows, phis):
        nonlocal etas
        flux, etas = law.solve(_grad_flat(phis[0], domain), start)
        return flux_residual(flux)

    def newton_step(rows, phis, res):
        # with one row, damped_newton always evaluates the iterate it steps
        # from last (the start, or the line-search trial it accepted), so
        # ``etas`` are the cell solutions at phis[0]; the last predictor
        # goes before the tangent solve makes the next one's W
        nonlocal start
        start = None
        history.append(_fem.vector_norm(res[0, free]))
        grads = _grad_flat(phis[0], domain)
        jac, w = law.jacobian_batch(grads, etas)
        start = cell_predictor(law.spec)(grads, etas, w)
        block = _fem.assemble_diffusion(domain, jac.reshape(nel, 4, 2, 2))
        return _fem.solve_dirichlet(block, -res[0], domain)[None]

    if law.mode == "linear":
        coef = np.broadcast_to(law.matrix, (nel, 4, 2, 2))
        phi = _fem.solve_dirichlet(_fem.assemble_diffusion(domain, coef),
                                   rhs, domain)
        flux = law.eval_batch(_grad_flat(phi, domain))
        rnorm = float(flux_residual(flux)[1][0])
        return HomogenizedSolution(ScalarField(domain, phi), rnorm, 1, [rnorm])

    # initial iterate: identity-coefficient surrogate, rescaled to match
    # the flux magnitude when the law is homogeneous (a(s xi) = s^g a(xi))
    eye = np.broadcast_to(np.eye(2), (nel, 4, 2, 2))
    phi = _fem.solve_dirichlet(_fem.assemble_diffusion(domain, eye), rhs,
                               domain)
    gamma = law.spec.homogeneity_degree
    if gamma is not None and gamma != 1.0:
        flux0, etas0 = law.solve(_grad_flat(phi, domain))
        rflux = _fem.divergence_residual(domain, flux0.reshape(nel, 4, 2))
        num = _fem.vector_dot(rflux[free], rhs[free])
        den = _fem.vector_dot(rflux[free], rflux[free])
        if num > 0.0 and den > 0.0:
            scale = (num / den) ** (1.0 / gamma)
            phi = phi * scale
            # eta(s xi) = s eta(xi) for a homogeneous law: an exact start
            def start(xi, rows):
                return scale * etas0[rows]

    out = _fem.damped_newton(phi[None], residual, newton_step, tol,
                             MACRO_MAX_ITER, MACRO_MAX_LINESEARCH)
    phi = out.x[0]
    rnorm = float(out.norm[0])
    iterations = int(out.iterations[0])
    history.append(rnorm)
    if not out.converged[0]:
        raise NonConvergence(
            f"homogenized electrostatic solve: residual {rnorm:.3e} after "
            f"{iterations} iterations", residual=rnorm, iterations=iterations)
    return HomogenizedSolution(ScalarField(domain, phi), rnorm, iterations,
                               history, etas)


# ---------------------------------------------------------------------------
# Corrector reconstruction
# ---------------------------------------------------------------------------

@dataclass
class CorrectorData:
    """Cell corrector solutions attached to macroscopic quadrature points.

    ``loadings[k]`` is the macroscopic gradient at sample quadrature
    point k; ``potentials[k]`` the zero-mean periodic cell potential
    solved at exactly that loading (no merging of nearby loadings).  The
    corrector gradient at (x, y) is read off by Q1 differentiation of the
    potential attached to the sample point of x.
    """

    sample_grid: DomainGrid
    cell_grid: CellGrid
    loadings: np.ndarray        # (K, 2), K = 4 * sample_grid.n_elems
    potentials: np.ndarray      # (K, n_cell_nodes)
    cell_residuals: np.ndarray  # (K,)
    identity_residuals: np.ndarray  # (K,)


def macroscopic_gradient_field(phi0):
    """Nodal-averaged (recovered) gradient of the effective potential.

    Second-order accurate at interior nodes; used by the sweep studies so
    the corrector error floor is not dominated by the raw Q1 gradient
    error of the effective solve, and by ``hk homogenized`` and the
    studies alike for the elastic load.
    """
    grid = phi0.grid
    return VectorField(grid, _fem.recovered_gradient(grid, phi0.values))


def _gradient_at(phi0, gradient_field, pts):
    """The macroscopic gradient at points (..., 2), (..., 2).

    ``gradient_field``'s values where given, else phi0's Q1 gradient, at
    the points located on the grid it reads (the field's, else phi0's).
    """
    g = (phi0 if gradient_field is None else gradient_field).grid
    pts = np.asarray(pts, dtype=float)
    elem, local = _fem.locate_points(pts.reshape(-1, 2), g.n, g.h, g.origin)
    if gradient_field is None:
        grads = _fem.gradient_at_local(
            _fem.element_values(phi0.values, g.conn, elem), local, g.h)
    else:
        grads = _fem.value_at_local(
            _fem.element_values(gradient_field.values, g.conn, elem), local)
    return grads.reshape(pts.shape)


def reconstruct_phi1(law, phi0, sample_grid, gradient_field, cell_potentials):
    """Per-quadrature-point corrector gradients from attached cell solves.

    The corrector gradient at (x, y) is p(y, grad phi0(x)) - grad phi0(x);
    here the macroscopic gradient ``gradient_field`` (the recovered
    gradient of phi0) is sampled at the quadrature points of
    ``sample_grid`` and one cell solve on ``law.grid`` is attached to
    each.  Means over the unit cell vanish because the attached
    potentials are periodic.  ``cell_potentials`` are the cell solutions
    at the quadrature points of phi0's grid, as the macro solve returns
    them, or None (a linear law has none).  When given, each such point
    is a row (xi0, eta, W) of the law's ``cell_predictor``, the batch's
    chunk-by-chunk ``start``: xi0 is phi0's Q1 gradient there, and one
    tangent solve per point gives W = d eta / d xi.  A homogeneous law
    starts every sample loading from the circle interpolant of all rows;
    any other law from eta + W (xi - xi0) of the nearest point, which on
    a sample grid refining phi0's leaves no point unread.
    """
    pts = sample_grid.qp_coords().reshape(-1, 2)
    loadings = _gradient_at(phi0, gradient_field, pts)
    start = None
    if cell_potentials is not None:
        xi0 = _grad_flat(phi0.values, phi0.grid)
        predict = cell_predictor(law.spec)(
            xi0, cell_potentials, law.jacobian_batch(xi0, cell_potentials)[1])
        near = _nearest_qp(phi0.grid, pts)

        def start(xi, rows):
            return predict(xi, near[rows])
    potentials = law.solutions_for(loadings, start)
    return CorrectorData(sample_grid, law.grid, loadings, potentials,
                         *law.batch.attached_residuals(loadings, potentials))


def _nearest_qp(grid, pts):
    """Flat index (4 * element + qp) of the quadrature point nearest each point."""
    return _nearest_qp_located(
        *_fem.locate_points(pts, grid.n, grid.h, grid.origin), grid.n)


def _nearest_qp_located(elem, local, n_cells, ratio=1):
    """``_nearest_qp`` on the grid that refines an n-cell grid ``ratio`` times.

    ``elem`` and ``local`` locate the points on the n-cell grid
    (``_fem.locate_points``): a point's half-element along each axis of
    the refined grid is 2 ratio local, clipped to the element as
    ``locate_points`` clips and truncated, so no point is located a
    second time.  The quadrant is the upper one where local >= 1/2 on the
    refined grid.
    """
    half = np.clip(2 * ratio * local, 0, 2 * ratio - 1).astype(np.intp)
    sub, upper = half >> 1, half & 1
    iy, ix = np.divmod(elem, n_cells)
    refined = (iy * ratio + sub[:, 1]) * (n_cells * ratio) \
        + ix * ratio + sub[:, 0]
    return 4 * refined + 2 * upper[:, 1] + upper[:, 0]


# ---------------------------------------------------------------------------
# Homogenized elasticity
# ---------------------------------------------------------------------------

def solve_homogenized_elasticity(b_eff, c_eff, g, phi0, domain,
                                 gradient_field=None):
    """Solve ∫ B_hom D(u) : D(v) = ∫ g.v - ∫ C_hom(grad phi0 (x) grad phi0) : D(v).

    Constant-coefficient Dirichlet solve (``_fem.solve_dirichlet``); the
    electric load contracts the effective electrostriction pair matrices
    against the rank-one macroscopic Maxwell stress at each quadrature
    point.  Its gradient is ``gradient_field``'s where given (``hk
    homogenized`` and a study pass the recovered one), else phi0's Q1
    gradient.
    """
    g_qp = _source_at_qp(g, domain)
    rhs = _fem.load_vector(domain, g_qp)
    grads = _gradient_at(phi0, gradient_field, domain.qp_coords())
    stress = c_eff.apply(grads[..., :, None] * grads[..., None, :])
    rhs = rhs - _fem.divergence_residual(domain, stress)
    block = _fem.assemble_elasticity_constant(domain, b_eff.tensor)
    rhs = rhs.ravel()
    u = _fem.solve_dirichlet(block, rhs, domain, dofs_per_node=2)
    free = _fem.free_dofs(domain, 2)
    return (VectorField(domain, u.reshape(-1, 2)),
            _fem.vector_norm(block @ u[free] - rhs[free]))

