"""Fine-scale coupled solves on the unit square with oscillatory coefficients.

Coefficients at x are the unit-cell coefficients at y = {x/eps}_Y, read
with the geometry's indicator at ``_fem.cell_points``, a float wrap of
x/eps.  With the commensurate grids enforced here (domain resolution
N = n/eps) and the phase interfaces on the element pitch
(``check_resolved``), each quadrature point lies strictly inside one
phase, so the fine problems see the same phase data as the cell problems.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _fem
from .core_fields import ScalarField, VectorField
from .errors import NonConvergence


def elements_per_period(n, eps):
    """Elements per eps-period of a grid with n elements per unit length.

    n * eps as an int; ValueError unless it is one to within 1e-9, which
    the rounding of the product allows (196 * (1/49) is 3.9999999999999996).
    """
    m = n * eps
    if abs(m - round(m)) > 1e-9:
        raise ValueError(
            f"incommensurate fine grid: N={n}, eps={eps}; the domain grid "
            "must resolve each eps-period by an integer number of elements")
    return int(round(m))


def periods_per_side(domain, eps, geometry=None):
    """Fine elements per microstructure period, m = N * eps (integer).

    With ``geometry`` given, m must resolve it (``check_resolved``).
    """
    m = elements_per_period(domain.n, eps)
    if m < 2:
        raise ValueError(
            f"incommensurate fine grid: N={domain.n}, eps={eps} gives {m} "
            "elements per period, fewer than 2")
    if geometry is not None:
        check_resolved(geometry, m)
    return m


def check_resolved(geometry, m):
    """Raise ValueError unless m elements per period resolve ``geometry``.

    Its phase interfaces must lie on the element pitch 1/m of the period
    (a disc is exempt): each quadrature point then lies strictly inside
    one phase, so coefficients read at its cell point
    (``_fem.cell_points``) are exact.
    """
    if not geometry.aligned_with(1.0 / m) and geometry.kind != "disc":
        raise ValueError(
            f"geometry interfaces are not resolved by {m} elements "
            f"per period (aliasing)")


@dataclass
class FineSolution:
    """Solution bundle for one microstructure size."""

    potential: ScalarField
    residuals: dict = field(default_factory=dict)
    iterations: dict = field(default_factory=dict)
    energy: dict = field(default_factory=dict)


def _source_at_qp(f, domain):
    """A source at ``domain``'s quadrature points, (nel, 4) or (nel, 4, 2).

    ``f`` is a callable of the coordinates (x, y), a scalar or a 2-vector.
    """
    if callable(f):
        # not the grid's cached table: a fine grid keeps no coordinates
        pts = _fem.qp_coords(domain.n, domain.h, domain.origin)
        return np.asarray(f(pts[..., 0], pts[..., 1]), dtype=float)
    arr = np.asarray(f, dtype=float)
    if arr.ndim == 0:
        return np.full((domain.n_elems, 4), float(arr))
    if arr.shape == (2,):
        return np.broadcast_to(arr, (domain.n_elems, 4, 2)).copy()
    raise ValueError("unsupported source specification")


def _scalar_fine_residual(spec, loc, domain, phi, rhs):
    grad = _fem.qp_gradient(phi, domain.conn, domain.h)
    flux = spec.flux_local(loc, grad)
    return _fem.divergence_residual(domain, flux) - rhs


def solve_fine_electrostatic(spec, eps, f, domain, tol=_fem.CELL_TOL):
    """Solve ∫ a(x/eps, grad phi) . grad v = ∫ f v, phi = 0 on the boundary.

    Linear families reduce to one sparse solve; otherwise
    ``_fem.damped_newton`` with ``_fem.solve_dirichlet`` inner solves
    (direct or multigrid-preconditioned CG by size, the CG solves sharing
    one set of V-cycle transfers for the call), started from
    the frozen-coefficient surrogate with coefficient sigma, stopped at
    the residual norm ``tol``, and relaxed frozen-coefficient steps
    (``OperatorSpec.frozen_relaxation``) after ``_fem.MAX_NEWTON``.
    Returns a FineSolution with potential, residual and energy
    bookkeeping; the Maxwell stress is formed from the potential where it
    is needed (``maxwell_stress``).
    """
    periods_per_side(domain, eps, spec.geometry)
    loc = spec.local_coefficients(_fem.cell_points(domain, eps))
    f_qp = _source_at_qp(f, domain)
    rhs = _fem.load_vector(domain, f_qp)
    free = _fem.free_dofs(domain)
    # the V-cycle transfers of this call's solves, dropped when it returns
    transfers = {}

    def residual(rows, phis):
        res = _scalar_fine_residual(spec, loc, domain, phis[0], rhs)
        return res[None], np.array([_fem.vector_norm(res[free])])

    def solve_with(coef, load=rhs):
        return _fem.solve_dirichlet(_fem.assemble_diffusion(domain, coef),
                                    load, domain, transfers=transfers)

    if spec.is_linear:
        phi = solve_with(loc["bmat"])
        res = _scalar_fine_residual(spec, loc, domain, phi, rhs)
        rnorm, iterations = _fem.vector_norm(res[free]), 1
    else:
        def newton_step(rows, phis, res):
            grad = _fem.qp_gradient(phis[0], domain.conn, domain.h)
            jac = spec.jacobian_local(loc, grad, delta_floor=_fem.DELTA_JAC)
            return solve_with(jac, -res[0])[None]

        def picard_step(rows, phis):
            grad = _fem.qp_gradient(phis[0], domain.conn, domain.h)
            coef = spec.frozen_coefficient(loc, grad, _fem.DELTA_JAC)
            return phis + spec.frozen_relaxation * (solve_with(coef) - phis)

        # initial iterate from the frozen-coefficient (quadratic) surrogate
        out = _fem.damped_newton(
            solve_with(loc["sigma"])[None], residual, newton_step, tol,
            _fem.MAX_NEWTON, _fem.MAX_LINESEARCH, picard_step,
            _fem.MAX_PICARD)
        phi, res = out.x[0], out.res[0]
        rnorm, iterations = float(out.norm[0]), int(out.iterations[0])
        if not out.converged[0]:
            raise NonConvergence(
                f"fine electrostatic solve: residual {rnorm:.3e} after "
                f"{iterations} iterations (N={domain.n}, eps={eps})",
                residual=rnorm, iterations=iterations)

    potential = ScalarField(domain, phi)
    p = spec.p
    p_conj = p / (p - 1.0)
    grad = _fem.qp_gradient(phi, domain.conn, domain.h)
    energy = {
        "grad_phi_Lp^p": _fem.lp_norm_qp(domain.h, grad, p) ** p,
        "f_Lq^q": _fem.lp_norm_qp(domain.h, f_qp, p_conj) ** p_conj,
    }
    energy["ratio"] = energy["grad_phi_Lp^p"] / max(energy["f_Lq^q"], 1e-300)
    return FineSolution(
        potential=potential,
        residuals={"electrostatic": float(rnorm),
                   "electrostatic_max_nodal": float(np.abs(res[free]).max())},
        iterations={"electrostatic": iterations},
        energy=energy)


def maxwell_stress(phi, rows=slice(None)):
    """Rank-one electric stress grad(phi) (x) grad(phi) at quadrature points.

    Over the whole grid (nel, 4, 2, 2), or over element rows ``rows``.
    """
    grid = phi.grid
    grad = _fem.qp_gradient(phi.values, _fem.rows_of(grid.conn, grid.n, rows),
                            grid.h)
    return grad[..., :, None] * grad[..., None, :]


def _electric_load(tensor_c, eps, potential):
    """Nodal ∫ C(x/eps) Sigma : D(v), (n_nodes, 2), built row block by block.

    Sigma is the potential's Maxwell stress, which is symmetric exactly
    (each entry is one product), formed per block of element rows within
    ``_fem.WORK_BUDGET_BYTES`` and never for the whole grid.  The sums are
    bitwise those of ``_fem.divergence_residual`` on the whole stress.
    """
    domain = potential.grid
    load = np.zeros((domain.n_nodes, 2))
    for rows in _fem.row_blocks(domain.n):
        stress = tensor_c.stress(_fem.cell_points(domain, eps, rows),
                                 maxwell_stress(potential, rows))
        _fem.scatter_rows(load, domain, rows,
                          _fem.element_map(_fem.DIV_OP, stress, 2) * domain.h)
    return load


def solve_fine_elasticity(tensor_b, tensor_c, eps, g, potential, domain):
    """Solve ∫ B(x/eps) D(u) : D(v) = ∫ g.v - ∫ C(x/eps) Sigma : D(v).

    Sigma is the Maxwell stress of the electric ``potential``, a field on
    ``domain``; the electric load is summed over blocks of element rows
    (``_electric_load``).  One ``_fem.solve_dirichlet`` call: a
    factorization on small grids, multigrid-preconditioned CG on large
    ones (the fine elastic systems are the largest in the pipeline).
    While it runs, only the block, the right-hand side and the solver's
    own arrays are alive.  Returns the displacement and the residual norm
    over the free dofs.
    """
    if potential.grid != domain:
        raise ValueError("potential lives on a different grid")
    periods_per_side(domain, eps, tensor_b.geometry)
    rhs = _fem.load_vector(domain, _source_at_qp(g, domain))
    rhs = (rhs - _electric_load(tensor_c, eps, potential)).ravel()
    block = _fem.assemble_elasticity(
        domain, *tensor_b.lame_at(_fem.cell_points(domain, eps)))
    u = _fem.solve_dirichlet(block, rhs, domain, dofs_per_node=2)
    free = _fem.free_dofs(domain, 2)
    rnorm = _fem.vector_norm(block @ u[free] - rhs[free])
    return VectorField(domain, u.reshape(-1, 2)), rnorm
