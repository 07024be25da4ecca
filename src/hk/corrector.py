"""Coarse-scale averaging, two-scale pairings, and corrector studies.

The microstructure cells are the eps-dilates of the unit cell centered
on the lattice eps*Z^2, so their boundaries sit at eps*(i +- 1/2); cells
straddling the domain boundary form the boundary layer and are treated
specially (zero loading / zero averages, as the averaging operators
require).  All error norms are L^p quadrature sums over the full domain;
interior-only variants are reported as diagnostics to expose the
boundary-layer contribution.  A study's settings are its grids and its
two tolerances, the cell and fine solves' and the effective solve's;
it always reads the recovered macroscopic gradient.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _fem
from .core_fields import CellGrid, DomainGrid, ScalarField, sample_oscillatory
from .effective import EffectiveLaw, assemble_elastic_tensors
from .fine_scale import (maxwell_stress, solve_fine_electrostatic,
                         solve_fine_elasticity)
from .homogenized import (MACRO_TOL, _nearest_qp_located,
                          macroscopic_gradient_field, reconstruct_phi1,
                          solve_homogenized_elasticity,
                          solve_homogenized_electrostatic)


# ---------------------------------------------------------------------------
# The eps-cell partition (offset lattice)
# ---------------------------------------------------------------------------

class EpsPartition:
    """Cells eps*([-1/2,1/2]^2 + i) intersected with the unit square.

    Axis index c = floor(x/eps + 1/2) in 0..1/eps; indices 0 and 1/eps
    are boundary-layer cells (half outside the domain).
    """

    def __init__(self, eps):
        inv = 1.0 / eps
        if abs(inv - round(inv)) > 1e-12:
            raise ValueError(f"1/eps must be an integer, got eps={eps}")
        self.eps = float(eps)
        self.per_axis = int(round(inv)) + 1
        self.n_cells = self.per_axis ** 2
        axis = np.arange(self.per_axis)
        axis_interior = (axis >= 1) & (axis <= self.per_axis - 2)
        interior = axis_interior[:, None] & axis_interior[None, :]
        self.interior = interior.ravel()  # id = cy * per_axis + cx

    def cell_of(self, points):
        """Flat cell ids for points in the closed unit square."""
        pts = np.asarray(points, dtype=float)
        cx = np.clip(np.floor(pts[..., 0] / self.eps + 0.5).astype(int),
                     0, self.per_axis - 1)
        cy = np.clip(np.floor(pts[..., 1] / self.eps + 0.5).astype(int),
                     0, self.per_axis - 1)
        return cy * self.per_axis + cx


@dataclass
class CellwiseConstant:
    """A field constant on each eps-cell (the range of the cell averager)."""

    partition: EpsPartition
    values: np.ndarray          # (n_cells, ...) per flat cell id


def coarse_average_M(data, domain, eps, zero_boundary=True):
    """Average quadrature data over each eps-cell; boundary-layer cells carry 0.

    ``data`` is a quadrature table (nel, 4, ...) on ``domain``, such as
    a table of the corrector reconstruction with one row per sample
    point.  Averages use the quadrature measure of the part of each cell
    inside the domain; boundary-layer cells keep theirs when not
    ``zero_boundary``.  Returns the averages as a CellwiseConstant.
    """
    part = EpsPartition(eps)
    # the one-hot matrix with each point's quadrature weight in place of
    # its 1 (its entries are grouped by cell, so the weights go through
    # its column indices): it sums the products w * v in the order the
    # plain one adds them, with no weighted copy of the data
    cells = _fem.scatter_matrix(part.cell_of(domain.qp_coords()),
                                part.n_cells)
    cells.data = np.tile(domain.weights, domain.n_elems)[cells.indices]
    comp_shape = data.shape[2:]
    sums = _fem.scatter(cells, data)
    meas = _fem.scatter(cells, np.ones(cells.shape[1]))
    safe = np.where(meas > 0.0, meas, 1.0)
    means = sums / safe[(...,) + (None,) * len(comp_shape)]
    if zero_boundary:
        means[~part.interior] = 0.0
    return CellwiseConstant(part, means)


# ---------------------------------------------------------------------------
# Corrector error norms
# ---------------------------------------------------------------------------

def _fine_qp_setup(phi_eps, grad_field, corr, eps, rows):
    """Fine quadrature-point data of element rows ``rows`` for the errors.

    Flat over the rows' quadrature points, in element order: the points,
    grad phi_eps, the macroscopic gradient ``grad_field`` read there, the
    sample quadrature point whose element quadrant holds each point, and
    y = {x/eps}_Y.  Without ``grad_field`` (the Dal Maso error reads
    neither) the macroscopic gradient and the sample points are None.
    The points are located once, on the grid of ``grad_field``, and the
    sample grid, which refines it (``check_study_grids``), takes its
    quadrants from that location.  As with ``_fem.qp_coords``, the arrays of
    consecutive row blocks concatenate to the whole grid's.
    """
    domain = phi_eps.grid
    pts = _fem.qp_coords(domain.n, domain.h, domain.origin,
                         rows).reshape(-1, 2)
    grad_eps = _fem.qp_gradient(
        phi_eps.values, _fem.rows_of(domain.conn, domain.n, rows),
        domain.h).reshape(-1, 2)
    grad0 = sample_idx = None
    if grad_field is not None:
        g = grad_field.grid
        elem, local = _fem.locate_points(pts, g.n, g.h, g.origin)
        grad0 = _fem.value_at_local(
            _fem.element_values(grad_field.values, g.conn, elem), local)
        sample_idx = _nearest_qp_located(elem, local, g.n,
                                         corr.sample_grid.n // g.n)
    y = _fem.cell_points(domain, eps, rows).reshape(-1, 2)
    return pts, grad_eps, grad0, sample_idx, y


def _table_grad_at(tables, row_idx, cell_grid, elem, local):
    """Gradient of table rows (Q1 fields on the unit cell) at cell points.

    The points are given located on ``cell_grid`` (``_fem.locate_points``),
    so several tables read at the same points locate them once.
    """
    return _fem.gradient_at_local(
        _fem.element_values(tables, cell_grid.conn, elem, row_idx), local,
        cell_grid.h)


def _lp_roots(domain, per_qp, p):
    """L^p norms from ``_fem.row_sums`` of p-th powers, one per last entry.

    Each column is integrated on its own: ``integrate_qp`` on the stacked
    sums is not bitwise the integral of each column.
    """
    return [float(_fem.integrate_qp(domain.h, per_qp[..., k]) ** (1.0 / p))
            for k in range(per_qp.shape[-1])]


def corrector_error_explicit(phi_eps, grad_field, corr, eps, p):
    """Explicit and averaged corrector errors plus the no-corrector error.

    E_exp = || grad phi_eps - grad phi0 - grad_y phi1(x, x/eps) ||_Lp with
    grad phi0 read from ``grad_field`` (the recovered macroscopic
    gradient) and the corrector from the cell solution attached to the
    sample point of x; E_avg first averages the corrector over each
    eps-cell in the macroscopic variable; E_nocorr drops the corrector
    entirely.
    Interior-only variants (over cells fully inside the domain) expose
    the boundary-layer contribution.  The eps-cell averages are built
    once; the fine grid is walked in blocks of element rows within
    ``_fem.WORK_BUDGET_BYTES``, summing p-th powers in element order, and
    the roots are taken at the end.
    """
    domain = phi_eps.grid
    sample, cell_grid = corr.sample_grid, corr.cell_grid
    avg = coarse_average_M(corr.potentials.reshape(sample.n_elems, 4, -1),
                           sample, eps, zero_boundary=False)
    part = avg.partition

    def powers(rows):
        pts, grad_eps, grad0, sample_idx, y = _fine_qp_setup(
            phi_eps, grad_field, corr, eps, rows)
        located = _fem.locate_points(y, cell_grid.n, cell_grid.h,
                                     cell_grid.origin)
        cell_ids = part.cell_of(pts)
        # 0/1 per point: zeroing a difference drops it from the integral
        interior = part.interior[cell_ids].astype(float)[:, None]
        diff_no = grad_eps - grad0
        diff_exp = diff_no - _table_grad_at(corr.potentials, sample_idx,
                                            cell_grid, *located)
        diff_avg = diff_no - _table_grad_at(avg.values, cell_ids, cell_grid,
                                            *located)
        return np.stack([_fem.qp_power(diff.reshape(-1, 4, 2), p)
                         for diff in (diff_exp, diff_avg, diff_no,
                                      diff_exp * interior,
                                      diff_avg * interior)], axis=-1)

    names = ("E_exp", "E_avg", "E_nocorr", "E_exp_interior",
             "E_avg_interior")
    return dict(zip(names, _lp_roots(domain, _fem.row_sums(domain.n, powers),
                                     p)))


def corrector_error_dalmaso(phi_eps, law, corr, eps, p):
    """Cell-averaged-loading corrector error.

    The macroscopic gradient is averaged over each eps-cell (zero on
    boundary-layer cells), one cell solve is attached per cell at the
    averaged loading, and the flux map loading + grad_y eta replaces the
    fine gradient.  Loading averages are quadrature-exact when the cells
    align with the sample grid's elements.  The cell solves run once; the
    norm is summed over blocks of element rows, as in
    ``corrector_error_explicit``.
    """
    domain = phi_eps.grid
    sample, cell_grid = corr.sample_grid, corr.cell_grid
    avg = coarse_average_M(corr.loadings.reshape(sample.n_elems, 4, 2),
                           sample, eps)
    solutions = law.solutions_for(avg.values)

    def powers(rows):
        pts, grad_eps, _, _, y = _fine_qp_setup(phi_eps, None, corr, eps, rows)
        cell_ids = avg.partition.cell_of(pts)
        flux_map = avg.values[cell_ids] + _table_grad_at(
            solutions, cell_ids, cell_grid,
            *_fem.locate_points(y, cell_grid.n, cell_grid.h,
                                cell_grid.origin))
        return _fem.qp_power((grad_eps - flux_map).reshape(-1, 4, 2),
                             p)[..., None]

    return _lp_roots(domain, _fem.row_sums(domain.n, powers), p)[0]


# ---------------------------------------------------------------------------
# Two-scale pairings
# ---------------------------------------------------------------------------

def _oscillating_weights(domain, rows, eps, psi_x, psi_y):
    """psi_x(x) psi_y(x/eps) at the quadrature points of element rows."""
    pts = _fem.qp_coords(domain.n, domain.h, domain.origin, rows)
    y = _fem.cell_points(domain, eps, rows)
    return psi_x(pts[..., 0], pts[..., 1]) * psi_y(y[..., 0], y[..., 1])


def two_scale_pairing(v, psi_x, psi_y, eps):
    """∫ v(x) psi_x(x) psi_y(x/eps) dx by fine-grid quadrature.

    ``v`` is a field; the test factors are smooth closed-form callables
    of (x1, x2) and (y1, y2).  The integral is summed over blocks of
    element rows (``_fem.row_sums``).
    """
    domain = v.grid

    def integrand(rows):
        values = _fem.qp_values(v.values,
                                _fem.rows_of(domain.conn, domain.n, rows))
        return values * _oscillating_weights(domain, rows, eps, psi_x, psi_y)

    return float(_fem.integrate_qp(domain.h,
                                   _fem.row_sums(domain.n, integrand)))


# elements per side of the x-factor quadrature of ``pairing_limit``
_LIMIT_N = 256


def pairing_limit(g_field, psi_x, psi_y):
    """(1/|Y|) ∫∫ g(y) psi_x(x) psi_y(y) dy dx for a separable limit.

    The x-factor integral uses an independent high-resolution quadrature
    on the unit square (``_LIMIT_N`` elements per side), summed over
    blocks of element rows (``_fem.row_sums``).  The y-factor integrates
    the interpolated unit-cell field against the closed-form test factor.
    """
    h = 1.0 / _LIMIT_N

    def integrand(rows):
        pts = _fem.qp_coords(_LIMIT_N, h, DomainGrid.origin, rows)
        return psi_x(pts[..., 0], pts[..., 1])

    int_x = _fem.integrate_qp(h, _fem.row_sums(_LIMIT_N, integrand))
    cg = g_field.grid
    ypts = cg.qp_coords()
    gy = g_field.at_quadrature() * psi_y(ypts[..., 0], ypts[..., 1])
    return float(int_x * _fem.integrate_qp(cg.h, gy))


def two_scale_stress_pairing(corr, psi_x, psi_y):
    """Pairing of the reconstructed two-scale electric stress, (2, 2).

    ∫∫ (grad phi0 + grad_y phi1)(x, y) tensored with itself, against
    psi_x(x) psi_y(y), with the corrector attached at sample quadrature
    points.  It does not depend on eps, so a study computes it once.
    With p = xi + grad eta for a row's loading xi and potential eta, the
    cell integral of psi_y p_a p_b is the quadratic form
    eta . Q_ab eta + xi_a g_b . eta + xi_b g_a . eta + xi_a xi_b s, with
    Q_ab = sum_y w psi_y d_a N d_b N (``_fem.gradient_form``, 9-point),
    g_a = sum_y w psi_y d_a N and s = sum_y w psi_y: the table is read at
    its nodes, and no row's gradient field is built.  Chunks of sample
    rows (``_fem.blocks``) add the forms weighted by psi_x, in numpy sums.
    """
    sample = corr.sample_grid
    spts = sample.qp_coords().reshape(-1, 2)
    fx = psi_x(spts[:, 0], spts[:, 1]) \
        * np.tile(sample.weights, sample.n_elems)
    cg = corr.cell_grid
    ypts = cg.qp_coords()
    fy = psi_y(ypts[..., 0], ypts[..., 1]) * cg.weights
    gradient = _fem.gradient_matrix(cg)
    pairs = ((0, 0), (1, 1), (0, 1))
    forms = [_fem.gradient_form(gradient, fy[..., None, None]
                                * np.outer(np.eye(2)[a], np.eye(2)[b]))[0]
             for a, b in pairs]
    g = _fem.gradient_form(gradient, fy[..., None, None] * np.eye(2))[1]
    s = fy.sum()
    out = np.zeros((2, 2))
    # per sample row and cell node: the transposed potential, a form's
    # image and their product
    for sl in _fem.blocks(spts.shape[0], 24 * cg.n_nodes):
        rows = np.ascontiguousarray(corr.potentials[sl].T)
        xi, weights = corr.loadings[sl], fx[sl]
        linear = [(rows * g[:, a, None]).sum(axis=0) for a in range(2)]
        for (a, b), form in zip(pairs, forms):
            quad = (rows * (form @ rows)).sum(axis=0)
            quad += xi[:, a] * linear[b] + xi[:, b] * linear[a] \
                + xi[:, a] * xi[:, b] * s
            out[a, b] += (weights * quad).sum()
    out[1, 0] = out[0, 1]
    return out


def maxwell_two_scale_check(phi_eps, eps, two_scale, psi_x, psi_y):
    """Entrywise two-scale pairing gap for the electric stress.

    Compares ∫ Sigma_eps psi_x(x) psi_y(x/eps) dx, Sigma_eps the Maxwell
    stress of the fine potential ``phi_eps``, against ``two_scale``, the
    pairing of the reconstructed two-scale stress with the same test
    factors (``two_scale_stress_pairing``).  The stress is formed per
    block of element rows (``maxwell_stress``), never for the whole grid.
    Returns the max absolute entry of the difference.
    """
    domain = phi_eps.grid

    def integrand(rows):
        weights = _oscillating_weights(domain, rows, eps, psi_x, psi_y)
        return weights[..., None, None] * maxwell_stress(phi_eps, rows)

    lhs = _fem.integrate_qp(domain.h, _fem.row_sums(domain.n, integrand))
    return float(np.abs(lhs - two_scale).max())


def functional_pairing(u, psi):
    """∫ psi . u dx for a vector field and a closed-form vector test.

    Summed over blocks of element rows, as ``two_scale_pairing`` is.
    """
    domain = u.grid

    def integrand(rows):
        pts = _fem.qp_coords(domain.n, domain.h, domain.origin, rows)
        test = np.stack(psi(pts[..., 0], pts[..., 1]), axis=-1)
        vals = _fem.qp_values(u.values,
                              _fem.rows_of(domain.conn, domain.n, rows))
        return (vals * test).sum(axis=-1)

    return float(_fem.integrate_qp(domain.h,
                                   _fem.row_sums(domain.n, integrand)))


def fit_rate(ladder, errors):
    """Least-squares slope of log(error) against log(eps).

    Returns None when the rate is degenerate (an error hit zero, i.e.
    the discretization floor).
    """
    ladder = np.asarray(ladder, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if ladder.size < 3:
        raise ValueError("rate fit needs at least 3 ladder points")
    if np.any(errors <= 0.0):
        return None
    slope = np.polyfit(np.log(ladder), np.log(errors), 1)[0]
    return float(slope)


# ---------------------------------------------------------------------------
# The eps-sweep study
# ---------------------------------------------------------------------------

def study_source(x1, x2):
    """Smooth interior charge bump with unit mean, zero on the boundary."""
    return (1.0 - np.cos(2.0 * np.pi * x1)) * (1.0 - np.cos(2.0 * np.pi * x2))


def _psi_x(x1, x2):
    return 16.0 * x1 * (1.0 - x1) * x2 * (1.0 - x2)


def _psi_y_pairing(y1, y2):
    return np.sin(2.0 * np.pi * y1)


def _psi_y_maxwell(y1, y2):
    return 1.0 + 0.5 * np.sin(2.0 * np.pi * y1)


def _psi_vec(x1, x2):
    s = np.sin(np.pi * x1) * np.sin(np.pi * x2)
    return (s, s)


@dataclass
class CorrectorReport:
    """Per-eps corrector errors, fitted rates, and pairing diagnostics."""

    ladder: list
    errors: dict                 # name -> list aligned with ladder
    rates: dict                  # name -> slope or None (floor reached)
    pairing_values: list
    pairing_limit: float
    pairing_gaps: list
    maxwell_gaps: list
    elasticity_gaps: list
    energy_ratios: list
    fine_residuals: list
    cell_residual_max: float
    identity_residual_max: float
    macro_iterations: int
    macro_history: list
    provenance: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "ladder": list(self.ladder),
            "errors": {k: list(v) for k, v in self.errors.items()},
            "rates": dict(self.rates),
            "pairing": {
                "values": list(self.pairing_values),
                "limit": self.pairing_limit,
                "gaps": list(self.pairing_gaps),
            },
            "maxwell_gaps": list(self.maxwell_gaps),
            "elasticity_gaps": list(self.elasticity_gaps),
            "energy_ratios": list(self.energy_ratios),
            "fine_residuals": list(self.fine_residuals),
            "cell_residual_max": self.cell_residual_max,
            "identity_residual_max": self.identity_residual_max,
            "macro_iterations": self.macro_iterations,
            "macro_history": list(self.macro_history),
            "provenance": dict(self.provenance),
        }


def check_study_grids(ladder, cell_n, solve_n, sample_n):
    """Raise ValueError unless a study's grids fit its decreasing ladder.

    Each rung's fine grid N = cell_n / eps is an integer, and the
    eps-cells are unions of sample-grid elements.
    """
    if len(ladder) < 2 or any(e2 >= e1 for e1, e2 in zip(ladder, ladder[1:])):
        raise ValueError("ladder must be strictly decreasing with >= 2 rungs")
    if cell_n < 4 or cell_n & (cell_n - 1):
        raise ValueError("cell_n must be a power of two >= 4")
    for eps in ladder:
        if abs(cell_n / eps - round(cell_n / eps)) > 1e-9:
            raise ValueError(f"cell_n={cell_n} incommensurate with eps={eps}")
        if abs(sample_n * eps / 2 - round(sample_n * eps / 2)) > 1e-9:
            raise ValueError(
                f"sample grid {sample_n} does not align with eps={eps} cells")
    if sample_n % solve_n != 0:
        raise ValueError("sample grid must refine the solve grid")


def run_corrector_study(spec, ladder, cell_n=8, solve_n=32, sample_n=64,
                        f=None, tensor_b=None, tensor_c=None,
                        g_src=(0.0, -1.0), cell_tol=_fem.CELL_TOL,
                        macro_tol=MACRO_TOL):
    """Run the eps-sweep corrector verification for one operator family.

    Grids: cell_n elements per period for the unit cells and the fine
    meshes alike, so that the corrector and the fine solutions discretize
    one cell problem; the effective solve on solve_n, corrector sampling
    on sample_n (one cell solve per sample quadrature point).  When
    elastic tensors are supplied, the coupled system is solved on each
    rung and the weak-convergence functional gap reported alongside the
    electric stress pairing gap.  The cell and fine solves stop at ``cell_tol``,
    the effective solve at ``macro_tol``.

    The default source is a smooth interior bump (mean 1, vanishing on
    the boundary), which keeps the boundary layer from dominating the
    error ladders; the macroscopic gradient is always the recovered one
    (nodal averaging), so the effective solve's raw gradient error stays
    below the corrector errors being measured.
    """
    if f is None:
        f = study_source

    ladder = sorted(ladder, reverse=True)
    check_study_grids(ladder, cell_n, solve_n, sample_n)
    cell_grid = CellGrid(cell_n)
    law = EffectiveLaw(spec, cell_grid, cell_tol)
    solve_grid = DomainGrid(solve_n)
    macro = solve_homogenized_electrostatic(law, f, solve_grid, macro_tol)
    phi0 = macro.potential
    grad_field = macroscopic_gradient_field(phi0)
    sample_grid = DomainGrid(sample_n)
    corr = reconstruct_phi1(law, phi0, sample_grid, grad_field,
                            macro.cell_potentials)

    with_elasticity = tensor_b is not None and tensor_c is not None
    u0 = None
    u0_pairing = 0.0
    if with_elasticity:
        b_eff, c_eff = assemble_elastic_tensors(
            tensor_b, tensor_c, law.solutions_for(np.eye(2)), cell_grid)
        u0, _ = solve_homogenized_elasticity(b_eff, c_eff, g_src, phi0,
                                             solve_grid,
                                             gradient_field=grad_field)
        u0_pairing = functional_pairing(u0, _psi_vec)

    g_pair = ScalarField(cell_grid, np.sin(
        2.0 * np.pi * cell_grid.node_coords()[:, 0]))
    limit = pairing_limit(g_pair, _psi_x, _psi_y_pairing)
    two_scale_stress = two_scale_stress_pairing(corr, _psi_x, _psi_y_maxwell)

    def one_rung(eps):
        # the solves first, then the post-processing; of each stage only
        # the potential and the reported numbers outlive it
        domain = DomainGrid(int(round(cell_n / eps)))
        fine = solve_fine_electrostatic(spec, eps, f, domain, cell_tol)
        el_gap = None
        if with_elasticity:
            u_eps, _ = solve_fine_elasticity(tensor_b, tensor_c, eps, g_src,
                                             fine.potential, domain)
            el_gap = abs(functional_pairing(u_eps, _psi_vec) - u0_pairing)
            del u_eps
        errs = corrector_error_explicit(fine.potential, grad_field, corr,
                                        eps, spec.p)
        errs["E_dm"] = corrector_error_dalmaso(fine.potential, law, corr,
                                               eps, spec.p)
        pairing = two_scale_pairing(sample_oscillatory(g_pair, eps, domain),
                                    _psi_x, _psi_y_pairing, eps)
        mw_gap = maxwell_two_scale_check(fine.potential, eps,
                                         two_scale_stress, _psi_x,
                                         _psi_y_maxwell)
        return {
            "errs": errs,
            "pairing": pairing,
            "maxwell": mw_gap,
            "elastic": el_gap,
            "energy": fine.energy["ratio"],
            "residual": fine.residuals["electrostatic"],
        }

    rungs = [one_rung(eps) for eps in ladder]

    names = ("E_exp", "E_avg", "E_dm", "E_nocorr", "E_exp_interior",
             "E_avg_interior")
    errors = {name: [r["errs"][name] for r in rungs] for name in names}
    rates = {name: fit_rate(ladder, errors[name]) if len(ladder) >= 3 else None
             for name in ("E_exp", "E_avg", "E_dm")}
    pairing_values = [r["pairing"] for r in rungs]
    report = CorrectorReport(
        ladder=list(ladder),
        errors=errors,
        rates=rates,
        pairing_values=pairing_values,
        pairing_limit=limit,
        pairing_gaps=[abs(v - limit) for v in pairing_values],
        maxwell_gaps=[r["maxwell"] for r in rungs],
        elasticity_gaps=[r["elastic"] for r in rungs] if with_elasticity
        else [],
        energy_ratios=[r["energy"] for r in rungs],
        fine_residuals=[r["residual"] for r in rungs],
        cell_residual_max=float(corr.cell_residuals.max()),
        identity_residual_max=float(corr.identity_residuals.max()),
        macro_iterations=macro.iterations,
        macro_history=list(macro.residual_history),
        provenance={
            "cell_n": cell_n, "solve_n": solve_n, "sample_n": sample_n,
            "p_norm": spec.p,
            "operator": spec.fingerprint(),
            "law": law.provenance(),
        })
    return report
