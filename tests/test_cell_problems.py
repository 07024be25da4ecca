import tracemalloc

import numpy as np
import pytest

from hk import _fem
from hk.cell_problems import (BatchScalarCellSolver, CirclePredictor,
                              NearestPredictor, cell_predictor,
                              corrector_flux, solve_elastic_cell_U,
                              solve_electrostriction_cell, solve_scalar_cell,
                              unit_strain)
from hk.constitutive import ElasticTensorField, Geometry, OperatorSpec
from hk.core_fields import CellGrid

LAMINATE = Geometry(kind="laminate", fraction=0.5)

from oracles import cell_average, laminate_flux_balance


def laminate_spec(p):
    family = "linear" if p == 2.0 else "power-law"
    return OperatorSpec(family=family, p=p, alpha=1.0, geometry=LAMINATE,
                        sigma=(1.0, 4.0))


def constant_spec(p=2.0):
    family = "linear" if p == 2.0 else "power-law"
    return OperatorSpec(family=family, p=p, alpha=min(1.0, p - 1),
                        geometry=Geometry("uniform"), sigma=(2.0, 2.0))


def flux_identity(spec, loading, sol):
    """| ∫ a(y,p).p - ∫ a(y,p).loading | of one cell solution."""
    batch = BatchScalarCellSolver(spec, sol.grid)
    _, identity = batch.attached_residuals(
        np.asarray(loading, dtype=float)[None], sol.values[None])
    return float(identity[0])


def corrector_outer(i, j, sol_i, sol_j):
    """Outer product of the corrector fluxes at e_i and e_j, (nel, 4, 2, 2)."""
    p_i = corrector_flux(np.eye(2)[i], sol_i)
    p_j = corrector_flux(np.eye(2)[j], sol_j)
    return p_i[..., :, None] * p_j[..., None, :]


def test_constant_coefficients_zero_solution():
    grid = CellGrid(16)
    for p in (2.0, 3.0):
        sol = solve_scalar_cell(constant_spec(p), [0.7, -0.3], grid)
        assert np.abs(sol.values).max() < 1e-12


def test_zero_loading_zero_solution():
    grid = CellGrid(16)
    sol = solve_scalar_cell(laminate_spec(3.0), [0.0, 0.0], grid)
    assert np.all(sol.values == 0.0)
    assert sol.iterations == 0


def test_laminate_p2_slopes():
    # frozen from the 1D flux-balance oracle: q = 1.6, slopes +-0.6
    grid = CellGrid(64)
    sol = solve_scalar_cell(laminate_spec(2.0), [1.0, 0.0], grid)
    grad = _fem.qp_gradient(sol.values, grid.conn, grid.h)
    phase = laminate_spec(2.0).geometry.indicator(grid.qp_coords())
    assert np.abs(grad[~phase][:, 0] - 0.6).max() < 1e-9
    assert np.abs(grad[phase][:, 0] + 0.6).max() < 1e-9
    assert np.abs(grad[..., 1]).max() < 1e-9


def test_zero_mean_normalization():
    grid = CellGrid(32)
    for p in (2.0, 3.0):
        sol = solve_scalar_cell(laminate_spec(p), [0.3, 1.1], grid)
        assert abs(sol.values.mean()) < 1e-12


def test_corrector_flux_laminate_values():
    # oracle: per-phase flux-map values (1.6, 0) and (0.4, 0)
    q, t = laminate_flux_balance([1.0, 4.0], [0.5, 0.5], 2.0)
    assert (q, tuple(t)) == (1.6, (1.6, 0.4))
    grid = CellGrid(64)
    spec = laminate_spec(2.0)
    sol = solve_scalar_cell(spec, [1.0, 0.0], grid)
    p_qp = corrector_flux([1.0, 0.0], sol)
    phase = spec.geometry.indicator(grid.qp_coords())
    assert np.abs(p_qp[~phase][:, 0] - 1.6).max() < 1e-9
    assert np.abs(p_qp[phase][:, 0] - 0.4).max() < 1e-9


def test_corrector_flux_constant_coefficients():
    grid = CellGrid(16)
    spec = constant_spec(3.0)
    sol = solve_scalar_cell(spec, [0.5, 0.5], grid)
    p_qp = corrector_flux([0.5, 0.5], sol)
    assert np.abs(p_qp - np.array([0.5, 0.5])).max() < 1e-13


def test_corrector_flux_mean_equals_loading():
    grid = CellGrid(32)
    spec = laminate_spec(3.0)
    rng = np.random.default_rng(4)
    for _ in range(10):
        xi = rng.standard_normal(2)
        sol = solve_scalar_cell(spec, xi, grid)
        mean = cell_average(corrector_flux(xi, sol))
        assert np.abs(mean - xi).max() < 1e-10


def test_flux_identity_constant():
    grid = CellGrid(16)
    spec = constant_spec(2.0)
    sol = solve_scalar_cell(spec, [1.0, 2.0], grid)
    assert flux_identity(spec, [1.0, 2.0], sol) < 1e-13


def test_flux_identity_laminate():
    grid = CellGrid(64)
    for p in (2.0, 3.0):
        spec = laminate_spec(p)
        sol = solve_scalar_cell(spec, [1.0, 0.0], grid)
        assert flux_identity(spec, [1.0, 0.0], sol) <= 1e-10


def test_flux_identity_reports_unconverged_without_raising(monkeypatch):
    grid = CellGrid(32)
    spec = laminate_spec(3.0)
    monkeypatch.setattr(_fem, "MAX_NEWTON", 1)
    monkeypatch.setattr(_fem, "MAX_PICARD", 0)
    loose = solve_scalar_cell(spec, [1.0, 0.0], grid, 0.5)
    monkeypatch.undo()
    tight = solve_scalar_cell(spec, [1.0, 0.0], grid)
    r_loose = flux_identity(spec, [1.0, 0.0], loose)
    r_tight = flux_identity(spec, [1.0, 0.0], tight)
    assert r_loose > 1e-6 > r_tight


def test_energy_identity():
    # with the solution itself as test function the weak form gives
    # ∫ a(y,p) . grad(eta) = 0 at convergence
    grid = CellGrid(32)
    spec = laminate_spec(3.0)
    xi = np.array([0.8, -0.2])
    sol = solve_scalar_cell(spec, xi, grid)
    p_qp = corrector_flux(xi, sol)
    a_qp = spec.flux_local(spec.local_coefficients(grid.qp_coords()), p_qp)
    grad_eta = _fem.qp_gradient(sol.values, grid.conn, grid.h)
    val = _fem.integrate_qp(grid.h, np.einsum("eqd,eqd->eq", a_qp, grad_eta))
    assert abs(val) < 1e-10


def test_refinement_decreases_flux_error():
    # against the exact laminate flux map (1.6 / 0.4 per phase)
    spec = laminate_spec(3.0)
    errs = []
    for n in (4, 8):
        grid = CellGrid(n)
        sol = solve_scalar_cell(spec, [1.0, 0.0], grid)
        p_qp = corrector_flux([1.0, 0.0], sol)
        phase = spec.geometry.indicator(grid.qp_coords())
        exact = np.where(phase[..., None],
                         np.array([2.0 / 3.0, 0.0]),
                         np.array([4.0 / 3.0, 0.0]))
        errs.append(_fem.lp_norm_qp(grid.h, p_qp - exact, 2.0))
    # laminate profiles are piecewise linear: already at machine floor
    assert errs[1] <= errs[0] + 1e-12


def test_solver_determinism_bitwise():
    grid = CellGrid(32)
    spec = laminate_spec(3.0)
    s1 = solve_scalar_cell(spec, [0.3, 0.7], grid)
    s2 = solve_scalar_cell(spec, [0.3, 0.7], grid)
    assert np.array_equal(s1.values, s2.values)


def test_nonconvergence_raises(monkeypatch):
    from hk.errors import NonConvergence
    grid = CellGrid(16)
    spec = laminate_spec(3.0)
    monkeypatch.setattr(_fem, "MAX_NEWTON", 1)
    monkeypatch.setattr(_fem, "MAX_PICARD", 0)
    monkeypatch.setattr(_fem, "MAX_LINESEARCH", 1)
    with pytest.raises(NonConvergence):
        solve_scalar_cell(spec, [1.0, 0.0], grid, 1e-14)


# -- elastic cell problems ---------------------------------------------------

def elastic_laminate():
    return ElasticTensorField.from_lame((1.0, 1.0), (3.0, 2.0), LAMINATE)


def test_elastic_constant_tensor_zero_solution():
    field = ElasticTensorField.from_lame((1.0, 1.0),
                                         geometry=Geometry("uniform"))
    grid = CellGrid(8)
    sol = solve_elastic_cell_U(field, grid, 0, 0)
    assert np.abs(sol.values).max() < 1e-12


def test_elastic_laminate_profile():
    # responses depend only on y1 and the axial load keeps component 2 zero
    field = elastic_laminate()
    grid = CellGrid(32)
    sol = solve_elastic_cell_U(field, grid, 0, 0)
    vals = sol.values.reshape(grid.n, grid.n, 2)  # [iy, ix, comp]
    assert np.abs(vals - vals[0:1, :, :]).max() < 1e-9
    assert np.abs(vals[..., 1]).max() < 1e-9


def test_elastic_symmetric_load_pair():
    field = elastic_laminate()
    grid = CellGrid(16)
    s01 = solve_elastic_cell_U(field, grid, 0, 1)
    s10 = solve_elastic_cell_U(field, grid, 1, 0)
    assert np.abs(s01.values - s10.values).max() < 1e-12


def test_elastic_zero_mean():
    field = elastic_laminate()
    grid = CellGrid(16)
    sol = solve_elastic_cell_U(field, grid, 0, 0)
    assert np.abs(sol.values.mean(axis=0)).max() < 1e-12


def test_zeta_constant_coefficients():
    grid = CellGrid(16)
    spec = constant_spec()
    sols = [solve_scalar_cell(spec, np.eye(2)[k], grid) for k in range(2)]
    zeta = corrector_outer(0, 1, sols[0], sols[1])
    assert np.abs(zeta - np.outer([1, 0], [0, 1])).max() < 1e-13


def test_zeta_transpose_relation():
    grid = CellGrid(32)
    spec = laminate_spec(2.0)
    sols = [solve_scalar_cell(spec, np.eye(2)[k], grid) for k in range(2)]
    z01 = corrector_outer(0, 1, sols[0], sols[1])
    z10 = corrector_outer(1, 0, sols[1], sols[0])
    assert np.abs(z01 - np.swapaxes(z10, -1, -2)).max() < 1e-14


def test_zeta_laminate_values():
    # frozen from the flux-balance oracle: diag((q/sigma)^2, 0)
    grid = CellGrid(64)
    spec = laminate_spec(2.0)
    sols = [solve_scalar_cell(spec, np.eye(2)[k], grid) for k in range(2)]
    zeta = corrector_outer(0, 0, sols[0], sols[0])
    phase = spec.geometry.indicator(grid.qp_coords())
    assert np.abs(zeta[~phase] - np.diag([2.56, 0.0])).max() < 1e-8
    assert np.abs(zeta[phase] - np.diag([0.16, 0.0])).max() < 1e-8


def test_electrostriction_constant_everything_zero():
    grid = CellGrid(8)
    field = ElasticTensorField.from_lame((2.0, 0.5),
                                         geometry=Geometry("uniform"))
    zeta = np.broadcast_to(np.outer([1, 0], [1, 0]),
                           (grid.n_elems, 4, 2, 2)).copy()
    sol = solve_electrostriction_cell(field, field, zeta, grid)
    assert np.abs(sol.values).max() < 1e-12


def test_electrostriction_heterogeneous_C_nonzero():
    # constant flux map (zeta = e1 x e1) but oscillating C drives a
    # response: the source is C zeta
    grid = CellGrid(16)
    field = ElasticTensorField.from_lame((0.5, 0.5), (1.5, 1.0), LAMINATE)
    zeta = np.broadcast_to(np.outer([1, 0], [1, 0]),
                           (grid.n_elems, 4, 2, 2)).copy()
    sol = solve_electrostriction_cell(field, field, zeta, grid)
    assert np.abs(sol.values).max() > 1e-4


def test_electrostriction_constant_shift_invariance_needs_constant_C():
    # shifting zeta by a constant matrix changes nothing when C is
    # constant; with heterogeneous C the load changes
    grid = CellGrid(16)
    const_c = ElasticTensorField.from_lame((2.0, 0.5),
                                           geometry=Geometry("uniform"))
    het_c = ElasticTensorField.from_lame((0.5, 0.5), (1.5, 1.0), LAMINATE)
    rng = np.random.default_rng(5)
    zeta = rng.standard_normal((grid.n_elems, 4, 2, 2))
    shift = np.array([[0.3, 0.1], [0.1, -0.2]])
    a = solve_electrostriction_cell(const_c, const_c, zeta, grid)
    b = solve_electrostriction_cell(const_c, const_c, zeta + shift, grid)
    assert np.abs(a.values - b.values).max() < 1e-9
    a = solve_electrostriction_cell(het_c, het_c, zeta, grid)
    b = solve_electrostriction_cell(het_c, het_c, zeta + shift, grid)
    assert np.abs(a.values - b.values).max() > 1e-4


def test_elastic_cells_are_one_direct_solve():
    field = ElasticTensorField.from_lame((1.0, 1.0), (3.0, 2.0),
                                         Geometry("square", size=0.5))
    grid = CellGrid(16)
    sol = solve_elastic_cell_U(field, grid, 0, 1)
    assert sol.iterations == 1
    assert sol.residual <= 1e-12
    eta = solve_scalar_cell(laminate_spec(2.0), np.eye(2)[0], grid)
    chi = solve_electrostriction_cell(field, field,
                                      corrector_outer(0, 0, eta, eta), grid)
    assert chi.iterations == 1
    assert chi.residual <= 1e-12


def test_degenerate_elastic_tensor_raises_singular():
    from hk.errors import SingularSystem
    field = ElasticTensorField.from_lame((0.0, 0.0),
                                         geometry=Geometry("uniform"))
    with pytest.raises(SingularSystem):
        solve_elastic_cell_U(field, CellGrid(8), 0, 0)


def test_unit_strain_values():
    assert np.array_equal(unit_strain(0, 0), np.diag([1.0, 0.0]))
    assert np.array_equal(unit_strain(0, 1), np.array([[0.0, 0.5],
                                                       [0.5, 0.0]]))


def nonsymmetric_laminate():
    return OperatorSpec(family="linear", geometry=LAMINATE,
                        matrices=(((1.0, 0.5), (-0.5, 1.0)),
                                  ((4.0, 1.0), (-1.0, 4.0))))


def test_linear_cell_is_one_direct_solve():
    grid = CellGrid(16)
    for xi in ([1.0, 0.0], [0.0, 1.0], [0.3, -0.8]):
        sol = solve_scalar_cell(nonsymmetric_laminate(), xi, grid)
        assert sol.iterations == 1
        assert sol.residual <= 1e-12


def test_batch_solver_rejects_linear_laws():
    # its band keeps the a <= b entries of each element block, so a
    # non-symmetric matrix would be solved as another, symmetric one
    batch = BatchScalarCellSolver(nonsymmetric_laminate(), CellGrid(16))
    loadings = np.eye(2)
    with pytest.raises(ValueError, match="linear law"):
        batch.solve(loadings)
    with pytest.raises(ValueError, match="linear law"):
        batch.tangents(loadings, np.zeros((2, batch.grid.n_nodes)))
    # the attached residuals serve every family
    etas = np.stack([solve_scalar_cell(batch.spec, xi, batch.grid).values
                     for xi in loadings])
    cell, _ = batch.attached_residuals(loadings, etas)
    assert cell.max() <= 1e-12


# -- batched solver -----------------------------------------------------------

def reference_newton(spec, loading, grid):
    """Sparse pinned damped Newton for one loading, independent of the batch."""
    loc = spec.local_coefficients(grid.qp_coords())

    def total_gradient(eta):
        return loading + _fem.qp_gradient(eta, grid.conn, grid.h)

    def residual(rows, etas):
        res = _fem.divergence_residual(
            grid, spec.flux_local(loc, total_gradient(etas[0])))
        return res[None], np.array([np.linalg.norm(res)])

    def newton_step(rows, etas, res):
        jac = spec.jacobian_local(loc, total_gradient(etas[0]),
                                  delta_floor=_fem.DELTA_JAC)
        block = _fem.assemble_diffusion(grid, jac)
        return _fem.solve_periodic_pinned(block, -res[0][:, None])[:, 0][None]

    out = _fem.damped_newton(np.zeros((1, grid.n_nodes)), residual,
                             newton_step, _fem.CELL_TOL, _fem.MAX_NEWTON,
                             _fem.MAX_LINESEARCH)
    assert out.converged[0]
    return out.x[0] - out.x[0].mean()


def test_batch_matches_single_solves():
    grid = CellGrid(8)
    spec = laminate_spec(3.0)
    rng = np.random.default_rng(6)
    loadings = rng.uniform(-1.0, 1.0, size=(12, 2))
    batch = BatchScalarCellSolver(spec, grid)
    res = batch.solve(loadings)
    assert res.converged.all()
    for k, xi in enumerate(loadings):
        single = reference_newton(spec, xi, grid)
        assert np.abs(res.values[k] - single).max() < 1e-8


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
def test_batch_picard_after_newton_budget_matches_single_solves(p, monkeypatch):
    # one Newton step, then batched frozen-coefficient steps; the plain
    # step contracts for p <= 2, the relaxed step with weight 1/(p-1) above
    import hk.cell_problems as cp

    def no_single_solves(*args, **kwargs):
        raise AssertionError("the batch must not fall back to single solves")

    grid = CellGrid(8)
    spec = OperatorSpec(family="power-law", p=p, alpha=min(1.0, p - 1.0),
                        geometry=Geometry("square", size=0.5),
                        sigma=(1.0, 4.0))
    loadings = np.random.default_rng(6).uniform(-1.0, 1.0, size=(6, 2))
    batch = BatchScalarCellSolver(spec, grid)
    monkeypatch.setattr(_fem, "MAX_NEWTON", 1)
    monkeypatch.setattr(cp, "solve_scalar_cell", no_single_solves)
    res = batch.solve(loadings)
    monkeypatch.undo()
    assert res.converged.all()
    assert (res.iterations > 1).all()
    for k, xi in enumerate(loadings):
        single = reference_newton(spec, xi, grid)
        assert np.abs(res.values[k] - single).max() < 1e-8


def test_batch_flags_unconverged_rows(monkeypatch):
    grid = CellGrid(8)
    monkeypatch.setattr(_fem, "MAX_NEWTON", 1)
    monkeypatch.setattr(_fem, "MAX_PICARD", 0)
    batch = BatchScalarCellSolver(laminate_spec(3.0), grid, 1e-14)
    res = batch.solve(np.array([[1.0, 0.3], [0.0, 0.0]]))
    assert res.converged.tolist() == [False, True]
    assert res.iterations.tolist() == [1, 0]
    assert res.residuals[0] > 1e-14


def test_batch_flux_means_match_quadrature():
    grid = CellGrid(8)
    spec = laminate_spec(3.0)
    batch = BatchScalarCellSolver(spec, grid)
    res = batch.solve(np.array([[1.0, 0.0], [0.0, 1.0]]))
    means = batch.flux_means(res)
    assert np.abs(means[0] - np.array([16.0 / 9.0, 0.0])).max() < 1e-9
    assert np.abs(means[1] - np.array([0.0, 2.5])).max() < 1e-9


# -- banded Cholesky on the folded torus ordering ------------------------------

@pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 128])
def test_band_half_bandwidth(n):
    # read off the sparsity pattern at construction; nothing is solved
    batch = BatchScalarCellSolver(laminate_spec(3.0), CellGrid(n))
    assert batch.bandwidth == 2 * n + 2


@pytest.mark.parametrize("n", [4, 8, 16])
def test_band_newton_step_matches_dense_solve(n):
    grid = CellGrid(n)
    batch = BatchScalarCellSolver(laminate_spec(3.0), grid)
    rng = np.random.default_rng(n)
    loadings = rng.uniform(-1.0, 1.0, size=(3, 2))
    etas = 0.1 * rng.standard_normal((3, grid.n_nodes))
    jac = batch._local_jacobians(loadings, etas)
    rhs = -batch._residual(loadings, etas)
    step = batch._band_solve(jac, rhs[:, :, None])[..., 0]
    for k in range(3):
        pinned = _fem.assemble_diffusion(grid, jac[k]).toarray()
        ref = np.zeros(grid.n_nodes)
        ref[1:] = np.linalg.solve(pinned, rhs[k, 1:])
        assert np.linalg.norm(step[k] - ref) <= 1e-12 * np.linalg.norm(ref)


def test_band_zero_coefficients_raise_singular():
    from hk.errors import SingularSystem
    grid = CellGrid(8)
    batch = BatchScalarCellSolver(laminate_spec(3.0), grid)
    with pytest.raises(SingularSystem):
        batch._band_solve(np.zeros((1, grid.n_elems, 4, 2, 2)),
                          np.ones((1, grid.n_nodes, 1)))


def _reference_band_solve(batch, jac, rhs):
    """Per-loading pinned solves by scipy's solveh_banded, in band order."""
    from scipy.linalg import solveh_banded
    from hk.cell_problems import _folded_order
    grid = batch.grid
    order = _folded_order(grid.n)
    unknowns = (order[:, None] * grid.n + order[None, :]).ravel()[1:]
    bw = batch.bandwidth
    out = np.zeros_like(rhs)
    for k in range(jac.shape[0]):
        # the assembled block drops node 0: node i is its row i - 1
        dense = _fem.assemble_diffusion(grid, jac[k]).toarray()
        pinned = dense[np.ix_(unknowns - 1, unknowns - 1)]
        ab = np.zeros((bw + 1, unknowns.size))
        for i in range(bw + 1):
            ab[i, :unknowns.size - i] = np.diagonal(pinned, -i)
        out[k, unknowns] = solveh_banded(ab, rhs[k, unknowns], lower=True)
    return out


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("rows", ["one", "three", "chunk"])
@pytest.mark.parametrize("r", [1, 2])
def test_band_solve_matches_solveh_banded(n, rows, r):
    grid = CellGrid(n)
    batch = BatchScalarCellSolver(laminate_spec(3.0), grid)
    chunk = max(1, _fem.WORK_BUDGET_BYTES // batch.loading_bytes)
    k = {"one": 1, "three": 3, "chunk": chunk}[rows]
    rng = np.random.default_rng(10 * n + r)
    loadings = rng.uniform(-1.0, 1.0, size=(k, 2))
    etas = 0.1 * rng.standard_normal((k, grid.n_nodes))
    jac = batch._local_jacobians(loadings, etas)
    rhs = rng.standard_normal((k, grid.n_nodes, r))
    got = batch._band_solve(jac, rhs)
    ref = _reference_band_solve(batch, jac, rhs)
    assert np.all(got[:, 0] == 0.0)
    err = np.linalg.norm((got - ref).reshape(k, -1), axis=1)
    assert np.all(err <= 1e-12 * np.linalg.norm(ref.reshape(k, -1), axis=1))


@pytest.mark.parametrize("coef", ["matrix", "scalar"])
def test_band_solve_bitwise_equals_bincount_assembly(coef):
    # each band entry sums its element pairs from zero in the order one
    # bincount over the element pairs adds them: the same band, so the
    # same dpbsv solution, bit for bit
    from scipy.linalg.lapack import dpbsv
    grid = CellGrid(16)
    batch = BatchScalarCellSolver(laminate_spec(3.0), grid)
    nn, nel, k = grid.n_nodes, grid.n_elems, 5
    rng = np.random.default_rng(16)
    loadings = rng.uniform(-1.0, 1.0, size=(k, 2))
    etas = 0.1 * rng.standard_normal((k, nn))
    jac = batch._local_jacobians(loadings, etas).copy()
    if coef == "scalar":
        jac = jac[..., 0, 0].copy()
    rhs = rng.standard_normal((k, nn, 1))
    got = batch._band_solve(jac, rhs)
    a, b = np.triu_indices(4)
    ldab = batch.bandwidth + 1
    ranks = batch._rank[grid.conn]
    row = np.maximum(ranks[:, a], ranks[:, b])
    col = np.minimum(ranks[:, a], ranks[:, b])
    slots = (col * ldab + row - col).reshape(1, -1) \
        + (ldab * nn) * np.arange(k)[:, None]
    op = _fem.BLOCK_OP if coef == "matrix" else _fem.SCALAR_BLOCK_OP
    pairs = jac.reshape(k * nel, -1) @ op[:, 4 * a + b]
    band = np.bincount(slots.ravel(), weights=pairs.ravel(),
                       minlength=k * ldab * nn).reshape(k * nn, ldab)
    band[::nn] = 0.0
    band[::nn, 0] = 1.0
    rhs_band = rhs[:, batch._band_nodes].reshape(k * nn, 1)
    rhs_band[::nn] = 0.0
    _, x, info = dpbsv(band.T, rhs_band, lower=1)
    assert info == 0
    assert np.array_equal(got, x.reshape(k, nn, 1)[:, batch._rank])


def test_band_solve_names_the_indefinite_row():
    from hk.errors import SingularSystem
    grid = CellGrid(8)
    batch = BatchScalarCellSolver(laminate_spec(3.0), grid)
    rng = np.random.default_rng(3)
    loadings = rng.uniform(-1.0, 1.0, size=(3, 2))
    jac = batch._local_jacobians(loadings, np.zeros((3, grid.n_nodes)))
    jac[1] *= -1.0
    with pytest.raises(SingularSystem, match="batch row 1 "):
        batch._band_solve(jac, np.ones((3, grid.n_nodes, 1)))


@pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 128])
def test_batch_chunk_within_budget(n):
    # the largest chunk that fits the work budget, and at least one row
    batch = BatchScalarCellSolver(laminate_spec(3.0), CellGrid(n))
    chunk = max(1, _fem.WORK_BUDGET_BYTES // batch.loading_bytes)
    # the solver's chunks are the work rule's blocks of loadings
    assert _fem.blocks(3 * chunk, batch.loading_bytes) == [
        slice(0, chunk), slice(chunk, 2 * chunk), slice(2 * chunk, 3 * chunk)]
    # one loading's arrays alone outgrow the budget from n = 64 on
    assert chunk * batch.loading_bytes <= max(_fem.WORK_BUDGET_BYTES,
                                              batch.loading_bytes)
    if n <= 32:
        assert chunk * batch.loading_bytes <= _fem.WORK_BUDGET_BYTES


def test_chunk_size_leaves_cold_batch_solutions(monkeypatch):
    # a 300-row cold batch at n = 8 in one chunk, at the default budget
    # (its 282 non-anchor rows in 3 chunks) and in chunks of 50 rows: the
    # chunk size moves the potentials by rounding only, and no row's
    # Newton steps
    grid = CellGrid(8)
    loadings = disc_loadings(300, 2.0, seed=20)
    loading_bytes = BatchScalarCellSolver(laminate_spec(3.0),
                                          grid).loading_bytes
    results = {}
    for rows in (300, None, 50):
        if rows is not None:
            monkeypatch.setattr(_fem, "WORK_BUDGET_BYTES",
                                rows * loading_bytes)
        batch = BatchScalarCellSolver(laminate_spec(3.0), grid)
        chunk = max(1, _fem.WORK_BUDGET_BYTES // batch.loading_bytes)
        results[chunk] = batch.solve(loadings)
        monkeypatch.undo()
    assert sorted(results) == [50, 115, 300]
    one = results[300]
    assert one.converged.all()
    for res in results.values():
        assert np.array_equal(res.iterations, one.iterations)
        assert np.abs(res.values - one.values).max() \
            <= 1e-12 * np.abs(one.values).max()


def test_workspace_stays_within_budget():
    # the solver's work arrays grow to the largest chunk a solve used,
    # however many rows the batch has
    batch = BatchScalarCellSolver(laminate_spec(3.0), CellGrid(8))
    loadings = np.random.default_rng(21).uniform(-1.0, 1.0, size=(1024, 2))
    batch.tangents(loadings, batch.solve(loadings).values)
    arena = next(iter(batch._ws._regions.values())).base
    assert arena.nbytes <= _fem.WORK_BUDGET_BYTES


# -- one workspace per solver -------------------------------------------------

def _solve_and_linearize(batch, loadings):
    res = batch.solve(loadings)
    tangent, w = batch.tangents(loadings, res.values)
    return (res.values, res.residuals, res.iterations, batch.flux_means(res),
            tangent, w)


def test_reused_workspace_matches_fresh_solvers():
    # one solver runs batches of 3, 100, 3, 100, 3 rows in turn: its
    # workspace grows to the 100-row batch and serves the later ones, and
    # every result is bitwise that of a fresh solver
    grid = CellGrid(8)
    rng = np.random.default_rng(14)
    batches = [rng.uniform(-1.0, 1.0, size=(k, 2)) for k in (3, 100)]
    fresh = [_solve_and_linearize(BatchScalarCellSolver(laminate_spec(3.0),
                                                        grid), loadings)
             for loadings in batches]
    batch = BatchScalarCellSolver(laminate_spec(3.0), grid)
    workspaces = []
    for i in (0, 1, 0, 1, 0):
        got = _solve_and_linearize(batch, batches[i])
        workspaces.append(batch._ws)
        for a, b in zip(got, fresh[i]):
            assert np.array_equal(a, b)
    assert [ws.rows for ws in workspaces] == [3, 100, 100, 100, 100]
    assert all(ws is workspaces[1] for ws in workspaces[1:])


def test_repeated_solve_reuses_its_workspace():
    # the work arrays persist across calls: a second solve of the same
    # loadings allocates a small part of what the first one did
    grid = CellGrid(16)
    batch = BatchScalarCellSolver(laminate_spec(3.0), grid)
    loadings = np.random.default_rng(15).uniform(-1.0, 1.0, size=(100, 2))
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            batch.solve(loadings)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] / 4


# -- cold batches by continuation ----------------------------------------------

def variable_exponent_square_spec():
    return OperatorSpec(family="variable-exponent", p=2.0, alpha=1.0,
                        geometry=Geometry("square", size=0.5),
                        sigma=(1.0, 1.0), exponent=(3.0, 2.0))


def disc_loadings(k, radius, seed):
    """k loadings drawn uniformly from the disc of the given radius."""
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, 2.0 * np.pi, size=k)
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, size=k))
    return np.stack([r * np.cos(angle), r * np.sin(angle)], axis=-1)


@pytest.mark.parametrize("spec", [laminate_spec(3.0),
                                  variable_exponent_square_spec()],
                         ids=["laminate-p3", "variable-exponent-square"])
def test_cold_batch_continuation_matches_one_row_solves(spec):
    # a cold batch of 100 solves 10 anchor rows from eta = 0 and starts
    # the others from an anchor's tangent predictor; each row must land
    # on the solution of its loading solved alone, in fewer row-steps.
    # A solve may stop anywhere below its tolerance: at the default 1e-10
    # the two sides differed by up to 4.6e-9 relative in a weak-contrast
    # row of the variable-exponent cell, so both converge to 1e-12 here.
    grid = CellGrid(8)
    loadings = disc_loadings(100, 2.0, seed=16)
    loadings[37] = 0.0
    batch = BatchScalarCellSolver(spec, grid, 1e-12)
    res = batch.solve(loadings)
    assert res.converged.all()
    assert np.all(res.values[37] == 0.0)
    alone = [batch.solve(xi[None]) for xi in loadings]
    for eta, one in zip(res.values, alone):
        assert one.converged[0]
        assert np.linalg.norm(eta - one.values[0]) \
            <= 1e-9 * np.linalg.norm(one.values[0])
    assert res.iterations.sum() < sum(int(one.iterations[0]) for one in alone)
    again = batch.solve(loadings)
    for name in ("values", "residuals", "iterations", "converged"):
        assert np.array_equal(getattr(again, name), getattr(res, name))


def test_cold_batch_with_unconverged_anchors_starts_cold(monkeypatch):
    # anchors that stop above tolerance give no tangent predictor: every
    # other row starts from eta = 0, as it does when solved alone, and the
    # rows are flagged rather than raised
    grid = CellGrid(8)
    monkeypatch.setattr(_fem, "MAX_NEWTON", 1)
    monkeypatch.setattr(_fem, "MAX_PICARD", 0)
    batch = BatchScalarCellSolver(laminate_spec(3.0), grid, 1e-14)
    loadings = disc_loadings(100, 2.0, seed=18)
    res = batch.solve(loadings)
    assert not res.converged.any()
    assert (res.iterations == 1).all()
    for xi, eta in zip(loadings, res.values):
        alone = batch.solve(xi[None]).values[0]
        assert np.linalg.norm(eta - alone) <= 1e-12 * np.linalg.norm(alone)


def test_cold_batch_holds_one_table_of_potentials():
    # the predictions are formed chunk by chunk: a repeated cold solve of
    # 8,192 loadings (the workspace already grown) peaks under two result
    # tables.  It peaks at 1.71 tables, and at 2.71 when the predictions
    # are gathered into a table of their own first.
    grid = CellGrid(8)
    batch = BatchScalarCellSolver(laminate_spec(3.0), grid)
    loadings = disc_loadings(8192, 2.0, seed=17)
    batch.solve(loadings)
    tracemalloc.start()
    try:
        res = batch.solve(loadings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged.all()
    assert peak < 2 * res.values.nbytes


def test_start_is_called_once_per_chunk_with_its_rows(monkeypatch):
    # a warm batch of 300 rows in chunks of 50: ``start`` gets each chunk's
    # loadings and row indices, once and in order.  The solve copies what
    # it returns, so a start that hands out views of the caller's table
    # leaves the table as it was, though the solve zeroes the start of the
    # zero loading
    grid = CellGrid(8)
    batch = BatchScalarCellSolver(laminate_spec(3.0), grid)
    loadings = disc_loadings(300, 2.0, seed=23)
    loadings[7] = 0.0
    table = 0.9 * batch.solve(loadings).values
    table[7] = 1.0
    kept = table.copy()
    monkeypatch.setattr(_fem, "WORK_BUDGET_BYTES", 50 * batch.loading_bytes)
    calls = []

    def start(xi, rows):
        calls.append((xi.copy(), rows.copy()))
        return table[rows[0]:rows[-1] + 1]

    res = batch.solve(loadings, start)
    assert res.converged.all()
    assert np.all(res.values[7] == 0.0)
    assert [rows.tolist() for _, rows in calls] == [
        list(range(i, i + 50)) for i in range(0, 300, 50)]
    for xi, rows in calls:
        assert np.array_equal(xi, loadings[rows])
    assert np.array_equal(table, kept)


# -- warm starts on the unit circle ------------------------------------------

def _circle(loadings, tol=1e-13, n=8):
    """A CirclePredictor of laminate-p3 rows solved to ``tol``.

    Returns the predictor, the solved rows and their solver.
    """
    batch = BatchScalarCellSolver(laminate_spec(3.0), CellGrid(n), tol)
    res = batch.solve(loadings)
    assert res.converged.all()
    w = batch.tangents(loadings, res.values)[1]
    return CirclePredictor(loadings, res.values, w), res, batch


def _relative_errors(got, want):
    return np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)


def test_law_selects_the_warm_start_rule():
    # the unregularized power law is homogeneous; a regularized one and
    # the variable exponent are not
    assert cell_predictor(laminate_spec(3.0)) is CirclePredictor
    assert cell_predictor(OperatorSpec(
        family="power-law", p=3.0, delta=0.1, geometry=LAMINATE,
        sigma=(1.0, 4.0))) is NearestPredictor
    assert cell_predictor(variable_exponent_square_spec()) \
        is NearestPredictor


def test_circle_predictor_is_exact_on_the_rays_of_its_nodes():
    # eta(s xi) = s eta(xi) for every real s: scaled and reflected node
    # loadings predict the scaled node solutions (5e-16 measured)
    xi = np.array([[1.0, 0.3], [-0.2, 0.9], [0.5, -1.5], [-1.1, -0.4],
                   [0.1, 1.2], [-0.7, 0.0]])
    predict, res, _ = _circle(xi)
    for s in (2.5, -0.7):
        assert _relative_errors(predict(s * xi), s * res.values).max() \
            <= 1e-13


def test_circle_predictor_error_shrinks_with_node_spacing():
    # cubic Hermite nodes in angle: halving the spacing from 16 to 32
    # nodes cut the largest relative error at 20 loadings from 1.1e-4 to
    # 1.7e-5
    queries = disc_loadings(20, 2.0, seed=19)
    _, exact, _ = _circle(queries)
    worst = []
    for m in (16, 32):
        t = np.pi * np.arange(m) / m
        predict = _circle(np.stack([np.cos(t), np.sin(t)], axis=-1))[0]
        worst.append(_relative_errors(predict(queries), exact.values).max())
    assert worst[1] * 4.0 <= worst[0]


def test_circle_predictor_leaves_zero_loadings_zero():
    # zero loadings predict zero, and a solved row with xi = 0 is no node:
    # its (here undefined) potentials are never read
    xi = disc_loadings(6, 2.0, seed=20)
    predict, res, batch = _circle(xi)
    loadings = np.concatenate([xi, np.zeros((1, 2))])
    etas = np.concatenate([res.values, np.full((1, res.values.shape[1]),
                                               np.nan)])
    w = np.concatenate([batch.tangents(xi, res.values)[1],
                        np.full((1,) + res.values.shape[1:] + (2,), np.nan)])
    with_zero = CirclePredictor(loadings, etas, w)
    queries = np.concatenate([np.zeros((3, 2)), 1.5 * xi])
    got = with_zero(queries)
    assert np.all(got[:3] == 0.0)
    assert np.array_equal(got, predict(queries))
    # with no node at all, every prediction is zero
    assert np.all(CirclePredictor(np.zeros((2, 2)), etas[-2:], w[-2:])(
        queries) == 0.0)


def test_circle_predictor_duplicate_angles_give_no_nan():
    # rows on one ray, or on opposite rays, share a folded angle; with a
    # single node direction the interpolant spans the half circle to the
    # node's own reflection
    xi = np.array([[0.6, 0.8], [1.2, 1.6], [-0.3, -0.4], [1.0, -0.5]])
    _, res, batch = _circle(xi)
    w = batch.tangents(xi, res.values)[1]
    queries = np.concatenate([xi, disc_loadings(30, 2.0, seed=21)])
    for rows in ([0, 1, 2, 3], [0, 1, 2], [2]):
        predict = CirclePredictor(xi[rows], res.values[rows], w[rows])
        got = predict(queries)
        assert np.all(np.isfinite(got))
        assert _relative_errors(got[rows], res.values[rows]).max() <= 1e-13


def _forbid_circle(monkeypatch):
    """Fail on any use of the circle predictor.

    Returns the (rows, pair type, own) of every first-order prediction,
    own telling whether ``pair`` is a run of consecutive indices, as a
    batch chunk's own row indices are.
    """
    def forbidden(*args, **kwargs):
        raise AssertionError("circle predictor called")

    monkeypatch.setattr(CirclePredictor, "__init__", forbidden)
    monkeypatch.setattr(CirclePredictor, "anchors", forbidden)
    calls = []
    nearest = NearestPredictor.__call__

    def counted(self, loadings, pair=None):
        own = pair is not None and np.array_equal(
            pair, pair[0] + np.arange(len(pair)))
        calls.append((len(loadings), type(pair).__name__, own))
        return nearest(self, loadings, pair)

    monkeypatch.setattr(NearestPredictor, "__call__", counted)
    return calls


def test_variable_exponent_batches_never_call_the_circle_predictor(
        monkeypatch):
    # a cold variable-exponent batch anchors at evenly spaced rows and
    # starts the rest from the nearest anchor's first-order predictor
    calls = _forbid_circle(monkeypatch)
    batch = BatchScalarCellSolver(variable_exponent_square_spec(),
                                  CellGrid(8))
    assert batch.solve(disc_loadings(100, 2.0, seed=22)).converged.all()
    assert sum(rows for rows, _, _ in calls) == 90


def test_variable_exponent_study_never_calls_the_circle_predictor(
        tmp_path, monkeypatch):
    # every warm start of a small variable-exponent study: the macro
    # Newton's trials (each quadrature point paired with its own row),
    # the corrector reconstruction (each of the 4 * 16^2 sample points
    # paired with its nearest macro point) and the cold continuations
    # (nearest anchor, None)
    import json

    from hk.cli import PRESETS, run
    calls = _forbid_circle(monkeypatch)
    cfg = json.loads(json.dumps(PRESETS["variable-exponent"]))
    cfg.update(elasticity=None, ladder=[0.5, 0.25],
               grids={"cell_n": 8, "solve_n": 8, "sample_n": 16})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert run("corrector-study", str(path), str(tmp_path / "out")) == 0
    assert {(pair, own) for _, pair, own in calls} == {
        ("ndarray", True), ("ndarray", False), ("NoneType", False)}
    assert sum(rows for rows, pair, own in calls
               if pair == "ndarray" and not own) == 4 * 16 ** 2


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("spec", [laminate_spec(2.0), nonsymmetric_laminate()],
                         ids=["laminate-p2", "nonsymmetric"])
def test_linear_attached_residuals_match_element_kernels(spec, n):
    # random rows, none a cell solution: the sparse operators evaluate the
    # rows as given, as the element kernels do
    grid = CellGrid(n)
    rng = np.random.default_rng(n)
    loadings = rng.standard_normal((300, 2))
    etas = rng.standard_normal((300, grid.n_nodes))
    batch = BatchScalarCellSolver(spec, grid)
    cell, identity = batch.attached_residuals(loadings, etas)
    loc = spec.local_coefficients(grid.qp_coords())
    ref_cell, ref_identity = [], []
    for xi, eta in zip(loadings, etas):
        p = xi + _fem.qp_gradient(eta, grid.conn, grid.h)
        flux = spec.flux_local(loc, p)
        ref_cell.append(np.linalg.norm(_fem.divergence_residual(grid, flux)))
        ref_identity.append(abs(
            _fem.integrate_qp(grid.h, (flux * p).sum(axis=-1))
            - _fem.integrate_qp(grid.h, flux) @ xi))
    ref_cell, ref_identity = np.array(ref_cell), np.array(ref_identity)
    assert np.abs(cell - ref_cell).max() <= 1e-12 * ref_cell.max()
    assert np.abs(identity - ref_identity).max() \
        <= 1e-12 * ref_identity.max()
    # a linear law's check allocates no batch workspace
    assert batch._ws is None
