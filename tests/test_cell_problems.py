import numpy as np
import pytest

from hk import _fem
from hk.cell_problems import (BatchScalarCellSolver, SolverOptions,
                              assemble_zeta, corrector_flux,
                              solve_elastic_cell_U,
                              solve_electrostriction_cell, solve_scalar_cell,
                              unit_strain, verify_flux_identity)
from hk.constitutive import ElasticTensorField, Geometry, OperatorSpec
from hk.core_fields import cell_average, make_cell_grid

LAMINATE = Geometry(kind="laminate", fraction=0.5)

from oracles import laminate_flux_balance


def laminate_spec(p):
    family = "linear" if p == 2.0 else "power-law"
    return OperatorSpec(family=family, p=p, alpha=1.0, geometry=LAMINATE,
                        sigma=(1.0, 4.0))


def constant_spec(p=2.0):
    family = "linear" if p == 2.0 else "power-law"
    return OperatorSpec(family=family, p=p, alpha=min(1.0, p - 1),
                        geometry=Geometry("uniform"), sigma=(2.0, 2.0))


def test_constant_coefficients_zero_solution():
    grid = make_cell_grid(16)
    for p in (2.0, 3.0):
        sol = solve_scalar_cell(constant_spec(p), [0.7, -0.3], grid)
        assert np.abs(sol.values).max() < 1e-12


def test_zero_loading_zero_solution():
    grid = make_cell_grid(16)
    sol = solve_scalar_cell(laminate_spec(3.0), [0.0, 0.0], grid)
    assert np.all(sol.values == 0.0)
    assert sol.iterations == 0


def test_laminate_p2_slopes():
    # frozen from the 1D flux-balance oracle: q = 1.6, slopes +-0.6
    grid = make_cell_grid(64)
    sol = solve_scalar_cell(laminate_spec(2.0), [1.0, 0.0], grid)
    grad = _fem.qp_gradient(sol.values, grid.conn, grid.h)
    phase = laminate_spec(2.0).phase(grid.qp_coords())
    assert np.abs(grad[~phase][:, 0] - 0.6).max() < 1e-9
    assert np.abs(grad[phase][:, 0] + 0.6).max() < 1e-9
    assert np.abs(grad[..., 1]).max() < 1e-9


def test_zero_mean_normalization():
    grid = make_cell_grid(32)
    for p in (2.0, 3.0):
        sol = solve_scalar_cell(laminate_spec(p), [0.3, 1.1], grid)
        assert abs(sol.values.mean()) < 1e-12


def test_corrector_flux_laminate_values():
    # oracle: per-phase flux-map values (1.6, 0) and (0.4, 0)
    q, t = laminate_flux_balance([1.0, 4.0], [0.5, 0.5], 2.0)
    assert (q, tuple(t)) == (1.6, (1.6, 0.4))
    grid = make_cell_grid(64)
    spec = laminate_spec(2.0)
    sol = solve_scalar_cell(spec, [1.0, 0.0], grid)
    p_qp = corrector_flux(spec, [1.0, 0.0], sol)
    phase = spec.phase(grid.qp_coords())
    assert np.abs(p_qp[~phase][:, 0] - 1.6).max() < 1e-9
    assert np.abs(p_qp[phase][:, 0] - 0.4).max() < 1e-9


def test_corrector_flux_constant_coefficients():
    grid = make_cell_grid(16)
    spec = constant_spec(3.0)
    sol = solve_scalar_cell(spec, [0.5, 0.5], grid)
    p_qp = corrector_flux(spec, [0.5, 0.5], sol)
    assert np.abs(p_qp - np.array([0.5, 0.5])).max() < 1e-13


def test_corrector_flux_mean_equals_loading():
    grid = make_cell_grid(32)
    spec = laminate_spec(3.0)
    rng = np.random.default_rng(4)
    for _ in range(10):
        xi = rng.standard_normal(2)
        sol = solve_scalar_cell(spec, xi, grid)
        mean = cell_average(corrector_flux(spec, xi, sol))
        assert np.abs(mean - xi).max() < 1e-10


def test_flux_identity_constant():
    grid = make_cell_grid(16)
    spec = constant_spec(2.0)
    sol = solve_scalar_cell(spec, [1.0, 2.0], grid)
    assert verify_flux_identity(spec, [1.0, 2.0], sol) < 1e-13


def test_flux_identity_laminate():
    grid = make_cell_grid(64)
    for p in (2.0, 3.0):
        spec = laminate_spec(p)
        sol = solve_scalar_cell(spec, [1.0, 0.0], grid)
        assert verify_flux_identity(spec, [1.0, 0.0], sol) <= 1e-10


def test_flux_identity_reports_unconverged_without_raising():
    grid = make_cell_grid(32)
    spec = laminate_spec(3.0)
    loose = solve_scalar_cell(spec, [1.0, 0.0], grid,
                              SolverOptions(tol=0.5, max_newton=1,
                                            max_picard=0))
    tight = solve_scalar_cell(spec, [1.0, 0.0], grid)
    r_loose = verify_flux_identity(spec, [1.0, 0.0], loose)
    r_tight = verify_flux_identity(spec, [1.0, 0.0], tight)
    assert r_loose > 1e-6 > r_tight


def test_energy_identity():
    # with the solution itself as test function the weak form gives
    # ∫ a(y,p) . grad(eta) = 0 at convergence
    grid = make_cell_grid(32)
    spec = laminate_spec(3.0)
    xi = np.array([0.8, -0.2])
    sol = solve_scalar_cell(spec, xi, grid)
    p_qp = corrector_flux(spec, xi, sol)
    a_qp = spec.flux_local(spec.local_coefficients(grid.qp_coords()), p_qp)
    grad_eta = _fem.qp_gradient(sol.values, grid.conn, grid.h)
    val = _fem.integrate_qp(grid.h, np.einsum("eqd,eqd->eq", a_qp, grad_eta))
    assert abs(val) < 1e-10


def test_refinement_decreases_flux_error():
    # against the exact laminate flux map (1.6 / 0.4 per phase)
    spec = laminate_spec(3.0)
    errs = []
    for n in (4, 8):
        grid = make_cell_grid(n)
        sol = solve_scalar_cell(spec, [1.0, 0.0], grid)
        p_qp = corrector_flux(spec, [1.0, 0.0], sol)
        phase = spec.phase(grid.qp_coords())
        exact = np.where(phase[..., None],
                         np.array([2.0 / 3.0, 0.0]),
                         np.array([4.0 / 3.0, 0.0]))
        errs.append(_fem.lp_norm_qp(grid.h, p_qp - exact, 2.0))
    # laminate profiles are piecewise linear: already at machine floor
    assert errs[1] <= errs[0] + 1e-12


def test_solver_determinism_bitwise():
    grid = make_cell_grid(32)
    spec = laminate_spec(3.0)
    s1 = solve_scalar_cell(spec, [0.3, 0.7], grid)
    s2 = solve_scalar_cell(spec, [0.3, 0.7], grid)
    assert np.array_equal(s1.values, s2.values)


def test_nonconvergence_raises():
    from hk.errors import NonConvergence
    grid = make_cell_grid(16)
    spec = laminate_spec(3.0)
    with pytest.raises(NonConvergence):
        solve_scalar_cell(spec, [1.0, 0.0], grid,
                          SolverOptions(tol=1e-14, max_newton=1,
                                        max_picard=0, max_linesearch=1))


# -- elastic cell problems ---------------------------------------------------

def elastic_laminate():
    return ElasticTensorField.from_lame((1.0, 1.0), (3.0, 2.0), LAMINATE)


def test_elastic_constant_tensor_zero_solution():
    field = ElasticTensorField.from_lame((1.0, 1.0),
                                         geometry=Geometry("uniform"))
    grid = make_cell_grid(8)
    sol = solve_elastic_cell_U(field, grid, 0, 0)
    assert np.abs(sol.values).max() < 1e-12


def test_elastic_laminate_profile():
    # responses depend only on y1 and the axial load keeps component 2 zero
    field = elastic_laminate()
    grid = make_cell_grid(32)
    sol = solve_elastic_cell_U(field, grid, 0, 0)
    vals = sol.values.reshape(grid.n, grid.n, 2)  # [iy, ix, comp]
    assert np.abs(vals - vals[0:1, :, :]).max() < 1e-9
    assert np.abs(vals[..., 1]).max() < 1e-9


def test_elastic_symmetric_load_pair():
    field = elastic_laminate()
    grid = make_cell_grid(16)
    s01 = solve_elastic_cell_U(field, grid, 0, 1)
    s10 = solve_elastic_cell_U(field, grid, 1, 0)
    assert np.abs(s01.values - s10.values).max() < 1e-12


def test_elastic_zero_mean():
    field = elastic_laminate()
    grid = make_cell_grid(16)
    sol = solve_elastic_cell_U(field, grid, 0, 0)
    assert np.abs(sol.values.mean(axis=0)).max() < 1e-12


def test_zeta_constant_coefficients():
    grid = make_cell_grid(16)
    spec = constant_spec()
    sols = [solve_scalar_cell(spec, np.eye(2)[k], grid) for k in range(2)]
    zeta = assemble_zeta(0, 1, sols[0], sols[1])
    assert np.abs(zeta - np.outer([1, 0], [0, 1])).max() < 1e-13


def test_zeta_transpose_relation():
    grid = make_cell_grid(32)
    spec = laminate_spec(2.0)
    sols = [solve_scalar_cell(spec, np.eye(2)[k], grid) for k in range(2)]
    z01 = assemble_zeta(0, 1, sols[0], sols[1])
    z10 = assemble_zeta(1, 0, sols[1], sols[0])
    assert np.abs(z01 - np.swapaxes(z10, -1, -2)).max() < 1e-14


def test_zeta_laminate_values():
    # frozen from the flux-balance oracle: diag((q/sigma)^2, 0)
    grid = make_cell_grid(64)
    spec = laminate_spec(2.0)
    sols = [solve_scalar_cell(spec, np.eye(2)[k], grid) for k in range(2)]
    zeta = assemble_zeta(0, 0, sols[0], sols[0])
    phase = spec.phase(grid.qp_coords())
    assert np.abs(zeta[~phase] - np.diag([2.56, 0.0])).max() < 1e-8
    assert np.abs(zeta[phase] - np.diag([0.16, 0.0])).max() < 1e-8


def test_electrostriction_constant_everything_zero():
    grid = make_cell_grid(8)
    field = ElasticTensorField.from_lame((2.0, 0.5),
                                         geometry=Geometry("uniform"))
    zeta = np.broadcast_to(np.outer([1, 0], [1, 0]),
                           (grid.n_elems, 4, 2, 2)).copy()
    for variant in ("C-applied", "as-written"):
        sol = solve_electrostriction_cell(field, zeta, grid, variant=variant)
        assert np.abs(sol.values).max() < 1e-12


def test_electrostriction_heterogeneous_C_nonzero():
    # constant flux map (zeta = e1 x e1) but oscillating C drives a
    # response under the C-applied variant
    grid = make_cell_grid(16)
    field = ElasticTensorField.from_lame((0.5, 0.5), (1.5, 1.0), LAMINATE)
    zeta = np.broadcast_to(np.outer([1, 0], [1, 0]),
                           (grid.n_elems, 4, 2, 2)).copy()
    sol = solve_electrostriction_cell(field, zeta, grid, variant="C-applied")
    assert np.abs(sol.values).max() > 1e-4
    # as written, a constant source is divergence-free and drives nothing
    sol2 = solve_electrostriction_cell(field, zeta, grid, variant="as-written")
    assert np.abs(sol2.values).max() < 1e-12


def test_electrostriction_constant_shift_invariance_needs_constant_C():
    # shifting zeta by a constant matrix changes nothing when C is
    # constant (under either variant); with heterogeneous C the C-applied
    # load changes
    grid = make_cell_grid(16)
    const_c = ElasticTensorField.from_lame((2.0, 0.5),
                                           geometry=Geometry("uniform"))
    het_c = ElasticTensorField.from_lame((0.5, 0.5), (1.5, 1.0), LAMINATE)
    rng = np.random.default_rng(5)
    zeta = rng.standard_normal((grid.n_elems, 4, 2, 2))
    shift = np.array([[0.3, 0.1], [0.1, -0.2]])
    for variant in ("C-applied", "as-written"):
        a = solve_electrostriction_cell(const_c, zeta, grid, variant=variant)
        b = solve_electrostriction_cell(const_c, zeta + shift, grid,
                                        variant=variant)
        assert np.abs(a.values - b.values).max() < 1e-9
    a = solve_electrostriction_cell(het_c, zeta, grid, variant="C-applied")
    b = solve_electrostriction_cell(het_c, zeta + shift, grid,
                                    variant="C-applied")
    assert np.abs(a.values - b.values).max() > 1e-4


def test_elastic_cells_are_one_direct_solve():
    field = ElasticTensorField.from_lame((1.0, 1.0), (3.0, 2.0),
                                         Geometry("square", size=0.5))
    grid = make_cell_grid(16)
    sol = solve_elastic_cell_U(field, grid, 0, 1)
    assert sol.iterations == 1
    assert sol.residual <= 1e-12
    eta = solve_scalar_cell(laminate_spec(2.0), np.eye(2)[0], grid)
    chi = solve_electrostriction_cell(field, assemble_zeta(0, 0, eta, eta),
                                      grid)
    assert chi.iterations == 1
    assert chi.residual <= 1e-12


def test_degenerate_elastic_tensor_raises_singular():
    from hk.errors import SingularSystem
    field = ElasticTensorField.from_lame((0.0, 0.0),
                                         geometry=Geometry("uniform"))
    with pytest.raises(SingularSystem):
        solve_elastic_cell_U(field, make_cell_grid(8), 0, 0)


def test_unit_strain_values():
    assert np.array_equal(unit_strain(0, 0), np.diag([1.0, 0.0]))
    assert np.array_equal(unit_strain(0, 1), np.array([[0.0, 0.5],
                                                       [0.5, 0.0]]))


def nonsymmetric_laminate():
    return OperatorSpec(family="linear", geometry=LAMINATE,
                        matrices=(((1.0, 0.5), (-0.5, 1.0)),
                                  ((4.0, 1.0), (-1.0, 4.0))))


def test_linear_cell_is_one_direct_solve():
    grid = make_cell_grid(16)
    for xi in ([1.0, 0.0], [0.0, 1.0], [0.3, -0.8]):
        sol = solve_scalar_cell(nonsymmetric_laminate(), xi, grid)
        assert sol.iterations == 1
        assert sol.residual <= 1e-12


# -- batched solver -----------------------------------------------------------

def reference_newton(spec, loading, grid):
    """Sparse pinned damped Newton for one loading, independent of the batch."""
    opts = SolverOptions()
    loc = spec.local_coefficients(grid.qp_coords())

    def total_gradient(eta):
        return loading + _fem.qp_gradient(eta, grid.conn, grid.h)

    def residual(rows, etas):
        res = _fem.divergence_residual(
            grid, spec.flux_local(loc, total_gradient(etas[0])))
        return res[None], np.array([np.linalg.norm(res)])

    def newton_step(rows, etas, res):
        jac = spec.jacobian_local(loc, total_gradient(etas[0]),
                                  delta_floor=opts.delta_jac)
        matrix = _fem.assemble_diffusion(grid.conn, grid.h, grid.n_nodes, jac)
        return _fem.solve_periodic_pinned(matrix, -res[0])[None]

    out = _fem.damped_newton(np.zeros((1, grid.n_nodes)), residual,
                             newton_step, opts.tol, opts.max_newton,
                             opts.max_linesearch)
    assert out.converged[0]
    return out.x[0] - out.x[0].mean()


def test_batch_matches_single_solves():
    grid = make_cell_grid(8)
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

    grid = make_cell_grid(8)
    spec = OperatorSpec(family="power-law", p=p, alpha=min(1.0, p - 1.0),
                        geometry=Geometry("square", size=0.5),
                        sigma=(1.0, 4.0))
    loadings = np.random.default_rng(6).uniform(-1.0, 1.0, size=(6, 2))
    batch = BatchScalarCellSolver(spec, grid, SolverOptions(max_newton=1))
    monkeypatch.setattr(cp, "solve_scalar_cell", no_single_solves)
    res = batch.solve(loadings)
    monkeypatch.undo()
    assert res.converged.all()
    assert (res.iterations > 1).all()
    for k, xi in enumerate(loadings):
        single = reference_newton(spec, xi, grid)
        assert np.abs(res.values[k] - single).max() < 1e-8


def test_batch_flags_unconverged_rows():
    grid = make_cell_grid(8)
    batch = BatchScalarCellSolver(
        laminate_spec(3.0), grid,
        SolverOptions(tol=1e-14, max_newton=1, max_picard=0))
    res = batch.solve(np.array([[1.0, 0.3], [0.0, 0.0]]))
    assert res.converged.tolist() == [False, True]
    assert res.iterations.tolist() == [1, 0]
    assert res.residuals[0] > 1e-14


def test_batch_flux_means_match_quadrature():
    grid = make_cell_grid(8)
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
    batch = BatchScalarCellSolver(laminate_spec(3.0), make_cell_grid(n))
    assert batch.bandwidth == 2 * n + 2


@pytest.mark.parametrize("n", [4, 8, 16])
def test_band_newton_step_matches_dense_solve(n):
    grid = make_cell_grid(n)
    batch = BatchScalarCellSolver(laminate_spec(3.0), grid)
    rng = np.random.default_rng(n)
    loadings = rng.uniform(-1.0, 1.0, size=(3, 2))
    etas = 0.1 * rng.standard_normal((3, grid.n_nodes))
    jac = batch._local_jacobians(loadings, etas)
    rhs = -batch._residual(loadings, etas)
    step = batch._band_solve(jac, rhs[:, :, None])[..., 0]
    for k in range(3):
        dense = _fem.assemble_diffusion(grid.conn, grid.h, grid.n_nodes,
                                        jac[k]).toarray()
        ref = np.zeros(grid.n_nodes)
        ref[1:] = np.linalg.solve(dense[1:, 1:], rhs[k, 1:])
        assert np.linalg.norm(step[k] - ref) <= 1e-12 * np.linalg.norm(ref)


def test_band_zero_coefficients_raise_singular():
    from hk.errors import SingularSystem
    grid = make_cell_grid(8)
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
        dense = _fem.assemble_diffusion(grid.conn, grid.h, grid.n_nodes,
                                        jac[k]).toarray()
        pinned = dense[np.ix_(unknowns, unknowns)]
        ab = np.zeros((bw + 1, unknowns.size))
        for i in range(bw + 1):
            ab[i, :unknowns.size - i] = np.diagonal(pinned, -i)
        out[k, unknowns] = solveh_banded(ab, rhs[k, unknowns], lower=True)
    return out


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("rows", ["one", "three", "chunk"])
@pytest.mark.parametrize("r", [1, 2])
def test_band_solve_matches_solveh_banded(n, rows, r):
    grid = make_cell_grid(n)
    batch = BatchScalarCellSolver(laminate_spec(3.0), grid)
    k = {"one": 1, "three": 3, "chunk": batch.chunk}[rows]
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


def test_band_solve_names_the_indefinite_row():
    from hk.errors import SingularSystem
    grid = make_cell_grid(8)
    batch = BatchScalarCellSolver(laminate_spec(3.0), grid)
    rng = np.random.default_rng(3)
    loadings = rng.uniform(-1.0, 1.0, size=(3, 2))
    jac = batch._local_jacobians(loadings, np.zeros((3, grid.n_nodes)))
    jac[1] *= -1.0
    with pytest.raises(SingularSystem, match="batch row 1 "):
        batch._band_solve(jac, np.ones((3, grid.n_nodes, 1)))


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128])
def test_batch_chunk_within_budget(n):
    from hk.cell_problems import CHUNK_BUDGET_BYTES, MAX_CHUNK
    batch = BatchScalarCellSolver(laminate_spec(3.0), make_cell_grid(n))
    assert batch.chunk * batch.loading_bytes <= CHUNK_BUDGET_BYTES
    # the largest chunk that fits, up to MAX_CHUNK
    assert (batch.chunk == MAX_CHUNK
            or (batch.chunk + 1) * batch.loading_bytes > CHUNK_BUDGET_BYTES)
    if n <= 8:
        assert batch.chunk == MAX_CHUNK
