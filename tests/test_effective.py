import numpy as np
import pytest

from hk import _fem
from hk.cell_problems import solve_scalar_cell
from hk._fem import isotropic_tensor
from hk.constitutive import ElasticTensorField, Geometry, OperatorSpec
from hk.core_fields import CellGrid
from hk.effective import (EffectiveLaw, assemble_elastic_tensors,
                          check_a_hom_properties)

from oracles import (effective_eval, laminate_elastic_tensor,
                     laminate_flux_balance, laminate_transverse_mean)

LAMINATE = Geometry(kind="laminate", fraction=0.5)


def linear_laminate():
    return OperatorSpec(family="linear", geometry=LAMINATE, sigma=(1.0, 4.0))


def p3_laminate():
    return OperatorSpec(family="power-law", p=3.0, alpha=1.0,
                        geometry=LAMINATE, sigma=(1.0, 4.0))


def unit_potentials(spec, grid):
    """Cell solutions at e_1 and e_2, (2, n^2)."""
    return EffectiveLaw(spec, grid).solutions_for(np.eye(2))


def b_hom(field, grid):
    """B_hom alone: C = B and zero unit potentials."""
    return assemble_elastic_tensors(field, field,
                                    np.zeros((2, grid.n_nodes)), grid)[0]


def test_a_hom_constant_matrix():
    b = np.array([[2.0, 0.5], [0.5, 1.0]])
    spec = OperatorSpec(family="linear", geometry=Geometry("uniform"),
                        matrices=(b, b))
    law = EffectiveLaw(spec, CellGrid(8))
    xi = np.array([0.3, -0.7])
    assert np.abs(effective_eval(law, xi) - b @ xi).max() < 1e-12


def test_a_hom_laminate_p2_means():
    # classical laminate: harmonic mean 1.6 axially, arithmetic 2.5 across
    q, _ = laminate_flux_balance([1.0, 4.0], [0.5, 0.5], 2.0)
    mean_t = laminate_transverse_mean([1.0, 4.0], [0.5, 0.5], 2.0)
    assert (q, mean_t) == (1.6, 2.5)
    law = EffectiveLaw(linear_laminate(), CellGrid(128))
    a1 = effective_eval(law, [1.0, 0.0])
    a2 = effective_eval(law, [0.0, 1.0])
    assert abs(a1[0] - 1.6) / 1.6 < 1e-3
    assert abs(a2[1] - 2.5) / 2.5 < 1e-3


def test_a_hom_laminate_p3_flux_balance():
    q, _ = laminate_flux_balance([1.0, 4.0], [0.5, 0.5], 3.0)
    assert abs(q - 16.0 / 9.0) < 1e-15
    val = effective_eval(EffectiveLaw(p3_laminate(), CellGrid(128)),
                         [1.0, 0.0])
    assert abs(val[0] - q) / q < 1e-3


def test_a_hom_cache_hits():
    law = EffectiveLaw(p3_laminate(), CellGrid(8))
    v1 = effective_eval(law, [0.5, 0.25])
    v2 = effective_eval(law, [0.5, 0.25])
    assert np.array_equal(v1, v2)


def test_linear_case_b_hom_identity():
    spec = OperatorSpec(family="linear", geometry=Geometry("uniform"),
                        sigma=(1.0, 1.0))
    # b_hom's columns are a_hom(e_k), as ``hk effective`` reports them
    bhom = EffectiveLaw(spec, CellGrid(8)).eval_batch(np.eye(2)).T
    assert np.abs(bhom - np.eye(2)).max() < 1e-12


def test_linear_case_b_hom_laminate():
    bhom = EffectiveLaw(linear_laminate(), CellGrid(64)).matrix
    assert abs(bhom[0, 0] - 1.6) / 1.6 < 1e-3
    assert abs(bhom[1, 1] - 2.5) / 2.5 < 1e-3
    assert abs(bhom[0, 1]) < 1e-10


def test_linear_consistency_two_paths():
    grid = CellGrid(32)
    spec = linear_laminate()
    law = EffectiveLaw(spec, grid)
    bhom = law.matrix
    rng = np.random.default_rng(7)
    for _ in range(10):
        xi = rng.standard_normal(2)
        rel = np.abs(effective_eval(law, xi) - bhom @ xi).max() \
            / (np.abs(bhom @ xi).max())
        assert rel < 1e-8


def test_linear_case_b_hom_nonsymmetric_laminate():
    # flux balance across the layers: the normal flux and the tangential
    # gradient are continuous, the normal gradient averages to the loading
    spec = OperatorSpec(family="linear", geometry=LAMINATE,
                        matrices=(((1.0, 0.5), (-0.5, 1.0)),
                                  ((4.0, 1.0), (-1.0, 4.0))))
    bhom = EffectiveLaw(spec, CellGrid(16)).matrix
    assert np.abs(bhom - np.array([[1.6, 0.6], [-0.6, 2.525]])).max() < 1e-10


def test_linear_law_solves_unit_loadings_once(monkeypatch):
    # both unit loadings share one factorization of the cell stiffness
    calls = []
    splu = _fem._splu

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return splu(*args, **kwargs)

    monkeypatch.setattr(_fem, "_splu", counted)
    grid = CellGrid(16)
    law = EffectiveLaw(linear_laminate(), grid)
    basis = law.solutions_for(np.eye(2))
    monkeypatch.undo()
    assert len(calls) == 1
    for k in range(2):
        assert np.array_equal(
            basis[k], solve_scalar_cell(law.spec, np.eye(2)[k], grid).values)


def test_hill_bounds_linear():
    bhom = EffectiveLaw(linear_laminate(), CellGrid(64)).matrix
    eigs = np.linalg.eigvalsh(0.5 * (bhom + bhom.T))
    assert eigs.min() >= 1.6 - 1e-6      # harmonic mean
    assert eigs.max() <= 2.5 + 1e-6      # arithmetic mean


def test_a_hom_power_law_homogeneity():
    law = EffectiveLaw(p3_laminate(), CellGrid(16))
    xi = np.array([0.4, -0.9])
    base = effective_eval(law, xi)
    for t in (0.5, 2.0):
        scaled = effective_eval(law, t * xi)
        rel = np.abs(scaled - t ** 2 * base).max() / np.abs(scaled).max()
        assert rel < 1e-6


def test_a_hom_checkerboard_rotation_equivariance():
    spec = OperatorSpec(family="linear", geometry=Geometry("checkerboard"),
                        sigma=(1.0, 4.0))
    law = EffectiveLaw(spec, CellGrid(32))
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    rng = np.random.default_rng(8)
    for _ in range(5):
        xi = rng.standard_normal(2)
        lhs = effective_eval(law, rot @ xi)
        rhs = rot @ effective_eval(law, xi)
        assert np.abs(lhs - rhs).max() / np.abs(rhs).max() < 1e-6


def test_check_a_hom_properties_theta():
    law = EffectiveLaw(linear_laminate(), CellGrid(16))
    rep = check_a_hom_properties(law, seed=0)
    assert rep.theta == 1.0  # alpha = 1, p = 2
    assert not rep.violation


def test_check_a_hom_properties_linear_constant_ratio():
    spec = OperatorSpec(family="linear", geometry=Geometry("uniform"),
                        sigma=(3.0, 3.0))
    law = EffectiveLaw(spec, CellGrid(8))
    rep = check_a_hom_properties(law, seed=1)
    # the monotonicity ratio is exactly the conductivity; the continuity
    # ratio carries the (1+|xi1|^2+|xi2|^2)^(theta/2) weight on top
    assert abs(rep.min_monotonicity - 3.0) < 1e-10
    assert rep.max_continuity >= 3.0


def test_check_a_hom_properties_p3_positive():
    law = EffectiveLaw(p3_laminate(), CellGrid(8))
    for seed in range(3):
        rep = check_a_hom_properties(law, seed=seed)
        assert rep.min_monotonicity > 0.0


# -- effective elasticity -----------------------------------------------------

def test_b_hom_constant_tensor():
    field = ElasticTensorField.from_lame((1.0, 1.0),
                                         geometry=Geometry("uniform"))
    eff = b_hom(field, CellGrid(8))
    # restricted to symmetric action the constant tensor is recovered
    sym_strains = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
                   np.array([[0.0, 0.5], [0.5, 0.0]])]
    ref = isotropic_tensor(1.0, 1.0)
    for s in sym_strains:
        lhs = np.einsum("ijmn,mn->ij", eff.tensor, s)
        rhs = np.einsum("ijmn,mn->ij", ref, s)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_b_hom_major_minor_symmetry():
    field = ElasticTensorField.from_lame((1.0, 1.0), (3.0, 2.0), LAMINATE)
    t = b_hom(field, CellGrid(32)).tensor
    assert np.abs(t - np.transpose(t, (2, 3, 0, 1))).max() < 1e-10
    assert np.abs(t - np.transpose(t, (1, 0, 2, 3))).max() < 1e-10
    assert np.abs(t - np.transpose(t, (0, 1, 3, 2))).max() < 1e-10


def test_b_hom_laminate_against_strip_oracle():
    response, _ = laminate_elastic_tensor((1.0, 1.0), (3.0, 2.0))
    # frozen oracle values: axial Reuss mean of (lam + 2 mu) is 4.2
    assert abs(response[0, 0] - 4.2) < 1e-12
    field = ElasticTensorField.from_lame((1.0, 1.0), (3.0, 2.0), LAMINATE)
    t = b_hom(field, CellGrid(16)).tensor
    assert abs(t[0, 0, 0, 0] - response[0, 0]) / response[0, 0] < 1e-3
    assert abs(t[1, 1, 1, 1] - response[1, 1]) / response[1, 1] < 1e-3
    assert abs(t[0, 0, 1, 1] - response[1, 0]) / abs(response[1, 0]) < 1e-3
    assert abs(t[0, 1, 0, 1] - response[2, 2]) / response[2, 2] < 1e-3


def test_b_hom_positive_definite_on_symmetric():
    field = ElasticTensorField.from_lame((1.0, 1.0), (3.0, 2.0), LAMINATE)
    t = b_hom(field, CellGrid(16)).tensor
    rng = np.random.default_rng(9)
    for _ in range(100):
        c = rng.standard_normal((2, 2))
        c = 0.5 * (c + c.T)
        val = np.einsum("ijmn,ij,mn->", t, c, c)
        assert val > 0.0


# -- effective electrostriction ----------------------------------------------

def test_c_hom_constant_applied_recovers_fine_law():
    cfield = ElasticTensorField.from_lame((2.0, 0.5),
                                          geometry=Geometry("uniform"))
    spec = OperatorSpec(family="linear", geometry=Geometry("uniform"),
                        sigma=(1.0, 1.0))
    grid = CellGrid(8)
    eff = assemble_elastic_tensors(cfield, cfield,
                                   unit_potentials(spec, grid), grid)[1]
    ref = isotropic_tensor(2.0, 0.5)
    rng = np.random.default_rng(10)
    for _ in range(5):
        m = rng.standard_normal((2, 2))
        lhs = eff.apply(m)
        rhs = np.einsum("ijkh,kh->ij", ref, m)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_c_hom_is_one_factorization_matching_per_pair_solves(monkeypatch):
    # the three unit strains and the three distinct sources share one
    # factorization of the B stiffness, with B = C and with a B of its own;
    # every pair, (1, 0) solved from its own source included, matches a
    # solve of its own bit for bit
    from hk import _fem
    from hk.cell_problems import (electric_stress, solve_elastic_cell_U,
                                  solve_electrostriction_cell)
    cfield = ElasticTensorField.from_lame((0.5, 0.5), (1.5, 1.0), LAMINATE)
    grid = CellGrid(16)
    etas = unit_potentials(p3_laminate(), grid)
    fluxes = [np.eye(2)[k] + _fem.qp_gradient(etas[k], grid.conn, grid.h)
              for k in range(2)]
    splu = _fem._splu
    for bfield in (cfield, ElasticTensorField.from_lame((1.0, 1.0),
                                                        (3.0, 2.0), LAMINATE)):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return splu(*args, **kwargs)

        monkeypatch.setattr(_fem, "_splu", counted)
        b_eff, eff = assemble_elastic_tensors(bfield, cfield, etas, grid)
        monkeypatch.undo()
        assert len(calls) == 1
        lam, mu = bfield.lame_at(grid.qp_coords())
        for i in range(2):
            for j in range(2):
                zeta = fluxes[i][..., :, None] * fluxes[j][..., None, :]
                chi = solve_electrostriction_cell(bfield, cfield, zeta, grid,
                                                  (i, j))
                grad = _fem.qp_gradient(chi.values, grid.conn, grid.h)
                value = _fem.integrate_qp(grid.h, _fem.isotropic_stress(
                    lam, mu, 0.5 * (grad + np.swapaxes(grad, -1, -2)))
                    + electric_stress(cfield, grid, zeta))
                assert np.array_equal(eff.pair_matrices[i, j], value)
                assert np.array_equal(eff.solutions[(i, j)].values,
                                      chi.values)
        for (i, j), sol in b_eff.solutions.items():
            assert np.array_equal(
                sol.values, solve_elastic_cell_U(bfield, grid, i, j).values)


@pytest.mark.parametrize("c_lame", [None, ((1.5, 1.0), (0.5, 0.5))],
                         ids=["C=B/2", "swapped-C"])
@pytest.mark.parametrize("preset", ["laminate-p2", "laminate-p3",
                                    "checkerboard-p2", "variable-exponent"])
def test_c_hom_equals_adjoint_average(preset, c_lame):
    # testing the chi equation with U^mn and the U^mn equation with chi
    # gives C_hom[i, j]_mn = ∫ C sym(zeta_ij) : S^mn, S^mn = E^mn - D(U^mn),
    # exactly in the discrete space; a chi solved against C's stiffness
    # misses it by up to 122% when C is not a multiple of B
    from hk import _fem
    from hk.cell_problems import electric_stress, unit_strain
    from hk.cli import build_spec, build_tensors, load_config, validate_config
    cfg = load_config(preset)
    if c_lame is not None:
        cfg["elasticity"]["C"] = {"matrix": list(c_lame[0]),
                                  "inclusion": list(c_lame[1])}
    cfg = validate_config(cfg)
    tensor_b, tensor_c = build_tensors(cfg)
    grid = CellGrid(16)
    etas = unit_potentials(build_spec(cfg), grid)
    b_eff, c_eff = assemble_elastic_tensors(tensor_b, tensor_c, etas, grid)
    fluxes = [np.eye(2)[k] + _fem.qp_gradient(etas[k], grid.conn, grid.h)
              for k in range(2)]
    adjoint = np.zeros((2, 2, 2, 2))
    for i in range(2):
        for j in range(2):
            zeta = fluxes[i][..., :, None] * fluxes[j][..., None, :]
            tau = electric_stress(tensor_c, grid, zeta)
            for m in range(2):
                for n in range(2):
                    u = b_eff.solutions[(min(m, n), max(m, n))].values
                    grad = _fem.qp_gradient(u, grid.conn, grid.h)
                    s = unit_strain(m, n) \
                        - 0.5 * (grad + np.swapaxes(grad, -1, -2))
                    adjoint[i, j, m, n] = _fem.integrate_qp(
                        grid.h, (tau * s).sum(axis=(-2, -1)))
    scale = np.abs(c_eff.pair_matrices).max()
    assert np.abs(c_eff.pair_matrices - adjoint).max() <= 1e-13 * scale


# -- consistent tangent ---------------------------------------------------------

def variable_exponent_square():
    return OperatorSpec(family="variable-exponent", p=2.0, alpha=1.0,
                        geometry=Geometry("square", size=0.5),
                        sigma=(1.0, 1.0), exponent=(3.0, 2.0))


def central_difference(law, loadings):
    h = 1e-6 * (1.0 + np.linalg.norm(loadings, axis=1))
    fd = np.zeros((loadings.shape[0], 2, 2))
    for j in range(2):
        step = h[:, None] * np.eye(2)[j]
        fd[:, :, j] = (law.eval_batch(loadings + step)
                       - law.eval_batch(loadings - step)) / (2.0 * h[:, None])
    return fd


@pytest.mark.parametrize("cell_n", [8, 16])
@pytest.mark.parametrize("make_spec", [p3_laminate, variable_exponent_square])
def test_jacobian_is_consistent_tangent(cell_n, make_spec):
    law = EffectiveLaw(make_spec(), CellGrid(cell_n))
    loadings = np.random.default_rng(11).standard_normal((3, 2))
    jac, _ = law.jacobian_batch(loadings, law.solutions_for(loadings))
    fd = central_difference(law, loadings)
    assert jac.shape == (3, 2, 2)
    assert np.abs(jac - fd).max() <= 1e-6 * np.abs(fd).max()


def test_jacobian_sparse_path_matches_central_difference():
    # cell_n > 32 runs the same batched banded solver as the small grids
    law = EffectiveLaw(p3_laminate(), CellGrid(64))
    assert law.batch.bandwidth == 2 * 64 + 2
    loadings = np.array([[0.8, -0.3]])
    fd = central_difference(law, loadings)
    jac, _ = law.jacobian_batch(loadings, law.solutions_for(loadings))
    assert np.abs(jac - fd).max() \
        <= 1e-6 * np.abs(fd).max()


def test_jacobian_reuses_cached_solutions(monkeypatch):
    from hk.cell_problems import BatchScalarCellSolver
    law = EffectiveLaw(p3_laminate(), CellGrid(8))
    loadings = np.array([[0.5, 0.25], [-1.0, 0.5]])
    solved, _ = law.jacobian_batch(loadings, law.solutions_for(loadings))
    _, etas = law.solve(loadings)

    def no_solve(*args, **kwargs):
        raise AssertionError("cell solve with the solutions given")

    monkeypatch.setattr(BatchScalarCellSolver, "solve", no_solve)
    given, _ = law.jacobian_batch(loadings, etas)
    assert np.array_equal(given, solved)


@pytest.mark.parametrize("make_spec", [p3_laminate, variable_exponent_square])
def test_cell_solution_derivative_matches_central_difference(make_spec):
    # W = d eta / d xi comes out of the tangent solve
    law = EffectiveLaw(make_spec(), CellGrid(8))
    loadings = np.random.default_rng(12).standard_normal((3, 2))
    _, w = law.jacobian_batch(loadings, law.solutions_for(loadings))
    h = 1e-6 * (1.0 + np.linalg.norm(loadings, axis=1))
    fd = np.zeros_like(w)
    for j in range(2):
        step = h[:, None] * np.eye(2)[j]
        fd[..., j] = (law.solutions_for(loadings + step)
                      - law.solutions_for(loadings - step)) / (2.0 * h[:, None])
    assert w.shape == (3, law.grid.n_nodes, 2)
    assert np.abs(w.mean(axis=1)).max() < 1e-14
    assert np.abs(w - fd).max() <= 1e-6 * np.abs(fd).max()


def test_eval_batch_builds_no_potential_table():
    import tracemalloc
    law = EffectiveLaw(linear_laminate(), CellGrid(16))
    loadings = np.random.default_rng(13).standard_normal((4096, 2))
    expected = law.solve(loadings)[0]
    table_bytes = 8 * loadings.shape[0] * law.grid.n_nodes
    tracemalloc.start()
    try:
        flux = law.eval_batch(loadings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(flux, expected)
    assert peak < table_bytes / 8


@pytest.mark.parametrize("spec", [
    OperatorSpec(family="power-law", p=3.0, alpha=1.0,
                 geometry=Geometry("uniform"), sigma=(2.0, 2.0)),
    OperatorSpec(family="power-law", p=3.0, alpha=1.0, geometry=LAMINATE,
                 sigma=(2.0, 2.0)),
    OperatorSpec(family="power-law", p=2.5, alpha=1.0, delta=0.1,
                 geometry=Geometry("square", size=0.5), sigma=(2.0, 2.0)),
    OperatorSpec(family="linear", geometry=Geometry("uniform"),
                 sigma=(2.0, 2.0)),
], ids=["uniform-p3", "laminate-p3", "square-p2.5", "uniform-linear"])
def test_constant_law_runs_the_general_path_at_eta_zero(spec):
    # a law that does not depend on y has eta = 0, so the nonlinear ones
    # meet the cell tolerance at the zero start with no Newton step, and
    # every law's flux and tangent are its pointwise ones
    law = EffectiveLaw(spec, CellGrid(8))
    assert law.mode == ("linear" if spec.is_linear else "general")
    loadings = np.random.default_rng(17).standard_normal((16, 2))
    flux, etas = law.solve(loadings)
    jac = law.jacobian_batch(loadings, etas)[0]
    loc = spec.local_coefficients(np.zeros_like(loadings))
    ref_flux = spec.flux_local(loc, loadings)
    ref_jac = spec.jacobian_local(loc, loadings, delta_floor=_fem.DELTA_JAC)
    assert np.abs(etas).max() <= 1e-14
    assert np.abs(flux - ref_flux).max() <= 1e-14 * np.abs(ref_flux).max()
    assert np.abs(jac - ref_jac).max() <= 1e-13
    if law.mode == "general":
        assert law.batch.solve(loadings).iterations.sum() == 0


def test_solutions_for_takes_no_flux_means(monkeypatch):
    # the cell potentials alone: no flux means are computed and dropped
    law = EffectiveLaw(p3_laminate(), CellGrid(8))
    calls = []
    flux_means = type(law.batch).flux_means
    monkeypatch.setattr(type(law.batch), "flux_means",
                        lambda self, result: calls.append(1)
                        or flux_means(self, result))
    loadings = np.array([[1.0, 0.0], [0.3, -0.5]])
    etas = law.solutions_for(loadings)
    assert calls == []
    assert np.array_equal(etas, law.solve(loadings)[1])
    assert len(calls) == 1


def test_solutions_for_raises_nonconvergence(monkeypatch):
    from hk.errors import NonConvergence
    monkeypatch.setattr(_fem, "MAX_NEWTON", 1)
    monkeypatch.setattr(_fem, "MAX_PICARD", 0)
    law = EffectiveLaw(p3_laminate(), CellGrid(8))
    with pytest.raises(NonConvergence, match="batched cell solves"):
        law.solutions_for(np.array([[2.0, 1.0]]))
