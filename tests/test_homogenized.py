import numpy as np
import pytest

from hk import _fem, homogenized
from hk.constitutive import ElasticTensorField, Geometry, OperatorSpec
from hk.core_fields import CellGrid, DomainGrid, ScalarField
from hk.effective import EffectiveLaw, assemble_elastic_tensors
from hk.fine_scale import solve_fine_elasticity, solve_fine_electrostatic
from hk.homogenized import (macroscopic_gradient_field,
                            reconstruct_phi1,
                            solve_homogenized_elasticity,
                            solve_homogenized_electrostatic)

LAMINATE = Geometry(kind="laminate", fraction=0.5)
UNIFORM = Geometry("uniform")

from oracles import (grad_y_fields, laminate_flux_balance, node_coords,
                     point_eval, spy_batch_solves)


def test_zero_source_zero_potential():
    spec = OperatorSpec(family="linear", geometry=UNIFORM, sigma=(1.0, 1.0))
    law = EffectiveLaw(spec, CellGrid(8))
    sol = solve_homogenized_electrostatic(law, 0.0, DomainGrid(16))
    assert np.abs(sol.potential.values).max() < 1e-14


def test_linear_law_matches_direct_solve():
    spec = OperatorSpec(family="linear", geometry=LAMINATE, sigma=(1.0, 4.0))
    grid = CellGrid(32)
    law = EffectiveLaw(spec, grid)
    dom = DomainGrid(24)
    macro = solve_homogenized_electrostatic(law, 1.0, dom)
    # direct path: assemble the constant-matrix diffusion problem by hand
    coef = np.broadcast_to(law.matrix, (dom.n_elems, 4, 2, 2))
    block = _fem.assemble_diffusion(dom, coef)
    rhs = _fem.load_vector(dom, np.ones((dom.n_elems, 4)))
    direct = _fem.solve_dirichlet(block, rhs, dom)
    assert np.abs(macro.potential.values - direct).max() < 1e-10
    assert macro.cell_potentials is None


def test_constant_law_equals_fine_solve():
    spec = OperatorSpec(family="power-law", p=3.0, alpha=1.0,
                        geometry=UNIFORM, sigma=(2.0, 2.0))
    law = EffectiveLaw(spec, CellGrid(8))
    dom = DomainGrid(32)
    macro = solve_homogenized_electrostatic(law, 1.0, dom, 1e-12)
    for eps in (0.5, 0.25):
        fine = solve_fine_electrostatic(spec, eps, 1.0, dom, 1e-12)
        assert np.abs(macro.potential.values
                      - fine.potential.values).max() < 1e-12


def test_newton_quadratic_phase():
    spec = OperatorSpec(family="power-law", p=3.0, alpha=1.0,
                        geometry=LAMINATE, sigma=(1.0, 4.0))
    law = EffectiveLaw(spec, CellGrid(8))
    macro = solve_homogenized_electrostatic(law, 1.0, DomainGrid(16))
    hist = macro.residual_history
    assert hist[-1] / hist[-2] < 0.2
    assert hist[-2] / hist[-3] < 0.2


def test_macro_newton_budget_raises_with_residual_and_count(monkeypatch):
    from hk.errors import NonConvergence
    spec = OperatorSpec(family="power-law", p=3.0, alpha=1.0,
                        geometry=LAMINATE, sigma=(1.0, 4.0))
    law = EffectiveLaw(spec, CellGrid(8))
    monkeypatch.setattr(homogenized, "MACRO_MAX_ITER", 1)
    with pytest.raises(NonConvergence, match="after 1 iterations") as info:
        solve_homogenized_electrostatic(law, 1.0, DomainGrid(16))
    assert info.value.iterations == 1
    assert info.value.residual > homogenized.MACRO_TOL


def _reconstruct(law, macro, sample=None):
    """``reconstruct_phi1`` as the study calls it.

    It reads the recovered gradient of the macro potential and starts
    from the macro solve's cell potentials.
    """
    phi0 = macro.potential
    return reconstruct_phi1(law, phi0, sample or phi0.grid,
                            macroscopic_gradient_field(phi0),
                            macro.cell_potentials)


def test_reconstruct_phi1_constant_coefficients():
    spec = OperatorSpec(family="linear", geometry=UNIFORM, sigma=(2.0, 2.0))
    law = EffectiveLaw(spec, CellGrid(8))
    macro = solve_homogenized_electrostatic(law, 1.0, DomainGrid(16))
    corr = _reconstruct(law, macro)
    assert np.abs(corr.potentials).max() == 0.0


def test_reconstruct_phi1_mean_zero():
    spec = OperatorSpec(family="power-law", p=3.0, alpha=1.0,
                        geometry=LAMINATE, sigma=(1.0, 4.0))
    law = EffectiveLaw(spec, CellGrid(8))
    macro = solve_homogenized_electrostatic(law, 1.0, DomainGrid(8))
    corr = _reconstruct(law, macro)
    assert np.abs(corr.potentials.mean(axis=1)).max() < 1e-10


def test_reconstruct_phi1_linear_laminate_formula():
    # gradient of the corrector equals (q/sigma - 1) * d1 phi0 axially
    spec = OperatorSpec(family="linear", geometry=LAMINATE, sigma=(1.0, 4.0))
    cell = CellGrid(32)
    law = EffectiveLaw(spec, cell)
    macro = solve_homogenized_electrostatic(law, 1.0, DomainGrid(16))
    corr = _reconstruct(law, macro)
    q, _ = laminate_flux_balance([1.0, 4.0], [0.5, 0.5], 2.0)
    k = 7  # arbitrary sample quadrature point
    grads = grad_y_fields(corr, [k])[0]
    phase = spec.geometry.indicator(cell.qp_coords())
    d1 = corr.loadings[k][0]
    expect_matrix = (q / 1.0 - 1.0) * d1
    expect_incl = (q / 4.0 - 1.0) * d1
    assert np.abs(grads[~phase][:, 0] - expect_matrix).max() < 1e-9
    assert np.abs(grads[phase][:, 0] - expect_incl).max() < 1e-9
    assert np.abs(grads[..., 1]).max() < 1e-9


def test_identity_residuals_at_every_sample_point():
    spec = OperatorSpec(family="power-law", p=3.0, alpha=1.0,
                        geometry=LAMINATE, sigma=(1.0, 4.0))
    law = EffectiveLaw(spec, CellGrid(8))
    macro = solve_homogenized_electrostatic(law, 1.0, DomainGrid(16))
    corr = _reconstruct(law, macro)
    assert corr.identity_residuals.max() <= 1e-9
    assert corr.cell_residuals.max() <= 1e-9


def test_reconstruct_phi1_residuals_on_fine_cell_grid():
    # cell_n = 64 takes the same batched path as the small grids, so the
    # attached solves report their actual residuals
    spec = OperatorSpec(family="power-law", p=3.0, alpha=1.0,
                        geometry=LAMINATE, sigma=(1.0, 4.0))
    law = EffectiveLaw(spec, CellGrid(64))
    dom = DomainGrid(4)
    xy = node_coords(dom)
    phi0 = ScalarField(dom, xy[:, 0] + 0.5 * xy[:, 1])  # one loading
    corr = reconstruct_phi1(law, phi0, dom, macroscopic_gradient_field(phi0),
                            None)
    scale = _fem.CELL_TOL * max(1.0, np.linalg.norm([1.0, 0.5])) ** 2
    for res in (corr.cell_residuals, corr.identity_residuals):
        assert np.isfinite(res).all()
    assert 0.0 < corr.cell_residuals.max() <= scale
    assert corr.identity_residuals.max() <= 1e-9


def test_recovered_gradient_superconvergence():
    # recovered gradients converge at second order where the raw Q1
    # gradient is first order
    raw, rec = [], []
    for n in (8, 16, 32):
        dom = DomainGrid(n)
        pts = node_coords(dom)
        vals = np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
        from hk.core_fields import ScalarField
        phi = ScalarField(dom, vals)
        qp = dom.qp_coords()
        exact = np.stack([
            np.pi * np.cos(np.pi * qp[..., 0]) * np.sin(np.pi * qp[..., 1]),
            np.pi * np.sin(np.pi * qp[..., 0]) * np.cos(np.pi * qp[..., 1]),
        ], axis=-1)
        g_raw = _fem.qp_gradient(vals, dom.conn, dom.h)
        field = macroscopic_gradient_field(phi)
        g_rec = point_eval(field.values, dom.conn, dom.h, dom.n,
                           dom.origin, qp)
        # interior mask to dodge the one-sided boundary recovery
        ids = np.arange(dom.n_elems).reshape(dom.n, dom.n)
        inner = np.zeros((dom.n, dom.n), dtype=bool)
        inner[2:-2, 2:-2] = True
        mask = inner.ravel()
        raw.append(np.abs((g_raw - exact)[mask]).max())
        rec.append(np.abs((g_rec - exact)[mask]).max())
    raw_rate = np.log2(raw[1] / raw[2])
    rec_rate = np.log2(rec[1] / rec[2])
    assert raw_rate < 1.5
    assert rec_rate > 1.8


# -- homogenized elasticity ----------------------------------------------------

def test_elasticity_zero_loads_zero_displacement():
    b = ElasticTensorField.from_lame((1.0, 1.0), geometry=UNIFORM)
    cell = CellGrid(8)
    b_eff, c_eff = assemble_elastic_tensors(
        b, b, np.zeros((2, cell.n_nodes)), cell)
    dom = DomainGrid(16)
    u, _ = solve_homogenized_elasticity(
        b_eff, c_eff, np.zeros(2), ScalarField(dom, np.zeros(dom.n_nodes)),
        dom)
    assert np.abs(u.values).max() < 1e-14


def test_constant_coefficients_fine_equals_homogenized():
    spec = OperatorSpec(family="linear", geometry=UNIFORM, sigma=(2.0, 2.0))
    cell = CellGrid(8)
    law = EffectiveLaw(spec, cell)
    b = ElasticTensorField.from_lame((1.0, 1.0), geometry=UNIFORM)
    c = ElasticTensorField.from_lame((0.5, 0.25), geometry=UNIFORM)
    dom = DomainGrid(32)
    macro = solve_homogenized_electrostatic(law, 1.0, dom, 1e-12)
    b_eff, c_eff = assemble_elastic_tensors(b, c, law.solutions_for(np.eye(2)),
                                            cell)
    g = np.array([0.0, -1.0])
    u0, _ = solve_homogenized_elasticity(b_eff, c_eff, g, macro.potential, dom)
    for eps in (0.5, 0.25):
        fine = solve_fine_electrostatic(spec, eps, 1.0, dom, 1e-12)
        u_eps, _ = solve_fine_elasticity(b, c, eps, g, fine.potential, dom)
        assert np.abs(u_eps.values - u0.values).max() < 1e-12


def test_displacement_converges_when_c_is_not_a_multiple_of_b():
    # the electrostriction cell problem solves against B's stiffness, as
    # the fine system does; solved against C's instead, this ladder stalls
    # at 1.13e-3 (fitted rate 0.11)
    from hk.corrector import fit_rate, study_source
    spec = OperatorSpec(family="linear", geometry=LAMINATE, sigma=(1.0, 4.0))
    b = ElasticTensorField.from_lame((1.0, 1.0), (3.0, 2.0), LAMINATE)
    c = ElasticTensorField.from_lame((1.5, 1.0), (0.5, 0.5), LAMINATE)
    cell = CellGrid(8)
    law = EffectiveLaw(spec, cell)
    b_eff, c_eff = assemble_elastic_tensors(b, c, law.solutions_for(np.eye(2)),
                                            cell)
    dom = DomainGrid(32)
    g = np.zeros(2)
    macro = solve_homogenized_electrostatic(law, study_source, dom)
    u0, _ = solve_homogenized_elasticity(b_eff, c_eff, g, macro.potential, dom)
    ladder = (0.25, 0.125, 0.0625)
    errors = []
    for eps in ladder:
        fine_dom = DomainGrid(int(round(8 / eps)))
        fine = solve_fine_electrostatic(spec, eps, study_source, fine_dom)
        u_eps, _ = solve_fine_elasticity(b, c, eps, g, fine.potential,
                                         fine_dom)
        diff = _fem.qp_values(u_eps.values, fine_dom.conn) - point_eval(
            u0.values, dom.conn, dom.h, dom.n, dom.origin,
            fine_dom.qp_coords())
        errors.append(np.sqrt(_fem.integrate_qp(
            fine_dom.h, (diff * diff).sum(axis=-1))))
    assert errors[0] > errors[1] > errors[2]
    assert fit_rate(ladder, errors) >= 0.8


def test_macro_newton_solves_each_loading_once(monkeypatch):
    calls = spy_batch_solves(monkeypatch)
    spec = OperatorSpec(family="power-law", p=3.0, alpha=1.0,
                        geometry=LAMINATE, sigma=(1.0, 4.0))
    law = EffectiveLaw(spec, CellGrid(8))
    macro = solve_homogenized_electrostatic(law, 1.0, DomainGrid(8))
    assert macro.iterations >= 2
    solved = [(round(float(xi[0]), 12), round(float(xi[1]), 12))
              for c in calls for xi in c.loadings]
    assert solved
    assert len(solved) == len(set(solved))
    assert law.provenance()["jacobian"] == "consistent tangent"


def test_macro_returns_cell_potentials_of_final_iterate():
    # the potentials come from the residual of the final iterate, not from
    # the iterate Newton stepped from or an earlier line-search trial
    from hk.cell_problems import _tol_scale
    spec = OperatorSpec(family="power-law", p=3.0, alpha=1.0,
                        geometry=LAMINATE, sigma=(1.0, 4.0))
    law = EffectiveLaw(spec, CellGrid(8))
    dom = DomainGrid(8)
    macro = solve_homogenized_electrostatic(law, 1.0, dom)
    assert macro.iterations >= 2
    assert macro.cell_potentials.shape == (4 * dom.n_elems, law.grid.n_nodes)
    grads = _fem.qp_gradient(macro.potential.values, dom.conn,
                             dom.h).reshape(-1, 2)
    cell, _ = law.batch.attached_residuals(grads, macro.cell_potentials)
    assert (cell <= law.tol * _tol_scale(spec, grads)).all()


def test_constant_law_macro_cell_potentials_vanish():
    # a law that does not depend on y runs the general path: its macro
    # solve keeps cell potentials, and they are eta = 0 to rounding
    spec = OperatorSpec(family="power-law", p=3.0, alpha=1.0,
                        geometry=UNIFORM, sigma=(2.0, 2.0))
    law = EffectiveLaw(spec, CellGrid(8))
    macro = solve_homogenized_electrostatic(law, 1.0, DomainGrid(8))
    assert macro.iterations >= 2
    assert macro.cell_potentials.shape == (4 * 8 * 8, law.grid.n_nodes)
    assert np.abs(macro.cell_potentials).max() <= 1e-14
    corr = _reconstruct(law, macro, DomainGrid(16))
    assert corr.potentials.shape == (4 * 16 * 16, law.grid.n_nodes)
    assert np.abs(corr.potentials).max() <= 1e-14


def test_every_macro_point_is_some_sample_points_nearest():
    # reconstruct_phi1 builds its predictor on every macro quadrature
    # point and pairs each sample point with its nearest: on a sample grid
    # that refines the solve grid, no macro point goes unread
    from hk.homogenized import _nearest_qp
    for solve_n in range(2, 33):
        solve = DomainGrid(solve_n)
        for ratio in range(1, 9):
            pts = DomainGrid(ratio * solve_n).qp_coords().reshape(-1, 2)
            assert np.array_equal(np.unique(_nearest_qp(solve, pts)),
                                  np.arange(4 * solve.n_elems))


def test_reconstruct_phi1_holds_no_table_of_starts():
    # the p3 laminate at cell_n 8, solve_n 32, sample_n 64: the sample
    # solves read their starts chunk by chunk, so the reconstruction peaks
    # at 1.95 tables of potentials (16,384 x 64 doubles), the potentials
    # and the macro rows' W; 2.99 when the starts are gathered into a
    # table of their own first
    import tracemalloc
    spec = OperatorSpec(family="power-law", p=3.0, alpha=1.0,
                        geometry=LAMINATE, sigma=(1.0, 4.0))
    law = EffectiveLaw(spec, CellGrid(8))
    macro = solve_homogenized_electrostatic(law, 1.0, DomainGrid(32))
    field = macroscopic_gradient_field(macro.potential)
    tracemalloc.start()
    try:
        corr = reconstruct_phi1(law, macro.potential, DomainGrid(64), field,
                                macro.cell_potentials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert corr.potentials.shape == (16384, 64)
    assert peak < 2.5 * corr.potentials.nbytes


def test_macro_newton_holds_at_most_five_tables_of_cell_solutions():
    # the p3 laminate at cell_n 8, solve_n 32, the batch's workspace grown
    # first: a line-search trial holds the stepped-from solutions and
    # their two-column W, which its start reads, the trial's solutions and
    # the rescaled first start's; the last predictor goes before the next
    # tangent solve.  Measured 5.5 tables of 4,096 x 64 doubles; 7.5 when
    # the last predictor lives through the tangent solve, and 9.6 with a
    # table of starts besides
    import tracemalloc
    spec = OperatorSpec(family="power-law", p=3.0, alpha=1.0,
                        geometry=LAMINATE, sigma=(1.0, 4.0))
    law = EffectiveLaw(spec, CellGrid(8))
    law.solve(np.random.default_rng(0).uniform(-1.0, 1.0, (500, 2)))
    tracemalloc.start()
    try:
        macro = solve_homogenized_electrostatic(law, 1.0, DomainGrid(32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert macro.iterations >= 2
    assert macro.cell_potentials.shape == (4096, 64)
    assert peak < 6 * macro.cell_potentials.nbytes


def test_reconstruct_phi1_predictor_takes_fewer_newton_steps(monkeypatch):
    # each sample solve starts from eta + W (xi - xi0) at the nearest
    # solve-grid point; it must land on the cold solution in fewer batched
    # Newton row-steps than a start from eta alone
    from hk.cell_problems import _tol_scale
    from hk.homogenized import _nearest_qp
    spec = OperatorSpec(family="power-law", p=3.0, alpha=1.0,
                        geometry=LAMINATE, sigma=(1.0, 4.0))
    law = EffectiveLaw(spec, CellGrid(8))
    dom = DomainGrid(8)
    macro = solve_homogenized_electrostatic(law, 1.0, dom)
    sample = DomainGrid(16)
    calls = spy_batch_solves(monkeypatch)
    corr = reconstruct_phi1(law, macro.potential, sample,
                            macroscopic_gradient_field(macro.potential),
                            macro.cell_potentials)
    predicted = calls[-1].row_steps
    near = _nearest_qp(dom, sample.qp_coords().reshape(-1, 2))
    law.solutions_for(corr.loadings,
                      lambda xi, rows: macro.cell_potentials[near[rows]])
    nearest = calls[-1].row_steps
    cold = law.solutions_for(corr.loadings)
    assert predicted < nearest
    # a residual within tol moves the potentials by a few tol: the pinned
    # Newton matrix is weak at the small loadings of this source
    scale = law.tol * _tol_scale(spec, corr.loadings)
    assert (np.abs(corr.potentials - cold).max(axis=1) <= 10 * scale).all()
