import json

import numpy as np
import pytest

from hk import _fem
from hk.cli import build_spec, load_config, validate_config
from hk.constitutive import ElasticTensorField, Geometry, OperatorSpec
from hk.core_fields import (CellGrid, DomainGrid, ScalarField,
                            sample_oscillatory)
from hk.corrector import (EpsPartition, coarse_average_M,
                          corrector_error_dalmaso, corrector_error_explicit,
                          fit_rate, functional_pairing,
                          pairing_limit, run_corrector_study,
                          two_scale_pairing)
from hk.effective import EffectiveLaw
from hk.homogenized import (macroscopic_gradient_field, reconstruct_phi1,
                            solve_homogenized_electrostatic)

from oracles import (partition_centers, point_eval, point_eval_gradient,
                     two_scale_compose_S)

UNIFORM = Geometry("uniform")


def test_partition_interior_classification():
    part = EpsPartition(0.25)
    assert part.per_axis == 5
    centers = partition_centers(part)
    inside = part.interior
    # 3x3 interior cells out of 25
    assert inside.sum() == 9
    ids = part.cell_of(np.array([[0.5, 0.5], [0.01, 0.5], [0.99, 0.99]]))
    assert inside[ids[0]] and not inside[ids[1]] and not inside[ids[2]]


def test_coarse_average_fixed_point_exact():
    # a cellwise-constant table averages back to itself on interior cells
    dom = DomainGrid(64)
    part = EpsPartition(0.25)
    rng = np.random.default_rng(0)
    values = rng.standard_normal(part.n_cells)
    out = coarse_average_M(values[part.cell_of(dom.qp_coords())], dom, 0.25)
    inner = part.interior
    assert np.abs(out.values[inner] - values[inner]).max() \
        <= 1e-13 * np.abs(values[inner]).max()
    assert np.all(out.values[~inner] == 0.0)


def test_coarse_average_affine_centers():
    dom = DomainGrid(64)
    v = dom.qp_coords()[..., 0]
    cc = coarse_average_M(v, dom, 0.25)
    part = cc.partition
    centers = partition_centers(part)
    inner = part.interior
    assert np.abs(cc.values[inner] - centers[inner][:, 0]).max() < 1e-14
    assert np.abs(cc.values[~inner]).max() == 0.0


def test_coarse_average_contraction_random_fields():
    dom = DomainGrid(32)
    rng = np.random.default_rng(1)
    for _ in range(20):
        v = rng.standard_normal((dom.n_elems, 4))
        cc = coarse_average_M(v, dom, 0.25)
        lhs = _fem.lp_norm_qp(
            dom.h, cc.values[cc.partition.cell_of(dom.qp_coords())], 2.0)
        rhs = _fem.lp_norm_qp(dom.h, v, 2.0)
        assert lhs <= rhs + 1e-14


def test_coarse_average_refinement_decreases_distance():
    dom = DomainGrid(64)
    v = np.sin(np.pi * dom.qp_coords()[..., 0])
    dists = []
    for eps in (0.25, 0.125, 0.0625):
        cc = coarse_average_M(v, dom, eps)
        diff = cc.values[cc.partition.cell_of(dom.qp_coords())] - v
        # distance over interior cells (boundary cells carry zero)
        mask = cc.partition.interior[cc.partition.cell_of(
            dom.qp_coords())].astype(float)
        w = np.broadcast_to(dom.weights, diff.shape)
        dists.append(float((w * mask * diff ** 2).sum() ** 0.5))
    assert dists[0] > dists[1] > dists[2]


def test_mm_average_x_independent_is_identity():
    sample = DomainGrid(16)
    rng = np.random.default_rng(2)
    row = rng.standard_normal(10)
    table = np.tile(row, (sample.n_elems, 4, 1))
    avg = coarse_average_M(table, sample, 0.25, zero_boundary=False).values
    assert np.abs(avg - row).max() < 1e-14


def test_mm_average_linearity_in_x():
    sample = DomainGrid(16)
    pts = sample.qp_coords()
    w_y = np.array([1.0, -2.0, 3.0])
    table = pts[..., 0][..., None] * w_y
    cc = coarse_average_M(table, sample, 0.25, zero_boundary=False)
    avg, part = cc.values, cc.partition
    centers = partition_centers(part)
    inner = part.interior
    expect = centers[inner][:, 0][:, None] * w_y[None, :]
    assert np.abs(avg[inner] - expect).max() < 1e-13


def test_coarse_average_memory_above_table():
    # a 32 MiB corrector table (sample_n 128, cell_n 8): the eps-cell
    # averages weigh the points in the one-hot matrix, so no weighted copy
    # of the table is made
    import tracemalloc
    sample, cell = DomainGrid(128), CellGrid(8)
    table = np.random.default_rng(9).standard_normal(
        (sample.n_elems, 4, cell.n_nodes))
    # the grid caches its coordinates on first use, outside the count
    sample.qp_coords()
    tracemalloc.start()
    try:
        avg = coarse_average_M(table, sample, 0.125, zero_boundary=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert avg.values.shape == (81, cell.n_nodes)
    assert peak <= 8 * 2 ** 20


def test_unfolding_norm_preservation():
    grid = CellGrid(8)
    dom = DomainGrid(32)
    rng = np.random.default_rng(3)
    v = ScalarField(dom, rng.standard_normal(dom.n_nodes))
    unf = two_scale_compose_S(v, 0.25)
    part = EpsPartition(0.25)
    ids = part.cell_of(dom.qp_coords())
    mask = part.interior[ids].astype(float)
    w = np.broadcast_to(dom.weights, ids.shape)
    direct = float((w * mask * v.at_quadrature() ** 2).sum() ** 0.5)
    assert abs(unf.norm_lp(2.0) - direct) < 1e-12


def test_unfolding_periodic_field_x_independent():
    grid = CellGrid(8)
    vals = np.cos(2 * np.pi * grid.node_coords()[:, 1])
    g = ScalarField(grid, vals)
    dom = DomainGrid(32)
    v = sample_oscillatory(g, 0.25, dom)
    unf = two_scale_compose_S(v, 0.25)
    assert np.abs(unf.values - unf.values[0]).max() == 0.0


def test_unfolding_constant():
    dom = DomainGrid(16)
    v = ScalarField(dom, np.full(dom.n_nodes, 3.0))
    unf = two_scale_compose_S(v, 0.25)
    assert np.abs(unf.values - 3.0).max() < 1e-14


def test_pairing_y_independent_reduces_to_plain_integral():
    dom = DomainGrid(32)
    rng = np.random.default_rng(4)
    v = ScalarField(dom, rng.standard_normal(dom.n_nodes))
    psi_x = lambda x1, x2: x1 + x2
    one = lambda y1, y2: np.ones_like(y1)
    val = two_scale_pairing(v, psi_x, one, 0.25)
    pts = dom.qp_coords()
    direct = _fem.integrate_qp(dom.h, v.at_quadrature()
                               * psi_x(pts[..., 0], pts[..., 1]))
    assert abs(val - direct) < 1e-14


def test_pairing_constant_sequence():
    # with both the sequence and the x-factor constant, the quadrature
    # pattern repeats identically over each period, so the pairing is the
    # same number for every eps (the mean of the oscillation, here ~0)
    one_x = lambda x1, x2: np.ones_like(x1)
    psi_y = lambda y1, y2: np.cos(2 * np.pi * y1)
    vals = []
    for eps, n in ((0.25, 32), (0.125, 64)):
        dom = DomainGrid(n)
        ones = ScalarField(dom, np.ones(dom.n_nodes))
        vals.append(two_scale_pairing(ones, one_x, psi_y, eps))
    assert abs(vals[0]) < 1e-2
    assert abs(vals[0] - vals[1]) < 1e-13


def test_pairing_oscillatory_limit():
    grid = CellGrid(16)
    g = ScalarField(grid, np.sin(2 * np.pi * grid.node_coords()[:, 0]))
    psi_x = lambda x1, x2: 16 * x1 * (1 - x1) * x2 * (1 - x2)
    psi_y = lambda y1, y2: np.sin(2 * np.pi * y1)
    limit = pairing_limit(g, psi_x, psi_y)
    gaps = []
    for eps in (0.25, 0.125, 0.0625):
        dom = DomainGrid(int(16 / eps))
        v = sample_oscillatory(g, eps, dom)
        gaps.append(abs(two_scale_pairing(v, psi_x, psi_y, eps) - limit))
    assert gaps[0] > gaps[1] > gaps[2]


def test_fit_rate_exact_cases():
    eps = [0.25, 0.125, 0.0625]
    assert abs(fit_rate(eps, eps) - 1.0) < 1e-12
    assert abs(fit_rate(eps, np.sqrt(eps)) - 0.5) < 1e-12
    assert abs(fit_rate(eps, [2.0, 2.0, 2.0])) < 1e-12
    assert fit_rate(eps, [1.0, 0.5, 0.0]) is None


def test_fit_rate_needs_three_points():
    with pytest.raises(ValueError):
        fit_rate([0.25, 0.125], [1.0, 0.5])


def _no_corrector_error(phi_eps, field):
    """||grad phi_eps - field||_L2 by 2x2 Gauss on phi_eps's grid.

    The field is read by the point evaluation oracle, grad phi_eps is the
    Q1 gradient at the quadrature points.
    """
    dom, g = phi_eps.grid, field.grid
    diff = _fem.qp_gradient(phi_eps.values, dom.conn, dom.h) - point_eval(
        field.values, g.conn, g.h, g.n, g.origin, dom.qp_coords())
    w = np.broadcast_to(dom.weights[:, None], diff.shape)
    return float(np.sqrt((w * diff * diff).sum()))


def _check_constant_coefficient_errors(spec, fine):
    # the corrector of constant coefficients vanishes, so the explicit
    # error is the no-corrector error: the fine gradient against the
    # recovered gradient of the effective solve on the same grid
    law = EffectiveLaw(spec, CellGrid(8))
    dom = fine.potential.grid
    macro = solve_homogenized_electrostatic(law, 1.0, dom)
    field = macroscopic_gradient_field(macro.potential)
    corr = reconstruct_phi1(law, macro.potential, dom, field,
                            macro.cell_potentials)
    assert not corr.potentials.any()
    errs = corrector_error_explicit(fine.potential, field, corr, 0.25, 2.0)
    assert errs["E_exp"] == errs["E_nocorr"]
    ref = _no_corrector_error(fine.potential, field)
    assert abs(errs["E_nocorr"] - ref) <= 1e-12 * ref


def test_explicit_error_constant_coefficients_floor():
    spec = OperatorSpec(family="linear", geometry=UNIFORM, sigma=(2.0, 2.0))
    from hk.fine_scale import solve_fine_electrostatic
    fine = solve_fine_electrostatic(spec, 0.25, 1.0, DomainGrid(32))
    _check_constant_coefficient_errors(spec, fine)


def test_functional_pairing_hand_value():
    dom = DomainGrid(16)
    from hk.core_fields import VectorField
    u = VectorField(dom, np.tile([1.0, 2.0], (dom.n_nodes, 1)))
    psi = lambda x1, x2: (np.ones_like(x1), np.ones_like(x1))
    assert abs(functional_pairing(u, psi) - 3.0) < 1e-12


def test_study_rejects_bad_ladder():
    spec = OperatorSpec(family="linear", geometry=UNIFORM, sigma=(1.0, 1.0))
    with pytest.raises(ValueError, match="ladder"):
        run_corrector_study(spec, [0.25], cell_n=8)
    with pytest.raises(ValueError, match="incommensurate"):
        run_corrector_study(spec, [0.5, 0.3], cell_n=8)
    with pytest.raises(ValueError, match="align"):
        run_corrector_study(spec, [0.25, 1.0 / 6.0], cell_n=8)
    with pytest.raises(ValueError, match="power of two"):
        run_corrector_study(spec, [0.25, 0.125], cell_n=12)


def test_study_constant_coefficients_small():
    # degenerate study: the corrector vanishes and the explicit error
    # reduces to the discretization gap between the fine grids and the
    # effective solve grid
    spec = OperatorSpec(family="linear", geometry=UNIFORM, sigma=(2.0, 2.0))
    rep = run_corrector_study(spec, [0.25, 0.125], cell_n=8, solve_n=16,
                              sample_n=32)
    assert max(rep.errors["E_exp"]) <= 0.02
    assert max(rep.errors["E_dm"]) > 0.0  # averaging error remains
    assert rep.errors["E_dm"][0] > rep.errors["E_dm"][1]
    # with the corrector attached on the fine grid itself the explicit
    # error is the no-corrector error of the recovered gradient
    from hk.fine_scale import solve_fine_electrostatic
    fine = solve_fine_electrostatic(spec, 0.25, 1.0, DomainGrid(32), 1e-12)
    _check_constant_coefficient_errors(spec, fine)


def test_study_checkerboard_ladders_decrease():
    spec = OperatorSpec(family="linear", geometry=Geometry("checkerboard"),
                        sigma=(1.0, 4.0))
    rep = run_corrector_study(spec, [0.25, 0.125, 0.0625], cell_n=16,
                              solve_n=32, sample_n=64)
    for name in ("E_exp", "E_avg", "E_dm"):
        seq = rep.errors[name]
        assert all(b < a for a, b in zip(seq, seq[1:])), (name, seq)


def test_square_p3_study_converges_at_one_resolution_per_period():
    # the corrector's cells and the fine grids both have cell_n elements
    # per period, so E_exp and E_avg fall with eps (rates 0.84 and 0.82);
    # with fine grids at 16 elements per period they stalled at the gap
    # between the two discrete cell solutions (rates 0.27 and 0.42)
    spec = OperatorSpec(family="power-law", p=3.0, alpha=1.0,
                        geometry=Geometry(kind="square", size=0.5),
                        sigma=(1.0, 4.0))
    rep = run_corrector_study(spec, [0.25, 0.125, 0.0625], cell_n=8,
                              solve_n=32, sample_n=64)
    assert rep.rates["E_exp"] >= 0.7
    assert rep.rates["E_avg"] >= 0.7


def test_variable_exponent_study_converges_at_one_resolution_per_period():
    # the variable-exponent preset's law, no elasticity; measured rates
    # 0.864 (E_exp) and 0.915 (E_avg), against 0.377 and 0.606 when the
    # fine grids had 16 elements per period and the cells 8
    cfg = validate_config(load_config("variable-exponent"))
    rep = run_corrector_study(build_spec(cfg), [0.25, 0.125, 0.0625],
                              cell_n=8, solve_n=32, sample_n=64)
    assert rep.rates["E_exp"] >= 0.7
    assert rep.rates["E_avg"] >= 0.7


def test_square_p15_study_runs_the_law_as_stated(monkeypatch):
    # p < 2 at delta = 0 is (p - 1)-homogeneous, so the cell batches start
    # from the circle interpolant: 5,629 batched Newton row-steps, against
    # 76,100 when delta was raised to 1e-8; the error ladders agree to 7
    # digits.  Measured rates 0.981 (E_exp) and 0.888 (E_avg)
    from test_cli import _batched_row_steps
    steps = _batched_row_steps(monkeypatch)
    spec = OperatorSpec(family="power-law", p=1.5, alpha=0.5,
                        geometry=Geometry(kind="square", size=0.5),
                        sigma=(1.0, 4.0))
    with np.errstate(all="raise"):
        rep = run_corrector_study(spec, [0.25, 0.125, 0.0625], cell_n=8,
                                  solve_n=32, sample_n=64)
    assert rep.rates["E_exp"] >= 0.8
    assert rep.rates["E_avg"] >= 0.8
    assert sum(steps) <= 6500


def test_averaged_error_triangle_inequality():
    # E_avg differs from E_exp by at most the L^p distance between the
    # corrector and its cell averages
    lam = Geometry(kind="laminate", fraction=0.5)
    spec = OperatorSpec(family="linear", geometry=lam, sigma=(1.0, 4.0))
    cell = CellGrid(8)
    law = EffectiveLaw(spec, cell)
    macro = solve_homogenized_electrostatic(law, 1.0, DomainGrid(16))
    sample = DomainGrid(32)
    field = macroscopic_gradient_field(macro.potential)
    corr = reconstruct_phi1(law, macro.potential, sample, field,
                            macro.cell_potentials)
    from hk.fine_scale import solve_fine_electrostatic
    eps = 0.125
    dom = DomainGrid(int(16 / eps))
    fine = solve_fine_electrostatic(spec, eps, 1.0, dom)
    errs = corrector_error_explicit(fine.potential, field, corr, eps, 2.0)
    # averaging distance via the same lookup machinery
    from hk.corrector import _fine_qp_setup, _table_grad_at
    pts, grad_eps, grad0, sample_idx, y = _fine_qp_setup(
        fine.potential, field, corr, eps, slice(None))
    avg = coarse_average_M(corr.potentials.reshape(sample.n_elems, 4, -1),
                           sample, eps, zero_boundary=False)
    located = _fem.locate_points(y, cell.n, cell.h, cell.origin)
    g_exp = _table_grad_at(corr.potentials, sample_idx, cell, *located)
    g_avg = _table_grad_at(avg.values, avg.partition.cell_of(pts), cell,
                           *located)
    w = np.broadcast_to(dom.weights, (dom.n_elems, 4)).reshape(-1)
    dist = float((w @ np.sum((g_exp - g_avg) ** 2, axis=-1)) ** 0.5)
    assert errs["E_avg"] <= errs["E_exp"] + dist + 1e-12


@pytest.mark.parametrize("spec, ladder, kw", [
    (OperatorSpec(family="linear",
                  geometry=Geometry(kind="laminate", fraction=0.5),
                  sigma=(1.0, 4.0)),
     [0.25, 0.125], dict(cell_n=8, solve_n=16, sample_n=32)),
    # a nonlinear law: the rungs run batched Dal Maso cell solves on one
    # law
    (OperatorSpec(family="power-law", p=3.0, alpha=1.0,
                  geometry=Geometry(kind="laminate", fraction=0.5),
                  sigma=(1.0, 4.0)),
     [0.25, 0.125], dict(cell_n=8, solve_n=8, sample_n=16)),
    # fine grids N = 64 and 128: the N = 128 rung's electrostatic and
    # elastic systems are above the direct-solve cut and solve by
    # multigrid PCG
    (OperatorSpec(family="linear",
                  geometry=Geometry(kind="laminate", fraction=0.5),
                  sigma=(1.0, 4.0)),
     [0.125, 0.0625],
     dict(cell_n=8, solve_n=16, sample_n=32,
          tensor_b=ElasticTensorField.from_lame(
              (1.0, 1.0), (3.0, 2.0),
              Geometry(kind="laminate", fraction=0.5)),
          tensor_c=ElasticTensorField.from_lame(
              (0.5, 0.5), (1.5, 1.0),
              Geometry(kind="laminate", fraction=0.5)))),
], ids=["linear", "p3", "linear-elastic-pcg"])
def test_study_rerun_bitwise_deterministic(spec, ladder, kw):
    # the second run builds fresh grids and fresh multigrid transfers
    r1 = run_corrector_study(spec, ladder, **kw)
    r2 = run_corrector_study(spec, ladder, **kw)
    for key in r1.errors:
        assert r1.errors[key] == r2.errors[key]
    assert r1.maxwell_gaps == r2.maxwell_gaps
    assert r1.elasticity_gaps == r2.elasticity_gaps
    assert json.dumps(r1.to_dict()) == json.dumps(r2.to_dict())


def test_stress_pairing_memory_within_budget():
    # synthetic corrector tables at cell_n 32: the pairing's work arrays
    # stay within its byte budget whatever the number of sample rows
    import tracemalloc

    from hk import corrector
    from hk.homogenized import CorrectorData
    rng = np.random.default_rng(0)
    sample, cell = DomainGrid(8), CellGrid(32)
    k = 4 * sample.n_elems
    corr = CorrectorData(sample, cell, rng.standard_normal((k, 2)),
                         rng.standard_normal((k, cell.n_nodes)),
                         np.zeros(k), np.zeros(k))
    # the grids cache their coordinates on first use, outside the count
    sample.qp_coords(), cell.qp_coords()
    inputs = corr.loadings.nbytes + corr.potentials.nbytes
    tracemalloc.start()
    try:
        out = corrector.two_scale_stress_pairing(
            corr, lambda x1, x2: 1.0 + x1 * x2,
            lambda y1, y2: 1.0 + 0.5 * np.sin(2.0 * np.pi * y1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(out)) and out[0, 0] > 0.0
    assert peak <= _fem.WORK_BUDGET_BYTES + inputs


def _unit_cell_field(n=8):
    return ScalarField(CellGrid(n), np.ones(n * n))


def test_pairing_limit_x_integral_is_exact():
    # with g = 1 and psi_y = 1 the limit is the x-integral alone; 2x2
    # Gauss integrates the degree-2 factor 16 x1 (1 - x1) x2 (1 - x2)
    # exactly, to 4/9, over every block of element rows
    from hk.corrector import _psi_x
    limit = pairing_limit(_unit_cell_field(), _psi_x,
                          lambda y1, y2: np.ones_like(y1))
    assert abs(limit - 4.0 / 9.0) <= 1e-14


def test_pairing_limit_memory_within_budget():
    import tracemalloc

    from hk.corrector import _psi_x, _psi_y_pairing
    g = _unit_cell_field()
    # the cell grid caches its coordinates on first use, outside the count
    g.grid.qp_coords(), g.at_quadrature()
    tracemalloc.start()
    try:
        pairing_limit(g, _psi_x, _psi_y_pairing)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _fem.WORK_BUDGET_BYTES + 2 ** 20


def test_study_memory_stays_bounded(tmp_path):
    # the benchmark's p = 3 laminate study: batched cell chunks and the
    # pairings' work arrays stay within the work budget, so the traced
    # peak of the whole study, first-use caches included, is a few
    # budgets
    import tracemalloc

    from hk.cli import PRESETS, cmd_corrector_study, validate_config
    cfg = json.loads(json.dumps(PRESETS["laminate-p3"]))
    cfg.update(elasticity=None, ladder=[0.5, 0.25, 0.125],
               grids={"cell_n": 8, "solve_n": 8, "sample_n": 16})
    cfg = validate_config(cfg)
    tracemalloc.start()
    try:
        assert cmd_corrector_study(cfg, tmp_path, 1) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2 ** 20


def _synthetic_rung(n, sample_n=8, cell_n=8, seed=0):
    """A random fine potential, recovered macro gradient and corrector."""
    from hk.homogenized import CorrectorData
    rng = np.random.default_rng(seed)
    sample, cell, dom = DomainGrid(sample_n), CellGrid(cell_n), DomainGrid(n)
    k = 4 * sample.n_elems
    corr = CorrectorData(sample, cell, rng.standard_normal((k, 2)),
                         rng.standard_normal((k, cell.n_nodes)),
                         np.zeros(k), np.zeros(k))
    phi_eps = ScalarField(dom, rng.standard_normal(dom.n_nodes))
    phi0 = ScalarField(sample, rng.standard_normal(sample.n_nodes))
    return phi_eps, macroscopic_gradient_field(phi0), corr


# (solve_n, sample_n, fine N) of the studies: the presets and the acceptance
# fixtures (32, 64, cell_n 8 or 16 at eps 1/4 to 1/32), the study workloads
# (8, 16, cell_n 8; 32, 32, cell_n 8) and a sample grid on the solve grid
@pytest.mark.parametrize("solve_n,sample_n,fine_n", [
    (32, 64, 64), (32, 64, 128), (32, 64, 256), (32, 64, 512),
    (8, 16, 16), (8, 16, 64), (32, 32, 32), (32, 32, 128), (16, 16, 64)])
def test_fine_points_located_once_on_nested_grids(solve_n, sample_n,
                                                  fine_n):
    # the sample quadrants derived from the solve-grid location are
    # _nearest_qp's, and those of a location on the sample grid itself;
    # the macroscopic gradient is the point evaluation's, and so is
    # _gradient_at's, which reads phi0's Q1 gradient without a field
    from types import SimpleNamespace

    from hk.corrector import _fine_qp_setup
    from hk.homogenized import _gradient_at, _nearest_qp
    rng = np.random.default_rng(fine_n)
    solve, sample, dom = (DomainGrid(n) for n in (solve_n, sample_n, fine_n))
    phi_eps = ScalarField(dom, np.zeros(dom.n_nodes))
    phi0 = ScalarField(solve, rng.standard_normal(solve.n_nodes))
    field = macroscopic_gradient_field(phi0)
    corr = SimpleNamespace(sample_grid=sample)
    pts, _, grad0, sample_idx, _ = _fine_qp_setup(
        phi_eps, field, corr, 16.0 / fine_n, slice(None))
    assert np.array_equal(sample_idx, _nearest_qp(sample, pts))
    elem, local = _fem.locate_points(pts, sample.n, sample.h, sample.origin)
    upper = (local >= 0.5).astype(int)
    assert np.array_equal(sample_idx, 4 * elem + 2 * upper[:, 1] + upper[:, 0])
    expected = point_eval(field.values, solve.conn, solve.h, solve.n,
                          solve.origin, pts)
    assert np.array_equal(grad0, expected)
    assert np.array_equal(_gradient_at(phi0, field, pts), expected)
    raw = point_eval_gradient(phi0.values, solve.conn, solve.h, solve.n,
                              solve.origin, pts)
    assert np.array_equal(_gradient_at(phi0, None, pts), raw)


class _TableLaw:
    """Stands in for an EffectiveLaw: one fixed cell field per loading."""

    def __init__(self, cell):
        self.field = np.sin(2.0 * np.pi * cell.node_coords()[:, 0])

    def solutions_for(self, loadings):
        return loadings[:, :1] * self.field


@pytest.mark.parametrize("rows", [1, 3, 5, 32])
def test_fine_qp_setup_row_blocks_concatenate_bitwise(rows):
    from hk.corrector import _fine_qp_setup
    phi_eps, field, corr = _synthetic_rung(32)
    whole = _fine_qp_setup(phi_eps, field, corr, 0.25, slice(None))
    blocks = [_fine_qp_setup(phi_eps, field, corr, 0.25,
                             slice(start, start + rows))
              for start in range(0, 32, rows)]
    for k, array in enumerate(whole):
        assert np.array_equal(
            np.concatenate([block[k] for block in blocks]), array)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_streamed_errors_match_whole_grid(p, monkeypatch):
    from hk.corrector import _fine_qp_setup, _table_grad_at
    phi_eps, field, corr = _synthetic_rung(32)
    dom, sample, cell = phi_eps.grid, corr.sample_grid, corr.cell_grid
    law, eps = _TableLaw(cell), 0.25
    # blocks of 3 element rows, the last of 2
    monkeypatch.setattr(_fem, "WORK_BUDGET_BYTES",
                        3 * 32 * _fem.ROW_BYTES_PER_ELEMENT)
    errs = corrector_error_explicit(phi_eps, field, corr, eps, p)
    errs["E_dm"] = corrector_error_dalmaso(phi_eps, law, corr, eps, p)
    # the whole grid at once
    pts, grad_eps, grad0, sample_idx, y = _fine_qp_setup(
        phi_eps, field, corr, eps, slice(None))
    avg = coarse_average_M(corr.potentials.reshape(sample.n_elems, 4, -1),
                           sample, eps, zero_boundary=False)
    ids = avg.partition.cell_of(pts)
    inside = avg.partition.interior[ids][:, None]
    located = _fem.locate_points(y, cell.n, cell.h, cell.origin)
    diff_no = grad_eps - grad0
    diff_exp = diff_no - _table_grad_at(corr.potentials, sample_idx, cell,
                                        *located)
    diff_avg = diff_no - _table_grad_at(avg.values, ids, cell, *located)
    loads = coarse_average_M(corr.loadings.reshape(sample.n_elems, 4, 2),
                             sample, eps)
    ids = loads.partition.cell_of(pts)
    diff_dm = grad_eps - loads.values[ids] - _table_grad_at(
        law.solutions_for(loads.values), ids, cell, *located)
    expect = {"E_exp": diff_exp, "E_avg": diff_avg, "E_nocorr": diff_no,
              "E_exp_interior": np.where(inside, diff_exp, 0.0),
              "E_avg_interior": np.where(inside, diff_avg, 0.0),
              "E_dm": diff_dm}
    assert errs.keys() == expect.keys()
    for name, diff in expect.items():
        ref = _fem.lp_norm_qp(dom.h, diff.reshape(dom.n_elems, 4, 2), p)
        assert abs(errs[name] - ref) <= 1e-12 * ref, name


def test_rung_post_processing_memory_within_budget():
    # one N = 256 rung's post-processing on synthetic inputs: the error
    # norms, the Maxwell check and the pairing walk the fine grid in
    # blocks of element rows, so the traced peak is the work budget plus
    # the inputs and the eps-cell tables; whole-grid quadrature tables
    # took about 42 MiB
    import tracemalloc

    from hk.corrector import (_psi_x, _psi_y_maxwell, _psi_y_pairing,
                              maxwell_two_scale_check)
    phi_eps, field, corr = _synthetic_rung(256)
    law, eps = _TableLaw(corr.cell_grid), 0.25
    dom = phi_eps.grid
    g = ScalarField(CellGrid(64), np.sin(
        2.0 * np.pi * CellGrid(64).node_coords()[:, 0]))
    v_eps = sample_oscillatory(g, eps, dom)
    # the grids cache their coordinates on first use, outside the count
    corr.sample_grid.qp_coords(), corr.cell_grid.qp_coords()
    inputs = sum(a.nbytes for a in (phi_eps.values, field.values,
                                    v_eps.values, corr.loadings,
                                    corr.potentials))
    # the eps-cell averages of the corrector table and of the loadings,
    # their weighted copies on the sample grid and the Dal Maso table
    tables = 2 * corr.potentials.nbytes + 2 * corr.loadings.nbytes \
        + 2 * EpsPartition(eps).n_cells * corr.cell_grid.n_nodes * 8
    tracemalloc.start()
    try:
        errs = corrector_error_explicit(phi_eps, field, corr, eps, 3.0)
        errs["E_dm"] = corrector_error_dalmaso(phi_eps, law, corr, eps, 3.0)
        gap = maxwell_two_scale_check(phi_eps, eps, np.zeros((2, 2)),
                                      _psi_x, _psi_y_maxwell)
        pairing = two_scale_pairing(v_eps, _psi_x, _psi_y_pairing, eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.isfinite(list(errs.values()))) and errs["E_exp"] > 0.0
    assert np.isfinite(gap) and np.isfinite(pairing)
    assert peak <= _fem.WORK_BUDGET_BYTES + inputs + tables
