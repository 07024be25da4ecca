"""Acceptance suite: one test per criterion, one printed line per result.

The expensive sweep studies are computed once in module-scoped fixtures
and shared by the criteria that read different aspects of them.  Run
with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
lines as they are produced.
"""

import time

import numpy as np
import pytest

from hk import _fem
from hk.cell_problems import (BatchScalarCellSolver, solve_elastic_cell_U,
                              solve_scalar_cell)
from hk._fem import isotropic_tensor
from hk.constitutive import ElasticTensorField, Geometry, OperatorSpec
from hk.core_fields import CellGrid, DomainGrid, ScalarField
from hk.effective import (EffectiveLaw, assemble_elastic_tensors,
                          check_a_hom_properties)
from hk.fine_scale import (solve_fine_elasticity, solve_fine_electrostatic)
from hk.homogenized import (solve_homogenized_elasticity,
                            solve_homogenized_electrostatic)
from hk.corrector import run_corrector_study

from oracles import (effective_eval, laminate_flux_balance,
                     manufactured_elasticity, manufactured_laplace,
                     node_coords, point_eval_gradient)

LAMINATE = Geometry(kind="laminate", fraction=0.5)
UNIFORM = Geometry("uniform")
LADDER = [1 / 4, 1 / 8, 1 / 16, 1 / 32]


def report(criterion, passed, detail):
    marker = "PASS" if passed else "FAIL"
    print(f"[{marker}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def built_in_specs():
    return {
        "laminate-p2": OperatorSpec(family="linear", p=2.0, alpha=1.0,
                                    geometry=LAMINATE, sigma=(1.0, 4.0)),
        "laminate-p3": OperatorSpec(family="power-law", p=3.0, alpha=1.0,
                                    geometry=LAMINATE, sigma=(1.0, 4.0)),
        "checkerboard-p2": OperatorSpec(family="linear", p=2.0, alpha=1.0,
                                        geometry=Geometry("checkerboard"),
                                        sigma=(1.0, 4.0)),
        "variable-exponent": OperatorSpec(family="variable-exponent", p=2.0,
                                          alpha=1.0,
                                          geometry=Geometry("square",
                                                            size=0.5),
                                          sigma=(1.0, 1.0),
                                          exponent=(3.0, 2.0)),
    }


def elastic_pair(geometry):
    b = ElasticTensorField.from_lame((1.0, 1.0), (3.0, 2.0), geometry)
    c = ElasticTensorField.from_lame((0.5, 0.5), (1.5, 1.0), geometry)
    return b, c


@pytest.fixture(scope="module")
def laminate_studies():
    """Corrector studies for the p=2 (with elasticity) and p=3 laminates."""
    specs = built_in_specs()
    b, c = elastic_pair(LAMINATE)
    t0 = time.perf_counter()
    rep2 = run_corrector_study(specs["laminate-p2"], LADDER, cell_n=8,
                               solve_n=32, sample_n=64,
                               tensor_b=b, tensor_c=c)
    rep3 = run_corrector_study(specs["laminate-p3"], LADDER, cell_n=8,
                               solve_n=32, sample_n=64)
    elapsed = time.perf_counter() - t0
    return {"p2": rep2, "p3": rep3, "elapsed": elapsed}


@pytest.fixture(scope="module")
def variable_exponent_study():
    spec = built_in_specs()["variable-exponent"]
    return run_corrector_study(spec, [1 / 4, 1 / 8, 1 / 16], cell_n=8,
                               solve_n=32, sample_n=64)


def strictly_decreasing(seq):
    return all(b < a for a, b in zip(seq, seq[1:]))


def test_criterion_1_linear_laminate_recovery():
    t0 = time.perf_counter()
    grid = CellGrid(128)
    law = EffectiveLaw(built_in_specs()["laminate-p2"], grid)
    a1 = effective_eval(law, [1.0, 0.0])
    a2 = effective_eval(law, [0.0, 1.0])
    elapsed = time.perf_counter() - t0
    err1 = abs(a1[0] - 1.6) / 1.6 + abs(a1[1])
    err2 = abs(a2[1] - 2.5) / 2.5 + abs(a2[0])
    ok = err1 < 1e-3 and err2 < 1e-3 and elapsed < 30.0
    report(1, ok, f"a_hom(e1)={a1}, a_hom(e2)={a2} "
                  f"(targets 1.6/2.5, rel tol 1e-3), {elapsed:.1f}s < 30s")


def test_criterion_2_nonlinear_laminate_oracle():
    q, _ = laminate_flux_balance([1.0, 4.0], [0.5, 0.5], 3.0)
    assert abs(q - 16.0 / 9.0) < 1e-15  # oracle frozen value
    t0 = time.perf_counter()
    grid = CellGrid(128)
    val = effective_eval(EffectiveLaw(built_in_specs()["laminate-p3"], grid),
                         [1.0, 0.0])
    elapsed = time.perf_counter() - t0
    rel = abs(val[0] - q) / q
    ok = rel < 1e-3 and abs(val[1]) < 1e-6 and elapsed < 120.0
    report(2, ok, f"a_hom(e1)={val[0]:.9f} vs oracle {q:.9f} "
                  f"(rel err {rel:.2e}), {elapsed:.1f}s < 120s")


def test_criterion_3_constant_coefficient_degeneracies():
    spec = OperatorSpec(family="power-law", p=3.0, alpha=1.0,
                        geometry=UNIFORM, sigma=(2.0, 2.0))
    cell = CellGrid(8)
    tol = 1e-13
    worst = 0.0
    # cell solutions vanish
    eta = solve_scalar_cell(spec, [0.7, -0.4], cell, tol)
    worst = max(worst, np.abs(eta.values).max())
    b = ElasticTensorField.from_lame((1.0, 1.0), geometry=UNIFORM)
    c = ElasticTensorField.from_lame((0.5, 0.25), geometry=UNIFORM)
    for (i, j) in ((0, 0), (1, 1), (0, 1)):
        ups = solve_elastic_cell_U(b, cell, i, j)
        worst = max(worst, np.abs(ups.values).max())
    law = EffectiveLaw(spec, cell, tol)
    b_eff, c_eff = assemble_elastic_tensors(b, c, law.solutions_for(np.eye(2)),
                                            cell)
    for sol in c_eff.solutions.values():
        worst = max(worst, np.abs(sol.values).max())
    worst = max(worst, np.abs(b_eff.tensor - isotropic_tensor(1.0, 1.0)).max())
    rng = np.random.default_rng(0)
    for _ in range(5):
        m = rng.standard_normal((2, 2))
        exact = np.einsum("ijkh,kh->ij", isotropic_tensor(0.5, 0.25), m)
        worst = max(worst, np.abs(c_eff.apply(m) - exact).max())
    # fine and homogenized systems coincide on every rung
    dom = DomainGrid(64)
    macro = solve_homogenized_electrostatic(law, 1.0, dom, 1e-13)
    g = np.array([0.0, -1.0])
    u0, _ = solve_homogenized_elasticity(b_eff, c_eff, g, macro.potential, dom)
    for eps in LADDER:
        fine = solve_fine_electrostatic(spec, eps, 1.0, dom, tol)
        worst = max(worst, np.abs(fine.potential.values
                                  - macro.potential.values).max())
        u_eps, _ = solve_fine_elasticity(b, c, eps, g, fine.potential, dom)
        worst = max(worst, np.abs(u_eps.values - u0.values).max())
    ok = worst <= 1e-12
    report(3, ok, f"largest degeneracy defect {worst:.2e} <= 1e-12")


def test_criterion_4_structural_property_suite():
    b, _ = elastic_pair(LAMINATE)
    cell = CellGrid(32)
    t = assemble_elastic_tensors(b, b, np.zeros((2, cell.n_nodes)),
                                 cell)[0].tensor
    major = np.abs(t - np.transpose(t, (2, 3, 0, 1))).max()
    minor = np.abs(t - np.transpose(t, (1, 0, 2, 3))).max()
    minor2 = np.abs(t - np.transpose(t, (0, 1, 3, 2))).max()
    mat = t.reshape(4, 4)
    basis = np.array([[1, 0, 0, 0], [0, 0, 0, 1],
                      [0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0]])
    eig = np.linalg.eigvalsh(basis @ mat @ basis.T).min()
    details = [f"B_hom symmetry defects {max(major, minor, minor2):.1e}",
               f"min eig {eig:.3f}"]
    ok = max(major, minor, minor2) <= 1e-10 and eig > 0.0
    thetas = {}
    for name, spec in built_in_specs().items():
        law = EffectiveLaw(spec, CellGrid(16))
        for seed in range(3):
            rep = check_a_hom_properties(law, seed=seed)
            ok &= rep.min_monotonicity > 0.0 and not rep.violation
        thetas[name] = rep.theta
        expect_theta = spec.alpha / (2.0 - spec.alpha)
        ok &= abs(rep.theta - expect_theta) < 1e-15
    details.append("theta=" + ",".join(f"{v:g}" for v in thetas.values()))
    report(4, ok, "; ".join(details)
           + " (monotonicity > 0 on 100 pairs x 3 seeds, all families)")


def test_criterion_5_flux_identities():
    grid = CellGrid(64)
    worst_unit = 0.0
    worst_macro = 0.0
    for name, spec in built_in_specs().items():
        batch = BatchScalarCellSolver(spec, grid)
        # unit loadings
        unit = np.stack([solve_scalar_cell(spec, e, grid).values
                         for e in np.eye(2)])
        worst_unit = max(worst_unit,
                         batch.attached_residuals(np.eye(2), unit)[1].max())
        # loadings sampled from an effective solve (the macroscopic form
        # of the identity, checked pointwise at sample loadings)
        law = EffectiveLaw(spec, CellGrid(8))
        macro = solve_homogenized_electrostatic(law, 1.0, DomainGrid(8))
        pts = DomainGrid(8).qp_coords().reshape(-1, 2)[::32]
        pg = macro.potential.grid
        loadings = point_eval_gradient(macro.potential.values, pg.conn,
                                       pg.h, pg.n, pg.origin, pts)
        etas = np.stack([solve_scalar_cell(spec, xi, grid).values
                         for xi in loadings])
        worst_macro = max(worst_macro,
                          batch.attached_residuals(loadings, etas)[1].max())
    ok = worst_unit <= 1e-9 and worst_macro <= 1e-9
    report(5, ok, f"unit-loading identity <= {worst_unit:.2e}, "
                  f"macro-loading identity <= {worst_macro:.2e} (n=64)")


def test_criterion_6_explicit_corrector_convergence(laminate_studies):
    ok = laminate_studies["elapsed"] < 600.0
    details = [f"both ladders in {laminate_studies['elapsed']:.0f}s < 600s"]
    for tag in ("p2", "p3"):
        rep = laminate_studies[tag]
        for name in ("E_exp", "E_avg", "E_dm"):
            ok &= strictly_decreasing(rep.errors[name])
            ok &= rep.rates[name] is not None and rep.rates[name] >= 0.3
        ratio = rep.errors["E_nocorr"][-1] / rep.errors["E_exp"][-1]
        ok &= ratio >= 10.0
        details.append(
            f"{tag}: rates exp/avg/dm = "
            f"{rep.rates['E_exp']:.2f}/{rep.rates['E_avg']:.2f}/"
            f"{rep.rates['E_dm']:.2f}, no-corrector ratio {ratio:.1f}")
    report(6, ok, "; ".join(details))


def test_criterion_7_two_scale_pairing(laminate_studies):
    rep = laminate_studies["p2"]
    ok = strictly_decreasing(rep.pairing_gaps)
    ok &= rep.pairing_gaps[-1] <= 1e-2
    report(7, ok, f"pairing gaps {['%.2e' % g for g in rep.pairing_gaps]} "
                  f"strictly decreasing, final <= 1e-2")


def test_criterion_8_maxwell_and_elastic_weak_limits(laminate_studies):
    rep = laminate_studies["p2"]
    ok = strictly_decreasing(rep.maxwell_gaps)
    ok &= strictly_decreasing(rep.elasticity_gaps)
    report(8, ok,
           f"electric stress pairing gaps "
           f"{['%.1e' % g for g in rep.maxwell_gaps]}; displacement "
           f"functional gaps {['%.1e' % g for g in rep.elasticity_gaps]}")


def test_criterion_9_variable_exponent_family(variable_exponent_study):
    rep = variable_exponent_study
    ok = rep.cell_residual_max <= 1e-9
    for name in ("E_exp", "E_avg", "E_dm"):
        ok &= strictly_decreasing(rep.errors[name])
    law_spec = built_in_specs()["variable-exponent"]
    law = EffectiveLaw(law_spec, CellGrid(16))
    for seed in range(3):
        audit = check_a_hom_properties(law, seed=seed)
        ok &= not audit.violation
    report(9, ok,
           f"cell residual max {rep.cell_residual_max:.1e}; ladders "
           f"E_exp={['%.3f' % v for v in rep.errors['E_exp']]} strictly "
           f"decreasing; property audit clean")


def test_criterion_10_manufactured_discretization_orders():
    phi_exact, f = manufactured_laplace()
    iden = OperatorSpec(family="linear", geometry=UNIFORM, sigma=(1.0, 1.0))
    errs_phi = []
    for n in (16, 32, 64):
        dom = DomainGrid(n)
        sol = solve_fine_electrostatic(iden, 0.25, f, dom)
        pts = node_coords(dom)
        err = sol.potential.values - phi_exact(pts[:, 0], pts[:, 1])
        errs_phi.append(_fem.lp_norm_qp(dom.h, _fem.qp_values(err, dom.conn),
                                        2.0))
    lam, mu = 1.0, 1.0
    u_exact, g = manufactured_elasticity(lam, mu)
    b = ElasticTensorField.from_lame((lam, mu), geometry=UNIFORM)
    zero_c = ElasticTensorField.from_lame((0.0, 0.0), geometry=UNIFORM)
    errs_u = []
    for n in (16, 32, 64):
        dom = DomainGrid(n)
        phi = ScalarField(dom, np.zeros(dom.n_nodes))
        u, _ = solve_fine_elasticity(b, zero_c, 0.25,
                                     lambda x, y: g(x, y), phi, dom)
        pts = node_coords(dom)
        err = u.values - u_exact(pts[:, 0], pts[:, 1])
        errs_u.append(_fem.lp_norm_qp(dom.h, _fem.qp_values(err, dom.conn),
                                      2.0))
    slopes = [np.log2(errs_phi[0] / errs_phi[1]),
              np.log2(errs_phi[1] / errs_phi[2]),
              np.log2(errs_u[0] / errs_u[1]),
              np.log2(errs_u[1] / errs_u[2])]
    ok = all(1.8 <= s <= 2.2 for s in slopes)
    report(10, ok, "L2 slopes " + ", ".join(f"{s:.2f}" for s in slopes)
           + " all in [1.8, 2.2]")
