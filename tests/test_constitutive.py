import numpy as np
import pytest

from hk.constitutive import (ElasticTensorField, Geometry, OperatorSpec,
                             check_growth_conditions, eval_elastic_tensor,
                             eval_operator, isotropic_tensor, wrap_to_cell)

LAMINATE = Geometry(kind="laminate", fraction=0.5)


def identity_spec():
    return OperatorSpec(family="linear", geometry=Geometry("uniform"),
                        sigma=(1.0, 1.0))


def test_linear_identity_flux():
    spec = identity_spec()
    out = eval_operator(spec, np.zeros(2), np.array([2.0, -1.0]))
    assert np.array_equal(out, [2.0, -1.0])


def test_power_law_hand_value():
    spec = OperatorSpec(family="power-law", p=3.0, alpha=1.0,
                        geometry=Geometry("uniform"), sigma=(2.0, 2.0))
    out = eval_operator(spec, np.zeros(2), np.array([1.0, 0.0]))
    assert np.allclose(out, [2.0, 0.0], atol=1e-15)


def test_flux_vanishes_at_origin():
    for spec in (identity_spec(),
                 OperatorSpec(family="power-law", p=3.0, alpha=1.0,
                              geometry=LAMINATE, sigma=(1.0, 4.0)),
                 OperatorSpec(family="variable-exponent", p=2.0, alpha=1.0,
                              geometry=Geometry("square", size=0.5),
                              sigma=(1.0, 1.0), exponent=(3.0, 2.0))):
        out = eval_operator(spec, np.array([0.1, 0.2]), np.zeros(2))
        assert np.all(out == 0.0)


def test_linear_family_is_additive():
    spec = OperatorSpec(family="linear", geometry=LAMINATE, sigma=(1.0, 4.0))
    rng = np.random.default_rng(0)
    y = rng.uniform(-0.5, 0.5, size=(50, 2))
    x1 = rng.standard_normal((50, 2))
    x2 = rng.standard_normal((50, 2))
    lhs = eval_operator(spec, y, 2.0 * x1 - 3.0 * x2)
    rhs = 2.0 * eval_operator(spec, y, x1) - 3.0 * eval_operator(spec, y, x2)
    assert np.abs(lhs - rhs).max() < 1e-13


def test_power_law_homogeneity():
    spec = OperatorSpec(family="power-law", p=3.0, alpha=1.0,
                        geometry=LAMINATE, sigma=(1.0, 4.0))
    rng = np.random.default_rng(1)
    y = rng.uniform(-0.5, 0.5, size=(50, 2))
    xi = rng.standard_normal((50, 2))
    for t in (0.5, 2.0, 7.0):
        lhs = eval_operator(spec, y, t * xi)
        rhs = t ** 2 * eval_operator(spec, y, xi)
        rel = np.abs(lhs - rhs).max() / np.abs(rhs).max()
        assert rel < 1e-12


def test_variable_exponent_phase_values():
    spec = OperatorSpec(family="variable-exponent", p=2.0, alpha=1.0,
                        geometry=Geometry("square", size=0.5),
                        sigma=(1.0, 1.0), exponent=(3.0, 2.0))
    xi = np.array([2.0, 0.0])
    inside = eval_operator(spec, np.zeros(2), xi)          # exponent 2
    outside = eval_operator(spec, np.array([0.4, 0.4]), xi)  # exponent 3
    assert np.allclose(inside, [2.0, 0.0])
    assert np.allclose(outside, [4.0, 0.0])


def test_variable_exponent_requires_ordered_exponents():
    with pytest.raises(ValueError, match="inclusion exponent"):
        OperatorSpec(family="variable-exponent", p=2.0, alpha=1.0,
                     geometry=Geometry("square"), sigma=(1.0, 1.0),
                     exponent=(2.0, 3.0))


def test_delta_default_for_singular_exponents():
    spec = OperatorSpec(family="power-law", p=1.5, alpha=0.5,
                        geometry=Geometry("uniform"), sigma=(1.0, 1.0))
    assert spec.delta == 1e-8
    out = eval_operator(spec, np.zeros(2), np.zeros(2))
    assert np.all(np.isfinite(out))


def test_wrap_to_cell():
    pts = np.array([[0.75, -0.75], [1.5, 0.49], [-0.5, 0.5]])
    wrapped = wrap_to_cell(pts)
    assert np.all(wrapped >= -0.5) and np.all(wrapped < 0.5)
    assert np.allclose(wrapped[0], [-0.25, 0.25])


def test_growth_conditions_identity():
    rep = check_growth_conditions(identity_spec(), m=500, seed=0)
    assert abs(rep.empirical_monotonicity - 1.0) < 1e-12
    assert abs(rep.empirical_continuity - 1.0) < 1e-12
    assert rep.max_flux_at_zero == 0.0
    assert not rep.violation


def test_growth_conditions_power_law_positive():
    spec = OperatorSpec(family="power-law", p=3.0, alpha=1.0,
                        geometry=LAMINATE, sigma=(1.0, 1.0))
    rep = check_growth_conditions(spec, m=1000, seed=0)
    assert rep.empirical_monotonicity > 0.0
    assert not rep.violation


def test_growth_conditions_broken_law_flags():
    spec = identity_spec()
    rep = check_growth_conditions(spec, m=200, seed=0,
                                  flux_fn=lambda y, xi: -np.asarray(xi))
    assert rep.violation


def test_growth_conditions_sampled_monotonicity_all_families():
    specs = [
        OperatorSpec(family="linear", geometry=LAMINATE, sigma=(1.0, 4.0)),
        OperatorSpec(family="power-law", p=3.0, alpha=1.0, geometry=LAMINATE,
                     sigma=(1.0, 4.0)),
        OperatorSpec(family="power-law", p=2.0, alpha=1.0,
                     geometry=Geometry("checkerboard"), sigma=(1.0, 4.0)),
        OperatorSpec(family="variable-exponent", p=2.0, alpha=1.0,
                     geometry=Geometry("square", size=0.5),
                     sigma=(1.0, 1.0), exponent=(3.0, 2.0)),
    ]
    for spec in specs:
        for seed in range(3):
            rep = check_growth_conditions(spec, m=1000, seed=seed)
            assert rep.empirical_monotonicity > 0.0, (spec.family, seed)


def test_growth_conditions_rejects_tiny_sample():
    with pytest.raises(ValueError):
        check_growth_conditions(identity_spec(), m=10)


# -- tensor fields ----------------------------------------------------------

def test_isotropic_apply_hand_value():
    field = ElasticTensorField.from_lame((1.0, 1.0), geometry=Geometry("uniform"))
    out = field.apply(np.zeros(2), np.eye(2))
    assert np.allclose(out, np.diag([4.0, 4.0]))


def test_phase_correct_tensor_lookup():
    field = ElasticTensorField.from_lame((1.0, 1.0), (3.0, 2.0), LAMINATE)
    t_matrix = eval_elastic_tensor(field, np.array([-0.25, 0.0]))
    t_incl = eval_elastic_tensor(field, np.array([0.25, 0.0]))
    assert np.array_equal(t_matrix, isotropic_tensor(1.0, 1.0))
    assert np.array_equal(t_incl, isotropic_tensor(3.0, 2.0))


def test_elastic_symmetries_entrywise():
    field = ElasticTensorField.from_lame((1.0, 1.0), (3.0, 2.0), LAMINATE)
    assert field.has_elastic_symmetries(tol=1e-15)


def test_sampled_ellipticity_positive():
    field = ElasticTensorField.from_lame((1.0, 1.0), (3.0, 2.0), LAMINATE)
    max_norm, min_ratio = field.audit_bounds(100, seed=0)
    assert min_ratio > 0.0
    # configured floor: 2 mu_min = 2; allow the sampling slack
    assert min_ratio >= 2.0 * 0.99
    assert max_norm <= 7.0 + 1e-15


def test_geometry_alignment():
    assert LAMINATE.aligned_with(1.0 / 8)
    assert Geometry("square", size=0.5).aligned_with(1.0 / 8)
    assert not Geometry("square", size=0.3).aligned_with(1.0 / 8)
    assert not Geometry("disc", size=0.3).aligned_with(1.0 / 8)


# -- component-wise kernels against the broadcasting formulas ---------------

def _broadcast_flux(spec, loc, xi):
    s = xi[..., 0] * xi[..., 0] + xi[..., 1] * xi[..., 1]
    weight = (spec.delta**2 + s) ** (0.5 * (spec._exponent(loc) - 2.0))
    return (loc["sigma"] * weight)[..., None] * xi


def _broadcast_jacobian(spec, loc, xi, delta_floor):
    d2 = max(spec.delta, delta_floor) ** 2
    base = d2 + (xi[..., 0] * xi[..., 0] + xi[..., 1] * xi[..., 1])
    pexp = spec._exponent(loc)
    weight = base ** (0.5 * (pexp - 2.0))
    coef = (pexp - 2.0) * weight / np.where(base > 0.0, base, 1.0)
    jac = (loc["sigma"] * coef)[..., None, None] \
        * (xi[..., :, None] * xi[..., None, :])
    diagonal = loc["sigma"] * weight
    jac[..., 0, 0] += diagonal
    jac[..., 1, 1] += diagonal
    return jac


def _broadcast_frozen(spec, loc, xi, delta_floor):
    d2 = max(spec.delta, delta_floor) ** 2
    s = xi[..., 0] * xi[..., 0] + xi[..., 1] * xi[..., 1]
    return loc["sigma"] * (d2 + s) ** (0.5 * (spec._exponent(loc) - 2.0))


NONLINEAR_SPECS = (
    OperatorSpec(family="power-law", p=1.5, alpha=0.5, delta=0.1,
                 geometry=LAMINATE, sigma=(1.0, 4.0)),
    OperatorSpec(family="power-law", p=3.0, alpha=1.0, geometry=LAMINATE,
                 sigma=(1.0, 4.0)),
    OperatorSpec(family="variable-exponent", p=2.0, alpha=1.0,
                 geometry=Geometry("square", size=0.5), sigma=(1.0, 3.0),
                 exponent=(3.0, 2.0)),
)


@pytest.mark.parametrize("spec", NONLINEAR_SPECS,
                         ids=["p1.5-delta", "p3", "variable"])
@pytest.mark.parametrize("delta_floor", [0.0, 1e-3])
def test_kernels_bitwise_equal_broadcasting_formulas(spec, delta_floor):
    rng = np.random.default_rng(7)
    y = rng.uniform(-0.5, 0.5, size=(16, 4, 2))
    xi = rng.standard_normal((3, 16, 4, 2))
    xi[0, :3] = 0.0          # exact zeros reach the |xi| = 0 branch
    # a batch over shared per-point coefficients, one point per xi, and
    # one xi for all points
    for loc, x in (({k: v[None] for k, v in
                     spec.local_coefficients(y).items()}, xi),
                   (spec.local_coefficients(y[0]), xi[1, 0]),
                   (spec.local_coefficients(y), xi[1, 0, 0])):
        assert np.array_equal(spec.flux_local(loc, x),
                              _broadcast_flux(spec, loc, x))
        assert np.array_equal(spec.jacobian_local(loc, x, delta_floor),
                              _broadcast_jacobian(spec, loc, x, delta_floor))
        assert np.array_equal(spec.frozen_coefficient(loc, x, delta_floor),
                              _broadcast_frozen(spec, loc, x, delta_floor))
