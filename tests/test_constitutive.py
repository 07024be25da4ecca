import numpy as np
import pytest

from hk._fem import DELTA_JAC, isotropic_tensor
from hk.constitutive import (ElasticTensorField, Geometry, OperatorSpec,
                             wrap_to_cell)

LAMINATE = Geometry(kind="laminate", fraction=0.5)


def identity_spec():
    return OperatorSpec(family="linear", geometry=Geometry("uniform"),
                        sigma=(1.0, 1.0))


def test_linear_identity_flux():
    spec = identity_spec()
    out = spec.flux(np.zeros(2), np.array([2.0, -1.0]))
    assert np.array_equal(out, [2.0, -1.0])


def test_power_law_hand_value():
    spec = OperatorSpec(family="power-law", p=3.0, alpha=1.0,
                        geometry=Geometry("uniform"), sigma=(2.0, 2.0))
    out = spec.flux(np.zeros(2), np.array([1.0, 0.0]))
    assert np.allclose(out, [2.0, 0.0], atol=1e-15)


def test_flux_vanishes_at_origin():
    for spec in (identity_spec(),
                 OperatorSpec(family="power-law", p=3.0, alpha=1.0,
                              geometry=LAMINATE, sigma=(1.0, 4.0)),
                 OperatorSpec(family="variable-exponent", p=2.0, alpha=1.0,
                              geometry=Geometry("square", size=0.5),
                              sigma=(1.0, 1.0), exponent=(3.0, 2.0))):
        out = spec.flux(np.array([0.1, 0.2]), np.zeros(2))
        assert np.all(out == 0.0)


def test_linear_family_is_additive():
    spec = OperatorSpec(family="linear", geometry=LAMINATE, sigma=(1.0, 4.0))
    rng = np.random.default_rng(0)
    y = rng.uniform(-0.5, 0.5, size=(50, 2))
    x1 = rng.standard_normal((50, 2))
    x2 = rng.standard_normal((50, 2))
    lhs = spec.flux(y, 2.0 * x1 - 3.0 * x2)
    rhs = 2.0 * spec.flux(y, x1) - 3.0 * spec.flux(y, x2)
    assert np.abs(lhs - rhs).max() < 1e-13


def test_power_law_homogeneity():
    spec = OperatorSpec(family="power-law", p=3.0, alpha=1.0,
                        geometry=LAMINATE, sigma=(1.0, 4.0))
    rng = np.random.default_rng(1)
    y = rng.uniform(-0.5, 0.5, size=(50, 2))
    xi = rng.standard_normal((50, 2))
    for t in (0.5, 2.0, 7.0):
        lhs = spec.flux(y, t * xi)
        rhs = t ** 2 * spec.flux(y, xi)
        rel = np.abs(lhs - rhs).max() / np.abs(rhs).max()
        assert rel < 1e-12


def test_variable_exponent_phase_values():
    spec = OperatorSpec(family="variable-exponent", p=2.0, alpha=1.0,
                        geometry=Geometry("square", size=0.5),
                        sigma=(1.0, 1.0), exponent=(3.0, 2.0))
    xi = np.array([2.0, 0.0])
    inside = spec.flux(np.zeros(2), xi)          # exponent 2
    outside = spec.flux(np.array([0.4, 0.4]), xi)  # exponent 3
    assert np.allclose(inside, [2.0, 0.0])
    assert np.allclose(outside, [4.0, 0.0])


def test_variable_exponent_requires_ordered_exponents():
    with pytest.raises(ValueError, match="inclusion exponent"):
        OperatorSpec(family="variable-exponent", p=2.0, alpha=1.0,
                     geometry=Geometry("square"), sigma=(1.0, 1.0),
                     exponent=(2.0, 3.0))


def test_delta_default_for_singular_exponents():
    # p < 2 runs as stated: delta stays 0, the law is (p - 1)-homogeneous,
    # and the flux is exactly 0 where xi is, without a floating-point
    # warning; only the Newton matrices take their floor
    spec = OperatorSpec(family="power-law", p=1.5, alpha=0.5,
                        geometry=LAMINATE, sigma=(1.0, 4.0))
    assert spec.delta == 0.0
    assert spec.homogeneity_degree == 0.5
    rng = np.random.default_rng(3)
    y = rng.uniform(-0.5, 0.5, size=(32, 2))
    xi = rng.standard_normal((32, 2))
    xi[:4] = 0.0
    loc = spec.local_coefficients(y)
    with np.errstate(all="raise"):
        flux = spec.flux_local(loc, xi)
        jac = spec.jacobian_local(loc, xi, delta_floor=DELTA_JAC)
        coef = spec.frozen_coefficient(loc, xi, DELTA_JAC)
    assert np.array_equal(flux[:4], np.zeros((4, 2)))
    assert np.array_equal(
        flux[4:], _broadcast_flux(spec, {"sigma": loc["sigma"][4:]}, xi[4:]))
    assert np.all(np.isfinite(jac)) and np.all(np.isfinite(coef))


@pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 3.0])
def test_alpha_defaults_to_min_one_p_minus_one(p):
    # the default of validate_config: a p < 2 law builds without an alpha,
    # and at p >= 2 the law is the one with alpha = 1
    spec = OperatorSpec(family="power-law", p=p, geometry=LAMINATE,
                        sigma=(1.0, 4.0))
    assert spec.alpha == min(1.0, p - 1.0)
    assert spec == OperatorSpec(family="power-law", p=p,
                                alpha=min(1.0, p - 1.0), geometry=LAMINATE,
                                sigma=(1.0, 4.0))


@pytest.mark.parametrize("family, exponent", [
    ("linear", None), ("power-law", None), ("variable-exponent", (3.0, 2.0))])
def test_negative_delta_is_rejected(family, exponent):
    # the flux reads delta^2 but the Newton Jacobian max(delta, floor)^2:
    # a negative delta would make them disagree
    with pytest.raises(ValueError, match="delta"):
        OperatorSpec(family=family, p=2.0 if exponent else 3.0, alpha=1.0,
                     delta=-1.0, geometry=LAMINATE, sigma=(1.0, 4.0),
                     exponent=exponent)


@pytest.mark.parametrize("sigma", [(0.0, 4.0), (-1.0, 4.0), (1.0, 0.0)])
def test_linear_law_from_sigma_needs_positive_sigma(sigma):
    with pytest.raises(ValueError, match="sigma must be positive"):
        OperatorSpec(family="linear", geometry=LAMINATE, sigma=sigma)
    # given matrices, a linear law does not read sigma
    spec = OperatorSpec(family="linear", geometry=LAMINATE, sigma=sigma,
                        matrices=(np.eye(2), 4.0 * np.eye(2)))
    assert spec.matrices[1][0, 0] == 4.0


@pytest.mark.parametrize("matrix", [[[-1.0, 0.0], [0.0, -1.0]],
                                    [[1.0, 0.0], [0.0, 0.0]],
                                    [[1.0, 3.0], [0.0, 1.0]]])
def test_linear_law_needs_a_coercive_matrix(matrix):
    # the symmetric part decides: [[1, 3], [0, 1]] has eigenvalues 1, 1,
    # but A xi . xi < 0 at xi = (1, -1)
    with pytest.raises(ValueError, match="positive definite"):
        OperatorSpec(family="linear", geometry=LAMINATE,
                     matrices=(np.eye(2), matrix))
    # a skew part alone does not break coercivity
    OperatorSpec(family="linear", geometry=LAMINATE,
                 matrices=(((1.0, 0.5), (-0.5, 1.0)), np.eye(2)))

def test_wrap_to_cell():
    pts = np.array([[0.75, -0.75], [1.5, 0.49], [-0.5, 0.5]])
    wrapped = wrap_to_cell(pts)
    assert np.all(wrapped >= -0.5) and np.all(wrapped < 0.5)
    assert np.allclose(wrapped[0], [-0.25, 0.25])


def test_flux_is_strictly_monotone_in_every_family():
    # (a(y, xi1) - a(y, xi2)).(xi1 - xi2) > 0 on random triples, exact
    # zeros of xi1 included, for every family OperatorSpec builds
    specs = [
        OperatorSpec(family="linear", geometry=LAMINATE, sigma=(1.0, 4.0)),
        OperatorSpec(family="power-law", p=3.0, alpha=1.0, geometry=LAMINATE,
                     sigma=(1.0, 4.0)),
        OperatorSpec(family="power-law", p=2.0, alpha=1.0,
                     geometry=Geometry("checkerboard"), sigma=(1.0, 4.0)),
        OperatorSpec(family="variable-exponent", p=2.0, alpha=1.0,
                     geometry=Geometry("square", size=0.5),
                     sigma=(1.0, 1.0), exponent=(3.0, 2.0)),
        OperatorSpec(family="power-law", p=1.5, alpha=0.5,
                     geometry=Geometry("square", size=0.5), sigma=(1.0, 4.0)),
    ]
    rng = np.random.default_rng(0)
    for spec in specs:
        y = rng.uniform(-0.5, 0.5, size=(1000, 2))
        xi1 = 3.0 * rng.standard_normal((1000, 2))
        xi2 = 3.0 * rng.standard_normal((1000, 2))
        xi1[:10] = 0.0
        pairing = ((spec.flux(y, xi1) - spec.flux(y, xi2))
                   * (xi1 - xi2)).sum(axis=-1)
        assert np.all(pairing > 0.0), spec.family


# -- tensor fields ----------------------------------------------------------

def test_isotropic_apply_hand_value():
    field = ElasticTensorField.from_lame((1.0, 1.0), geometry=Geometry("uniform"))
    out = field.stress(np.zeros(2), np.eye(2))
    assert np.allclose(out, np.diag([4.0, 4.0]))


def test_phase_correct_tensor_lookup():
    field = ElasticTensorField.from_lame((1.0, 1.0), (3.0, 2.0), LAMINATE)
    points = np.array([[-0.25, 0.0], [0.25, 0.0]])
    lam, mu = field.lame_at(points)
    assert np.array_equal(lam, [1.0, 3.0])
    assert np.array_equal(mu, [1.0, 2.0])
    strain = np.array([[1.0, 0.5], [0.5, -2.0]])
    for k, (lam_k, mu_k) in enumerate(((1.0, 1.0), (3.0, 2.0))):
        ref = np.einsum("ijkh,kh->ij", isotropic_tensor(lam_k, mu_k), strain)
        assert np.array_equal(field.stress(points[k], strain), ref)


def test_stress_is_elliptic_on_symmetric_strains():
    # B c : c = 2 mu |c|^2 + lam (tr c)^2 >= 2 min(mu, lam + mu) |c|^2,
    # a negative lam included, since (tr c)^2 <= 2 |c|^2
    rng = np.random.default_rng(1)
    for pairs in (((1.0, 1.0), (3.0, 2.0)), ((-0.5, 1.0), (2.0, 0.3))):
        field = ElasticTensorField.from_lame(*pairs, geometry=LAMINATE)
        y = rng.uniform(-0.5, 0.5, size=(1000, 2))
        c = rng.standard_normal((1000, 2, 2))
        c = 0.5 * (c + np.swapaxes(c, -1, -2))
        lam, mu = field.lame_at(y)
        energy = (field.stress(y, c) * c).sum(axis=(1, 2))
        floor = 2.0 * np.minimum(mu, lam + mu) * (c * c).sum(axis=(1, 2))
        assert np.all(energy >= floor * (1.0 - 1e-12)), pairs
        assert np.all(energy > 0.0), pairs


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
        # the same kernels writing into given arrays
        flux = np.full(_broadcast_flux(spec, loc, x).shape, np.nan)
        assert spec.flux_local(loc, x, out=flux) is flux
        assert np.array_equal(flux, _broadcast_flux(spec, loc, x))
        jac = np.full(_broadcast_jacobian(spec, loc, x, delta_floor).shape,
                      np.nan)
        assert spec.jacobian_local(loc, x, delta_floor, out=jac) is jac
        assert np.array_equal(jac,
                              _broadcast_jacobian(spec, loc, x, delta_floor))
        assert np.array_equal(spec.frozen_coefficient(loc, x, delta_floor),
                              _broadcast_frozen(spec, loc, x, delta_floor))
