"""Constitutive flux families a(y, xi) and fourth-order tensor fields.

Three built-in families:

* ``linear``            a(y, xi) = b(y) xi with per-phase matrices b
* ``power-law``         a(y, xi) = sigma(y) (delta^2 + |xi|^2)^((p-2)/2) xi
* ``variable-exponent`` power law with a phase-dependent exponent p(y)

Phase layout on the unit cell comes from a Geometry (laminate, centered
square, checkerboard, disc, or uniform).  Structure constants are declared
by the user and audited by sampling, never derived symbolically.
"""

from dataclasses import dataclass, field

import numpy as np

from ._fem import contract as _contract


# ---------------------------------------------------------------------------
# Two-phase geometry on the unit cell
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Geometry:
    """Inclusion indicator on Y = [-1/2, 1/2]^2.

    kinds: ``uniform`` (no inclusion), ``laminate`` (inclusion where
    y_1 >= 1/2 - fraction, so fraction=0.5 splits at y_1 = 0),
    ``square`` (centered axis-aligned square of side ``size``),
    ``checkerboard`` (off-diagonal quadrants), ``disc`` (radius ``size``,
    resolved by quadrature-point indicator only).
    """

    kind: str = "uniform"
    fraction: float = 0.5
    size: float = 0.5

    def __post_init__(self):
        kinds = ("uniform", "laminate", "square", "checkerboard", "disc")
        if self.kind not in kinds:
            raise ValueError(f"unknown geometry kind {self.kind!r}")
        if self.kind == "laminate" and not 0.0 < self.fraction < 1.0:
            raise ValueError("laminate fraction must lie in (0, 1)")
        if self.kind in ("square", "disc") and not 0.0 < self.size < 1.0:
            raise ValueError("inclusion size must lie in (0, 1)")

    def indicator(self, points):
        """True where a point belongs to the inclusion phase."""
        pts = np.asarray(points, dtype=float)
        y1 = pts[..., 0]
        y2 = pts[..., 1]
        if self.kind == "uniform":
            return np.zeros(y1.shape, dtype=bool)
        if self.kind == "laminate":
            return y1 >= 0.5 - self.fraction
        if self.kind == "square":
            half = 0.5 * self.size
            return (np.abs(y1) <= half) & (np.abs(y2) <= half)
        if self.kind == "checkerboard":
            return (y1 >= 0.0) != (y2 >= 0.0)
        # disc
        return y1 * y1 + y2 * y2 <= self.size * self.size

    def aligned_with(self, h):
        """Whether all phase interfaces lie on edges of a grid of pitch h."""
        def on_grid(v):
            return abs(v / h - round(v / h)) < 1e-12
        if self.kind in ("uniform", "checkerboard"):
            return True
        if self.kind == "laminate":
            return on_grid(0.5 - self.fraction)
        if self.kind == "square":
            return on_grid(0.5 * self.size)
        return False  # disc is never grid-aligned


def wrap_to_cell(points):
    """Map arbitrary coordinates to Y = [-1/2, 1/2)^2 by periodicity."""
    pts = np.asarray(points, dtype=float)
    return pts - np.floor(pts + 0.5)


def _squared_norm(xi):
    """|xi|^2 over the last axis of length 2, without einsum's batching."""
    return xi[..., 0] * xi[..., 0] + xi[..., 1] * xi[..., 1]


# ---------------------------------------------------------------------------
# Operator specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorSpec:
    """A constitutive family with declared structure constants.

    ``sigma`` and ``exponent`` are (matrix-phase, inclusion-phase) pairs;
    ``matrices`` replaces ``sigma`` for the linear family.  ``p`` is the
    governing growth exponent used for norms and validation (the smaller
    exponent for the variable-exponent family).  ``delta`` regularizes the
    power law inside |xi|; it must be positive when p < 2.
    """

    family: str
    p: float = 2.0
    alpha: float = 1.0
    delta: float = 0.0
    geometry: Geometry = field(default_factory=Geometry)
    sigma: tuple = (1.0, 1.0)
    exponent: tuple = None
    matrices: tuple = None
    lambda_o: float = 1.0
    Lambda_o: float = 1.0
    Lambda_star: float = 1.0

    def __post_init__(self):
        if self.family not in ("linear", "power-law", "variable-exponent"):
            raise ValueError(f"unknown operator family {self.family!r}")
        if self.p <= 1.0:
            raise ValueError("growth exponent must satisfy p > 1")
        if not 0.0 <= self.alpha <= min(1.0, self.p - 1.0):
            raise ValueError("alpha must lie in [0, min(1, p-1)]")
        if min(self.lambda_o, self.Lambda_o, self.Lambda_star) <= 0.0:
            raise ValueError("structure constants must be positive")
        if self.family == "linear":
            mats = self.matrices
            if mats is None:
                mats = (np.diag([self.sigma[0]] * 2), np.diag([self.sigma[1]] * 2))
            mats = tuple(np.array(m, dtype=float).reshape(2, 2) for m in mats)
            for m in mats:
                m.setflags(write=False)
            object.__setattr__(self, "matrices", mats)
        else:
            if any(s <= 0.0 for s in self.sigma):
                raise ValueError("sigma must be positive in both phases")
            if self.p < 2.0 and self.delta <= 0.0:
                object.__setattr__(self, "delta", 1e-8)
        if self.family == "variable-exponent":
            if self.exponent is None:
                raise ValueError("variable-exponent family needs exponent pair")
            p_mat, p_inc = self.exponent
            if not 2.0 <= p_inc <= p_mat:
                raise ValueError(
                    "variable-exponent family needs 2 <= inclusion exponent "
                    "<= matrix exponent")
            if self.p != p_inc:
                raise ValueError("p must equal the smaller (inclusion) exponent")

    # -- phase-resolved coefficients -------------------------------------

    def phase(self, points):
        return self.geometry.indicator(wrap_to_cell(points))

    def local_coefficients(self, points):
        """Per-point coefficient data reusable across flux evaluations."""
        chi = self.phase(points)
        if self.family == "linear":
            b = np.where(chi[..., None, None], self.matrices[1], self.matrices[0])
            return {"bmat": b}
        loc = {"sigma": np.where(chi, self.sigma[1], self.sigma[0])}
        if self.family == "variable-exponent":
            loc["pexp"] = np.where(chi, self.exponent[1], self.exponent[0])
        return loc

    def _exponent(self, loc):
        """Per-point exponents of a variable-exponent law, else the scalar p.

        A scalar exponent keeps numpy's power on its fast scalar path.
        """
        return loc["pexp"] if self.family == "variable-exponent" else self.p

    def flux_local(self, loc, xi):
        """Flux from precomputed local coefficients; xi broadcasts over loc."""
        xi = np.asarray(xi, dtype=float)
        if self.family == "linear":
            return _contract("...ij,...j->...i", loc["bmat"], xi)
        s = _squared_norm(xi)
        weight = (self.delta**2 + s) ** (0.5 * (self._exponent(loc) - 2.0))
        scale = loc["sigma"] * weight
        flux = np.empty(scale.shape + (2,))
        np.multiply(scale, xi[..., 0], out=flux[..., 0])
        np.multiply(scale, xi[..., 1], out=flux[..., 1])
        return flux

    def jacobian_local(self, loc, xi, delta_floor=0.0):
        """d flux / d xi from local coefficients, (..., 2, 2).

        ``delta_floor`` adds an inner regularization used only for Newton /
        Picard matrices; the residual always uses the spec's own delta.
        """
        xi = np.asarray(xi, dtype=float)
        if self.family == "linear":
            return np.broadcast_to(loc["bmat"],
                                   xi.shape[:-1] + (2, 2)).copy()
        d2 = max(self.delta, delta_floor) ** 2
        s = _squared_norm(xi)
        base = d2 + s
        pexp = self._exponent(loc)
        weight = base ** (0.5 * (pexp - 2.0))
        safe = np.where(base > 0.0, base, 1.0)
        scale = loc["sigma"] * ((pexp - 2.0) * weight / safe)
        diagonal = loc["sigma"] * weight
        # sigma coef xi xi^T + sigma weight I, one entry at a time; the
        # Jacobian is symmetric, so entry (1, 0) is a copy of (0, 1)
        x0 = xi[..., 0]
        x1 = xi[..., 1]
        jac = np.empty(scale.shape + (2, 2))
        np.add(scale * (x0 * x0), diagonal, out=jac[..., 0, 0])
        np.multiply(scale, x0 * x1, out=jac[..., 0, 1])
        np.add(scale * (x1 * x1), diagonal, out=jac[..., 1, 1])
        jac[..., 1, 0] = jac[..., 0, 1]
        return jac

    def frozen_coefficient(self, loc, xi, delta_floor=0.0):
        """Secant coefficient c with a(y, xi) = c xi, (...).

        c = sigma (max(delta, delta_floor)^2 + |xi|^2)^((p-2)/2), frozen at
        the current xi, is the coefficient of a frozen-coefficient (Picard)
        step.  Nonlinear families only.
        """
        d2 = max(self.delta, delta_floor) ** 2
        s = _squared_norm(xi)
        return loc["sigma"] * (d2 + s) ** (0.5 * (self._exponent(loc) - 2.0))

    @property
    def max_exponent(self):
        """Largest growth exponent over both phases."""
        return max(self.exponent) if self.family == "variable-exponent" \
            else self.p

    @property
    def frozen_relaxation(self):
        """w = min(1, 1/(p_max - 1)) of the step x + w (picard(x) - x).

        It cancels the frozen-coefficient map's derivative -(p - 2) along
        the amplitude mode, which stops the plain step contracting at p = 3.
        """
        return min(1.0, 1.0 / (self.max_exponent - 1.0))

    def flux(self, y, xi):
        return self.flux_local(self.local_coefficients(y), xi)

    @property
    def is_constant(self):
        """True when the law does not depend on y."""
        if self.geometry.kind == "uniform":
            return True
        if self.family == "linear":
            return bool(np.array_equal(self.matrices[0], self.matrices[1]))
        same_sigma = self.sigma[0] == self.sigma[1]
        if self.family == "variable-exponent":
            return same_sigma and self.exponent[0] == self.exponent[1]
        return same_sigma

    @property
    def is_linear(self):
        return self.family == "linear"

    @property
    def homogeneity_degree(self):
        """Degree t of flux homogeneity a(y, s*xi) = s^t a(y, xi), or None.

        Exact for the linear family and for unregularized constant-exponent
        power laws; the cell problems inherit the same scaling.
        """
        if self.family == "linear":
            return 1.0
        if self.family == "power-law" and self.delta == 0.0:
            return self.p - 1.0
        return None

    def fingerprint(self):
        parts = [self.family, f"p={self.p:.12g}", f"a={self.alpha:.12g}",
                 f"d={self.delta:.12g}", self.geometry.kind,
                 f"fr={self.geometry.fraction:.12g}",
                 f"sz={self.geometry.size:.12g}"]
        if self.family == "linear":
            parts.append("b=" + ",".join(f"{v:.12g}"
                                         for m in self.matrices for v in m.ravel()))
        else:
            parts.append(f"s={self.sigma[0]:.12g},{self.sigma[1]:.12g}")
        if self.exponent is not None:
            parts.append(f"e={self.exponent[0]:.12g},{self.exponent[1]:.12g}")
        return "|".join(parts)


def eval_operator(spec, y, xi):
    """Flux a(y, xi); y is wrapped into the unit cell first."""
    return spec.flux(y, xi)


# ---------------------------------------------------------------------------
# Structural-condition audit by sampling
# ---------------------------------------------------------------------------

@dataclass
class GrowthReport:
    """Empirical structure constants from random (y, xi_1, xi_2) triples."""

    samples: int
    seed: int
    max_flux_at_zero: float
    empirical_continuity: float   # max continuity ratio (empirical Lambda_o)
    empirical_monotonicity: float  # min monotonicity ratio (empirical lambda_o)
    violation: bool

    def __str__(self):
        flag = "VIOLATION" if self.violation else "ok"
        return (f"growth audit [{flag}] over {self.samples} samples: "
                f"|a(.,0)| <= {self.max_flux_at_zero:.3e}, "
                f"continuity <= {self.empirical_continuity:.6g}, "
                f"monotonicity >= {self.empirical_monotonicity:.6g}")


def _ball_samples(rng, m, radius):
    angle = rng.uniform(0.0, 2.0 * np.pi, size=m)
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, size=m))
    return np.stack([r * np.cos(angle), r * np.sin(angle)], axis=-1)


def check_growth_conditions(spec, m=1000, seed=0, radius=3.0, flux_fn=None):
    """Audit boundedness, continuity, and monotonicity on random samples.

    Ratios are measured against the structural weights
    (1 + |xi_1|^2 + |xi_2|^2)^((p-1-alpha)/2) |xi_1 - xi_2|^alpha and
    (1 + |xi_1|^2 + |xi_2|^2)^((p-2)/2) |xi_1 - xi_2|^2.  The loading
    points are drawn from a ball in R^2 (the continuity condition is read
    over R^d).  A nonpositive monotonicity ratio raises the violation
    flag; it never raises an exception.  ``flux_fn(y, xi)`` may override
    the spec's own flux (used to audit deliberately broken laws).
    """
    if m < 100:
        raise ValueError("growth audit needs at least 100 samples")
    rng = np.random.default_rng(seed)
    y = rng.uniform(-0.5, 0.5, size=(m, 2))
    xi1 = _ball_samples(rng, m, radius)
    xi2 = _ball_samples(rng, m, radius)
    flux = flux_fn if flux_fn is not None else spec.flux
    a0 = flux(y, np.zeros((m, 2)))
    a1 = flux(y, xi1)
    a2 = flux(y, xi2)
    diff = a1 - a2
    dxi = xi1 - xi2
    norm_dxi = np.linalg.norm(dxi, axis=-1)
    keep = norm_dxi > 1e-12
    weight = 1.0 + np.sum(xi1 * xi1, axis=-1) + np.sum(xi2 * xi2, axis=-1)
    p, alpha = spec.p, spec.alpha
    cont = (np.linalg.norm(diff, axis=-1)[keep]
            / (weight[keep] ** (0.5 * (p - 1.0 - alpha))
               * norm_dxi[keep] ** alpha))
    mono = (np.sum(diff * dxi, axis=-1)[keep]
            / (weight[keep] ** (0.5 * (p - 2.0)) * norm_dxi[keep] ** 2))
    lam_emp = float(mono.min())
    return GrowthReport(
        samples=int(keep.sum()),
        seed=seed,
        max_flux_at_zero=float(np.linalg.norm(a0, axis=-1).max()),
        empirical_continuity=float(cont.max()),
        empirical_monotonicity=lam_emp,
        violation=bool(lam_emp <= 0.0),
    )


# ---------------------------------------------------------------------------
# Fourth-order tensor fields
# ---------------------------------------------------------------------------

def isotropic_tensor(lam, mu):
    """B_{ijkh} = lam d_ij d_kh + mu (d_ik d_jh + d_ih d_jk)."""
    eye = np.eye(2)
    return (lam * _contract("ij,kh->ijkh", eye, eye)
            + mu * (_contract("ik,jh->ijkh", eye, eye)
                    + _contract("ih,jk->ijkh", eye, eye)))


@dataclass(frozen=True)
class ElasticTensorField:
    """Phase-wise constant fourth-order tensor on the unit cell.

    ``tensors`` = (matrix-phase tensor, inclusion-phase tensor), each
    (2,2,2,2).  ``lame`` keeps the (lam, mu) pairs when both phases are
    isotropic, enabling fast assembly paths.
    """

    tensors: tuple
    geometry: Geometry = field(default_factory=Geometry)
    lame: tuple = None

    def __post_init__(self):
        tensors = tuple(np.array(t, dtype=float).reshape(2, 2, 2, 2)
                        for t in self.tensors)
        for t in tensors:
            t.setflags(write=False)
        object.__setattr__(self, "tensors", tensors)

    @classmethod
    def from_lame(cls, matrix, inclusion=None, geometry=None):
        """Build an isotropic two-phase field from (lam, mu) pairs."""
        inclusion = matrix if inclusion is None else inclusion
        geometry = geometry if geometry is not None else Geometry()
        return cls(tensors=(isotropic_tensor(*matrix), isotropic_tensor(*inclusion)),
                   geometry=geometry,
                   lame=(tuple(matrix), tuple(inclusion)))

    def phase(self, points):
        return self.geometry.indicator(wrap_to_cell(points))

    def tensor_at(self, points):
        chi = self.phase(points)
        return np.where(chi[..., None, None, None, None],
                        self.tensors[1], self.tensors[0])

    def apply(self, points, mat):
        """(B(y) M)_{ij} = B_{ijkh} M_{kh}, phase-resolved at each point."""
        return _contract("...ijkh,...kh->...ij", self.tensor_at(points),
                         np.asarray(mat, dtype=float))

    def lame_at(self, points):
        """Per-point (lam, mu) arrays; only for isotropic two-phase fields."""
        if self.lame is None:
            raise ValueError("tensor field is not phase-wise isotropic")
        chi = self.phase(points)
        lam = np.where(chi, self.lame[1][0], self.lame[0][0])
        mu = np.where(chi, self.lame[1][1], self.lame[0][1])
        return lam, mu

    def has_elastic_symmetries(self, tol=1e-15):
        """Entrywise B_{ijkh} = B_{jikh} = B_{ijhk} for both phases."""
        for t in self.tensors:
            if (np.abs(t - np.transpose(t, (1, 0, 2, 3))).max() > tol
                    or np.abs(t - np.transpose(t, (0, 1, 3, 2))).max() > tol):
                return False
        return True

    def audit_bounds(self, n_samples=100, seed=0):
        """Sampled sup-norm and ellipticity floor over symmetric matrices.

        Returns (max_norm, min_ratio) with min_ratio the smallest
        B c : c / |c|^2 over random nonzero symmetric c and random y.
        (Ellipticity is audited on symmetric matrices; isotropic tensors
        annihilate the antisymmetric part.)
        """
        rng = np.random.default_rng(seed)
        y = rng.uniform(-0.5, 0.5, size=(n_samples, 2))
        c = rng.standard_normal((n_samples, 2, 2))
        c = 0.5 * (c + np.swapaxes(c, -1, -2))
        bc = self.apply(y, c)
        ratio = _contract("sij,sij->s", bc, c) / _contract("sij,sij->s", c, c)
        max_norm = max(float(np.abs(t).max()) for t in self.tensors)
        return max_norm, float(ratio.min())

    def fingerprint(self):
        vals = ",".join(f"{v:.12g}" for t in self.tensors for v in t.ravel())
        return f"{self.geometry.kind}|{self.geometry.fraction:.12g}" \
               f"|{self.geometry.size:.12g}|{vals}"


def eval_elastic_tensor(tensor_field, y):
    """Fourth-order tensor at y (wrapped into the unit cell)."""
    return tensor_field.tensor_at(y)
