"""Constitutive flux families a(y, xi), two-phase geometries and Lamé fields.

Three built-in families:

* ``linear``            a(y, xi) = b(y) xi with per-phase matrices b
* ``power-law``         a(y, xi) = sigma(y) (delta^2 + |xi|^2)^((p-2)/2) xi
* ``variable-exponent`` power law with a phase-dependent exponent p(y)

Phase layout on the unit cell comes from a Geometry (laminate, centered
square, checkerboard, disc, or uniform).  Every law that ``OperatorSpec``
builds is strictly monotone and continuous: sigma > 0, delta >= 0, and a
linear law's matrices have positive definite symmetric parts.  The
elastic fields hold one Lamé pair per phase.
"""

from dataclasses import dataclass, field

import numpy as np

from ._fem import isotropic_stress, wrap_to_cell


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
        """True where a point, wrapped to Y by periodicity, is inclusion."""
        pts = wrap_to_cell(points)
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


def _squared_norm(xi):
    """|xi|^2 over the last axis of length 2, component-wise."""
    return xi[..., 0] * xi[..., 0] + xi[..., 1] * xi[..., 1]


# ---------------------------------------------------------------------------
# Operator specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorSpec:
    """A constitutive family on a two-phase unit cell.

    ``sigma`` and ``exponent`` are (matrix-phase, inclusion-phase) pairs;
    ``matrices`` replaces ``sigma`` for the linear family.  ``p`` is the
    governing growth exponent used for norms and validation (the smaller
    exponent for the variable-exponent family).  ``delta`` regularizes the
    power law inside |xi|; it is nonnegative and runs as given, so at
    delta = 0 and p < 2 the flux is 0 where xi is.  ``sigma`` is positive
    in both phases wherever it builds the law, and a linear law's
    matrices have positive definite symmetric parts, so that every law
    is coercive.
    """

    family: str
    p: float = 2.0
    alpha: float = 1.0
    delta: float = 0.0
    geometry: Geometry = field(default_factory=Geometry)
    sigma: tuple = (1.0, 1.0)
    exponent: tuple = None
    matrices: tuple = None

    def __post_init__(self):
        if self.family not in ("linear", "power-law", "variable-exponent"):
            raise ValueError(f"unknown operator family {self.family!r}")
        if self.p <= 1.0:
            raise ValueError("growth exponent must satisfy p > 1")
        if not 0.0 <= self.alpha <= min(1.0, self.p - 1.0):
            raise ValueError("alpha must lie in [0, min(1, p-1)]")
        if self.delta < 0.0:
            raise ValueError("delta must be nonnegative")
        # sigma builds every law but a linear one given its matrices
        if (self.family != "linear" or self.matrices is None) \
                and any(s <= 0.0 for s in self.sigma):
            raise ValueError("sigma must be positive in both phases")
        if self.family == "linear":
            mats = self.matrices
            if mats is None:
                mats = (np.diag([self.sigma[0]] * 2), np.diag([self.sigma[1]] * 2))
            mats = tuple(np.array(m, dtype=float).reshape(2, 2) for m in mats)
            if any(np.linalg.eigvalsh(0.5 * (m + m.T))[0] <= 0.0
                   for m in mats):
                raise ValueError("the symmetric part of each phase's matrix "
                                 "must be positive definite")
            for m in mats:
                m.setflags(write=False)
            object.__setattr__(self, "matrices", mats)
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

    def local_coefficients(self, points):
        """Per-point coefficient data reusable across flux evaluations."""
        chi = self.geometry.indicator(points)
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

    def _out(self, loc, xi, tail, out):
        """``out``, or a new array of the broadcast point shape plus ``tail``."""
        if out is not None:
            return out
        return np.empty(np.broadcast_shapes(loc["sigma"].shape, xi.shape[:-1])
                        + tail)

    def flux_local(self, loc, xi, out=None):
        """Flux from precomputed local coefficients; xi broadcasts over loc.

        ``out`` (the broadcast point shape plus (2,), not overlapping xi)
        receives the flux; the power laws then allocate nothing of that
        size.
        """
        xi = np.asarray(xi, dtype=float)
        x0, x1 = xi[..., 0], xi[..., 1]
        if self.family == "linear":
            b = loc["bmat"]
            flux = out if out is not None else np.empty(
                np.broadcast_shapes(b.shape[:-2], xi.shape[:-1]) + (2,))
            f0, f1 = flux[..., 0], flux[..., 1]
            # b xi row by row, f1 standing in for the second product of f0
            np.multiply(b[..., 0, 0], x0, out=f0)
            np.multiply(b[..., 0, 1], x1, out=f1)
            f0 += f1
            np.multiply(b[..., 1, 0], x0, out=f1)
            f1 += b[..., 1, 1] * x1
            return flux
        flux = self._out(loc, xi, (2,), out)
        f0, f1 = flux[..., 0], flux[..., 1]
        # sigma (delta^2 + |xi|^2)^((p-2)/2) xi, built in f0; the in-place
        # power keeps numpy's scalar fast paths (sqrt at p = 3)
        np.multiply(x0, x0, out=f0)
        np.multiply(x1, x1, out=f1)
        f0 += f1
        f0 += self.delta**2
        if self.p < 2.0 and self.delta == 0.0:
            # the weight is infinite where xi = 0, and the flux 0: a
            # masked power leaves the 0 there
            np.power(f0, 0.5 * (self.p - 2.0), out=f0, where=f0 > 0.0)
        else:
            f0 **= 0.5 * (self._exponent(loc) - 2.0)
        f0 *= loc["sigma"]
        np.multiply(f0, x1, out=f1)
        f0 *= x0
        return flux

    def jacobian_local(self, loc, xi, delta_floor=0.0, out=None, work=None):
        """d flux / d xi from local coefficients, (..., 2, 2).

        ``delta_floor`` adds an inner regularization used only for Newton /
        Picard matrices; the residual always uses the spec's own delta.
        ``out`` (the broadcast point shape plus (2, 2), not overlapping xi)
        receives the Jacobian, and ``work``, four arrays of the point
        shape, holds the power laws' temporaries; given both, they
        allocate nothing of that size.
        """
        xi = np.asarray(xi, dtype=float)
        if self.family == "linear":
            if out is None:
                return np.broadcast_to(loc["bmat"],
                                       xi.shape[:-1] + (2, 2)).copy()
            np.copyto(out, loc["bmat"])
            return out
        jac = self._out(loc, xi, (2, 2), out)
        base, weight, scale, term = \
            np.empty((4,) + jac.shape[:-2]) if work is None else work
        d2 = max(self.delta, delta_floor) ** 2
        pexp = self._exponent(loc)
        sigma = loc["sigma"]
        x0, x1 = xi[..., 0], xi[..., 1]
        np.multiply(x0, x0, out=base)
        np.multiply(x1, x1, out=term)
        base += term
        base += d2
        # weight = base^((p-2)/2); the in-place power keeps numpy's scalar
        # fast paths (sqrt at p = 3)
        np.copyto(weight, base)
        weight **= 0.5 * (pexp - 2.0)
        if d2 == 0.0:                   # base is 0 only where xi is
            np.copyto(base, 1.0, where=~(base > 0.0))
        # sigma (p - 2) weight / base xi xi^T + sigma weight I; the
        # Jacobian is symmetric, so entry (1, 0) is a copy of (0, 1)
        np.multiply(pexp - 2.0, weight, out=scale)
        scale /= base
        scale *= sigma
        weight *= sigma
        np.multiply(x0, x0, out=term)
        term *= scale
        np.add(term, weight, out=jac[..., 0, 0])
        np.multiply(x1, x1, out=term)
        term *= scale
        np.add(term, weight, out=jac[..., 1, 1])
        np.multiply(x0, x1, out=term)
        term *= scale
        jac[..., 0, 1] = term
        jac[..., 1, 0] = term
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
    def is_linear(self):
        return self.family == "linear"

    @property
    def homogeneity_degree(self):
        """Degree t of flux homogeneity a(y, s*xi) = s^t a(y, xi), or None.

        Exact for the linear family and for unregularized (delta = 0)
        constant-exponent power laws at every p > 1; the cell problems
        inherit the same scaling.
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


# ---------------------------------------------------------------------------
# Elastic tensor fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ElasticTensorField:
    """Phase-wise isotropic fourth-order tensor on the unit cell.

    ``lame`` = (matrix-phase (lam, mu), inclusion-phase (lam, mu)); each
    phase's tensor is ``_fem.isotropic_tensor(lam, mu)``.  ``stress`` is the
    one way a phase turns strain into stress.
    """

    lame: tuple
    geometry: Geometry

    @classmethod
    def from_lame(cls, matrix, inclusion=None, geometry=None):
        """Build a two-phase field from (lam, mu) pairs."""
        inclusion = matrix if inclusion is None else inclusion
        geometry = geometry if geometry is not None else Geometry()
        return cls(lame=(tuple(matrix), tuple(inclusion)), geometry=geometry)

    def lame_at(self, points):
        """Per-point (lam, mu) arrays."""
        chi = self.geometry.indicator(points)
        lam = np.where(chi, self.lame[1][0], self.lame[0][0])
        mu = np.where(chi, self.lame[1][1], self.lame[0][1])
        return lam, mu

    def stress(self, points, strain):
        """B(y) E = lam tr(E) I + 2 mu E per point; E symmetric, (..., 2, 2)."""
        return isotropic_stress(*self.lame_at(points), strain)
