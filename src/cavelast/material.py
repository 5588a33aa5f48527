"""Stored-energy densities for the bulk and for created cavity surface.

The bulk density acts on 2x2 deformation gradients F with det F > 0:

    W(F) = (mu/2) |F|^2 + a (det F)^2 - b log(det F)

with |F| the Frobenius norm.  The three parameter groups play the usual
roles: mu is the shear stiffness, the a-term penalizes dilation, the log
term blows up under compression so that finite energy forces det F > 0.
The density is polyconvex (a convex function of (F, det F)) and satisfies
the growth and stress-control bounds that the energy functional needs;
`coercivity_gap` and `stress_control_ratio` expose those bounds as
checkable numbers.

The surface density phi acts on boundary normals (or un-normalized normal
vectors, by one-homogeneity) and prices a unit of created cavity surface:

    isotropic    phi(z) = |z|
    elliptic     phi(z) = sqrt(z . A z),  A symmetric positive definite
    smoothed_l1  phi(z) = sum_i sqrt(z_i^2 + eps^2 |z|^2) / sqrt(1 + 2 eps^2)

All three are positively one-homogeneous, convex, bounded below by a
positive multiple of |z|, and smooth away from zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import DomainError


def _frob2(F):
    """Squared Frobenius norm over the trailing 2x2 axes."""
    return np.einsum("...ab,...ab->...", F, F)


def _det2(F):
    return F[..., 0, 0] * F[..., 1, 1] - F[..., 0, 1] * F[..., 1, 0]


def _cof2(F):
    """Cofactor matrix of a 2x2 batch: cof(F)_ij = d(det F)/dF_ij."""
    c = np.empty_like(F)
    c[..., 0, 0] = F[..., 1, 1]
    c[..., 0, 1] = -F[..., 1, 0]
    c[..., 1, 0] = -F[..., 0, 1]
    c[..., 1, 1] = F[..., 0, 0]
    return c


# D^2 det on vec F = (F00, F01, F10, F11): det(F + G) - det F - cof F : G = det G
_D2DET = np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0],
                   [0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])


@dataclass(frozen=True)
class BulkDensity:
    """W(F) = (mu/2)|F|^2 + a (det F)^2 - b log(det F), quadratic growth.

    mu, a, b must be positive.  `energy`, `stress`, `hessian` and
    `hessian_eigensystem` accept a single 2x2 array or any (..., 2, 2) batch
    and raise DomainError when det F <= 0 anywhere in the batch.
    """

    mu: float = 1.0
    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        if min(self.mu, self.a, self.b) <= 0.0:
            raise ValueError("mu, a, b must all be positive")

    def energy(self, F):
        F = np.asarray(F, dtype=float)
        det = _det2(F)
        if np.any(det <= 0.0):
            raise DomainError("det F <= 0: deformation gradient outside the admissible cone")
        return 0.5 * self.mu * _frob2(F) + self.a * det ** 2 - self.b * np.log(det)

    def stress(self, F):
        """DW(F) = mu F + (2 a det F - b / det F) cof F."""
        F = np.asarray(F, dtype=float)
        det = _det2(F)
        if np.any(det <= 0.0):
            raise DomainError("det F <= 0: deformation gradient outside the admissible cone")
        coef = 2.0 * self.a * det - self.b / det
        return self.mu * F + coef[..., None, None] * _cof2(F)

    def hessian(self, F):
        """D^2W(F)[a, b, c, d] = d^2 W / dF_ab dF_cd, shape (..., 2, 2, 2, 2):
        mu I + (2 a + b / det^2) cof F (x) cof F + (2 a det - b / det) D^2 det.
        Not positive semidefinite in general (W is polyconvex, not convex);
        `DiscreteEnergy.hess` projects it through the closed-form
        `hessian_eigensystem` (Smith, de Goes & Kim, ACM TOG 2019)."""
        F = np.asarray(F, dtype=float)
        det = _det2(F)
        if np.any(det <= 0.0):
            raise DomainError("det F <= 0: deformation gradient outside the admissible cone")
        cof = _cof2(F).reshape(det.shape + (4,))
        H = cof[..., :, None] * cof[..., None, :]
        H *= (2.0 * self.a + self.b / det ** 2)[..., None, None]
        H += (2.0 * self.a * det - self.b / det)[..., None, None] * _D2DET
        H += self.mu * np.eye(4)
        return H.reshape(det.shape + (2, 2, 2, 2))

    def hessian_eigensystem(self, F):
        """(lam (..., 4), vec (..., 4, 4)) with `hessian(F)` = vec diag(lam)
        vec^T on vec F = (F00, F01, F10, F11), vec orthogonal, eigenvectors
        in its columns, in closed form (after Smith, de Goes & Kim, "Analytic
        Eigensystems for Isotropic Distortion Energies", ACM TOG 2019).

        Split F = F_c + F_a into its conformal part [[p, -q], [q, p]] and its
        anticonformal part [[r, s], [s, -r]]; then cof F = F_c - F_a and
        D^2 det is +1 on the conformal and -1 on the anticonformal plane. So
        D^2W = mu I + k D^2 det + alpha c c^T, with c = vec cof F,
        alpha = 2 a + b / det^2 and k = 2 a det - b / det, has the
        eigenvalue mu + k on the conformal direction orthogonal to F_c,
        mu - k on the anticonformal direction orthogonal to F_a, and a
        symmetric 2x2 problem on span{F_c, F_a}, solved by the half-angle
        formula. det = (|F_c|^2 - |F_a|^2) / 2 > 0 forces |F_c| > |F_a|, so
        F_c never vanishes; where F_a does (F a rotation-dilation), the
        anticonformal basis is vec diag(1, -1) / sqrt 2 and its rotation."""
        F = np.asarray(F, dtype=float)
        det = _det2(F)
        if np.any(det <= 0.0):
            raise DomainError("det F <= 0: deformation gradient outside the admissible cone")
        p = 0.5 * (F[..., 0, 0] + F[..., 1, 1])
        q = 0.5 * (F[..., 1, 0] - F[..., 0, 1])
        r = 0.5 * (F[..., 0, 0] - F[..., 1, 1])
        s = 0.5 * (F[..., 0, 1] + F[..., 1, 0])
        rho_c, rho_a = np.hypot(p, q), np.hypot(r, s)  # |F_c| / sqrt 2 > |F_a| / sqrt 2
        cc, sc = p / rho_c, q / rho_c
        anti = rho_a > 0.0
        ra = np.where(anti, rho_a, 1.0)
        ca, sa = np.where(anti, r / ra, 1.0), s / ra
        alpha = 2.0 * self.a + self.b / det ** 2
        k = 2.0 * self.a * det - self.b / det
        # on the unit vectors u_c of F_c and u_a of F_a, D^2W is the block
        # [[mu + k + 2 alpha rho_c^2, B], [B, mu - k + 2 alpha rho_a^2]]; half its
        # diagonal difference is k + alpha det = 4 a det > 0, so the eigenvector
        # (half + rad, B) of its larger eigenvalue never vanishes
        mean = self.mu + alpha * (rho_c ** 2 + rho_a ** 2)
        half = 4.0 * self.a * det
        B = -2.0 * alpha * rho_c * rho_a
        rad = np.hypot(half, B)
        norm = np.sqrt(2.0 * rad * (rad + half))  # |(half + rad, B)|
        cos, sin = (half + rad) / norm, B / norm
        lam = np.stack([mean + rad, mean - rad, self.mu + k, self.mu - k], axis=-1)
        uc = np.stack([cc, -sc, sc, cc], axis=-1)
        ua = np.stack([ca, sa, sa, -ca], axis=-1)
        vec = np.stack([cos[..., None] * uc + sin[..., None] * ua,
                        cos[..., None] * ua - sin[..., None] * uc,
                        np.stack([-sc, -cc, cc, -sc], axis=-1),
                        np.stack([-sa, ca, ca, sa], axis=-1)], axis=-1)
        return lam, vec * np.sqrt(0.5)

    def energy_change(self, F, dF):
        """W(F + dF) - W(F) without cancellation, batched like `energy`: the
        determinant changes by cof F : dF + det dF, the shear term by
        mu/2 (2F + dF) : dF, and the log term is log1p(ddet / det) unless
        |ddet| >= det / 2 (a collapsing element), where log det(F + dF) -
        log det F is the accurate one."""
        F = np.asarray(F, dtype=float)
        dF = np.asarray(dF, dtype=float)
        det, det1 = _det2(F), _det2(F + dF)
        if np.any(det <= 0.0) or np.any(det1 <= 0.0):
            raise DomainError("det F <= 0: deformation gradient outside the admissible cone")
        ddet = np.einsum("...ab,...ab->...", _cof2(F), dF) + _det2(dF)
        small = np.abs(ddet) < 0.5 * det
        dlog = np.where(small, np.log1p(np.where(small, ddet / det, 0.0)),
                        np.log(det1) - np.log(det))
        return (0.5 * self.mu * np.einsum("...ab,...ab->...", 2.0 * F + dF, dF)
                + self.a * ddet * (2.0 * det + ddet) - self.b * dlog)

    def gamma(self, h):
        """Volumetric part a h^2 - b log h, shifted to be nonnegative.

        The shift is max(0, -min gamma_raw); for b <= 2 a e the raw minimum
        is already nonnegative and the shift is zero.
        """
        h = np.asarray(h, dtype=float)
        if np.any(h <= 0.0):
            raise DomainError("gamma is defined for positive arguments only")
        raw = self.a * h ** 2 - self.b * np.log(h)
        return raw + self._gamma_shift()

    def _gamma_shift(self):
        hstar2 = self.b / (2.0 * self.a)
        raw_min = 0.5 * self.b * (1.0 - np.log(hstar2))
        return max(0.0, -raw_min)

    def coercivity_gap(self, F):
        """W(F) - [(mu/2)|F|^p + gamma(det F)]; nonnegative gap means the
        coercivity bound holds at F with c = mu/2."""
        F = np.asarray(F, dtype=float)
        return self.energy(F) - (0.5 * self.mu * _frob2(F) + self.gamma(_det2(F)))

    def stress_control_ratio(self, F):
        """|DW(F) F^T| / (W(F) + 1).  Bounded on det F > 0; the supremum over a
        sample is an empirical stress-control constant."""
        F = np.asarray(F, dtype=float)
        S = self.stress(F) @ np.swapaxes(F, -1, -2)
        return np.sqrt(_frob2(S)) / (self.energy(F) + 1.0)


_KINDS = ("isotropic", "elliptic", "smoothed_l1")


@dataclass(frozen=True)
class SurfaceDensity:
    """Positively one-homogeneous surface density phi with gradient and
    Hessian.

    kind "elliptic" needs a symmetric positive definite 2x2 matrix A;
    kind "smoothed_l1" needs eps > 0 (the corner-rounding width).
    """

    kind: str = "isotropic"
    A: np.ndarray | None = None
    eps: float = 0.1

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown surface density kind {self.kind!r}; choose from {_KINDS}")
        if self.kind == "elliptic":
            A = np.asarray(self.A, dtype=float)
            if A.shape != (2, 2) or not np.allclose(A, A.T):
                raise ValueError("elliptic kind needs a symmetric 2x2 matrix A")
            if np.linalg.eigvalsh(A)[0] <= 0.0:
                raise ValueError("elliptic kind needs a positive definite A")
            object.__setattr__(self, "A", A)
        if self.kind == "smoothed_l1" and self.eps <= 0.0:
            raise ValueError("smoothed_l1 kind needs eps > 0")

    def value(self, z):
        z = np.asarray(z, dtype=float)
        self._reject_zero(z)
        if self.kind == "isotropic":
            return np.hypot(z[..., 0], z[..., 1])
        if self.kind == "elliptic":
            return np.sqrt(np.einsum("...i,ij,...j->...", z, self.A, z))
        n2 = z[..., 0] ** 2 + z[..., 1] ** 2
        e2 = self.eps ** 2
        s = np.sqrt(z[..., 0] ** 2 + e2 * n2) + np.sqrt(z[..., 1] ** 2 + e2 * n2)
        return s / np.sqrt(1.0 + 2.0 * e2)

    def gradient(self, z):
        z = np.asarray(z, dtype=float)
        self._reject_zero(z)
        if self.kind == "isotropic":
            return z / np.hypot(z[..., 0], z[..., 1])[..., None]
        if self.kind == "elliptic":
            Az = np.einsum("ij,...j->...i", self.A, z)
            val = np.sqrt(np.einsum("...i,...i->...", z, Az))
            return Az / val[..., None]
        e2 = self.eps ** 2
        n2 = (z[..., 0] ** 2 + z[..., 1] ** 2)[..., None]
        t = np.sqrt(z ** 2 + e2 * n2)  # (..., 2): one radical per coordinate
        # d t_i / d z_j = (delta_ij z_i + e2 z_j) / t_i, summed over i
        g = z / t + e2 * z * (1.0 / t).sum(axis=-1, keepdims=True)
        return g / np.sqrt(1.0 + 2.0 * e2)

    def hessian(self, z):
        """Second derivative of phi at z != 0, shape (..., 2, 2); positive
        semidefinite (phi is convex) and annihilates z (one-homogeneity)."""
        z = np.asarray(z, dtype=float)
        self._reject_zero(z)
        if self.kind == "isotropic":
            n = np.hypot(z[..., 0], z[..., 1])
            zh = z / n[..., None]
            eye = np.eye(2)
            return (eye - zh[..., :, None] * zh[..., None, :]) / n[..., None, None]
        if self.kind == "elliptic":
            Az = np.einsum("ij,...j->...i", self.A, z)
            val = np.sqrt(np.einsum("...i,...i->...", z, Az))
            return self.A / val[..., None, None] - Az[..., :, None] * Az[..., None, :] / val[..., None, None] ** 3
        e2 = self.eps ** 2
        n2 = (z[..., 0] ** 2 + z[..., 1] ** 2)[..., None]
        t = np.sqrt(z ** 2 + e2 * n2)
        H = np.zeros(z.shape + (2,))
        for i in range(2):  # D^2 t_i = (e_i e_i^T + e2 I) / t_i - w_i w_i^T / t_i^3
            w = e2 * z
            w[..., i] += z[..., i]
            ti = t[..., i, None, None]
            H -= w[..., :, None] * w[..., None, :] / ti ** 3
            H[..., i, i] += 1.0 / t[..., i]
            H += e2 * np.eye(2) / ti
        return H / np.sqrt(1.0 + 2.0 * e2)

    @cached_property
    def circle_integral(self) -> float:
        """K = integral of phi(cos t, sin t) over the full circle, the
        phi-perimeter of the unit circle; computed once per density."""
        from scipy.integrate import quad  # on first use: `import cavelast` stays without it

        def f(t):
            return float(self.value(np.array([[np.cos(t), np.sin(t)]]))[0])

        val, _ = quad(f, 0.0, 2.0 * np.pi, epsabs=1e-12, epsrel=1e-12, limit=200)
        return float(val)

    def lower_bound_constant(self) -> float:
        """min over unit directions of phi, a certified positive lower-bound
        constant (coarse directional sampling; all kinds are smooth enough
        for 256 directions to be representative)."""
        th = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
        dirs = np.stack([np.cos(th), np.sin(th)], axis=-1)
        return float(self.value(dirs).min())

    @staticmethod
    def _reject_zero(z):
        n2 = z[..., 0] ** 2 + z[..., 1] ** 2
        if np.any(n2 == 0.0):
            raise DomainError("surface density is undefined at the zero vector")

