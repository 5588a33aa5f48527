"""Radially symmetric reduction on the punctured unit disk.

For y(x) = r(|x|) x/|x| the principal stretches are r'(R) and r(R)/R, so the
energy collapses to a 1-D integral plus the phi-perimeter of the cavity
circle, and F = diag(r', r/R) is diagonal. `solve_radial` minimizes over
monotone knot profiles by projected Newton on one energy object, a
piecewise-linear quadrature of that integral whose value, gradient,
tridiagonal Hessian and exact energy change all read W from the
principal-stretch forms of `BulkDensity` (`stretch_energy` and its kin), so
no 2x2 matrix is formed; its line search tests Armijo on that exact change. It
descends from a homogeneous and a cavitated seed and serves as
semi-analytic ground truth for the 2-D code, including the traction balance
on the cavity wall. Newton progress is logged at DEBUG level on "cavelast".
"""

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg.lapack import dptsv

from ._table import write_table
from .exceptions import InfeasibleEnergyError
from .geometry import DeformationField, Mesh
from .material import BulkDensity, SurfaceDensity

__all__ = [
    "RadialProfile", "anisotropic_circle_perimeter", "radial_energy",
    "radial_energy_breakdown", "solve_radial", "BvpReport",
    "bvp_boundary_check", "sweep_lambda", "sweep_to_csv", "radial_lift",
]

if TYPE_CHECKING:
    from scipy.interpolate import PchipInterpolator, PPoly

_log = logging.getLogger("cavelast")
_MAX_ITERS = 100  # projected Newton steps per seed before a descent ends max_iters


@dataclass
class RadialProfile:
    """Deformed radius r at increasing knots, r(knots[-1]) = lam * knots[-1].

    `branches` holds (energy, cavity radius, status) of every seed the
    solver descended, the returned one included; the energy is evaluated
    afresh on the seed's final values.
    """

    knots: np.ndarray
    values: np.ndarray
    lam: float
    status: str = "direct"
    branches: list = field(default_factory=list)
    _interp: "PchipInterpolator" = field(init=False, repr=False, compare=False)
    _dinterp: "PPoly" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # scipy.interpolate and scipy.integrate load on first use, so that
        # `import cavelast` stays without them
        from scipy.interpolate import PchipInterpolator

        self.knots = np.asarray(self.knots, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.knots.ndim != 1 or self.knots.shape != self.values.shape:
            raise ValueError("knots and values must be 1-D arrays of equal length")
        if self.knots[0] <= 0.0 or np.any(np.diff(self.knots) <= 0.0):
            raise ValueError("knots must be strictly increasing and positive")
        if self.values[0] <= 0.0 or np.any(np.diff(self.values) <= 0.0):
            raise ValueError("values must be strictly increasing and positive")
        top = self.lam * self.knots[-1]
        if abs(self.values[-1] - top) > 1e-9 * max(1.0, abs(top)):
            raise ValueError("values[-1] must equal lam * knots[-1]")
        self._interp = PchipInterpolator(self.knots, self.values)
        self._dinterp = self._interp.derivative()

    def r(self, R):
        return self._interp(R)

    def dr(self, R):
        return self._dinterp(R)

    def det(self, R):
        R = np.asarray(R, dtype=float)
        return self.dr(R) * self.r(R) / R

    @property
    def rho(self) -> float:
        return float(self.knots[0])

    @property
    def cavity_radius(self) -> float:
        return float(self.values[0])


def anisotropic_circle_perimeter(c: float, phi: SurfaceDensity) -> float:
    """phi-perimeter of a circle of radius c (linear in c by homogeneity)."""
    if c < 0.0:
        raise ValueError("radius must be nonnegative")
    if c == 0.0:
        return 0.0
    return c * phi.circle_integral


def radial_energy_breakdown(profile: RadialProfile, density: BulkDensity,
                            phi: SurfaceDensity):
    """(bulk, surface); the bulk by Gauss-Legendre on every knot interval.

    A closed-down cavity leaves r(rho) near the floor, so log det is nearly
    singular at the puncture: the first interval is split geometrically
    toward it, 20 halvings, which matches adaptive quadrature to ~1e-14.
    """
    k = profile.knots
    first = k[0] + (k[1] - k[0]) * 0.5 ** np.arange(20, -1, -1)
    R, W = _pl_quadrature(np.concatenate([k[:1], first, k[2:]]))
    v1 = profile.dr(R)
    v2 = profile.r(R) / R
    bad = (v1 <= 0.0) | (v2 <= 0.0)
    if bad.any():
        raise InfeasibleEnergyError(f"non-positive stretch at R = {R[bad][0]:.6g}")
    dens = density.stretch_energy(v1, v2)
    bulk = float(np.sum(W * 2.0 * np.pi * R * dens))
    surface = anisotropic_circle_perimeter(profile.cavity_radius, phi)
    return bulk, float(surface)


def radial_energy(profile: RadialProfile, density: BulkDensity,
                  phi: SurfaceDensity) -> float:
    bulk, surface = radial_energy_breakdown(profile, density, phi)
    return bulk + surface


# ---------------------------------------------------------------------------
# 1-D solver (fixed Gauss-Legendre mesh for the iteration loop)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _pl_quadrature(knots):
    mid = 0.5 * (knots[1:] + knots[:-1])
    half = 0.5 * np.diff(knots)
    X = mid[:, None] + half[:, None] * _GL_NODES[None, :]   # (M, 8)
    W = half[:, None] * _GL_WEIGHTS[None, :]
    return X, W


class _PLEnergy:
    """Quadrature energy of the piecewise-linear profile through the knot
    values, with its gradient and tridiagonal Hessian over values[:-1].

    Linear trial profiles between knots make this a smooth function of the
    knot values, which is what the solver differentiates. At each of the
    (M, 8) quadrature points the deformation gradient is diag(v1, v2), with
    v1 = (v_{j+1} - v_j) / dR_j and v2 = (v_j (1 - t) + v_{j+1} t) / R,
    both linear in the values, so W, W_i, W_ij and the exact change come
    from the principal-stretch forms of `BulkDensity` and no 2x2 matrix is
    formed. The constructor folds the quadrature measure and d(v1, v2) /
    d(v_j, v_{j+1}) into weights once, so the gradient and the Hessian
    blocks are one weighted sum each. The returned RadialProfile swaps in
    the monotone cubic interpolant afterwards; the two agree to the
    interpolation error. `grad`, `hess` and `change` take the stretches
    S = `stretch(values)` of the knot values, which the solver forms once
    per iterate.
    """

    def __init__(self, knots, density: BulkDensity, K: float):
        self.knots, self.density, self.K = knots, density, K
        self.dR = np.diff(knots)
        X, W = _pl_quadrature(knots)
        t = (X - knots[:-1, None]) / self.dR[:, None]
        self.w0 = (1.0 - t) / X                  # d v2 / d v_j
        self.w1 = t / X                          # d v2 / d v_{j+1}
        self.C = W * 2.0 * np.pi * X             # quadrature measure
        # J[i, e]: d v_i / d (v_j, v_{j+1})[e] at every point
        slope = np.broadcast_to(1.0 / self.dR[:, None], X.shape)
        J = np.array([[-slope, slope], [self.w0, self.w1]])
        self._grad_w = self.C * J                # (stretch, endpoint, M, 8)
        # the blocks (j, j), (j, j+1), (j+1, j+1) of interval j, against
        # (W_11, W_12, W_22)
        pairs = ((0, 0), (0, 1), (1, 1))
        self._hess_w = self.C * np.array(
            [[J[0, e] * J[0, f] for e, f in pairs],
             [J[0, e] * J[1, f] + J[1, e] * J[0, f] for e, f in pairs],
             [J[1, e] * J[1, f] for e, f in pairs]])   # (W_ij, block, M, 8)

    def stretch(self, values):
        """(v1 (M, 1), v2 (M, 8)) at the quadrature points, linear in the
        values."""
        v1 = (np.diff(values) / self.dR)[:, None]
        v2 = values[:-1, None] * self.w0 + values[1:, None] * self.w1
        return v1, v2

    def _integrate(self, dens, head):
        return float(np.sum(self.C * dens)) + float(head) * self.K

    def value(self, values):
        return self._integrate(self.density.stretch_energy(*self.stretch(values)), values[0])

    def change(self, S, step):
        """E(values + step) - E(values), resolved below the rounding of E,
        for S = `stretch(values)`."""
        return self._integrate(self.density.stretch_change(*S, *self.stretch(step)), step[0])

    def grad(self, S):
        lo, hi = np.einsum("iepq,ipq->ep", self._grad_w, self.density.stretch_stress(*S))
        g = lo
        g[1:] += hi[:-1]
        g[0] += self.K
        return g

    def hess(self, S):
        """Hessian in solveh_banded's upper layout. Each interval couples
        only its two endpoint values, so it is tridiagonal, assembled from
        the per-interval 2x2 blocks."""
        lolo, lohi, hihi = np.einsum("kbpq,kpq->bp", self._hess_w,
                                     self.density.stretch_hessian(*S))
        ab = np.zeros((2, len(self.dR)))
        ab[0, 1:] = lohi[:-1]                    # couples v_j and v_{j+1}
        ab[1] = lolo
        ab[1, 1:] += hihi[:-1]
        return ab


def _project_monotone(v, top, eps, floor):
    """Strictly increasing values with gaps >= eps, capped below `top`.

    `floor` bounds the first value away from zero; a hole that closes does
    so to this physical floor, not to the gap epsilon, so determinants stay
    representable.
    """
    n = len(v)
    ladder = eps * np.arange(n)
    v = np.maximum.accumulate(v - ladder) + ladder
    v = np.minimum(v, top - eps * (n - np.arange(n)))
    v[0] = max(v[0], floor)
    v[1:] = np.maximum(v[1:], v[0] + ladder[1:])
    return v


def _newton_direction(ab, g):
    """Solve (H + tau |diag H|) d = g, H tridiagonal in solveh_banded's
    upper layout ab, by LAPACK's dptsv, the routine solveh_banded calls for
    such a band.

    tau starts at 0 and grows tenfold from 1e-8 until the shifted matrix
    factors, so d is always a descent direction (a modified-Hessian Newton
    step, Nocedal & Wright section 3.4). Returns None if nothing factors.
    """
    scale = np.abs(ab[1])
    tau = 0.0
    while tau <= 1e8:
        _, _, d, info = dptsv(ab[1] + tau * scale, ab[0, 1:], g)
        if info == 0:
            return d
        tau = max(10.0 * tau, 1e-8)
    return None


def _descend(f: _PLEnergy, vals, top):
    """Projected Newton on the tridiagonal Hessian from one seed.

    Every step backtracks until the projected trial passes Armijo on the
    exact change `f.change`, and E is carried as E + dE: no accepted step
    raises it, and a decrease below the rounding of E, which no comparison
    of two computed energies resolves (Hager & Zhang 2005), still counts.
    The raw gradient entry at knot j carries the quadrature measure
    m_j ~ 2*pi*R_j*dR_j, which varies by orders of magnitude across a
    geometric grid; the residual tested against 1e-6 * (1 + |E|) is the
    measure-scaled one, i.e. the discrete EL operator value. A hole that
    wants to close sits on the floor bound with positive raw gradient; that
    coordinate is pinned out of the Newton system and counts as converged
    in the KKT sense. Returns (values, status).
    """
    knots, dR = f.knots, f.dR
    eps, floor = 1e-12, 1e-6
    m = np.pi * knots[:-1] * (np.append(dR[1:], 0.0) + dR)
    m[0] = np.pi * knots[0] * dR[0]

    def project(v):
        return _project_monotone(v, top, eps, floor)

    v = project(vals[:-1].copy())
    E = f.value(np.append(v, top))
    status = "max_iters"
    for it in range(_MAX_ITERS + 1):
        S = f.stretch(np.append(v, top))
        g = f.grad(S)
        pinned = v[0] <= floor * (1.0 + 1e-9) and g[0] > 0.0
        scaled = np.abs(g) / m
        if pinned:
            scaled[0] = 0.0
        res = float(scaled.max())
        _log.debug("radial newton step %d energy %.17g residual %.3e",
                   it, E, res)
        if res <= 1e-6 * (1.0 + abs(E)):
            status = "converged"
            break
        if it == _MAX_ITERS:
            break
        ab = f.hess(S)
        if pinned:
            g[0] = 0.0
            ab[0, 1] = 0.0
        d = _newton_direction(ab, g)
        for tau in 0.5 ** np.arange(40 if d is not None else 0):
            cand = project(v - tau * d)
            dE = f.change(S, np.append(cand - v, 0.0))
            if dE <= 1e-4 * min(0.0, float(g @ (cand - v))):
                break
        else:                                    # no step lowers the energy
            status = "stalled"
            break
        v, E = cand, E + dE
    return v, status


def solve_radial(lam: float, density: BulkDensity, phi: SurfaceDensity,
                 rho: float, M: int = 96) -> RadialProfile:
    """Minimize the radial energy on the unit disk punctured at radius rho
    over knot values with r(1) = lam.

    Geometric knots resolve the boundary layer at the puncture. The descent
    objective interpolates linearly between knots; its gradient and
    tridiagonal Hessian come from `BulkDensity`. Each seed is descended by
    projected Newton (at most 100 steps) whose backtracking line search
    tests the exact energy change and never accepts an energy increase;
    converged means the measure-scaled Euler-Lagrange residual is below
    1e-6 * (1 + |E|). The returned profile is the monotone cubic through
    the optimal values.

    For lam > 1 the energy typically has two local valleys, a nearly
    homogeneous one with a closed-down hole and a cavitated one, and which
    wins flips at a critical stretch. Descent cannot hop between them, so
    both seeds are descended and the lower energy is returned. Seeds whose
    energies lie within 4 ulps of the lowest count as one minimizer, and
    the first of them is returned, so a rounding change cannot flip the
    choice. `status` is the winner's, and `branches` lists (energy, cavity
    radius, status) for every seed.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    if M < 32:
        raise ValueError("need at least 32 intervals")
    if not 0.0 < rho < 1.0:
        raise ValueError("need 0 < rho < 1")
    # Python's float power, not numpy's: numpy's SIMD power changes last
    # bits with the CPU's dispatch target, and the descent follows the knots
    knots = rho * np.array([(1.0 / rho) ** s for s in np.linspace(0.0, 1.0, M + 1).tolist()])
    knots[-1] = 1.0
    seeds = [lam * knots]
    if lam > 1.0:
        c0 = np.sqrt(lam ** 2 - 1.0)
        seeds.append(np.sqrt(knots ** 2 + c0 ** 2) * lam / np.sqrt(1.0 + c0 ** 2))
    f = _PLEnergy(knots, density, phi.circle_integral)
    runs = [_descend(f, vals, lam) for vals in seeds]
    # ranked by a fresh energy: the one each descent carries can drift
    branches = [(f.value(np.append(w, lam)), float(w[0]), st) for w, st in runs]
    low = min(e for e, _, _ in branches)
    k = next(i for i, (e, _, _) in enumerate(branches)
             if e - low <= 4.0 * np.spacing(abs(low)))
    return RadialProfile(knots=knots, values=np.append(runs[k][0], lam), lam=lam,
                         status=runs[k][1], branches=branches)


# ---------------------------------------------------------------------------
# traction balance on the cavity wall


@dataclass
class BvpReport:
    """Residuals of T nu + h nu = 0 on the cavity circle.

    `pointwise` holds the per-angle residuals with the pointwise anisotropic
    curvature; `projected` tests the circle-averaged balance, the one a
    radial ansatz can actually satisfy (they coincide for isotropic phi).
    """

    pointwise: np.ndarray
    projected: float
    t_rr: float
    h_avg: float
    h_pointwise: np.ndarray
    tol: float

    @property
    def max_pointwise(self) -> float:
        return float(self.pointwise.max())

    @property
    def passed(self) -> bool:
        return self.projected <= self.tol

    def summary(self) -> str:
        return (f"T_rr = {self.t_rr:.6g}, h_avg = {self.h_avg:.6g}, "
                f"projected residual = {self.projected:.3e}, "
                f"max pointwise = {self.max_pointwise:.3e}, "
                f"{'PASS' if self.passed else 'FAIL'} (tol {self.tol:g})")


def bvp_boundary_check(profile: RadialProfile, density: BulkDensity,
                       phi: SurfaceDensity, n_angles: int = 32) -> BvpReport:
    """Check the natural boundary condition on the cavity circle; the
    report passes when the projected residual is at most 0.02.

    The radial functional is stationary in the cavity radius exactly when
    2 pi rho W_1(rho) = K with K the phi-integral over directions, i.e. the
    radial Cauchy traction equals K/(2 pi c). The curvature term h is
    therefore taken negative for a convex cavity, h_avg = -K/(2 pi c), so
    that T nu + h nu vanishes at equilibrium; the pointwise version uses
    -tau . D2phi(nu) tau / c, which matches 1/c magnitudes for isotropic phi.
    """
    rho = profile.rho
    c = profile.cavity_radius
    v1 = float(profile.dr(rho))
    v2 = c / rho
    det = v1 * v2
    if det <= 0.0:
        raise InfeasibleEnergyError("profile has non-positive determinant at the puncture")
    W1, _ = density.stretch_stress(v1, v2)
    t_rr = float(W1 * v1 / det)  # the radial entry of T = DW F^T / det

    h_avg = -phi.circle_integral / (2.0 * np.pi * c)

    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    nu = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    tau = np.stack([-np.sin(angles), np.cos(angles)], axis=1)
    H = phi.hessian(nu)
    kappa = np.einsum("na,nab,nb->n", tau, H, tau)
    h_pt = -kappa / c
    pointwise = np.abs(t_rr + h_pt) / (abs(t_rr) + np.abs(h_pt) + 1e-12)
    projected = abs(t_rr + h_avg) / (abs(t_rr) + abs(h_avg) + 1e-12)
    return BvpReport(pointwise=pointwise, projected=float(projected),
                     t_rr=t_rr, h_avg=float(h_avg), h_pointwise=h_pt, tol=0.02)


# ---------------------------------------------------------------------------
# sweeps and lifting


def sweep_lambda(lams, density: BulkDensity, phi: SurfaceDensity, rho: float,
                 M: int = 96) -> list:
    """One unit-disk radial solve per boundary stretch; list of result rows.

    `status` is the winning branch's, `branch_status` lists every seed's,
    and `all_branches_converged` says whether every seed converged, so a
    stuck losing branch cannot hide a lower minimizer unnoticed.
    """
    rows = []
    for lam in lams:
        prof = solve_radial(float(lam), density, phi, rho, M=M)
        bulk, surface = radial_energy_breakdown(prof, density, phi)
        statuses = [st for _, _, st in prof.branches]
        rows.append({
            "lambda": float(lam),
            "cavity_radius": prof.cavity_radius,
            "bulk": bulk,
            "surface": surface,
            "total": bulk + surface,
            "status": prof.status,
            "branch_status": statuses,
            "all_branches_converged": all(st == "converged" for st in statuses),
        })
    return rows


def sweep_to_csv(rows, path):
    cols = ["lambda", "cavity_radius", "bulk", "surface", "total"]
    write_table(path, ",".join(cols), ",".join(["%.12g"] * len(cols)),
                np.array([[r[k] for k in cols] for r in rows], dtype=float))


def radial_lift(profile: RadialProfile, mesh: Mesh) -> DeformationField:
    """2-D deformation field whose vertices follow the radial profile."""
    R = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    Rc = np.clip(R, profile.knots[0], profile.knots[-1])
    ratio = np.asarray(profile.r(Rc)) / Rc
    return DeformationField(mesh, ratio[:, None] * mesh.vertices)
