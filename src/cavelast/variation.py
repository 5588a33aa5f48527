"""Outer variations h_t = id + t*psi, first-variation assembly with a
finite-difference cross-check, and a damped projected-Newton minimizer
whose line search preserves admissibility.

The battery and `first_variation_residual` differentiate the discrete
energy exactly (the nodal gradient of `EnergyState.grad` dotted with psi at
the nodes), so the finite-difference oracle agrees to round-off. The
continuum quadratures `elastic_first_variation` (element centroids) and
`surface_first_variation` (edge midpoints) stay independent of it, as
oracles.
"""

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpbtrf, dpbtrs

from . import _openblas
from ._polyline import mean_circle, succ
from ._table import write_table
# check_inv and total_energy are not called here; they stay bound because
# perfbench's tracer patches them
from .degree import boundary_crossings, check_inv  # noqa: F401
from .energy import (DiscreteEnergy, EnergyState, _bump, _edge_normals,  # noqa: F401
                     _require_positive, total_energy)
from .exceptions import DomainError, InfeasibleEnergyError
from .geometry import DeformationField
from .material import BulkDensity, SurfaceDensity

__all__ = [
    "BumpField", "DilationField", "field_vanishes_on", "gamma_images", "outer_compose",
    "elastic_first_variation", "anisotropic_tangential_divergence",
    "surface_first_variation", "VariationReport", "first_variation_residual",
    "certification_battery", "battery_residual", "IterationLog",
    "minimize",
]

_log = logging.getLogger("cavelast")
_MAX_BACKTRACKS = 40  # step halvings per line search before minimize stalls
_TOL_E = 1e-10  # a step lowering E by less than _TOL_E * (1 + |E|) runs the stop test
_RESIDUAL_REL = 1e-3  # battery bound of a converged field, relative to |E|
_DET_FLOOR = 1e-8  # least element determinant of an admissible trial


# ---------------------------------------------------------------------------
# test fields on the deformed configuration


class BumpField:
    """psi(xi) = (1 - t^2)^2 * direction on |xi - center| < width, else 0."""

    def __init__(self, center, width, direction, amplitude=1.0):
        self.center = np.asarray(center, dtype=float)
        self.width = float(width)
        d = np.asarray(direction, dtype=float)
        n = np.linalg.norm(d)
        if n == 0.0 or self.width <= 0.0:
            raise ValueError("need a nonzero direction and positive width")
        self.direction = (amplitude / n) * d
        self.amplitude = float(amplitude)

    def value(self, xi):
        b, _ = _bump(xi, self.center, self.width)
        return b[:, None] * self.direction

    def jacobian(self, xi):
        _, grad_b = _bump(xi, self.center, self.width)
        return self.direction[None, :, None] * grad_b[:, None, :]

    def grad_bound(self):
        # max |grad (1-t^2)^2| = 8/(3 sqrt 3 width), attained at t = 1/sqrt 3
        return self.amplitude * 8.0 / (3.0 * np.sqrt(3.0) * self.width)


class DilationField:
    """psi(xi) = xi - center: the unit-Jacobian field of perimeter dilation."""

    def __init__(self, center=(0.0, 0.0)):
        self.center = np.asarray(center, dtype=float)

    def value(self, xi):
        return np.atleast_2d(xi) - self.center

    def jacobian(self, xi):
        n = len(np.atleast_2d(xi))
        return np.broadcast_to(np.eye(2), (n, 2, 2)).copy()

    def grad_bound(self):
        return 1.0


def field_vanishes_on(psi, points) -> bool:
    """True when |psi| <= 1e-12 at every point."""
    pts = np.atleast_2d(points)
    if len(pts) == 0:
        return True
    return float(np.abs(psi.value(pts)).max()) <= 1e-12


def _constrained_vertices(mesh) -> np.ndarray:
    """Sorted ids of every vertex on a held loop (`Mesh.held_loops`): the
    vertices `minimize` holds fixed. DomainError on a mesh without one."""
    held = mesh.held_loops()
    if not held:
        raise DomainError("the mesh has no held loop (a boundary loop whose tag is not "
                          "puncture_<k>), so no vertex is held fixed")
    return np.unique(np.concatenate(held))


def gamma_images(y: DeformationField) -> np.ndarray:
    """Deformed positions of the constrained boundary vertices, (k, 2)."""
    return y.positions[_constrained_vertices(y.mesh)]


# ---------------------------------------------------------------------------
# outer variations


def outer_compose(y: DeformationField, psi, t: float) -> DeformationField:
    """h_t o y with h_t = id + t*psi; keeps cavities, moves their boundaries."""
    bound = psi.grad_bound()
    if bound > 0.0 and abs(t) * bound >= 1.0:
        raise DomainError(
            f"|t| = {abs(t):.3g} too large; id + t*psi stays invertible only "
            f"for |t| < {1.0 / bound:.6g}")
    if t == 0.0:
        return y
    return y.with_positions(y.positions + t * psi.value(y.positions))


def elastic_first_variation(y: DeformationField, psi, density: BulkDensity) -> float:
    """d/dt of the bulk term under h_t = id + t*psi at t = 0, by the
    continuum integrand DW(Dy) Dy^T : Dpsi at the element-centroid images
    (exact where Dpsi is constant on each deformed triangle)."""
    mesh = y.mesh
    F = y.element_gradients()
    _require_positive(y.element_dets())
    cent = y.positions[mesh.triangles].mean(axis=1)
    J = psi.jacobian(cent)
    per = np.einsum("tac,tbc,tab->t", density.stress(F), F, J)
    return float(np.sum(mesh.areas * per))


def anisotropic_tangential_divergence(psi, nu, point, phi: SurfaceDensity) -> float:
    """div_phi psi = div psi - Dphi(nu) . (Dpsi^T nu) / phi(nu).

    The minus sign is pinned by the dilation identity
    d/dt Per_phi((1+t)E)|_0 = Per_phi(E): for psi(xi) = xi the formula must
    give 1, and it does only with the minus.
    """
    nu = np.asarray(nu, dtype=float)
    if abs(np.linalg.norm(nu) - 1.0) > 1e-9:
        raise ValueError("nu must be a unit vector")
    J = psi.jacobian(np.asarray(point, dtype=float)[None])
    return float(_tangential_divergence(J, nu[None], phi)[0])


def _tangential_divergence(J, nu, phi: SurfaceDensity) -> np.ndarray:
    """(k,) div_phi psi of `anisotropic_tangential_divergence` from the
    (k, 2, 2) Jacobians J of psi and the (k, 2) unit normals nu."""
    grad_jt_nu = np.einsum("ja,jba,jb->j", phi.gradient(nu), J, nu)
    return J[:, 0, 0] + J[:, 1, 1] - grad_jt_nu / phi.value(nu)


def surface_first_variation(boundaries, psi, phi: SurfaceDensity) -> float:
    """d/dt of the phi-perimeter of the closed polygons `boundaries` under
    h_t = id + t*psi at t = 0, by the quadrature of phi(nu) div_phi psi per
    edge with psi data at the edge midpoints (exact for affine psi)."""
    total = 0.0
    for p in boundaries:
        z, keep = _edge_normals(p)
        L = np.hypot(z[:, 0], z[:, 1])
        nu = z / L[:, None]
        J = psi.jacobian(0.5 * (p + succ(p))[keep])
        total += float(np.sum(L * phi.value(nu) * _tangential_divergence(J, nu, phi)))
    return total


@dataclass
class VariationReport:
    """First-variation terms and their finite-difference cross-check."""

    elastic: float
    surface: float
    total: float
    fd_value: float
    fd_gap: float

    def as_text(self) -> str:
        return "\n".join([
            f"elastic_variation = {self.elastic:.12g}",
            f"surface_variation = {self.surface:.12g}",
            f"total_variation = {self.total:.12g}",
            f"fd_value = {self.fd_value:.12g}",
            f"fd_gap = {self.fd_gap:.12g}",
        ])


def first_variation_residual(state: EnergyState, psi) -> VariationReport:
    """Exact first variation of the discrete energy at the field of `state`,
    as the battery takes it, against the central difference of t -> total
    energy of h_t o y: bulk + surface of `EnergyState.value`, the sum
    `total_energy` reports. The step is 1e-5, cut to 0.1 / `grad_bound` of
    psi where that is smaller, so that h_t stays invertible. A probe that
    still folds a triangle of the discrete field (some det <= 0, as near
    the det floor) has no energy: `fd_value` and `fd_gap` are then nan."""
    bound = psi.grad_bound()
    fd_step = min(1e-5, 0.1 / bound) if bound > 0.0 else 1e-5
    [(el, su)] = _variation_terms(state, [psi])
    energy = state.energy
    y = DeformationField(energy.mesh, state.pos)

    def energy_at(t):
        bulk, surf, _ = energy.state(outer_compose(y, psi, t).positions).value
        return np.nan if bulk is None else bulk + surf

    fd = (energy_at(fd_step) - energy_at(-fd_step)) / (2.0 * fd_step)
    total = el + su
    return VariationReport(elastic=el, surface=su, total=total, fd_value=fd,
                           fd_gap=abs(total - fd) / (abs(fd) + 1e-12))


# ---------------------------------------------------------------------------
# certification battery


def certification_battery(y: DeformationField, seed: int = 0) -> list:
    """Bump fields probing stationarity: a ring of up to 16 along each cavity
    boundary plus up to 8 global interior fields, all exactly zero on the
    constrained boundary images (compact supports kept clear of them).
    DomainError on a mesh without a held loop."""
    gam = gamma_images(y)
    rng = np.random.default_rng(seed)
    scale = float(np.ptp(y.positions, axis=0).max())
    fields = []

    def clearance(c):
        return float(np.linalg.norm(gam - c, axis=1).min())

    for ids in y.mesh.puncture_loops():
        b = y.positions[ids]
        center, rad = mean_circle(b)
        picks = np.linspace(0, len(b), 16, endpoint=False).astype(int)
        for k, j in enumerate(picks):
            c = b[j]
            u = c - center
            un = np.linalg.norm(u)
            u = u / un if un > 0 else np.array([1.0, 0.0])
            direction = u if k % 2 == 0 else np.array([-u[1], u[0]])
            width = min(0.95 * clearance(c), max(rad, 1e-3 * scale))
            if width > 1e-6 * scale:
                fields.append(BumpField(c, width, direction))
    centers = y.positions[rng.integers(0, len(y.positions), size=32)]
    made = 0
    for c in centers:
        if made == 8:
            break
        width = 0.95 * clearance(c)
        if width > 0.05 * scale:
            theta = rng.uniform(0.0, 2.0 * np.pi)
            fields.append(BumpField(c, width, np.array([np.cos(theta), np.sin(theta)])))
            made += 1
    for psi in fields:
        if not field_vanishes_on(psi, gam):
            raise DomainError("battery field leaks onto the constrained boundary")
    return fields


def battery_residual(y: DeformationField, density: BulkDensity,
                     phi: SurfaceDensity, seed: int = 0) -> float:
    """Largest |first variation| over the battery (no finite differences)
    at the field y, by `battery_verdict`."""
    fields = certification_battery(y, seed=seed)
    state = DiscreteEnergy(y.mesh, density, phi).state(y.positions)
    return battery_verdict(battery_variations(state, fields))[1]


def battery_verdict(variations) -> tuple:
    """(k, residual): the largest of the battery's |first variations| and
    the first field k attaining it, by np.argmax, so a NaN is the residual
    and never certifies; (None, 0.0) for an empty battery."""
    if not variations:
        return None, 0.0
    k = int(np.argmax(variations))
    return k, variations[k]


def battery_variations(state: EnergyState, fields) -> list:
    """|elastic + surface| first variation of each field, in order, at the
    field of `state`."""
    return [abs(el + su) for el, su in _variation_terms(state, fields)]


def _variation_terms(state, fields) -> list:
    """(elastic, surface) first variation of each field, in order: the bulk
    and surface nodal gradients of `EnergyState.grad` dotted with the
    field's nodal values."""
    bulk, surf = state.grad
    values = [psi.value(state.pos) for psi in fields]
    return [(float(np.sum(bulk * v)), float(np.sum(surf * v))) for v in values]


# ---------------------------------------------------------------------------
# Newton minimizer


@dataclass
class IterationLog:
    """One row per step, the stop status, `certificate`: the battery
    fields and their |first variations| at the returned field, when the
    stop test built them there (None otherwise), and of a `minimize` run
    `final`, the `EnergyState` of the returned field."""

    records: list = field(default_factory=list)
    status: str = "running"
    certificate: tuple | None = None
    final: EnergyState | None = None

    def add(self, **row):
        self.records.append(row)

    def to_csv(self, path):
        cols = ["iter", "energy", "bulk", "surface", "min_det", "step", "residual"]
        # None (no residual yet) becomes nan, which %.12g prints as nan
        rows = np.array([[r.get(c) for c in cols] for r in self.records], dtype=float)
        write_table(path, ",".join(cols), ",".join(["%.12g"] * len(cols)), rows)


def _newton_step(state: EnergyState, grad, damping):
    """(k, 2) solution dx of (H + damping * diag H) dx = -grad, H the
    projected Hessian over the free dofs of `state.energy`, by one LAPACK
    banded Cholesky L L^T (`dpbtrf` and `dpbtrs` on the lower band) of its
    band `state.hess()`, which is in the order of
    `DiscreteEnergy.band_layout`. LinAlgError when the matrix is not
    positive definite. The lower `dpbtrf` factors these bands 28-35% faster
    than the upper one `scipy.linalg.cholesky_banded` calls (README, "The
    2-D solver"). Both run on one OpenBLAS thread, which is faster on every
    band measured and makes the step independent of the caller's thread
    count."""
    order, _, _ = state.energy.band_layout
    band = state.hess()
    band[0] *= 1.0 + damping  # the diagonal
    with _openblas.one_thread():
        factor, info = dpbtrf(band, lower=1, overwrite_ab=1)
        if info > 0:
            raise LinAlgError(f"{info}-th leading minor not positive definite")
        x, _ = dpbtrs(factor, -grad[order], lower=1, overwrite_b=1)
    dx = np.empty(len(order))
    dx[order] = x
    return dx.reshape(-1, 2)


def minimize(y0: DeformationField, density: BulkDensity, phi: SurfaceDensity,
             max_iters: int = 500, inv_every: int = 1, seed: int = 0):
    """Monotone damped projected-Newton descent on the nodal positions; the
    vertices on non-puncture boundary edges stay fixed.

    Each step solves (H + damping * diag H) dx = -g, with H the per-element
    projected Hessian, by banded Cholesky of the lower band
    `EnergyState.hess` assembles, in the Cuthill-McKee order
    `DiscreteEnergy.band_layout` builds once per run; the damping starts at
    1 and shrinks by 0.3 after a full step, grows by 4 after a shortened
    one. The step is halved (at most 40 times) until it lowers
    the energy by the Armijo amount; any trial with min element determinant
    <= _DET_FLOOR is rejected, and when inv_every is 1 (0: never; no other
    value is accepted, ValueError) a trial must also keep the deformed
    boundary loops simple and disjoint (`boundary_crossings` = 0), which
    with positive determinants makes the map injective. At zero gradient no
    step is taken.

    A mesh without a held loop holds no vertex fixed: DomainError.

    Returns (field, log). The log status is "converged" when a tiny energy
    decrease (below _TOL_E * (1 + |E|)) or a zero gradient comes with a
    residual of at most _RESIDUAL_REL * |E| over the battery
    `certification_battery(field, seed=seed)`; "stalled" when no trial is
    accepted, after 3 tiny decreases in a row, at a zero gradient whose
    battery fails, or when the damped matrix is not positive definite (a
    warning names the failed leading minor); "max_iters" when the budget
    runs out. The `step` column is the accepted step fraction, 0
    where none was taken. When the stop test last ran at the returned
    field, the log keeps its battery as `certificate`. Every accepted step
    is logged at DEBUG level on the "cavelast" logger.

    Each field is evaluated once, as one `EnergyState`: the start and every
    trial get one F, one det F and one pass over the loop edge normals,
    which give its energy and, once it is accepted, its gradient and the
    band of the next step. The log hands the state of the returned field
    over as `final`, its gradient formed once for the last step and the
    stop test's battery alike.
    """
    if inv_every not in (0, 1):
        raise ValueError(f"inv_every must be 0 or 1, not {inv_every!r}")
    gated = inv_every == 1
    mesh = y0.mesh
    free = np.ones(len(mesh.vertices), dtype=bool)
    free[_constrained_vertices(mesh)] = False
    energy_of = DiscreteEnergy(mesh, density, phi, free)

    log = IterationLog()
    pos = y0.positions.copy()
    cur = energy_of.state(pos)
    bulk, surface, mind = cur.value
    if bulk is None or mind <= _DET_FLOOR:
        raise InfeasibleEnergyError(
            f"starting field has min determinant {mind:.3e} <= {_DET_FLOOR:.1e}")
    energy = bulk + surface
    grad = np.add(*cur.grad)[free].ravel()  # bulk + surface
    log.add(iter=0, energy=energy, bulk=bulk, surface=surface, min_det=mind,
            step=0.0, residual=None)

    damping = 1.0
    tiny_streak = 0
    status = "max_iters"

    for it in range(1, max_iters + 1):
        s, decrease = 0.0, 0.0  # no step at zero gradient
        if grad.any():
            try:
                dx = _newton_step(cur, grad, damping)
            except LinAlgError as err:
                _log.warning("iter %d: damped Newton matrix not positive definite "
                             "(%s); stopping", it, err)
                status = "stalled"
                break
            slope = float(grad @ dx.ravel())

            s = 1.0
            for _ in range(_MAX_BACKTRACKS):
                cand = pos.copy()
                cand[free] += s * dx
                trial = energy_of.state(cand)
                t_bulk, t_surface, t_mind = trial.value
                if t_bulk is not None and t_mind > _DET_FLOOR \
                        and t_bulk + t_surface <= energy + 1e-4 * s * slope \
                        and (not gated or boundary_crossings(mesh, cand) == 0):
                    break
                s *= 0.5
            else:
                status = "stalled"
                break

            pos, cur = cand, trial
            bulk, surface, mind = trial.value
            log.certificate = None  # built at an earlier field
            damping *= 0.3 if s == 1.0 else 4.0
            decrease = energy - (bulk + surface)
            energy = bulk + surface
            _log.debug("iter %5d  energy %.9g  step %.3g  min_det %.3e",
                       it, energy, s, mind)
            grad = np.add(*cur.grad)[free].ravel()

        res = None
        if s == 0.0 or decrease < _TOL_E * (1.0 + abs(energy)):
            fields = certification_battery(y0.with_positions(pos), seed=seed)
            log.certificate = fields, battery_variations(cur, fields)
            res = battery_verdict(log.certificate[1])[1]
            tiny_streak += 1
        else:
            tiny_streak = 0
        log.add(iter=it, energy=energy, bulk=bulk, surface=surface, min_det=mind,
                step=s, residual=res)
        if res is not None and res <= _RESIDUAL_REL * max(abs(energy), 1e-300):
            status = "converged"
            break
        if tiny_streak >= 3 or s == 0.0:
            status = "stalled"
            break

    log.status = status
    log.final = cur
    return y0.with_positions(pos), log
