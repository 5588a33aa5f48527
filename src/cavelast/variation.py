"""Outer variations h_t = id + t*psi, first-variation assembly with a
finite-difference cross-check, and a descent minimizer whose line search
preserves admissibility.

Unless a mode says otherwise, variations differentiate the discrete energy
exactly (chain rule through the nodal positions), so the finite-difference
oracle agrees to round-off; the continuum quadrature forms remain available
as modes "centroid" (elastic) and "midpoint" (surface).
"""

from dataclasses import dataclass, field

import numpy as np

from .degree import check_inv
from .energy import detect_cavities, total_energy
from .exceptions import DomainError, InfeasibleEnergyError
from .geometry import DeformationField
from .material import BulkDensity, SurfaceDensity, _det2

_ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])  # z = _ROT @ e = (e_y, -e_x)

__all__ = [
    "BumpField", "HatField", "DilationField", "ConstantField",
    "field_vanishes_on", "gamma_images", "outer_compose",
    "elastic_first_variation", "anisotropic_tangential_divergence",
    "surface_first_variation", "VariationReport", "first_variation_residual",
    "certification_battery", "battery_residual", "IterationLog", "minimize",
]


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
        d = np.atleast_2d(xi) - self.center
        t2 = np.einsum("ni,ni->n", d, d) / self.width ** 2
        b = np.where(t2 < 1.0, (1.0 - t2) ** 2, 0.0)
        return b[:, None] * self.direction

    def jacobian(self, xi):
        d = np.atleast_2d(xi) - self.center
        t2 = np.einsum("ni,ni->n", d, d) / self.width ** 2
        coef = np.where(t2 < 1.0, -4.0 * (1.0 - t2), 0.0) / self.width ** 2
        grad_b = coef[:, None] * d
        return self.direction[None, :, None] * grad_b[:, None, :]

    def grad_bound(self):
        # max |grad (1-t^2)^2| = 8/(3 sqrt 3 width), attained at t = 1/sqrt 3
        return self.amplitude * 8.0 / (3.0 * np.sqrt(3.0) * self.width)


class HatField:
    """P1 hat basis of the deformed triangulation at one node, times a
    direction; support is the node's deformed star."""

    def __init__(self, y: DeformationField, node: int, direction):
        d = np.asarray(direction, dtype=float)
        n = np.linalg.norm(d)
        if n == 0.0:
            raise ValueError("need a nonzero direction")
        self.direction = d / n
        self.node = int(node)
        self._tris = y.mesh.triangles
        self._loc = y.deformed_locator()
        v = y.positions[self._tris]
        e1 = v[:, 1] - v[:, 0]
        e2 = v[:, 2] - v[:, 0]
        twice_area = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        # grad of hat_i on a deformed element: opposite edge rotated +90 / 2A
        opp = v[:, [2, 0, 1]] - v[:, [1, 2, 0]]
        grads = np.stack([-opp[..., 1], opp[..., 0]], axis=-1)
        self._hat_grad = grads / twice_area[:, None, None]
        self._local = {}
        for t, tri in enumerate(self._tris):
            for i in range(3):
                if tri[i] == self.node:
                    self._local[t] = i

    def _locate(self, xi):
        return self._loc.locate(np.atleast_2d(xi))

    def value(self, xi):
        tri, bary = self._locate(xi)
        out = np.zeros((len(tri), 2))
        for k, (t, lam) in enumerate(zip(tri, bary)):
            i = self._local.get(int(t))
            if t >= 0 and i is not None:
                out[k] = lam[i] * self.direction
        return out

    def jacobian(self, xi):
        tri, _ = self._locate(xi)
        out = np.zeros((len(tri), 2, 2))
        for k, t in enumerate(tri):
            i = self._local.get(int(t))
            if t >= 0 and i is not None:
                out[k] = np.outer(self.direction, self._hat_grad[t, i])
        return out

    def grad_bound(self):
        if not self._local:
            return 0.0
        g = max(float(np.linalg.norm(self._hat_grad[t, i]))
                for t, i in self._local.items())
        return g


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


class ConstantField:
    """psi(xi) = v everywhere; rigid translation of the deformed state."""

    def __init__(self, v):
        self.v = np.asarray(v, dtype=float)

    def value(self, xi):
        return np.broadcast_to(self.v, (len(np.atleast_2d(xi)), 2)).copy()

    def jacobian(self, xi):
        return np.zeros((len(np.atleast_2d(xi)), 2, 2))

    def grad_bound(self):
        return 0.0


def field_vanishes_on(psi, points, tol=1e-12) -> bool:
    pts = np.atleast_2d(points)
    if len(pts) == 0:
        return True
    return float(np.abs(psi.value(pts)).max()) <= tol


def gamma_images(y: DeformationField, tags=None) -> np.ndarray:
    """Deformed positions of the constrained boundary vertices.

    By default every boundary tag except the punctures counts as constrained.
    """
    mesh = y.mesh
    if tags is None:
        tags = sorted({t for _, _, t in mesh.boundary_edges
                       if not t.startswith("puncture_")})
    ids = set()
    for t in tags:
        ids.update(mesh.vertex_ids(t).tolist())
    if not ids:
        return np.zeros((0, 2))
    return y.positions[np.array(sorted(ids), dtype=np.int64)]


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


def elastic_first_variation(y: DeformationField, psi, density: BulkDensity,
                            mode: str = "interp") -> float:
    """d/dt of the bulk term under h_t = id + t*psi at t = 0.

    mode "interp" differentiates the discrete bulk term exactly (psi enters
    through its nodal values); "centroid" evaluates the continuum integrand
    DW(Dy) Dy^T : Dpsi at element-centroid images instead.
    """
    mesh = y.mesh
    F = y.element_gradients()
    det = _det2(F)
    if np.any(det <= 0.0):
        t = int(np.argmin(det))
        raise InfeasibleEnergyError(
            f"non-positive determinant {det[t]:.3e} in triangle {t}", triangle=t)
    DW = density.stress(F)
    if mode == "interp":
        psiv = psi.value(y.positions)
        G = np.einsum("tia,tib->tab", psiv[mesh.triangles], mesh.shape_gradients)
        per = np.einsum("tab,tab->t", DW, G)
    elif mode == "centroid":
        cent = y.positions[mesh.triangles].mean(axis=1)
        J = psi.jacobian(cent)
        per = np.einsum("tac,tbc,tab->t", DW, F, J)
    else:
        raise ValueError(f"unknown mode {mode!r}; use 'interp' or 'centroid'")
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
    J = psi.jacobian(np.asarray(point, dtype=float)[None])[0]
    val = float(phi.value(nu[None])[0])
    grad = phi.gradient(nu[None])[0]
    return float(J[0, 0] + J[1, 1] - grad @ (J.T @ nu) / val)


def surface_first_variation(y: DeformationField, psi, phi: SurfaceDensity,
                            cavities=None, mode: str = "vertex") -> float:
    """d/dt of the cavity surface term under h_t = id + t*psi at t = 0.

    mode "vertex" differentiates the edgewise perimeter sum exactly through
    the polygon vertices; "midpoint" integrates phi(nu) div_phi psi per edge
    with psi data at edge midpoints (exact for affine psi).
    """
    if cavities is None:
        cavities = detect_cavities(y, phi)
    total = 0.0
    for rec in cavities:
        p = rec.boundary
        e = np.roll(p, -1, axis=0) - p
        keep = (e[:, 0] != 0.0) | (e[:, 1] != 0.0)
        z = e[keep] @ _ROT.T
        if mode == "vertex":
            psiv = psi.value(p)
            dpsi = (np.roll(psiv, -1, axis=0) - psiv)[keep]
            g = phi.gradient(z)
            total += float(np.einsum("ja,jb,ab->", g, dpsi, _ROT))
        elif mode == "midpoint":
            mids = 0.5 * (p + np.roll(p, -1, axis=0))[keep]
            L = np.hypot(e[keep, 0], e[keep, 1])
            nu = z / L[:, None]
            J = psi.jacobian(mids)
            div = J[:, 0, 0] + J[:, 1, 1]
            val = phi.value(nu)
            grad = phi.gradient(nu)
            jt_nu = np.einsum("jba,jb->ja", J, nu)
            total += float(np.sum(L * val * div)
                           - np.sum(L * np.einsum("ja,ja->j", grad, jt_nu)))
        else:
            raise ValueError(f"unknown mode {mode!r}; use 'vertex' or 'midpoint'")
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


def first_variation_residual(y: DeformationField, psi, density: BulkDensity,
                             phi: SurfaceDensity, fd_step: float = 1e-5,
                             elastic_mode: str = "interp",
                             surface_mode: str = "vertex") -> VariationReport:
    """Analytic first variation against the central difference of
    t -> total energy of h_t o y."""
    cavities = detect_cavities(y, phi)
    el = elastic_first_variation(y, psi, density, mode=elastic_mode)
    su = surface_first_variation(y, psi, phi, cavities=cavities, mode=surface_mode)
    e_plus = total_energy(outer_compose(y, psi, fd_step), density, phi).total
    e_minus = total_energy(outer_compose(y, psi, -fd_step), density, phi).total
    fd = (e_plus - e_minus) / (2.0 * fd_step)
    total = el + su
    return VariationReport(elastic=el, surface=su, total=total, fd_value=fd,
                           fd_gap=abs(total - fd) / (abs(fd) + 1e-12))


# ---------------------------------------------------------------------------
# certification battery


def certification_battery(y: DeformationField, per_cavity: int = 16,
                          n_global: int = 8, seed: int = 0) -> list:
    """Bump fields probing stationarity: a ring along each cavity boundary
    plus global interior fields, all exactly zero on the constrained
    boundary images (compact supports kept clear of them)."""
    gam = gamma_images(y)
    rng = np.random.default_rng(seed)
    scale = float(np.ptp(y.positions, axis=0).max())
    fields = []

    def clearance(c):
        if len(gam) == 0:
            return scale
        return float(np.linalg.norm(gam - c, axis=1).min())

    for ids in y.mesh.puncture_loops():
        b = y.positions[ids]
        center = b.mean(axis=0)
        rad = float(np.linalg.norm(b - center, axis=1).mean())
        picks = np.linspace(0, len(b), per_cavity, endpoint=False).astype(int)
        for k, j in enumerate(picks):
            c = b[j]
            u = c - center
            un = np.linalg.norm(u)
            u = u / un if un > 0 else np.array([1.0, 0.0])
            direction = u if k % 2 == 0 else np.array([-u[1], u[0]])
            width = min(0.95 * clearance(c), max(rad, 1e-3 * scale))
            if width > 1e-6 * scale:
                fields.append(BumpField(c, width, direction))
    centers = y.positions[rng.integers(0, len(y.positions), size=4 * n_global)]
    made = 0
    for c in centers:
        if made == n_global:
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
                     phi: SurfaceDensity, fields=None, seed: int = 0) -> float:
    """Largest |first variation| over the battery (no finite differences)."""
    if fields is None:
        fields = certification_battery(y, seed=seed)
    return max([0.0] + battery_variations(y, density, phi, fields))


def battery_variations(y: DeformationField, density: BulkDensity,
                       phi: SurfaceDensity, fields) -> list:
    """|elastic + surface| first variation of each field, in order."""
    cavities = detect_cavities(y, phi)
    return [abs(elastic_first_variation(y, psi, density)
                + surface_first_variation(y, psi, phi, cavities=cavities))
            for psi in fields]


# ---------------------------------------------------------------------------
# descent minimizer


@dataclass
class IterationLog:
    records: list = field(default_factory=list)
    status: str = "running"
    notes: list = field(default_factory=list)

    def add(self, **row):
        self.records.append(row)

    def to_csv(self, path):
        cols = ["iter", "energy", "bulk", "surface", "min_det", "step", "residual"]
        lines = [",".join(cols)]
        for r in self.records:
            cells = []
            for c in cols:
                v = r.get(c)
                if v is None:
                    cells.append("nan")
                elif c == "iter":
                    cells.append(str(int(v)))
                else:
                    cells.append(f"{v:.12g}")
            lines.append(",".join(cells))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _free_mask(mesh, fixed_ids):
    if fixed_ids is None:
        ids = set()
        for i, j, t in mesh.boundary_edges:
            if not t.startswith("puncture_"):
                ids.update((int(i), int(j)))
        fixed_ids = sorted(ids)
    mask = np.ones(len(mesh.vertices), dtype=bool)
    mask[np.asarray(list(fixed_ids), dtype=np.int64)] = False
    return mask


def _energy_terms(pos, tris, shape_g, areas, density, loops, phi, det_floor):
    F = np.einsum("tia,tib->tab", pos[tris], shape_g)
    det = _det2(F)
    mind = float(det.min())
    if mind <= det_floor:
        return None, mind
    bulk = float(np.sum(areas * density.energy(F)))
    surf = 0.0
    for ids in loops:
        p = pos[ids]
        e = np.roll(p, -1, axis=0) - p
        z = np.stack([e[:, 1], -e[:, 0]], axis=1)
        surf += float(np.sum(phi.value(z)))
    return (bulk, surf, bulk + surf), mind


def _gradient(pos, tris, shape_g, areas, density, loops, phi):
    out = np.zeros_like(pos)
    F = np.einsum("tia,tib->tab", pos[tris], shape_g)
    DW = density.stress(F)
    np.add.at(out, tris, np.einsum("t,tab,tib->tia", areas, DW, shape_g))
    for ids in loops:
        p = pos[ids]
        e = np.roll(p, -1, axis=0) - p
        z = e @ _ROT.T
        g = phi.gradient(z)
        gt = g @ _ROT  # R^T g
        np.add.at(out, ids, np.roll(gt, 1, axis=0) - gt)
    return out


def minimize(y0: DeformationField, density: BulkDensity, phi: SurfaceDensity,
             max_iters: int = 500, tol_E: float = 1e-10,
             residual_rel: float = 1e-3, det_floor: float = 1e-8,
             inv_every: int = 10, inv_delta: float = 0.02,
             fixed_ids=None, seed: int = 0, max_backtracks: int = 40,
             verbose: bool = False):
    """Monotone descent on the free nodal positions.

    The analytic gradient drives Barzilai-Borwein-seeded backtracking; any
    trial with min element determinant <= det_floor is rejected, and every
    inv_every-th accepted step must additionally pass the injectivity
    sampling check. Convergence needs both a small energy decrease and a
    small certification-battery residual. Returns (field, log); the log
    status is "converged", "max_iters" or "stalled".
    """
    mesh = y0.mesh
    tris = mesh.triangles
    shape_g = mesh.shape_gradients
    areas = mesh.areas
    loops = mesh.puncture_loops()
    free = _free_mask(mesh, fixed_ids)

    log = IterationLog()
    log.notes.append("anisotropic tangential divergence carries the minus "
                     "sign (dilation identity d/dt Per((1+t)E) = Per(E))")

    pos = y0.positions.copy()
    terms, mind = _energy_terms(pos, tris, shape_g, areas, density, loops, phi, det_floor)
    if terms is None:
        raise InfeasibleEnergyError(
            f"starting field has min determinant {mind:.3e} <= {det_floor:.1e}")
    bulk, surf, energy = terms
    grad = _gradient(pos, tris, shape_g, areas, density, loops, phi)
    grad[~free] = 0.0
    log.add(iter=0, energy=energy, bulk=bulk, surface=surf, min_det=mind,
            step=0.0, residual=None)

    h_ref = float(np.sqrt(2.0 * areas.mean()))
    gmax = float(np.abs(grad).max())
    step = 0.05 * h_ref / gmax if gmax > 0 else 1.0
    prev_pos = prev_grad = None
    accepted = 0
    tiny_streak = 0
    status = "max_iters"

    for it in range(1, max_iters + 1):
        gn2 = float(np.sum(grad[free] ** 2))
        if gn2 == 0.0:
            res = battery_residual(y0.with_positions(pos), density, phi, seed=seed)
            log.add(iter=it, energy=energy, bulk=bulk, surface=surf,
                    min_det=mind, step=0.0, residual=res)
            status = "converged" if res <= residual_rel * max(abs(energy), 1e-300) else "stalled"
            break

        if prev_grad is not None:
            dx = (pos - prev_pos)[free].ravel()
            dg = (grad - prev_grad)[free].ravel()
            denom = float(dx @ dg)
            if denom > 0.0:
                step = float(dx @ dx) / denom
        step = float(np.clip(step, 1e-12 * h_ref, 1e3))

        s = step
        trial = None
        need_inv = inv_every > 0 and (accepted + 1) % inv_every == 0
        for _ in range(max_backtracks):
            cand = pos.copy()
            cand[free] -= s * grad[free]
            t_terms, t_mind = _energy_terms(cand, tris, shape_g, areas,
                                            density, loops, phi, det_floor)
            if t_terms is not None and t_terms[2] <= energy - 1e-4 * s * gn2:
                if need_inv:
                    rep = check_inv(y0.with_positions(cand), delta=inv_delta, seed=seed)
                    if not rep.passed:
                        s *= 0.5
                        continue
                trial = (cand, t_terms, t_mind, s)
                break
            s *= 0.5
        if trial is None:
            status = "stalled"
            break

        prev_pos, prev_grad = pos, grad
        pos, (bulk, surf, new_energy), mind, s = trial
        decrease = energy - new_energy
        energy = new_energy
        accepted += 1
        grad = _gradient(pos, tris, shape_g, areas, density, loops, phi)
        grad[~free] = 0.0

        res = None
        if decrease < tol_E * (1.0 + abs(energy)):
            res = battery_residual(y0.with_positions(pos), density, phi, seed=seed)
            if res <= residual_rel * max(abs(energy), 1e-300):
                log.add(iter=it, energy=energy, bulk=bulk, surface=surf,
                        min_det=mind, step=s, residual=res)
                status = "converged"
                break
            tiny_streak += 1
            if tiny_streak >= 3:
                log.add(iter=it, energy=energy, bulk=bulk, surface=surf,
                        min_det=mind, step=s, residual=res)
                status = "stalled"
                break
        else:
            tiny_streak = 0
        log.add(iter=it, energy=energy, bulk=bulk, surface=surf, min_det=mind,
                step=s, residual=res)
        if verbose and it % 25 == 0:
            print(f"iter {it:5d}  energy {energy:.9g}  min_det {mind:.3e}")

    log.status = status
    return y0.with_positions(pos), log
