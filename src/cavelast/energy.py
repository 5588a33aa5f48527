"""Total stored energy: bulk term plus anisotropic perimeter of cavity
boundaries, and the surface-creation functional in its sum and test-field
forms.

The two routes to the surface term are deliberately independent: the sum form
walks detected cavity boundaries, the test-field form integrates
cof Dy : D_x eta + det Dy * div_xi eta over the reference domain and provides
certified lower bounds.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from ._polyline import ensure_ccw, polygon_is_simple, polygon_signed_area
from .degree import CavityRecord
from .exceptions import DomainError, InfeasibleEnergyError
from .geometry import DeformationField
from .material import BulkDensity, SurfaceDensity, _cof2, _det2

__all__ = [
    "DiscreteEnergy", "phi_perimeter", "phi_perimeter_gradient",
    "EnergyBreakdown", "anisotropic_perimeter", "detect_cavities",
    "total_energy", "surface_functional_S_sum", "surface_functional_S_testfield",
    "SeparableTestField", "triangle_quadrature",
]


# ---------------------------------------------------------------------------
# triangle quadrature (barycentric points, weights summing to 1)

_CENTROID = (np.array([[1.0, 1.0, 1.0]]) / 3.0, np.array([1.0]))
_THREE_POINT = (
    np.array([[4, 1, 1], [1, 4, 1], [1, 1, 4]], dtype=float) / 6.0,
    np.full(3, 1.0 / 3.0),
)
# 6-point rule, exact through quartics
_D4A, _D4B = 0.445948490915965, 0.091576213509771
_D4WA, _D4WB = 0.223381589678011, 0.109951743655322
_SIX_POINT = (
    np.array([
        [1 - 2 * _D4A, _D4A, _D4A], [_D4A, 1 - 2 * _D4A, _D4A], [_D4A, _D4A, 1 - 2 * _D4A],
        [1 - 2 * _D4B, _D4B, _D4B], [_D4B, 1 - 2 * _D4B, _D4B], [_D4B, _D4B, 1 - 2 * _D4B],
    ]),
    np.array([_D4WA, _D4WA, _D4WA, _D4WB, _D4WB, _D4WB]),
)

_RULES = {1: _CENTROID, 2: _THREE_POINT, 4: _SIX_POINT}


def triangle_quadrature(order: int):
    """Barycentric (points, weights) for the smallest rule of degree >= order."""
    for deg in (1, 2, 4):
        if order <= deg:
            return _RULES[deg]
    raise ValueError(f"no triangle rule of degree {order}; best available is 4")


# ---------------------------------------------------------------------------
# the discrete energy

_ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])  # z = _ROT @ e = (e_y, -e_x)


def _require_positive_dets(F):
    det = _det2(F)
    if np.any(det <= 0.0):
        t = int(np.argmin(det))
        raise InfeasibleEnergyError(
            f"non-positive determinant {det[t]:.3e} in triangle {t}", triangle=t)


def _edge_normals(poly):
    """z_j = _ROT @ e_j over the nonzero edges e_j of a closed polygon, and their
    mask; by one-homogeneity |e| * phi(nu_e) = phi(z) on a ccw polygon."""
    e = np.roll(poly, -1, axis=0) - poly
    keep = (e[:, 0] != 0.0) | (e[:, 1] != 0.0)  # zero edges contribute nothing
    return e[keep] @ _ROT.T, keep


def phi_perimeter(poly, phi: SurfaceDensity) -> float:
    """sum_j phi(z_j) over the edges of any closed polygon, unchecked."""
    return float(np.sum(phi.value(_edge_normals(poly)[0])))


def phi_perimeter_gradient(poly, phi: SurfaceDensity) -> np.ndarray:
    """(n, 2) derivative of `phi_perimeter` with respect to the vertices."""
    z, keep = _edge_normals(poly)
    gt = np.zeros(np.shape(poly))
    gt[keep] = phi.gradient(z) @ _ROT  # d phi(z_j) / d e_j = R^T Dphi(z_j)
    return np.roll(gt, 1, axis=0) - gt


class DiscreteEnergy:
    """Stored energy of a punctured mesh as a function of its nodal positions:
    the P1 bulk sum  sum_t |T_t| W(F_t)  (exact, F is constant per triangle)
    plus the phi-perimeter of every deformed puncture loop, with exact nodal
    gradients and a sparse Hessian. phi may be None for the bulk part alone.
    `value`, `grad` and `hess` take the element gradients F of pos when the
    caller already has them."""

    def __init__(self, mesh, density: BulkDensity, phi: SurfaceDensity = None):
        self.mesh, self.density, self.phi = mesh, density, phi
        self._pattern = None

    @cached_property
    def loops(self):
        return self.mesh.puncture_loops()  # found once, when first needed

    def surface(self, pos) -> float:
        """phi-perimeter of the puncture loops at pos, summed loop by loop."""
        surf = 0.0
        for ids in self.loops:
            surf += phi_perimeter(pos[ids], self.phi)
        return surf

    def value(self, pos, F=None):
        """(bulk, surface, min det); bulk and surface are None if some det <= 0.
        The bulk is an index-ordered pairwise sum, so it is reproducible."""
        if F is None:
            F = self.mesh.element_gradients(pos)
        mind = float(_det2(F).min())
        if mind <= 0.0:
            return None, None, mind
        bulk = float(np.sum(self.mesh.areas * self.density.energy(F)))
        return bulk, self.surface(pos), mind

    def bulk_grad(self, F) -> np.ndarray:
        _require_positive_dets(F)
        mesh = self.mesh
        out = np.zeros_like(mesh.vertices)
        np.add.at(out, mesh.triangles, np.einsum(
            "t,tab,tib->tia", mesh.areas, self.density.stress(F), mesh.shape_gradients))
        return out

    def grad(self, pos, F=None):
        """(bulk, surface) nodal gradients; InfeasibleEnergyError if some det <= 0.
        Kept apart, so bulk + surface rounds once per node."""
        bulk = self.bulk_grad(self.mesh.element_gradients(pos) if F is None else F)
        surf = np.zeros_like(pos)
        for ids in self.loops:  # disjoint
            surf[ids] = phi_perimeter_gradient(pos[ids], self.phi)
        return bulk, surf

    def hess(self, pos, free=None, F=None):
        """Sparse positive semidefinite Hessian (csc, symmetric to rounding)
        over the dofs 2 v + axis of the vertices where the mask `free` is True
        (all by default), in that order; InfeasibleEnergyError if some
        det <= 0.

        Triangle t adds |T_t| B^T P(D^2W(F_t)) B, with B the 4x6 map from its
        corner positions to F and P the clip of negative eigenvalues: the
        per-element projection of projected Newton (Teran, Sifakis, Irving &
        Fedkiw, SCA 2005), exact wherever D^2W is positive semidefinite. The
        eigenvalues come in closed form from `BulkDensity.hessian_eigensystem`
        (Smith, de Goes & Kim, ACM TOG 2019), not from a numerical solver. Loop
        edge j adds [[H, -H], [-H, H]] on its end vertices, H = R^T D^2phi(z_j) R,
        semidefinite as phi is convex. The sparsity pattern is built once per
        mask; each call only computes the values.
        """
        if F is None:
            F = self.mesh.element_gradients(pos)
        _require_positive_dets(F)
        slot, shape, indices, indptr = self._hess_pattern(free)
        nt = len(F)
        lam, vec = self.density.hessian_eigensystem(F)
        # B^T V, rows (i, c), for B[(a, b), (i, c)] = delta_ac dN_i/dX_b
        btv = (self.mesh.shape_gradients[:, None] @ vec.reshape(nt, 2, 2, 4)
               ).transpose(0, 2, 1, 3).reshape(nt, 6, 4)
        w = self.mesh.areas[:, None] * np.maximum(lam, 0.0)
        vals = np.empty(len(slot))
        np.matmul(btv * w[:, None, :], btv.transpose(0, 2, 1),
                  out=vals[:36 * nt].reshape(nt, 6, 6))
        sign = np.array([[1.0, -1.0], [-1.0, 1.0]])[:, None, :, None]
        at = 36 * nt
        for ids in self.loops:
            z, nonzero = _edge_normals(pos[ids])
            H = np.zeros((len(ids), 2, 2))
            H[nonzero] = _ROT.T @ self.phi.hessian(z) @ _ROT
            vals[at:at + 16 * len(ids)] = (sign * H[:, None, :, None, :]).ravel()
            at += 16 * len(ids)
        # entries on a fixed dof land in one extra bin, dropped
        data = np.bincount(slot, weights=vals, minlength=len(indices) + 1)[:-1]
        return sparse.csc_matrix((data, indices, indptr), shape=shape)

    def _hess_pattern(self, free):
        """The csc data slot of every entry (2 i + c, 2 j + d) of the element
        blocks of `hess`, in its layout: per element (i, c, j, d) over its
        corners i, j and axes c, d, triangles first, then loop edges; one
        past the last slot where a dof is fixed. Then the csc shape, row
        indices and column pointers. Cached for the last mask."""
        key = None if free is None else np.asarray(free, dtype=bool).tobytes()
        if self._pattern is None or self._pattern[0] != key:
            mask = np.ones(len(self.mesh.vertices), dtype=bool) if free is None \
                else np.asarray(free, dtype=bool)
            n = 2 * int(np.sum(mask))  # free dofs
            dof = np.full((len(mask), 2), -1)
            dof[mask] = np.arange(n).reshape(-1, 2)
            elems = [self.mesh.triangles] + [
                np.stack([ids, np.roll(ids, -1)], axis=1) for ids in self.loops]
            corner = [dof[el].reshape(len(el), -1) for el in elems]
            row = np.concatenate([np.repeat(c, c.shape[1], axis=1).ravel() for c in corner])
            col = np.concatenate([np.tile(c, (1, c.shape[1])).ravel() for c in corner])
            both = (row >= 0) & (col >= 0)
            uniq, pair = np.unique(col[both] * n + row[both], return_inverse=True)
            slot = np.full(len(both), len(uniq))
            slot[both] = pair
            indices = (uniq % n).astype(np.int32)  # SuperLU's index type
            indptr = np.searchsorted(uniq // n, np.arange(n + 1)).astype(np.int32)
            self._pattern = key, (slot, (n, n), indices, indptr)
        return self._pattern[1]


# ---------------------------------------------------------------------------
# anisotropic perimeter


def anisotropic_perimeter(boundary, phi: SurfaceDensity) -> float:
    """Edgewise phi-weighted length of a closed polyline, after validation:
    a repeated closing vertex is dropped, at least 3 vertices are required,
    the polyline is oriented counterclockwise, and a self-intersection
    warns."""
    poly = np.asarray(boundary, dtype=float)
    if len(poly) >= 2 and np.array_equal(poly[0], poly[-1]):
        poly = poly[:-1]
    if len(poly) < 3:
        raise DomainError("closed boundary needs at least 3 distinct vertices")
    poly = ensure_ccw(poly)
    if not polygon_is_simple(poly):
        warnings.warn("self-intersecting cavity boundary; perimeter is formal",
                      RuntimeWarning, stacklevel=2)
    return phi_perimeter(poly, phi)


# ---------------------------------------------------------------------------
# cavity detection and the total energy


@dataclass
class EnergyBreakdown:
    """The two terms of the stored energy plus per-cavity bookkeeping.

    `total` is formed as bulk + surface in that order, nothing recomputed.
    `rho_artifact` is the phi-perimeter the reference punctures carry even
    when nothing opens; subtracting it isolates the energy genuinely spent
    on new surface.
    """

    bulk: float
    surface: float
    total: float
    cavities: list
    rho_artifact: float

    def as_text(self) -> str:
        lines = [
            f"bulk = {self.bulk:.12g}",
            f"surface = {self.surface:.12g}",
            f"total = {self.total:.12g}",
            f"rho_artifact = {self.rho_artifact:.12g}",
            f"n_cavities = {len(self.cavities)}",
        ]
        for k, rec in enumerate(self.cavities):
            lines.append(f"cavity_{k}_site = {rec.site[0]:.12g} {rec.site[1]:.12g}")
            lines.append(f"cavity_{k}_perimeter = {rec.aniso_perimeter:.12g}")
        return "\n".join(lines)


def detect_cavities(y: DeformationField, phi: SurfaceDensity) -> list:
    """CavityRecord per puncture, boundary = deformed puncture loop.

    `degree.topological_image_point` finds the same cavity from the degree
    alone; the tests compare the two.
    """
    records = []
    for (center, rho), ids in zip(y.mesh.punctures, y.mesh.puncture_loops()):
        img = ensure_ccw(y.positions[ids])
        simple = polygon_is_simple(img)
        if not simple:
            warnings.warn("self-intersecting cavity boundary; perimeter is formal",
                          RuntimeWarning, stacklevel=2)
        records.append(CavityRecord(site=np.asarray(center, dtype=float),
                                    puncture_radius=float(rho), boundary=img,
                                    area=abs(polygon_signed_area(img)),
                                    aniso_perimeter=phi_perimeter(img, phi),
                                    simple=simple))
    return records


def total_energy(y: DeformationField, density: BulkDensity,
                 phi: SurfaceDensity) -> EnergyBreakdown:
    """`DiscreteEnergy.value` of y, the energy `minimize` logs, split into
    its bulk and surface terms, with the detected cavities;
    InfeasibleEnergyError if some det <= 0."""
    F = y.element_gradients()
    _require_positive_dets(F)
    energy = DiscreteEnergy(y.mesh, density, phi)
    bulk, surface, _ = energy.value(y.positions, F)
    return EnergyBreakdown(
        bulk=bulk, surface=surface, total=bulk + surface,
        cavities=detect_cavities(y, phi),
        rho_artifact=energy.surface(y.mesh.vertices))


def surface_functional_S_sum(y: DeformationField) -> float:
    """Sum of plain cavity perimeters (the isotropic specialization).

    Kept independent of SurfaceDensity on purpose: edge lengths are summed
    directly so the anisotropic route can be checked against it.
    """
    _require_positive_dets(y.element_gradients())
    total = 0.0
    for ids in y.mesh.puncture_loops():
        img = ensure_ccw(y.positions[ids])
        e = np.roll(img, -1, axis=0) - img
        total += float(np.sum(np.hypot(e[:, 1], -e[:, 0])))
    return total


# ---------------------------------------------------------------------------
# test-field form of the surface functional


def surface_functional_S_testfield(y: DeformationField, eta) -> float:
    """Quadrature of S_y(eta) = int cof Dy : D_x eta(x,y) + det Dy * div_xi eta(x,y)
    by the 6-point rule on every triangle.

    eta must provide value/grad_x/div_xi taking batched (n,2) arrays of
    reference points and deformed points. Every admissible eta (C1, compactly
    supported, sup norm <= 1) gives a lower bound for the surface sum; a
    sup norm above 1, at the quadrature points or at 256 random pairs,
    raises DomainError.
    """
    mesh = y.mesh
    bary, w = triangle_quadrature(4)
    xv = mesh.vertices[mesh.triangles]      # (m,3,2)
    yv = y.positions[mesh.triangles]
    xq = np.einsum("qb,mbi->mqi", bary, xv)
    yq = np.einsum("qb,mbi->mqi", bary, yv)
    nt, nq = xq.shape[0], xq.shape[1]
    X = xq.reshape(-1, 2)
    XI = yq.reshape(-1, 2)

    vals = np.linalg.norm(eta.value(X, XI), axis=1)
    rng = np.random.default_rng(0)
    lo, hi = XI.min(axis=0), XI.max(axis=0)
    xr = mesh.vertices[rng.integers(0, len(mesh.vertices), 256)]
    xir = rng.uniform(lo, hi, size=(256, 2))
    vals_r = np.linalg.norm(eta.value(xr, xir), axis=1)
    sup = max(float(vals.max(initial=0.0)), float(vals_r.max(initial=0.0)))
    if sup > 1.0 + 1e-9:
        raise DomainError(f"test field sup norm {sup:.6g} exceeds 1")

    F = y.element_gradients()
    det = _det2(F)
    cof = _cof2(F)
    G = eta.grad_x(X, XI).reshape(nt, nq, 2, 2)
    D = eta.div_xi(X, XI).reshape(nt, nq)
    integrand = np.einsum("mij,mqij->mq", cof, G) + D * det[:, None]
    return float(np.sum(mesh.areas[:, None] * (w[None, :] * integrand)))


def _bump(x, center, width):
    """The C1 bump b = (1 - t^2)^2, t = |x - center| / width, zero for t >= 1,
    and its gradient, at the (n, 2) points x: ((n,), (n, 2))."""
    d = np.atleast_2d(x) - np.asarray(center, dtype=float)
    t2 = np.einsum("ni,ni->n", d, d) / width ** 2
    inside = t2 < 1.0
    b = np.where(inside, (1.0 - t2) ** 2, 0.0)
    # grad b = -4 (1 - t^2) (x - center) / width^2, smooth through the center
    coef = np.where(inside, -4.0 * (1.0 - t2), 0.0) / width ** 2
    return b, coef[:, None] * d


def _smoothstep_plateau(r, r0, r1, r2, r3):
    """Profile 0 -> 1 -> 0 with C1 smoothstep ramps on [r0,r1] and [r2,r3].

    Returns (g, dg). Outside [r0, r3] both vanish.
    """
    g = np.zeros_like(r)
    dg = np.zeros_like(r)
    up = (r > r0) & (r < r1)
    u = (r[up] - r0) / (r1 - r0)
    g[up] = u * u * (3.0 - 2.0 * u)
    dg[up] = 6.0 * u * (1.0 - u) / (r1 - r0)
    g[(r >= r1) & (r <= r2)] = 1.0
    dn = (r > r2) & (r < r3)
    u = (r[dn] - r2) / (r3 - r2)
    g[dn] = 1.0 - u * u * (3.0 - 2.0 * u)
    dg[dn] = -6.0 * u * (1.0 - u) / (r3 - r2)
    return g, dg


@dataclass(frozen=True)
class SeparableTestField:
    """eta(x, xi) = bump(|x - x0| / width) * V(xi).

    The reference factor is the C1 bump (1 - t^2)^2; the deformed factor is a
    radial field sign * g(|xi - xi0|) * e_r with a smoothstep plateau g
    supported on radii (r0, r1, r2, r3). sup |eta| <= 1 by construction.
    sign = -1 points toward xi0, the orientation that detects new surface
    enclosing xi0.
    """

    x0: tuple
    width: float
    xi0: tuple
    radii: tuple
    sign: float = -1.0

    def __post_init__(self):
        r0, r1, r2, r3 = self.radii
        if not (0.0 <= r0 < r1 <= r2 < r3):
            raise ValueError("radii must satisfy 0 <= r0 < r1 <= r2 < r3")
        if self.width <= 0.0:
            raise ValueError("width must be positive")
        if self.sign not in (-1.0, 1.0):
            raise ValueError("sign must be -1 or +1")

    def _radial(self, xi):
        d = np.asarray(xi, dtype=float) - np.asarray(self.xi0, dtype=float)
        r = np.hypot(d[:, 0], d[:, 1])
        g, dg = _smoothstep_plateau(r, *self.radii)
        safe = np.where(r > 0.0, r, 1.0)
        u = d / safe[:, None]
        V = self.sign * g[:, None] * u
        divV = self.sign * np.where(r > 0.0, dg + g / safe, 0.0)
        return V, divV

    def value(self, x, xi):
        b, _ = _bump(x, self.x0, self.width)
        V, _ = self._radial(xi)
        return b[:, None] * V

    def grad_x(self, x, xi):
        b, gb = _bump(x, self.x0, self.width)
        V, _ = self._radial(xi)
        return V[:, :, None] * gb[:, None, :]

    def div_xi(self, x, xi):
        b, _ = _bump(x, self.x0, self.width)
        _, divV = self._radial(xi)
        return b * divV
