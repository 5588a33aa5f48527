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

from ._polyline import ensure_ccw, polygon_signed_area, ranges, succ
from .degree import CavityRecord, polygon_is_simple
from .exceptions import DomainError, InfeasibleEnergyError
from .geometry import DeformationField
from .material import BulkDensity, SurfaceDensity, _cof2, _det2

__all__ = [
    "DiscreteEnergy", "EnergyState", "phi_perimeter", "phi_perimeter_gradient",
    "EnergyBreakdown", "anisotropic_perimeter", "detect_cavities",
    "total_energy", "surface_functional_S_sum", "surface_functional_S_testfield",
    "SeparableTestField",
]


# ---------------------------------------------------------------------------
# 6-point triangle rule, exact through quartics (barycentric points, weights
# summing to 1)

_D4A, _D4B = 0.445948490915965, 0.091576213509771
_D4WA, _D4WB = 0.223381589678011, 0.109951743655322
_SIX_POINT = (
    np.array([
        [1 - 2 * _D4A, _D4A, _D4A], [_D4A, 1 - 2 * _D4A, _D4A], [_D4A, _D4A, 1 - 2 * _D4A],
        [1 - 2 * _D4B, _D4B, _D4B], [_D4B, 1 - 2 * _D4B, _D4B], [_D4B, _D4B, 1 - 2 * _D4B],
    ]),
    np.array([_D4WA, _D4WA, _D4WA, _D4WB, _D4WB, _D4WB]),
)


# ---------------------------------------------------------------------------
# the discrete energy

_ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])  # z = _ROT @ e = (e_y, -e_x)


def _require_positive(det):
    """det, after raising InfeasibleEnergyError, naming the first triangle
    of least det, where some det <= 0."""
    if (det <= 0.0).any():
        t = int(np.argmin(det))
        raise InfeasibleEnergyError(
            f"non-positive determinant {det[t]:.3e} in triangle {t}", triangle=t)
    return det


def _edge_normals(poly):
    """z_j = _ROT @ e_j over the nonzero edges e_j of a closed polygon, and their
    mask; by one-homogeneity |e| * phi(nu_e) = phi(z) on a ccw polygon."""
    e = succ(poly) - poly
    keep = (e[:, 0] != 0.0) | (e[:, 1] != 0.0)  # zero edges contribute nothing
    return e[keep] @ _ROT.T, keep


def phi_perimeter(poly, phi: SurfaceDensity) -> float:
    """sum_j phi(z_j) over the edges of any closed polygon, unchecked."""
    return float(np.sum(phi.value(_edge_normals(poly)[0])))


def phi_perimeter_gradient(poly, phi: SurfaceDensity) -> np.ndarray:
    """(n, 2) derivative of `phi_perimeter` with respect to the vertices."""
    return _normals_gradient(*_edge_normals(poly), phi)


def _normals_gradient(z, keep, phi):
    """`phi_perimeter_gradient` of the polygon whose `_edge_normals` are
    (z, keep)."""
    gt = np.zeros((len(keep), 2))
    gt[keep] = phi.gradient(z) @ _ROT  # d phi(z_j) / d e_j = R^T Dphi(z_j)
    return np.concatenate((gt[-1:], gt[:-1])) - gt  # rows shifted one place back


class DiscreteEnergy:
    """Stored energy of a punctured mesh as a function of its nodal positions:
    the P1 bulk sum  sum_t |T_t| W(F_t)  (exact, F is constant per triangle)
    plus the phi-perimeter of every deformed puncture loop, with exact nodal
    gradients and a banded Hessian over the dofs of the vertices the mask
    `free` keeps (all when None), each read from the `EnergyState` of one
    field, `state(pos)`."""

    def __init__(self, mesh, density: BulkDensity, phi: SurfaceDensity, free=None):
        self.mesh, self.density, self.phi = mesh, density, phi
        self.free = np.ones(len(mesh.vertices), dtype=bool) if free is None \
            else np.asarray(free, dtype=bool)

    @cached_property
    def loops(self):
        return self.mesh.puncture_loops()  # found once, when first needed

    def state(self, pos) -> "EnergyState":
        """The energy at the nodal positions pos, which must not change
        while the state is in use."""
        return EnergyState(self, pos)

    @cached_property
    def band_layout(self):
        """(order, width, slot) of `EnergyState.hess`, built when first read
        from the free-vertex graph, whose edges are the `Mesh.edge_pairs`
        between free vertices (every loop edge is a triangle edge): order[k]
        is the free dof placed k-th, the `band_order` of that graph; width
        is the number of superdiagonals of the reordered matrix, the largest
        rank gap between two dofs of one free vertex or of one edge; slot[e]
        is where pair e of the value layout of `EnergyState.hess` goes in its
        flat lower band. The value layout holds the (row, column) dof pairs
        of every element, per element (i, c, j, d) over corners i, j and axes
        c, d, triangles first, then loop edges: an entry (i, j), i <= j, goes
        at the place of its twin (j, i), which is dropped, as the element
        blocks are not bitwise symmetric; an entry below the diagonal or on
        a fixed dof at the one discard slot (width + 1) n."""
        mask = self.free
        nf = int(np.sum(mask))  # free vertices
        vertex = np.full(len(mask), -1)
        vertex[mask] = np.arange(nf)
        u, v = vertex[self.mesh.edge_pairs].T
        both = (u >= 0) & (v >= 0)
        u, v = u[both], v[both]
        # the graph's csr pattern: each edge both ways, by row, then column
        key = np.sort(np.concatenate((u * nf + v, v * nf + u)))
        indptr = np.concatenate(([0], np.cumsum(np.bincount(key // nf, minlength=nf))))
        order = band_order(indptr, key % nf)
        n = 2 * nf
        free_rank = np.empty(n, dtype=np.int64)
        free_rank[order] = np.arange(n)
        free_rank = free_rank.reshape(nf, 2)  # the places of each free vertex's dofs
        width = int(max(np.max(np.abs(free_rank[u][:, :, None] - free_rank[v][:, None, :]),
                               initial=0),
                        np.max(np.abs(free_rank[:, 1] - free_rank[:, 0]), initial=0)))
        rank = np.full((len(mask), 2), -1)
        rank[mask] = free_rank
        slot = []
        for el in [self.mesh.triangles] + [np.stack([ids, succ(ids)], axis=1)
                                           for ids in self.loops]:
            r = rank[el].reshape(len(el), -1)
            i, j = r[:, :, None], r[:, None, :]
            # the flat Fortran index of [j - i, i]
            slot.append(np.where((i >= 0) & (i <= j), i * width + j, (width + 1) * n).ravel())
        return order, width, np.concatenate(slot)


class EnergyState:
    """A `DiscreteEnergy` at one field pos, each part formed once: F and
    det F on creation; the loop edge normals, `value`, `bulk_grad`, `grad`
    and `breakdown` when first read; the band of `hess` on each call. Where
    some det <= 0, `value` has None terms, and `bulk_grad`, `grad`, `hess`
    and `breakdown` raise InfeasibleEnergyError, naming the first triangle
    of least det."""

    def __init__(self, energy: DiscreteEnergy, pos):
        self.energy, self.pos = energy, pos
        self.F = energy.mesh.element_gradients(pos)
        self.det = _det2(self.F)

    @cached_property
    def normals(self) -> list:
        """`_edge_normals` (z, keep) of each puncture loop, in the order of
        `DiscreteEnergy.loops`."""
        return [_edge_normals(self.pos[ids]) for ids in self.energy.loops]

    @cached_property
    def value(self):
        """(bulk, surface, min det); bulk and surface are None if some det <= 0.
        The bulk is an index-ordered pairwise sum, so it is reproducible; the
        surface sums `phi_perimeter` of each loop, loop by loop."""
        mind = float(self.det.min())
        if mind <= 0.0:
            return None, None, mind
        energy = self.energy
        bulk = float(np.sum(energy.mesh.areas * energy.density.energy(self.F, self.det)))
        surf = 0.0
        for z, _ in self.normals:
            surf += float(np.sum(energy.phi.value(z)))
        return bulk, surf, mind

    @cached_property
    def bulk_grad(self) -> np.ndarray:
        """(n, 2) nodal gradient of the bulk sum: corner i of triangle t gets
        |T_t| P(F_t) dN_i, summed over b in order, and the corners are
        scattered onto the nodes in (t, i) order."""
        mesh = self.energy.mesh
        ap = mesh.areas[:, None, None] * self.energy.density.stress(
            self.F, _require_positive(self.det))
        dN = mesh.shape_gradients
        corner = ap[:, None, :, 0] * dN[:, :, None, 0] + ap[:, None, :, 1] * dN[:, :, None, 1]
        return np.bincount(mesh.corner_dofs, weights=corner.ravel(),
                           minlength=mesh.vertices.size).reshape(-1, 2)

    @cached_property
    def grad(self) -> tuple:
        """(bulk, surface) nodal gradients, kept apart, so bulk + surface
        rounds once per node."""
        bulk = self.bulk_grad
        surf = np.zeros_like(self.pos)
        for ids, (z, keep) in zip(self.energy.loops, self.normals):  # disjoint
            surf[ids] = _normals_gradient(z, keep, self.energy.phi)
        return bulk, surf

    def hess(self) -> np.ndarray:
        """Positive semidefinite Hessian over the dofs 2 v + axis of the
        vertices `DiscreteEnergy.free` keeps, as its lower band in the order
        of `DiscreteEnergy.band_layout`: a Fortran-order (width + 1, n) array
        in LAPACK's lower band storage, entry (i, j), i >= j, at [i - j, j],
        the diagonal in row 0.

        Triangle t adds |T_t| B^T P(D^2W(F_t)) B, with B the 4x6 map from its
        corner positions to F and P the clip of negative eigenvalues: the
        per-element projection of projected Newton (Teran, Sifakis, Irving &
        Fedkiw, SCA 2005), exact wherever D^2W is positive semidefinite. The
        eigenvalues come in closed form from `BulkDensity.hessian_eigensystem`
        (Smith, de Goes & Kim, ACM TOG 2019), not from a numerical solver. Loop
        edge j adds [[H, -H], [-H, H]] on its end vertices, H = R^T D^2phi(z_j) R,
        semidefinite as phi is convex. Each call sums the element values
        into the band with one `np.bincount`.
        """
        energy = self.energy
        order, width, slot = energy.band_layout
        nt = len(self.F)
        lam, vec = energy.density.hessian_eigensystem(self.F, _require_positive(self.det))
        # B^T V, rows (i, c), for B[(a, b), (i, c)] = delta_ac dN_i/dX_b: one
        # (3, 2) @ (2, 8) product per triangle, vec's rows b by columns (a, k)
        btv = (energy.mesh.shape_gradients @ vec.reshape(nt, 2, 2, 4).transpose(0, 2, 1, 3)
               .reshape(nt, 2, 8)).reshape(nt, 6, 4)
        w = energy.mesh.areas[:, None] * np.maximum(lam, 0.0)
        vals = np.empty(len(slot))
        np.matmul(btv * w[:, None, :], btv.transpose(0, 2, 1),
                  out=vals[:36 * nt].reshape(nt, 6, 6))
        sign = np.array([[1.0, -1.0], [-1.0, 1.0]])[:, None, :, None]
        at = 36 * nt
        for ids, (z, nonzero) in zip(energy.loops, self.normals):
            H = np.zeros((len(ids), 2, 2))
            H[nonzero] = _ROT.T @ energy.phi.hessian(z) @ _ROT
            vals[at:at + 16 * len(ids)] = (sign * H[:, None, :, None, :]).ravel()
            at += 16 * len(ids)
        n = len(order)
        # the discard slot, one past the band, is dropped
        band = np.bincount(slot, weights=vals, minlength=(width + 1) * n + 1)[:-1]
        return band.reshape(n, width + 1).T

    @cached_property
    def breakdown(self) -> "EnergyBreakdown":
        """`value` as the energy report: its bulk and surface terms, the
        cavities detected at pos and the `rho_artifact` of the mesh."""
        _require_positive(self.det)
        bulk, surface, _ = self.value
        mesh, phi = self.energy.mesh, self.energy.phi
        return EnergyBreakdown(
            bulk=bulk, surface=surface, total=bulk + surface,
            cavities=detect_cavities(DeformationField(mesh, self.pos), phi),
            rho_artifact=sum((phi_perimeter(mesh.vertices[ids], phi)
                              for ids in self.energy.loops), 0.0))


def band_order(indptr, indices) -> np.ndarray:
    """Cuthill-McKee order of the dof graph of the symmetric vertex graph
    with csr pattern (indptr, indices), its diagonal on every vertex or on
    none: the dofs 2 u + axis of the vertices u, joined where their
    vertices are equal or adjacent. Every dof is placed exactly once,
    component by component, each in breadth-first level order from a
    pseudo-peripheral dof. Within a level the dofs go by their first
    neighbour in the level before, then by degree, then by index (Cuthill &
    McKee, Proc. 24th ACM National Conference, 1969). The start is found by
    repeating the search from the last dof it reaches until the number of
    levels stops growing (George & Liu, ACM TOMS 1979). The search runs on
    the vertices (`_dof_levels`), and every level is a few vectorized calls,
    so the cost is per level, not per vertex. `DiscreteEnergy.band_layout`
    orders the free dofs with it."""
    deg = np.diff(indptr)
    placed = np.zeros(len(deg), dtype=bool)
    parts = []
    while not placed.all():  # one component per pass
        levels = _dof_levels(2 * int(np.argmin(placed)), indptr, indices, deg)
        while True:
            again = _dof_levels(int(levels[-1][-1]), indptr, indices, deg)
            if len(again) <= len(levels):
                break
            levels = again
        parts += levels
        placed[np.concatenate(levels) // 2] = True
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def _dof_levels(start, indptr, indices, deg) -> list:
    """Breadth-first dof levels from the dof start, each ordered as
    `band_order` says, found from the vertex levels of its vertex u. The
    two dofs of a vertex w have the same neighbours and the degree
    2 (1 + d_w), so past the first level each dof level is its vertex level
    with w expanded to (2 w, 2 w + 1). The first level is the expanded
    neighbours of u with the twin start ^ 1 put among them by (degree,
    index), the twin alone where u has no neighbour."""
    u = start // 2
    levels = _bfs_levels(u, indptr, indices, deg)
    near = levels[1] if len(levels) > 1 else levels[0][:0]
    key = 2 * len(deg) * np.repeat(deg[near], 2) + _dofs(near)
    at = np.searchsorted(key, 2 * len(deg) * deg[u] + (start ^ 1))
    return [np.array([start]), np.insert(_dofs(near), at, start ^ 1)] \
        + [_dofs(level) for level in levels[2:]]


def _dofs(vertices) -> np.ndarray:
    """The dofs 2 w, 2 w + 1 of each vertex w, in order."""
    return (2 * vertices[:, None] + np.arange(2)).ravel()


def _bfs_levels(start, indptr, indices, deg) -> list:
    """Breadth-first vertex levels from start, each ordered as `band_order`
    says."""
    seen = np.zeros(len(deg), dtype=bool)
    seen[start] = True
    levels = [np.array([start], dtype=np.int64)]
    while True:
        front = levels[-1]
        # the neighbours of the level, node by node in level order
        at, parent = ranges(indptr[front], deg[front])
        nb = indices[at]
        new = ~seen[nb]
        nb, parent = nb[new], parent[new]
        if not len(nb):
            return levels
        uniq, first = np.unique(nb, return_index=True)
        nxt = uniq[np.lexsort((deg[uniq], parent[first]))]
        seen[nxt] = True
        levels.append(nxt)


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
    """CavityRecord per puncture: the puncture centre as `site`, the deformed
    puncture loop (counterclockwise) as `boundary`, the `area` it encloses
    and its `anisotropic_perimeter`, which warns on a self-intersecting loop.

    `degree.topological_image_point` finds the same cavity from the degree
    alone; the tests compare the two.
    """
    records = []
    for (center, _), ids in zip(y.mesh.punctures, y.mesh.puncture_loops()):
        img = ensure_ccw(y.positions[ids])
        records.append(CavityRecord(site=np.asarray(center, dtype=float), boundary=img,
                                    area=abs(polygon_signed_area(img)),
                                    aniso_perimeter=anisotropic_perimeter(img, phi)))
    return records


def total_energy(y: DeformationField, density: BulkDensity,
                 phi: SurfaceDensity) -> EnergyBreakdown:
    """`EnergyState.breakdown` of the field y: the energy `minimize` logs,
    split into its bulk and surface terms, with the detected cavities;
    InfeasibleEnergyError if some det <= 0."""
    return DiscreteEnergy(y.mesh, density, phi).state(y.positions).breakdown


def surface_functional_S_sum(y: DeformationField) -> float:
    """Sum of plain cavity perimeters (the isotropic specialization).

    Kept independent of SurfaceDensity on purpose: edge lengths are summed
    directly so the anisotropic route can be checked against it.
    """
    _require_positive(y.element_dets())
    total = 0.0
    for ids in y.mesh.puncture_loops():
        img = ensure_ccw(y.positions[ids])
        e = succ(img) - img
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
    bary, w = _SIX_POINT
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
