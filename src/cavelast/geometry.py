"""Triangulated reference domains and piecewise-affine deformation fields.

Meshes are plain triangulations of 2-D domains (disk, annulus, square),
optionally with small circular holes ("punctures") around candidate
cavitation sites.  Punctures are meshed as inscribed polygons whose
boundary edges carry a `puncture_<k>` tag; the outer boundary carries the
Dirichlet tag.  Deformations are stored as vertex positions and
interpolated affinely inside each triangle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from ._polyline import polygon_signed_area
from .exceptions import GeometryError

MESH_FORMAT_HEADER = "cavmesh 1"

_CHUNK = 16384  # query points per vectorized batch (bounds peak memory)


# ---------------------------------------------------------------------------
# mesh container


@dataclass
class Mesh:
    """Conforming triangulation with tagged boundary edges.

    vertices       (n, 2) float array
    triangles      (m, 3) int array, positively oriented
    boundary_edges list of (i, j, tag) with each edge on exactly one triangle
    punctures      list of ((cx, cy), rho) for the tagged holes, aligned with
                   the `puncture_<k>` tags

    Treat a mesh as immutable once built: `locator` and `inv_plans` are
    cached on it.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: list
    punctures: list = field(default_factory=list)

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=float)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        areas = _signed_areas(self.vertices, self.triangles)
        flipped = areas < 0.0
        if flipped.any():
            t = self.triangles.copy()
            t[flipped, 1], t[flipped, 2] = self.triangles[flipped, 2], self.triangles[flipped, 1]
            self.triangles = t
            areas = np.abs(areas)
        if np.any(areas <= 0.0):
            raise GeometryError("degenerate (zero-area) triangle in mesh")

    @cached_property
    def areas(self):
        return _signed_areas(self.vertices, self.triangles)

    @cached_property
    def shape_gradients(self):
        """(m, 3, 2) gradients of the three nodal hat functions per triangle."""
        v = self.vertices[self.triangles]  # (m, 3, 2)
        g = np.empty_like(v)
        twice_area = 2.0 * self.areas[:, None]
        # grad of hat at corner i is the inward normal of the opposite edge / (2 area)
        for i in range(3):
            e = v[:, (i + 2) % 3] - v[:, (i + 1) % 3]
            g[:, i] = np.stack([-e[:, 1], e[:, 0]], axis=-1) / twice_area
        return g

    @cached_property
    def boundary_vertices(self):
        ids = set()
        for i, j, _ in self.boundary_edges:
            ids.add(i)
            ids.add(j)
        return np.array(sorted(ids), dtype=np.int64)

    @cached_property
    def locator(self):
        return TriangleLocator(self.vertices, self.triangles)

    @cached_property
    def inv_plans(self):
        """Sampling plans of `degree.check_inv`, keyed by its sampling arguments."""
        return {}

    def vertex_ids(self, tag: str) -> np.ndarray:
        ids = set()
        for i, j, t in self.boundary_edges:
            if t == tag:
                ids.add(i)
                ids.add(j)
        return np.array(sorted(ids), dtype=np.int64)

    def boundary_loops(self) -> dict:
        """Ordered, counterclockwise vertex loops keyed by boundary tag."""
        by_tag = {}
        for i, j, t in self.boundary_edges:
            by_tag.setdefault(t, []).append((i, j))
        loops = {}
        for tag, edges in by_tag.items():
            loop = _chain_edges(edges)
            if polygon_signed_area(self.vertices[loop]) < 0.0:
                loop = loop[::-1]
            loops[tag] = np.asarray(loop, dtype=np.int64)
        return loops

    def puncture_loops(self) -> list:
        """Loops for `puncture_<k>` tags, ordered to match self.punctures."""
        loops = self.boundary_loops()
        return [loops[f"puncture_{k}"] for k in range(len(self.punctures))]

    def save(self, path):
        lines = [MESH_FORMAT_HEADER, str(len(self.vertices))]
        lines += [f"{x:.17g} {y:.17g}" for x, y in self.vertices]
        lines.append(str(len(self.triangles)))
        lines += [f"{a} {b} {c}" for a, b, c in self.triangles]
        lines += [f"{i} {j} {t}" for i, j, t in self.boundary_edges]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def load_mesh(path) -> Mesh:
    with open(path) as fh:
        raw = [ln.strip() for ln in fh if ln.strip()]
    if not raw or raw[0] != MESH_FORMAT_HEADER:
        raise GeometryError(f"not a mesh file (expected header {MESH_FORMAT_HEADER!r}): {path}")
    pos = 1
    nv = int(raw[pos]); pos += 1
    verts = np.array([[float(t) for t in raw[pos + i].split()] for i in range(nv)])
    pos += nv
    nt = int(raw[pos]); pos += 1
    tris = np.array([[int(t) for t in raw[pos + i].split()] for i in range(nt)], dtype=np.int64)
    pos += nt
    edges = []
    for ln in raw[pos:]:
        i, j, tag = ln.split()
        edges.append((int(i), int(j), tag))
    mesh = Mesh(verts, tris, edges, punctures=[])
    # recover puncture geometry from the tagged loops
    tags = sorted({t for _, _, t in edges if t.startswith("puncture_")},
                  key=lambda t: int(t.split("_")[1]))
    punctures = []
    loops = mesh.boundary_loops()
    for t in tags:
        pts = verts[loops[t]]
        center = pts.mean(axis=0)
        rho = float(np.linalg.norm(pts - center, axis=1).mean())
        punctures.append((center, rho))
    mesh.punctures = punctures
    return mesh


def _signed_areas(vertices, triangles):
    v = vertices[triangles]
    e1 = v[:, 1] - v[:, 0]
    e2 = v[:, 2] - v[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def _chain_edges(edges):
    """Order an edge soup into one closed loop of vertex ids."""
    nxt = {}
    for i, j in edges:
        nxt.setdefault(i, []).append(j)
        nxt.setdefault(j, []).append(i)
    start = edges[0][0]
    loop = [start]
    prev = None
    cur = start
    for _ in range(len(edges)):
        cands = [v for v in nxt[cur] if v != prev]
        if not cands:
            raise GeometryError("boundary loop does not close")
        prev, cur = cur, cands[0]
        if cur == start:
            break
        loop.append(cur)
    if len(loop) != len(edges):
        raise GeometryError("boundary edges of one tag do not form a single closed loop")
    return loop


# ---------------------------------------------------------------------------
# point location


class TriangleLocator:
    """Uniform-grid spatial index over a fixed triangulation."""

    def __init__(self, vertices, triangles, cell_size=None):
        self.vertices = vertices
        self.triangles = triangles
        v = vertices[triangles]
        self._origin = vertices.min(axis=0)
        extent = vertices.max(axis=0) - self._origin
        if cell_size is None:
            cell_size = max(1e-12, 2.0 * np.sqrt(np.abs(_signed_areas(vertices, triangles)).mean()))
        self._cell = float(cell_size)
        self._dims = np.maximum(1, np.ceil(extent / self._cell).astype(int) + 1)
        lo = np.floor((v.min(axis=1) - self._origin) / self._cell).astype(int)
        hi = np.floor((v.max(axis=1) - self._origin) / self._cell).astype(int)
        lo = np.clip(lo, 0, self._dims - 1)
        hi = np.clip(hi, 0, self._dims - 1)
        # CSR buckets: every (cell, triangle) pair of the triangles' bounding
        # boxes, grouped by cell; the stable sort keeps triangles ascending
        span = hi - lo + 1
        counts = span[:, 0] * span[:, 1]
        tri = np.repeat(np.arange(len(triangles)), counts)
        k = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        ny = span[tri, 1]
        cell = (lo[tri, 0] + k // ny) * self._dims[1] + lo[tri, 1] + k % ny
        order = np.argsort(cell, kind="stable")
        self._btri = tri[order]
        self._bstart = np.searchsorted(cell[order], np.arange(self._dims[0] * self._dims[1] + 1))
        # per-triangle affine inverse for barycentric coordinates
        e1 = v[:, 1] - v[:, 0]
        e2 = v[:, 2] - v[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        inv = np.empty((len(triangles), 2, 2))
        inv[:, 0, 0] = e2[:, 1] / det
        inv[:, 0, 1] = -e2[:, 0] / det
        inv[:, 1, 0] = -e1[:, 1] / det
        inv[:, 1, 1] = e1[:, 0] / det
        self._inv = inv
        self._base = v[:, 0]

    def locate(self, points, tol=1e-10):
        """Containing triangle and barycentric coordinates for each point.

        Returns (tri, bary) with tri = -1 where the point is outside.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        tri = np.full(len(pts), -1, dtype=np.int64)
        bary = np.zeros((len(pts), 3))
        for lo in range(0, len(pts), _CHUNK):
            p = pts[lo:lo + _CHUNK]
            cells = np.floor((p - self._origin) / self._cell).astype(int)
            inside = np.all((cells >= 0) & (cells < self._dims), axis=1)
            k = np.nonzero(inside)[0]
            c = cells[k, 0] * self._dims[1] + cells[k, 1]
            start = self._bstart[c]
            n = self._bstart[c + 1] - start
            # one (point, triangle) pair per bucket entry, points in order
            pp = np.repeat(k, n)
            tt = self._btri[np.arange(n.sum()) + np.repeat(start - (np.cumsum(n) - n), n)]
            d = p[pp] - self._base[tt]
            lam = np.einsum("kab,kb->ka", self._inv[tt], d)
            lam0 = 1.0 - lam.sum(axis=1)
            ok = np.nonzero((lam[:, 0] >= -tol) & (lam[:, 1] >= -tol) & (lam0 >= -tol))[0]
            # first hit per point wins
            hit, first = np.unique(pp[ok], return_index=True)
            sel = ok[first]
            tri[lo + hit] = tt[sel]
            bary[lo + hit] = np.stack([lam0[sel], lam[sel, 0], lam[sel, 1]], axis=-1)
        return tri, bary


# ---------------------------------------------------------------------------
# deformation fields


class DeformationField:
    """Vertex positions over a reference mesh, interpolated affinely.

    Treat instances as immutable; derive modified fields with
    `with_positions`.
    """

    def __init__(self, mesh: Mesh, positions=None):
        self.mesh = mesh
        if positions is None:
            positions = mesh.vertices.copy()
        positions = np.ascontiguousarray(positions, dtype=float)
        if positions.shape != mesh.vertices.shape:
            raise GeometryError("positions must match the mesh vertex array shape")
        self.positions = positions
        self._grads = None

    def with_positions(self, positions) -> "DeformationField":
        return DeformationField(self.mesh, positions)

    def element_gradients(self):
        if self._grads is None:
            self._grads = np.einsum(
                "tia,tib->tab", self.positions[self.mesh.triangles], self.mesh.shape_gradients
            )
        return self._grads

    def element_dets(self):
        g = self.element_gradients()
        return g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]

    def evaluate(self, points):
        """Deformed positions of reference points (affine interpolation)."""
        return self.interpolate(*locate_reference_points(self.mesh, points))

    def interpolate(self, tri, bary):
        """Deformed positions of points given as (triangle, barycentric) pairs."""
        return np.einsum("ki,kij->kj", bary, self.positions[self.mesh.triangles[tri]])

    def deformed_locator(self) -> TriangleLocator:
        return TriangleLocator(self.positions, self.mesh.triangles)


def element_gradient(y: DeformationField, t: int):
    """Constant deformation gradient of triangle t."""
    return y.element_gradients()[t]


def min_det(y: DeformationField, return_index: bool = False):
    """Minimum element determinant; optionally also the argmin triangle."""
    dets = y.element_dets()
    k = int(np.argmin(dets))
    if return_index:
        return float(dets[k]), k
    return float(dets[k])


def trace_on_circle(y: DeformationField, center, r, m: int = 128):
    """Images of m equally spaced points on the circle |x - center| = r.

    The circle must lie inside the meshed domain (in particular it must not
    cross a puncture).
    """
    return y.interpolate(*locate_circle(y.mesh, center, r, m))


def locate_reference_points(mesh: Mesh, points):
    """(tri, bary) of reference points; GeometryError if one is outside the mesh."""
    tri, bary = mesh.locator.locate(points)
    if np.any(tri < 0):
        k = int(np.nonzero(tri < 0)[0][0])
        p = np.atleast_2d(points)[k]
        raise GeometryError(f"reference point ({p[0]:.6g}, {p[1]:.6g}) is outside the meshed domain")
    return tri, bary


def locate_circle(mesh: Mesh, center, r, m: int = 128):
    """(tri, bary) of the m points `trace_on_circle` maps; GeometryError if
    the circle leaves the meshed domain."""
    th = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    pts = np.asarray(center, dtype=float) + r * np.stack([np.cos(th), np.sin(th)], axis=-1)
    tri, bary = mesh.locator.locate(pts)
    if np.any(tri < 0):
        raise GeometryError(
            f"circle (center=({center[0]:.6g}, {center[1]:.6g}), r={r:.6g}) leaves the meshed domain"
        )
    return tri, bary


# ---------------------------------------------------------------------------
# boundary data


@dataclass(frozen=True)
class BoundaryData:
    """Dirichlet data on the tagged part of the boundary.

    kinds:
      radial_stretch   d(x) = lam * x
      affine_stretch   d(x) = diag(lam, 1/lam) x   (volume preserving)
      user_table       explicit vertex id -> position map
    """

    kind: str = "radial_stretch"
    lam: float = 1.0
    table: dict | None = None
    tag: str = "dirichlet"

    def __post_init__(self):
        if self.kind not in ("radial_stretch", "affine_stretch", "user_table"):
            raise ValueError(f"unknown boundary data kind {self.kind!r}")
        if self.kind == "user_table" and not self.table:
            raise ValueError("user_table boundary data needs a vertex table")

    def map_points(self, pts):
        pts = np.asarray(pts, dtype=float)
        if self.kind == "radial_stretch":
            return self.lam * pts
        if self.kind == "affine_stretch":
            out = pts.copy()
            out[..., 0] *= self.lam
            out[..., 1] /= self.lam
            return out
        raise ValueError("user_table data has no closed-form point map")

    def apply(self, y: DeformationField) -> DeformationField:
        """Overwrite tagged boundary vertices with the data."""
        ids = y.mesh.vertex_ids(self.tag)
        pos = y.positions.copy()
        if self.kind == "user_table":
            for i in ids:
                pos[i] = self.table[int(i)]
        else:
            pos[ids] = self.map_points(y.mesh.vertices[ids])
        return y.with_positions(pos)

    def initial_field(self, mesh: Mesh) -> DeformationField:
        """Feasible starting guess matching the data on the tagged boundary."""
        if self.kind == "user_table":
            return self.apply(DeformationField(mesh))
        return DeformationField(mesh, self.map_points(mesh.vertices))


# ---------------------------------------------------------------------------
# smoothing


_STENCIL_ANGLES = np.arange(8) * (np.pi / 4.0)
_STENCIL_DIRS = np.stack([np.cos(_STENCIL_ANGLES), np.sin(_STENCIL_ANGLES)], axis=-1)
_STENCIL_W = np.concatenate([[1.0], np.full(8, np.exp(-0.5))])


def mollify(y: DeformationField, sigma: float) -> DeformationField:
    """Gaussian smoothing of the deformation by symmetric stencil averaging.

    Each interior vertex position is replaced by a Gaussian-weighted average
    of the interpolated field at the vertex and at eight points placed
    symmetrically around it (radius min(sigma, 0.7 * distance to the
    boundary), so samples stay inside the domain).  The stencil has zero
    first moment, so affine deformations are reproduced exactly; boundary
    vertices are left fixed.  sigma = 0 returns the field unchanged.

    The result may fail min_det > 0; that is the caller's check.
    """
    if sigma < 0.0:
        raise ValueError("sigma must be nonnegative")
    if sigma == 0.0:
        return y
    mesh = y.mesh
    bset = mesh.boundary_vertices
    interior = np.setdiff1d(np.arange(len(mesh.vertices)), bset)
    if len(interior) == 0:
        return y
    tree = cKDTree(mesh.vertices[bset])
    dist, _ = tree.query(mesh.vertices[interior])
    radius = np.minimum(sigma, 0.7 * dist)
    centers = mesh.vertices[interior]
    samples = centers[:, None, :] + radius[:, None, None] * np.vstack([[0.0, 0.0], _STENCIL_DIRS])[None]
    flat = samples.reshape(-1, 2)
    tri, bary = mesh.locator.locate(flat)
    values = np.einsum("ki,kij->kj", bary, y.positions[mesh.triangles[np.maximum(tri, 0)]])
    values = values.reshape(len(interior), 9, 2)
    ok = (tri >= 0).reshape(len(interior), 9).all(axis=1)
    w = _STENCIL_W / _STENCIL_W.sum()
    averaged = np.einsum("s,ksj->kj", w, values)
    pos = y.positions.copy()
    upd = interior[ok]
    pos[upd] = averaged[ok]
    return y.with_positions(pos)


# ---------------------------------------------------------------------------
# mesh builders


def build_square_mesh(side=1.0, h=0.1, punctures=(), tag="dirichlet") -> Mesh:
    """Unit-style square [0, side]^2; structured crossed pattern when there
    are no punctures, graded Delaunay cloud otherwise."""
    punctures = _clean_punctures(punctures)
    if not punctures:
        n = max(2, int(round(side / h)))
        xs = np.linspace(0.0, side, n + 1)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        nodes = np.stack([gx.ravel(), gy.ravel()], axis=-1)
        mid = 0.5 * (xs[:-1] + xs[1:])
        cx, cy = np.meshgrid(mid, mid, indexing="ij")
        centers = np.stack([cx.ravel(), cy.ravel()], axis=-1)
        verts = np.vstack([nodes, centers])
        nid = lambda i, j: i * (n + 1) + j
        cid = lambda i, j: (n + 1) * (n + 1) + i * n + j
        tris = []
        for i in range(n):
            for j in range(n):
                c = cid(i, j)
                a, b_, d, e = nid(i, j), nid(i + 1, j), nid(i + 1, j + 1), nid(i, j + 1)
                tris += [(a, b_, c), (b_, d, c), (d, e, c), (e, a, c)]
        edges = []
        for i in range(n):
            edges.append((nid(i, 0), nid(i + 1, 0), tag))
            edges.append((nid(i + 1, n), nid(i, n), tag))
            edges.append((nid(0, i + 1), nid(0, i), tag))
            edges.append((nid(n, i), nid(n, i + 1), tag))
        return Mesh(verts, np.array(tris), edges, punctures=[])

    per_side = max(2, int(round(side / h)))
    t = np.linspace(0.0, side, per_side + 1)[:-1]
    loop = np.concatenate([
        np.stack([t, np.zeros_like(t)], axis=-1),
        np.stack([np.full_like(t, side), t], axis=-1),
        np.stack([side - t, np.full_like(t, side)], axis=-1),
        np.stack([np.zeros_like(t), side - t], axis=-1),
    ])

    def inside(p):
        m = 0.4 * h
        return (p[:, 0] > m) & (p[:, 0] < side - m) & (p[:, 1] > m) & (p[:, 1] < side - m)

    def domain(p):
        return (p[:, 0] > 0) & (p[:, 0] < side) & (p[:, 1] > 0) & (p[:, 1] < side)

    def classify(p):
        eps = 1e-9
        on = (np.abs(p[:, 0]) < eps) | (np.abs(p[:, 0] - side) < eps) \
            | (np.abs(p[:, 1]) < eps) | (np.abs(p[:, 1] - side) < eps)
        return on

    bbox = (np.array([0.0, 0.0]), np.array([side, side]))
    return _delaunay_mesh([loop], inside, domain, classify, punctures, h, tag, bbox)


def build_disk_mesh(radius=1.0, h=0.1, punctures=(), tag="dirichlet") -> Mesh:
    """Disk of given radius centered at the origin."""
    punctures = _clean_punctures(punctures)
    n_out = max(24, int(np.ceil(2.0 * np.pi * radius / h)))
    loop = _ring(np.zeros(2), radius, n_out)

    def inside(p):
        return np.hypot(p[:, 0], p[:, 1]) < radius - 0.55 * h

    def domain(p):
        return np.hypot(p[:, 0], p[:, 1]) < radius

    def classify(p):
        return np.abs(np.hypot(p[:, 0], p[:, 1]) - radius) < 1e-9

    bbox = (np.full(2, -radius), np.full(2, radius))
    return _delaunay_mesh([loop], inside, domain, classify, punctures, h, tag, bbox)


def build_annulus_mesh(outer=1.0, inner=0.4, h=0.1, punctures=(), tag="dirichlet",
                       inner_tag="free") -> Mesh:
    """Annulus inner < |x| < outer centered at the origin."""
    if not 0.0 < inner < outer:
        raise GeometryError("annulus needs 0 < inner < outer")
    punctures = _clean_punctures(punctures)
    loop_out = _ring(np.zeros(2), outer, max(24, int(np.ceil(2.0 * np.pi * outer / h))))
    loop_in = _ring(np.zeros(2), inner, max(16, int(np.ceil(2.0 * np.pi * inner / h))))

    def inside(p):
        r = np.hypot(p[:, 0], p[:, 1])
        return (r < outer - 0.55 * h) & (r > inner + 0.55 * h)

    def domain(p):
        r = np.hypot(p[:, 0], p[:, 1])
        return (r < outer) & (r > inner)

    def classify_outer(p):
        return np.abs(np.hypot(p[:, 0], p[:, 1]) - outer) < 1e-9

    def classify_inner(p):
        return np.abs(np.hypot(p[:, 0], p[:, 1]) - inner) < 1e-9

    bbox = (np.full(2, -outer), np.full(2, outer))
    return _delaunay_mesh([loop_out, loop_in], inside, domain,
                          [(tag, classify_outer), (inner_tag, classify_inner)],
                          punctures, h, tag, bbox)


def _clean_punctures(punctures):
    out = []
    for c, rho in punctures:
        c = np.asarray(c, dtype=float)
        if rho <= 0:
            raise GeometryError("puncture radius must be positive")
        out.append((c, float(rho)))
    return out


def _ring(center, r, n, phase=0.0):
    th = phase + np.arange(n) * (2.0 * np.pi / n)
    return center + r * np.stack([np.cos(th), np.sin(th)], axis=-1)


def _puncture_cloud(center, rho, h, n_min=48):
    """Graded rings around a puncture: dense polygon on the circle itself,
    spacing growing linearly with distance until it reaches h.

    Returns (points, exclusion_radius, loop_point_count).
    """
    n0 = max(n_min, int(np.ceil(2.0 * np.pi * rho / h)))
    ell0 = 2.0 * np.pi * rho / n0
    pts = [_ring(center, rho, n0)]
    r = rho
    k = 0
    while True:
        ell = min(h, ell0 + 0.7 * (r - rho))
        r = r + ell
        k += 1
        ell_here = min(h, ell0 + 0.7 * (r - rho))
        if ell_here >= 0.98 * h:
            break
        n = max(12, int(np.ceil(2.0 * np.pi * r / ell_here)))
        pts.append(_ring(center, r, n, phase=0.5 * (k % 2) * 2.0 * np.pi / n))
        if k > 60:
            raise GeometryError("puncture grading failed to reach target edge length")
    return np.vstack(pts), r, n0


def _hex_fill(bbox_lo, bbox_hi, h):
    dy = h * np.sqrt(3.0) / 2.0
    rows = []
    y = bbox_lo[1]
    k = 0
    while y <= bbox_hi[1]:
        xs = np.arange(bbox_lo[0] + (0.5 * h if k % 2 else 0.0), bbox_hi[0] + h, h)
        rows.append(np.stack([xs, np.full_like(xs, y)], axis=-1))
        y += dy
        k += 1
    return np.vstack(rows)


def _delaunay_mesh(boundary_loops, inside_fn, domain_fn, classify, punctures, h, tag, bbox):
    """Assemble a graded point cloud, Delaunay-triangulate, filter and tag."""
    clouds = list(boundary_loops)
    exclusions = []
    loop_counts = []
    for c, rho in punctures:
        pts, r_ex, n0 = _puncture_cloud(c, rho, h)
        clouds.append(pts)
        exclusions.append((c, r_ex))
        loop_counts.append(n0)

    fill = _hex_fill(bbox[0], bbox[1], h)
    keep = inside_fn(fill)
    for c, r_ex in exclusions:
        keep &= np.hypot(fill[:, 0] - c[0], fill[:, 1] - c[1]) > r_ex + 0.55 * h
    clouds.append(fill[keep])
    points = np.vstack(clouds)

    # drop fill points that crowd structured ones
    structured = np.vstack(clouds[:-1])
    tree = cKDTree(structured)
    d, _ = tree.query(points[len(structured):])
    points = np.vstack([structured, points[len(structured):][d > 0.55 * h]])

    tri = Delaunay(points)
    cells = tri.simplices
    cent = points[cells].mean(axis=1)
    keep = domain_fn(cent)
    for c, rho in punctures:
        keep &= np.hypot(cent[:, 0] - c[0], cent[:, 1] - c[1]) > rho
    cells = cells[keep]

    used = np.unique(cells)
    remap = -np.ones(len(points), dtype=np.int64)
    remap[used] = np.arange(len(used))
    verts = points[used]
    cells = remap[cells]

    edges = _boundary_edge_soup(cells)
    classifiers = classify if isinstance(classify, list) else [(tag, classify)]
    tagged = []
    for i, j in edges:
        pi, pj = verts[i], verts[j]
        t = None
        for k, (c, rho) in enumerate(punctures):
            di = np.hypot(*(pi - c))
            dj = np.hypot(*(pj - c))
            if abs(di - rho) < 1e-9 and abs(dj - rho) < 1e-9:
                t = f"puncture_{k}"
                break
        if t is None:
            for name, pred in classifiers:
                if pred(np.array([pi]))[0] and pred(np.array([pj]))[0]:
                    t = name
                    break
        if t is None:
            raise GeometryError("untaggable boundary edge: mesh generation produced a stray hole")
        tagged.append((int(i), int(j), t))

    mesh = Mesh(verts, cells, tagged, punctures=[(c.copy(), rho) for c, rho in punctures])
    for k, (c, rho) in enumerate(punctures):
        loop = mesh.boundary_loops().get(f"puncture_{k}")
        if loop is None:
            raise GeometryError(f"puncture {k} has no boundary loop")
        rr = np.linalg.norm(mesh.vertices[loop] - c, axis=1)
        if rr.max() > 1.5 * rho:
            raise GeometryError(f"puncture {k} loop strays outside 1.5x its radius")
    return mesh


def _boundary_edge_soup(cells):
    """Edges adjacent to exactly one triangle, oriented as in that triangle."""
    e = np.concatenate([cells[:, [0, 1]], cells[:, [1, 2]], cells[:, [2, 0]]])
    key = np.sort(e, axis=1)
    order = np.lexsort((key[:, 1], key[:, 0]))
    key_sorted = key[order]
    dup = np.all(key_sorted[1:] == key_sorted[:-1], axis=1)
    is_first_of_pair = np.concatenate([dup, [False]])
    is_second_of_pair = np.concatenate([[False], dup])
    single = ~(is_first_of_pair | is_second_of_pair)
    return [tuple(e[order[k]]) for k in np.nonzero(single)[0]]
