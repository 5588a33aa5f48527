"""Triangulated reference domains and piecewise-affine deformation fields.

Meshes are plain triangulations of 2-D domains (disk, annulus, square),
optionally with small circular holes ("punctures") around candidate
cavitation sites.  Punctures are meshed as inscribed polygons whose
boundary edges carry a `puncture_<k>` tag; the outer boundary carries the
tag `dirichlet`, and an annulus's inner circle the tag `inner`.
Deformations are stored as vertex positions and interpolated affinely
inside each triangle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.spatial import Delaunay, QhullError, cKDTree

from ._polyline import mean_circle, polygon_signed_area, ranges, succ
from ._table import format_rows, read_table
from .exceptions import ArtifactError, GeometryError
from .material import _det2

MESH_FORMAT_HEADER = "cavmesh 1"

_CHUNK = 16384  # query points, or raster cells, per vectorized batch (bounds peak memory)


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

    Treat a mesh as immutable once built: `locator`, the gradient operator,
    the boundary loops and segments and the edge pairs are cached on it.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: list
    punctures: list = field(default_factory=list)

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=float)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        areas = _signed_areas(self.vertices[self.triangles])
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
        return _signed_areas(self.vertices[self.triangles])

    @cached_property
    def shape_gradients(self):
        """(m, 3, 2) gradients of the three nodal hat functions per triangle."""
        return hat_gradients(self.vertices, self.triangles)

    @cached_property
    def corner_dofs(self):
        """(6 m,) dof 2 v + a of every corner i and axis a, in (t, i, a) order."""
        return (2 * self.triangles[:, :, None] + np.arange(2)).ravel()

    @cached_property
    def gradient_operator(self):
        """(4 m, 2 n) csr map from the flat nodal positions to the flat
        element gradients: row 4 t + 2 a + b holds dN_i/dX_b at column
        2 v_i + a for the corners i = 0, 1, 2 of triangle t, in that order."""
        m, n = len(self.triangles), len(self.vertices)
        cols = self.corner_dofs.reshape(m, 3, 2).transpose(0, 2, 1)[:, :, None, :]
        weights = self.shape_gradients.transpose(0, 2, 1)[:, None, :, :]
        return sparse.csr_matrix(
            (np.broadcast_to(weights, (m, 2, 2, 3)).ravel(),
             np.broadcast_to(cols, (m, 2, 2, 3)).ravel().astype(np.int32),
             np.arange(0, 12 * m + 1, 3, dtype=np.int32)),
            shape=(4 * m, 2 * n))

    def element_gradients(self, pos):
        """(m, 2, 2) constant gradients F of the P1 map with nodal positions
        pos; each entry sums its three corner terms in corner order."""
        return (self.gradient_operator @ np.ravel(pos)).reshape(-1, 2, 2)

    @cached_property
    def boundary_vertices(self):
        """Sorted ids of every vertex on a boundary loop."""
        return np.unique(np.concatenate(list(self.boundary_loops().values())))

    @cached_property
    def locator(self):
        return TriangleLocator(self.vertices, self.triangles)

    @cached_property
    def _loops(self):
        by_tag = {}
        for i, j, t in self.boundary_edges:
            by_tag.setdefault(t, []).append((i, j))
        loops = {}
        for tag, edges in by_tag.items():
            loop = _chain_edges(edges)
            if polygon_signed_area(self.vertices[loop]) < 0.0:
                loop = loop[::-1]
            loops[tag] = np.asarray(loop, dtype=np.int64)
            loops[tag].flags.writeable = False
        return loops

    def boundary_loops(self) -> dict:
        """Ordered, counterclockwise vertex loops keyed by boundary tag; the
        arrays are built once per mesh and are read-only."""
        return dict(self._loops)

    @cached_property
    def boundary_segments(self):
        """(u, v): the vertex ids at the two ends of every boundary edge,
        loop by loop in `boundary_loops` order, each loop's edges in loop
        order; read-only."""
        loops = list(self._loops.values())
        u = np.concatenate(loops)
        v = np.concatenate([succ(ids) for ids in loops])
        u.flags.writeable = v.flags.writeable = False
        return u, v

    @cached_property
    def edge_pairs(self):
        """(k, 2) vertex ids (i, j), i < j, of every mesh edge once, in
        lexicographic order; read-only."""
        pairs = np.sort(np.concatenate([self.triangles[:, [0, 1]], self.triangles[:, [1, 2]],
                                        self.triangles[:, [2, 0]]]), axis=1)
        # key each sorted pair (i, j) by i * n + j: ascending keys are the
        # lexicographic order of the pairs
        n = len(self.vertices)
        keys = np.unique(pairs[:, 0] * n + pairs[:, 1])
        out = np.stack([keys // n, keys % n], axis=1)
        out.flags.writeable = False
        return out

    def held_loops(self) -> list:
        """The loops that are not `puncture_<k>` loops, in `boundary_loops`
        order: those `minimize` holds fixed."""
        return [ids for tag, ids in self._loops.items() if not tag.startswith("puncture_")]

    def puncture_loops(self) -> list:
        """Loops for `puncture_<k>` tags, ordered to match self.punctures."""
        loops = self.boundary_loops()
        return [loops[f"puncture_{k}"] for k in range(len(self.punctures))]

    def save(self, path):
        edges = np.array(self.boundary_edges, dtype=object).reshape(-1, 3)
        with open(path, "w") as fh:
            fh.write(f"{MESH_FORMAT_HEADER}\n{len(self.vertices)}\n")
            fh.write(format_rows("%.17g %.17g", self.vertices))
            fh.write(f"{len(self.triangles)}\n")
            fh.write(format_rows("%d %d %d", self.triangles))
            fh.write(format_rows("%d %d %s", edges))


def load_mesh(path) -> Mesh:
    """The mesh `Mesh.save` wrote to path; ArtifactError, naming the file,
    if it is malformed or a vertex coordinate is not finite."""
    with open(path) as fh:
        header = fh.readline().strip()
    if header != MESH_FORMAT_HEADER:
        raise ArtifactError(f"not a mesh file (expected header {MESH_FORMAT_HEADER!r}): {path}")
    nv = int(read_table(path, 1, rows=1, skip=1, dtype=np.int64)[0, 0])
    verts = read_table(path, 2, rows=nv, skip=2)
    nt = int(read_table(path, 1, rows=1, skip=2 + nv, dtype=np.int64)[0, 0])
    tris = read_table(path, 3, rows=nt, skip=3 + nv, dtype=np.int64)
    try:
        edges = [(int(i), int(j), tag) for i, j, tag in
                 read_table(path, 3, skip=3 + nv + nt, dtype=str).tolist()]
    except ValueError as err:
        raise ArtifactError(f"malformed boundary edge in {path}: {err}") from err
    ids = np.concatenate([tris.ravel(), np.array([e[:2] for e in edges], dtype=np.int64).ravel()])
    tags = {t for _, _, t in edges}
    n_punctures = sum(t.startswith("puncture_") for t in tags)
    if ids.size and not 0 <= ids.min() <= ids.max() < nv \
            or not tags >= {f"puncture_{k}" for k in range(n_punctures)}:
        raise ArtifactError(f"vertex id out of range 0..{nv - 1} or puncture tags "
                            f"not numbered 0, 1, ... in {path}")
    mesh = Mesh(verts, tris, edges, punctures=[])
    # recover puncture geometry from the tagged loops
    loops = mesh.boundary_loops()
    mesh.punctures = [mean_circle(verts[loops[f"puncture_{k}"]]) for k in range(n_punctures)]
    return mesh


def _signed_areas(v):
    """Signed areas of triangles given by their (m, 3, 2) corners."""
    e1 = v[:, 1] - v[:, 0]
    e2 = v[:, 2] - v[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def hat_gradients(vertices, triangles):
    """(m, 3, 2) gradients of the three nodal hat functions per triangle: the
    opposite edge rotated by +90 degrees over twice the signed area."""
    v = vertices[triangles]
    opp = v[:, [2, 0, 1]] - v[:, [1, 2, 0]]
    twice_area = 2.0 * _signed_areas(v)
    return np.stack([-opp[..., 1], opp[..., 0]], axis=-1) / twice_area[:, None, None]


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
    """Uniform-grid spatial index over a fixed triangulation.

    The point kernels keep every per-triangle and per-candidate quantity in
    its own contiguous 1-D array, one per coordinate and corner, never in
    (k, 2) or (k, 3, 2) batches: numpy gathers rows of two or three numbers
    and reduces over such a short trailing axis at about ten times the cost
    of a 1-D op of the same length. Each coordinate is formed from the same
    products, summed in the same order, as the batched einsum it replaces
    (`_bary_test`, `_corner_sum`), so the outputs keep their bits.
    """

    def __init__(self, vertices, triangles):
        self.vertices = vertices
        self.triangles = triangles
        v = vertices[triangles]
        self._origin = vertices.min(axis=0)
        extent = vertices.max(axis=0) - self._origin
        self._area = np.abs(_signed_areas(v))
        self._cell = float(max(1e-12, 2.0 * np.sqrt(self._area.mean())))
        self._dims = np.maximum(1, np.ceil(extent / self._cell).astype(int) + 1)
        lo = np.floor((v.min(axis=1) - self._origin) / self._cell).astype(int)
        hi = np.floor((v.max(axis=1) - self._origin) / self._cell).astype(int)
        lo = np.clip(lo, 0, self._dims - 1)
        hi = np.clip(hi, 0, self._dims - 1)
        self._lo, self._hi = lo, hi
        # CSR buckets: every (cell, triangle) pair of the triangles' bounding
        # boxes, grouped by cell; the stable sort keeps triangles ascending
        span = hi - lo + 1
        k, tri = ranges(0, span[:, 0] * span[:, 1])
        ny = span[tri, 1]
        cell = (lo[tri, 0] + k // ny) * self._dims[1] + lo[tri, 1] + k % ny
        order = np.argsort(cell, kind="stable")
        self._btri = tri[order]
        self._bstart = np.searchsorted(cell[order], np.arange(self._dims[0] * self._dims[1] + 1))
        # barycentric coordinates 1 and 2 of p are the hat gradients 1 and 2
        # applied to p - vertex 0: rows g1x, g1y, g2x, g2y of `_grad` and x, y
        # of `_v0`, each a contiguous (m,) array that the point kernels gather
        # one number per (point, triangle) candidate from
        self._grad = np.ascontiguousarray(hat_gradients(vertices, triangles)[:, 1:]
                                          .reshape(-1, 4).T)
        self._v0 = np.ascontiguousarray(v[:, 0].T)

    def locate(self, points):
        """Containing triangle and barycentric coordinates for each point,
        with every barycentric coordinate >= -1e-10.

        Returns (tri, bary) with tri = -1 where the point is outside.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        tri = np.full(len(pts), -1, dtype=np.int64)
        bary = np.zeros((len(pts), 3))
        for lo in range(0, len(pts), _CHUNK):
            px, py = pts[lo:lo + _CHUNK].T
            cx = np.floor((px - self._origin[0]) / self._cell).astype(int)
            cy = np.floor((py - self._origin[1]) / self._cell).astype(int)
            k = np.nonzero((cx >= 0) & (cx < self._dims[0]) & (cy >= 0) & (cy < self._dims[1]))[0]
            c = cx[k] * self._dims[1] + cy[k]
            start = self._bstart[c]
            # one (point, triangle) pair per bucket entry, points in order
            at, owner = ranges(start, self._bstart[c + 1] - start)
            pp = k[owner]
            tt = self._btri[at]
            dy = py[pp] - self._v0[1][tt]
            ok, lam = self._bary_test(px[pp], tt, self._grad[1][tt] * dy, self._grad[3][tt] * dy)
            # pp ascends, so a point's first passing candidate starts a run in pp[ok]
            key = pp[ok]
            first = np.ones(len(key), dtype=bool)
            first[1:] = key[1:] != key[:-1]
            sel = ok[first]
            hit = lo + pp[sel]
            tri[hit] = tt[sel]
            for i in range(3):
                bary[hit, i] = lam[i][sel] + 0.0  # see `_bary_test`
        return tri, bary

    def locate_grid(self, grid, corners):
        """`locate` at the cell centres of a `CellGrid`, and the per-corner
        values `corners` (m, 3, d) interpolated there: (ny, nx) tri, equal to
        `locate(grid.cell_centers().reshape(-1, 2))` reshaped, and (ny, nx, d)
        values, sum_b bary_b corners[tri, b] (`_corner_sum`) where tri >= 0
        and nan elsewhere. With the reference corners of the located triangles
        the values are the pre-images of the cell centres.

        Instead of one bucket search per cell, each triangle walks its own
        grid rows (Pineda's edge-function scan): on a row its three edge
        functions, the barycentric coordinates, bound an x-interval, and
        their y halves are formed once for the row and shared by its cells,
        with the same products that `locate` forms per cell. The
        interval is computed with a slack `tau` in place of the 1e-10
        tolerance that also covers the rounding of the test, so it holds
        every cell the test can accept; extra cells cost time, never
        correctness. Cells whose locator cell lies outside the triangle's
        bucket range are dropped, so each cell meets exactly `locate`'s
        candidates that can pass, in ascending order, and the lowest
        passing triangle wins. Triangles go in chunks of about `_CHUNK`
        bounding-box cells, which bounds the candidate arrays; a cell takes
        the lowest triangle that passes there (`np.minimum.at`), and the
        triangles ascend over the chunks, so a chunk forms the values of
        the cells it newly wins, and later chunks never take them back.
        """
        xs, ys = grid.axes()
        ny, nx = len(ys), len(xs)
        m = len(self.triangles)
        tri = np.full(ny * nx, m, dtype=np.int64)  # m marks a cell no triangle holds
        values = np.full((ny * nx, corners.shape[-1]), np.nan)
        # (corner, component) rows of the corner values, gathered per hit
        cval = np.ascontiguousarray(corners.transpose(1, 2, 0))
        # per-triangle data in (coordinate, corner, triangle) layout, so that
        # reductions over the three corners run along contiguous rows
        vx, vy = np.ascontiguousarray(self.vertices[self.triangles].transpose(2, 1, 0))
        # edge functions lam_i(p) = g_i . (p - v0) + [i == 0], from locate's operands
        g1x, g1y, g2x, g2y = self._grad
        gx = np.stack([-(g1x + g2x), g1x, g2x])
        gy = np.stack([-(g1y + g2y), g1y, g2y])
        x_lo, x_hi = vx.min(axis=0), vx.max(axis=0)
        y_lo, y_hi = vy.min(axis=0), vy.max(axis=0)
        diam = (x_hi - x_lo) + (y_hi - y_lo)
        # Near the triangle |g_i|_1 |p - v0| <= diam^2 / area, and the computed
        # test differs from exact arithmetic on its operands by a few ulps of
        # 1 + that. The slack tau exceeds tol = 1e-10 plus that error by a
        # wide margin; it widens the triangle by at most 3 tau diam, and
        # `pad` covers the rounding of the interval ends in coordinates.
        tau = 1e-9 * (1.0 + diam ** 2 / self._area)
        pad = 1e-12 * (1.0 + np.abs(self.vertices).max())
        reach = 3.0 * tau * diam + pad
        # rows and columns of the widened bounding box within the bucket range
        rows = self._index_range(ys, 1, y_lo - reach, y_hi + reach)
        cols = self._index_range(xs, 0, x_lo - reach, x_hi + reach)
        n_rows = np.maximum(rows[1] - rows[0], 0)
        box = n_rows * np.maximum(cols[1] - cols[0], 0)
        ends = np.cumsum(box)
        e0 = np.array([[1.0], [0.0], [0.0]])
        t_lo = 0
        while t_lo < len(box):
            t_hi = max(t_lo + 1, int(np.searchsorted(ends, ends[t_lo] - box[t_lo] + _CHUNK,
                                                     "right")))
            # (triangle, row) pairs in triangle order
            iy, pt = ranges(rows[0][t_lo:t_hi], n_rows[t_lo:t_hi])
            pt += t_lo
            # the y halves g_iy (y - v0y) of the edge functions, once per pair
            hy = gy[:, pt] * (ys[iy] - vy[0, pt])
            # lam_i >= -tau  <=>  a_i (x - v0x) >= q_i, with a_i = 0 on a horizontal edge
            a = gx[:, pt]
            q = -tau[pt] - hy - e0
            x0 = np.divide(q, a, out=np.full_like(q, -np.inf), where=a > 0.0).max(axis=0)
            x1 = np.divide(q, a, out=np.full_like(q, np.inf), where=a < 0.0).min(axis=0)
            x1[((a == 0.0) & (q > 0.0)).any(axis=0)] = -np.inf
            c0 = np.maximum(np.searchsorted(xs, vx[0, pt] + x0 - pad, "left"), cols[0][pt])
            c1 = np.minimum(np.searchsorted(xs, vx[0, pt] + x1 + pad, "right"), cols[1][pt])
            # one (cell, triangle) candidate per column of each pair's interval
            ix, k = ranges(c0, np.maximum(c1 - c0, 0))
            tt = pt[k]
            ok, lam = self._bary_test(xs[ix], tt, hy[1][k], hy[2][k])
            # each cell keeps its lowest passing triangle, `locate`'s first hit
            hit, t = iy[k[ok]] * nx + ix[ok], tt[ok]
            np.minimum.at(tri, hit, t)
            win = np.nonzero(tri[hit] == t)[0]
            hit, t, sel = hit[win], t[win], ok[win]
            b = [l[sel] for l in lam]
            for i in range(values.shape[1]):
                values[:, i][hit] = _corner_sum(b, [c[t] for c in cval[:, i]])
            t_lo = t_hi
        tri[tri == m] = -1
        return tri.reshape(ny, nx), values.reshape(ny, nx, -1)

    def _index_range(self, axis, k, lo, hi):
        """[first, stop) indices of the ascending grid `axis` within [lo, hi]
        and, on the locator's axis k, in each triangle's bucket range."""
        cell = np.floor((axis - self._origin[k]) / self._cell).astype(int)
        first = np.maximum(np.searchsorted(axis, lo, "left"),
                           np.searchsorted(cell, self._lo[:, k], "left"))
        stop = np.minimum(np.searchsorted(axis, hi, "right"),
                          np.searchsorted(cell, self._hi[:, k], "right"))
        return first, stop

    def _bary_test(self, px, tt, h1, h2):
        """The barycentric test of (point, triangle) candidates, given the
        points' x, the triangles tt and the y halves h_i = g_iy (y - v0y) of
        coordinates 1 and 2: every coordinate >= -1e-10. Returns the indices
        of the passing candidates and every candidate's (l0, l1, l2).

        l_i = g_ix (x - v0x) + h_i, with h_i from the same product
        g_iy * (y - v0y), equals einsum("kab,kb->ka") over (g_i, p - v0) but
        for the sign of a zero: einsum sums from +0, so two -0 products give
        +0 there and -0 here. `locate` adds 0.0 to the coordinates it
        returns, which makes that +0, and `_corner_sum` adds 0.0 to its sums;
        the test itself does not see the sign."""
        tol = 1e-10
        dx = px - self._v0[0][tt]
        l1 = self._grad[0][tt] * dx + h1
        l2 = self._grad[2][tt] * dx + h2
        l0 = 1.0 - (l1 + l2)
        ok = np.nonzero((l1 >= -tol) & (l2 >= -tol) & (l0 >= -tol))[0]
        return ok, (l0, l1, l2)


def _corner_sum(b, c):
    """b[0] c[0] + b[1] c[1] + b[2] c[2] elementwise, over a triangle's three
    corners: the bits of einsum("ki,ki...->k...") with (k, 3) weights, which
    sums the corners in order from +0 (so three -0 products give +0, as the
    trailing + 0.0 makes them here)."""
    return b[0] * c[0] + b[1] * c[1] + b[2] * c[2] + 0.0


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
        self._locator = None

    def with_positions(self, positions) -> "DeformationField":
        return DeformationField(self.mesh, positions)

    def element_gradients(self):
        return self.mesh.element_gradients(self.positions)

    def element_dets(self):
        return _det2(self.element_gradients())

    def evaluate(self, points):
        """Deformed positions of reference points (affine interpolation);
        GeometryError if one is outside the mesh."""
        tri, bary = self.mesh.locator.locate(points)
        if np.any(tri < 0):
            p = np.atleast_2d(points)[np.argmax(tri < 0)]  # the first one outside
            raise GeometryError(f"reference point ({p[0]:.6g}, {p[1]:.6g}) is outside "
                                "the meshed domain")
        return self.interpolate(tri, bary)

    def interpolate(self, tri, bary):
        """Deformed positions of points given as (triangle, barycentric) pairs:
        (k,) triangles and (k, 3) coordinates, one coordinate at a time."""
        ids = [c[tri] for c in self.mesh.triangles.T]
        out = np.empty((len(ids[0]), 2))
        for j, p in enumerate(self.positions.T):
            out[:, j] = _corner_sum(bary.T, [p[i] for i in ids])
        return out

    def deformed_locator(self) -> TriangleLocator:
        """Locator over the deformed triangles, built once per field."""
        if self._locator is None:
            self._locator = TriangleLocator(self.positions, self.mesh.triangles)
        return self._locator


def trace_on_circle(y: DeformationField, center, r, m: int):
    """Images of m equally spaced points on the circle |x - center| = r.

    The circle must lie inside the meshed domain (in particular it must not
    cross a puncture); `DeformationField.evaluate`'s GeometryError, naming
    the first point outside, otherwise.
    """
    th = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    return y.evaluate(np.asarray(center, dtype=float)
                      + r * np.stack([np.cos(th), np.sin(th)], axis=-1))


# ---------------------------------------------------------------------------
# boundary data


_BOUNDARY_KINDS = ("radial_stretch", "affine_stretch")


@dataclass(frozen=True)
class BoundaryData:
    """Dirichlet data d on the boundary, as a map of the whole plane.

    kinds:
      radial_stretch   d(x) = lam * x
      affine_stretch   d(x) = diag(lam, 1/lam) x   (volume preserving)
    """

    kind: str = "radial_stretch"
    lam: float = 1.0

    def __post_init__(self):
        if self.kind not in _BOUNDARY_KINDS:
            raise ValueError(f"kind must be one of {_BOUNDARY_KINDS}, not {self.kind!r}")

    def map_points(self, pts):
        pts = np.asarray(pts, dtype=float)
        if self.kind == "radial_stretch":
            return self.lam * pts
        out = pts.copy()
        out[..., 0] *= self.lam
        out[..., 1] /= self.lam
        return out

    def initial_field(self, mesh: Mesh) -> DeformationField:
        """Feasible starting guess: the data applied to every vertex."""
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

    The result may hold a triangle of nonpositive determinant; the caller checks.
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
    values = y.interpolate(np.maximum(tri, 0), bary).reshape(len(interior), 9, 2)
    ok = (tri >= 0).reshape(len(interior), 9).all(axis=1)
    w = _STENCIL_W / _STENCIL_W.sum()
    averaged = np.einsum("s,ksj->kj", w, values)
    pos = y.positions.copy()
    upd = interior[ok]
    pos[upd] = averaged[ok]
    return y.with_positions(pos)


# ---------------------------------------------------------------------------
# mesh builders


def build_square_mesh(side=1.0, h=0.1, punctures=()) -> Mesh:
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
            edges.append((nid(i, 0), nid(i + 1, 0), "dirichlet"))
            edges.append((nid(i + 1, n), nid(i, n), "dirichlet"))
            edges.append((nid(0, i + 1), nid(0, i), "dirichlet"))
            edges.append((nid(n, i), nid(n, i + 1), "dirichlet"))
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

    bbox = (np.array([0.0, 0.0]), np.array([side, side]))
    return _delaunay_mesh([("dirichlet", loop)], inside, domain, domain, punctures, h, bbox)


def build_disk_mesh(radius=1.0, h=0.1, punctures=()) -> Mesh:
    """Disk of given radius centered at the origin."""
    return _round_mesh(radius, -np.inf, h, punctures)


def build_annulus_mesh(outer=1.0, inner=0.4, h=0.1, punctures=()) -> Mesh:
    """Annulus inner < |x| < outer centered at the origin; the inner circle
    carries the tag "inner", and `minimize` holds it fixed like the outer one."""
    if not 0.0 < inner < outer:
        raise GeometryError("annulus needs 0 < inner < outer")
    return _round_mesh(outer, inner, h, punctures)


def _round_mesh(outer, inner, h, punctures) -> Mesh:
    """The domain inner < |x| < outer centered at the origin, with an inner
    ring only when inner is finite: inner = -inf gives the disk."""
    punctures = _clean_punctures(punctures)
    n_out = max(24, int(np.ceil(2.0 * np.pi * outer / h)))
    rings = [("dirichlet", _ring(np.zeros(2), outer, n_out))]
    if np.isfinite(inner):
        rings.append(("inner", _ring(np.zeros(2), inner,
                                     max(16, int(np.ceil(2.0 * np.pi * inner / h))))))

    def inside(p):
        r = np.hypot(p[:, 0], p[:, 1])
        return (r < outer - 0.55 * h) & (r > inner + 0.55 * h)

    def domain(p):
        r = np.hypot(p[:, 0], p[:, 1])
        return (r < outer) & (r > inner)

    def polygon(p):  # outside the inner circle, inside the outer polygon's incircle
        r = np.hypot(p[:, 0], p[:, 1])
        return (r < outer * np.cos(np.pi / n_out)) & (r > inner)

    bbox = (np.full(2, -outer), np.full(2, outer))
    return _delaunay_mesh(rings, inside, domain, polygon, punctures, h, bbox)


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


def _puncture_cloud(center, rho, h, name):
    """Graded rings around the puncture `name`: dense polygon (at least 48
    points) on the circle itself, spacing growing linearly with distance
    until it reaches h.

    Returns (points, exclusion_radius, loop_point_count).
    """
    n0 = max(48, int(np.ceil(2.0 * np.pi * rho / h)))
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
            raise GeometryError(f"{name}: its grading rings do not reach [domain] h = {h:g} "
                                "within 60 rings")
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


def _delaunay_mesh(rings, inside_fn, domain_fn, polygon_fn, punctures, h, bbox):
    """Assemble a graded point cloud, Delaunay-triangulate, filter and tag:
    each point is labelled with the boundary ring, given as (tag, points),
    or puncture circle it was placed on, or else the puncture whose grading
    rings hold it, and a boundary edge takes the tag both its ends share.
    The grading rings of every puncture must lie where `polygon_fn` holds,
    inside the polygons the boundary rings span: a ring point past a chord
    of a curved boundary would leave a stray hole. A stray hole is reported
    by its first edge with an end on grading rings, if any, naming their
    puncture."""
    names = [t for t, _ in rings] + [f"puncture_{k}" for k in range(len(punctures))]
    named = [f"puncture {k} at ({c[0]:g}, {c[1]:g}) with rho {rho:g}"
             for k, (c, rho) in enumerate(punctures)]
    where = [repr(t) for t in names] + [f"a grading ring of {p}" for p in named]
    clouds = [pts for _, pts in rings]
    labels = [np.full(len(pts), i) for i, pts in enumerate(clouds)]
    exclusions = []
    for k, (c, rho) in enumerate(punctures):
        pts, r_ex, n0 = _puncture_cloud(c, rho, h, named[k])
        if not polygon_fn(pts).all():
            raise GeometryError(
                f"{named[k]} is too close to the domain boundary for [domain] h = {h:g}: "
                f"its grading rings leave the meshed polygon")
        clouds.append(pts)
        labels.append(np.where(np.arange(len(pts)) < n0, len(rings) + k, len(names) + k))
        exclusions.append((c, r_ex))

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
    label = np.full(len(points), -1)
    label[:len(structured)] = np.concatenate(labels)

    try:
        tri = Delaunay(points)
    except QhullError as err:
        qhull = str(err).partition("\n")[0]
        raise GeometryError(
            f"Delaunay triangulation of the mesh points fails on a domain of width "
            f"{bbox[1][0] - bbox[0][0]:g} at [domain] h = {h:g}: {qhull}") from err
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
    ends = label[used][edges]
    stray = np.flatnonzero((ends[:, 0] < 0) | (ends[:, 0] >= len(names))
                           | (ends[:, 0] != ends[:, 1]))
    if len(stray):
        e = stray[np.argmax((ends[stray] >= len(names)).any(axis=1))]
        at = [f"({verts[v, 0]:.6g}, {verts[v, 1]:.6g}) on "
              + (where[t] if t >= 0 else "no boundary ring") for v, t in zip(edges[e], ends[e])]
        raise GeometryError(
            f"untaggable boundary edge from {at[0]} to {at[1]}: mesh generation "
            f"left a stray hole ({len(stray)} such edges); try another [domain] h "
            f"than {h:g}")
    tagged = [(int(i), int(j), names[t]) for (i, j), t in zip(edges.tolist(), ends[:, 0])]

    mesh = Mesh(verts, cells, tagged, punctures=[(c.copy(), rho) for c, rho in punctures])
    for k in range(len(punctures)):
        if f"puncture_{k}" not in mesh.boundary_loops():
            raise GeometryError(f"puncture {k} has no boundary loop")
    return mesh


def _boundary_edge_soup(cells):
    """(k, 2) edges adjacent to exactly one triangle, oriented as in that triangle."""
    e = np.concatenate([cells[:, [0, 1]], cells[:, [1, 2]], cells[:, [2, 0]]])
    key = np.sort(e, axis=1)
    order = np.lexsort((key[:, 1], key[:, 0]))
    dup = np.all(key[order[1:]] == key[order[:-1]], axis=1)  # one pair per inner edge
    single = ~(np.append(dup, False) | np.insert(dup, 0, False))
    return e[order[single]]
