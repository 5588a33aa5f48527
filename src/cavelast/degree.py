"""Topological degree machinery: winding numbers, image rasters, cavities.

For planar maps the topological degree of a deformation restricted to a
subdomain U, evaluated at a target point xi, is the winding number of the
image of the boundary loop of U around xi.  The set where the degree is
nonzero approximates the region swept by the deformation, including any
cavity opened inside U; intersecting those regions over shrinking circles
around a candidate site isolates the cavity attached to that site.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._polyline import (ensure_ccw, mean_circle, points_to_polyline_distance,
                        polygon_signed_area, ranges, succ)
from ._table import read_table, write_table
from .exceptions import ArtifactError, DomainError, GeometryError
from .geometry import _CHUNK, DeformationField, trace_on_circle


def winding_number(loop, points):
    """Winding number of a closed polyline around each query point.

    Signed ray-crossing count (horizontal ray to +x) of the scanline kernel
    `winding_points`.  Points within 1e-12 of the polyline are rejected
    first: the winding number is undefined there.

    Returns an int array shaped like the leading axis of `points`, or a
    plain int for a single point.
    """
    loop = np.asarray(loop, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    single = np.asarray(points).ndim == 1
    if len(loop) < 3:
        raise DomainError("winding number needs a closed loop of at least 3 points")
    near = points_to_polyline_distance(pts, loop)
    if np.any(near <= 1e-12):
        k = int(np.argmin(near))
        raise DomainError(
            f"query point ({pts[k, 0]:.6g}, {pts[k, 1]:.6g}) lies on the loop "
            f"(distance {near[k]:.3g}); winding number undefined"
        )
    out = winding_points(loop, pts)
    return int(out[0]) if single else out


def winding_number_angle(loop, points):
    """Independent winding number via summed signed angle increments.

    Cross-check for `winding_number`; same answer away from the loop.
    """
    loop = np.asarray(loop, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    single = np.asarray(points).ndim == 1
    out = np.empty(len(pts), dtype=np.int64)
    b = succ(loop)
    for lo in range(0, len(pts), _CHUNK):
        p = pts[lo:lo + _CHUNK]
        u = loop[None, :, :] - p[:, None, :]
        v = b[None, :, :] - p[:, None, :]
        cross = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
        dot = u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]
        total = np.arctan2(cross, dot).sum(axis=1)
        out[lo:lo + _CHUNK] = np.rint(total / (2.0 * np.pi)).astype(np.int64)
    return int(out[0]) if single else out


# ---------------------------------------------------------------------------
# the scanline ray-crossing kernel
#
# A point p counts the directed edge a -> b when p lies in the edge's
# half-open y-span (ay <= py < by going up, by <= py < ay going down) and its
# ray to +x crosses the edge: is_left > 0 going up (+1), is_left < 0 going
# down (-1). Both entry points evaluate that one `_ray_crosses` test, only
# on the (point, edge) pairs whose spans match.


def _edges(loop):
    """(ax, ay, bx, by) of the closed polyline's directed edges."""
    loop = np.asarray(loop, dtype=float)
    b = succ(loop)
    return loop[:, 0], loop[:, 1], b[:, 0], b[:, 1]


def _ray_crosses(ax, ay, bx, by, px, py):
    """Whether the ray from (px, py) to +x crosses the edge a -> b, for
    points inside the edge's y-span."""
    # is_left > 0 when the point sits left of the directed edge
    is_left = (bx - ax) * (py - ay) - (px - ax) * (by - ay)
    return np.where(by > ay, is_left > 0.0, is_left < 0.0)


def _span_pairs(heights, ay, by):
    """(edge, k) for every edge and every index k of the ascending
    `heights` inside the edge's half-open span [min(ay, by), max(ay, by))."""
    lo = np.searchsorted(heights, np.minimum(ay, by), "left")
    k, edge = ranges(lo, np.searchsorted(heights, np.maximum(ay, by), "left") - lo)
    return edge, k


def winding_points(loop, pts):
    """Winding number of a closed polyline around each of the (n, 2) points,
    without `winding_number`'s on-loop guard: a point on the loop gets
    whatever side the ray test says.

    The points are sorted by height once; every edge then meets only the
    points inside its y-span, `_CHUNK` sorted points at a time.
    """
    ax, ay, bx, by = _edges(loop)
    up = np.sign(by - ay)  # +1 up, -1 down, 0 for horizontal edges
    pts = np.asarray(pts, dtype=float)
    order = np.argsort(pts[:, 1], kind="stable")
    px, py = pts[order, 0], pts[order, 1]
    total = np.zeros(len(pts))
    for lo in range(0, len(pts), _CHUNK):
        e, k = _span_pairs(py[lo:lo + _CHUNK], ay, by)
        k += lo
        hit = _ray_crosses(ax[e], ay[e], bx[e], by[e], px[k], py[k])
        total += np.bincount(order[k[hit]], weights=up[e[hit]], minlength=len(pts))
    return total.astype(np.int64)


def winding_grid(grid, loops):
    """Sum of sign * winding number over the (loop, sign) pairs of `loops`
    at the cell centers of `grid`: an (ny, nx) int64 array equal to
    `winding_points` at `grid.cell_centers()`.

    Each (row, edge) crossing finds the first column that stops counting
    the edge and marks it in a difference array; a cumulative sum along
    every row then gives all cells at once.
    """
    xs, ys = grid.axes()
    nx = len(xs)
    diff = np.zeros((len(ys), nx + 1))
    for loop, sign in loops:
        ax, ay, bx, by = _edges(loop)
        e, iy = _span_pairs(ys, ay, by)
        ax, ay, bx, by, py = ax[e], ay[e], bx[e], by[e], ys[iy]
        # Start from the divided crossing x, then let the ray test itself
        # move it to the first column that does not count. Rounding is
        # monotone, so is_left is monotone in px and the walk lands exactly.
        cross = ax + (py - ay) / (by - ay) * (bx - ax)
        col = np.clip(np.ceil((cross - xs[0]) / grid.delta), 0, nx).astype(np.int64)
        j = np.flatnonzero(col < nx)
        while len(j):
            j = j[_ray_crosses(ax[j], ay[j], bx[j], by[j], xs[col[j]], py[j])]
            col[j] += 1
            j = j[col[j] < nx]
        j = np.flatnonzero(col > 0)
        while len(j):
            j = j[~_ray_crosses(ax[j], ay[j], bx[j], by[j], xs[col[j] - 1], py[j])]
            col[j] -= 1
            j = j[col[j] > 0]
        w = sign * np.sign(by - ay)
        np.add.at(diff, (iy, 0), w)
        np.add.at(diff, (iy, col), -w)
    return np.cumsum(diff[:, :nx], axis=1).astype(np.int64)


# ---------------------------------------------------------------------------
# the exact segment-crossing kernel
#
# For a P1 map with det > 0 on every triangle, the degree of a point off the
# deformed boundary is its number of preimages. When the deformed boundary
# loops are simple and pairwise disjoint, that degree is 0 or 1 everywhere,
# so the map is injective and satisfies INV (Lipman, SIAM J. Imaging Sci.
# 2014). `boundary_crossings` counts the edge pairs that break this.


def _turn(px, py, qx, qy, rx, ry):
    """Sign of the turn p -> q -> r: +1 left, -1 right, 0 collinear."""
    return np.sign((qx - px) * (ry - py) - (rx - px) * (qy - py))


def segment_crossings(p, q, u, v) -> int:
    """Number of pairs among the segments p[k] -> q[k] that cross.

    u[k] and v[k] are the vertex ids of segment k's two ends. Two segments
    with no id in common cross when the closed segments meet, touching
    included. Two that share an id cross only when they fold back onto each
    other: their other ends lie on one ray from the shared end.

    The segments are sorted by their lowest y; each meets only the later
    ones whose lowest y is at most its own highest y, and of those only the
    ones whose x-span overlaps its own.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    u = np.asarray(u)
    v = np.asarray(v)
    lo, hi = np.minimum(p, q), np.maximum(p, q)
    order = np.argsort(lo[:, 1], kind="stable")
    first = np.arange(1, len(order) + 1)
    j, i = ranges(first, np.searchsorted(lo[order, 1], hi[order, 1], "right") - first)
    i, j = order[i], order[j]
    keep = np.maximum(lo[i, 0], lo[j, 0]) <= np.minimum(hi[i, 0], hi[j, 0])
    i, j = i[keep], j[keep]
    ui, vi, uj, vj = u[i], v[i], u[j], v[j]
    at_u = (ui == uj) | (ui == vj)  # the shared id, if any, is u[i]
    shared = at_u | (vi == uj) | (vi == vj)

    a, b = i[~shared], j[~shared]
    (ax, ay), (bx, by) = p[a].T, q[a].T
    (cx, cy), (dx, dy) = p[b].T, q[b].T
    meet = ((_turn(ax, ay, bx, by, cx, cy) * _turn(ax, ay, bx, by, dx, dy) <= 0)
            & (_turn(cx, cy, dx, dy, ax, ay) * _turn(cx, cy, dx, dy, bx, by) <= 0))

    i, j, at_u = i[shared], j[shared], at_u[shared]
    s = np.where(at_u[:, None], p[i], q[i])  # the shared end
    e = np.where(at_u[:, None], q[i], p[i])  # segment i's other end
    f = np.where((u[j] == np.where(at_u, u[i], v[i]))[:, None], q[j], p[j])
    fold = (_turn(*s.T, *e.T, *f.T) == 0) & (((e - s) * (f - s)).sum(axis=1) > 0.0)
    return int(np.count_nonzero(meet) + np.count_nonzero(fold))


def boundary_crossings(mesh, pos) -> int:
    """Crossing pairs (`segment_crossings`) among the images under the nodal
    positions `pos` of every boundary edge of the mesh: outer loops, an
    annulus's inner loop and the puncture loops. 0 means the deformed
    boundary loops are simple and pairwise disjoint."""
    u, v = mesh.boundary_segments
    pos = np.asarray(pos, dtype=float)
    return segment_crossings(pos[u], pos[v], u, v)


def polygon_is_simple(pts) -> bool:
    """True when no two edges of the closed polygon cross
    (`segment_crossings`, with neighbouring edges sharing their vertex);
    repeated consecutive points are merged first."""
    pts = np.asarray(pts, dtype=float)
    pts = pts[np.any(pts != succ(pts), axis=1)]
    if len(pts) < 3:
        return False
    ids = np.arange(len(pts))
    return segment_crossings(pts, succ(pts), ids, succ(ids)) == 0


# ---------------------------------------------------------------------------
# rasters


def covering_grid(points, delta, margin):
    """Cell grid covering a point cloud with `margin` cells to spare on
    every side: returns (origin, (ny, nx)) for cells of width delta."""
    if not (np.isfinite(delta) and delta > 0.0):
        raise ValueError("delta must be a positive finite number")
    lo = points.min(axis=0) - margin * delta
    hi = points.max(axis=0) + margin * delta
    nx, ny = np.ceil((hi - lo) / delta).astype(int) + 1
    return lo, (int(ny), int(nx))


@dataclass
class CellGrid:
    """Uniform grid whose cell [iy, ix] is centred at origin + (ix, iy) * delta;
    subclasses give its `shape` (ny, nx)."""

    origin: np.ndarray
    delta: float

    def axes(self):
        """Cell-center x positions (nx,) and y positions (ny,)."""
        ny, nx = self.shape
        return (self.origin[0] + self.delta * np.arange(nx),
                self.origin[1] + self.delta * np.arange(ny))

    def cell_centers(self):
        gx, gy = np.meshgrid(*self.axes())
        return np.stack([gx, gy], axis=-1)

    def cell_of(self, points):
        """(iy, ix, ok): the cell nearest each point; ok is False off the grid."""
        idx = np.rint((points - self.origin) / self.delta).astype(int)
        ny, nx = self.shape
        ok = (idx[:, 0] >= 0) & (idx[:, 0] < nx) & (idx[:, 1] >= 0) & (idx[:, 1] < ny)
        return idx[:, 1], idx[:, 0], ok


@dataclass
class DegreeRaster(CellGrid):
    """Integer degree values sampled on a uniform grid of cell centers.

    values[iy, ix] belongs to the point origin + (ix * delta, iy * delta).
    """

    values: np.ndarray

    @property
    def shape(self):
        return self.values.shape

    def area(self) -> float:
        """Measure of the nonzero-degree set, counted with multiplicity one."""
        return float(np.count_nonzero(self.values)) * self.delta ** 2

    def save_pgm(self, path):
        """Greymap export: degree + 8 clipped to [0, 16]."""
        ny, nx = self.values.shape
        header = (f"P2\n# cavelast-degree delta={self.delta:.17g} "
                  f"origin={self.origin[0]:.17g} {self.origin[1]:.17g} offset=8\n"
                  f"{nx} {ny}\n16")
        write_table(path, header, " ".join(["%d"] * nx), np.clip(self.values + 8, 0, 16))


def load_pgm(path) -> DegreeRaster:
    with open(path) as fh:
        magic, comment = fh.readline().strip(), fh.readline()
    if magic != "P2":
        raise ArtifactError(f"not a P2 greymap: {path}")
    # "# cavelast-degree delta=<d> origin=<x> <y> offset=<k>", as save_pgm writes it
    try:
        delta, ox, oy, offset = (float(t.rpartition("=")[2]) for t in comment.split()[2:6])
    except ValueError:
        raise ArtifactError(f"no cavelast-degree header on line 2 of {path}") from None
    nx, ny = read_table(path, 2, rows=1, skip=2, dtype=np.int64)[0].tolist()
    vals = read_table(path, nx, rows=ny, skip=4, dtype=np.int64)
    return DegreeRaster(origin=np.array([ox, oy]), delta=delta, values=vals - int(offset))


# ---------------------------------------------------------------------------
# topological images


def _subdomain_loops(y: DeformationField, subdomain):
    """Image loops (with degree orientation signs) of a subdomain boundary;
    a circle is traced at 256 points. The whole domain's are its held
    loops at +1, then its puncture loops at -1."""
    if isinstance(subdomain, tuple) and subdomain and subdomain[0] == "circle":
        _, center, r = subdomain
        return [(trace_on_circle(y, center, r, 256), +1)]
    if subdomain == "omega":
        return [(y.positions[ids], +1) for ids in y.mesh.held_loops()] \
            + [(y.positions[ids], -1) for ids in y.mesh.puncture_loops()]
    raise ValueError("subdomain must be ('circle', center, r) or 'omega'")


_RASTER_MARGIN = 4  # cells a degree raster's grid spares beyond the image loops


def topological_image(y: DeformationField, subdomain, delta) -> DegreeRaster:
    """Raster of the degree of y|U at the cell centers of a uniform grid
    that extends `_RASTER_MARGIN` cells beyond the image loops.

    U is either a circle inside the meshed domain, traced at 256 points, or
    the whole domain; holes (punctures) enter with negative orientation, so
    the raster is nonzero on the deformed material only: a cavity, enclosed
    by the image of its puncture loop, reads 0.  All loops go through one
    `winding_grid` pass (a scanline over the grid rows), so cells exactly on
    a loop get the side its ray test says.
    """
    loops = _subdomain_loops(y, subdomain)
    origin, shape = covering_grid(np.vstack([lp for lp, _ in loops]), delta, _RASTER_MARGIN)
    img = DegreeRaster(origin=origin, delta=delta, values=np.zeros(shape, dtype=np.int64))
    img.values = winding_grid(img, loops)
    return img


@dataclass
class CavityRecord:
    """One detected cavity: its reference `site`, its deformed `boundary`
    (a counterclockwise polygon), the `area` it encloses and its
    phi-perimeter `aniso_perimeter` (nan when only the degree found it)."""

    site: np.ndarray
    boundary: np.ndarray
    area: float
    aniso_perimeter: float = float("nan")

    def radius_mean(self) -> float:
        return mean_circle(self.boundary)[1]


def topological_image_point(y: DeformationField, site, radii, delta) -> CavityRecord | None:
    """Cavity attached to a site: intersection of rasterized closures of the
    degree supports over a decreasing family of circles around the site,
    each traced at 256 points.

    Returns None when the intersection covers at most 4 delta^2, i.e. no
    cavity opens at the site.
    """
    radii = sorted(radii, reverse=True)
    if not radii:
        raise ValueError("need at least one radius")
    site = np.asarray(site, dtype=float)
    base = topological_image(y, ("circle", site, radii[0]), delta)
    inter = _closure(base.values != 0)
    for r in radii[1:]:
        loop = trace_on_circle(y, site, r, 256)
        inter &= _closure(winding_grid(base, [(loop, +1)]) != 0)
    area = float(inter.sum()) * delta ** 2
    if area <= 4.0 * delta ** 2:
        return None
    loops = marching_squares(inter, base.origin, base.delta)
    boundary = max(loops, key=lambda lp: abs(polygon_signed_area(lp)))
    return CavityRecord(site=site, boundary=ensure_ccw(boundary), area=area)


def _closure(mask):
    """3 x 3 binary dilation: the OR of the nine shifts of the zero-padded mask."""
    ny, nx = mask.shape
    p = np.pad(mask, 1)
    return np.logical_or.reduce([p[dy:dy + ny, dx:dx + nx] for dy in range(3) for dx in range(3)])


# ---------------------------------------------------------------------------
# marching squares


_MS_SEGMENTS = {
    1: [("l", "b")], 2: [("b", "r")], 3: [("l", "r")], 4: [("r", "t")],
    5: [("l", "t"), ("b", "r")], 6: [("b", "t")], 7: [("l", "t")],
    8: [("t", "l")], 9: [("b", "t")], 10: [("l", "b"), ("t", "r")],
    11: [("t", "r")], 12: [("r", "l")], 13: [("r", "b")], 14: [("l", "b")],
}

# per cell side b, r, t, l: its midpoint's x and y as indices into (corner,
# corner + delta / 2, corner + delta), then the (row, column) offset and the
# orientation (0 horizontal, 1 vertical) of its raster edge, which make the
# edge's integer id
_MS_SIDES = np.array([(1, 0, 0, 0, 0), (2, 1, 0, 1, 1), (1, 2, 1, 0, 0), (0, 1, 0, 0, 1)])
# _MS_TABLE[case, j]: the sides of the case's j-th segment, -1 past its last
_MS_TABLE = np.full((16, 2, 2), -1, dtype=np.int64)
for _case, _segs in _MS_SEGMENTS.items():
    _MS_TABLE[_case, :len(_segs)] = [["brtl".index(side) for side in seg] for seg in _segs]


def marching_squares(mask, origin, delta):
    """Closed boundary polylines of a boolean raster (node-centered).

    The raster is padded so that regions touching the border still close.
    Returns a list of (k, 2) loops in the raster's coordinates.

    Every segment endpoint is the midpoint of a raster edge, and exactly two
    segments share it; endpoints are matched by the integer id of that edge.
    Each loop starts at the first unused segment in cell order, runs on from
    its second endpoint and holds one point per segment.
    """
    p = np.pad(np.asarray(mask, dtype=bool), 1).astype(np.uint8)
    case = (p[:-1, :-1]           # bottom-left  -> bit 0
            | p[:-1, 1:] << 1     # bottom-right -> bit 1
            | p[1:, 1:] << 2      # top-right    -> bit 2
            | p[1:, :-1] << 3)    # top-left     -> bit 3
    iys, ixs = np.nonzero((case != 0) & (case != 15))
    # segments in cell order, a saddle cell's two in table order
    sides = _MS_TABLE[case[iys, ixs]]
    j, cell = ranges(0, 1 + (sides[:, 1, 0] >= 0))
    sides = sides[cell, j]
    iy, ix = iys[cell, None], ixs[cell, None]
    off = _MS_SIDES[sides]  # (segment, endpoint, 5)
    base = np.asarray(origin, dtype=float) - delta  # padding shift
    x = base[0] + ix * delta
    y_ = base[1] + iy * delta
    xs = np.concatenate([x, x + 0.5 * delta, x + delta], axis=1)
    ys = np.concatenate([y_, y_ + 0.5 * delta, y_ + delta], axis=1)
    pts = np.stack([np.take_along_axis(xs, off[..., 0], 1),
                    np.take_along_axis(ys, off[..., 1], 1)], axis=-1).reshape(-1, 2)
    ids = (2 * ((iy + off[..., 2]) * p.shape[1] + ix + off[..., 3]) + off[..., 4]).ravel()
    # endpoint e of segment e // 2 sits on the edge of endpoint mate[e]
    pairs = np.argsort(ids, kind="stable").reshape(-1, 2)
    mate = np.empty(len(ids), dtype=np.int64)
    mate[pairs[:, 0]], mate[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
    mate = mate.tolist()
    used = bytearray(len(cell))
    loops = []
    for s in range(len(cell)):
        if used[s]:
            continue
        used[s] = 1
        loop = [2 * s, 2 * s + 1]
        e = mate[2 * s + 1]
        # every contour closes: stop at the segment that leads back to s
        while mate[e ^ 1] != 2 * s:
            used[e >> 1] = 1
            loop.append(e ^ 1)
            e = mate[e ^ 1]
        used[e >> 1] = 1
        loops.append(pts[loop])
    return loops


# ---------------------------------------------------------------------------
# invertibility sampling


@dataclass
class InvEntry:
    center: np.ndarray
    radius: float
    n_inside: int
    n_outside: int
    violations_inside: int
    violations_outside: int


@dataclass
class InvReport:
    entries: list

    @property
    def passed(self) -> bool:
        return all(e.violations_inside == 0 and e.violations_outside == 0 for e in self.entries)

    @property
    def total_violations(self) -> int:
        return sum(e.violations_inside + e.violations_outside for e in self.entries)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}: {self.total_violations} violations over {len(self.entries)} circles"


_INV_SAMPLES = 400  # material samples inside and outside each circle
_INV_BAND = 0.04  # images this close to a circle's image loop count on neither side


def check_inv(y: DeformationField, centers=None, radii=None, seed=0) -> InvReport:
    """Sampled check of the invertibility condition on circles.

    For each circle B(a, r), its image loop traced at 192 points: material
    sampled inside B must land in the image region of B (nonzero winding of
    the image loop), and material sampled outside B must not, 400 samples
    on each side.  Query images within the band of width 0.04 around the
    image loop are not counted either way.  The windings of all images of
    one circle come from one `winding_points` call, which meets each loop
    edge only with the images in its y-span.

    Every call draws its samples from a fresh generator seeded with `seed`
    (an integer) and locates them on the reference mesh; nothing is cached.
    """
    mesh = y.mesh
    rng = np.random.default_rng(seed)
    tri_cum = np.cumsum(mesh.areas / mesh.areas.sum())
    entries = []
    for ci, a in enumerate(_default_centers(mesh) if centers is None else centers):
        a = np.asarray(a, dtype=float)
        for r in radii[ci] if radii is not None else _default_radii(mesh, a):
            loop = trace_on_circle(y, a, r, 192)
            img_in = y.interpolate(*_sample_disk_in_mesh(mesh, a, r, _INV_SAMPLES, rng))
            img_out = y.interpolate(*_sample_mesh_outside_disk(mesh, a, r, _INV_SAMPLES, rng,
                                                               tri_cum))
            n_in = len(img_in)
            w = winding_points(loop, np.vstack([img_in, img_out])) != 0
            # only images on the wrong side can violate; the band decides which do
            far_in = points_to_polyline_distance(img_in[~w[:n_in]], loop) > _INV_BAND
            far_out = points_to_polyline_distance(img_out[w[n_in:]], loop) > _INV_BAND
            entries.append(InvEntry(a.copy(), float(r), n_in, len(img_out),
                                    int(far_in.sum()), int(far_out.sum())))
    return InvReport(entries=entries)


def _default_centers(mesh):
    """The puncture centres; without punctures the vertex mean, or, when
    that lies in a hole, the vertex farthest from every boundary loop."""
    if mesh.punctures:
        return [c for c, _ in mesh.punctures]
    a = mesh.vertices.mean(axis=0)
    if mesh.locator.locate(a[None])[0][0] < 0:
        clear = np.min([points_to_polyline_distance(mesh.vertices, mesh.vertices[ids])
                        for ids in mesh.boundary_loops().values()], axis=0)
        a = mesh.vertices[np.argmax(clear)]
    return [a]


def _default_radii(mesh, a):
    """Eight geometric radii about a, up to 0.8 of its distance d to the
    outer boundary loops and to every puncture but its own: the nearest of
    those that hold a, if any. The rim of any other puncture bounds d.
    They start at 1.2 rho, rho = rho_own + |a - c_own| the radius of the
    smallest circle about a that holds its own puncture; at a puncture
    centre that is the puncture's radius.

    When another loop lies within 1.5 rho, the radii fill the middle half
    of the room (rho, d) instead.
    That room can be thin: for punctures of radius 0.1 at (+-0.11, 0) it
    is (0.1, 0.12), and every circle keeps within 0.015 of its puncture,
    well inside check_inv's band of 0.04. Unless the map stretches that
    ring, the circle's own material falls in the band, so only material
    pushed into a cavity can fail such a circle.
    """
    dists = [points_to_polyline_distance(a[None], mesh.vertices[ids])[0]
             for ids in mesh.held_loops()]
    gaps = [(np.linalg.norm(c - a), r) for c, r in mesh.punctures]
    holding = [k for k, (d, r) in enumerate(gaps) if d < r]
    own = min(holding, key=lambda k: gaps[k][0]) if holding else None
    rho = 0.0 if own is None else gaps[own][0] + gaps[own][1]
    dists += [d - r for k, (d, r) in enumerate(gaps) if k != own]
    d = min(dists)
    r_hi = 0.8 * d
    r_lo = max(1.2 * rho, 0.05 * r_hi) if rho > 0 else 0.1 * r_hi
    if r_lo >= r_hi:
        if d <= rho:
            raise GeometryError("no room for invertibility circles around the site")
        r_lo, r_hi = rho + 0.25 * (d - rho), rho + 0.75 * (d - rho)
    return np.geomspace(r_lo, r_hi, 8)


def _draw_samples(n, draw):
    """(tri, bary) of the first n hits, or fewer, that `draw(k)` yields in
    pieces for batches of k = 4 n fresh candidates, within a budget of 20 n."""
    tris, barys = [], []
    got, budget = 0, 20 * n
    while got < n and budget > 0:
        k = min(4 * n, budget)
        budget -= k
        for tri, bary in draw(k):
            tris.append(tri[:n - got])
            barys.append(bary[:n - got])
            got += len(tris[-1])
            if got == n:
                break
    return np.concatenate(tris), np.concatenate(barys)


def _sample_disk_in_mesh(mesh, a, r, n, rng):
    """(tri, bary) of up to n uniform samples of B(a, r) that hit the mesh."""
    def draw(k):
        s = r * np.sqrt(rng.random(k))
        th = rng.random(k) * 2.0 * np.pi
        cand = np.column_stack([a[0] + s * np.cos(th), a[1] + s * np.sin(th)])
        # located n at a time in draw order while hits are missing; the RNG stream ignores hits
        for lo in range(0, k, n):
            tri, bary = mesh.locator.locate(cand[lo:lo + n])
            yield tri[tri >= 0], bary[tri >= 0]

    return _draw_samples(n, draw)


def _sample_mesh_outside_disk(mesh, a, r, n, rng, tri_cum):
    """(tri, bary) of up to n area-uniform mesh samples outside B(a, r)."""
    def draw(k):
        t = np.searchsorted(tri_cum, rng.random(k))
        b1 = rng.random(k)
        b2 = rng.random(k)
        flip = b1 + b2 > 1.0
        b1[flip] = 1.0 - b1[flip]
        b2[flip] = 1.0 - b2[flip]
        i0, i1, i2 = (c[t] for c in mesh.triangles.T)
        # each candidate's offset from a: v0 + b1 (v1 - v0) + b2 (v2 - v0) - a
        ex, ey = (v[i0] + b1 * (v[i1] - v[i0]) + b2 * (v[i2] - v[i0]) - a_c
                  for v, a_c in zip(mesh.vertices.T, a))
        keep = np.sqrt(ex * ex + ey * ey) > r
        yield t[keep], np.stack([1.0 - b1[keep] - b2[keep], b1[keep], b2[keep]], axis=1)

    return _draw_samples(n, draw)
