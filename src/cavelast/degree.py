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

from ._polyline import ensure_ccw, points_to_polyline_distance, polygon_signed_area
from ._table import read_table, write_table
from .exceptions import DomainError, GeometryError
from .geometry import _CHUNK, DeformationField, locate_circle, trace_on_circle


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
    b = np.roll(loop, -1, axis=0)
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
    b = np.roll(loop, -1, axis=0)
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
    n = np.searchsorted(heights, np.maximum(ay, by), "left") - lo
    edge = np.repeat(np.arange(len(n)), n)
    return edge, np.arange(len(edge)) - np.repeat(np.cumsum(n) - n - lo, n)


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

    def area_with_multiplicity(self) -> float:
        return float(np.abs(self.values).sum()) * self.delta ** 2

    def member(self, points):
        """Nonzero-degree membership of query points (False outside the grid)."""
        iy, ix, ok = self.cell_of(np.atleast_2d(np.asarray(points, dtype=float)))
        out = np.zeros(len(ok), dtype=bool)
        out[ok] = self.values[iy[ok], ix[ok]] != 0
        return out

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
        raise GeometryError(f"not a P2 greymap: {path}")
    # "# cavelast-degree delta=<d> origin=<x> <y> offset=<k>", as save_pgm writes it
    delta, ox, oy, offset = (float(t.rpartition("=")[2]) for t in comment.split()[2:6])
    nx, ny = read_table(path, 2, rows=1, skip=2, dtype=np.int64)[0].tolist()
    vals = read_table(path, nx, rows=ny, skip=4, dtype=np.int64)
    return DegreeRaster(origin=np.array([ox, oy]), delta=delta, values=vals - int(offset))


# ---------------------------------------------------------------------------
# topological images


def _subdomain_loops(y: DeformationField, subdomain, m):
    """Image loops (with degree orientation signs) of a subdomain boundary."""
    if isinstance(subdomain, tuple) and subdomain and subdomain[0] == "circle":
        _, center, r = subdomain
        return [(trace_on_circle(y, center, r, m), +1)]
    if subdomain == ("omega",) or subdomain == "omega":
        loops = []
        for tag, ids in y.mesh.boundary_loops().items():
            sign = -1 if tag.startswith("puncture_") else +1
            loops.append((y.positions[ids], sign))
        return loops
    raise ValueError("subdomain must be ('circle', center, r) or 'omega'")


def topological_image(y: DeformationField, subdomain, delta, m=256) -> DegreeRaster:
    """Raster of the degree of y|U at the cell centers of a uniform grid
    that extends 4 cells beyond the image loops.

    U is either a circle inside the meshed domain or the whole domain; holes
    (punctures) enter with negative orientation, so the raster is nonzero on
    the deformed material only: a cavity, enclosed by the image of its
    puncture loop, reads 0.  All loops go through one `winding_grid` pass
    (a scanline over the grid rows), so cells exactly on a loop get the
    side its ray test says.
    """
    loops = _subdomain_loops(y, subdomain, m)
    origin, shape = covering_grid(np.vstack([lp for lp, _ in loops]), delta, 4)
    img = DegreeRaster(origin=origin, delta=delta, values=np.zeros(shape, dtype=np.int64))
    img.values = winding_grid(img, loops)
    return img


@dataclass
class CavityRecord:
    """One detected cavity: where it sits, how big it is, what it costs."""

    site: np.ndarray
    puncture_radius: float
    boundary: np.ndarray
    area: float
    aniso_perimeter: float = float("nan")
    simple: bool = True

    def radius_mean(self) -> float:
        c = self.boundary.mean(axis=0)
        return float(np.linalg.norm(self.boundary - c, axis=1).mean())


def topological_image_point(y: DeformationField, site, radii, delta,
                            m=256) -> CavityRecord | None:
    """Cavity attached to a site: intersection of rasterized closures of the
    degree supports over a decreasing family of circles around the site.

    Returns None when the intersection covers at most 4 delta^2, i.e. no
    cavity opens at the site.
    """
    radii = sorted(radii, reverse=True)
    if not radii:
        raise ValueError("need at least one radius")
    site = np.asarray(site, dtype=float)
    base = topological_image(y, ("circle", site, radii[0]), delta, m=m)
    inter = _closure(base.values != 0)
    for r in radii[1:]:
        loop = trace_on_circle(y, site, r, m)
        inter &= _closure(winding_grid(base, [(loop, +1)]) != 0)
    area = float(inter.sum()) * delta ** 2
    if area <= 4.0 * delta ** 2:
        return None
    loops = marching_squares(inter, base.origin, base.delta)
    if not loops:
        return None
    boundary = max(loops, key=lambda lp: abs(polygon_signed_area(lp)))
    rho = _puncture_radius_at(y.mesh, site, float("nan"))
    return CavityRecord(site=site, puncture_radius=rho, boundary=ensure_ccw(boundary), area=area)


def _puncture_radius_at(mesh, site, default):
    """Radius of the first puncture within 4 of its radii of the site, else default."""
    return next((r for c, r in mesh.punctures if np.linalg.norm(c - site) <= 4.0 * r), default)


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


def marching_squares(mask, origin, delta):
    """Closed boundary polylines of a boolean raster (node-centered).

    The raster is padded so that regions touching the border still close.
    Returns a list of (k, 2) loops in the raster's coordinates.
    """
    p = np.pad(np.asarray(mask, dtype=bool), 1).astype(np.uint8)
    case = (p[:-1, :-1]           # bottom-left  -> bit 0
            | p[:-1, 1:] << 1     # bottom-right -> bit 1
            | p[1:, 1:] << 2      # top-right    -> bit 2
            | p[1:, :-1] << 3)    # top-left     -> bit 3
    iys, ixs = np.nonzero((case != 0) & (case != 15))
    segs = []
    base = np.asarray(origin, dtype=float) - delta  # padding shift
    for iy, ix, c in zip(iys.tolist(), ixs.tolist(), case[iys, ixs].tolist()):
        x = base[0] + ix * delta
        y_ = base[1] + iy * delta
        mid = {
            "b": (x + 0.5 * delta, y_),
            "r": (x + delta, y_ + 0.5 * delta),
            "t": (x + 0.5 * delta, y_ + delta),
            "l": (x, y_ + 0.5 * delta),
        }
        for a, b in _MS_SEGMENTS[c]:
            segs.append((mid[a], mid[b]))
    return _chain_segments(segs, snap=delta * 1e-6)


def _chain_segments(segs, snap):
    def key(p):
        return (round(p[0] / snap), round(p[1] / snap))

    adj = {}
    for s, (p, q) in enumerate(segs):
        adj.setdefault(key(p), []).append((s, q))
        adj.setdefault(key(q), []).append((s, p))
    used = set()
    loops = []
    for s, (p, q) in enumerate(segs):
        if s in used:
            continue
        used.add(s)
        loop = [np.asarray(p), np.asarray(q)]
        cur = q
        while True:
            cands = [(sid, other) for sid, other in adj.get(key(cur), []) if sid not in used]
            if not cands:
                break
            sid, nxt = cands[0]
            used.add(sid)
            if key(nxt) == key(loop[0]):
                break
            loop.append(np.asarray(nxt))
            cur = nxt
        if len(loop) >= 3:
            loops.append(np.asarray(loop))
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
    band: float

    @property
    def passed(self) -> bool:
        return all(e.violations_inside == 0 and e.violations_outside == 0 for e in self.entries)

    @property
    def total_violations(self) -> int:
        return sum(e.violations_inside + e.violations_outside for e in self.entries)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}: {self.total_violations} violations over {len(self.entries)} circles"


def check_inv(y: DeformationField, centers=None, radii=None, delta=0.02, samples=400,
              m=192, seed=0) -> InvReport:
    """Sampled check of the invertibility condition on circles.

    For each circle B(a, r): material sampled inside B must land in the
    image region of B (nonzero winding of the image loop), and material
    sampled outside B must not.  Query images within a band of width
    2 * delta around the image loop are not counted either way.  The
    windings of all images of one circle come from one `winding_points`
    call, which meets each loop edge only with the images in its y-span.

    The samples and circle points live on the reference mesh, so they are
    drawn and located once per (centers, radii, samples, m, seed) and kept
    in `y.mesh.inv_plans`; later calls only interpolate the new positions.
    The mesh must not be mutated once a plan exists (the same assumption
    `Mesh.locator` makes).  The seed is an integer.
    """
    band = 2.0 * delta
    entries = []
    for c in _inv_plan(y.mesh, centers, radii, samples, m, seed):
        loop = y.interpolate(*c.trace)
        img_in = y.interpolate(*c.inside)
        img_out = y.interpolate(*c.outside)
        n_in = len(img_in)
        w = winding_points(loop, np.vstack([img_in, img_out])) != 0
        # only images on the wrong side can violate; the band decides which do
        far_in = points_to_polyline_distance(img_in[~w[:n_in]], loop) > band
        far_out = points_to_polyline_distance(img_out[w[n_in:]], loop) > band
        entries.append(InvEntry(c.center.copy(), c.radius, n_in, len(img_out),
                                int(far_in.sum()), int(far_out.sum())))
    return InvReport(entries=entries, band=band)


@dataclass
class _InvCircle:
    """One circle of an INV plan; each location is a (tri, bary) pair."""

    center: np.ndarray
    radius: float
    trace: tuple
    inside: tuple
    outside: tuple


def _inv_plan(mesh, centers, radii, samples, m, seed):
    key = (None if centers is None
           else tuple(tuple(np.asarray(a, dtype=float).tolist()) for a in centers),
           None if radii is None else tuple(tuple(float(r) for r in rs) for rs in radii),
           samples, m, int(seed))
    plan = mesh.inv_plans.get(key)
    if plan is None:
        plan = mesh.inv_plans[key] = _build_inv_plan(mesh, centers, radii, samples, m, seed)
    return plan


def _build_inv_plan(mesh, centers, radii, samples, m, seed):
    if centers is None:
        centers = [c for c, _ in mesh.punctures]
        if not centers:
            a = mesh.vertices.mean(axis=0)
            if mesh.locator.locate(a[None])[0][0] < 0:  # the mean lies in a hole
                clear = np.min([points_to_polyline_distance(mesh.vertices, mesh.vertices[ids])
                                for ids in mesh.boundary_loops().values()], axis=0)
                a = mesh.vertices[np.argmax(clear)]
            centers = [a]
    rng = np.random.default_rng(seed)
    tri_cum = np.cumsum(mesh.areas / mesh.areas.sum())
    plan = []
    for ci, a in enumerate(centers):
        a = np.asarray(a, dtype=float)
        rs = radii[ci] if radii is not None else _default_radii(mesh, a)
        for r in rs:
            trace = locate_circle(mesh, a, r, m)
            inside = _sample_disk_in_mesh(mesh, a, r, samples, rng)
            outside = _sample_mesh_outside_disk(mesh, a, r, samples, rng, tri_cum)
            plan.append(_InvCircle(a, float(r), trace, inside, outside))
    return plan


def _default_radii(mesh, a):
    """Eight geometric radii about a, up to 0.8 of its distance to the outer
    boundary loops and to every puncture but its own: the nearest of those
    within 4 of their radii of a, if any."""
    dists = [points_to_polyline_distance(a[None], mesh.vertices[ids])[0]
             for tag, ids in mesh.boundary_loops().items() if not tag.startswith("puncture_")]
    gaps = [(np.linalg.norm(c - a), r) for c, r in mesh.punctures]
    near = [k for k, (d, r) in enumerate(gaps) if d <= 4.0 * r]
    own = min(near, key=lambda k: gaps[k][0]) if near else None
    rho = 0.0 if own is None else gaps[own][1]
    dists += [d - r for k, (d, r) in enumerate(gaps) if k != own]
    r_lo, r_hi = _radius_range(rho, min(dists))
    if r_lo >= r_hi:
        raise GeometryError("no room for invertibility circles around the site")
    return np.geomspace(r_lo, r_hi, 8)


def _radius_range(rho, clearance):
    """(r_lo, r_hi) of the default INV radii about a site whose own puncture
    has radius rho (0 for none) and whose nearest outer boundary loop or
    other puncture disk is `clearance` away; the circles fit if r_lo < r_hi."""
    r_hi = 0.8 * clearance
    r_lo = max(1.2 * rho, 0.05 * r_hi) if rho > 0 else 0.1 * r_hi
    return r_lo, r_hi


def _sample_disk_in_mesh(mesh, a, r, n, rng):
    """(tri, bary) of up to n uniform samples of B(a, r) that hit the mesh."""
    tris, barys = [], []
    got = 0
    budget = 20 * n
    while got < n and budget > 0:
        k = min(4 * n, budget)
        budget -= k
        u = rng.random(k)
        th = rng.random(k) * 2.0 * np.pi
        cand = a + (r * np.sqrt(u))[:, None] * np.stack([np.cos(th), np.sin(th)], axis=-1)
        # located n at a time, in draw order; the RNG stream ignores the hits
        for lo in range(0, k, n):
            if got == n:
                break
            tri, bary = mesh.locator.locate(cand[lo:lo + n])
            hit = np.nonzero(tri >= 0)[0][: n - got]
            tris.append(tri[hit])
            barys.append(bary[hit])
            got += len(hit)
    if not tris:
        return np.empty(0, dtype=np.int64), np.empty((0, 3))
    return np.concatenate(tris), np.concatenate(barys)


def _sample_mesh_outside_disk(mesh, a, r, n, rng, tri_cum):
    """(tri, bary) of up to n area-uniform mesh samples outside B(a, r)."""
    tris, barys = [], []
    got = 0
    budget = 20 * n
    while got < n and budget > 0:
        k = min(4 * n, budget)
        budget -= k
        t = np.searchsorted(tri_cum, rng.random(k))
        b1 = rng.random(k)
        b2 = rng.random(k)
        flip = b1 + b2 > 1.0
        b1[flip] = 1.0 - b1[flip]
        b2[flip] = 1.0 - b2[flip]
        v = mesh.vertices[mesh.triangles[t]]
        cand = v[:, 0] + b1[:, None] * (v[:, 1] - v[:, 0]) + b2[:, None] * (v[:, 2] - v[:, 0])
        keep = np.nonzero(np.linalg.norm(cand - a, axis=1) > r)[0][: n - got]
        tris.append(t[keep])
        barys.append(np.stack([1.0 - b1[keep] - b2[keep], b1[keep], b2[keep]], axis=1))
        got += len(keep)
    if not tris:
        return np.empty(0, dtype=np.int64), np.empty((0, 3))
    return np.concatenate(tris), np.concatenate(barys)
