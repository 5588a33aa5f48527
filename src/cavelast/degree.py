"""Topological degree machinery: winding numbers, image rasters, cavities.

For planar maps the topological degree of a deformation restricted to a
subdomain U, evaluated at a target point xi, is the winding number of the
image of the boundary loop of U around xi.  The set where the degree is
nonzero approximates the region swept by the deformation, including any
cavity opened inside U; intersecting those regions over shrinking circles
around a candidate site isolates the cavity attached to that site.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from ._polyline import ensure_ccw, points_to_polyline_distance, polygon_signed_area
from .exceptions import DomainError, GeometryError
from .geometry import (_CHUNK, DeformationField, locate_circle, locate_reference_points,
                       trace_on_circle)


def winding_number(loop, points, on_boundary_tol=1e-12):
    """Winding number of a closed polyline around each query point.

    Signed ray-crossing count (horizontal ray to +x).  Points within
    `on_boundary_tol` of the polyline are rejected: the winding number is
    undefined there.

    Returns an int array shaped like the leading axis of `points`, or a
    plain int for a single point.
    """
    loop = np.asarray(loop, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    single = np.asarray(points).ndim == 1
    if len(loop) < 3:
        raise DomainError("winding number needs a closed loop of at least 3 points")
    near = points_to_polyline_distance(pts, loop)
    if np.any(near <= on_boundary_tol):
        k = int(np.argmin(near))
        raise DomainError(
            f"query point ({pts[k, 0]:.6g}, {pts[k, 1]:.6g}) lies on the loop "
            f"(distance {near[k]:.3g}); winding number undefined"
        )
    out = _winding_no_boundary_guard(loop, pts)
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
# rasters


@dataclass
class DegreeRaster:
    """Integer degree values sampled on a uniform grid of cell centers.

    values[iy, ix] belongs to the point origin + (ix * delta, iy * delta).
    `loops` keeps the generating image loops (with orientation signs) so
    downstream code can measure distances to the boundary.
    """

    origin: np.ndarray
    delta: float
    values: np.ndarray
    loops: list = field(default_factory=list)

    def cell_centers(self):
        ny, nx = self.values.shape
        xs = self.origin[0] + self.delta * np.arange(nx)
        ys = self.origin[1] + self.delta * np.arange(ny)
        gx, gy = np.meshgrid(xs, ys)
        return np.stack([gx, gy], axis=-1)

    def area(self) -> float:
        """Measure of the nonzero-degree set, counted with multiplicity one."""
        return float(np.count_nonzero(self.values)) * self.delta ** 2

    def area_with_multiplicity(self) -> float:
        return float(np.abs(self.values).sum()) * self.delta ** 2

    def member(self, points):
        """Nonzero-degree membership of query points (False outside the grid)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        idx = np.rint((pts - self.origin) / self.delta).astype(int)
        ny, nx = self.values.shape
        ok = (idx[:, 0] >= 0) & (idx[:, 0] < nx) & (idx[:, 1] >= 0) & (idx[:, 1] < ny)
        out = np.zeros(len(pts), dtype=bool)
        out[ok] = self.values[idx[ok, 1], idx[ok, 0]] != 0
        return out

    def save_pgm(self, path, offset=8, maxval=16):
        """Greymap export: degree + offset clipped to [0, maxval]."""
        vals = np.clip(self.values + offset, 0, maxval)
        lines = [
            "P2",
            f"# cavelast-degree delta={self.delta:.17g} "
            f"origin={self.origin[0]:.17g} {self.origin[1]:.17g} offset={offset}",
            f"{self.values.shape[1]} {self.values.shape[0]}",
            str(maxval),
        ]
        lines += [" ".join(str(v) for v in row) for row in vals]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def load_pgm(path) -> DegreeRaster:
    with open(path) as fh:
        raw = [ln.strip() for ln in fh if ln.strip()]
    if raw[0] != "P2":
        raise GeometryError(f"not a P2 greymap: {path}")
    toks = raw[1].lstrip("# ").split()
    delta = float(next(t.split("=")[1] for t in toks if t.startswith("delta=")))
    oidx = next(i for i, t in enumerate(toks) if t.startswith("origin="))
    origin = np.array([float(toks[oidx].split("=")[1]), float(toks[oidx + 1])])
    offset = int(next(t.split("=")[1] for t in toks if t.startswith("offset=")))
    nx, ny = (int(t) for t in raw[2].split())
    vals = np.array([[int(v) for v in row.split()] for row in raw[4:4 + ny]], dtype=np.int64)
    return DegreeRaster(origin=origin, delta=delta, values=vals - offset)


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


def topological_image(y: DeformationField, subdomain, delta, m=256, margin=4) -> DegreeRaster:
    """Raster of the degree of y|U at the cell centers of a uniform grid.

    U is either a circle inside the meshed domain or the whole domain; holes
    (punctures) enter with negative orientation, so the raster counts the
    region actually covered, cavities included.
    """
    loops = _subdomain_loops(y, subdomain, m)
    pts = np.vstack([lp for lp, _ in loops])
    lo = pts.min(axis=0) - margin * delta
    hi = pts.max(axis=0) + margin * delta
    nx = int(np.ceil((hi[0] - lo[0]) / delta)) + 1
    ny = int(np.ceil((hi[1] - lo[1]) / delta)) + 1
    xs = lo[0] + delta * np.arange(nx)
    ys = lo[1] + delta * np.arange(ny)
    gx, gy = np.meshgrid(xs, ys)
    centers = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    values = np.zeros(len(centers), dtype=np.int64)
    for lp, sign in loops:
        values += sign * _winding_no_boundary_guard(lp, centers)
    return DegreeRaster(origin=lo, delta=delta, values=values.reshape(ny, nx), loops=loops)


def _winding_no_boundary_guard(loop, pts):
    """Ray-crossing winding without the on-boundary rejection (raster duty:
    cells sitting exactly on the loop get whatever side the ray test says)."""
    a = loop
    b = np.roll(loop, -1, axis=0)
    out = np.empty(len(pts), dtype=np.int64)
    for lo in range(0, len(pts), _CHUNK):
        p = pts[lo:lo + _CHUNK]
        px, py = p[:, 0][:, None], p[:, 1][:, None]
        ay, by = a[:, 1][None, :], b[:, 1][None, :]
        # is_left > 0 when the point sits left of the directed edge
        is_left = (b[:, 0] - a[:, 0])[None, :] * (py - ay) - (px - a[:, 0][None, :]) * (by - ay)
        up = (ay <= py) & (by > py) & (is_left > 0.0)
        down = (ay > py) & (by <= py) & (is_left < 0.0)
        out[lo:lo + _CHUNK] = up.sum(axis=1) - down.sum(axis=1)
    return out


@dataclass
class CavityRecord:
    """One detected cavity: where it sits, how big it is, what it costs."""

    site: np.ndarray
    puncture_radius: float
    boundary: np.ndarray
    area: float
    aniso_perimeter: float = float("nan")
    simple: bool = True
    slow_path_hausdorff: float = float("nan")

    def radius_mean(self) -> float:
        c = self.boundary.mean(axis=0)
        return float(np.linalg.norm(self.boundary - c, axis=1).mean())

    def to_csv_rows(self, index):
        rows = []
        for p in self.boundary:
            rows.append(f"{index},{p[0]:.12g},{p[1]:.12g}")
        return rows


def topological_image_point(y: DeformationField, site, radii, delta, m=256,
                            area_threshold=None) -> CavityRecord | None:
    """Cavity attached to a site: intersection of rasterized closures of the
    degree supports over a decreasing family of circles around the site.

    Returns None when the intersection is below the area threshold
    (default 4 delta^2), i.e. no cavity opens at the site.
    """
    radii = sorted(radii, reverse=True)
    if not radii:
        raise ValueError("need at least one radius")
    site = np.asarray(site, dtype=float)
    base = topological_image(y, ("circle", site, radii[0]), delta, m=m)
    ny, nx = base.values.shape
    centers = base.cell_centers().reshape(-1, 2)
    inter = _closure(base.values != 0)
    for r in radii[1:]:
        loop = trace_on_circle(y, site, r, m)
        member = _winding_no_boundary_guard(loop, centers).reshape(ny, nx) != 0
        inter &= _closure(member)
    if area_threshold is None:
        area_threshold = 4.0 * delta ** 2
    area = float(inter.sum()) * delta ** 2
    if area <= area_threshold:
        return None
    loops = marching_squares(inter, base.origin, base.delta)
    if not loops:
        return None
    boundary = max(loops, key=lambda lp: abs(polygon_signed_area(lp)))
    rho = float("nan")
    for c, r in y.mesh.punctures:
        if np.linalg.norm(c - site) <= r * 4.0:
            rho = r
            break
    return CavityRecord(site=site, puncture_radius=rho, boundary=ensure_ccw(boundary), area=area)


def _closure(mask):
    return ndimage.binary_dilation(mask, structure=np.ones((3, 3), dtype=bool))


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
    padded = np.pad(np.asarray(mask, dtype=bool), 1)
    ny, nx = padded.shape
    segs = []
    base = np.asarray(origin, dtype=float) - delta  # padding shift
    for iy in range(ny - 1):
        row0 = padded[iy]
        row1 = padded[iy + 1]
        if not (row0.any() or row1.any()):
            continue
        for ix in range(nx - 1):
            case = (int(row0[ix])          # bottom-left  -> bit 0
                    | int(row0[ix + 1]) << 1   # bottom-right -> bit 1
                    | int(row1[ix + 1]) << 2   # top-right    -> bit 2
                    | int(row1[ix]) << 3)      # top-left     -> bit 3
            if case in (0, 15):
                continue
            x = base[0] + ix * delta
            y_ = base[1] + iy * delta
            mid = {
                "b": (x + 0.5 * delta, y_),
                "r": (x + delta, y_ + 0.5 * delta),
                "t": (x + 0.5 * delta, y_ + delta),
                "l": (x, y_ + 0.5 * delta),
            }
            for a, b in _MS_SEGMENTS[case]:
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
    2 * delta around the image loop are not counted either way.

    The samples and circle points live on the reference mesh, so they are
    drawn and located once per (centers, radii, samples, m, seed) and kept
    in `y.mesh.inv_plans`; later calls only interpolate the new positions.
    The mesh must not be mutated once a plan exists (the same assumption
    `Mesh.locator` makes).  A seed that is not an integer (None or a
    Generator) draws a fresh plan on every call.
    """
    band = 2.0 * delta
    entries = []
    for c in _inv_plan(y.mesh, centers, radii, samples, m, seed):
        loop = y.interpolate(*c.trace)
        img_in = y.interpolate(*c.inside)
        img_out = y.interpolate(*c.outside)
        n_in = len(img_in)
        w = _winding_no_boundary_guard(loop, np.vstack([img_in, img_out])) != 0
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
    if not isinstance(seed, (int, np.integer)):
        return _build_inv_plan(mesh, centers, radii, samples, m, seed)
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
            centers = [mesh.vertices.mean(axis=0)]
    rng = np.random.default_rng(seed)
    tri_cum = np.cumsum(mesh.areas / mesh.areas.sum())
    plan = []
    for ci, a in enumerate(centers):
        a = np.asarray(a, dtype=float)
        rs = radii[ci] if radii is not None else _default_radii(mesh, a)
        for r in rs:
            trace = locate_circle(mesh, a, r, m)
            inside = _sample_disk_in_mesh(mesh, a, r, samples, rng)
            x_out = _sample_mesh_outside_disk(mesh, a, r, samples, rng, tri_cum)
            outside = locate_reference_points(mesh, x_out)
            plan.append(_InvCircle(a, float(r), trace, inside, outside))
    return plan


def _default_radii(mesh, a, count=8):
    rho = 0.0
    for c, r in mesh.punctures:
        if np.linalg.norm(c - a) <= 4.0 * r:
            rho = r
            break
    outer = mesh.boundary_loops()
    dists = []
    for tag, ids in outer.items():
        if not tag.startswith("puncture_"):
            dists.append(points_to_polyline_distance(a[None], mesh.vertices[ids])[0])
    for c, r in mesh.punctures:
        d = np.linalg.norm(c - a)
        if d > 4.0 * r:
            dists.append(d - r)
    r_hi = 0.8 * min(dists)
    r_lo = max(1.2 * rho, 0.05 * r_hi) if rho > 0 else 0.1 * r_hi
    if r_lo >= r_hi:
        raise GeometryError("no room for invertibility circles around the site")
    return np.geomspace(r_lo, r_hi, count)


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
        tri, bary = mesh.locator.locate(cand)
        hit = np.nonzero(tri >= 0)[0][: n - got]
        tris.append(tri[hit])
        barys.append(bary[hit])
        got += len(hit)
    if not tris:
        return np.empty(0, dtype=np.int64), np.empty((0, 3))
    return np.concatenate(tris), np.concatenate(barys)


def _sample_mesh_outside_disk(mesh, a, r, n, rng, tri_cum):
    pts = []
    budget = 20 * n
    while len(pts) < n and budget > 0:
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
        keep = np.linalg.norm(cand - a, axis=1) > r
        pts.extend(cand[keep][: n - len(pts)])
    return np.asarray(pts) if pts else np.empty((0, 2))
