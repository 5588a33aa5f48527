import numpy as np
import pytest

import cavelast as cv
from cavelast import degree, inverse
from cavelast._polyline import _PAIRS, points_to_polyline_distance, polygon_signed_area
from cavelast.degree import (_MS_SEGMENTS, _default_radii,
                             winding_grid, winding_number_angle, winding_points)
from cavelast.exceptions import ArtifactError, DomainError, GeometryError
from cavelast.geometry import _CHUNK


def square_loop():
    return np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


class TestWinding:
    def test_square_inside_outside(self):
        loop = square_loop()
        assert cv.winding_number(loop, np.array([0.5, 0.5])) == 1
        assert cv.winding_number(loop, np.array([1.5, 0.5])) == 0
        assert cv.winding_number(loop, np.array([-0.2, 1.3])) == 0

    def test_clockwise_is_negative(self):
        loop = square_loop()[::-1]
        assert cv.winding_number(loop, np.array([0.5, 0.5])) == -1

    def test_double_wrap(self):
        th = np.linspace(0.0, 4.0 * np.pi, 256, endpoint=False)
        loop = np.stack([np.cos(th), np.sin(th)], axis=1)
        assert cv.winding_number(loop, np.array([0.0, 0.0])) == 2
        assert winding_number_angle(loop, np.array([0.0, 0.0])) == 2

    def test_point_on_loop_rejected(self):
        with pytest.raises(DomainError):
            cv.winding_number(square_loop(), np.array([0.5, 0.0]))

    def test_short_loop_rejected(self):
        with pytest.raises(DomainError):
            cv.winding_number(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.5]))

    def test_vector_queries(self):
        loop = square_loop()
        pts = np.array([[0.5, 0.5], [2.0, 2.0], [0.1, 0.9]])
        out = cv.winding_number(loop, pts)
        assert out.tolist() == [1, 0, 1]

    def test_routes_agree_on_random_polygons(self):
        # ray crossings and summed angles are independent derivations
        rng = np.random.default_rng(41)
        for _ in range(50):
            k = rng.integers(3, 40)
            th = np.sort(rng.uniform(0, 2 * np.pi, k))
            rad = rng.uniform(0.2, 1.5, k)
            loop = rng.uniform(-1, 1, 2) + rad[:, None] * np.stack(
                [np.cos(th), np.sin(th)], axis=1)
            pts = rng.uniform(-3, 3, (10, 2))
            pts = pts[points_to_polyline_distance(pts, loop) > 1e-6]
            if not len(pts):
                continue
            assert np.array_equal(cv.winding_number(loop, pts),
                                  winding_number_angle(loop, pts))

    def test_guard_distance_in_batches_matches_one_pass(self):
        # the on-loop guard measures distances a batch of points at a time;
        # every point keeps its own minimum, so no digit may move
        rng = np.random.default_rng(5)
        th = np.sort(rng.uniform(0, 2 * np.pi, 64))
        loop = rng.uniform(0.5, 1.0, 64)[:, None] * np.stack([np.cos(th), np.sin(th)], axis=1)
        pts = rng.uniform(-1.5, 1.5, (3 * _PAIRS // len(loop) + 17, 2))
        b = np.roll(loop, -1, axis=0)
        d = b - loop
        len2 = np.maximum((d ** 2).sum(axis=1), 1e-300)
        w = pts[:, None, :] - loop[None, :, :]
        t = np.clip((w * d[None]).sum(axis=2) / len2[None], 0.0, 1.0)
        closest = loop[None] + t[..., None] * d[None]
        want = np.linalg.norm(pts[:, None, :] - closest, axis=2).min(axis=1)
        assert np.array_equal(points_to_polyline_distance(pts, loop), want)
        assert np.array_equal(cv.winding_number(loop, pts), _reference_winding(loop, pts))


def _reference_winding(loop, pts):
    """All-pairs ray crossing: every point against every edge, in chunks."""
    a = np.asarray(loop, dtype=float)
    b = np.roll(a, -1, axis=0)
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


def _reference_grid(grid, loops):
    centers = grid.cell_centers().reshape(-1, 2)
    total = np.zeros(len(centers), dtype=np.int64)
    for loop, sign in loops:
        total += sign * _reference_winding(loop, centers)
    return total.reshape(grid.shape)


def _lattice_loop(rng, k, step=0.25):
    """k vertices on a lattice of pitch `step`: horizontal edges, shared
    heights and repeated vertices all occur."""
    loop = rng.integers(-6, 7, size=(k, 2)) * step
    dup = rng.integers(0, k, size=2)
    return np.insert(loop, dup, loop[dup], axis=0)  # zero-length edges


def _star(n, turns, radius=1.0, center=(0.0, 0.0)):
    """Star polygon {n/turns}: winds `turns` times around its center."""
    th = 2.0 * np.pi * turns * np.arange(n) / n
    return np.asarray(center) + radius * np.stack([np.cos(th), np.sin(th)], axis=1)


class TestScanlineKernel:
    """The grid entry, the point entry and the all-pairs reference agree
    exactly, also on and next to the loop, where the ray test decides."""

    def _check(self, loops, grid, pts):
        want = _reference_grid(grid, loops)
        assert np.array_equal(winding_grid(grid, loops), want)
        centers = grid.cell_centers().reshape(-1, 2)
        got = sum(sign * winding_points(lp, centers) for lp, sign in loops)
        assert np.array_equal(np.reshape(got, grid.shape), want)
        for lp, _ in loops:
            ref = _reference_winding(lp, pts)
            assert np.array_equal(winding_points(lp, pts), ref)
            away = points_to_polyline_distance(pts, lp) > 1e-6
            assert np.array_equal(winding_number_angle(lp, pts[away]), ref[away])

    def _on_loop_points(self, rng, loop):
        # vertices, edge midpoints and points at vertex heights
        mids = 0.5 * (loop + np.roll(loop, -1, axis=0))
        level = np.stack([rng.uniform(-2.0, 2.0, len(loop)), loop[:, 1]], axis=1)
        return np.vstack([loop, mids, level, rng.uniform(-2.0, 2.0, (200, 2))])

    def test_self_intersecting_loops(self):
        rng = np.random.default_rng(11)
        for n, turns in ((7, 2), (7, -2), (9, 4), (64, 2)):
            loop = _star(n, turns, radius=1.3, center=rng.uniform(-0.2, 0.2, 2))
            grid = cv.DegreeRaster(origin=np.array([-1.6, -1.55]), delta=0.037,
                                   values=np.zeros((86, 88), dtype=np.int64))
            self._check([(loop, +1)], grid, self._on_loop_points(rng, loop))
            assert set(np.unique(winding_grid(grid, [(loop, +1)]))) >= {0, 2 * np.sign(turns)}

    def test_lattice_loops_on_lattice_grids(self):
        # rows and columns pass through vertices and along the horizontal
        # edges; on the inexact pitch 0.1 crossings land within rounding of
        # cell centers, so the divided crossing x is off by a column either
        # way. Signed loops sum into one grid.
        rng = np.random.default_rng(12)
        for i in range(60):
            pitch = (0.25, 0.1, 0.1)[i % 3]
            loops = [(_lattice_loop(rng, int(rng.integers(3, 12)), pitch), sign)
                     for sign in (+1, -1)]
            ny, nx = rng.integers(1, 40, size=2)
            origin = rng.integers(-8, 0, size=2) * pitch
            grid = cv.DegreeRaster(origin=origin.astype(float), delta=pitch / (1 + i % 2),
                                   values=np.zeros((ny, nx), dtype=np.int64))
            pts = np.vstack([self._on_loop_points(rng, lp) for lp, _ in loops])
            self._check(loops, grid, pts)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 57), (57, 1)])
    def test_one_row_and_one_column_grids(self, shape):
        rng = np.random.default_rng(13)
        for _ in range(20):
            loop = _lattice_loop(rng, 9)
            origin = rng.integers(-6, 7, size=2) * 0.25
            grid = cv.DegreeRaster(origin=origin.astype(float), delta=0.0625,
                                   values=np.zeros(shape, dtype=np.int64))
            self._check([(loop, +1)], grid, self._on_loop_points(rng, loop))

    def test_random_loops_and_grids(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            loop = rng.uniform(-1.0, 1.0, size=(int(rng.integers(3, 40)), 2))
            grid = cv.DegreeRaster(origin=rng.uniform(-1.4, -0.9, 2), delta=rng.uniform(0.01, 0.2),
                                   values=np.zeros(tuple(rng.integers(1, 60, 2)), dtype=np.int64))
            self._check([(loop, +1)], grid, self._on_loop_points(rng, loop))

    def test_zero_query_points(self):
        out = winding_points(_star(7, 2), np.empty((0, 2)))
        assert out.dtype == np.int64 and out.shape == (0,)
        assert np.array_equal(out, _reference_winding(_star(7, 2), np.empty((0, 2))))

    def test_more_points_than_one_chunk(self):
        rng = np.random.default_rng(15)
        loop = _star(64, 2, radius=0.9)
        pts = rng.uniform(-1.0, 1.0, (2 * _CHUNK + 5, 2))
        pts[:100, 1] = loop[rng.integers(0, 64, 100), 1]  # vertex heights
        assert np.array_equal(winding_points(loop, pts), _reference_winding(loop, pts))


class TestKernelOnTheLift:
    """Every caller of the kernel gives what the all-pairs reference gives
    on the lambda = 1.5 lift at delta = 0.01."""

    @pytest.fixture(scope="class")
    def lift(self, radial_15):
        return cv.radial_lift(radial_15, cv.build_disk_mesh(1.0, 0.08,
                                                            punctures=[((0.0, 0.0), 0.2)]))

    @staticmethod
    def _outputs(y):
        raster = cv.topological_image(y, "omega", 0.01)
        cavity = cv.topological_image_point(y, (0.0, 0.0), [0.6, 0.45, 0.3], 0.01)
        inv = cv.build_inverse_field(y, 0.01)
        jumps = cv.extract_jump_set(inv)
        return raster, cavity, inv, jumps

    def test_matches_reference(self, lift, monkeypatch):
        raster, cavity, inv, jumps = self._outputs(lift)
        for mod in (degree, inverse):
            monkeypatch.setattr(mod, "winding_points", _reference_winding)
            monkeypatch.setattr(mod, "winding_grid", _reference_grid)
        raster_ref, cavity_ref, inv_ref, jumps_ref = self._outputs(lift)
        assert np.array_equal(raster.values, raster_ref.values)
        assert np.array_equal(raster.origin, raster_ref.origin)
        assert np.array_equal(cavity.boundary, cavity_ref.boundary)
        assert np.array_equal(inv.kind, inv_ref.kind)
        assert np.array_equal(inv.tri, inv_ref.tri)
        assert np.array_equal(inv.ref, inv_ref.ref, equal_nan=True)
        assert (inv.kind == inverse.CAVITY).any()
        assert len(jumps) == len(jumps_ref) > 0
        for a, b in zip(jumps, jumps_ref):
            assert np.array_equal(a.points, b.points)


def area_with_multiplicity(raster):
    return float(np.abs(raster.values).sum()) * raster.delta ** 2


def member(raster, points):
    """Nonzero-degree membership of query points (False outside the grid)."""
    iy, ix, ok = raster.cell_of(np.atleast_2d(np.asarray(points, dtype=float)))
    out = np.zeros(len(ok), dtype=bool)
    out[ok] = raster.values[iy[ok], ix[ok]] != 0
    return out


class TestImagePoint:
    def test_needs_a_radius(self, disk_mesh):
        with pytest.raises(ValueError, match="at least one radius"):
            cv.topological_image_point(cv.DeformationField(disk_mesh), (0.5, 0.0), [], 0.02)

    def test_no_cavity_at_a_site_off_the_punctures(self, disk_mesh):
        # r = 0.19 puts the site between cell centres, and the image of the
        # circle of radius 1e-4 about it holds none: the intersection is empty
        y = cv.DeformationField(disk_mesh)
        assert cv.topological_image_point(y, (0.5, 0.0), [0.19, 1e-4], 0.02) is None


class TestRaster:
    def test_unknown_subdomain_refused(self, disk_mesh):
        with pytest.raises(ValueError, match="subdomain must be"):
            cv.topological_image(cv.DeformationField(disk_mesh), "boundary", 0.02)

    def test_area_and_multiplicity(self):
        vals = np.zeros((10, 10), dtype=np.int64)
        vals[2:5, 3:7] = 1
        vals[6, 6] = 2
        r = cv.DegreeRaster(origin=np.zeros(2), delta=0.5, values=vals)
        assert r.area() == pytest.approx(13 * 0.25)
        assert area_with_multiplicity(r) == pytest.approx(14 * 0.25)

    def test_member(self):
        vals = np.zeros((4, 4), dtype=np.int64)
        vals[1, 2] = 1
        r = cv.DegreeRaster(origin=np.zeros(2), delta=1.0, values=vals)
        got = member(r, np.array([[2.0, 1.0], [0.0, 0.0], [50.0, 50.0]]))
        assert got.tolist() == [True, False, False]

    def test_identity_omega(self, disk_mesh):
        y = cv.DeformationField(disk_mesh)
        img = cv.topological_image(y, "omega", 0.02)
        assert img.area() == pytest.approx(disk_mesh.areas.sum(), rel=0.05)
        assert member(img, np.array([[0.5, 0.0]]))[0]
        assert not member(img, np.array([[0.0, 0.0]]))[0]  # puncture hole

    def test_identity_circle_subdomain(self, disk_mesh):
        y = cv.DeformationField(disk_mesh)
        img = cv.topological_image(y, ("circle", (0.55, 0.0), 0.3), 0.01)
        assert img.area() == pytest.approx(np.pi * 0.09, rel=0.05)
        assert area_with_multiplicity(img) == pytest.approx(img.area(), abs=1e-12)

    def test_closure_is_3x3_binary_dilation(self):
        from scipy import ndimage
        rng = np.random.default_rng(8)
        for shape, p in [((1, 1), 0.5), ((1, 9), 0.3), ((7, 1), 0.3), ((13, 17), 0.1),
                         ((40, 33), 0.02), ((5, 5), 0.0), ((6, 4), 1.0)]:
            mask = rng.random(shape) < p
            want = ndimage.binary_dilation(mask, structure=np.ones((3, 3), dtype=bool))
            assert np.array_equal(degree._closure(mask), want), shape

    def test_pgm_round_trip(self, disk_mesh, tmp_path):
        y = cv.DeformationField(disk_mesh)
        img = cv.topological_image(y, ("circle", (0.55, 0.0), 0.3), 0.02)
        p = tmp_path / "deg.pgm"
        img.save_pgm(p)
        back = cv.load_pgm(p)
        assert np.array_equal(img.values, back.values)
        assert back.delta == img.delta
        assert np.array_equal(back.origin, img.origin)

    @pytest.mark.parametrize("text", [
        "P5\n# cavelast-degree delta=0.1 origin=0 0 offset=8\n1 1\n16\n8\n",
        "P2\n# hand-made\n1 1\n16\n8\n",
    ], ids=["magic", "header"])
    def test_pgm_wrong_magic_rejected(self, tmp_path, text):
        p = tmp_path / "deg.pgm"
        p.write_text(text)
        with pytest.raises(ArtifactError, match="deg.pgm"):
            cv.load_pgm(p)

    @pytest.mark.parametrize("delta", [-0.05, 0.0, np.nan, np.inf])
    @pytest.mark.parametrize("build", [
        lambda y, d: cv.topological_image(y, "omega", d),
        lambda y, d: cv.topological_image_point(y, (0.0, 0.0), [0.5, 0.3], d),
        lambda y, d: cv.build_inverse_field(y, d),
    ], ids=["topological_image", "topological_image_point", "build_inverse_field"])
    def test_bad_delta_rejected(self, build, delta, disk_mesh):
        with pytest.raises(ValueError, match="delta must be a positive finite number"):
            build(cv.DeformationField(disk_mesh), delta)


class TestMarchingSquares:
    def test_disk_mask(self):
        delta = 0.01
        xs = np.arange(-0.5, 0.5, delta)
        gx, gy = np.meshgrid(xs, xs)
        mask = gx ** 2 + gy ** 2 < 0.3 ** 2
        loops = cv.marching_squares(mask, np.array([-0.5, -0.5]), delta)
        assert len(loops) == 1
        area = abs(polygon_signed_area(loops[0]))
        assert area == pytest.approx(np.pi * 0.09, rel=0.03)

    def test_two_components(self):
        mask = np.zeros((20, 20), dtype=bool)
        mask[2:6, 2:6] = True
        mask[10:16, 10:16] = True
        loops = cv.marching_squares(mask, np.zeros(2), 1.0)
        assert len(loops) == 2

    def test_loops_close(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[2:5, 3:6] = True
        (loop,) = cv.marching_squares(mask, np.zeros(2), 1.0)
        assert not np.array_equal(loop[0], loop[-1])  # stored open
        assert len(loop) >= 4

    def test_matches_reference_loop(self):
        # random masks of every size up to 14 x 14 and several fill levels;
        # saddles (cases 5 and 10) and border-touching regions must occur
        rng = np.random.default_rng(7)
        saddles = {5: 0, 10: 0}
        border = 0
        for _ in range(240):
            ny, nx = rng.integers(1, 15, size=2)
            mask = rng.random((ny, nx)) < rng.uniform(0.2, 0.8)
            origin = rng.uniform(-2.0, 2.0, size=2)
            delta = rng.uniform(0.01, 0.7)
            want = _reference_marching_squares(mask, origin, delta)
            got = cv.marching_squares(mask, origin, delta)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)
            saddles[5] += np.count_nonzero(mask[:-1, :-1] & ~mask[:-1, 1:]
                                           & mask[1:, 1:] & ~mask[1:, :-1])
            saddles[10] += np.count_nonzero(~mask[:-1, :-1] & mask[:-1, 1:]
                                            & ~mask[1:, 1:] & mask[1:, :-1])
            border += bool(mask[0].any() or mask[-1].any()
                           or mask[:, 0].any() or mask[:, -1].any())
        assert saddles[5] > 0 and saddles[10] > 0
        assert border > 200


def _reference_marching_squares(mask, origin, delta):
    """Scalar marching squares: one Python step per cell of the padded raster."""
    padded = np.pad(np.asarray(mask, dtype=bool), 1)
    ny, nx = padded.shape
    segs = []
    base = np.asarray(origin, dtype=float) - delta
    for iy in range(ny - 1):
        row0 = padded[iy]
        row1 = padded[iy + 1]
        for ix in range(nx - 1):
            case = (int(row0[ix])
                    | int(row0[ix + 1]) << 1
                    | int(row1[ix + 1]) << 2
                    | int(row1[ix]) << 3)
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
    """Chain segments into loops through a dict keyed by endpoints rounded
    to `snap`, in segment order, each loop following its first segment's
    second endpoint."""
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
# the exact segment-crossing kernel and its referees


def _reference_crossings(p, q, u, v):
    """All-pairs crossing count: the textbook straddle-or-on-segment test
    (Cormen et al., ch. 33) for pairs without a common id, the fold-back
    test for pairs with one."""
    def turn(a, b, c):
        d = (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
        return int(d > 0) - int(d < 0)

    def on(a, b, c):  # c, collinear with a and b, inside their box
        return (min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= c[1] <= max(a[1], b[1]))

    count = 0
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            common = {u[i], v[i]} & {u[j], v[j]}
            if common:
                k = common.pop()
                s, e = (p[i], q[i]) if u[i] == k else (q[i], p[i])
                f = q[j] if u[j] == k else p[j]
                count += turn(s, e, f) == 0 and float(np.dot(e - s, f - s)) > 0.0
                continue
            a, b, c, d = p[i], q[i], p[j], q[j]
            d1, d2, d3, d4 = turn(c, d, a), turn(c, d, b), turn(a, b, c), turn(a, b, d)
            count += ((d1 * d2 < 0 and d3 * d4 < 0)
                      or (d1 == 0 and on(c, d, a)) or (d2 == 0 and on(c, d, b))
                      or (d3 == 0 and on(a, b, c)) or (d4 == 0 and on(a, b, d)))
    return count


def _reference_polygon_is_simple(pts) -> bool:
    """The former (n, n) tolerance test: no two non-adjacent edges cross
    properly, with t, u in (1e-12, 1 - 1e-12); touching and collinear
    overlaps pass."""
    pts = np.asarray(pts, dtype=float)
    n = len(pts)
    if n < 3:
        return False
    a = pts
    b = np.roll(pts, -1, axis=0)
    d = b - a
    ax, ay = a[:, 0][:, None], a[:, 1][:, None]
    dx, dy = d[:, 0][:, None], d[:, 1][:, None]
    cx, cy = a[:, 0][None, :], a[:, 1][None, :]
    ex, ey = d[:, 0][None, :], d[:, 1][None, :]
    denom = dx * ey - dy * ex
    rx, ry = cx - ax, cy - ay
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (rx * ey - ry * ex) / denom
        u = (rx * dy - ry * dx) / denom
    tol = 1e-12
    crossing = (np.abs(denom) > tol) & (t > tol) & (t < 1 - tol) & (u > tol) & (u < 1 - tol)
    idx = np.arange(n)
    adjacent = (np.abs(idx[:, None] - idx[None, :]) <= 1) | \
        (np.abs(idx[:, None] - idx[None, :]) == n - 1)
    return not bool(np.any(crossing & ~adjacent))


def _limacon_annulus():
    """z -> z^2 + 0.2 z on the annulus 0.4 < |z| < 1: det = |2z + 0.2|^2 > 0,
    but each boundary circle maps to a limacon with an inner loop."""
    mesh = cv.build_annulus_mesh(1.0, 0.4, 0.1)
    z = mesh.vertices[:, 0] + 1j * mesh.vertices[:, 1]
    w = z * z + 0.2 * z
    return cv.DeformationField(mesh, np.column_stack([w.real, w.imag]))


class TestBoundaryCrossings:
    def test_sweep_matches_brute_force(self):
        # lattice soups hit every exact degeneracy: shared ends, fold-backs,
        # duplicate and zero-length segments, touching and collinear overlaps
        rng = np.random.default_rng(12)
        lattice = np.stack(np.meshgrid(np.arange(7.0), np.arange(7.0)), -1).reshape(-1, 2)
        soups = []
        for _ in range(60):
            pool = lattice[rng.choice(len(lattice), 25, replace=False)]
            soups.append((pool, rng.integers(0, 25, size=(int(rng.integers(2, 40)), 2))))
        for n in (50, 150):
            soups.append((rng.random((n, 2)), rng.integers(0, n, size=(n, 2))))
        kinds = set()
        for pool, (u, v) in ((pool, ids.T) for pool, ids in soups):
            want = _reference_crossings(pool[u], pool[v], u, v)
            assert degree.segment_crossings(pool[u], pool[v], u, v) == want
            kinds.add(want > 0)
        assert kinds == {False, True}

    def test_shared_vertex_counts_only_a_fold_back(self):
        p = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 1.0], [0.5, 0.0]])
        u, v = np.array([0, 1]), np.array([1, 2])  # straight on: no crossing
        assert degree.segment_crossings(p[u], p[v], u, v) == 0
        u, v = np.array([0, 1]), np.array([1, 3])  # a corner
        assert degree.segment_crossings(p[u], p[v], u, v) == 0
        u, v = np.array([0, 1]), np.array([1, 4])  # back along itself
        assert degree.segment_crossings(p[u], p[v], u, v) == 1
        # the same geometry without a shared id is a touching pair
        u, v = np.array([0, 5]), np.array([1, 4])
        q = np.vstack([p, [[1.0, 0.0]]])
        assert degree.segment_crossings(q[u], q[v], u, v) == 1

    def test_self_crossing_boundary_rejected_by_both_checks(self):
        y = _limacon_annulus()
        assert y.element_dets().min() > 0.0
        inner = y.positions[y.mesh.boundary_loops()["inner"]]
        assert not degree.polygon_is_simple(inner)
        assert degree.boundary_crossings(y.mesh, y.positions) > 0
        assert not cv.check_inv(y).passed

    @pytest.mark.parametrize("make", [
        lambda mesh: cv.BoundaryData(lam=1.3).initial_field(mesh),
        lambda mesh: cv.DeformationField(mesh),
    ], ids=["stretched", "identity"])
    def test_unfolded_state_passes_both_checks(self, make):
        y = make(_limacon_annulus().mesh)
        assert degree.boundary_crossings(y.mesh, y.positions) == 0
        assert cv.check_inv(y).passed

    def test_fold_is_caught(self, disk_mesh):
        y = _folded(disk_mesh)
        assert degree.boundary_crossings(disk_mesh, y.positions) > 0

    def test_every_loop_counts(self, disk_mesh):
        # push one puncture vertex across the outer circle
        pos = disk_mesh.vertices.copy()
        k = disk_mesh.puncture_loops()[0][0]
        pos[k] = 1.5 * pos[k] / np.linalg.norm(pos[k])
        assert degree.boundary_crossings(disk_mesh, pos) == 2  # each of its edges once


class TestPolygonIsSimple:
    @staticmethod
    def _random_polygons(rng):
        for k in rng.integers(3, 30, size=150):
            pts = rng.random((k, 2))
            yield pts  # mostly self-crossing
            c = pts.mean(axis=0)
            yield pts[np.argsort(np.arctan2(*(pts - c).T[::-1]))]  # star-shaped

    def test_matches_reference_on_existing_inputs(self):
        th = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        mask = np.random.default_rng(3).random((20, 20)) < 0.4
        polys = [square_loop(), np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]),
                 np.column_stack([np.cos(th), np.sin(th)]),
                 *cv.marching_squares(mask, np.zeros(2), 0.1)]
        for pts in polys:
            assert degree.polygon_is_simple(pts) == _reference_polygon_is_simple(pts)
        assert not degree.polygon_is_simple(polys[1])

    def test_matches_reference_on_random_polygons(self):
        verdicts = set()
        for pts in self._random_polygons(np.random.default_rng(5)):
            want = _reference_polygon_is_simple(pts)
            assert degree.polygon_is_simple(pts) == want
            verdicts.add(want)
        assert verdicts == {False, True}

    def test_matches_reference_with_collinear_and_zero_length_edges(self):
        rng = np.random.default_rng(9)
        verdicts = set()
        for pts in self._random_polygons(rng):
            mid = 0.5 * (pts + np.roll(pts, -1, axis=0))
            with_mid = np.stack([pts, mid], axis=1).reshape(-1, 2)  # straight-on vertices
            with_dup = np.repeat(pts, rng.integers(1, 3, size=len(pts)), axis=0)
            for poly in (with_mid, with_dup):
                want = _reference_polygon_is_simple(poly)
                assert degree.polygon_is_simple(poly) == want
                verdicts.add(want)
        assert verdicts == {False, True}
        # a lattice rectangle with vertices along its sides
        rect = np.array([[0, 0], [1, 0], [2, 0], [3, 0], [3, 1], [3, 2], [2, 2], [0, 2]], float)
        assert degree.polygon_is_simple(rect) and _reference_polygon_is_simple(rect)

    def test_fewer_than_three_distinct_points_is_not_simple(self):
        # repeated consecutive points merge first, leaving a segment
        assert not degree.polygon_is_simple([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])

    @pytest.mark.parametrize("pts", [
        [[0, 0], [2, 0], [2, 2], [1, 0.0], [0, 2]],       # a vertex on a far edge
        [[0, 0], [2, 0], [1, 0], [1, 1]],                 # folds back along an edge
        [[0, 0], [3, 0], [3, 1], [2, 0], [1, 0], [0, 1]],  # two edges overlap
    ], ids=["touching", "fold_back", "overlap"])
    def test_contact_is_not_simple(self, pts):
        # the former tolerance test passed these; the exact kernel does not
        pts = np.asarray(pts, dtype=float)
        assert _reference_polygon_is_simple(pts)
        assert not degree.polygon_is_simple(pts)


class TestCheckInv:
    def test_identity_passes(self, disk_mesh):
        y = cv.DeformationField(disk_mesh)
        rep = cv.check_inv(y, seed=3)
        assert rep.passed
        assert rep.total_violations == 0
        assert rep.summary().startswith("PASS")

    def test_radial_cavity_passes(self, disk_mesh, radial_15):
        y = cv.radial_lift(radial_15, disk_mesh)
        rep = cv.check_inv(y, seed=3)
        assert rep.passed

    def test_annulus_circles_stay_off_the_hole(self):
        # the vertex mean lies in the hole, so the circles centre on the
        # vertex farthest from both boundary loops
        mesh = cv.build_annulus_mesh(1.0, 0.4, 0.1)
        rep = cv.check_inv(cv.BoundaryData(lam=1.3).initial_field(mesh))
        assert rep.passed and len(rep.entries) == 8
        for e in rep.entries:
            d = np.linalg.norm(e.center)
            assert d - e.radius > 0.4 and d + e.radius < 1.0

    @pytest.mark.parametrize("x", [0.13, 0.16, 0.2])
    def test_circles_stay_off_a_near_puncture(self, x):
        mesh = cv.build_disk_mesh(1.0, 0.1, punctures=[((-x, 0.0), 0.1), ((x, 0.0), 0.1)])
        rep = cv.check_inv(cv.DeformationField(mesh))
        assert rep.passed and len(rep.entries) == 16
        for e in rep.entries:
            other = np.array([-np.sign(e.center[0]) * x, 0.0])
            assert np.linalg.norm(e.center - other) - 0.1 > e.radius

    def test_no_room_between_nearly_touching_punctures(self):
        # the other puncture lies within 1.5 rho: the circles fill the middle
        # of the room (rho, gap) instead of raising "no room"
        mesh = cv.build_disk_mesh(1.0, 0.1, punctures=[((-0.11, 0.0), 0.1), ((0.11, 0.0), 0.1)])
        rep = cv.check_inv(cv.DeformationField(mesh))
        assert rep.summary().startswith("PASS") and len(rep.entries) == 16
        for e in rep.entries:
            assert 0.1 < e.radius < 0.12  # gap: 0.22 - 0.1 to the other puncture

    def test_site_with_no_room_raises(self):
        # a sits 0.2 outward from the centre of the puncture near the rim, so
        # the smallest circle about it that holds the hole (radius 0.436)
        # already crosses the outer circle, 0.126 away
        mesh = cv.build_disk_mesh(1.0, 0.15, punctures=[((-0.39, 0.55), 0.236)])
        c = np.array([-0.39, 0.55])
        a = c + 0.2 * c / np.linalg.norm(c)
        with pytest.raises(GeometryError, match="no room for invertibility circles"):
            cv.check_inv(cv.DeformationField(mesh), centers=[a])

    def test_puncture_near_the_rim_gets_a_verdict(self):
        # the outer circle lies within 1.5 rho of the puncture; the identity
        # passes and a fold of the disk onto its upper half fails
        mesh = cv.build_disk_mesh(1.0, 0.15, punctures=[((-0.39, 0.55), 0.236)])
        rim = points_to_polyline_distance(np.array([[-0.39, 0.55]]),
                                          mesh.vertices[mesh.boundary_loops()["dirichlet"]])[0]
        assert rim <= 1.5 * 0.236
        rep = cv.check_inv(cv.DeformationField(mesh))
        assert rep.passed and len(rep.entries) == 8
        assert all(0.236 < e.radius < rim for e in rep.entries)
        folded = cv.check_inv(_folded(mesh))
        assert not folded.passed
        assert folded.total_violations == 202

    def test_centre_beside_a_puncture_gets_a_verdict(self):
        # (0.3, 0) lies outside the puncture at the origin, so that puncture
        # is not its own: its rim, 0.1 away, bounds the radii like any other
        # loop, and every circle stays in the mesh (the radii once started at
        # 1.2 rho = 0.24 and the first circle left the meshed domain)
        mesh = cv.build_disk_mesh(1.0, 0.15, punctures=[((0.0, 0.0), 0.2)])
        rep = cv.check_inv(cv.DeformationField(mesh), centers=[(0.3, 0.0)])
        assert rep.passed and len(rep.entries) == 8
        assert all(0.0 < e.radius <= 0.08 + 1e-12 for e in rep.entries)

    @pytest.mark.parametrize("x", [0.05, 0.15])
    def test_centre_inside_a_puncture_off_its_centre_gets_a_verdict(self, x):
        # (x, 0) lies in the puncture of radius 0.2 at the origin, and the
        # smallest circle about it that holds the hole has radius 0.2 + x;
        # the radii once started at 1.2 * 0.2 = 0.24, and the first circle
        # cut into the hole and left the meshed domain
        mesh = cv.build_disk_mesh(1.0, 0.15, punctures=[((0.0, 0.0), 0.2)])
        rep = cv.check_inv(cv.DeformationField(mesh), centers=[(x, 0.0)])
        assert rep.passed and len(rep.entries) == 8
        assert rep.entries[0].radius == pytest.approx(1.2 * (0.2 + x), rel=1e-12)

    @pytest.mark.parametrize("mesh", [
        ("disk", dict(radius=1.0, h=0.15, punctures=[((0.0, 0.0), 0.2)])),
        ("disk", dict(radius=1.0, h=0.1, punctures=[((-0.11, 0.0), 0.1), ((0.11, 0.0), 0.1)])),
        ("disk", dict(radius=1.0, h=0.15, punctures=[((-0.39, 0.55), 0.236)])),
        ("annulus", dict(outer=1.0, inner=0.4, h=0.1,
                         punctures=[((0.7, 0.0), 0.05), ((-0.7, 0.0), 0.05)])),
        ("square", dict(side=2.0, h=0.25, punctures=[((0.6, 0.6), 0.15), ((1.4, 1.3), 0.2)])),
        ("disk", dict(radius=1.0, h=0.15)),
        ("annulus", dict(outer=1.0, inner=0.4, h=0.1)),
    ], ids=["disk", "two_close", "near_rim", "annulus_two", "square_two", "plain_disk",
            "plain_annulus"])
    def test_default_centres_keep_their_radii(self, mesh):
        # at a puncture centre the smallest circle holding the hole is the
        # rim itself, so the default circles start at 1.2 rho as they did
        # before off-centre sites were measured from the hole's far side
        shape, kw = mesh
        mesh = getattr(cv, f"build_{shape}_mesh")(**kw)
        y = cv.DeformationField(mesh)
        centers = degree._default_centers(mesh)
        radii = [_radii_from_own_rho(mesh, np.asarray(a, dtype=float)) for a in centers]
        assert _entries(cv.check_inv(y)) == _entries(cv.check_inv(y, centers=centers, radii=radii))

    def test_fold_is_caught(self, disk_mesh):
        # fold the disk onto its upper half; lower-half material lands inside
        # the image of circles that live entirely in the upper half
        pos = disk_mesh.vertices.copy()
        pos[:, 1] = np.abs(pos[:, 1])
        y = cv.DeformationField(disk_mesh, pos)
        rep = cv.check_inv(y, centers=[(0.0, 0.5)], radii=[[0.25]], seed=1)
        assert not rep.passed
        viol = rep.entries[0]
        assert viol.violations_outside > 0
        assert rep.summary().startswith("FAIL")


# ---------------------------------------------------------------------------
# reference check_inv: fresh sampling, evaluation and distances on every call


def _reference_check_inv(y, centers=None, radii=None, seed=0):
    mesh = y.mesh
    if centers is None:
        centers = [c for c, _ in mesh.punctures] or [mesh.vertices.mean(axis=0)]
    rng = np.random.default_rng(seed)
    band = 0.04
    tri_cum = np.cumsum(mesh.areas / mesh.areas.sum())
    entries = []
    for ci, a in enumerate(centers):
        a = np.asarray(a, dtype=float)
        rs = radii[ci] if radii is not None else _default_radii(mesh, a)
        for r in rs:
            loop = cv.trace_on_circle(y, a, r, 192)
            x_in = _reference_disk_samples(mesh, a, r, 400, rng)
            x_out = _reference_outside_samples(mesh, a, r, 400, rng, tri_cum)
            vi = vo = 0
            if len(x_in):
                img = y.evaluate(x_in)
                w = _reference_winding(loop, img) != 0
                vi = int(np.count_nonzero(~w & (points_to_polyline_distance(img, loop) > band)))
            if len(x_out):
                img = y.evaluate(x_out)
                w = _reference_winding(loop, img) != 0
                vo = int(np.count_nonzero(w & (points_to_polyline_distance(img, loop) > band)))
            entries.append((tuple(a), float(r), len(x_in), len(x_out), vi, vo))
    return entries


def _reference_disk_samples(mesh, a, r, n, rng):
    pts = []
    budget = 20 * n
    while len(pts) < n and budget > 0:
        k = min(4 * n, budget)
        budget -= k
        u = rng.random(k)
        th = rng.random(k) * 2.0 * np.pi
        cand = a + (r * np.sqrt(u))[:, None] * np.stack([np.cos(th), np.sin(th)], axis=-1)
        tri, _ = mesh.locator.locate(cand)
        pts.extend(cand[tri >= 0][: n - len(pts)])
    return np.asarray(pts) if pts else np.empty((0, 2))


def _reference_outside_samples(mesh, a, r, n, rng, tri_cum):
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


def _radii_from_own_rho(mesh, a):
    """`_default_radii` as it was before off-centre sites: the radii start
    at 1.2 rho of the puncture that holds a, whatever |a - c|."""
    dists = [points_to_polyline_distance(a[None], mesh.vertices[ids])[0]
             for tag, ids in mesh.boundary_loops().items() if not tag.startswith("puncture_")]
    gaps = [(np.linalg.norm(c - a), r) for c, r in mesh.punctures]
    holding = [k for k, (d, r) in enumerate(gaps) if d < r]
    own = min(holding, key=lambda k: gaps[k][0]) if holding else None
    rho = 0.0 if own is None else gaps[own][1]
    dists += [d - r for k, (d, r) in enumerate(gaps) if k != own]
    d = min(dists)
    r_hi = 0.8 * d
    r_lo = max(1.2 * rho, 0.05 * r_hi) if rho > 0 else 0.1 * r_hi
    if r_lo >= r_hi:
        r_lo, r_hi = rho + 0.25 * (d - rho), rho + 0.75 * (d - rho)
    return np.geomspace(r_lo, r_hi, 8)


def _entries(rep):
    return [(tuple(e.center), e.radius, e.n_inside, e.n_outside,
             e.violations_inside, e.violations_outside) for e in rep.entries]


def _folded(mesh):
    pos = mesh.vertices.copy()
    pos[:, 1] = np.abs(pos[:, 1])
    return cv.DeformationField(mesh, pos)


class TestCheckInvReference:
    """The circles and samples check_inv draws on every call, and its
    verdicts, are those of the per-call reference exactly."""

    @pytest.mark.parametrize("kind, kw", [
        ("identity", dict(seed=3)),
        ("radial_lift", dict(seed=3)),
        ("folded", dict(seed=3)),
        ("folded", dict(centers=[(0.0, 0.5)], radii=[[0.25]], seed=1)),
        ("folded", dict(seed=5)),
        ("folded", dict(centers=[(0.0, 0.5), (0.0, -0.5)], radii=[[0.25], [0.2, 0.3]], seed=1)),
    ], ids=["identity", "radial_lift", "folded", "folded_circle", "folded_seed5",
            "folded_two_centres"])
    def test_matches_reference(self, kind, kw, disk_mesh, radial_15):
        if kind == "identity":
            y = cv.DeformationField(disk_mesh)
        elif kind == "radial_lift":
            y = cv.radial_lift(radial_15, disk_mesh)
        else:
            y = _folded(disk_mesh)
        want = _reference_check_inv(y, **kw)
        assert _entries(cv.check_inv(y, **kw)) == want
        assert _entries(cv.check_inv(y, **kw)) == want  # a second call draws the same
        if kind == "folded":
            assert sum(e[4] + e[5] for e in want) > 0

    @pytest.mark.parametrize("a, r", [((0.0, 0.0), 0.6), ((0.0, 0.0), 0.21),
                                      ((0.95, 0.0), 0.5), ((3.0, 0.0), 0.5)],
                             ids=["most_hit", "few_hit", "half_off", "all_off"])
    def test_lazy_disk_samples_match_reference(self, disk_mesh, a, r):
        # located a slice at a time, the samples and the RNG stream stay those
        # of locating every candidate of a round
        a = np.asarray(a)
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        tri, bary = degree._sample_disk_in_mesh(disk_mesh, a, r, 200, rng)
        want = _reference_disk_samples(disk_mesh, a, r, 200, ref_rng)
        want_tri, want_bary = disk_mesh.locator.locate(want)
        assert np.array_equal(tri, want_tri)
        assert np.array_equal(bary, want_bary)
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("a, r", [((0.0, 0.0), 0.6), ((0.5, 0.3), 0.3),
                                      ((0.0, 0.0), 0.95)],
                             ids=["centred", "off_centre", "nearly_all_inside"])
    def test_outside_samples_keep_their_draw(self, disk_mesh, a, r):
        # the drawn (triangle, barycentrics) interpolate to the points the
        # reference draws, and the RNG stream is the same
        a = np.asarray(a)
        rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
        tri_cum = np.cumsum(disk_mesh.areas / disk_mesh.areas.sum())
        tri, bary = degree._sample_mesh_outside_disk(disk_mesh, a, r, 200, rng, tri_cum)
        want = _reference_outside_samples(disk_mesh, a, r, 200, ref_rng, tri_cum)
        assert len(want) > 0 and tri.shape == (len(want),) and bary.shape == (len(want), 3)
        got = np.einsum("nk,nkd->nd", bary, disk_mesh.vertices[disk_mesh.triangles[tri]])
        assert np.abs(got - want).max() <= 1e-14
        assert rng.random() == ref_rng.random()

    def test_raises_like_reference(self, disk_mesh):
        y = cv.DeformationField(disk_mesh)
        kw = dict(centers=[(0.0, 0.0)], radii=[[0.1]])  # inside the puncture
        with pytest.raises(GeometryError) as want:
            _reference_check_inv(y, **kw)
        with pytest.raises(GeometryError) as got:
            cv.check_inv(y, **kw)
        assert str(got.value) == str(want.value)
