import numpy as np
import pytest

import cavelast as cv
from cavelast._polyline import polygon_signed_area
from cavelast._polyline import points_to_polyline_distance
from cavelast.degree import _default_radii, _winding_no_boundary_guard, winding_number_angle
from cavelast.exceptions import DomainError, GeometryError


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
            from cavelast._polyline import points_to_polyline_distance
            pts = pts[points_to_polyline_distance(pts, loop) > 1e-6]
            if not len(pts):
                continue
            assert np.array_equal(cv.winding_number(loop, pts),
                                  winding_number_angle(loop, pts))


class TestRaster:
    def test_area_and_multiplicity(self):
        vals = np.zeros((10, 10), dtype=np.int64)
        vals[2:5, 3:7] = 1
        vals[6, 6] = 2
        r = cv.DegreeRaster(origin=np.zeros(2), delta=0.5, values=vals)
        assert r.area() == pytest.approx(13 * 0.25)
        assert r.area_with_multiplicity() == pytest.approx(14 * 0.25)

    def test_member(self):
        vals = np.zeros((4, 4), dtype=np.int64)
        vals[1, 2] = 1
        r = cv.DegreeRaster(origin=np.zeros(2), delta=1.0, values=vals)
        got = r.member(np.array([[2.0, 1.0], [0.0, 0.0], [50.0, 50.0]]))
        assert got.tolist() == [True, False, False]

    def test_identity_omega(self, disk_mesh):
        y = cv.DeformationField(disk_mesh)
        img = cv.topological_image(y, "omega", 0.02)
        assert img.area() == pytest.approx(disk_mesh.areas.sum(), rel=0.05)
        assert img.member(np.array([[0.5, 0.0]]))[0]
        assert not img.member(np.array([[0.0, 0.0]]))[0]  # puncture hole

    def test_identity_circle_subdomain(self, disk_mesh):
        y = cv.DeformationField(disk_mesh)
        img = cv.topological_image(y, ("circle", (0.55, 0.0), 0.3), 0.01)
        assert img.area() == pytest.approx(np.pi * 0.09, rel=0.05)
        assert img.area_with_multiplicity() == pytest.approx(img.area(), abs=1e-12)

    def test_pgm_round_trip(self, disk_mesh, tmp_path):
        y = cv.DeformationField(disk_mesh)
        img = cv.topological_image(y, ("circle", (0.55, 0.0), 0.3), 0.02)
        p = tmp_path / "deg.pgm"
        img.save_pgm(p)
        back = cv.load_pgm(p)
        assert np.array_equal(img.values, back.values)
        assert back.delta == img.delta
        assert np.array_equal(back.origin, img.origin)


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


class TestCheckInv:
    def test_identity_passes(self, disk_mesh):
        y = cv.DeformationField(disk_mesh)
        rep = cv.check_inv(y, delta=0.02, samples=200, seed=3)
        assert rep.passed
        assert rep.total_violations == 0
        assert rep.summary().startswith("PASS")

    def test_radial_cavity_passes(self, disk_mesh, radial_15):
        y = cv.radial_lift(radial_15, disk_mesh)
        rep = cv.check_inv(y, delta=0.02, samples=200, seed=3)
        assert rep.passed

    def test_fold_is_caught(self, disk_mesh):
        # fold the disk onto its upper half; lower-half material lands inside
        # the image of circles that live entirely in the upper half
        pos = disk_mesh.vertices.copy()
        pos[:, 1] = np.abs(pos[:, 1])
        y = cv.DeformationField(disk_mesh, pos)
        rep = cv.check_inv(y, centers=[(0.0, 0.5)], radii=[[0.25]],
                           delta=0.02, samples=400, seed=1)
        assert not rep.passed
        viol = rep.entries[0]
        assert viol.violations_outside > 0
        assert rep.summary().startswith("FAIL")


# ---------------------------------------------------------------------------
# reference check_inv: fresh sampling, evaluation and distances on every call


def _reference_check_inv(y, centers=None, radii=None, delta=0.02, samples=400, m=192,
                         seed=0):
    mesh = y.mesh
    if centers is None:
        centers = [c for c, _ in mesh.punctures] or [mesh.vertices.mean(axis=0)]
    rng = np.random.default_rng(seed)
    band = 2.0 * delta
    tri_cum = np.cumsum(mesh.areas / mesh.areas.sum())
    entries = []
    for ci, a in enumerate(centers):
        a = np.asarray(a, dtype=float)
        rs = radii[ci] if radii is not None else _default_radii(mesh, a)
        for r in rs:
            loop = cv.trace_on_circle(y, a, r, m)
            x_in = _reference_disk_samples(mesh, a, r, samples, rng)
            x_out = _reference_outside_samples(mesh, a, r, samples, rng, tri_cum)
            vi = vo = 0
            if len(x_in):
                img = y.evaluate(x_in)
                w = _winding_no_boundary_guard(loop, img) != 0
                vi = int(np.count_nonzero(~w & (points_to_polyline_distance(img, loop) > band)))
            if len(x_out):
                img = y.evaluate(x_out)
                w = _winding_no_boundary_guard(loop, img) != 0
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


def _entries(rep):
    return [(tuple(e.center), e.radius, e.n_inside, e.n_outside,
             e.violations_inside, e.violations_outside) for e in rep.entries]


def _folded(mesh):
    pos = mesh.vertices.copy()
    pos[:, 1] = np.abs(pos[:, 1])
    return cv.DeformationField(mesh, pos)


class TestCheckInvPlan:
    """The cached sampling plan reproduces the per-call sampling exactly."""

    @pytest.mark.parametrize("kind", ["identity", "radial_lift", "folded", "folded_circle"])
    def test_matches_reference(self, kind, disk_mesh, radial_15):
        kw = dict(delta=0.02, samples=200, seed=3)
        if kind == "identity":
            y = cv.DeformationField(disk_mesh)
        elif kind == "radial_lift":
            y = cv.radial_lift(radial_15, disk_mesh)
        else:
            y = _folded(disk_mesh)
        if kind == "folded_circle":
            kw = dict(centers=[(0.0, 0.5)], radii=[[0.25]], delta=0.02, samples=400, seed=1)
        want = _reference_check_inv(y, **kw)
        assert _entries(cv.check_inv(y, **kw)) == want
        assert _entries(cv.check_inv(y, **kw)) == want  # served from the plan cache
        if kind.startswith("folded"):
            assert sum(e[4] + e[5] for e in want) > 0

    def test_cache_key(self):
        mesh = cv.build_disk_mesh(1.0, 0.15, punctures=[((0.0, 0.0), 0.2)])
        ident = cv.DeformationField(mesh)
        folded = _folded(mesh)
        for y in (ident, folded):  # same plan, different positions
            assert _entries(cv.check_inv(y, seed=2)) == _reference_check_inv(y, seed=2)
        assert len(mesh.inv_plans) == 1
        for kw in (dict(seed=5), dict(seed=2, samples=150)):
            assert _entries(cv.check_inv(folded, **kw)) == _reference_check_inv(folded, **kw)
        assert len(mesh.inv_plans) == 3
        got = cv.check_inv(folded, seed=np.random.default_rng(4))
        assert _entries(got) == _reference_check_inv(folded, seed=np.random.default_rng(4))
        assert len(mesh.inv_plans) == 3  # a Generator seed is never cached

    def test_plan_raises_like_reference(self, disk_mesh):
        y = cv.DeformationField(disk_mesh)
        kw = dict(centers=[(0.0, 0.0)], radii=[[0.1]])  # inside the puncture
        with pytest.raises(GeometryError) as want:
            _reference_check_inv(y, **kw)
        with pytest.raises(GeometryError) as got:
            cv.check_inv(y, **kw)
        assert str(got.value) == str(want.value)
