import numpy as np
import pytest

import cavelast as cv
from cavelast.exceptions import GeometryError


class TestBuilders:
    def test_square_covers_domain(self, square_mesh):
        assert square_mesh.areas.sum() == pytest.approx(1.0, abs=1e-12)
        assert square_mesh.areas.min() > 0.0

    def test_disk_area(self, disk_mesh):
        # polygonal approximation of the punctured unit disk
        target = np.pi * (1.0 - 0.2 ** 2)
        assert disk_mesh.areas.sum() == pytest.approx(target, rel=0.02)

    def test_puncture_ring_radius(self, disk_mesh):
        ring = disk_mesh.puncture_loops()[0]
        r = np.linalg.norm(disk_mesh.vertices[ring], axis=1)
        assert np.all(r <= 1.5 * 0.2 + 1e-12)
        assert np.all(r >= 0.5 * 0.2)

    def test_annulus(self):
        m = cv.build_annulus_mesh(1.0, 0.4, 0.15)
        target = np.pi * (1.0 - 0.4 ** 2)
        assert m.areas.sum() == pytest.approx(target, rel=0.02)
        r = np.linalg.norm(m.vertices, axis=1)
        assert r.min() == pytest.approx(0.4, abs=1e-9)
        assert r.max() == pytest.approx(1.0, abs=1e-9)

    def test_boundary_loops_closed(self, disk_mesh):
        loops = disk_mesh.boundary_loops()
        assert set(loops) == {"dirichlet", "puncture_0"}
        for ids in loops.values():
            assert len(ids) >= 3
            assert len(set(ids)) == len(ids)

    def test_flipped_triangle_reoriented(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        m = cv.Mesh(verts, np.array([[0, 2, 1]]), [])
        assert m.areas[0] == pytest.approx(0.5, abs=1e-15)

    def test_degenerate_triangle_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(GeometryError):
            cv.Mesh(verts, np.array([[0, 1, 2]]), [])


class TestKinematics:
    def test_identity_gradients(self, disk_mesh):
        y = cv.DeformationField(disk_mesh)
        G = y.element_gradients()
        assert np.allclose(G, np.eye(2)[None], atol=1e-12)
        assert cv.min_det(y) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_dilation(self, disk_mesh):
        y = cv.DeformationField(disk_mesh, 2.0 * disk_mesh.vertices)
        assert np.allclose(y.element_gradients(), 2.0 * np.eye(2)[None], atol=1e-12)

    def test_affine_read_back(self, square_mesh):
        rng = np.random.default_rng(2)
        M = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
        if np.linalg.det(M) < 0.1:
            M = np.eye(2)
        y = cv.DeformationField(square_mesh, square_mesh.vertices @ M.T)
        assert np.allclose(y.element_gradients(), M[None], atol=1e-12)
        assert np.allclose(y.element_dets(), np.linalg.det(M), atol=1e-12)
        assert cv.element_gradient(y, 0) == pytest.approx(M, abs=1e-12)

    def test_min_det_reports_flipped_triangle(self, square_mesh):
        pos = square_mesh.vertices.copy()
        t = square_mesh.triangles[0]
        # collapse one triangle through itself
        centroid = pos[t].mean(axis=0)
        pos[t[0]] = centroid + (centroid - pos[t[0]])
        y = cv.DeformationField(square_mesh, pos)
        val, idx = cv.min_det(y, return_index=True)
        assert val < 0.0
        assert idx in range(len(square_mesh.triangles))

    def test_biaxial_min_det(self, square_mesh):
        y = cv.DeformationField(square_mesh, square_mesh.vertices @ np.diag([3.0, 0.5]))
        assert cv.min_det(y) == pytest.approx(1.5, abs=1e-12)


class TestLocatorAndTrace:
    def test_locate_round_trip(self, disk_mesh):
        rng = np.random.default_rng(8)
        y = cv.DeformationField(disk_mesh)
        pts = []
        while len(pts) < 50:
            p = rng.uniform(-1, 1, 2)
            r = np.hypot(*p)
            if 0.25 < r < 0.95:
                pts.append(p)
        pts = np.asarray(pts)
        assert np.allclose(y.evaluate(pts), pts, atol=1e-10)

    def test_locate_outside(self, disk_mesh):
        tri, _ = disk_mesh.locator.locate(np.array([[2.0, 0.0], [0.0, 0.0]]))
        assert tri[0] == -1
        assert tri[1] == -1  # inside the puncture hole

    def test_locate_matches_brute_force(self, disk_mesh):
        # more than one 16384-point chunk; hits in the puncture hole and
        # outside the disk must come back as -1, and vertices and edge
        # midpoints (inside several triangles) go to the lowest index
        rng = np.random.default_rng(21)
        v = disk_mesh.vertices[disk_mesh.triangles]
        pts = np.vstack([rng.uniform(-1.2, 1.2, size=(20000, 2)), disk_mesh.vertices,
                         0.5 * (v[:, 0] + v[:, 1])])
        r = np.hypot(pts[:20000, 0], pts[:20000, 1])
        assert (r < 0.15).any() and (r > 1.0).any()
        tri, bary = disk_mesh.locator.locate(pts)
        e1, e2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        for lo in range(0, len(pts), 1000):
            d = pts[lo:lo + 1000, None, :] - v[None, :, 0]
            l1 = (e2[:, 1] * d[..., 0] - e2[:, 0] * d[..., 1]) / det
            l2 = (e1[:, 0] * d[..., 1] - e1[:, 1] * d[..., 0]) / det
            l0 = 1.0 - l1 - l2
            inside = (l0 >= -1e-10) & (l1 >= -1e-10) & (l2 >= -1e-10)
            want = np.where(inside.any(axis=1), inside.argmax(axis=1), -1)
            assert np.array_equal(tri[lo:lo + 1000], want)
            k = np.nonzero(want >= 0)[0]
            t = want[k]
            ref = np.stack([l0[k, t], l1[k, t], l2[k, t]], axis=-1)
            assert np.abs(bary[lo + k] - ref).max() <= 1e-14
            assert np.all(bary[lo:lo + 1000][want < 0] == 0.0)
        assert np.all(tri[:20000][r < 0.15] == -1) and np.all(tri[:20000][r > 1.0] == -1)

    def test_trace_identity_cardinals(self, disk_mesh):
        y = cv.DeformationField(disk_mesh)
        pts = cv.trace_on_circle(y, (0.0, 0.0), 0.5, m=4)
        want = np.array([[0.5, 0], [0, 0.5], [-0.5, 0], [0, -0.5]])
        assert np.allclose(pts, want, atol=1e-12)

    def test_trace_scales(self, disk_mesh):
        y = cv.DeformationField(disk_mesh, 2.0 * disk_mesh.vertices)
        pts = cv.trace_on_circle(y, (0.0, 0.0), 0.5, m=64)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    def test_trace_affine_ellipse(self, disk_mesh):
        M = np.array([[1.4, 0.2], [0.0, 0.8]])
        y = cv.DeformationField(disk_mesh, disk_mesh.vertices @ M.T)
        pts = cv.trace_on_circle(y, (0.0, 0.0), 0.5, m=16)
        theta = 2 * np.pi * np.arange(16) / 16
        want = (np.stack([0.5 * np.cos(theta), 0.5 * np.sin(theta)], axis=1)) @ M.T
        assert np.allclose(pts, want, atol=1e-12)

    def test_trace_rejects_bad_circles(self, disk_mesh):
        y = cv.DeformationField(disk_mesh)
        with pytest.raises(GeometryError):
            cv.trace_on_circle(y, (0.0, 0.0), 0.1)  # inside the puncture
        with pytest.raises(GeometryError):
            cv.trace_on_circle(y, (0.9, 0.0), 0.5)  # exits the rim


class TestBoundaryData:
    def test_radial_stretch(self, disk_mesh):
        bc = cv.BoundaryData(kind="radial_stretch", lam=1.5)
        y = bc.initial_field(disk_mesh)
        ids = disk_mesh.vertex_ids("dirichlet")
        assert np.allclose(y.positions[ids], 1.5 * disk_mesh.vertices[ids], atol=1e-12)

    def test_affine_stretch_volume_preserving(self, disk_mesh):
        bc = cv.BoundaryData(kind="affine_stretch", lam=1.5)
        y = bc.initial_field(disk_mesh)
        ids = disk_mesh.vertex_ids("dirichlet")
        want = disk_mesh.vertices[ids] @ np.diag([1.5, 1 / 1.5])
        assert np.allclose(y.positions[ids], want, atol=1e-12)

    def test_apply_overwrites_only_tagged(self, disk_mesh):
        bc = cv.BoundaryData(kind="radial_stretch", lam=2.0)
        y = cv.DeformationField(disk_mesh)
        y2 = bc.apply(y)
        ids = set(disk_mesh.vertex_ids("dirichlet").tolist())
        free = [i for i in range(len(disk_mesh.vertices)) if i not in ids]
        assert np.allclose(y2.positions[free], disk_mesh.vertices[free], atol=1e-14)
        assert np.allclose(y2.positions[sorted(ids)],
                           2.0 * disk_mesh.vertices[sorted(ids)], atol=1e-14)

    def test_user_table(self, disk_mesh):
        ids = disk_mesh.vertex_ids("dirichlet")
        table = {int(i): (0.0, 0.0) for i in ids}
        bc = cv.BoundaryData(kind="user_table", table=table)
        y = bc.apply(cv.DeformationField(disk_mesh))
        assert np.allclose(y.positions[ids], 0.0)

    def test_user_table_needs_table(self):
        with pytest.raises(ValueError):
            cv.BoundaryData(kind="user_table")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            cv.BoundaryData(kind="torsion")


class TestMollify:
    def test_zero_sigma_is_identity(self, disk_mesh):
        y = cv.DeformationField(disk_mesh)
        assert np.array_equal(cv.mollify(y, 0.0).positions, y.positions)

    def test_affine_preserved(self, disk_mesh):
        M = np.array([[1.3, 0.2], [-0.1, 0.9]])
        y = cv.DeformationField(disk_mesh, disk_mesh.vertices @ M.T)
        y2 = cv.mollify(y, 0.08)
        assert np.allclose(y2.positions, y.positions, atol=1e-12)

    def test_smooths_a_wiggle(self, disk_mesh):
        rng = np.random.default_rng(0)
        pos = disk_mesh.vertices.copy()
        interior = np.setdiff1d(np.arange(len(pos)), disk_mesh.boundary_vertices)
        pos[interior] += 0.01 * rng.standard_normal((len(interior), 2))
        y = cv.DeformationField(disk_mesh, pos)
        y2 = cv.mollify(y, 0.1)
        rough = np.abs(y.positions - disk_mesh.vertices).max()
        smooth = np.abs(y2.positions - disk_mesh.vertices).max()
        assert smooth < rough


class TestMeshIO:
    def test_round_trip(self, disk_mesh, tmp_path):
        p = tmp_path / "m.cavmesh"
        disk_mesh.save(p)
        assert open(p).readline().startswith("cavmesh 1")
        m2 = cv.load_mesh(p)
        assert np.array_equal(disk_mesh.vertices, m2.vertices)
        assert np.array_equal(disk_mesh.triangles, m2.triangles)
        assert disk_mesh.boundary_loops().keys() == m2.boundary_loops().keys()
        for (c1, r1), (c2, r2) in zip(disk_mesh.punctures, m2.punctures):
            assert np.allclose(c1, c2, atol=1e-9)
            assert r1 == pytest.approx(r2, rel=1e-6)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.cavmesh"
        p.write_text("trimesh 7\n")
        with pytest.raises(GeometryError):
            cv.load_mesh(p)
