import numpy as np
import pytest

import cavelast as cv
from cavelast._polyline import ranges
from cavelast.exceptions import ArtifactError, GeometryError


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

    def test_boundary_loops_cached_read_only(self, disk_mesh):
        ring = disk_mesh.puncture_loops()[0]
        assert ring is disk_mesh.puncture_loops()[0]
        assert ring is disk_mesh.boundary_loops()["puncture_0"]
        with pytest.raises(ValueError, match="read-only"):
            ring[0] = ring[1]

    def test_annulus(self):
        m = cv.build_annulus_mesh(1.0, 0.4, 0.15)
        target = np.pi * (1.0 - 0.4 ** 2)
        assert m.areas.sum() == pytest.approx(target, rel=0.02)
        r = np.linalg.norm(m.vertices, axis=1)
        assert r.min() == pytest.approx(0.4, abs=1e-9)
        assert r.max() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("h", [0.15, 0.08])
    @pytest.mark.parametrize("shape", ["disk", "annulus", "square"])
    def test_tagged_edges_lie_on_their_ring(self, shape, h):
        # each tag comes from the ring its points were placed on
        build, punctures = {
            "disk": (cv.build_disk_mesh, [((0.0, 0.0), 0.1), ((0.3, -0.4), 0.06)]),
            "annulus": (cv.build_annulus_mesh, [((0.7, 0.0), 0.05), ((-0.6, 0.3), 0.06)]),
            "square": (cv.build_square_mesh, [((0.5, 0.5), 0.1), ((0.25, 0.7), 0.05)]),
        }[shape]
        # circle radius per outer tag; the square's one tag covers its four sides
        rings = {"disk": {"dirichlet": 1.0}, "annulus": {"dirichlet": 1.0, "inner": 0.4},
                 "square": {}}[shape]
        for n in range(len(punctures) + 1):
            mesh = build(h=h, punctures=punctures[:n])
            tags = {t for _, _, t in mesh.boundary_edges}
            assert tags == set(rings or ["dirichlet"]) | {f"puncture_{k}" for k in range(n)}
            for i, j, tag in mesh.boundary_edges:
                p = mesh.vertices[[i, j]]
                if tag.startswith("puncture_"):
                    c, rho = punctures[int(tag[9:])]
                    off = np.linalg.norm(p - c, axis=1) - rho
                elif shape == "square":
                    off = np.minimum(np.abs(p), np.abs(p - 1.0)).min(axis=1)
                else:
                    off = np.linalg.norm(p, axis=1) - rings[tag]
                assert np.abs(off).max() <= 1e-9, (shape, h, n, tag)

    def test_boundary_loops_closed(self, disk_mesh):
        loops = disk_mesh.boundary_loops()
        assert set(loops) == {"dirichlet", "puncture_0"}
        for ids in loops.values():
            assert len(ids) >= 3
            assert len(set(ids)) == len(ids)

    def test_held_loops(self, disk_mesh):
        # every loop but the punctures', in boundary_loops order
        annulus = cv.build_annulus_mesh(1.0, 0.4, 0.15, punctures=[((0.7, 0.0), 0.05)])
        for mesh, held in ((disk_mesh, {"dirichlet"}), (annulus, {"dirichlet", "inner"})):
            loops = mesh.boundary_loops()
            want = [ids for tag, ids in loops.items() if tag in held]
            got = mesh.held_loops()
            assert len(got) == len(held) < len(loops)
            assert all(a is b for a, b in zip(got, want))

    def test_flipped_triangle_reoriented(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        m = cv.Mesh(verts, np.array([[0, 2, 1]]), [])
        assert m.areas[0] == pytest.approx(0.5, abs=1e-15)

    def test_degenerate_triangle_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(GeometryError):
            cv.Mesh(verts, np.array([[0, 1, 2]]), [])

    @pytest.mark.parametrize("edges,message", [
        ([(0, 1), (1, 2), (3, 4)], "boundary loop does not close"),
        ([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
         "boundary edges of one tag do not form a single closed loop"),
    ], ids=["dead_end", "two_loops"])
    def test_boundary_edges_of_one_tag_must_be_one_loop(self, edges, message):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                          [2.0, 0.0], [3.0, 0.0], [2.0, 1.0]])
        mesh = cv.Mesh(verts, np.array([[0, 1, 2], [3, 4, 5]]),
                       [(i, j, "dirichlet") for i, j in edges])
        with pytest.raises(GeometryError, match=message):
            mesh.boundary_loops()

    def test_annulus_needs_inner_below_outer(self):
        with pytest.raises(GeometryError, match="0 < inner < outer"):
            cv.build_annulus_mesh(1.0, 1.0, 0.2)

    def test_puncture_radius_must_be_positive(self):
        with pytest.raises(GeometryError, match="puncture radius must be positive"):
            cv.build_disk_mesh(1.0, 0.2, punctures=[((0.0, 0.0), 0.0)])


class TestRanges:
    def test_matches_a_loop(self):
        rng = np.random.default_rng(4)
        for k in (0, 1, 7, 50):  # k = 0: empty input
            count = rng.integers(0, 4, k)
            start = rng.integers(-5, 20, k)
            index, owner = ranges(start, count)
            want = [(s + i, o) for o, (s, c) in enumerate(zip(start, count)) for i in range(c)]
            assert index.tolist() == [i for i, _ in want]
            assert owner.tolist() == [o for _, o in want]
            scalar, owner0 = ranges(0, count)  # one start for every range
            assert np.array_equal(scalar, ranges(np.zeros(k, dtype=np.int64), count)[0])
            assert np.array_equal(owner0, owner)
        assert (count == 0).any() and (count > 1).any()


class TestKinematics:
    def test_identity_gradients(self, disk_mesh):
        y = cv.DeformationField(disk_mesh)
        G = y.element_gradients()
        assert np.allclose(G, np.eye(2)[None], atol=1e-12)
        assert y.element_dets().min() == pytest.approx(1.0, abs=1e-12)

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
        assert y.element_gradients()[0] == pytest.approx(M, abs=1e-12)

    def test_min_det_reports_flipped_triangle(self, square_mesh):
        pos = square_mesh.vertices.copy()
        t = square_mesh.triangles[0]
        # collapse one triangle through itself
        centroid = pos[t].mean(axis=0)
        pos[t[0]] = centroid + (centroid - pos[t[0]])
        y = cv.DeformationField(square_mesh, pos)
        val = y.element_dets().min()
        dets = y.element_dets()
        assert val < 0.0
        assert dets[0] < 0.0  # the collapsed triangle
        assert val == dets.min()

    def test_biaxial_min_det(self, square_mesh):
        y = cv.DeformationField(square_mesh, square_mesh.vertices @ np.diag([3.0, 0.5]))
        assert y.element_dets().min() == pytest.approx(1.5, abs=1e-12)


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
        # evaluate names the first point outside, here the one in the puncture
        with pytest.raises(GeometryError, match=r"^reference point \(0, 0\) is outside "
                                                r"the meshed domain$"):
            cv.DeformationField(disk_mesh).evaluate([[0.5, 0.0], [0.0, 0.0], [2.0, 0.0]])

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

    @pytest.mark.parametrize("chunk", [None, 7])
    def test_flat_kernels_are_the_einsums(self, chunk, disk_mesh, monkeypatch):
        # `locate` and `interpolate` work on one 1-D array per coordinate;
        # their outputs are, bit for bit, the batched einsums over (k, 2, 2)
        # and (k, 3, 2) blocks that they replace. Vertices, their mirror
        # images and edge midpoints give exact zeros and -0 products, whose
        # sign array_equal would not see, so the sign bits are compared too
        if chunk is not None:
            monkeypatch.setattr(cv.geometry, "_CHUNK", chunk)

        def same_bits(got, want):
            return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

        rng = np.random.default_rng(13)
        mesh = disk_mesh
        v = mesh.vertices[mesh.triangles]
        pts = np.vstack([rng.uniform(-1.1, 1.1, size=(2000, 2)), mesh.vertices,
                         -mesh.vertices, 0.5 * (v[:, 0] + v[:, 2])])
        for pos in (mesh.vertices, -mesh.vertices):
            loc = cv.TriangleLocator(pos, mesh.triangles)
            inv = cv.geometry.hat_gradients(pos, mesh.triangles)[:, 1:]
            y = cv.DeformationField(mesh, pos)
            for p in (pts, pts[:0]):
                tri, bary = loc.locate(p)
                hit = np.nonzero(tri >= 0)[0]
                t = tri[hit]
                lam = np.einsum("kab,kb->ka", inv[t], p[hit] - pos[mesh.triangles[t, 0]])
                want = np.stack([1.0 - lam.sum(axis=1), lam[:, 0], lam[:, 1]], axis=-1)
                assert same_bits(bary[hit], want)
                assert np.all(bary[tri < 0] == 0.0)
                want = np.einsum("ki,kij->kj", bary[hit], pos[mesh.triangles[t]])
                assert same_bits(y.interpolate(t, bary[hit]), want)
            assert len(hit) == 0 and y.interpolate(t, bary[hit]).shape == (0, 2)

    @pytest.mark.parametrize("case", ["square_ties", "bucket_edge", "folded", "past_bbox",
                                      "one_row", "one_column", "chunks"])
    def test_locate_grid_matches_locate(self, case, disk_mesh, monkeypatch):
        # `locate` at the cell centres is the referee, down to the tie rule
        # (lowest triangle index) and every bit of the barycentric coordinates
        mesh, pos = disk_mesh, 1.5 * disk_mesh.vertices
        origin, delta, shape = np.array([-1.6, -1.55]), 0.0137, (232, 236)
        if case == "square_ties":
            # centres on every vertex, on every shared edge and at the
            # midpoints of the diagonals of the crossed square pattern
            mesh = cv.build_square_mesh(1.0, 0.25)
            pos, origin, delta, shape = mesh.vertices, np.zeros(2), 0.0625, (17, 17)
        elif case == "folded":
            # jittered vertices: inverted and overlapping triangles
            rng = np.random.default_rng(4)
            pos = mesh.vertices + rng.normal(scale=0.08, size=mesh.vertices.shape)
            det = cv.DeformationField(mesh, pos).element_dets()
            assert (det < 0).sum() > 20 and np.abs(det).min() > 1e-6
        elif case == "bucket_edge":
            # a column just left of the locator cell boundary x = 0.5: within
            # tolerance of the triangles right of it, whose buckets start at
            # the boundary, so `locate` passes them over for higher ones
            mesh = cv.build_square_mesh(1.0, 0.25)
            pos = mesh.vertices * [-1.0, 1.0] + [1.0, 0.0]
            origin, shape = np.array([0.5 - 1e-13, 0.01]), (70, 1)
        elif case == "past_bbox":
            origin, delta, shape = np.array([-2.5, -2.3]), 0.05, (95, 101)
        elif case == "one_row":
            origin, shape = np.array([-1.6, 0.1]), (1, 236)
        elif case == "one_column":
            origin, shape = np.array([-0.3, -1.6]), (236, 1)
        else:
            monkeypatch.setattr(cv.geometry, "_CHUNK", 50)
        loc = cv.TriangleLocator(pos, mesh.triangles)
        grid = cv.DegreeRaster(origin=origin, delta=delta, values=np.zeros(shape, dtype=np.int64))
        corners = mesh.vertices[mesh.triangles]
        tri, ref = loc.locate_grid(grid, corners)
        want_tri, want_bary = loc.locate(grid.cell_centers().reshape(-1, 2))
        assert tri.shape == shape and ref.shape == shape + (2,)
        assert np.array_equal(tri.ravel(), want_tri)
        # the pre-images, as the inverse raster formed them from a full-grid bary
        hit = want_tri >= 0
        want_ref = np.full((len(want_tri), 2), np.nan)
        want_ref[hit] = np.einsum("kb,kbi->ki", want_bary[hit], corners[want_tri[hit]])
        assert np.array_equal(ref.reshape(-1, 2), want_ref, equal_nan=True)
        if case == "square_ties":
            # the vertex (0.5, 0.5) is on eight triangles; the lowest wins
            star = np.nonzero((mesh.triangles == 12).any(axis=1))[0]
            assert np.array_equal(mesh.vertices[12], [0.5, 0.5]) and len(star) == 8
            assert tri[8, 8] == star.min() and np.all(tri >= 0)
        elif case == "bucket_edge":
            assert np.all(tri >= 0)
        else:
            assert (tri >= 0).any() and (tri < 0).any()

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
            cv.trace_on_circle(y, (0.0, 0.0), 0.1, 128)  # inside the puncture
        with pytest.raises(GeometryError):
            cv.trace_on_circle(y, (0.9, 0.0), 0.5, 128)  # exits the rim


class TestDeformationField:
    def test_positions_must_match_the_vertices(self, square_mesh):
        with pytest.raises(GeometryError, match="positions must match"):
            cv.DeformationField(square_mesh, square_mesh.vertices[:-1])


class TestBoundaryData:
    def test_radial_stretch(self, disk_mesh):
        bc = cv.BoundaryData(kind="radial_stretch", lam=1.5)
        y = bc.initial_field(disk_mesh)
        ids = np.sort(disk_mesh.boundary_loops()["dirichlet"])
        assert np.allclose(y.positions[ids], 1.5 * disk_mesh.vertices[ids], atol=1e-12)

    def test_affine_stretch_volume_preserving(self, disk_mesh):
        bc = cv.BoundaryData(kind="affine_stretch", lam=1.5)
        y = bc.initial_field(disk_mesh)
        ids = np.sort(disk_mesh.boundary_loops()["dirichlet"])
        want = disk_mesh.vertices[ids] @ np.diag([1.5, 1 / 1.5])
        assert np.allclose(y.positions[ids], want, atol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            cv.BoundaryData(kind="torsion")


class TestMollify:
    def test_zero_sigma_is_identity(self, disk_mesh):
        y = cv.DeformationField(disk_mesh)
        assert np.array_equal(cv.mollify(y, 0.0).positions, y.positions)

    def test_negative_sigma_refused(self, disk_mesh):
        with pytest.raises(ValueError, match="sigma must be nonnegative"):
            cv.mollify(cv.DeformationField(disk_mesh), -0.1)

    def test_mesh_without_interior_vertices_is_kept(self):
        # every vertex of one triangle is a boundary vertex: nothing to smooth
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        mesh = cv.Mesh(verts, np.array([[0, 1, 2]]), [(0, 1, "d"), (1, 2, "d"), (2, 0, "d")])
        y = cv.DeformationField(mesh, 2.0 * verts)
        assert cv.mollify(y, 0.1) is y

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
        with pytest.raises(ArtifactError, match="bad.cavmesh"):
            cv.load_mesh(p)

    @pytest.mark.parametrize("edge, message", [("0 x dirichlet", "malformed boundary edge"),
                                               ("0 99999 dirichlet", "vertex id out of range")],
                             ids=["malformed", "out_of_range"])
    def test_bad_boundary_edge_rejected(self, disk_mesh, tmp_path, edge, message):
        p = tmp_path / "m.cavmesh"
        disk_mesh.save(p)
        lines = p.read_text().splitlines(keepends=True)
        lines[-1] = edge + "\n"
        p.write_text("".join(lines))
        with pytest.raises(ArtifactError, match=message):
            cv.load_mesh(p)


class TestMeshCaches:
    """Index data cached on the mesh equals the inline constructions it
    replaced, is built once, and is read-only."""

    @pytest.fixture(scope="class", params=["disk", "annulus", "square"])
    def mesh(self, request, disk_mesh, square_mesh):
        if request.param == "annulus":
            return cv.build_annulus_mesh(1.0, 0.4, 0.12, punctures=[((0.65, 0.1), 0.06),
                                                                    ((-0.65, 0.0), 0.07)])
        return disk_mesh if request.param == "disk" else square_mesh

    def test_boundary_segments(self, mesh):
        loops = list(mesh.boundary_loops().values())
        u, v = mesh.boundary_segments
        assert np.array_equal(u, np.concatenate(loops))
        assert np.array_equal(v, np.concatenate([np.roll(ids, -1) for ids in loops]))
        assert mesh.boundary_segments[0] is u
        assert not (u.flags.writeable or v.flags.writeable)

    def test_edge_pairs(self, mesh):
        t = mesh.triangles
        pairs = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        want = np.unique(np.sort(pairs, axis=1), axis=0)
        assert np.array_equal(mesh.edge_pairs, want)
        assert mesh.edge_pairs is mesh.edge_pairs
        assert not mesh.edge_pairs.flags.writeable

    def test_succ_is_roll(self):
        from cavelast._polyline import succ
        for a in (np.arange(7), np.arange(12.0).reshape(6, 2), np.arange(1), np.empty((0, 2))):
            assert np.array_equal(succ(a), np.roll(a, -1, axis=0))
