import os

import numpy as np
import pytest

import cavelast as cv
from blas_core import numpy_simd
from cavelast._polyline import hausdorff_distance
from cavelast.exceptions import DomainError
from cavelast.inverse import CAVITY, MATERIAL, OUTSIDE
from conftest import run_python


@pytest.fixture(scope="module")
def cavitated(disk_mesh, radial_15):
    return cv.radial_lift(radial_15, disk_mesh)


class TestBuild:
    def test_marker_sits_outside(self, disk_mesh):
        o = cv.default_marker(disk_mesh)
        assert o[0] > 2.0
        assert abs(o[1]) < 1.0

    def test_identity_cells(self, disk_mesh):
        y = cv.DeformationField(disk_mesh)
        inv = cv.build_inverse_field(y, 0.05)
        kinds = inv.kind
        assert np.all(np.isin(kinds, [OUTSIDE, MATERIAL, CAVITY]))
        centers = inv.cell_centers()
        mat = kinds == MATERIAL
        # identity pre-image is the cell center itself
        assert np.allclose(inv.ref[mat], centers[mat], atol=1e-10)
        area_mat = mat.sum() * 0.05 ** 2
        assert area_mat == pytest.approx(disk_mesh.areas.sum(), rel=0.05)
        area_cav = (kinds == CAVITY).sum() * 0.05 ** 2
        assert area_cav == pytest.approx(np.pi * 0.04, rel=0.25)

    def test_delta_validated(self, disk_mesh):
        y = cv.DeformationField(disk_mesh)
        with pytest.raises(ValueError):
            cv.build_inverse_field(y, 0.0)

    def test_csv_export(self, disk_mesh, tmp_path):
        y = cv.DeformationField(disk_mesh)
        inv = cv.build_inverse_field(y, 0.1)
        p = tmp_path / "inv.csv"
        inv.to_csv(p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "xi_x,xi_y,x_x,x_y"
        assert any("CAVITY" in ln for ln in lines[1:])
        assert all(len(ln.split(",")) == 4 for ln in lines[1:])

    def test_raster_bytes_do_not_depend_on_numpy_simd(self, disk_mesh, tmp_path):
        # the inverse raster and its jump set, written from a saved mesh and
        # a field made with + and * only, are the same bytes with numpy's
        # AVX-512 dispatch off (where this machine has it), as on an
        # AVX2-only one: point location and interpolation round the same
        disk_mesh.save(tmp_path / "mesh.cavmesh")
        program = (
            "import sys\n"
            "from pathlib import Path\n"
            "import cavelast as cv\n"
            "mesh = cv.load_mesh(sys.argv[1])\n"
            "v = mesh.vertices\n"
            "r2 = v[:, :1] * v[:, :1] + v[:, 1:] * v[:, 1:]\n"
            "inv = cv.build_inverse_field(cv.DeformationField(mesh, v * (1.5 + 0.2 * r2)), 0.01)\n"
            "inv.to_csv(Path(sys.argv[2]) / 'inverse.csv')\n"
            "cv.jump_set_to_csv(cv.extract_jump_set(inv), Path(sys.argv[2]) / 'jumps.csv')\n")
        found = numpy_simd().split()
        off = " ".join(f for f in ("AVX512_SPR", "AVX512_ICL", "X86_V4") if f in found)
        runs = {"default": os.environ, "no_avx512": dict(os.environ, NPY_DISABLE_CPU_FEATURES=off)}
        for name, env in runs.items():
            (tmp_path / name).mkdir()
            proc = run_python("-c", program, str(tmp_path / "mesh.cavmesh"), str(tmp_path / name),
                              env=env)
            assert proc.returncode == 0, proc.stderr
        for name in ("inverse.csv", "jumps.csv"):
            assert ((tmp_path / "default" / name).read_bytes()
                    == (tmp_path / "no_avx512" / name).read_bytes()), name
        # the cavity opened, so both files have rows that depend on it
        assert "CAVITY" in (tmp_path / "default" / "inverse.csv").read_text()
        assert len((tmp_path / "default" / "jumps.csv").read_text().splitlines()) > 10


class TestInvertPoint:
    def test_three_outcomes(self, cavitated, disk_mesh):
        kind, x = cv.invert_point(cavitated, (1.2, 0.0))
        assert kind == "material"
        assert np.allclose(cavitated.evaluate(x[None])[0], [1.2, 0.0], atol=1e-10)

        kind, o = cv.invert_point(cavitated, (0.0, 0.0))
        assert kind == "cavity"
        assert np.allclose(o, cv.default_marker(disk_mesh))

        kind, nothing = cv.invert_point(cavitated, (9.0, 9.0))
        assert kind == "outside"
        assert nothing is None

    def test_round_trip_many(self, cavitated):
        rng = np.random.default_rng(5)
        n = 0
        for _ in range(1000):
            xi = rng.uniform(-1.5, 1.5, 2)
            kind, x = cv.invert_point(cavitated, xi)
            if kind != "material":
                continue
            n += 1
            assert np.allclose(cavitated.evaluate(x[None])[0], xi, atol=1e-10)
        assert n > 300

    def test_material_cells_are_the_raster_bits(self, cavitated):
        # at every material cell centre the point query interpolates the
        # reference corners as the raster does, so both give one pre-image
        inv = cv.build_inverse_field(cavitated, 0.05)
        iy, ix = np.nonzero(inv.kind == MATERIAL)
        got = np.array([cv.invert_point(cavitated, xi)[1]
                        for xi in inv.cell_centers()[iy, ix]])
        assert len(got) > 1000
        assert np.array_equal(got, inv.ref[iy, ix])


class TestInverseGradient:
    def test_affine_inverse(self, square_mesh):
        M = np.array([[1.4, 0.3], [-0.2, 0.9]])
        y = cv.DeformationField(square_mesh, square_mesh.vertices @ M.T)
        center = y.positions.mean(axis=0)
        G = cv.inverse_gradient(y, center)
        assert np.allclose(G, np.linalg.inv(M), atol=1e-12)
        batch = cv.inverse_gradient(y, np.tile(center, (7, 1)))
        assert batch.shape == (7, 2, 2)
        assert np.allclose(batch, np.linalg.inv(M)[None], atol=1e-12)

    def test_cavity_raises(self, cavitated):
        with pytest.raises(DomainError, match="cavity"):
            cv.inverse_gradient(cavitated, (0.0, 0.0))

    def test_outside_raises(self, cavitated):
        with pytest.raises(DomainError, match="outside"):
            cv.inverse_gradient(cavitated, (9.0, 9.0))


class TestJumpSet:
    def test_second_probe_reads_past_an_outside_ring(self):
        # a 3 x 3 cavity, a ring of outside cells, then material: the probe
        # 0.6 delta out of each straight contour edge lands in the ring, the
        # one at 1.2 delta in the material; the chamfered corners read nan
        kind = np.full((11, 11), MATERIAL, dtype=np.uint8)
        kind[3:8, 3:8] = OUTSIDE
        kind[4:7, 4:7] = CAVITY
        inv = cv.InverseField(origin=np.zeros(2), delta=0.1, kind=kind,
                              ref=np.full((11, 11, 2), 0.25), tri=np.zeros((11, 11), int),
                              marker=np.array([3.25, 0.25]))
        (contour,) = cv.extract_jump_set(inv)
        amp = contour.amplitudes
        assert np.isfinite(amp).sum() == 8 and np.all(amp[np.isfinite(amp)] == 3.0)

    def test_contour_tracks_cavity_boundary(self, cavitated):
        inv = cv.build_inverse_field(cavitated, 0.02)
        contours = cv.extract_jump_set(inv)
        assert len(contours) == 1
        jc = contours[0]
        ring = cavitated.positions[cavitated.mesh.puncture_loops()[0]]
        assert hausdorff_distance(jc.points, ring) <= 3 * 0.02
        assert np.allclose(np.linalg.norm(jc.normals, axis=1), 1.0, atol=1e-12)
        mids = 0.5 * (jc.points + np.roll(jc.points, -1, axis=0))
        outward = np.einsum("ni,ni->n", jc.normals, mids)
        assert np.mean(outward > 0) > 0.95
        assert np.all(np.isfinite(jc.amplitudes))
        o = inv.marker
        expect = np.linalg.norm(o) - 0.2  # pre-images sit near the puncture ring
        assert np.all(np.abs(jc.amplitudes - expect) < 0.5)

    def test_marker_moves_amplitudes_not_geometry(self, cavitated):
        inv_a = cv.build_inverse_field(cavitated, 0.02)
        inv_b = cv.build_inverse_field(cavitated, 0.02, marker=(10.0, 3.0))
        (ja,) = cv.extract_jump_set(inv_a)
        (jb,) = cv.extract_jump_set(inv_b)
        assert np.array_equal(ja.points, jb.points)
        assert np.array_equal(ja.normals, jb.normals)
        assert not np.allclose(ja.amplitudes, jb.amplitudes)

    def test_no_cavity_no_contour(self, square_mesh):
        y = cv.DeformationField(square_mesh)
        inv = cv.build_inverse_field(y, 0.05)
        assert cv.extract_jump_set(inv) == []

    def test_csv(self, cavitated, tmp_path):
        inv = cv.build_inverse_field(cavitated, 0.05)
        contours = cv.extract_jump_set(inv)
        p = tmp_path / "jump.csv"
        cv.jump_set_to_csv(contours, p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "contour,x,y,nx,ny,amplitude"
        assert len(lines) == 1 + sum(len(c.points) for c in contours)


class TestAreaFormula:
    def test_identity_function(self, cavitated):
        left, right = cv.area_formula_check(cavitated, lambda s: s, delta=0.02)
        assert right == pytest.approx(cavitated.mesh.areas.sum(), rel=1e-12)
        assert left == pytest.approx(right, rel=0.03)

    def test_nonlinear_function(self, cavitated):
        left, right = cv.area_formula_check(cavitated, lambda s: s / (1.0 + s),
                                            delta=0.02)
        assert left == pytest.approx(right, rel=0.03)
