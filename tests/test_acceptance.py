"""One test per acceptance criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion verdicts;
add -s to see the measured margins on passing runs too.
"""

import csv
import time
from pathlib import Path

import numpy as np
import pytest

import cavelast as cv
from cavelast._polyline import hausdorff_distance
from cavelast.cli import _load_run, build_density, build_phi, compare_runs
from cavelast.degree import winding_number_angle
from cavelast.energy import phi_perimeter_gradient
from cavelast.exceptions import InfeasibleEnergyError
from cavelast.inverse import MATERIAL, build_inverse_field, extract_jump_set
from conftest import read_summary


def star_polygon(rng):
    n = int(rng.integers(8, 40))
    th = np.sort(rng.uniform(0.0, 2 * np.pi, n))
    rad = rng.uniform(0.5, 1.5, n)
    ctr = rng.uniform(-0.3, 0.3, 2)
    return ctr + np.column_stack([rad * np.cos(th), rad * np.sin(th)])


def load_run_field(run_dir):
    cfg, y = _load_run(run_dir)
    return y, build_density(cfg), build_phi(cfg)


@pytest.fixture(scope="module")
def lifted(disk_mesh, radial_15):
    return cv.radial_lift(radial_15, disk_mesh)


class TestAcceptance:
    def test_01_degree_dual_route(self):
        rng = np.random.default_rng(20260819)
        t0 = time.perf_counter()
        for _ in range(500):
            loop = star_polygon(rng)
            pts = rng.uniform(-2.0, 2.0, (20, 2))
            ray = cv.winding_number(loop, pts)
            ang = winding_number_angle(loop, pts)
            assert np.array_equal(ray, ang)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        print(f"criterion 1 PASS: ray-crossing == angle oracle on 500x20 "
              f"queries, {elapsed:.2f}s < 10s")

    def test_02_first_variation_fd(self, density, iso, ell, disk_mesh,
                                   radial_15, radial_15_ell):
        t0 = time.perf_counter()
        square = cv.build_square_mesh(2.0, 0.3, punctures=[((1.0, 1.0), 0.2)])
        y1 = cv.radial_lift(radial_15, disk_mesh)
        warp = cv.BumpField(center=(0.5, 0.4), width=1.0,
                            direction=(1.0, -0.8), amplitude=0.06)
        y2 = cv.outer_compose(y1, warp, 1.0)
        y3 = cv.BoundaryData(kind="affine_stretch", lam=1.3).initial_field(square)
        y4 = cv.radial_lift(radial_15_ell, disk_mesh)

        rng = np.random.default_rng(42)
        worst = 0.0
        for y, phi in [(y1, iso), (y2, iso), (y3, iso), (y4, ell)]:
            for _ in range(5):
                anchor = y.positions[rng.integers(len(y.positions))]
                psi = cv.BumpField(center=anchor + rng.uniform(-0.2, 0.2, 2),
                                   width=rng.uniform(0.4, 1.0),
                                   direction=rng.normal(size=2),
                                   amplitude=rng.uniform(0.05, 0.3))
                rep = cv.first_variation_residual(
                    cv.DiscreteEnergy(y.mesh, density, phi).state(y.positions), psi)
                assert abs(rep.fd_value) > 1e-3  # pair actually moves energy
                assert rep.fd_gap <= 1e-3
                worst = max(worst, rep.fd_gap)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        print(f"criterion 2 PASS: 20 (y, psi) pairs, worst relative fd gap "
              f"{worst:.2e} <= 1e-3, {elapsed:.1f}s < 60s")

    def test_03_dilation_sign_certificate(self, iso):
        rng = np.random.default_rng(3)
        dil = cv.DilationField()  # psi(x) = x about the origin
        worst = 0.0
        for _ in range(10):
            poly = star_polygon(rng)
            per = cv.anisotropic_perimeter(poly, iso)
            # the exact vertex route and the midpoint quadrature
            vertex = float(np.sum(phi_perimeter_gradient(poly, iso) * dil.value(poly)))
            midpoint = cv.surface_first_variation([poly], dil, iso)
            for route, got in (("vertex", vertex), ("midpoint", midpoint)):
                rel = abs(got - per) / per
                assert rel <= 1e-6, (route, rel)
                worst = max(worst, rel)
        print(f"criterion 3 PASS: d/dt Per((1+t)E) = Per(E) on 10 random "
              f"polygons, worst rel err {worst:.2e} <= 1e-6")

    def test_04_radial_cross_validation(self, density, iso, radial_15,
                                        iso_run):
        t0 = time.perf_counter()
        E_ref = cv.radial_energy(radial_15, density, iso)
        c_ref = radial_15.cavity_radius

        code, run_dir = iso_run  # bundled scenario, h = 0.15
        assert code == 0
        kv = read_summary(run_dir)
        results = [(0.15, float(kv["total"]), float(kv["cavity_0_radius_mean"]))]
        for h in (0.11, 0.08):
            mesh = cv.build_disk_mesh(1.0, h, punctures=[((0.0, 0.0), 0.2)])
            y0 = cv.BoundaryData(kind="radial_stretch", lam=1.5).initial_field(mesh)
            y, log = cv.minimize(y0, density, iso, max_iters=100)
            assert log.status == "converged", h
            bd = cv.total_energy(y, density, iso)
            results.append((h, bd.total, bd.cavities[0].radius_mean()))
        gaps = []
        for h, E, c in results:
            e_gap = abs(E - E_ref) / E_ref
            c_gap = abs(c - c_ref) / c_ref
            assert e_gap <= 0.02, (h, e_gap)
            assert c_gap <= 0.03, (h, c_gap)
            gaps.append((h, e_gap, c_gap))
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0
        detail = ", ".join(f"h={h:g}: dE {e:.3%} dc {c:.3%}" for h, e, c in gaps)
        print(f"criterion 4 PASS: {detail}; {elapsed:.0f}s < 600s")

    def test_05_isotropic_reduction(self, density, iso, disk_mesh, radial_15,
                                    radial_15_ell, lifted):
        square = cv.build_square_mesh(2.0, 0.3, punctures=[((1.0, 1.0), 0.2)])
        warp = cv.BumpField(center=(0.3, -0.2), width=0.8,
                            direction=(0.6, 1.0), amplitude=0.05)
        fields = [
            cv.DeformationField(disk_mesh, disk_mesh.vertices.copy()),
            lifted,
            cv.radial_lift(radial_15_ell, disk_mesh),
            cv.outer_compose(lifted, warp, 1.0),
            cv.BoundaryData(kind="affine_stretch", lam=1.3).initial_field(square),
        ]
        worst = 0.0
        for y in fields:
            gap = abs(cv.total_energy(y, density, iso).surface
                      - cv.surface_functional_S_sum(y))
            assert gap <= 1e-9
            worst = max(worst, gap)
        print(f"criterion 5 PASS: |surface - S_sum| <= {worst:.2e} (<= 1e-9) "
              f"on {len(fields)} deformations")

    def test_06_surface_functional_duality(self, lifted):
        s_sum = cv.surface_functional_S_sum(lifted)
        rng = np.random.default_rng(6)
        worst = -np.inf
        for _ in range(50):
            radii = np.sort(rng.uniform(0.05, 1.6, 4))
            eta = cv.SeparableTestField(
                x0=tuple(rng.uniform(-0.5, 0.5, 2)),
                width=float(rng.uniform(0.5, 1.2)),
                xi0=tuple(rng.uniform(-0.3, 0.3, 2)),
                radii=tuple(radii),
                sign=float(rng.choice([-1.0, 1.0])))
            val = cv.surface_functional_S_testfield(lifted, eta)
            assert val <= s_sum + 1e-3
            worst = max(worst, val)
        print(f"criterion 6 PASS: sup over 50 test fields {worst:.6f} <= "
              f"S_sum + 1e-3 = {s_sum + 1e-3:.6f}")

    def test_07_sbv_inverse_structure(self, density, iso, disk_mesh, lifted):
        delta = 0.02
        inv = build_inverse_field(lifted, delta)
        jumps = extract_jump_set(inv)
        cavity = cv.total_energy(lifted, density, iso).cavities[0].boundary
        dh = max(hausdorff_distance(j.points, cavity) for j in jumps)
        assert dh <= 3 * delta

        rng = np.random.default_rng(11)
        tri = rng.integers(0, len(disk_mesh.triangles), 10000)
        b = rng.dirichlet([2.0, 2.0, 2.0], 10000).clip(0.05, None)
        b /= b.sum(axis=1, keepdims=True)
        X = np.einsum("ki,kij->kj", b, lifted.positions[disk_mesh.triangles[tri]])
        F = lifted.element_gradients()[tri]
        G = cv.inverse_gradient(lifted, X)
        prod_err = np.abs(np.einsum("kab,kbc->kac", G, F) - np.eye(2)).max()
        assert prod_err <= 1e-10

        inv2 = build_inverse_field(lifted, delta, marker=np.array([25.0, -3.0]))
        assert np.array_equal(inv.kind, inv2.kind)
        mat = inv.kind == MATERIAL
        assert np.array_equal(inv.ref[mat], inv2.ref[mat])
        j2 = extract_jump_set(inv2)
        assert len(jumps) == len(j2)
        for a, c in zip(jumps, j2):
            assert np.array_equal(a.points, c.points)
            assert np.array_equal(a.normals, c.normals)
        print(f"criterion 7 PASS: jump Hausdorff {dh:.4f} <= {3 * delta}, "
              f"grad product err {prod_err:.2e} <= 1e-10 at 10^4 pts, "
              f"marker independence exact")

    def test_08_admissibility_preservation(self, iso_run, ell_run):
        for code, run_dir in (iso_run, ell_run):
            assert code == 0
            with open(Path(run_dir) / "iterations.csv") as fh:
                dets = [float(r["min_det"]) for r in csv.DictReader(fh)]
            assert read_summary(run_dir)["status"] == "converged"
            assert len(dets) - 1 <= 50  # Newton steps after the iter-0 row
            assert min(dets) > 1e-8
            y, _, _ = load_run_field(run_dir)
            rep = cv.check_inv(y, seed=0)
            assert rep.passed
            assert rep.total_violations == 0
        print("criterion 8 PASS: min_det > 1e-8 on every accepted iterate, "
              "final fields pass check_inv with 0 violations")

    def test_09_lower_semicontinuity(self, iso_run, ell_run):
        def energy_or_inf(y, dens, phi):
            # the stored energy is extended-valued off the admissible set
            try:
                return cv.total_energy(y, dens, phi).total
            except InfeasibleEnergyError:
                return np.inf

        details = []
        for _, run_dir in (iso_run, ell_run):
            y, dens, phi = load_run_field(run_dir)
            E = cv.total_energy(y, dens, phi).total
            seq = [energy_or_inf(cv.mollify(y, 0.12 * 0.5 ** n), dens, phi)
                   for n in range(6)]
            finite = [e for e in seq if np.isfinite(e)]
            assert len(finite) >= 2  # the tail of the sequence is admissible
            assert min(seq) >= E - 0.02 * E
            details.append(f"{Path(run_dir).name}: min {min(seq):.4f} >= "
                           f"0.98*E = {0.98 * E:.4f}")
        print("criterion 9 PASS: " + "; ".join(details))

    def test_10_bvp_boundary_balance(self, density, iso, ell, radial_15,
                                     radial_15_ell):
        rep_i = cv.bvp_boundary_check(radial_15, density, iso)
        rep_e = cv.bvp_boundary_check(radial_15_ell, density, ell)
        assert rep_i.passed and rep_i.projected <= 0.02
        assert rep_e.passed and rep_e.projected <= 0.02
        print(f"criterion 10 PASS: projected stress-curvature residual "
              f"iso {rep_i.projected:.2e}, elliptic {rep_e.projected:.2e} "
              f"(both <= 0.02)")

    def test_11_anisotropy_effect(self, iso_run, ell_run):
        rep = compare_runs(iso_run[1], ell_run[1])
        assert not rep.alarm
        margin = (rep.cross_surface_ab - rep.surface_b) / rep.surface_b
        assert margin >= 0.005
        assert rep.margin_b >= 0.005
        print(f"criterion 11 PASS: elliptic-perimeter margin {margin:.2%} "
              f">= 0.5%, energy margin {rep.margin_b:.2%}, alarm clear")
