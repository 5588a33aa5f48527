import dataclasses
import importlib
import os
import pkgutil

import numpy as np
import pytest
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpbtrf

import cavelast as cv
from cavelast import cli
from cavelast.cli import _load_run, build_phi
from cavelast.energy import phi_perimeter_gradient
from cavelast.exceptions import DomainError, InfeasibleEnergyError
from cavelast.geometry import hat_gradients
from cavelast.variation import _constrained_vertices, _newton_step, battery_variations
from conftest import folded, run_python
from corpus import frames, fuzz_config, mirrored, relabelled


def _state(y, density, phi):
    """The `EnergyState` of the field y."""
    return cv.DiscreteEnergy(y.mesh, density, phi).state(y.positions)


class ConstantField:
    """psi(xi) = v everywhere; rigid translation of the deformed state."""

    def __init__(self, v):
        self.v = np.asarray(v, dtype=float)

    def value(self, xi):
        return np.broadcast_to(self.v, (len(np.atleast_2d(xi)), 2)).copy()

    def jacobian(self, xi):
        return np.zeros((len(np.atleast_2d(xi)), 2, 2))

    def grad_bound(self):
        return 0.0


class RotationField:
    """psi(xi) = J (xi - c) with J the rotation generator."""

    J = np.array([[0.0, -1.0], [1.0, 0.0]])

    def __init__(self, center=(0.0, 0.0)):
        self.center = np.asarray(center, dtype=float)

    def value(self, xi):
        return (np.atleast_2d(xi) - self.center) @ self.J.T

    def jacobian(self, xi):
        return np.broadcast_to(self.J, (len(np.atleast_2d(xi)), 2, 2)).copy()

    def grad_bound(self):
        return 1.0


class PiecewiseAffineJacobian:
    """The Jacobian of the P1 interpolant of the nodal values (n, 2) on the
    deformed triangulation of y, constant on each triangle; the centroid
    quadrature of `elastic_first_variation` reads nothing else."""

    def __init__(self, y, nodal):
        tris = y.mesh.triangles
        self._loc = y.deformed_locator()
        self._grad = np.einsum("tka,tkb->tab", nodal[tris], hat_gradients(y.positions, tris))

    def jacobian(self, xi):
        tri, _ = self._loc.locate(np.atleast_2d(xi))
        assert np.all(tri >= 0)
        return self._grad[tri]


def _exact_surface(boundaries, psi, phi):
    """The exact first variation of the edgewise phi-perimeter of the closed
    polygons: `phi_perimeter_gradient` dotted with psi at the vertices."""
    return sum(float(np.sum(phi_perimeter_gradient(p, phi) * psi.value(p)))
               for p in boundaries)


class ShoveField:
    """psi(xi) = (size, 0) at every other point, 0 at the rest; it claims
    no gradient bound, so `outer_compose` lets it fold the mesh."""

    def __init__(self, size):
        self.size = size

    def value(self, xi):
        out = np.zeros_like(np.atleast_2d(xi))
        out[::2, 0] = self.size
        return out

    def grad_bound(self):
        return 0.0


@pytest.fixture(scope="module")
def lifted(disk_mesh, radial_15):
    return cv.radial_lift(radial_15, disk_mesh)


class TestFields:
    def test_bump_support_and_peak(self):
        psi = cv.BumpField((0.2, 0.1), 0.5, (3.0, 4.0))
        v = psi.value(np.array([[0.2, 0.1], [1.5, 1.5]]))
        assert np.allclose(v[0], [0.6, 0.8])
        assert np.allclose(v[1], 0.0)

    def test_bump_grad_bound_is_sharp(self):
        psi = cv.BumpField((0.0, 0.0), 0.7, (1.0, 0.0))
        t = np.linspace(-0.699, 0.699, 2001)
        pts = np.stack([t, np.zeros_like(t)], axis=1)
        J = psi.jacobian(pts)
        observed = np.abs(J).max()
        assert observed <= psi.grad_bound() + 1e-9
        assert observed >= 0.99 * psi.grad_bound()

    def test_bump_validation(self):
        with pytest.raises(ValueError):
            cv.BumpField((0, 0), 0.5, (0.0, 0.0))
        with pytest.raises(ValueError):
            cv.BumpField((0, 0), -0.1, (1.0, 0.0))

    def test_dilation_and_constant(self):
        d = cv.DilationField((1.0, -1.0))
        pts = np.array([[2.0, 0.0]])
        assert np.allclose(d.value(pts), [[1.0, 1.0]])
        assert np.allclose(d.jacobian(pts), np.eye(2)[None])
        c = ConstantField((0.3, 0.4))
        assert np.allclose(c.value(pts), [[0.3, 0.4]])
        assert np.allclose(c.jacobian(pts), 0.0)
        assert c.grad_bound() == 0.0

    def test_field_vanishes_on(self, disk_mesh):
        y = cv.DeformationField(disk_mesh)
        gam = cv.gamma_images(y)
        assert len(gam) == len(np.sort(disk_mesh.boundary_loops()["dirichlet"]))
        inner = cv.BumpField((0.0, 0.4), 0.3, (1.0, 0.0))
        assert cv.field_vanishes_on(inner, gam)
        wide = cv.BumpField((0.0, 0.4), 2.0, (1.0, 0.0))
        assert not cv.field_vanishes_on(wide, gam)


class TestExports:
    def test_every_exported_name_resolves(self):
        # a deleted name must leave __all__ with it
        modules = [cv] + [importlib.import_module(f"cavelast.{m.name}")
                          for m in pkgutil.iter_modules(cv.__path__)]
        assert "cavelast.variation" in {m.__name__ for m in modules}
        for module in modules:
            missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
            assert not missing, (module.__name__, missing)


class TestOuterCompose:
    def test_zero_t_is_same_object(self, lifted):
        assert cv.outer_compose(lifted, cv.DilationField(), 0.0) is lifted

    def test_translation_moves_everything(self, lifted):
        psi = ConstantField((0.5, -0.25))
        y2 = cv.outer_compose(lifted, psi, 0.1)
        assert np.allclose(y2.positions, lifted.positions + [0.05, -0.025],
                           atol=1e-14)

    def test_step_bound_enforced(self, lifted):
        psi = cv.BumpField((0.0, 0.0), 0.5, (1.0, 0.0))
        tmax = 1.0 / psi.grad_bound()
        with pytest.raises(DomainError):
            cv.outer_compose(lifted, psi, 1.01 * tmax)
        y2 = cv.outer_compose(lifted, psi, 0.5 * tmax)
        assert y2.element_dets().min() > 0.0

    def test_cavity_count_preserved(self, lifted, iso):
        psi = cv.BumpField((1.1, 0.0), 0.4, (0.3, 1.0))
        y2 = cv.outer_compose(lifted, psi, 0.2 / psi.grad_bound())
        assert len(cv.detect_cavities(y2, iso)) == len(cv.detect_cavities(lifted, iso))


class TestElasticVariation:
    def test_identity_interior_field_is_stationary(self, square_mesh, density, iso):
        y = cv.DeformationField(square_mesh)
        interior = np.setdiff1d(np.arange(len(square_mesh.vertices)),
                                square_mesh.boundary_vertices)
        hat = np.zeros_like(y.positions)  # the hat at one interior node, along x
        hat[interior[0], 0] = 1.0
        # DW(I) = 2I, so the variation is 2 int div psi = 0
        assert abs(np.sum(_state(y, density, iso).bulk_grad * hat)) <= 1e-12
        psi = PiecewiseAffineJacobian(y, hat)
        assert abs(cv.elastic_first_variation(y, psi, density)) <= 1e-6

    def test_modes_agree_for_affine_psi(self, lifted, density, iso):
        # the exact bulk term of the report and the centroid quadrature
        psi = cv.DilationField((0.2, 0.1))
        a = cv.first_variation_residual(_state(lifted, density, iso), psi).elastic
        b = cv.elastic_first_variation(lifted, psi, density)
        assert a == pytest.approx(b, rel=1e-12)

    def test_rotation_field_is_zero(self, lifted, density):
        # DW(F) F^T is symmetric, the rotation generator antisymmetric
        psi = RotationField()
        val = cv.elastic_first_variation(lifted, psi, density)
        assert abs(val) <= 1e-10 * 20.0

    def test_infeasible_raises(self, square_mesh, density):
        pos, _ = folded(square_mesh)
        y = cv.DeformationField(square_mesh, pos)
        with pytest.raises(InfeasibleEnergyError):
            cv.elastic_first_variation(y, cv.DilationField(), density)


class TestTangentialDivergence:
    def test_dilation_identity_any_phi(self, iso, ell):
        psi = cv.DilationField()
        for phi in (iso, ell):
            for th in np.linspace(0.0, 2 * np.pi, 7):
                nu = np.array([np.cos(th), np.sin(th)])
                div = cv.anisotropic_tangential_divergence(psi, nu, (0.5, 0.2), phi)
                assert div == pytest.approx(1.0, abs=1e-12)

    def test_constant_field_gives_zero(self, ell):
        psi = ConstantField((2.0, -1.0))
        div = cv.anisotropic_tangential_divergence(psi, (1.0, 0.0), (0.0, 0.0), ell)
        assert div == pytest.approx(0.0, abs=1e-14)

    def test_rotation_isotropic_gives_zero(self, iso):
        psi = RotationField()
        nu = np.array([0.6, 0.8])
        div = cv.anisotropic_tangential_divergence(psi, nu, (1.0, 1.0), iso)
        assert div == pytest.approx(0.0, abs=1e-12)

    def test_unit_normal_required(self, iso):
        with pytest.raises(ValueError):
            cv.anisotropic_tangential_divergence(cv.DilationField(), (1.0, 1.0),
                                                 (0.0, 0.0), iso)


class TestSurfaceVariation:
    def test_dilation_equals_perimeter(self, lifted, iso, ell):
        for phi in (iso, ell):
            boundaries = [rec.boundary for rec in cv.detect_cavities(lifted, phi)]
            psi = cv.DilationField(boundaries[0].mean(axis=0))
            per = cv.anisotropic_perimeter(boundaries[0], phi)
            for route in (_exact_surface, cv.surface_first_variation):
                val = route(boundaries, psi, phi)
                assert val == pytest.approx(per, rel=1e-12), (phi.kind, route.__name__)

    def test_dilation_close_to_circle_perimeter(self, lifted, iso):
        recs = cv.detect_cavities(lifted, iso)
        c = recs[0].radius_mean()
        psi = cv.DilationField(recs[0].boundary.mean(axis=0))
        val = _exact_surface([rec.boundary for rec in recs], psi, iso)
        assert val == pytest.approx(2 * np.pi * c, rel=0.01)

    def test_rotation_isotropic_zero(self, lifted, iso):
        recs = cv.detect_cavities(lifted, iso)
        psi = RotationField(recs[0].boundary.mean(axis=0))
        val = _exact_surface([rec.boundary for rec in recs], psi, iso)
        assert abs(val) <= 1e-10

    def test_vertex_mode_is_exact_derivative(self, lifted, ell):
        # the vertex route: phi_perimeter_gradient dotted with psi
        recs = cv.detect_cavities(lifted, ell)
        psi = cv.BumpField((0.9, 0.3), 0.6, (0.7, -0.4))
        val = _exact_surface([rec.boundary for rec in recs], psi, ell)
        t = 1e-6
        pers = []
        for s in (t, -t):
            moved = recs[0].boundary + s * psi.value(recs[0].boundary)
            pers.append(cv.anisotropic_perimeter(moved, ell))
        fd = (pers[0] - pers[1]) / (2 * t)
        assert val == pytest.approx(fd, rel=1e-6)

    def test_modes_agree_on_smooth_field(self, lifted, ell):
        # the exact vertex route and the midpoint quadrature
        boundaries = [rec.boundary for rec in cv.detect_cavities(lifted, ell)]
        psi = cv.BumpField((0.0, 0.0), 2.5, (0.3, 0.9))
        a = _exact_surface(boundaries, psi, ell)
        b = cv.surface_first_variation(boundaries, psi, ell)
        assert a == pytest.approx(b, rel=0.05)

    @pytest.mark.parametrize("run", ["iso_run", "ell_run"])
    def test_battery_surface_term_is_the_perimeter_gradient(self, density, run, request):
        # the surface term of EnergyState.grad, which the battery and the
        # report read, against phi_perimeter_gradient over the detected
        # cavities, at both bundled minimizers
        cfg, y = _load_run(request.getfixturevalue(run)[1])
        phi = build_phi(cfg)
        state = _state(y, density, phi)
        recs = cv.detect_cavities(y, phi)
        center = recs[0].boundary.mean(axis=0)
        local = cv.BumpField(recs[0].boundary[0], 0.3, (0.6, -0.8))
        wide = cv.BumpField(center, 3.0, (0.3, 0.9))
        affine = cv.DilationField(center + (0.1, -0.05))
        for psi in (local, wide, affine):
            terms = np.concatenate([phi_perimeter_gradient(rec.boundary, phi)
                                    * psi.value(rec.boundary) for rec in recs])
            got = cv.first_variation_residual(state, psi).surface
            assert abs(got - np.sum(terms)) <= 1e-12 * np.sum(np.abs(terms))


class TestResidualReport:
    def test_analytic_matches_fd(self, lifted, density, iso, ell):
        rng = np.random.default_rng(12)
        for phi in (iso, ell, cv.SurfaceDensity("smoothed_l1", eps=0.1)):
            for _ in range(5):
                ang = rng.uniform(0, 2 * np.pi)
                c = lifted.positions[rng.integers(0, len(lifted.positions))]
                psi = cv.BumpField(c, rng.uniform(0.2, 0.6),
                                   (np.cos(ang), np.sin(ang)))
                rep = cv.first_variation_residual(_state(lifted, density, phi), psi)
                assert rep.total == rep.elastic + rep.surface
                assert rep.fd_gap <= 1e-3

    def test_zero_field(self, lifted, density, iso):
        rep = cv.first_variation_residual(_state(lifted, density, iso),
                                          ConstantField((0.0, 0.0)))
        assert rep.elastic == 0.0
        assert rep.surface == 0.0
        assert abs(rep.fd_value) <= 1e-9

    @pytest.mark.parametrize("kind", ["iso", "ell"])
    def test_worst_battery_field_reports_the_battery_value(self, lifted, density,
                                                           kind, request):
        # the report and the battery take one derivative, bit for bit
        phi = request.getfixturevalue(kind)
        fields = cv.certification_battery(lifted)
        state = _state(lifted, density, phi)
        variations = battery_variations(state, fields)
        k = int(np.argmax(variations))
        rep = cv.first_variation_residual(state, fields[k])
        assert abs(rep.total) == variations[k]

    @pytest.mark.parametrize("run", ["iso_run", "ell_run"])
    def test_fd_value_is_the_total_energy_difference(self, density, run, request):
        # the central difference sums EnergyState.value as total_energy
        # does, bit for bit, at both bundled minimizers
        cfg, y = _load_run(request.getfixturevalue(run)[1])
        phi = build_phi(cfg)
        for psi in cv.certification_battery(y):
            plus, minus = (cv.total_energy(cv.outer_compose(y, psi, t), density, phi).total
                           for t in (1e-5, -1e-5))
            rep = cv.first_variation_residual(_state(y, density, phi), psi)
            assert rep.fd_value == (plus - minus) / 2e-5

    def test_fd_value_of_a_folding_field_is_nan(self, lifted, density, iso):
        # a probe that folds a triangle has no energy: the report says so,
        # and keeps the exact variation
        state = _state(lifted, density, iso)
        psi = ShoveField(1e5)
        with pytest.raises(InfeasibleEnergyError, match="non-positive determinant"):
            cv.total_energy(cv.outer_compose(lifted, psi, 1e-5), density, iso)
        rep = cv.first_variation_residual(state, psi)
        assert np.isnan(rep.fd_value) and np.isnan(rep.fd_gap)
        assert np.isfinite(rep.total) and rep.total == rep.elastic + rep.surface
        assert "fd_value = nan" in rep.as_text() and "fd_gap = nan" in rep.as_text()

    def test_as_text(self, lifted, density, iso):
        rep = cv.first_variation_residual(_state(lifted, density, iso), cv.DilationField())
        text = rep.as_text()
        for key in ("elastic_variation =", "surface_variation =",
                    "total_variation =", "fd_value =", "fd_gap ="):
            assert key in text


class TestBattery:
    def test_sizes_and_supports(self, lifted):
        fields = cv.certification_battery(lifted)
        assert len(fields) == 16 + 8
        gam = cv.gamma_images(lifted)
        for psi in fields:
            assert cv.field_vanishes_on(psi, gam)

    def test_every_field_vanishes_on_no_points(self):
        assert cv.field_vanishes_on(ConstantField((1.0, 0.0)), np.empty((0, 2)))

    def test_translation_and_rotation_residual_vanish(self, lifted, density, iso):
        state = cv.DiscreteEnergy(lifted.mesh, density, iso).state(lifted.positions)
        assert max(battery_variations(state, [ConstantField((1.0, 2.0))])) <= 1e-10
        assert max(battery_variations(state, [RotationField()])) <= 1e-9

    def test_default_battery_residual_finite(self, lifted, density, iso):
        res = cv.battery_residual(lifted, density, iso)
        assert 0.0 <= res < 5.0


class TestMinimize:
    def test_identity_data_stays_identity(self, density, iso):
        mesh = cv.build_disk_mesh(1.0, 0.06)
        y0 = cv.DeformationField(mesh)
        y1, log = cv.minimize(y0, density, iso, max_iters=50)
        assert log.status == "converged"
        assert np.abs(y1.positions - mesh.vertices).max() <= 1e-8
        # agreement with the 1-D minimizer at lambda = 1 (vanishing puncture)
        e2d = log.records[-1]["energy"]
        prof = cv.solve_radial(1.0, density, iso, rho=0.01, M=64)
        bulk, surf = cv.radial_energy_breakdown(prof, density, iso)
        e1d = bulk + surf - 2 * np.pi * 0.01 * prof.values[0]  # strip the rho artifact
        assert abs(e2d - e1d) <= 1e-3 * abs(e1d)

    def test_annulus_inner_loop_is_held(self, density, iso):
        # the inner circle of an annulus is boundary data like the outer one:
        # the solver moves the puncture loop and neither circle
        mesh = cv.build_annulus_mesh(1.0, 0.4, 0.1, punctures=[((0.7, 0.0), 0.05)])
        y0 = cv.BoundaryData(kind="radial_stretch", lam=1.3).initial_field(mesh)
        y1, log = cv.minimize(y0, density, iso)
        assert log.status == "converged"
        loops = mesh.boundary_loops()
        assert loops.keys() == {"dirichlet", "inner", "puncture_0"}
        for tag in ("dirichlet", "inner"):
            assert np.array_equal(y1.positions[loops[tag]], y0.positions[loops[tag]])
        assert not np.array_equal(y1.positions[loops["puncture_0"]],
                                  y0.positions[loops["puncture_0"]])

    def test_noisy_square_relaxes_back(self, square_mesh, density, iso):
        rng = np.random.default_rng(1)
        pos = square_mesh.vertices.copy()
        interior = np.setdiff1d(np.arange(len(pos)), square_mesh.boundary_vertices)
        pos[interior] += 0.02 * rng.standard_normal((len(interior), 2))
        y1, log = cv.minimize(cv.DeformationField(square_mesh, pos), density, iso,
                              max_iters=400)
        assert log.status == "converged"
        E = [r["energy"] for r in log.records]
        assert all(b <= a + 1e-14 for a, b in zip(E, E[1:]))
        assert E[-1] == pytest.approx(2.0, abs=1e-6)
        assert np.abs(y1.positions - square_mesh.vertices).max() <= 1e-3
        final_res = log.records[-1]["residual"]
        assert final_res is not None and final_res <= 1e-3 * E[-1]

    def test_cavity_opens_under_stretch(self, density, iso):
        mesh = cv.build_disk_mesh(1.0, 0.25, punctures=[((0.0, 0.0), 0.2)])
        y0 = cv.BoundaryData(kind="radial_stretch", lam=1.5).initial_field(mesh)
        e_seed = cv.total_energy(y0, density, iso).total
        y1, log = cv.minimize(y0, density, iso, max_iters=150)
        ring = np.linalg.norm(y1.positions[mesh.puncture_loops()[0]], axis=1)
        assert ring.mean() > 0.7
        assert log.records[-1]["energy"] < e_seed - 2.0
        assert all(r["min_det"] > 1e-8 for r in log.records)
        rep = cv.check_inv(y1, seed=0)
        assert rep.passed

    @pytest.mark.parametrize("kind", ["iso", "ell"])
    def test_log_is_total_energy(self, density, kind, request):
        # the solver and the energy report evaluate one energy, bit for bit
        phi = request.getfixturevalue(kind)
        mesh = cv.build_disk_mesh(1.0, 0.25, punctures=[((0.0, 0.0), 0.2)])
        y0 = cv.BoundaryData(kind="radial_stretch", lam=1.5).initial_field(mesh)
        y1, log = cv.minimize(y0, density, phi, max_iters=30)
        bd = cv.total_energy(y1, density, phi)
        last = log.records[-1]
        assert last["energy"] == bd.total
        assert last["bulk"] == bd.bulk
        assert last["surface"] == bd.surface

    @pytest.mark.parametrize("h", [0.15, 0.11, 0.08])
    def test_radial_stretch_in_50_newton_steps(self, density, iso, h):
        # the criterion-4 meshes, gate on as in the bundled scenario
        mesh = cv.build_disk_mesh(1.0, h, punctures=[((0.0, 0.0), 0.2)])
        y0 = cv.BoundaryData(kind="radial_stretch", lam=1.5).initial_field(mesh)
        _, log = cv.minimize(y0, density, iso, max_iters=50)
        assert log.status == "converged"

    def test_compression_converges(self, density, iso):
        # lambda = 0.6 on the bundled disk: the gradient descent this solver
        # replaced stalled here at max_iters with battery residual 0.096
        mesh = cv.build_disk_mesh(1.0, 0.15, punctures=[((0.0, 0.0), 0.2)])
        y0 = cv.BoundaryData(kind="radial_stretch", lam=0.6).initial_field(mesh)
        _, log = cv.minimize(y0, density, iso, max_iters=300)
        assert log.status == "converged"
        assert log.records[-1]["residual"] <= 1e-3 * log.records[-1]["energy"]

    @pytest.mark.parametrize("case", ["stretch_ell", "compress_iso", "two_holes_l1"])
    def test_no_accepted_step_raises_energy(self, density, iso, ell, case):
        if case == "two_holes_l1":
            mesh = cv.build_square_mesh(2.0, 0.25, punctures=[((0.6, 0.6), 0.15),
                                                              ((1.4, 1.3), 0.2)])
            y0 = cv.BoundaryData(kind="affine_stretch", lam=1.4).initial_field(mesh)
            phi = cv.SurfaceDensity("smoothed_l1", eps=0.1)
        else:
            mesh = cv.build_disk_mesh(1.0, 0.2, punctures=[((0.0, 0.0), 0.2)])
            lam, phi = (1.5, ell) if case == "stretch_ell" else (0.6, iso)
            y0 = cv.BoundaryData(kind="radial_stretch", lam=lam).initial_field(mesh)
        _, log = cv.minimize(y0, density, phi, max_iters=300)
        E = [r["energy"] for r in log.records]
        assert len(E) > 3
        assert all(b <= a for a, b in zip(E, E[1:]))
        assert all(0.0 < r["step"] <= 1.0 for r in log.records[1:])

    def test_infeasible_start_rejected(self, square_mesh, density, iso):
        pos, _ = folded(square_mesh)
        with pytest.raises(InfeasibleEnergyError):
            cv.minimize(cv.DeformationField(square_mesh, pos), density, iso)

    def test_stall_reported(self, square_mesh, density, iso, monkeypatch):
        # the gate rejects every trial, so no step is accepted
        import cavelast.variation as variation
        rng = np.random.default_rng(4)
        pos = square_mesh.vertices.copy()
        interior = np.setdiff1d(np.arange(len(pos)), square_mesh.boundary_vertices)
        pos[interior] += 0.02 * rng.standard_normal((len(interior), 2))
        monkeypatch.setattr(variation, "boundary_crossings", lambda *args, **kwargs: 1)
        _, log = cv.minimize(cv.DeformationField(square_mesh, pos), density, iso,
                             max_iters=50, inv_every=1)
        assert log.status == "stalled"
        assert len(log.records) == 1

    @pytest.mark.parametrize("damping", [1.0, 1e-7])
    def test_newton_step_matches_dense_solve(self, stretched_disk, density, ell, damping,
                                             dense_hess):
        # the bundled h = 0.15 mesh at a perturbed stretched state: one banded
        # Cholesky step solves the damped system as a dense LU does
        mesh = stretched_disk.mesh
        rng = np.random.default_rng(2)
        pos = stretched_disk.positions + 0.003 * rng.standard_normal(mesh.vertices.shape)
        free = np.ones(len(pos), dtype=bool)
        free[_constrained_vertices(mesh)] = False
        E = cv.DiscreteEnergy(mesh, density, ell, free)
        state = E.state(pos)
        grad = np.add(*state.grad)[free].ravel()
        dx = _newton_step(state, grad, damping)
        H = dense_hess(E, pos)
        H[np.diag_indices_from(H)] *= 1.0 + damping
        want = np.linalg.solve(H, -grad)
        assert np.linalg.norm(dx.ravel() - want) <= 1e-12 * np.linalg.norm(want)

    def test_indefinite_matrix_stalls(self, density, iso, monkeypatch, caplog):
        # a Hessian that is not positive definite ends the run "stalled",
        # with the failed leading minor in the log, and raises nothing
        mesh = cv.build_disk_mesh(1.0, 0.25, punctures=[((0.0, 0.0), 0.2)])
        y0 = cv.BoundaryData(kind="radial_stretch", lam=1.5).initial_field(mesh)
        real = cv.EnergyState.hess
        monkeypatch.setattr(cv.EnergyState, "hess",
                            lambda self, *args: -real(self, *args))
        with caplog.at_level("WARNING", logger="cavelast"):
            y1, log = cv.minimize(y0, density, iso, max_iters=50)
        assert log.status == "stalled"
        assert [r["iter"] for r in log.records] == [0]
        assert np.array_equal(y1.positions, y0.positions)
        [rec] = caplog.records
        assert "iter 1: damped Newton matrix not positive definite" in rec.getMessage()
        assert "1-th leading minor" in rec.getMessage()

    def test_newton_factor_runs_on_one_thread(self, stretched_disk, density, ell, monkeypatch):
        # dpbtrf and dpbtrs see one OpenBLAS thread, and the caller's count
        # comes back after a factor that succeeds and after one that fails
        import cavelast.variation as variation
        from cavelast import _openblas
        if _openblas._GET_THREADS is None or _openblas._SET_THREADS is None:
            pytest.skip("scipy does not link its bundled OpenBLAS")
        seen = []

        def recording(real, fail):
            def call(*args, **kwargs):
                seen.append(_openblas._GET_THREADS())
                out = real(*args, **kwargs)
                return (out[0], 1) if fail else out
            return call

        free = np.ones(len(stretched_disk.positions), dtype=bool)
        free[_constrained_vertices(stretched_disk.mesh)] = False
        state = cv.DiscreteEnergy(stretched_disk.mesh, density, ell, free).state(
            stretched_disk.positions)
        grad = np.add(*state.grad)[free].ravel()
        caller = _openblas._GET_THREADS()
        _openblas._SET_THREADS(2)
        try:
            monkeypatch.setattr(variation, "dpbtrf", recording(variation.dpbtrf, False))
            monkeypatch.setattr(variation, "dpbtrs", recording(variation.dpbtrs, False))
            _newton_step(state, grad, 1.0)
            assert _openblas._GET_THREADS() == 2
            monkeypatch.setattr(variation, "dpbtrf", recording(dpbtrf, True))
            with pytest.raises(LinAlgError):
                _newton_step(state, grad, 1.0)
            assert _openblas._GET_THREADS() == 2
        finally:
            _openblas._SET_THREADS(caller)
        assert seen == [1, 1, 1]

    def test_bundled_run_is_the_same_on_one_and_two_threads(self, tmp_path):
        # where the BLAS kernel's factor depends on the thread count (Haswell
        # does), the one-thread Newton factor keeps the artifacts the same:
        # both bundled scenarios with every emitter, in a fresh interpreter on
        # one OpenBLAS thread and in one with no thread-count variable set
        # (the machine's default), write the same files and bytes
        scenarios = ("radial_iso_lambda1.5", "radial_ell_lambda1.5")
        program = ("import sys\nfrom cavelast.cli import main\n"
                   "for s in sys.argv[2:]:\n"
                   "    code = main(['run', s, '--out', f'{sys.argv[1]}/{s}',"
                   " '--emit', 'svg,raster,inverse'])\n"
                   "    assert code == 0, (s, code)\n")
        default = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        trees = []
        for name, env in (("one", dict(default, OPENBLAS_NUM_THREADS="1")), ("default", default)):
            proc = run_python("-c", program, str(tmp_path / name), *scenarios, env=env)
            assert proc.returncode == 0, proc.stderr
            trees.append({p.relative_to(tmp_path / name).as_posix(): p.read_bytes()
                          for p in (tmp_path / name).rglob("*") if p.is_file()})
        one, many = trees
        assert {f"{s}/{f}" for s in scenarios for f in ("deformed.svg", "raster.pgm", "jumps.csv")} \
            <= one.keys()
        assert one.keys() == many.keys()
        assert [f for f in one if one[f] != many[f]] == []

    def test_log_csv(self, tmp_path):
        log = cv.IterationLog()
        log.add(iter=0, energy=2.0, bulk=2.0, surface=0.0, min_det=1.0,
                step=0.0, residual=None)
        log.add(iter=1, energy=1.5, bulk=1.2, surface=0.3, min_det=0.9,
                step=0.25, residual=0.01)
        p = tmp_path / "iters.csv"
        log.to_csv(p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "iter,energy,bulk,surface,min_det,step,residual"
        assert lines[1].endswith(",nan")
        assert lines[2].split(",")[0] == "1"

    def test_zero_gradient_converges_without_a_step(self, density, iso):
        # every vertex is fixed, so the free gradient is empty: no Newton step,
        # and an empty battery certifies the field
        V = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        edges = [(0, 1, "dirichlet"), (1, 2, "dirichlet"), (2, 3, "dirichlet"),
                 (3, 0, "dirichlet")]
        mesh = cv.Mesh(V, np.array([[0, 1, 2], [0, 2, 3]]), edges)
        y1, log = cv.minimize(cv.DeformationField(mesh, 1.2 * V), density, iso)
        assert log.status == "converged"
        assert [(r["iter"], r["step"], r["residual"]) for r in log.records] == \
            [(0, 0.0, None), (1, 0.0, 0.0)]
        assert np.array_equal(y1.positions, 1.2 * V)

    def test_three_tiny_decreases_stall(self, density, iso, monkeypatch):
        # every decrease counts as tiny and no residual passes: the third
        # tiny decrease in a row ends the descent
        import cavelast.variation as variation
        monkeypatch.setattr(variation, "_RESIDUAL_REL", 1e-12)
        monkeypatch.setattr(variation, "_TOL_E", 1.0)
        mesh = cv.build_disk_mesh(1.0, 0.25, punctures=[((0.0, 0.0), 0.2)])
        y0 = cv.BoundaryData(kind="radial_stretch", lam=1.5).initial_field(mesh)
        _, log = cv.minimize(y0, density, iso)
        assert log.status == "stalled"
        assert [r["iter"] for r in log.records] == [0, 1, 2, 3]
        assert all(r["step"] > 0.0 for r in log.records[1:])
        assert all(r["residual"] is not None for r in log.records[1:])

    def test_gate_sees_every_accepted_trial(self, density, iso, monkeypatch):
        # the gate runs after the energy and det floor tests, so with a gate
        # that passes everything it sees exactly the accepted trials
        import cavelast.variation as variation
        mesh = cv.build_disk_mesh(1.0, 0.25, punctures=[((0.0, 0.0), 0.2)])
        y0 = cv.BoundaryData(kind="radial_stretch", lam=1.5).initial_field(mesh)
        real, calls = variation.boundary_crossings, []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(variation, "boundary_crossings", counting)
        _, log = cv.minimize(y0, density, iso, max_iters=150)  # inv_every = 1
        assert len(calls) == sum(r["step"] > 0.0 for r in log.records) > 0
        calls.clear()
        cv.minimize(y0, density, iso, max_iters=150, inv_every=0)
        assert calls == []

    @pytest.mark.parametrize("inv_every", [2, -1])
    def test_inv_every_is_0_or_1(self, density, iso, inv_every):
        # the gate runs on every step or on none; no step is taken first
        mesh = cv.build_disk_mesh(1.0, 0.25, punctures=[((0.0, 0.0), 0.2)])
        y0 = cv.BoundaryData(kind="radial_stretch", lam=1.5).initial_field(mesh)
        with pytest.raises(ValueError, match="inv_every must be 0 or 1"):
            cv.minimize(y0, density, iso, inv_every=inv_every)

    def test_gate_rejection_halves_the_step(self, density, iso, monkeypatch):
        import cavelast.variation as variation
        mesh = cv.build_disk_mesh(1.0, 0.25, punctures=[((0.0, 0.0), 0.2)])
        y0 = cv.BoundaryData(kind="radial_stretch", lam=1.5).initial_field(mesh)
        _, plain = cv.minimize(y0, density, iso, max_iters=150, inv_every=1)
        assert plain.records[1]["step"] == 1.0
        real, calls = variation.boundary_crossings, []

        def first_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                return 1
            return real(*args, **kwargs)

        monkeypatch.setattr(variation, "boundary_crossings", first_fails)
        _, log = cv.minimize(y0, density, iso, max_iters=150, inv_every=1)
        assert len(calls) > 1
        assert log.records[1]["step"] == 0.5
        E = [r["energy"] for r in log.records]
        assert all(b <= a for a, b in zip(E, E[1:]))
        assert log.status == "converged"


def _assert_fresh_battery(certificate, y, density, phi, seed=0):
    """The certificate (fields, variations) is the battery built afresh at y."""
    fields, variations = certificate
    fresh = cv.certification_battery(y, seed=seed)
    assert [(f.center.tolist(), f.width, f.direction.tolist()) for f in fields] \
        == [(f.center.tolist(), f.width, f.direction.tolist()) for f in fresh]
    assert variations == battery_variations(_state(y, density, phi), fresh)


class TestCertificate:
    """A run builds the certification battery once at its final field: the
    stop test's, when it ran there, else `compute`'s own."""

    @staticmethod
    def counted(monkeypatch):
        from cavelast import variation
        real, calls = cli.certification_battery, []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in (cli, variation):  # compute's battery and the stop test's
            monkeypatch.setattr(module, "certification_battery", counting)
        return calls

    def test_minimize_keeps_the_battery_of_its_field(self, density, iso):
        mesh = cv.build_disk_mesh(1.0, 0.25, punctures=[((0.0, 0.0), 0.2)])
        y0 = cv.BoundaryData(kind="radial_stretch", lam=1.5).initial_field(mesh)
        y1, log = cv.minimize(y0, density, iso, seed=3)
        assert log.status == "converged"
        _assert_fresh_battery(log.certificate, y1, density, iso, seed=3)
        # large steps only: the stop test never built a battery
        _, log = cv.minimize(y0, density, iso, max_iters=2)
        assert log.status == "max_iters" and log.certificate is None
        assert [r["residual"] for r in log.records] == [None] * 3

    @pytest.mark.parametrize("max_iters,status", [(100, "converged"), (2, "max_iters")])
    def test_compute_certifies_once(self, monkeypatch, density, iso, max_iters, status):
        cfg = cv.ScenarioConfig.from_ini(cli.resolve_scenario("radial_iso_lambda1.5"))
        cfg = dataclasses.replace(cfg, max_iters=max_iters)
        calls = self.counted(monkeypatch)
        record = cli.compute(cfg)
        assert record.log.status == status
        stop_tests = sum(r["residual"] is not None for r in record.log.records)
        assert len(calls) == stop_tests + (status == "max_iters")
        y = record.y
        _assert_fresh_battery(record.log.certificate, y, density, iso, seed=cfg.seed)
        fields, variations = record.log.certificate
        assert record.residual == max(variations)
        worst = fields[variations.index(record.residual)]
        assert record.fv_report == cv.first_variation_residual(_state(y, density, iso), worst)

    def test_compute_evaluates_each_state_once(self, monkeypatch):
        # The start, every line-search trial and the two central-difference
        # fields of the report are one state each: one det F and one pass over
        # the loop edge normals apiece. The normals are also formed for the
        # reference loops (rho_artifact) and for each cavity's ccw image.
        # The gradient (one stress) is formed at the start and at every
        # accepted field, the returned one once: the battery and the report
        # reuse it. eval evaluates its one field the same way.
        from cavelast import energy, geometry, material, variation
        counts = dict.fromkeys(("det", "normals", "grad"), 0)

        def count(owner, name, key):
            real = getattr(owner, name)

            def counting(*args, **kwargs):
                counts[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)

        for module in (material, energy, geometry, variation):
            if hasattr(module, "_det2"):
                count(module, "_det2", "det")
        count(energy, "_edge_normals", "normals")
        count(material.BulkDensity, "stress", "grad")
        cfg = cv.ScenarioConfig.from_ini(cli.resolve_scenario("radial_iso_lambda1.5"))
        record = cli.compute(cfg)
        assert record.log.status == "converged"
        steps = [r["step"] for r in record.log.records[1:]]
        trials = sum(1 + round(-np.log2(s)) for s in steps if s > 0.0)
        states = 1 + trials + 2
        loops = len(record.y.mesh.puncture_loops())
        assert counts == {"det": states, "normals": loops * (states + 2),
                          "grad": 1 + sum(s > 0.0 for s in steps)}
        assert (states, counts["normals"], counts["grad"]) == (18, 20, 16)

        counts.update(dict.fromkeys(counts, 0))
        cfg = cv.ScenarioConfig.from_ini(cli.resolve_scenario("eval_identity"))
        record = cli.compute(cfg, mode="eval")
        loops = len(record.y.mesh.puncture_loops())
        assert counts == {"det": 3, "normals": loops * (3 + 2), "grad": 1}

    def test_compute_builds_the_band_layout_once(self, monkeypatch):
        # the solve's mask is fixed, so its band order is found once per run
        from cavelast import energy
        real, calls = energy.band_order, []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(energy, "band_order", counting)
        cfg = cv.ScenarioConfig.from_ini(cli.resolve_scenario("radial_iso_lambda1.5"))
        record = cli.compute(cfg)
        assert record.log.status == "converged" and len(record.log.records) > 2
        assert len(calls) == 1

    @pytest.mark.parametrize("case", ["iso", "ell", "iso_max_iters_2", "iso_gate_rejects",
                                      "iso_inv_every_0"])
    def test_handed_over_state_is_the_returned_fields(self, monkeypatch, case):
        # the report comes from the state minimize hands over, the crossing
        # count from the returned field; both must be what it gives afresh
        from cavelast import variation
        from cavelast.degree import boundary_crossings
        name = "radial_ell_lambda1.5" if case == "ell" else "radial_iso_lambda1.5"
        cfg = cv.ScenarioConfig.from_ini(cli.resolve_scenario(name))
        if case == "iso_max_iters_2":
            cfg = dataclasses.replace(cfg, max_iters=2)
        if case == "iso_inv_every_0":  # no step gated
            cfg = dataclasses.replace(cfg, inv_every=0)
        if case == "iso_gate_rejects":
            calls = []

            def first_fails(*args, **kwargs):
                calls.append(args)
                return 1 if len(calls) == 1 else boundary_crossings(*args, **kwargs)

            monkeypatch.setattr(variation, "boundary_crossings", first_fails)
        record = cli.compute(cfg)
        if case == "iso_gate_rejects":
            assert record.log.records[1]["step"] == 0.5
        y = record.y
        want = cv.total_energy(y, cli.build_density(cfg), build_phi(cfg))
        got = record.breakdown
        assert (got.bulk, got.surface, got.total, got.rho_artifact) \
            == (want.bulk, want.surface, want.total, want.rho_artifact)
        assert len(got.cavities) == len(want.cavities) > 0
        for a, b in zip(got.cavities, want.cavities):
            assert np.array_equal(a.site, b.site) and np.array_equal(a.boundary, b.boundary)
            assert (a.area, a.aniso_perimeter) == (b.area, b.aniso_perimeter)
        assert record.crossings == boundary_crossings(y.mesh, y.positions)


class TestFrameReferees:
    """The energy does not see a mirror image of the reference mesh or the
    order of its labels, and the solver must not either: the radial data
    and the iso and elliptic phi (A = diag(4, 1)) are mirror-symmetric, so
    the mirrored or relabelled solve must reach the mirrored or relabelled
    minimizer, by the same steps when the gate rejects no trial."""

    @pytest.fixture(scope="class", params=["bundled_iso", "bundled_ell", "annulus"])
    def case(self, request):
        if request.param == "annulus":  # an off-centre puncture
            cfg = cv.ScenarioConfig(shape="annulus", h=0.1, punctures=(((0.7, 0.0), 0.05),),
                                    lam=1.3)
        else:
            name = {"bundled_iso": "radial_iso_lambda1.5",
                    "bundled_ell": "radial_ell_lambda1.5"}[request.param]
            cfg = cv.ScenarioConfig.from_ini(cli.resolve_scenario(name))
        mesh = cli.build_mesh(cfg)
        return cfg, mesh, cli.solve(cfg, mesh)

    @staticmethod
    def _assert_same_solve(log, other, pos, other_pos):
        assert log.status == other.status == "converged"
        assert len(other.records) == len(log.records)
        E = np.array([r["energy"] for r in log.records])
        E_other = np.array([r["energy"] for r in other.records])
        assert np.abs(E_other - E).max() <= 1e-13 * abs(E[-1])
        assert np.abs(other_pos - pos).max() <= 1e-13 * np.abs(pos).max()

    def test_mirror_reproduces_the_solve(self, case):
        cfg, mesh, (y, log) = case
        y_m, log_m = cli.solve(cfg, mirrored(mesh))
        self._assert_same_solve(log, log_m, y.positions * [-1.0, 1.0], y_m.positions)

    def test_relabelling_reproduces_the_solve(self, case):
        cfg, mesh, (y, log) = case
        other, perm = relabelled(mesh, np.random.default_rng(5))
        y_r, log_r = cli.solve(cfg, other)
        self._assert_same_solve(log, log_r, y.positions[perm], y_r.positions)

    # Seed-1 fuzz configs whose gate rejects trials: a rejection can fall on
    # another step in another frame, so the step counts may differ, but not
    # the minimizer. Later changes may tighten the ceilings, never loosen them
    @pytest.mark.parametrize("k", [81, 184])
    def test_gated_fuzz_configs_reach_the_same_minimizer(self, k):
        rng = np.random.default_rng(1)
        cfg = [fuzz_config(rng) for _ in range(k + 1)][k]
        original, *others = frames(dataclasses.replace(cfg, max_iters=1500))
        for frame in others:
            assert original.status == frame.status == "converged"
            assert frame.energy_gap <= 2e-10
            assert frame.position_gap <= 4e-6
