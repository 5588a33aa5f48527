import math

import numpy as np
import pytest
from scipy.special import ellipe

import cavelast as cv
from cavelast._polyline import hausdorff_distance
from cavelast.degree import _default_radii
from cavelast.exceptions import DomainError, InfeasibleEnergyError


def regular_ngon(n, r=1.0, center=(0.0, 0.0)):
    th = 2.0 * np.pi * np.arange(n) / n
    return np.asarray(center) + r * np.stack([np.cos(th), np.sin(th)], axis=1)


class TestQuadrature:
    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_exact_on_monomials(self, order):
        pts, wts = cv.triangle_quadrature(order)
        assert wts.sum() == pytest.approx(1.0, abs=1e-14)
        for p in range(order + 1):
            for q in range(order + 1 - p):
                got = float(np.sum(wts * pts[:, 0] ** p * pts[:, 1] ** q))
                want = 2.0 * math.factorial(p) * math.factorial(q) \
                    / math.factorial(p + q + 2)
                assert got == pytest.approx(want, abs=1e-14), (order, p, q)

    def test_order_three_gets_quartic_rule(self):
        pts, _ = cv.triangle_quadrature(3)
        assert len(pts) == 6

    def test_order_too_high(self):
        with pytest.raises(ValueError):
            cv.triangle_quadrature(5)


class TestBulk:
    def test_identity_on_square(self, square_mesh, density, iso):
        y = cv.DeformationField(square_mesh)
        assert cv.total_energy(y, density, iso).bulk == pytest.approx(2.0, abs=1e-12)

    def test_double_on_square(self, square_mesh, density, iso):
        y = cv.DeformationField(square_mesh, 2.0 * square_mesh.vertices)
        want = 20.0 - math.log(4.0)
        assert cv.total_energy(y, density, iso).bulk == pytest.approx(want, rel=1e-12)

    def test_flipped_triangle_raises(self, square_mesh, density, iso):
        interior = np.setdiff1d(np.arange(len(square_mesh.vertices)),
                                square_mesh.boundary_vertices)
        v = int(interior[0])
        t = int(np.nonzero((square_mesh.triangles == v).any(axis=1))[0][0])
        other = [i for i in square_mesh.triangles[t] if i != v][0]
        pos = square_mesh.vertices.copy()
        pos[v] = pos[other]
        y = cv.DeformationField(square_mesh, pos)
        with pytest.raises(InfeasibleEnergyError) as ei:
            cv.total_energy(y, density, iso)
        assert isinstance(ei.value.triangle, int)
        assert v in square_mesh.triangles[ei.value.triangle]


class TestDiscreteEnergy:
    PHIS = (cv.SurfaceDensity("isotropic"),
            cv.SurfaceDensity("elliptic", A=np.array([[2.0, 0.3], [0.3, 0.7]])),
            cv.SurfaceDensity("smoothed_l1", eps=0.1))

    def test_gradient_matches_central_difference(self, stretched_disk, density):
        mesh = stretched_disk.mesh
        rng = np.random.default_rng(4)
        pos = stretched_disk.positions + 0.003 * rng.standard_normal(
            stretched_disk.positions.shape)
        loop = mesh.puncture_loops()[0]
        interior = np.setdiff1d(np.arange(len(pos)), mesh.boundary_vertices)
        nodes = np.concatenate([loop[:3], interior[:3]])
        t = 1e-6
        for phi in self.PHIS:
            E = cv.DiscreteEnergy(mesh, density, phi)
            grads = E.grad(pos)
            for v in nodes:
                for a in (0, 1):
                    plus, minus = pos.copy(), pos.copy()
                    plus[v, a] += t
                    minus[v, a] -= t
                    vp, vm = E.value(plus), E.value(minus)
                    for k in (0, 1):  # bulk, surface
                        fd = (vp[k] - vm[k]) / (2 * t)
                        assert grads[k][v, a] == pytest.approx(fd, rel=1e-5, abs=1e-7), \
                            (phi.kind, k, v, a)
            assert np.all(grads[1][np.setdiff1d(np.arange(len(pos)), loop)] == 0.0)

    def test_matches_previous_solver_formulas(self, stretched_disk, density):
        # the descent's own energy and gradient before they moved into
        # DiscreteEnergy; equal bits keep the minimizers byte-identical
        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])

        def energy_terms(pos, mesh, phi):
            F = np.einsum("tia,tib->tab", pos[mesh.triangles], mesh.shape_gradients)
            bulk = float(np.sum(mesh.areas * density.energy(F)))
            surf = 0.0
            for ids in mesh.puncture_loops():
                e = np.roll(pos[ids], -1, axis=0) - pos[ids]
                surf += float(np.sum(phi.value(np.stack([e[:, 1], -e[:, 0]], axis=1))))
            return bulk, surf

        def gradient(pos, mesh, phi):
            out = np.zeros_like(pos)
            F = np.einsum("tia,tib->tab", pos[mesh.triangles], mesh.shape_gradients)
            np.add.at(out, mesh.triangles, np.einsum(
                "t,tab,tib->tia", mesh.areas, density.stress(F), mesh.shape_gradients))
            for ids in mesh.puncture_loops():
                e = np.roll(pos[ids], -1, axis=0) - pos[ids]
                gt = phi.gradient(e @ rot.T) @ rot
                np.add.at(out, ids, np.roll(gt, 1, axis=0) - gt)
            return out

        square = cv.build_square_mesh(2.0, 0.25, punctures=[((0.6, 0.6), 0.15),
                                                            ((1.4, 1.3), 0.2)])
        rng = np.random.default_rng(7)
        for y in (stretched_disk, cv.DeformationField(square, 1.4 * square.vertices)):
            mesh = y.mesh
            for phi in self.PHIS:
                E = cv.DiscreteEnergy(mesh, density, phi)
                for _ in range(3):
                    pos = y.positions + 0.002 * rng.standard_normal(y.positions.shape)
                    bulk, surface, mind = E.value(pos)
                    assert (bulk, surface) == energy_terms(pos, mesh, phi)
                    assert mind == cv.min_det(cv.DeformationField(mesh, pos))
                    assert np.array_equal(np.add(*E.grad(pos)), gradient(pos, mesh, phi))
                    bd = cv.total_energy(cv.DeformationField(mesh, pos), density, phi)
                    assert (bd.bulk, bd.surface, bd.total) == (bulk, surface, bulk + surface)

    def test_folded_field(self, square_mesh, density, iso):
        interior = np.setdiff1d(np.arange(len(square_mesh.vertices)),
                                square_mesh.boundary_vertices)
        v = int(interior[0])
        t = int(np.nonzero((square_mesh.triangles == v).any(axis=1))[0][0])
        other = [i for i in square_mesh.triangles[t] if i != v][0]
        pos = square_mesh.vertices.copy()
        pos[v] = pos[other]
        E = cv.DiscreteEnergy(square_mesh, density, iso)
        bulk, surface, mind = E.value(pos)
        assert bulk is None and surface is None and mind <= 0.0
        with pytest.raises(InfeasibleEnergyError):
            E.grad(pos)
        with pytest.raises(InfeasibleEnergyError):
            E.hess(pos)

    @staticmethod
    def two_fields(stretched_disk):
        square = cv.build_square_mesh(2.0, 0.25, punctures=[((0.6, 0.6), 0.15),
                                                            ((1.4, 1.3), 0.2)])
        rng = np.random.default_rng(8)
        for y in (stretched_disk, cv.DeformationField(square, 1.4 * square.vertices)):
            yield y.mesh, y.positions + 0.003 * rng.standard_normal(y.positions.shape)

    def test_hessian_matches_central_difference(self, stretched_disk):
        # mu = 10 keeps D^2W positive definite at these stretches, so the
        # per-element projection is inactive and hess is the exact Hessian
        stiff = cv.BulkDensity(10.0, 1.0, 1.0)
        t = 1e-6
        for mesh, pos in self.two_fields(stretched_disk):
            F = mesh.element_gradients(pos)
            assert np.linalg.eigvalsh(stiff.hessian(F).reshape(-1, 4, 4)).min() > 0.0
            loops = np.concatenate(mesh.puncture_loops())
            interior = np.setdiff1d(np.arange(len(pos)), mesh.boundary_vertices)
            nodes = np.concatenate([loops[::7], interior[::11]])
            for phi in self.PHIS:
                E = cv.DiscreteEnergy(mesh, stiff, phi)
                H = E.hess(pos).toarray()
                assert H.shape == (pos.size, pos.size)
                assert np.abs(H - H.T).max() <= 1e-13 * np.abs(H).max()
                for v in nodes:
                    for a in (0, 1):
                        plus, minus = pos.copy(), pos.copy()
                        plus[v, a] += t
                        minus[v, a] -= t
                        fd = (np.add(*E.grad(plus)) - np.add(*E.grad(minus))) / (2 * t)
                        assert np.allclose(H[:, 2 * v + a], fd.ravel(),
                                           rtol=1e-6, atol=1e-6), (phi.kind, v, a)

    def test_hessian_projected_and_restricted(self, stretched_disk, density):
        # the default material is indefinite under stretch; every element
        # block is projected, so H is semidefinite, and the free-dof Hessian
        # is the submatrix of the full one
        for mesh, pos in self.two_fields(stretched_disk):
            F = mesh.element_gradients(pos)
            assert np.linalg.eigvalsh(density.hessian(F).reshape(-1, 4, 4)).min() < 0.0
            free = np.ones(len(pos), dtype=bool)
            free[mesh.boundary_vertices] = False
            for phi in self.PHIS:
                E = cv.DiscreteEnergy(mesh, density, phi)
                H = E.hess(pos).toarray()
                assert np.linalg.eigvalsh(H).min() >= -1e-10 * np.abs(H).max()
                dofs = np.repeat(free, 2)
                Hf = E.hess(pos, free, F)
                assert Hf.format == "csc" and Hf.has_sorted_indices
                assert np.array_equal(Hf.toarray(), H[np.ix_(dofs, dofs)])
                assert np.linalg.eigvalsh(Hf.toarray()).min() > 0.0
                assert np.array_equal(E.hess(pos, free).toarray(), Hf.toarray())

    def test_unclipped_blocks_match_central_difference(self, stretched_disk, density):
        # at the default material the clip acts; unclipped, the eigensystem
        # that hess clips must give the true D^2W, the derivative of the stress
        t = 1e-6
        for mesh, pos in self.two_fields(stretched_disk):
            F = mesh.element_gradients(pos)
            lam, vec = density.hessian_eigensystem(F)
            assert lam.min() < 0.0
            H = (vec @ (lam[:, :, None] * vec.transpose(0, 2, 1))).reshape(-1, 2, 2, 2, 2)
            for i in range(2):
                for j in range(2):
                    dF = np.zeros((2, 2))
                    dF[i, j] = t
                    fd = (density.stress(F + dF) - density.stress(F - dF)) / (2 * t)
                    assert np.allclose(H[..., i, j], fd, rtol=1e-6, atol=1e-8)

    def test_hess_calls_no_eigh(self, stretched_disk, density, ell, monkeypatch):
        # the referee projects every block through np.linalg.eigh; hess
        # must give the same matrix without calling it
        class EighDensity(cv.BulkDensity):
            def hessian_eigensystem(self, F):
                return np.linalg.eigh(self.hessian(F).reshape(-1, 4, 4))

        fields = list(self.two_fields(stretched_disk))
        want = [cv.DiscreteEnergy(mesh, EighDensity(), ell).hess(pos).toarray()
                for mesh, pos in fields]

        def refuse(*args, **kwargs):
            raise AssertionError("DiscreteEnergy.hess called np.linalg.eigh")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for H, (mesh, pos) in zip(want, fields):
            got = cv.DiscreteEnergy(mesh, density, ell).hess(pos).toarray()
            assert np.abs(got - H).max() <= 1e-12 * np.abs(H).max()

    def test_precomputed_gradients_change_nothing(self, stretched_disk, density, ell):
        E = cv.DiscreteEnergy(stretched_disk.mesh, density, ell)
        pos = stretched_disk.positions
        F = E.mesh.element_gradients(pos)
        assert E.value(pos, F) == E.value(pos)
        for a, b in zip(E.grad(pos, F), E.grad(pos)):
            assert np.array_equal(a, b)


class TestPerimeter:
    def test_unit_square(self, iso):
        sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        assert cv.anisotropic_perimeter(sq, iso) == pytest.approx(4.0, abs=1e-14)

    def test_polygonal_circle(self, iso):
        n = 64
        per = cv.anisotropic_perimeter(regular_ngon(n, 0.7), iso)
        assert per == pytest.approx(2 * n * 0.7 * math.sin(math.pi / n), rel=1e-12)

    def test_elliptic_circle_limit(self, ell):
        # phi = sqrt(z A z), A = diag(4,1): circle integral is 8 E(3/4)
        per = cv.anisotropic_perimeter(regular_ngon(512), ell)
        assert per == pytest.approx(8.0 * ellipe(0.75), rel=1e-3)

    def test_orientation_invariant(self, ell):
        poly = regular_ngon(17, 0.4, center=(0.3, -0.2))
        a = cv.anisotropic_perimeter(poly, ell)
        b = cv.anisotropic_perimeter(poly[::-1], ell)
        assert a == pytest.approx(b, rel=1e-14)

    def test_closing_vertex_tolerated(self, iso):
        sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        assert cv.anisotropic_perimeter(sq, iso) == pytest.approx(4.0, abs=1e-14)

    def test_degenerate_rejected(self, iso):
        with pytest.raises(DomainError):
            cv.anisotropic_perimeter(np.array([[0.0, 0.0], [1.0, 0.0]]), iso)

    def test_bowtie_warns(self, iso):
        bow = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.warns(RuntimeWarning):
            cv.anisotropic_perimeter(bow, iso)


class TestTotalEnergy:
    def test_identity_breakdown(self, disk_mesh, density, iso):
        y = cv.DeformationField(disk_mesh)
        bd = cv.total_energy(y, density, iso)
        assert bd.bulk == pytest.approx(2.0 * disk_mesh.areas.sum(), rel=1e-12)
        assert bd.surface == pytest.approx(bd.rho_artifact, rel=1e-12)
        assert bd.total == bd.bulk + bd.surface
        assert len(bd.cavities) == 1
        rec = bd.cavities[0]
        assert rec.simple
        assert rec.puncture_radius == pytest.approx(0.2)
        assert rec.radius_mean() == pytest.approx(0.2, rel=1e-9)
        assert rec.area == pytest.approx(np.pi * 0.04, rel=0.01)

    def test_scaled_surface(self, disk_mesh, density, iso):
        lam = 1.3
        y = cv.DeformationField(disk_mesh, lam * disk_mesh.vertices)
        bd = cv.total_energy(y, density, iso)
        assert bd.surface == pytest.approx(lam * bd.rho_artifact, rel=1e-12)

    def test_as_text_fields(self, disk_mesh, density, iso):
        y = cv.DeformationField(disk_mesh)
        text = cv.total_energy(y, density, iso).as_text()
        for key in ("bulk =", "surface =", "total =", "rho_artifact =",
                    "n_cavities = 1", "cavity_0_site", "cavity_0_perimeter"):
            assert key in text
        assert "inv_check" not in text  # the run summary writes its own line

    def test_slow_path_agrees(self, disk_mesh, radial_15):
        # the deformed puncture loop against the cavity of the degree construction
        y = cv.radial_lift(radial_15, disk_mesh)
        recs = cv.detect_cavities(y, cv.SurfaceDensity("isotropic"))
        assert len(recs) == 1
        site = recs[0].site
        slow = cv.topological_image_point(y, site, _default_radii(y.mesh, site), 0.02, m=192)
        assert slow is not None
        assert hausdorff_distance(recs[0].boundary, slow.boundary) <= 3 * 0.02


class TestSurfaceFunctionals:
    def test_sum_matches_isotropic_surface(self, disk_mesh, density, iso, radial_15):
        y = cv.radial_lift(radial_15, disk_mesh)
        bd = cv.total_energy(y, density, iso)
        assert abs(bd.surface - cv.surface_functional_S_sum(y)) <= 1e-9

    def test_targeted_field_recovers_most_of_the_surface(self, disk_mesh, radial_15):
        y = cv.radial_lift(radial_15, disk_mesh)
        ssum = cv.surface_functional_S_sum(y)
        eta = cv.SeparableTestField(x0=(0.0, 0.0), width=0.9, xi0=(0.0, 0.0),
                                    radii=(0.3, 0.9, 1.35, 1.48))
        val = cv.surface_functional_S_testfield(y, eta)
        assert val <= ssum + 1e-3
        assert val >= 0.8 * ssum

    def test_random_fields_stay_below_sum(self, disk_mesh, radial_15):
        y = cv.radial_lift(radial_15, disk_mesh)
        ssum = cv.surface_functional_S_sum(y)
        rng = np.random.default_rng(7)
        for _ in range(10):
            ang = rng.uniform(0, 2 * np.pi)
            rad = rng.uniform(0, 0.5)
            rr = np.sort(rng.uniform(0.05, 1.45, 4))
            rr[1] = min(rr[1], rr[2])
            eta = cv.SeparableTestField(
                x0=(rad * np.cos(ang), rad * np.sin(ang)),
                width=rng.uniform(0.3, 0.9), xi0=(0.0, 0.0),
                radii=tuple(rr), sign=-1.0 if rng.random() < 0.5 else 1.0)
            assert cv.surface_functional_S_testfield(y, eta) <= ssum + 1e-3

    def test_sup_norm_guard(self, disk_mesh, radial_15):
        y = cv.radial_lift(radial_15, disk_mesh)
        base = cv.SeparableTestField(x0=(0.0, 0.0), width=0.9, xi0=(0.0, 0.0),
                                     radii=(0.3, 0.9, 1.35, 1.48))

        class Doubled:
            def value(self, x, xi):
                return 2.0 * base.value(x, xi)

            def grad_x(self, x, xi):
                return 2.0 * base.grad_x(x, xi)

            def div_xi(self, x, xi):
                return 2.0 * base.div_xi(x, xi)

        with pytest.raises(DomainError):
            cv.surface_functional_S_testfield(y, Doubled())


class TestSeparableTestField:
    def test_gradients_match_finite_differences(self):
        eta = cv.SeparableTestField(x0=(0.1, -0.2), width=0.7, xi0=(0.05, 0.0),
                                    radii=(0.2, 0.5, 0.9, 1.2))
        rng = np.random.default_rng(11)
        x = rng.uniform(-0.4, 0.6, (40, 2))
        xi = rng.uniform(-1.0, 1.0, (40, 2))
        h = 1e-6
        G = eta.grad_x(x, xi)
        for j in range(2):
            dx = np.zeros(2)
            dx[j] = h
            fd = (eta.value(x + dx, xi) - eta.value(x - dx, xi)) / (2 * h)
            assert np.allclose(G[:, :, j], fd, atol=1e-7)
        D = eta.div_xi(x, xi)
        fd_div = np.zeros(len(xi))
        for j in range(2):
            dxi = np.zeros(2)
            dxi[j] = h
            fd_div += (eta.value(x, xi + dxi)[:, j]
                       - eta.value(x, xi - dxi)[:, j]) / (2 * h)
        assert np.allclose(D, fd_div, atol=1e-6)

    def test_sup_norm_below_one(self):
        eta = cv.SeparableTestField(x0=(0.0, 0.0), width=0.5, xi0=(0.0, 0.0),
                                    radii=(0.1, 0.3, 0.6, 0.9))
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (500, 2))
        xi = rng.uniform(-1, 1, (500, 2))
        assert np.linalg.norm(eta.value(x, xi), axis=1).max() <= 1.0 + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            cv.SeparableTestField(x0=(0, 0), width=0.5, xi0=(0, 0),
                                  radii=(0.5, 0.3, 0.6, 0.9))
        with pytest.raises(ValueError):
            cv.SeparableTestField(x0=(0, 0), width=-1.0, xi0=(0, 0),
                                  radii=(0.1, 0.3, 0.6, 0.9))
        with pytest.raises(ValueError):
            cv.SeparableTestField(x0=(0, 0), width=0.5, xi0=(0, 0),
                                  radii=(0.1, 0.3, 0.6, 0.9), sign=2.0)

