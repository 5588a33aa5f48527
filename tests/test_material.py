import warnings

import numpy as np
import pytest

import cavelast as cv
from cavelast.exceptions import DomainError


def random_gradients(rng, n):
    """Batch of 2x2 matrices with comfortably positive determinant."""
    F = np.eye(2) + 0.4 * rng.standard_normal((n, 2, 2))
    dets = F[:, 0, 0] * F[:, 1, 1] - F[:, 0, 1] * F[:, 1, 0]
    F[dets < 0.2] = np.eye(2) + 0.05 * rng.standard_normal((np.sum(dets < 0.2), 2, 2))
    return F


class TestBulkDensity:
    def test_constants_must_be_positive(self):
        with pytest.raises(ValueError, match="mu, a, b must all be positive"):
            cv.BulkDensity(mu=1.0, a=0.0, b=1.0)

    def test_energy_at_identity(self, density):
        assert density.energy(np.eye(2)[None])[0] == pytest.approx(2.0, abs=1e-14)

    def test_stress_at_identity(self, density):
        S = density.stress(np.eye(2)[None])[0]
        assert np.allclose(S, 2.0 * np.eye(2), atol=1e-14)

    def test_stress_biaxial(self, density):
        # balanced biaxial: cof-term contributions symmetrize
        S = density.stress(np.diag([2.0, 0.5])[None])[0]
        assert np.allclose(S, np.diag([2.5, 2.5]), atol=1e-13)

    def test_stress_is_energy_derivative(self, density):
        rng = np.random.default_rng(11)
        F = random_gradients(rng, 20)
        S = density.stress(F)
        h = 1e-6
        for k in range(20):
            for i in range(2):
                for j in range(2):
                    Fp = F[k].copy()
                    Fm = F[k].copy()
                    Fp[i, j] += h
                    Fm[i, j] -= h
                    fd = (density.energy(Fp[None])[0] - density.energy(Fm[None])[0]) / (2 * h)
                    assert S[k, i, j] == pytest.approx(fd, rel=2e-6, abs=1e-8)

    def test_hessian_is_stress_derivative(self, density):
        rng = np.random.default_rng(12)
        F = random_gradients(rng, 20)
        H = density.hessian(F)
        assert H.shape == (20, 2, 2, 2, 2)
        assert np.array_equal(H, H.transpose(0, 3, 4, 1, 2))
        h = 1e-6
        for i in range(2):
            for j in range(2):
                dF = np.zeros((2, 2))
                dF[i, j] = h
                fd = (density.stress(F + dF) - density.stress(F - dF)) / (2 * h)
                assert np.allclose(H[:, :, :, i, j], fd, rtol=1e-6, atol=1e-8)
        # polyconvex, not convex: stretching makes D^2W indefinite
        assert np.linalg.eigvalsh(density.hessian(np.diag([1.5, 1.5])).reshape(4, 4))[0] < 0.0

    def test_energy_rejects_nonpositive_det(self, density):
        with pytest.raises(DomainError):
            density.energy(np.diag([1.0, -1.0])[None])
        with pytest.raises(DomainError):
            density.energy(np.diag([1.0, 0.0])[None])

    def test_energy_blows_up_toward_collapse(self, density):
        # -log(det) barrier
        small = density.energy(np.diag([1e-6, 1.0])[None])[0]
        assert small > 10.0

    def test_gamma_minimum_and_shift(self, density):
        hstar = np.sqrt(density.b / (2.0 * density.a))
        raw_min = 0.5 * density.b * (1.0 - np.log(density.b / (2.0 * density.a)))
        assert density.gamma(np.array([hstar]))[0] == pytest.approx(max(raw_min, 0.0), abs=1e-12)
        h = np.linspace(0.05, 4.0, 200)
        assert density.gamma(h).min() >= -1e-12

    def test_gamma_shift_activates_for_large_b(self):
        d = cv.BulkDensity(1.0, 1.0, 10.0)
        hstar = np.sqrt(5.0)
        assert d.gamma(np.array([hstar]))[0] == pytest.approx(0.0, abs=1e-12)
        assert d.gamma(np.array([0.01]))[0] > 0.0

    def test_gamma_rejects_nonpositive(self, density):
        with pytest.raises(DomainError):
            density.gamma(np.array([-1.0]))

    def test_coercivity_gap_exact_for_quadratic_exponent(self, density):
        rng = np.random.default_rng(5)
        F = random_gradients(rng, 30)
        assert np.max(np.abs(density.coercivity_gap(F))) <= 1e-12

    def test_stress_control_ratio_bounded(self, density):
        rng = np.random.default_rng(7)
        F = random_gradients(rng, 200)
        ratios = density.stress_control_ratio(F)
        assert np.all(np.isfinite(ratios))
        # near-collapse states stay controlled by the energy
        F_thin = np.diag([1e-3, 1.0])[None]
        assert density.stress_control_ratio(F_thin)[0] < 10.0

    def test_energy_change_of_order_one_steps(self, density):
        rng = np.random.default_rng(21)
        F, G = random_gradients(rng, 50), random_gradients(rng, 50)
        got = density.energy_change(F, G - F)
        want = density.energy(F + (G - F)) - density.energy(F)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_energy_change_resolves_tiny_steps(self, density):
        rng = np.random.default_rng(22)
        F = random_gradients(rng, 50)
        dF = 1e-10 * rng.standard_normal((50, 2, 2))
        second = 0.5 * np.einsum("nab,nabcd,ncd->n", dF, density.hessian(F), dF)
        taylor = np.einsum("nab,nab->n", density.stress(F), dF) + second
        rel = np.abs(density.energy_change(F, dF) - taylor) / np.abs(taylor)
        assert rel.max() <= 1e-8
        # the difference of two computed energies cannot see such a step
        naive = density.energy(F + dF) - density.energy(F)
        assert (np.abs(naive - taylor) / np.abs(taylor)).max() > 1e-8

    def test_energy_change_on_a_collapsing_element(self, density):
        rng = np.random.default_rng(23)
        F = random_gradients(rng, 20)
        # det(F + dF) = 1e-12 det F: uniformly, and along one column
        for dF in ((1e-6 - 1.0) * F, F @ np.diag([1e-12 - 1.0, 0.0])):
            assert np.allclose(np.linalg.det(F + dF), 1e-12 * np.linalg.det(F), rtol=1e-3)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = density.energy_change(F, dF)
            want = density.energy(F + dF) - density.energy(F)
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_energy_change_rejects_nonpositive_det(self, density):
        F = np.eye(2)[None]
        for before, step in ((np.diag([1.0, -1.0])[None], np.zeros((1, 2, 2))),
                             (F, np.diag([-1.0, 0.0])[None]),
                             (F, np.diag([-2.0, 0.0])[None])):
            with pytest.raises(DomainError):
                density.energy_change(before, step)


def _ulps(got, want):
    """|got - want| in units of the spacing at the larger of the two."""
    return np.abs(got - want) / np.spacing(np.maximum(np.abs(got), np.abs(want)))


class TestStretchForms:
    """The principal-stretch forms, refereed by the matrix forms at
    diag(v1, v2). Both do the same arithmetic (the matrix forms only add
    exact zeros), so they agree to ULPS; on x86-64 they give the same bits."""

    ULPS = 2.0
    DENSITIES = (cv.BulkDensity(), cv.BulkDensity(10.0, 0.3, 2.0), cv.BulkDensity(0.1, 5.0, 0.5))

    @staticmethod
    def cases():
        """(v1, v2, d1, d2): stretches from 1e-6 to 10, the first 100 on the
        1e-6 floor the radial solver keeps a closed hole at, and steps from
        -0.99 to 2 times the stretch (a determinant change >= det / 2) and
        10^-9 of that."""
        rng = np.random.default_rng(41)
        n = 2000
        v1, v2 = 10.0 ** rng.uniform(-6.0, 1.0, (2, n))
        v1[:100] = 1e-6 * (1.0 + rng.uniform(0.0, 1e-3, 100))
        d1, d2 = np.array([v1, v2]) * rng.uniform(-0.99, 2.0, (2, n))
        d1[n // 2:] *= 1e-9
        d2[n // 2:] *= 1e-9
        return v1, v2, d1, d2

    @staticmethod
    def diag(v1, v2):
        F = np.zeros(v1.shape + (2, 2))
        F[:, 0, 0], F[:, 1, 1] = v1, v2
        return F

    @pytest.mark.parametrize("density", DENSITIES, ids=["unit", "stiff", "soft"])
    def test_match_the_matrix_forms(self, density):
        v1, v2, d1, d2 = self.cases()
        F, dF = self.diag(v1, v2), self.diag(d1, d2)
        collapsing = np.abs(v2 * d1 + v1 * d2 + d1 * d2) >= 0.5 * v1 * v2
        assert 100 < collapsing.sum() < len(v1) // 2  # both branches of the change
        assert _ulps(density.stretch_energy(v1, v2), density.energy(F)).max() <= self.ULPS
        S, H = density.stress(F), density.hessian(F)
        for got, want in zip(density.stretch_stress(v1, v2), (S[:, 0, 0], S[:, 1, 1])):
            assert _ulps(got, want).max() <= self.ULPS
        for got, (i, j) in zip(density.stretch_hessian(v1, v2), ((0, 0), (0, 1), (1, 1))):
            assert _ulps(got, H[:, i, i, j, j]).max() <= self.ULPS
        assert np.array_equal(H[:, 1, 1, 0, 0], H[:, 0, 0, 1, 1])  # W_21 = W_12
        assert _ulps(density.stretch_change(v1, v2, d1, d2),
                     density.energy_change(F, dF)).max() <= self.ULPS

    def test_change_to_the_floor_forms_the_new_determinant_as_a_product(self, density):
        # steps that take v1 from the floor to within 1e-13 of zero: there
        # det + ddet rounds to zero or below, the product (v1 + d1)(v2 + d2)
        # stays positive, and the change stays finite
        rng = np.random.default_rng(42)
        v1 = 1e-6 * (1.0 + rng.uniform(0.0, 1e-3, 2000))
        v2 = rng.uniform(1e-6, 10.0, 2000)
        d1 = -v1 * (1.0 - 10.0 ** rng.uniform(-16.0, -13.0, 2000))
        d2 = v2 * rng.uniform(-0.5, 0.5, 2000)
        rounded = v1 * v2 + (v2 * d1 + v1 * d2 + d1 * d2)
        assert (rounded <= 0.0).sum() > 10 and ((v1 + d1) * (v2 + d2) > 0.0).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = density.stretch_change(v1, v2, d1, d2)
        assert np.isfinite(got).all()
        want = density.energy_change(self.diag(v1, v2), self.diag(d1, d2))
        assert _ulps(got, want).max() <= self.ULPS

    def test_reject_nonpositive_det(self, density):
        one = np.ones(1)
        with pytest.raises(DomainError):
            density.stretch_energy(one, -one)
        with pytest.raises(DomainError):
            density.stretch_stress(0.0 * one, one)
        with pytest.raises(DomainError):
            density.stretch_hessian(-one, one)
        with pytest.raises(DomainError):
            density.stretch_change(one, one, -2.0 * one, 0.0 * one)


def _rot(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)


def eigensystem_cases(density, stretched_disk):
    """Named (n, 2, 2) batches of F with det > 0: seeded random ones, the
    stretched disk, and the edge cases of the closed form."""
    rng = np.random.default_rng(31)
    wide = rng.standard_normal((400, 2, 2))
    wide[np.linalg.det(wide) < 0.0, :, 0] *= -1.0  # a column flip makes det > 0
    theta = rng.uniform(0.0, 2.0 * np.pi, 40)
    scale = rng.uniform(0.05, 4.0, 40)
    anti = np.array([[0.6, 0.8], [0.8, -0.6]])  # |F_a| / sqrt 2 = 1
    # det = sqrt(b / 2a): k = 0, so mu + k = mu - k
    hstar = np.sqrt(density.b / (2.0 * density.a))
    stretch = rng.uniform(0.3, 3.0, 20)
    mesh = stretched_disk.mesh
    disk = stretched_disk.positions + 0.003 * rng.standard_normal(stretched_disk.positions.shape)
    return {
        "random": random_gradients(rng, 400),
        "wide random": wide,
        "stretched disk": mesh.element_gradients(disk),
        "lambda I": np.array([0.01, 0.5, 1.0, 2.5, 100.0])[:, None, None] * np.eye(2),
        "rotation-dilation": scale[:, None, None] * _rot(theta),
        "near anticonformal": anti + (1.0 + 1e-9) * _rot(theta),
        "thin": _rot(theta[:20]) @ np.diag([1.0, 1e-9]) @ _rot(theta[20:]),
        "k = 0": _rot(theta[:20]) @ (stretch[:, None, None] * np.diag([1.0, 0.0])
                                     + hstar / stretch[:, None, None] * np.diag([0.0, 1.0])),
    }


class TestHessianEigensystem:
    """The closed-form eigensystem of D^2W, refereed by `np.linalg.eigh`."""

    DENSITIES = (cv.BulkDensity(), cv.BulkDensity(10.0, 0.3, 2.0), cv.BulkDensity(0.1, 5.0, 0.5))

    def test_matches_eigh(self, stretched_disk):
        for density in self.DENSITIES:
            for name, F in eigensystem_cases(density, stretched_disk).items():
                with np.errstate(all="raise"):
                    lam, vec = density.hessian_eigensystem(F)
                assert lam.shape == (len(F), 4) and vec.shape == (len(F), 4, 4)
                H = density.hessian(F).reshape(-1, 4, 4)
                scale = np.abs(H).max(axis=(1, 2))[:, None, None]
                back = vec @ (lam[:, :, None] * vec.transpose(0, 2, 1))
                assert np.all(np.abs(back - H) <= 1e-12 * scale), name
                gram = vec.transpose(0, 2, 1) @ vec
                assert np.abs(gram - np.eye(4)).max() <= 1e-12, name
                lam_ref, vec_ref = np.linalg.eigh(H)
                clip = vec @ (np.maximum(lam, 0.0)[:, :, None] * vec.transpose(0, 2, 1))
                ref = vec_ref @ (np.maximum(lam_ref, 0.0)[:, :, None]
                                 * vec_ref.transpose(0, 2, 1))
                assert np.all(np.abs(clip - ref) <= 1e-12 * scale), name
                assert np.all(np.abs(np.sort(lam, axis=1) - lam_ref)
                              <= 1e-12 * scale[:, :, 0]), name

    def test_edge_cases_are_hit(self, density, stretched_disk):
        cases = eigensystem_cases(density, stretched_disk)
        lam, _ = density.hessian_eigensystem(cases["k = 0"])
        assert np.allclose(lam[:, 2], lam[:, 3], rtol=1e-14)  # mu + k = mu - k
        det = np.linalg.det(cases["near anticonformal"])
        assert 0.0 < det.max() < 1e-8
        # the stretched disk makes D^2W indefinite: the clip acts there
        assert density.hessian_eigensystem(cases["stretched disk"])[0].min() < 0.0

    def test_given_det_changes_nothing(self, density, stretched_disk):
        # a det the caller has computed and tested is taken as it is, for a
        # batch and for a single matrix with a Python float
        F = stretched_disk.element_gradients()
        det = cv.material._det2(F)
        for name in ("energy", "stress", "hessian_eigensystem"):
            method = getattr(density, name)
            for got, want in ((method(F, det), method(F)),
                              (method(F[0], float(det[0])), method(F[0]))):
                got, want = (got, want) if name == "hessian_eigensystem" else ((got,), (want,))
                assert all(np.array_equal(a, b) for a, b in zip(got, want)), name

    def test_single_matrix_and_nonpositive_det(self, density):
        lam, vec = density.hessian_eigensystem(np.diag([1.5, 0.7]))
        assert lam.shape == (4,) and vec.shape == (4, 4)
        with pytest.raises(DomainError):
            density.hessian_eigensystem(np.diag([1.0, -1.0])[None])
        with pytest.raises(DomainError):
            density.hessian_eigensystem(np.diag([1.0, 0.0])[None])


class TestSurfaceDensity:
    def test_isotropic_is_euclidean_norm(self, iso):
        z = np.array([[3.0, 4.0], [1.0, 0.0], [-2.0, 0.0]])
        assert np.allclose(iso.value(z), [5.0, 1.0, 2.0], atol=1e-14)

    def test_elliptic_values(self, ell):
        assert ell.value(np.array([[1.0, 0.0]]))[0] == pytest.approx(2.0, abs=1e-14)
        z = np.array([[1.0, 1.0]]) / np.sqrt(2.0)
        assert ell.value(z)[0] == pytest.approx(np.sqrt(2.5), abs=1e-14)

    def test_one_homogeneity(self, iso, ell):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((50, 2))
        t = rng.uniform(0.1, 5.0, 50)
        for phi in (iso, ell):
            assert np.allclose(phi.value(t[:, None] * z), t * phi.value(z), rtol=1e-12)

    def test_euler_identity(self, iso, ell):
        # Dphi(z) . z = phi(z) for positively one-homogeneous phi
        rng = np.random.default_rng(4)
        z = rng.standard_normal((50, 2))
        for phi in (iso, ell):
            g = phi.gradient(z)
            assert np.allclose(np.sum(g * z, axis=1), phi.value(z), rtol=1e-12)

    def test_gradient_matches_finite_differences(self, iso, ell):
        rng = np.random.default_rng(9)
        z = rng.standard_normal((20, 2))
        sl1 = cv.SurfaceDensity("smoothed_l1", eps=0.1)
        h = 1e-7
        for phi in (iso, ell, sl1):
            g = phi.gradient(z)
            for i in range(2):
                dz = np.zeros(2)
                dz[i] = h
                fd = (phi.value(z + dz) - phi.value(z - dz)) / (2 * h)
                assert np.allclose(g[:, i], fd, rtol=1e-5, atol=1e-7)

    def test_hessian_annihilates_radial_direction(self, iso, ell):
        # second derivative of a one-homogeneous function kills z itself
        rng = np.random.default_rng(13)
        z = rng.standard_normal((20, 2))
        for phi in (iso, ell, cv.SurfaceDensity("smoothed_l1", eps=0.1)):
            H = phi.hessian(z)
            assert np.allclose(np.einsum("nij,nj->ni", H, z), 0.0, atol=1e-10)

    def test_hessian_positive_on_tangent(self, iso, ell):
        theta = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        nu = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        tau = np.stack([-np.sin(theta), np.cos(theta)], axis=1)
        for phi in (iso, ell, cv.SurfaceDensity("smoothed_l1", eps=0.1)):
            H = phi.hessian(nu)
            quad = np.einsum("ni,nij,nj->n", tau, H, tau)
            assert quad.min() > 0.0

    def test_hessian_matches_finite_differences(self, iso, ell):
        rng = np.random.default_rng(21)
        z = rng.standard_normal((20, 2))
        h = 1e-6
        for phi in (iso, ell, cv.SurfaceDensity("smoothed_l1", eps=0.1),
                    cv.SurfaceDensity("smoothed_l1", eps=0.6)):
            H = phi.hessian(z)
            for i in range(2):
                dz = np.zeros(2)
                dz[i] = h
                fd = (phi.gradient(z + dz) - phi.gradient(z - dz)) / (2 * h)
                assert np.allclose(H[:, :, i], fd, rtol=1e-6, atol=1e-8), (phi.kind, phi.eps)

    def test_smoothed_l1_above_l1_shrinks_with_eps(self):
        z = np.array([[3.0, 4.0]])
        tight = cv.SurfaceDensity("smoothed_l1", eps=1e-4)
        assert tight.value(z)[0] == pytest.approx(7.0, rel=1e-3)

    def test_zero_vector_rejected(self, iso):
        with pytest.raises(DomainError):
            iso.gradient(np.zeros((1, 2)))

    def test_lower_bound_constant(self, iso, ell):
        def lower_bound_constant(phi, n):
            # min of phi over n equally spaced unit directions
            th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
            return float(phi.value(np.stack([np.cos(th), np.sin(th)], axis=-1)).min())

        assert lower_bound_constant(iso, 256) == pytest.approx(1.0, rel=1e-6)
        # elliptic lower bound: min over unit directions of sqrt(z A z) = sqrt(lam_min)
        assert lower_bound_constant(ell, 256) == pytest.approx(1.0, rel=1e-3)
        assert lower_bound_constant(ell, 256) <= lower_bound_constant(ell, 512) + 1e-9

    def test_elliptic_requires_spd(self):
        with pytest.raises(ValueError):
            cv.SurfaceDensity("elliptic", A=np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError):
            cv.SurfaceDensity("elliptic", A=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            cv.SurfaceDensity("manhattan")

    def test_elliptic_matrix_must_be_2x2(self):
        with pytest.raises(ValueError, match="2x2"):
            cv.SurfaceDensity("elliptic", A=np.eye(3))

    def test_smoothed_l1_eps_must_be_positive(self):
        with pytest.raises(ValueError, match="eps must be positive"):
            cv.SurfaceDensity("smoothed_l1", eps=0.0)
