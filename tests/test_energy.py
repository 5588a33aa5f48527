import math

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.special import ellipe

import cavelast as cv
from cavelast._polyline import hausdorff_distance
from cavelast.cli import _read_positions_csv
from cavelast.degree import _default_radii
from cavelast.energy import _ROT, _SIX_POINT, _edge_normals, band_order
from cavelast.exceptions import DomainError, InfeasibleEnergyError
from cavelast.variation import _constrained_vertices
from conftest import folded


def _reference_element_gradients(mesh, pos):
    """The einsum F kernel that the sparse gradient operator replaced."""
    return np.einsum("tia,tib->tab", pos[mesh.triangles], mesh.shape_gradients)


def _reference_bulk_grad(mesh, density, F):
    """The einsum + add.at bulk gradient that the bincount scatter replaced."""
    out = np.zeros_like(mesh.vertices)
    np.add.at(out, mesh.triangles, np.einsum(
        "t,tab,tib->tia", mesh.areas, density.stress(F), mesh.shape_gradients))
    return out


def _reference_hess(energy, pos, F=None):
    """The csc projected Hessian over the free dofs that the banded assembly
    replaced: a pattern from one np.unique over every element entry, its
    data one np.bincount of the element values."""
    mesh = energy.mesh
    if F is None:
        F = mesh.element_gradients(pos)
    mask = energy.free
    n = 2 * int(np.sum(mask))
    dof = np.full((len(mask), 2), -1)
    dof[mask] = np.arange(n).reshape(-1, 2)
    elems = [mesh.triangles] + [np.stack([ids, np.roll(ids, -1)], axis=1)
                                for ids in energy.loops]
    corner = [dof[el].reshape(len(el), -1) for el in elems]
    row = np.concatenate([np.repeat(c, c.shape[1], axis=1).ravel() for c in corner])
    col = np.concatenate([np.tile(c, (1, c.shape[1])).ravel() for c in corner])
    both = (row >= 0) & (col >= 0)
    uniq, pair = np.unique(col[both] * n + row[both], return_inverse=True)
    slot = np.full(len(both), len(uniq))
    slot[both] = pair
    indices = (uniq % n).astype(np.int32)
    indptr = np.searchsorted(uniq // n, np.arange(n + 1)).astype(np.int32)
    nt = len(F)
    lam, vec = energy.density.hessian_eigensystem(F)
    btv = (mesh.shape_gradients[:, None] @ vec.reshape(nt, 2, 2, 4)
           ).transpose(0, 2, 1, 3).reshape(nt, 6, 4)
    w = mesh.areas[:, None] * np.maximum(lam, 0.0)
    vals = np.empty(len(slot))
    np.matmul(btv * w[:, None, :], btv.transpose(0, 2, 1),
              out=vals[:36 * nt].reshape(nt, 6, 6))
    sign = np.array([[1.0, -1.0], [-1.0, 1.0]])[:, None, :, None]
    at = 36 * nt
    for ids in energy.loops:
        z, nonzero = _edge_normals(pos[ids])
        H = np.zeros((len(ids), 2, 2))
        H[nonzero] = _ROT.T @ energy.phi.hessian(z) @ _ROT
        vals[at:at + 16 * len(ids)] = (sign * H[:, None, :, None, :]).ravel()
        at += 16 * len(ids)
    data = np.bincount(slot, weights=vals, minlength=len(indices) + 1)[:-1]
    return sparse.csc_matrix((data, indices, indptr), shape=(n, n))


def regular_ngon(n, r=1.0, center=(0.0, 0.0)):
    th = 2.0 * np.pi * np.arange(n) / n
    return np.asarray(center) + r * np.stack([np.cos(th), np.sin(th)], axis=1)


class TestQuadrature:
    def test_six_point_rule_exact_through_quartics(self):
        pts, wts = _SIX_POINT
        assert wts.sum() == pytest.approx(1.0, abs=1e-14)
        for p in range(5):
            for q in range(5 - p):
                got = float(np.sum(wts * pts[:, 0] ** p * pts[:, 1] ** q))
                want = 2.0 * math.factorial(p) * math.factorial(q) \
                    / math.factorial(p + q + 2)
                assert got == pytest.approx(want, abs=1e-14), (p, q)


class TestBulk:
    def test_identity_on_square(self, square_mesh, density, iso):
        y = cv.DeformationField(square_mesh)
        assert cv.total_energy(y, density, iso).bulk == pytest.approx(2.0, abs=1e-12)

    def test_double_on_square(self, square_mesh, density, iso):
        y = cv.DeformationField(square_mesh, 2.0 * square_mesh.vertices)
        want = 20.0 - math.log(4.0)
        assert cv.total_energy(y, density, iso).bulk == pytest.approx(want, rel=1e-12)

    def test_flipped_triangle_raises(self, square_mesh, density, iso):
        pos, v = folded(square_mesh)
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
            grads = E.state(pos).grad
            for v in nodes:
                for a in (0, 1):
                    plus, minus = pos.copy(), pos.copy()
                    plus[v, a] += t
                    minus[v, a] -= t
                    vp, vm = E.state(plus).value, E.state(minus).value
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
            F = _reference_element_gradients(mesh, pos)
            bulk = float(np.sum(mesh.areas * density.energy(F)))
            surf = 0.0
            for ids in mesh.puncture_loops():
                e = np.roll(pos[ids], -1, axis=0) - pos[ids]
                surf += float(np.sum(phi.value(np.stack([e[:, 1], -e[:, 0]], axis=1))))
            return bulk, surf

        def gradient(pos, mesh, phi):
            out = _reference_bulk_grad(mesh, density, _reference_element_gradients(mesh, pos))
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
                    state = E.state(pos)
                    bulk, surface, mind = state.value
                    assert (bulk, surface) == energy_terms(pos, mesh, phi)
                    assert mind == cv.DeformationField(mesh, pos).element_dets().min()
                    assert np.array_equal(np.add(*state.grad), gradient(pos, mesh, phi))
                    bd = cv.total_energy(cv.DeformationField(mesh, pos), density, phi)
                    assert (bd.bulk, bd.surface, bd.total) == (bulk, surface, bulk + surface)

    def test_folded_field(self, square_mesh, density, iso):
        pos, _ = folded(square_mesh)
        state = cv.DiscreteEnergy(square_mesh, density, iso).state(pos)
        bulk, surface, mind = state.value
        assert bulk is None and surface is None and mind <= 0.0
        # every other read raises, naming the first triangle of least det
        least = int(np.argmin(state.det))
        reads = {"bulk_grad": lambda: state.bulk_grad, "grad": lambda: state.grad,
                 "hess": state.hess, "breakdown": lambda: state.breakdown}
        for name, read in reads.items():
            with pytest.raises(InfeasibleEnergyError, match=f"in triangle {least}$") as ei:
                read()
            assert ei.value.triangle == least, name

    @staticmethod
    def two_fields(stretched_disk):
        square = cv.build_square_mesh(2.0, 0.25, punctures=[((0.6, 0.6), 0.15),
                                                            ((1.4, 1.3), 0.2)])
        rng = np.random.default_rng(8)
        for y in (stretched_disk, cv.DeformationField(square, 1.4 * square.vertices)):
            yield y.mesh, y.positions + 0.003 * rng.standard_normal(y.positions.shape)

    def test_hessian_matches_central_difference(self, stretched_disk, dense_hess):
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
                H = dense_hess(E, pos)
                assert H.shape == (pos.size, pos.size)
                # the element sums are symmetric to rounding, so the band,
                # their upper triangle, loses nothing
                R = _reference_hess(E, pos).toarray()
                assert np.abs(R - R.T).max() <= 1e-13 * np.abs(R).max()
                for v in nodes:
                    for a in (0, 1):
                        plus, minus = pos.copy(), pos.copy()
                        plus[v, a] += t
                        minus[v, a] -= t
                        fd = (np.add(*E.state(plus).grad)
                              - np.add(*E.state(minus).grad)) / (2 * t)
                        assert np.allclose(H[:, 2 * v + a], fd.ravel(),
                                           rtol=1e-6, atol=1e-6), (phi.kind, v, a)

    def test_hessian_projected_and_restricted(self, stretched_disk, density, dense_hess):
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
                H = dense_hess(E, pos)
                assert np.linalg.eigvalsh(H).min() >= -1e-10 * np.abs(H).max()
                dofs = np.repeat(free, 2)
                # the band holds one triangle, and which one depends on the
                # mask's order, so the restriction is asserted exactly on the
                # reference, whose upper band the band equals bit for bit
                # (TestElementKernels)
                R = _reference_hess(E, pos).toarray()
                Ef = cv.DiscreteEnergy(mesh, density, phi, free)
                assert np.array_equal(_reference_hess(Ef, pos, F).toarray(),
                                      R[np.ix_(dofs, dofs)])
                Hf = dense_hess(Ef, pos)
                assert np.linalg.eigvalsh(Hf).min() > 0.0
                # each call builds a fresh band, which the Newton step overwrites
                state = Ef.state(pos)
                state.hess()[:] = 0.0
                assert np.array_equal(state.hess(), Ef.state(pos).hess())

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

    def test_hess_calls_no_eigh(self, stretched_disk, density, ell, monkeypatch,
                                dense_hess):
        # the referee projects every block through np.linalg.eigh; hess
        # must give the same matrix without calling it
        class EighDensity(cv.BulkDensity):
            def hessian_eigensystem(self, F, det=None):
                return np.linalg.eigh(self.hessian(F).reshape(-1, 4, 4))

        fields = list(self.two_fields(stretched_disk))
        want = [dense_hess(cv.DiscreteEnergy(mesh, EighDensity(), ell), pos)
                for mesh, pos in fields]

        def refuse(*args, **kwargs):
            raise AssertionError("EnergyState.hess called np.linalg.eigh")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for H, (mesh, pos) in zip(want, fields):
            got = dense_hess(cv.DiscreteEnergy(mesh, density, ell), pos)
            assert np.abs(got - H).max() <= 1e-12 * np.abs(H).max()


class TestBandLayout:
    """The Cuthill-McKee order and the band layout `minimize` factors."""

    @staticmethod
    def masks(mesh):
        # the run's mask, and one whose free dofs split into two components
        # on either side of a fixed strip |x| <= 0.3
        free = np.ones(len(mesh.vertices), dtype=bool)
        free[_constrained_vertices(mesh)] = False
        split = free & (np.abs(mesh.vertices[:, 0]) > 0.3)
        return {"run": free, "two_components": split}

    def test_order_is_a_permutation(self, disk_mesh, density, iso):
        # a pattern of three components (two paths and a lone node) and the
        # Hessian patterns of both masks: every node placed exactly once
        path = sparse.diags([1.0, 1.0, 1.0], [-1, 0, 1], shape=(5, 5))
        pattern = sparse.block_diag([path, sparse.eye(1), path]).tocsc()
        order = band_order(pattern.indptr, pattern.indices)
        assert sorted(order.tolist()) == list(range(11))
        # each component is contiguous, from an end of each path
        assert set(order[:5].tolist()) in ({0, 1, 2, 3, 4}, {6, 7, 8, 9, 10})
        assert order[0] in (0, 4, 6, 10)
        for name, free in self.masks(disk_mesh).items():
            E = cv.DiscreteEnergy(disk_mesh, density, iso, free)
            order, _, _ = E.band_layout
            assert sorted(order.tolist()) == list(range(2 * int(free.sum()))), name
            pieces, _ = connected_components(_reference_hess(E, disk_mesh.vertices))
            assert pieces == (2 if name == "two_components" else 1)

    @staticmethod
    def dof_graph_order(mesh, free, loops):
        """`band_order` of the free-dof graph itself: dofs 2 v + axis of the
        free vertices, joined when an element couples them."""
        n = 2 * int(free.sum())
        dof = np.full((len(free), 2), -1)
        dof[free] = np.arange(n).reshape(-1, 2)
        elems = [mesh.triangles] + [np.stack([ids, np.roll(ids, -1)], axis=1) for ids in loops]
        corner = [dof[el].reshape(len(el), -1) for el in elems]
        row = np.concatenate([np.repeat(c, c.shape[1], axis=1).ravel() for c in corner])
        col = np.concatenate([np.tile(c, (1, c.shape[1])).ravel() for c in corner])
        both = (row >= 0) & (col >= 0)
        graph = sparse.csc_matrix((np.ones(int(both.sum())), (row[both], col[both])),
                                  shape=(n, n))
        return band_order(graph.indptr, graph.indices)

    def test_order_is_the_dof_graph_order(self, disk_mesh, density, iso):
        # band_layout's order is band_order of the dof graph as scipy's csc
        # pattern gives it, digit for digit, and so the same band
        annulus = cv.build_annulus_mesh(1.0, 0.4, 0.12, punctures=[((0.65, 0.1), 0.06),
                                                                   ((-0.65, 0.0), 0.07)])
        for mesh in (disk_mesh, cv.build_disk_mesh(1.0, 0.035, punctures=[((0.0, 0.0), 0.2)]),
                     annulus):
            for name, free in self.masks(mesh).items():
                E = cv.DiscreteEnergy(mesh, density, iso, free)
                order, _, _ = E.band_layout
                assert np.array_equal(order, self.dof_graph_order(mesh, free, E.loops)), name

    def test_order_on_small_patterns(self):
        # random symmetric patterns with their diagonal (isolated nodes and
        # two-level components included), every star, and the Kronecker
        # product of each with a 2 x 2 block (a dof graph): every node is
        # placed exactly once, and each connected component is contiguous
        rng = np.random.default_rng(5)
        patterns = []
        for _ in range(200):
            n = int(rng.integers(1, 25))
            A = sparse.random(n, n, density=float(rng.uniform(0.02, 0.4)), random_state=rng)
            patterns.append(A + A.T + sparse.eye(n))
        for n in range(1, 7):
            for c in range(n):
                patterns.append(sparse.csc_matrix((np.ones(2 * n), ([c] * n + list(range(n)),
                                                                     list(range(n)) + [c] * n)),
                                                  shape=(n, n)) + sparse.eye(n))
        for A in patterns:
            A = (sparse.csc_matrix(A) != 0).astype(float).tocsc()
            for P in (A, sparse.kron(A, np.ones((2, 2)), format="csc")):
                P.sort_indices()
                order = band_order(P.indptr, P.indices)
                assert sorted(order.tolist()) == list(range(P.shape[0])), A.toarray()
                _, label = connected_components(P)
                runs = label[order][1:] != label[order][:-1]
                assert runs.sum() == len(set(label.tolist())) - 1, A.toarray()

    @pytest.mark.parametrize("damping", [1.0, 1e-7])
    def test_band_is_lower_band_of_damped_hessian(self, stretched_disk, density, ell,
                                                  damping):
        mesh, pos = stretched_disk.mesh, stretched_disk.positions
        for name, free in self.masks(mesh).items():
            E = cv.DiscreteEnergy(mesh, density, ell, free)
            order, width, _ = E.band_layout
            band = E.state(pos).hess()
            band[0] *= 1.0 + damping
            dense = _reference_hess(E, pos).toarray()
            dense[np.diag_indices_from(dense)] *= 1.0 + damping
            P = dense[np.ix_(order, order)]
            i, j = np.indices(P.shape)
            assert not P[np.abs(i - j) > width].any(), name
            want = np.zeros_like(band)
            for k in range(width + 1):  # row k holds superdiagonal k at its twin's place
                want[k, :len(P) - k] = np.diagonal(P, k)
            assert np.array_equal(band, want), name

    def test_band_of_fine_iso_mesh(self, density, iso):
        # a pseudo-peripheral start keeps the band of the h = 0.025 iso
        # mesh near 200 dofs; scipy's reverse Cuthill-McKee gives 401 there
        mesh = cv.build_disk_mesh(1.0, 0.025, punctures=[((0.0, 0.0), 0.2)])
        free = self.masks(mesh)["run"]
        _, width, _ = cv.DiscreteEnergy(mesh, density, iso, free).band_layout
        assert width <= 250


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestElementKernels:
    """`Mesh.element_gradients` (a cached sparse operator) and
    `EnergyState.bulk_grad` (a bincount scatter) sum in the order of the
    einsum kernels they replaced, so every bit, zero signs included, is
    theirs."""

    @pytest.fixture(scope="class")
    def fields(self, iso_run):
        _, run_dir = iso_run
        bundled = cv.load_mesh(run_dir / "mesh.cavmesh")
        fine = cv.build_disk_mesh(1.0, 0.035, punctures=[((0.0, 0.0), 0.2)])
        annulus = cv.build_annulus_mesh(1.0, 0.4, 0.12, punctures=[((0.65, 0.1), 0.06),
                                                                   ((-0.65, 0.0), 0.07)])
        rng = np.random.default_rng(11)
        shear = np.array([[1.3, 0.2], [-0.1, 0.9]])
        return {
            "bundled_identity": (bundled, bundled.vertices),
            "bundled_converged": (bundled, _read_positions_csv(run_dir / "positions.csv",
                                                               len(bundled.vertices))),
            "disk_h0.035": (fine, 1.5 * fine.vertices
                            + 0.002 * rng.standard_normal(fine.vertices.shape)),
            "annulus_two_punctures": (annulus, annulus.vertices @ shear.T
                                      + 5e-4 * rng.standard_normal(annulus.vertices.shape)),
        }

    @pytest.mark.parametrize("case", ["bundled_identity", "bundled_converged",
                                      "disk_h0.035", "annulus_two_punctures"])
    def test_match_reference_bits(self, fields, density, iso, case):
        mesh, pos = fields[case]
        F = mesh.element_gradients(pos)
        want = _reference_element_gradients(mesh, pos)
        assert _same_bits(F, want)
        if case == "bundled_identity":
            assert np.any(want == 0.0)  # zero entries, whose signs must agree too
        assert _same_bits(cv.DiscreteEnergy(mesh, density, iso).state(pos).bulk_grad,
                          _reference_bulk_grad(mesh, density, want))

    @pytest.mark.parametrize("case", ["bundled_identity", "bundled_converged",
                                      "disk_h0.035", "annulus_two_punctures"])
    def test_hess_band_matches_reference_bits(self, fields, density, ell, case):
        # each band entry sums the element values the csc assembly summed,
        # in the same order, so the band holds the reference's upper band in
        # the band order, bit for bit, entry (i, j) at the lower place of (j, i)
        mesh, pos = fields[case]
        for name, free in TestBandLayout.masks(mesh).items():
            E = cv.DiscreteEnergy(mesh, density, ell, free)
            order, width, _ = E.band_layout
            band = E.state(pos).hess()
            assert band.shape == (width + 1, len(order)) and band.flags.f_contiguous
            ref = _reference_hess(E, pos).tocoo()
            rank = np.argsort(order)
            i, j = rank[ref.row], rank[ref.col]
            assert np.abs(i - j).max() <= width, (case, name)
            up = i <= j
            want = np.zeros_like(band)
            want[j[up] - i[up], i[up]] = ref.data[up]
            assert _same_bits(band, want), (case, name)

    def test_operator_layout(self, disk_mesh):
        op = disk_mesh.gradient_operator
        m, n = len(disk_mesh.triangles), len(disk_mesh.vertices)
        assert op.shape == (4 * m, 2 * n) and op.format == "csr"
        assert op.indices.dtype == op.indptr.dtype == np.int32
        assert np.array_equal(np.diff(op.indptr), np.full(4 * m, 3))
        assert disk_mesh.gradient_operator is op  # built once per mesh


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
        assert rec.radius_mean() == pytest.approx(0.2, rel=1e-9)
        assert rec.area == pytest.approx(np.pi * 0.04, rel=0.01)

    def test_crossed_puncture_loop_warns(self, disk_mesh, iso):
        # two adjacent loop vertices trade places, so the loop crosses itself
        ids = disk_mesh.puncture_loops()[0]
        pos = disk_mesh.vertices.copy()
        pos[ids[[0, 1]]] = pos[ids[[1, 0]]]
        y = cv.DeformationField(disk_mesh, pos)
        with pytest.warns(RuntimeWarning, match="self-intersecting cavity boundary; "
                                                "perimeter is formal"):
            cv.detect_cavities(y, iso)

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
        slow = cv.topological_image_point(y, site, _default_radii(y.mesh, site), 0.02)
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

