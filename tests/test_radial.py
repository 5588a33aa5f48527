import csv
import importlib.util
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ellipe

import cavelast as cv
from blas_core import numpy_simd
from cavelast import radial

MAKE_GOLDEN = Path(__file__).resolve().parents[1] / "scripts" / "make_golden.py"
COMMITTED_GOLDEN = Path(cv.__file__).parent / "golden" / "v1"


def _make_golden(*args, env=None):
    return subprocess.run([sys.executable, str(MAKE_GOLDEN), *args],
                          capture_output=True, text=True, timeout=120, env=env)


def _first_seed_stalls(monkeypatch):
    """Patch `radial._descend` so that the first seed of the next solve
    stalls at its start; returns the true statuses of the patched calls."""
    descend = radial._descend
    calls = []

    def first_seed_stalls(f, vals, *args):
        v, status = descend(f, vals, *args)
        calls.append(status)
        return (vals[:-1].copy(), "stalled") if len(calls) == 1 else (v, status)

    monkeypatch.setattr(radial, "_descend", first_seed_stalls)
    return calls


class TestProfile:
    def test_accessors(self):
        knots = np.geomspace(0.2, 1.0, 33)
        prof = cv.RadialProfile(knots=knots, values=1.5 * knots, lam=1.5)
        assert prof.rho == pytest.approx(0.2)
        assert prof.cavity_radius == pytest.approx(0.3)
        assert prof.r(0.5) == pytest.approx(0.75, rel=1e-12)
        assert prof.dr(0.5) == pytest.approx(1.5, rel=1e-9)
        assert prof.det(0.5) == pytest.approx(2.25, rel=1e-9)

    def test_validation(self):
        k = np.geomspace(0.2, 1.0, 33)
        with pytest.raises(ValueError):
            cv.RadialProfile(knots=k[::-1], values=1.2 * k, lam=1.2)
        bad = (1.2 * k).copy()
        bad[5] = bad[4]  # not strictly increasing
        with pytest.raises(ValueError):
            cv.RadialProfile(knots=k, values=bad, lam=1.2)
        with pytest.raises(ValueError):
            cv.RadialProfile(knots=k, values=1.2 * k, lam=1.5)  # top mismatch
        with pytest.raises(ValueError):
            cv.RadialProfile(knots=k, values=(1.2 * k)[:10], lam=1.2)


class TestRadialEnergy:
    def test_identity_small_puncture(self, density, iso):
        knots = np.geomspace(1e-6, 1.0, 65)
        prof = cv.RadialProfile(knots=knots, values=knots.copy(), lam=1.0)
        bulk, surface = cv.radial_energy_breakdown(prof, density, iso)
        assert bulk == pytest.approx(2.0 * np.pi, rel=1e-7)
        assert surface == pytest.approx(2.0 * np.pi * 1e-6, rel=1e-10)

    def test_isochoric_sqrt_profile(self, density, iso):
        c = 0.5
        knots = np.geomspace(0.2, 1.0, 129)
        vals = np.sqrt(knots ** 2 + c ** 2)
        lam = vals[-1] / knots[-1]
        prof = cv.RadialProfile(knots=knots, values=vals, lam=lam)
        assert np.allclose(prof.det(np.linspace(0.21, 0.99, 50)), 1.0, atol=1e-5)
        bulk, surface = cv.radial_energy_breakdown(prof, density, iso)
        assert surface == pytest.approx(2 * np.pi * np.sqrt(0.2 ** 2 + c ** 2),
                                        rel=1e-9)
        # independent bulk oracle: Simpson on the closed-form integrand
        R = np.linspace(0.2, 1.0, 4001)
        r = np.sqrt(R ** 2 + c ** 2)
        v1, v2 = R / r, r / R
        W = 0.5 * (v1 ** 2 + v2 ** 2) + 1.0 - np.log(v1 * v2)
        from scipy.integrate import simpson
        oracle = simpson(2 * np.pi * R * W, x=R)
        assert bulk == pytest.approx(oracle, rel=1e-5)

    def test_uniform_dilation(self, density, iso):
        knots = np.geomspace(0.2, 1.0, 65)
        prof = cv.RadialProfile(knots=knots, values=2.0 * knots, lam=2.0)
        bulk, surface = cv.radial_energy_breakdown(prof, density, iso)
        w2 = 0.5 * 8.0 + 16.0 - np.log(4.0)
        assert bulk == pytest.approx(np.pi * (1.0 - 0.04) * w2, rel=1e-9)
        assert surface == pytest.approx(2 * np.pi * 0.4, rel=1e-10)
        assert cv.radial_energy(prof, density, iso) == pytest.approx(
            bulk + surface, rel=1e-14)


class TestCirclePerimeter:
    def test_isotropic(self, iso):
        assert cv.anisotropic_circle_perimeter(1.0, iso) == pytest.approx(
            2 * np.pi, abs=1e-10)

    def test_elliptic_vs_ellipse_circumference(self, ell):
        got = cv.anisotropic_circle_perimeter(1.0, ell)
        assert got == pytest.approx(8.0 * ellipe(0.75), rel=1e-9)

    def test_zero_and_linearity(self, iso, ell):
        for phi in (iso, ell):
            assert cv.anisotropic_circle_perimeter(0.0, phi) == 0.0
            a = cv.anisotropic_circle_perimeter(0.35, phi)
            b = cv.anisotropic_circle_perimeter(0.70, phi)
            assert b == pytest.approx(2 * a, rel=1e-12)
        with pytest.raises(ValueError):
            cv.anisotropic_circle_perimeter(-0.1, iso)

    def test_integral_computed_once_per_density(self, density, monkeypatch):
        calls = []
        value = cv.SurfaceDensity.value
        monkeypatch.setattr(cv.SurfaceDensity, "value",
                            lambda self, z: calls.append(1) or value(self, z))
        phi = cv.SurfaceDensity("elliptic", A=np.diag([4.0, 1.0]))
        K = phi.circle_integral
        assert calls and K == pytest.approx(8.0 * ellipe(0.75), rel=1e-9)
        calls.clear()
        cv.sweep_lambda([1.5, 1.6], density, phi, 0.2, M=48)
        cv.anisotropic_circle_perimeter(0.5, phi)
        assert calls == []


class TestSolveRadial:
    def test_validation(self, density, iso):
        with pytest.raises(ValueError):
            cv.solve_radial(0.0, density, iso, rho=0.2)
        with pytest.raises(ValueError):
            cv.solve_radial(1.5, density, iso, rho=0.2, M=16)
        with pytest.raises(ValueError):
            cv.solve_radial(1.5, density, iso, rho=1.5)

    def test_lambda_one_recovers_identity_energy(self, density, iso):
        prof = cv.solve_radial(1.0, density, iso, rho=0.01, M=96)
        assert prof.status == "converged"
        E = cv.radial_energy(prof, density, iso)
        assert E == pytest.approx(2 * np.pi, rel=5e-4)
        assert prof.cavity_radius <= 1e-4  # hole sews itself shut

    def test_supercritical_stretch_opens_cavity(self, density, iso, radial_15):
        prof = radial_15
        assert prof.status == "converged"
        assert prof.cavity_radius == pytest.approx(1.020747, rel=1e-4)
        E = cv.radial_energy(prof, density, iso)
        assert E == pytest.approx(18.085224, rel=1e-5)
        # beats the homogeneous branch by a clear margin
        w_lam = 0.5 * 2 * 1.5 ** 2 + 1.5 ** 4 - np.log(1.5 ** 2)
        e_hom = np.pi * (1 - 0.04) * w_lam \
            + cv.anisotropic_circle_perimeter(1.5 * 0.2, iso)
        assert E < e_hom - 1.0

    def test_subcritical_stretch_closes_hole(self, density, iso):
        prof = cv.solve_radial(1.2, density, iso, rho=0.2, M=96)
        assert prof.status == "converged"
        assert prof.cavity_radius <= 1e-4
        E = cv.radial_energy(prof, density, iso)
        assert E == pytest.approx(10.539022, rel=1e-4)

    def test_anisotropy_suppresses_opening(self, density, ell, radial_15):
        prof = cv.solve_radial(1.5, density, ell, rho=0.2, M=96)
        assert prof.status == "converged"
        assert prof.cavity_radius == pytest.approx(0.905628, rel=1e-4)
        assert prof.cavity_radius < radial_15.cavity_radius
        E = cv.radial_energy(prof, density, ell)
        assert E == pytest.approx(21.380645, rel=1e-5)

    @pytest.mark.parametrize("lam, winner", [(1.7, 0), (1.5, 1)])
    def test_seeds_within_4_ulps_are_one_minimizer(self, density, ell, lam, winner):
        # at 1.7 both seeds reach the cavitated valley with energies about
        # 1 ulp apart, and the first seed is returned even where the second
        # rounds lower; at 1.5 the cavitated seed 1 is lower by 0.41
        prof = cv.solve_radial(lam, density, ell, rho=0.2, M=96)
        (e0, c0, _), (e1, c1, _) = prof.branches
        assert (abs(e0 - e1) <= 4.0 * np.spacing(min(e0, e1))) == (winner == 0)
        assert c0 != c1 and prof.cavity_radius == (c0, c1)[winner]

    def test_stationarity_of_cavity_radius(self, density, iso, radial_15):
        # 2 pi rho_def W_1 = K at the free cavity boundary
        rho = radial_15.rho
        c = radial_15.cavity_radius
        v1 = float(radial_15.dr(rho))
        v2 = c / rho
        w1 = v1 + 2.0 * v1 * v2 ** 2 - 1.0 / v1  # dW/dv1 at diag(v1, v2)
        lhs = 2 * np.pi * rho * w1
        rhs = cv.anisotropic_circle_perimeter(1.0, iso)
        assert lhs == pytest.approx(rhs, rel=0.02)


class TestBvp:
    def test_isotropic_balance(self, density, iso, radial_15):
        rep = cv.bvp_boundary_check(radial_15, density, iso)
        assert rep.passed
        assert rep.projected <= 0.02
        assert rep.t_rr == pytest.approx(1.0 / radial_15.cavity_radius, rel=0.01)
        # isotropic: pointwise and projected coincide
        assert rep.max_pointwise == pytest.approx(rep.projected, abs=1e-12)
        assert "PASS" in rep.summary()

    def test_elliptic_balance(self, density, ell):
        prof = cv.solve_radial(1.5, density, ell, rho=0.2, M=96)
        rep = cv.bvp_boundary_check(prof, density, ell)
        assert rep.passed
        assert rep.projected <= 0.02
        # the circular ansatz cannot satisfy the pointwise condition
        assert rep.max_pointwise > 0.1

    def test_smoothed_density_report_finite(self, density, radial_15):
        phi = cv.SurfaceDensity("smoothed_l1", eps=0.1)
        rep = cv.bvp_boundary_check(radial_15, density, phi)
        assert np.all(np.isfinite(rep.pointwise))
        assert np.all(np.isfinite(rep.h_pointwise))
        assert np.isfinite(rep.projected)
        # tau.D2phi(nu).tau = phi + phi'' over the angle, so the pointwise
        # curvature averages to h_avg on a fine enough angle grid
        fine = cv.bvp_boundary_check(radial_15, density, phi, n_angles=256)
        assert fine.h_pointwise.mean() == pytest.approx(fine.h_avg, rel=1e-8)

    def test_homogeneous_profile_fails(self, density, iso):
        knots = np.geomspace(0.2, 1.0, 97)
        prof = cv.RadialProfile(knots=knots, values=1.5 * knots, lam=1.5)
        rep = cv.bvp_boundary_check(prof, density, iso)
        assert not rep.passed
        assert rep.projected > 0.2
        assert "FAIL" in rep.summary()

    def test_flat_start_at_the_puncture_raises(self, density, iso):
        # the first slope is far below the second, so the pchip end
        # derivative, and with it det at the puncture, is 0
        prof = cv.RadialProfile(knots=np.array([0.2, 0.3, 0.4]),
                                values=np.array([0.5, 0.51, 0.8]), lam=2.0)
        assert prof.dr(prof.rho) == 0.0
        with pytest.raises(cv.InfeasibleEnergyError, match="non-positive determinant"):
            cv.bvp_boundary_check(prof, density, iso)

    def test_residual_shrinks_under_refinement(self, density, iso, radial_15):
        res96 = cv.bvp_boundary_check(radial_15, density, iso).projected
        prof48 = cv.solve_radial(1.5, density, iso, rho=0.2, M=48)
        prof192 = cv.solve_radial(1.5, density, iso, rho=0.2, M=192)
        res48 = cv.bvp_boundary_check(prof48, density, iso).projected
        res192 = cv.bvp_boundary_check(prof192, density, iso).projected
        assert res48 > res96 > res192


class TestSweepAndGolden:
    def test_csv_format(self, density, iso, tmp_path):
        rows = cv.sweep_lambda([1.5], density, iso, 0.2, M=48)
        p = tmp_path / "sweep.csv"
        cv.sweep_to_csv(rows, p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "lambda,cavity_radius,bulk,surface,total"
        assert len(lines) == 2
        vals = [float(t) for t in lines[1].split(",")]
        assert vals[0] == 1.5
        assert vals[4] == pytest.approx(vals[2] + vals[3], rel=1e-10)

    def test_make_golden_help_writes_nothing(self):
        committed = sorted(COMMITTED_GOLDEN.glob("*.csv"))
        before = [p.read_bytes() for p in committed]
        proc = _make_golden("--help")
        assert proc.returncode == 0, proc.stderr
        assert "--out" in proc.stdout
        assert [p.name for p in committed] == ["radial_ell.csv", "radial_iso.csv"]
        assert [p.read_bytes() for p in committed] == before

    def test_make_golden_writes_out_dir(self, tmp_path):
        proc = _make_golden("--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "radial_ell.csv", "radial_iso.csv"]
        for name in ("radial_iso", "radial_ell"):
            with open(tmp_path / f"{name}.csv") as fh:
                got = list(csv.DictReader(fh))
            with open(COMMITTED_GOLDEN / f"{name}.csv") as fh:
                want = list(csv.DictReader(fh))
            assert [r["lambda"] for r in got] == [r["lambda"] for r in want]
            for g, w in zip(got, want):
                assert float(g["total"]) == pytest.approx(float(w["total"]), rel=1e-6)
        # the code writes the committed bytes, also with numpy's AVX-512
        # dispatch off (where this machine has it), as on an AVX2-only one
        found = numpy_simd().split()
        off = " ".join(f for f in ("AVX512_SPR", "AVX512_ICL", "X86_V4") if f in found)
        plain = tmp_path / "no_avx512"
        proc = _make_golden("--out", str(plain), env=dict(os.environ, NPY_DISABLE_CPU_FEATURES=off))
        assert proc.returncode == 0, proc.stderr
        for out in (tmp_path, plain):
            for name in ("radial_iso.csv", "radial_ell.csv"):
                assert (out / name).read_bytes() == (COMMITTED_GOLDEN / name).read_bytes(), \
                    f"{out.name}/{name}"

    def test_golden_bifurcation_shape(self):
        with open(COMMITTED_GOLDEN / "radial_iso.csv") as fh:
            iso_rows = list(csv.DictReader(fh))
        with open(COMMITTED_GOLDEN / "radial_ell.csv") as fh:
            ell_rows = list(csv.DictReader(fh))
        c_iso = {float(r["lambda"]): float(r["cavity_radius"]) for r in iso_rows}
        c_ell = {float(r["lambda"]): float(r["cavity_radius"]) for r in ell_rows}
        assert c_iso[1.2] < 0.01 < c_iso[1.4]  # isotropic bifurcation bracket
        assert c_ell[1.4] < 0.01 < c_ell[1.5]  # elliptic opens later
        opened = [lam for lam, c in sorted(c_iso.items()) if c > 0.01]
        cs = [c_iso[lam] for lam in opened]
        assert all(b > a for a, b in zip(cs, cs[1:]))  # monotone growth


V1_LAMBDAS = (1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8)


@pytest.fixture(scope="module")
def v1_sweeps(density, iso, ell):
    """The full v1 sweep at M = 96 for both densities, with the energy of
    every Newton iterate in logging order: {name: (rows, energies)}."""
    class Steps(logging.Handler):
        def emit(self, record):
            if record.msg.startswith("radial newton step"):
                energies.append(record.args[:2])  # (step, energy)

    logger = logging.getLogger("cavelast")
    handler, level = Steps(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    out = {}
    try:
        for name, phi in (("radial_iso", iso), ("radial_ell", ell)):
            energies = []
            rows = cv.sweep_lambda(V1_LAMBDAS, density, phi, 0.2, M=96)
            out[name] = (rows, energies)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return out


class TestNewtonOracle:
    def test_no_accepted_step_raises_energy(self, v1_sweeps):
        for rows, energies in v1_sweeps.values():
            runs = []
            for step, E in energies:
                if step == 0:
                    runs.append([])  # a new seed starts
                runs[-1].append(E)
            # two seeds per lambda > 1, one at lambda = 1
            assert len(runs) == 2 * len(rows) - 1
            assert sum(len(r) - 1 for r in runs) > len(runs)
            for r in runs:
                assert all(b <= a for a, b in zip(r, r[1:])), r

    def test_every_branch_converges(self, v1_sweeps, density, iso):
        for rows, _ in v1_sweeps.values():
            for r in rows:
                assert r["status"] == "converged"
                assert r["all_branches_converged"] is True
        prof = cv.solve_radial(1.5, density, iso, rho=0.2, M=96)
        assert len(prof.branches) == 2
        assert all(status == "converged" for _, _, status in prof.branches)
        assert min(prof.branches)[1] == prof.cavity_radius  # lowest energy wins

    def test_unconverged_branch_is_flagged(self, density, iso, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(radial, "_MAX_ITERS", 1)
            prof = cv.solve_radial(1.5, density, iso, rho=0.2, M=96)
        assert [status for _, _, status in prof.branches] == ["max_iters"] * 2
        assert prof.status == "max_iters"
        # a losing seed that stalls is flagged even though the winner converged
        calls = _first_seed_stalls(monkeypatch)
        rows = cv.sweep_lambda([1.5], density, iso, 0.2, M=96)
        assert calls == ["converged", "converged"]
        assert rows[0]["status"] == "converged"
        assert rows[0]["branch_status"] == ["stalled", "converged"]
        assert rows[0]["all_branches_converged"] is False

    def test_make_golden_fails_on_a_stuck_losing_branch(self, monkeypatch, tmp_path):
        spec = importlib.util.spec_from_file_location("make_golden", MAKE_GOLDEN)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr(script, "LAMBDAS", [1.5])
        _first_seed_stalls(monkeypatch)
        with pytest.raises(SystemExit) as stop:
            script.main(["--out", str(tmp_path)])
        assert stop.value.code not in (0, None)
        assert "lambda=1.5 (stalled, converged)" in str(stop.value.code)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("lam", [1.0, 1.5])
    def test_branches_carry_a_fresh_energy(self, density, iso, lam):
        # the energy a descent carries can drift from the energy of its
        # profile, so the branches are ranked by the latter
        prof = cv.solve_radial(lam, density, iso, rho=0.2, M=96)
        f = radial._PLEnergy(prof.knots, density, iso.circle_integral)
        assert min(prof.branches)[0] == f.value(prof.values)

    def test_v1_sweep_reproduces_golden(self, v1_sweeps):
        for name, (rows, _) in v1_sweeps.items():
            with open(COMMITTED_GOLDEN / f"{name}.csv") as fh:
                table = {float(r["lambda"]): r for r in csv.DictReader(fh)}
            assert sorted(table) == [r["lambda"] for r in rows]
            for r in rows:
                gold = table[r["lambda"]]
                assert r["total"] == pytest.approx(float(gold["total"]), rel=1e-6)
                ref_c = float(gold["cavity_radius"])
                assert (r["cavity_radius"] > 0.01) == (ref_c > 0.01)
                if ref_c > 0.01:
                    assert r["cavity_radius"] == pytest.approx(ref_c, rel=1e-6)

    @staticmethod
    def _seeds(lam=1.5, rho=0.2, M=48):
        # the knots and the two seeds solve_radial descends from
        knots = rho * (1.0 / rho) ** np.linspace(0.0, 1.0, M + 1)
        knots[-1] = 1.0
        c0 = np.sqrt(lam ** 2 - 1.0)
        cavitated = np.sqrt(knots ** 2 + c0 ** 2) * lam / np.sqrt(1.0 + c0 ** 2)
        return knots, [lam * knots, cavitated]

    @pytest.mark.parametrize("kind", ["iso", "ell"])
    def test_gradient_matches_central_differences(self, density, kind, request):
        knots, seeds = self._seeds()
        f = radial._PLEnergy(knots, density, request.getfixturevalue(kind).circle_integral)
        for values in seeds:
            h = 1e-6 * np.diff(values).min()
            fd = np.empty(len(values) - 1)
            for j in range(len(fd)):
                up, down = values.copy(), values.copy()
                up[j] += h
                down[j] -= h
                fd[j] = (f.value(up) - f.value(down)) / (2.0 * h)
            g = f.grad(f.stretch(values))
            assert np.abs(g - fd).max() <= 1e-5 * np.abs(fd).max()

    @pytest.mark.parametrize("kind", ["iso", "ell"])
    def test_hessian_matches_central_differences(self, density, kind, request):
        knots, seeds = self._seeds()
        f = radial._PLEnergy(knots, density, request.getfixturevalue(kind).circle_integral)
        for values in seeds:
            ab = f.hess(f.stretch(values))
            H = np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[0, 1:], -1)
            h = 1e-6 * np.diff(values).min()
            fd = np.empty_like(H)
            for j in range(len(H)):
                up, down = values.copy(), values.copy()
                up[j] += h
                down[j] -= h
                fd[:, j] = (f.grad(f.stretch(up)) - f.grad(f.stretch(down))) / (2.0 * h)
            assert np.abs(H - fd).max() <= 1e-5 * np.abs(fd).max()

    def test_newton_direction_is_solveh_banded(self, density, iso):
        # dptsv is what solveh_banded calls for a two-row band: the same
        # bits at the first shift that factors, whether that is 0 or not
        from scipy.linalg import LinAlgError, solveh_banded

        def reference(ab, g):
            for tau in [0.0] + [10.0 ** k for k in range(-8, 9)]:
                shifted = ab.copy()
                shifted[1] += tau * np.abs(ab[1])
                try:
                    return tau, solveh_banded(shifted, g)
                except LinAlgError:
                    continue

        knots, seeds = self._seeds()
        f = radial._PLEnergy(knots, density, iso.circle_integral)
        shifts = set()
        for values in seeds:
            S = f.stretch(values)
            ab, g = f.hess(S), f.grad(S)
            dominant = ab.copy()
            dominant[1] = np.abs(ab[1]) + 2.0 * np.abs(ab[0]).max()
            flipped = ab.copy()
            flipped[1, ::3] *= -1.0
            for band in (ab, dominant, flipped):
                tau, want = reference(band, g)
                shifts.add(tau > 0.0)
                assert np.array_equal(radial._newton_direction(band, g), want)
        assert shifts == {False, True}

    def test_change_matches_value_difference(self, density, iso):
        # seed-sized steps: from one seed to the other and back, and part way
        knots, (hom, cav) = self._seeds()
        f = radial._PLEnergy(knots, density, iso.circle_integral)
        for a, b in ((hom, cav), (cav, hom), (hom, 0.5 * (hom + cav))):
            want = f.value(b) - f.value(a)
            assert f.change(f.stretch(a), b - a) == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("lam", [1.0, 1.1])
    def test_every_branch_converges_near_lambda_one(self, density, iso, lam):
        # comparing two computed energies left lambda = 1, rho = 0.015 at
        # max_iters; Armijo on the exact change resolves the last decrease
        for rho in (0.008, 0.01, 0.012, 0.015, 0.02, 0.03, 0.05, 0.2):
            prof = cv.solve_radial(lam, density, iso, rho=rho, M=96)
            assert [st for _, _, st in prof.branches] == ["converged"] * len(prof.branches)
            f = radial._PLEnergy(prof.knots, density, iso.circle_integral)
            assert min(prof.branches)[0] == pytest.approx(f.value(prof.values), rel=1e-8)

    def test_derivative_is_cached_and_exact(self, radial_15):
        R = np.linspace(0.2, 1.0, 41)
        assert np.array_equal(radial_15.dr(R), radial_15._interp.derivative()(R))


class TestLift:
    def test_vertices_follow_profile(self, disk_mesh, radial_15):
        y = cv.radial_lift(radial_15, disk_mesh)
        R = np.linalg.norm(disk_mesh.vertices, axis=1)
        r = np.linalg.norm(y.positions, axis=1)
        want = np.asarray(radial_15.r(np.clip(R, 0.2, 1.0)))
        assert np.allclose(r, want, rtol=1e-10)
        # directions preserved
        dots = np.einsum("ni,ni->n", y.positions, disk_mesh.vertices)
        assert np.all(dots > 0)

    def test_lift_energy_consistent(self, disk_mesh, density, iso, radial_15):
        y = cv.radial_lift(radial_15, disk_mesh)
        e2d = cv.total_energy(y, density, iso).total
        e1d = cv.radial_energy(radial_15, density, iso)
        # h = 0.15 interpolation error, not a minimization gap
        assert abs(e2d - e1d) <= 0.03 * e1d

    def test_nonpositive_knots_rejected(self):
        knots = np.linspace(0.0, 1.0, 33)  # R = 0 is not a puncture
        with pytest.raises(ValueError):
            cv.RadialProfile(knots=knots, values=1.2 * knots, lam=1.2)
