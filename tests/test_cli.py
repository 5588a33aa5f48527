import csv
import dataclasses
import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cavelast as cv
from cavelast.cli import (CompareReport, ScenarioConfig, build_mesh, build_phi,
                          compare_runs, get_golden_dir, main,
                          render_deformed_svg, render_reference_svg,
                          resolve_scenario, run_scenario)
from cavelast.exceptions import ConfigurationError


def read_summary(run_dir) -> dict:
    kv = {}
    for line in (Path(run_dir) / "summary.txt").read_text().splitlines():
        if " = " in line:
            k, v = line.split(" = ", 1)
            kv.setdefault(k, v)
    return kv


@pytest.fixture(scope="module")
def eval_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("eval_identity")
    code, path = run_scenario("eval_identity", out_dir=out, mode="eval")
    assert code == 0
    return Path(path)


@pytest.fixture(scope="module")
def truncated_run(tmp_path_factory):
    """Same load as the isotropic scenario, solver cut off after 1 iterate."""
    cfg = ScenarioConfig.from_ini(resolve_scenario("radial_iso_lambda1.5"))
    cfg = dataclasses.replace(cfg, max_iters=1)
    work = tmp_path_factory.mktemp("trunc")
    ini = work / "radial_iso_truncated.ini"
    ini.write_text(cfg.to_ini())
    out = work / "artifacts"
    code = main(["run", str(ini), "--out", str(out)])
    return code, out


class TestConfig:
    def test_bundled_scenarios_resolve(self):
        for name in ("radial_iso_lambda1.5", "radial_ell_lambda1.5",
                     "eval_identity"):
            assert resolve_scenario(name).is_file()
        with pytest.raises(ConfigurationError):
            resolve_scenario("no_such_scenario")

    def test_parse_bundled(self):
        cfg = ScenarioConfig.from_ini(resolve_scenario("radial_iso_lambda1.5"))
        assert cfg.shape == "disk"
        assert cfg.h == 0.15
        assert cfg.punctures == (((0.0, 0.0), 0.2),)
        assert cfg.phi_kind == "isotropic"
        assert cfg.lam == 1.5
        assert cfg.emit == ("svg", "csv")
        assert cfg.name == "radial_iso_lambda1.5"

    ROUNDTRIP_EXTRA = {
        # side instead of radius, and out, are written only when they apply
        "square_out": "[domain]\nshape = square\nside = 2.0\nh = 0.25\n"
                      "[run]\nout = runs/square_out\n",
        "annulus_two": "[domain]\nshape = annulus\nradius = 1.0\ninner = 0.4\n"
                       "h = 0.1\npunctures = 0.7 0.0 0.05; -0.7 0.0 0.05\n",
        "smoothed_raster": "[surface]\nkind = smoothed_l1\neps = 0.2\n"
                           "[run]\nemit = raster\n",
        # no interpolation: a '%' in a value is literal text
        "percent_out": "[run]\nout = runs/100%\n",
    }

    def test_roundtrip_lossless(self, tmp_path):
        sources = [resolve_scenario(name) for name in (
            "radial_iso_lambda1.5", "radial_ell_lambda1.5", "eval_identity")]
        for name, text in self.ROUNDTRIP_EXTRA.items():
            sources.append(tmp_path / f"{name}_src.ini")
            sources[-1].write_text(text)
        for src in sources:
            cfg = ScenarioConfig.from_ini(src)
            p = tmp_path / f"{src.stem}.ini"
            p.write_text(cfg.to_ini())
            back = ScenarioConfig.from_ini(p)
            assert dataclasses.replace(back, name=cfg.name) == cfg
            assert back.to_ini() == cfg.to_ini()

    def test_unknown_key_is_named(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[solver]\nmax_iter = 5\n")
        with pytest.raises(ConfigurationError, match=r"max_iter.*\[solver\]"):
            ScenarioConfig.from_ini(p)

    def test_unknown_section_is_named(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[solvers]\nmax_iters = 5\n")
        with pytest.raises(ConfigurationError, match=r"\[solvers\]"):
            ScenarioConfig.from_ini(p)

    def test_uncastable_value_is_named(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[solver]\nmax_iters = fast\n")
        with pytest.raises(ConfigurationError, match="max_iters"):
            ScenarioConfig.from_ini(p)

    def test_malformed_ini(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("key outside any section = 1\n[domain\nshape = disk\n")
        with pytest.raises(ConfigurationError, match="malformed config"):
            ScenarioConfig.from_ini(p)

    def test_puncture_token_count(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[domain]\npunctures = 0.0 0.0\n")
        with pytest.raises(ConfigurationError, match="cx cy rho"):
            ScenarioConfig.from_ini(p)

    def test_matrix_shape(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[surface]\nkind = elliptic\nA = 1 2; 3\n")
        with pytest.raises(ConfigurationError, match="a11 a12"):
            ScenarioConfig.from_ini(p)

    def test_validate_rejects(self):
        with pytest.raises(ConfigurationError, match="inradius/4"):
            ScenarioConfig(punctures=(((0.0, 0.0), 0.3),)).validate()
        with pytest.raises(ConfigurationError, match="matrix A"):
            ScenarioConfig(phi_kind="elliptic").validate()
        with pytest.raises(ConfigurationError, match="lam"):
            ScenarioConfig(lam=0.0).validate()
        with pytest.raises(ConfigurationError, match="emit"):
            ScenarioConfig(emit=("svg", "png")).validate()
        with pytest.raises(ConfigurationError, match="shape"):
            ScenarioConfig(shape="hexagon").validate()
        nan = float("nan")
        with pytest.raises(ConfigurationError, match=r"\[domain\] h must be finite"):
            ScenarioConfig(h=nan).validate()
        with pytest.raises(ConfigurationError, match=r"\[domain\] punctures"):
            ScenarioConfig(punctures=(((0.0, nan), 0.1),)).validate()
        with pytest.raises(ConfigurationError, match=r"\[surface\] A"):
            ScenarioConfig(phi_kind="elliptic",
                           phi_A=((1.0, float("inf")), (0.0, 1.0))).validate()
        with pytest.raises(ConfigurationError, match=r"\[run\] seed"):
            ScenarioConfig(seed=-1).validate()

    def test_golden_dir_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("CAVELAST_GOLDEN_DIR", str(tmp_path))
        assert get_golden_dir() == tmp_path
        monkeypatch.delenv("CAVELAST_GOLDEN_DIR")
        assert get_golden_dir().name == "v1"
        assert (get_golden_dir() / "radial_iso.csv").is_file()


class TestBuilders:
    def test_shapes(self):
        sq = build_mesh(ScenarioConfig(shape="square", side=2.0, h=0.4))
        assert sq.areas.sum() == pytest.approx(4.0, rel=1e-9)
        an = build_mesh(ScenarioConfig(shape="annulus", radius=1.0, inner=0.4,
                                       h=0.2))
        assert an.areas.sum() == pytest.approx(np.pi * (1 - 0.16), rel=0.05)

    def test_phi_kinds(self):
        assert build_phi(ScenarioConfig()).kind == "isotropic"
        ell = build_phi(ScenarioConfig(phi_kind="elliptic",
                                       phi_A=((4.0, 0.0), (0.0, 1.0))))
        assert ell.kind == "elliptic"
        sm = build_phi(ScenarioConfig(phi_kind="smoothed_l1", phi_eps=0.2))
        assert sm.kind == "smoothed_l1"

    def test_phi_bad_matrix_wrapped(self):
        cfg = ScenarioConfig(phi_kind="elliptic", phi_A=((1.0, 0.0), (0.0, -1.0)))
        with pytest.raises(ConfigurationError, match=r"\[surface\]"):
            build_phi(cfg)


class TestEvalIdentity:
    ARTIFACTS = {"config.ini", "summary.txt", "iterations.csv", "mesh.cavmesh",
                 "positions.csv", "cavities.csv", "reference.svg",
                 "deformed.svg", "raster.pgm", "inverse.csv", "jumps.csv"}

    def test_artifact_set(self, eval_dir):
        assert {p.name for p in eval_dir.iterdir()} == self.ARTIFACTS

    def test_summary_values(self, eval_dir):
        kv = read_summary(eval_dir)
        assert kv["status"] == "evaluated"
        assert kv["n_cavities"] == "1"
        assert kv["inv_check"] == "PASS"
        # the puncture image is pure rho-artifact under the identity map
        assert kv["surface"] == kv["rho_artifact"]
        mesh = cv.load_mesh(eval_dir / "mesh.cavmesh")
        w_id = 2.0  # mu/2*|I|^2 + a*1 - b*log 1 with unit parameters
        assert float(kv["bulk"]) == pytest.approx(w_id * mesh.areas.sum(),
                                                  rel=1e-12)
        assert float(kv["total"]) == pytest.approx(
            float(kv["bulk"]) + float(kv["surface"]), rel=1e-12)
        assert float(kv["cavity_0_radius_mean"]) == pytest.approx(0.1, rel=1e-6)

    def test_positions_are_identity(self, eval_dir):
        mesh = cv.load_mesh(eval_dir / "mesh.cavmesh")
        rows = (eval_dir / "positions.csv").read_text().strip().splitlines()
        assert rows[0] == "id,x,y,pos_x,pos_y"
        got = np.array([[float(t) for t in r.split(",")[3:]] for r in rows[1:]])
        assert np.allclose(got, mesh.vertices, atol=1e-15)

    def test_raster_artifact_parses(self, eval_dir):
        raster = cv.load_pgm(eval_dir / "raster.pgm")
        mesh = cv.load_mesh(eval_dir / "mesh.cavmesh")
        assert raster.area() == pytest.approx(mesh.areas.sum(), rel=0.1)

    def test_repeat_run_bit_identical(self, eval_dir, tmp_path):
        code, again = run_scenario("eval_identity", out_dir=tmp_path / "again",
                                   mode="eval")
        assert code == 0
        for name in self.ARTIFACTS:
            assert (Path(again) / name).read_bytes() \
                == (eval_dir / name).read_bytes(), name


class TestSvgFromExports:
    def test_reference_rerender_identical(self, eval_dir, tmp_path):
        out = tmp_path / "ref.svg"
        render_reference_svg(eval_dir / "mesh.cavmesh", out)
        assert out.read_bytes() == (eval_dir / "reference.svg").read_bytes()

    def test_deformed_rerender_identical(self, iso_run, tmp_path):
        _, run_dir = iso_run
        out = tmp_path / "def.svg"
        render_deformed_svg(run_dir / "mesh.cavmesh",
                            run_dir / "positions.csv",
                            run_dir / "cavities.csv", out)
        assert out.read_bytes() == (run_dir / "deformed.svg").read_bytes()

    def test_svg_draws_cavity_polygon(self, iso_run):
        _, run_dir = iso_run
        text = (run_dir / "deformed.svg").read_text()
        assert text.count("<polygon") >= 1
        assert "<path" in text


class TestRadialScenarios:
    def test_iso_matches_golden_sweep(self, iso_run):
        code, run_dir = iso_run
        assert code == 0
        kv = read_summary(run_dir)
        assert kv["status"] == "converged"
        with open(get_golden_dir() / "radial_iso.csv") as fh:
            gold = {float(r["lambda"]): float(r["total"])
                    for r in csv.DictReader(fh)}
        assert float(kv["total"]) == pytest.approx(gold[1.5], rel=0.02)
        assert float(kv["cavity_0_radius_mean"]) > 0.7

    def test_ell_converges(self, ell_run):
        code, run_dir = ell_run
        assert code == 0
        kv = read_summary(run_dir)
        assert kv["status"] == "converged"
        assert kv["inv_check"] == "PASS"

    def test_ell_stays_on_open_branch(self, ell_run):
        # an undamped Newton step collapses this cavity (radius ~0.02,
        # total ~21.85); the damped solver must keep the open branch
        kv = read_summary(ell_run[1])
        with open(get_golden_dir() / "radial_ell.csv") as fh:
            gold = {float(r["lambda"]): float(r["total"])
                    for r in csv.DictReader(fh)}
        assert float(kv["total"]) == pytest.approx(gold[1.5], rel=0.02)
        assert float(kv["cavity_0_radius_mean"]) > 0.7

    def test_iteration_log_monotone(self, iso_run):
        _, run_dir = iso_run
        with open(run_dir / "iterations.csv") as fh:
            rows = list(csv.DictReader(fh))
        E = [float(r["energy"]) for r in rows]
        assert read_summary(run_dir)["status"] == "converged"
        assert len(E) - 1 <= 50  # Newton steps after the iter-0 row
        assert all(b <= a + 1e-12 for a, b in zip(E, E[1:]))
        assert min(float(r["min_det"]) for r in rows) > 1e-8

    def test_debug_log_every_accepted_step(self, tmp_path, caplog):
        with caplog.at_level(logging.DEBUG, logger="cavelast"):
            code, run_dir = run_scenario("radial_iso_lambda1.5", out_dir=tmp_path / "iso")
        assert code == 0
        with open(run_dir / "iterations.csv") as fh:
            rows = list(csv.DictReader(fh))[1:]
        assert rows and all(float(r["step"]) > 0.0 for r in rows)  # accepted steps
        logged = [r.getMessage().split() for r in caplog.records
                  if r.name == "cavelast" and r.getMessage().startswith("iter ")]
        assert [int(m[1]) for m in logged] == [int(r["iter"]) for r in rows]


class TestCompare:
    def test_self_comparison(self, eval_dir):
        rep = compare_runs(eval_dir, eval_dir)
        assert isinstance(rep, CompareReport)
        assert rep.total_a == rep.total_b
        assert rep.margin_a == 0.0
        assert rep.margin_b == 0.0
        assert not rep.alarm
        assert "minimality_alarm = clear" in rep.as_text()

    def test_iso_vs_ell_healthy(self, iso_run, ell_run):
        rep = compare_runs(iso_run[1], ell_run[1])
        assert not rep.alarm
        assert rep.margin_a > 0.0
        assert rep.margin_b > 0.0
        # anisotropy: elliptic minimizer's own surface beats the elliptic
        # evaluation of the isotropic cavity by a clear margin
        assert rep.cross_surface_ab > 1.005 * rep.surface_b

    def test_truncated_run_raises_alarm(self, iso_run, truncated_run):
        trunc_code, trunc_dir = truncated_run
        assert trunc_code == 3
        kv = read_summary(trunc_dir)
        assert kv["status"] == "max_iters"
        rep = compare_runs(iso_run[1], trunc_dir)
        assert rep.alarm_b
        assert rep.alarm
        assert rep.margin_b < 0.0
        assert "RAISED" in rep.as_text()
        assert "alarm_detail" in rep.as_text()

    def test_missing_summary(self, iso_run, tmp_path):
        with pytest.raises(ConfigurationError, match="missing summary"):
            compare_runs(tmp_path, iso_run[1])

    @staticmethod
    def _corrupt_copy(run_dir, tmp_path, name, corrupt):
        bad = tmp_path / "bad"
        shutil.copytree(run_dir, bad)
        (bad / name).write_bytes(corrupt((run_dir / name).read_bytes()))
        return bad

    def test_truncated_mesh_exits_2(self, iso_run, tmp_path, capsys):
        bad = self._corrupt_copy(iso_run[1], tmp_path, "mesh.cavmesh", lambda b: b[:5000])
        assert main(["compare", str(bad), str(iso_run[1])]) == 2
        assert "mesh.cavmesh" in capsys.readouterr().err

    def test_missing_positions_exits_2(self, iso_run, tmp_path, capsys):
        bad = self._corrupt_copy(iso_run[1], tmp_path, "positions.csv", lambda b: b)
        (bad / "positions.csv").unlink()
        assert main(["compare", str(bad), str(iso_run[1])]) == 2
        assert "positions.csv" in capsys.readouterr().err

    def test_non_numeric_position_exits_2(self, iso_run, tmp_path, capsys):
        def corrupt(text):
            lines = text.splitlines(keepends=True)
            lines[5] = b"4,0.1,abc,0.2,0.3\n"
            return b"".join(lines)

        bad = self._corrupt_copy(iso_run[1], tmp_path, "positions.csv", corrupt)
        assert main(["compare", str(iso_run[1]), str(bad)]) == 2
        assert "positions.csv" in capsys.readouterr().err


def _python(*args):
    """Run a fresh interpreter that imports this checkout of cavelast."""
    src = str(Path(cv.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


class TestMain:
    def test_python_m_cavelast(self):
        proc = _python("-W", "error::RuntimeWarning", "-m", "cavelast", "--help")
        assert proc.returncode == 0, proc.stderr
        assert "usage: cavelast" in proc.stdout

    def test_import_skips_integrate_and_interpolate(self):
        # the radial oracle loads them on first use; a 2-D run needs neither,
        # and nothing needs scipy.ndimage
        proc = _python("-c", "import sys, cavelast; print(sorted(m for m in sys.modules "
                       "if m in ('scipy.integrate', 'scipy.interpolate', 'scipy.ndimage')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_eval_threads_meta_only_diff(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        d1, d2 = tmp_path / "t1", tmp_path / "t2"
        assert main(["eval", "eval_identity", "--out", str(d1),
                     "--threads", "1"]) == 0
        assert main(["eval", "eval_identity", "--out", str(d2),
                     "--threads", "2"]) == 0
        assert "artifacts in" in capsys.readouterr().out
        names = {p.name for p in d1.iterdir()}
        assert names == {p.name for p in d2.iterdir()}
        assert (d1 / "meta.txt").read_text() == "threads = 1\n"
        assert (d2 / "meta.txt").read_text() == "threads = 2\n"
        for name in sorted(names - {"meta.txt"}):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    def test_emit_flag_limits_artifacts(self, tmp_path):
        code = main(["eval", "eval_identity", "--out", str(tmp_path / "d"),
                     "--emit", "csv"])
        assert code == 0
        names = {p.name for p in (tmp_path / "d").iterdir()}
        assert "reference.svg" not in names
        assert "raster.pgm" not in names
        assert "positions.csv" in names

    def test_annulus_without_punctures_runs(self, tmp_path):
        # the default INV circles once centred in the hole and left the mesh
        ini = tmp_path / "annulus.ini"
        ini.write_text("[domain]\nshape = annulus\nh = 0.1\n\n[boundary]\nlam = 1.3\n")
        assert main(["run", str(ini), "--out", str(tmp_path / "out")]) == 0
        assert read_summary(tmp_path / "out")["inv_check"] == "PASS"

    def test_unknown_scenario_exit_2(self, capsys):
        assert main(["run", "definitely_not_there"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_oversized_puncture_exit_2(self, tmp_path, capsys):
        cases = [
            ("h = 0.2\npunctures = 0.0 0.0 0.3\n", "inradius/4"),
            # valid configs whose puncture grading rings leave the disk
            ("h = 0.1\npunctures = 0.85 0.0 0.05\n",
             "puncture 0 at (0.85, 0) with rho 0.05 is too close to the domain boundary"),
            ("punctures = 0.9 0.0 0.02\n",
             "puncture 0 at (0.9, 0) with rho 0.02 is too close to the domain boundary"),
        ]
        for k, (domain, message) in enumerate(cases):
            p = tmp_path / f"big{k}.ini"
            p.write_text("[domain]\nshape = disk\nradius = 1.0\n" + domain)
            out = tmp_path / f"out{k}"
            assert main(["run", str(p), "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert message in captured.err
            assert "artifacts in" not in captured.out
            assert not out.exists()

    @pytest.mark.parametrize("x,message", [
        # the disks touch: the mesher once failed on an unnamed stray hole
        (0.1, "[domain] punctures 0 and 1 meet: centre distance 0.2 <= 0.1 + 0.1"),
        # disjoint, but the INV circles about either one would cross the
        # other: check_inv once raised a GeometryError traceback (exit 1)
        (0.11, "[domain] punctures 0 and 1 are too close: no room for "
               "invertibility circles around puncture 0"),
    ])
    def test_crowded_punctures_exit_2(self, tmp_path, capsys, x, message):
        p = tmp_path / "two.ini"
        p.write_text("[domain]\nshape = disk\nradius = 1.0\nh = 0.1\n"
                     f"punctures = {-x} 0.0 0.1; {x} 0.0 0.1\n")
        out = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"configuration error: {message}" in captured.err
        assert "artifacts in" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("section,text,named", [
        ("domain", "punctures = 0.0 0.0 abc", "[domain] punctures"),
        ("surface", "kind = elliptic\nA = 1 x; 0 1", "[surface] A"),
        ("domain", "h = nan", "[domain] h"),
        ("boundary", "lam = nan", "[boundary] lam"),
        ("material", "mu = inf", "[material] mu"),
        ("solver", "tol_E = nan", "[solver] tol_E"),
        ("run", "seed = -1", "[run] seed"),
        ("run", "delta = -1", "[run] delta"),
        # the tag is a word of the mesh file and must not merge two loops
        ("boundary", "tag = a b", "[boundary] tag"),
        ("domain", "shape = annulus\n[boundary]\ntag = free", "[boundary] tag"),
    ])
    def test_malformed_value_exit_2(self, tmp_path, capsys, section, text,
                                    named):
        p = tmp_path / "bad.ini"
        p.write_text(f"[{section}]\n{text}\n")
        out = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"configuration error: {named}" in captured.err
        assert "artifacts in" not in captured.out
        assert not out.exists()

    def test_compare_subcommand(self, iso_run, ell_run, tmp_path, capsys):
        assert main(["compare", str(iso_run[1]), str(ell_run[1])]) == 0
        assert "minimality_alarm = clear" in capsys.readouterr().out
        assert main(["compare", str(tmp_path), str(iso_run[1])]) == 2
        assert "compare error" in capsys.readouterr().err
