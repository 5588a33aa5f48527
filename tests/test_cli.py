import csv
import dataclasses
import logging
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import cavelast as cv
from cavelast import cli
from cavelast.cli import (CompareReport, ScenarioConfig, build_mesh, build_phi,
                          compare_runs, main, render_deformed_svg, render_reference_svg,
                          resolve_scenario, run_scenario)
from cavelast.exceptions import ConfigurationError
from conftest import read_summary, run_python
from corpus import fuzz_config

GOLDEN = Path(cv.__file__).parent / "golden" / "v1"


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
        assert cfg.emit == ("svg",)
        assert cfg.name == "radial_iso_lambda1.5"
        for name in ("radial_iso_lambda1.5", "radial_ell_lambda1.5", "eval_identity"):
            # every trial step of a bundled run goes through the gate
            assert ScenarioConfig.from_ini(resolve_scenario(name)).inv_every == 1

    @pytest.mark.parametrize("text,flags,named", [
        # run directories written before the exact gate carry inv_delta
        ("[solver]\ninv_every = 10\ninv_delta = 0.02\n", [],
         "unknown key 'inv_delta' in section [solver]"),
        # the boundary tag, the battery bound and the det floor are constants,
        # and csv was an emitter that selected nothing
        ("[boundary]\ntag = dirichlet\n", [], "unknown key 'tag' in section [boundary]"),
        ("[solver]\nresidual_rel = 1e9\n", [], "unknown key 'residual_rel' in section [solver]"),
        ("[solver]\ndet_floor = 1e-8\n", [], "unknown key 'det_floor' in section [solver]"),
        # the stop test's tiny decrease is a constant too; configparser lowercases keys
        ("[solver]\ntol_E = 1e-10\n", [], "unknown key 'tol_e' in section [solver]"),
        ("[run]\nemit = svg,csv\n", [], "[run] emit entry 'csv' not in"),
        ("", ["--emit", "csv"], "--emit entry 'csv' not in"),
    ], ids=["inv_delta", "tag", "residual_rel", "det_floor", "tol_E", "emit_csv",
            "emit_flag_csv"])
    def test_removed_setting_is_refused(self, tmp_path, capsys, text, flags, named):
        p = tmp_path / "old.ini"
        p.write_text(text)
        out = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out), *flags]) == 2
        assert f"configuration error: {named}" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("text", [
        b"key outside any section = 1\n[domain\nshape = disk\n",
        b"# \xff is not UTF-8\n[domain]\nshape = disk\n",
    ], ids=["no_section", "not_utf8"])
    def test_malformed_ini(self, tmp_path, text):
        p = tmp_path / "bad.ini"
        p.write_bytes(text)
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

    def test_phi_unknown_kind_refused(self):
        # build_phi must not fall back to an isotropic phi
        with pytest.raises(ConfigurationError, match=r"\[surface\] kind"):
            build_phi(ScenarioConfig(phi_kind="bogus"))


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


def _drop_last_row(text):
    return text[:text.rstrip().rfind(b"\n") + 1]


def _add_row(text):
    """text with one more row, numbered one past the last."""
    k, rest = text.rstrip().rsplit(b"\n", 1)[1].split(b",", 1)
    return text + b"%d,%s\n" % (int(k) + 1, rest)


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

    def test_deformed_with_a_lost_row_refused(self, iso_run, tmp_path):
        _, run_dir = iso_run
        pos = tmp_path / "positions.csv"
        pos.write_bytes(_drop_last_row((run_dir / "positions.csv").read_bytes()))
        with pytest.raises(cv.ArtifactError, match="positions.csv"):
            render_deformed_svg(run_dir / "mesh.cavmesh", pos, run_dir / "cavities.csv",
                                tmp_path / "def.svg")

    def test_reference_of_a_mesh_without_triangles_is_a_bare_frame(self, tmp_path):
        mesh = tmp_path / "bare.cavmesh"
        mesh.write_text("cavmesh 1\n3\n0 0\n1 0\n0 1\n0\n")
        render_reference_svg(mesh, tmp_path / "ref.svg")
        assert (tmp_path / "ref.svg").read_text() == (
            '<svg xmlns="http://www.w3.org/2000/svg" width="720" height="720" '
            'viewBox="0 0 720 720">\n<rect width="720" height="720" fill="white"/>\n</svg>\n')

    def test_run_draws_from_memory(self, tmp_path, monkeypatch):
        # run_scenario reads none of its own files back, and the public
        # renderers, which do, write the same bytes from those files
        def refuse(*args, **kwargs):
            raise AssertionError("run_scenario read an artifact back")

        for name in ("load_mesh", "_read_positions_csv", "_read_cavities_csv"):
            monkeypatch.setattr(cli, name, refuse)
        code, out = run_scenario("radial_iso_lambda1.5", out_dir=tmp_path / "run",
                                 emit=("svg",))
        monkeypatch.undo()
        assert code == 0
        render_reference_svg(out / "mesh.cavmesh", tmp_path / "ref.svg")
        render_deformed_svg(out / "mesh.cavmesh", out / "positions.csv",
                            out / "cavities.csv", tmp_path / "def.svg")
        assert (tmp_path / "ref.svg").read_bytes() == (out / "reference.svg").read_bytes()
        assert (tmp_path / "def.svg").read_bytes() == (out / "deformed.svg").read_bytes()

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
        with open(GOLDEN / "radial_iso.csv") as fh:
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
        with open(GOLDEN / "radial_ell.csv") as fh:
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

    @pytest.mark.parametrize("run", ["iso_run", "ell_run"])
    def test_totals_match_the_summary(self, request, run, capsys):
        # compare evaluates the read-back positions afresh; its own totals
        # must be the summary's, which the run wrote from the solver's state
        run_dir = request.getfixturevalue(run)[1]
        assert main(["compare", str(run_dir), str(run_dir)]) == 0
        kv = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
        assert kv["minimality_alarm"] == "clear"
        summary = (run_dir / "summary.txt").read_text().splitlines()
        for key in ("total", "surface"):
            assert [s for s in summary if s.startswith(f"{key} = ")] == [f"{key} = {kv[key + '_a']}"]

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

    def test_run_with_removed_keys_exits_2(self, iso_run, tmp_path, capsys):
        # the config.ini of a run directory written while [boundary] tag,
        # [solver] residual_rel and det_floor and the csv emitter existed
        def old(text):
            for line, more in ((b"lam = 1.5\n", b"tag = dirichlet\n"),
                               (b"max_iters = 100\n", b"residual_rel = 0.001\ndet_floor = 1e-08\n")):
                assert text.count(line) == 1
                text = text.replace(line, line + more)
            return text.replace(b"emit = svg\n", b"emit = svg,csv\n")

        bad = self._corrupt_copy(iso_run[1], tmp_path, "config.ini", old)
        assert main(["compare", str(bad), str(iso_run[1])]) == 2
        assert "compare error: unknown key 'tag' in section [boundary]" in capsys.readouterr().err

    def test_run_with_tol_E_exits_2(self, iso_run, tmp_path, capsys):
        # the config.ini of a run directory written while [solver] tol_E existed
        def old(text):
            assert text.count(b"max_iters = 100\n") == 1
            return text.replace(b"max_iters = 100\n", b"max_iters = 100\ntol_E = 1e-10\n")

        bad = self._corrupt_copy(iso_run[1], tmp_path, "config.ini", old)
        assert main(["compare", str(iso_run[1]), str(bad)]) == 2
        assert "compare error: unknown key 'tol_e' in section [solver]" in capsys.readouterr().err

    def test_swapped_position_rows_exit_2(self, iso_run, tmp_path, capsys):
        def swap(text):
            lines = text.splitlines(keepends=True)
            lines[1], lines[2] = lines[2], lines[1]
            return b"".join(lines)

        bad = self._corrupt_copy(iso_run[1], tmp_path, "positions.csv", swap)
        assert main(["compare", str(bad), str(iso_run[1])]) == 2
        err = capsys.readouterr().err
        assert "vertex ids in" in err and "positions.csv" in err

    @pytest.mark.parametrize("corrupt", [_drop_last_row, _add_row],
                             ids=["last_row_lost", "extra_row"])
    def test_position_row_count_exits_2(self, iso_run, tmp_path, capsys, corrupt):
        bad = self._corrupt_copy(iso_run[1], tmp_path, "positions.csv", corrupt)
        assert main(["compare", str(bad), str(iso_run[1])]) == 2
        err = capsys.readouterr().err
        assert "vertex ids in" in err and "positions.csv" in err

    def test_truncated_run_a_raises_alarm(self, iso_run, truncated_run, capsys):
        # run A stopped after one step: B's minimizer beats it under A's energy
        trunc_code, trunc_dir = truncated_run
        assert trunc_code == 3
        assert main(["compare", str(trunc_dir), str(iso_run[1])]) == 0
        lines = capsys.readouterr().out.splitlines()
        kv = dict(line.split(" = ", 1) for line in lines)
        assert kv["minimality_alarm"] == "RAISED"
        assert float(kv["margin_a"]) < 0.0
        assert ("alarm_detail = run B's field has lower energy under run A's density/phi "
                "than run A's own minimizer") in lines


class TestMain:
    def test_python_m_cavelast(self):
        proc = run_python("-W", "error::RuntimeWarning", "-m", "cavelast", "--help")
        assert proc.returncode == 0, proc.stderr
        assert "usage: cavelast" in proc.stdout

    def test_import_skips_integrate_and_interpolate(self):
        # the radial oracle loads them on first use; a 2-D run needs neither,
        # and nothing needs scipy.ndimage
        proc = run_python("-c", "import sys, cavelast; print(sorted(m for m in sys.modules "
                       "if m in ('scipy.integrate', 'scipy.interpolate', 'scipy.ndimage')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_rerun_leaves_only_its_own_artifacts(self, tmp_path):
        # a rerun into a used directory deletes what the earlier run emitted
        # and it does not, and keeps files cavelast does not write
        d, fresh = tmp_path / "d", tmp_path / "fresh"
        assert main(["eval", "eval_identity", "--out", str(d),
                     "--emit", "svg,raster,inverse"]) == 0
        optional = {"reference.svg", "deformed.svg", "raster.pgm", "inverse.csv",
                    "jumps.csv"}
        assert optional <= {p.name for p in d.iterdir()}
        (d / "notes.txt").write_text("not an artifact\n")
        assert main(["eval", "eval_identity", "--out", str(d), "--emit", ""]) == 0
        assert main(["eval", "eval_identity", "--out", str(fresh), "--emit", ""]) == 0
        names = {p.name for p in fresh.iterdir()}
        assert not names & optional
        assert {p.name for p in d.iterdir()} == names | {"notes.txt"}
        for name in names:
            assert (d / name).read_bytes() == (fresh / name).read_bytes(), name
        assert (d / "notes.txt").read_text() == "not an artifact\n"

    def test_emit_flag_limits_artifacts(self, tmp_path):
        code = main(["eval", "eval_identity", "--out", str(tmp_path / "d"),
                     "--emit", ""])
        assert code == 0
        names = {p.name for p in (tmp_path / "d").iterdir()}
        assert "reference.svg" not in names
        assert "raster.pgm" not in names
        assert "positions.csv" in names

    def test_bad_emit_flag_exit_2(self, tmp_path, capsys):
        # --emit is checked like [run] emit, before anything is meshed or written
        out = tmp_path / "out"
        assert main(["eval", "eval_identity", "--out", str(out), "--emit", "svg,rastr"]) == 2
        assert "configuration error: --emit entry 'rastr' not in" in capsys.readouterr().err
        assert not out.exists()

    def test_annulus_without_punctures_runs(self, tmp_path):
        # the default INV circles once centred in the hole and left the mesh
        ini = tmp_path / "annulus.ini"
        ini.write_text("[domain]\nshape = annulus\nh = 0.1\n\n[boundary]\nlam = 1.3\n")
        assert main(["run", str(ini), "--out", str(tmp_path / "out")]) == 0
        assert read_summary(tmp_path / "out")["inv_check"] == "PASS"

    def test_infeasible_start_exit_2(self, tmp_path, capsys):
        # lam = 1e-5 meshes, but its start has det 1e-10 <= 1e-8: the
        # solver refuses it before any step, and nothing is written
        p = tmp_path / "tiny.ini"
        p.write_text("[boundary]\nlam = 1e-5\n")
        out = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("infeasible input: starting field has min "
                                "determinant 1.000e-10 <= 1.0e-08\n")
        assert "artifacts in" not in captured.out
        assert not out.exists()

    def test_folding_first_variation_probe_exit_3(self, tmp_path, capsys):
        # a = 1e14 drives the solve to dets near the floor, where the
        # first-variation report's central difference folds a triangle: the
        # report says so with nan, and the unconverged run exits 3 as such
        p = tmp_path / "stiff.ini"
        p.write_text("[domain]\nshape = disk\nh = 0.3\npunctures = 0 0 0.1\n"
                     "[material]\na = 1e14\n")
        out = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out)]) == 3
        assert "Traceback" not in capsys.readouterr().err
        summary = read_summary(out)
        assert summary["status"] == "max_iters"
        assert summary["fd_value"] == "nan"
        assert summary["fd_gap"] == "nan"

    def test_tiny_domain_eval_reports(self, tmp_path, capsys):
        # eval of the same start: the battery's bumps are ~1e-5 wide, so the
        # central difference steps within the invertibility limit of
        # id + t psi, and the cross-check reports rather than raising
        p = tmp_path / "tiny.ini"
        p.write_text("[boundary]\nlam = 1e-5\n")
        assert main(["eval", str(p), "--out", str(tmp_path / "out")]) == 0
        assert "Traceback" not in capsys.readouterr().err
        summary = read_summary(tmp_path / "out")
        assert "fd_gap" in summary
        # the det floor bounds the solver's fields only
        assert summary["status"] == "evaluated"

    @pytest.mark.parametrize("source, out", [("--out", "afile"), ("--out", "afile/sub"),
                                             ("[run] out", "afile/sub")])
    def test_out_below_a_file_exit_2(self, tmp_path, capsys, monkeypatch, source, out):
        # refused before anything is computed, naming the flag or key
        monkeypatch.chdir(tmp_path)
        Path("afile").write_text("kept\n")
        Path("c.ini").write_text(f"[run]\nout = {out}\n" if source == "[run] out" else "")
        monkeypatch.setattr(cli, "compute", None)
        assert main(["run", "c.ini"] + (["--out", out] if source == "--out" else [])) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"configuration error: {source} = {out!r}: "
                                "afile is not a directory\n")
        assert "artifacts in" not in captured.out
        assert sorted(os.listdir(tmp_path)) == ["afile", "c.ini"]
        assert Path("afile").read_text() == "kept\n"

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

    def test_stray_hole_exit_2_names_h(self, tmp_path, capsys):
        # an accepted config with a grading-ring point at r = 0.9988, inside
        # the unit circle but past a chord of the outer polygon: the mesher
        # once left a stray hole there; the rings are now tested against the
        # polygon, and the message names the puncture and the key to change
        p = tmp_path / "stray.ini"
        p.write_text("[domain]\nshape = disk\nradius = 1.0\nh = 0.18754548421984543\n"
                     "punctures = -0.4588718482851424 0.45839596304102526 "
                     "0.14805559194814435\n")
        out = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert ("puncture 0 at (-0.458872, 0.458396) with rho 0.148056 is too close to "
                "the domain boundary for [domain] h = 0.187545") in err
        assert "untaggable" not in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("domain,puncture", [
        # seed-1 fuzz configs 467 and 737: two disks whose two punctures'
        # grading rings meet; 938: an annulus puncture whose rings reach the
        # inner circle. The mesher leaves a stray hole beside a ring point.
        ("shape = disk\nh = 0.1797268650654054\npunctures = 0.29330998839290623 "
         "0.3722540934375478 0.2073970429528787; 0.4610993542129762 0.10415904607011894 "
         "0.09399525796185185\n",
         "puncture 1 at (0.461099, 0.104159) with rho 0.0939953"),
        ("shape = disk\nh = 0.26768258816872653\npunctures = -0.5103558343871084 "
         "-0.03790246333466052 0.24000400444025494; -0.20997403115418112 "
         "-0.21798127108453325 0.07725757446724593\n",
         "puncture 1 at (-0.209974, -0.217981) with rho 0.0772576"),
        ("shape = annulus\nh = 0.158423336613017\npunctures = 0.367909029168058 "
         "-0.4821964244081207 0.05791523996129659\n",
         "puncture 0 at (0.367909, -0.482196) with rho 0.0579152"),
    ], ids=["disk_rings_meet_467", "disk_rings_meet_737", "annulus_inner_938"])
    def test_stray_hole_exit_2_names_its_puncture(self, tmp_path, capsys, domain, puncture):
        p = tmp_path / "stray.ini"
        p.write_text("[domain]\n" + domain)
        out = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "untaggable boundary edge" in err and f"grading ring of {puncture}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("x,message", [
        # the disks touch: the mesher once failed on an unnamed stray hole
        (0.1, "[domain] punctures 0 and 1 meet: centre distance 0.2 <= 0.1 + 0.1"),
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

    @pytest.mark.parametrize("domain,codes", [
        # disjoint punctures 0.02 apart: validate() once rejected them (exit
        # 2) because the sampled INV circles about either one crossed the other
        ("h = 0.1\npunctures = -0.11 0.0 0.1; 0.11 0.0 0.1\n", (0, 3)),
        # a puncture near the outer circle: the final sampled INV check once
        # raised "no room for invertibility circles" (exit 1)
        ("h = 0.15\npunctures = -0.39 0.55 0.236\n", (0,)),
    ], ids=["two_punctures_0.02_apart", "puncture_near_outer_circle"])
    def test_crowded_punctures_run(self, tmp_path, capsys, domain, codes):
        p = tmp_path / "crowded.ini"
        p.write_text("[domain]\nshape = disk\nradius = 1.0\n" + domain)
        out = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out)]) in codes
        assert "Traceback" not in capsys.readouterr().err
        kv = read_summary(out)
        assert (kv["inv_check"], kv["inv_violations"]) == ("PASS", "0")

    @pytest.mark.parametrize("section,text,named", [
        ("domain", "punctures = 0.0 0.0 abc", "[domain] punctures"),
        ("surface", "kind = elliptic\nA = 1 x; 0 1", "[surface] A"),
        ("domain", "h = nan", "[domain] h"),
        ("boundary", "lam = nan", "[boundary] lam"),
        ("material", "mu = inf", "[material] mu"),
        ("solver", "max_iters = nan", "[solver] max_iters"),
        ("solver", "max_iters = 0", "[solver] max_iters must be positive"),
        # radius, side and inner are positive under every shape
        ("domain", "shape = square\nradius = 0", "[domain] radius must be positive"),
        ("domain", "side = -1", "[domain] side must be positive"),
        ("domain", "shape = annulus\ninner = 0", "[domain] inner must be positive"),
        ("domain", "shape = annulus\ninner = 1.0", "[domain] inner must be below radius"),
        ("domain", "punctures = 0.0 0.0 0.0", "[domain] puncture radius must be positive"),
        ("domain", "shape = hexagon", "[domain] shape must be one of"),
        ("boundary", "kind = torsion", "[boundary] kind must be one of"),
        # the gate runs on every step (1) or on none (0)
        ("solver", "inv_every = 2", "[solver] inv_every"),
        ("run", "seed = -1", "[run] seed"),
        ("run", "delta = -1", "[run] delta"),
        # a raster grid above the cell ceiling, refused before meshing
        ("run", "delta = 1e-9\nemit = raster", "[run] delta"),
        ("surface", "kind = smoothed_l1\neps = 0", "[surface] eps"),
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

    @pytest.mark.parametrize("domain,h", [("h = 1e-4", "0.0001"), ("radius = 1000\nh = 0.1", "0.1")],
                             ids=["tiny_h", "huge_radius"])
    def test_unbuildable_mesh_exit_2_at_once(self, tmp_path, capsys, domain, h):
        # either mesh needs about 4.6e8 hex-fill points, some 7 GB: refused
        # by validate() before any allocation that grows like 1/h^2
        p = tmp_path / "big.ini"
        p.write_text(f"[domain]\nshape = disk\n{domain}\n")
        out = tmp_path / "out"
        start = time.perf_counter()
        assert main(["run", str(p), "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert (f"configuration error: [domain] h = {h} needs about 4.62e+08 mesh points "
                "on this disk, more than 1048576") in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "eval"])
    def test_flat_delaunay_exit_2_names_h(self, tmp_path, capsys, command):
        # a disk of radius 1e100 with h and rho scaled alike: Qhull finds
        # the mesh points flat, which once ended in a QhullError traceback
        p = tmp_path / "huge.ini"
        p.write_text("[domain]\nshape = disk\nradius = 1e100\nh = 3e99\npunctures = 0 0 1e99\n")
        out = tmp_path / "out"
        assert main([command, str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("infeasible input: Delaunay triangulation of the mesh points "
                              "fails on a domain of width 2e+100 at [domain] h = 3e+99: QH")
        assert "Traceback" not in err
        assert not out.exists()

    def test_puncture_grading_exit_2_names_its_puncture(self, tmp_path, capsys):
        # rho = 1e-20 at h = 0.3: 60 grading rings do not reach h
        p = tmp_path / "pin.ini"
        p.write_text("[domain]\nshape = disk\nh = 0.3\npunctures = 0.1 0 1e-20\n")
        out = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "infeasible input: puncture 0 at (0.1, 0) with rho 1e-20: its grading rings do "
            "not reach [domain] h = 0.3 within 60 rings\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "eval"])
    @pytest.mark.parametrize("lam,energy", [("1e100", "inf"), ("1e200", "nan"), ("1e-200", "inf")])
    def test_start_energy_not_finite_exit_2_before_meshing(self, tmp_path, capsys, monkeypatch,
                                                           command, lam, energy):
        # W(lam I) overflows: lam = 1e100 once gave eval a total of inf and a
        # stalled run, lam = 1e200 overflow warnings and a traceback. At
        # lam = 1e-200 det F rounds to 0, and -log det is infinite
        def no_mesh(cfg):
            raise AssertionError("meshed a config that validate() should refuse")

        monkeypatch.setattr(cli, "build_mesh", no_mesh)
        p = tmp_path / "far.ini"
        p.write_text(f"[domain]\nshape = disk\nh = 0.3\npunctures = 0 0 0.1\n"
                     f"[boundary]\nlam = {lam}\n")
        out = tmp_path / "out"
        assert main([command, str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: [boundary] lam = {float(lam)!r}: the start field's energy "
            f"on this disk of width 2 under [material] mu = 1, a = 1, b = 1 is not finite "
            f"({energy})\n")
        assert not out.exists()

    @pytest.mark.parametrize("A,named", [("1 1; 0 1", "symmetric"),
                                         ("1 0; 0 -1", "positive definite")])
    def test_bad_elliptic_matrix_exit_2_before_meshing(self, tmp_path, capsys, monkeypatch,
                                                       A, named):
        def no_mesh(cfg):
            raise AssertionError("meshed a config that validate() should refuse")

        monkeypatch.setattr(cli, "build_mesh", no_mesh)
        p = tmp_path / "bad.ini"
        p.write_text(f"[surface]\nkind = elliptic\nA = {A}\n")
        out = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: [surface] A must be {named}" in err
        assert not out.exists()

    def test_compare_subcommand(self, iso_run, ell_run, tmp_path, capsys):
        assert main(["compare", str(iso_run[1]), str(ell_run[1])]) == 0
        assert "minimality_alarm = clear" in capsys.readouterr().out
        assert main(["compare", str(tmp_path), str(iso_run[1])]) == 2
        assert "compare error" in capsys.readouterr().err


DIGIT_DIFF = Path(__file__).resolve().parents[1] / "scripts" / "digit_diff.py"


class TestDigitDiff:
    @pytest.fixture
    def trees(self, eval_dir, tmp_path):
        """Two copies of an eval run's artifacts."""
        return [shutil.copytree(eval_dir, tmp_path / name) for name in "ab"]

    @staticmethod
    def digit_diff(a, b):
        return subprocess.run([sys.executable, str(DIGIT_DIFF), str(a), str(b)],
                              capture_output=True, text=True, timeout=60)

    def test_identical_trees_report_nothing(self, eval_dir, trees):
        proc = self.digit_diff(*trees)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{len(list(eval_dir.iterdir()))} identical files\n"

    def test_closed_reader_ends_quietly(self, tmp_path):
        # enough moved numbers to fill the pipe before the reader leaves
        for name, value in (("a", "1.5"), ("b", "2.5")):
            (tmp_path / name).mkdir()
            (tmp_path / name / "t.csv").write_text(f"{value}\n" * 20000)
        proc = subprocess.Popen([sys.executable, str(DIGIT_DIFF), str(tmp_path / "a"),
                                 str(tmp_path / "b")], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        assert proc.stdout.readline() == "t.csv:1:1  1.5 -> 2.5  rel 4.0e-01\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=60)
        assert "Traceback" not in err

    def test_one_changed_digit_is_listed(self, eval_dir, trees):
        path = trees[1] / "positions.csv"
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[3].split(",")  # row 4, vertex 2
        old = fields[3]  # column 4, pos_x
        assert old[3].isdigit()
        new = old[:3] + str((int(old[3]) + 1) % 10) + old[4:]
        fields[3] = new
        lines[3] = ",".join(fields)
        path.write_text("".join(lines))
        proc = self.digit_diff(*trees)
        assert proc.returncode == 1, proc.stderr
        rel = abs(float(new) - float(old)) / max(abs(float(new)), abs(float(old)))
        assert proc.stdout.splitlines() == [
            f"positions.csv:4:4  {old} -> {new}  rel {rel:.1e}",
            f"positions.csv: 1 numbers moved in 1 of {len(lines)} rows, "
            f"largest relative change {rel:.1e}",
            f"{len(list(eval_dir.iterdir())) - 1} identical files"]


class TestComputeWrite:
    @pytest.mark.parametrize("scenario,mode", [("radial_iso_lambda1.5", "run"),
                                               ("eval_identity", "eval")])
    def test_write_of_compute_is_run_scenario(self, tmp_path, scenario, mode):
        emit = ("svg", "raster", "inverse")
        code, ran = run_scenario(scenario, out_dir=tmp_path / "ran", mode=mode,
                                 emit=emit)
        assert code == 0
        cfg = ScenarioConfig.from_ini(resolve_scenario(scenario))
        cli.write(cli.compute(cfg, mode), tmp_path / "seam", emit)
        names = sorted(p.name for p in ran.iterdir())
        assert names == sorted(p.name for p in (tmp_path / "seam").iterdir())
        for name in names:
            assert (ran / name).read_bytes() == (tmp_path / "seam" / name).read_bytes(), name

    def test_compute_creates_no_file(self, tmp_path, monkeypatch):
        import builtins
        import io
        real_open = io.open

        def read_only(file, mode="r", *args, **kwargs):
            assert not set(mode) & set("wax+"), f"compute opened {file} with mode {mode}"
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.chdir(tmp_path)  # where the default runs/<name> would go
        monkeypatch.setattr(builtins, "open", read_only)
        monkeypatch.setattr(io, "open", read_only)
        cfg = ScenarioConfig.from_ini(resolve_scenario("radial_iso_lambda1.5"))
        record = cli.compute(dataclasses.replace(cfg, out=str(tmp_path / "out")))
        assert record.log.status == "converged" and record.crossings == 0
        assert list(tmp_path.iterdir()) == []

    def test_domain_error_after_the_solve_propagates(self, tmp_path, monkeypatch):
        # only mesher, density and fold errors are refusals (exit 2); a
        # DomainError from the certification stays an error, as it always was
        def leak(*args, **kwargs):
            raise cv.DomainError("battery field leaks onto the constrained boundary")

        from cavelast import variation
        for module in (cli, variation):  # compute's battery and the stop test's
            monkeypatch.setattr(module, "certification_battery", leak)
        with pytest.raises(cv.DomainError, match="leaks") as info:
            run_scenario("radial_iso_lambda1.5", out_dir=tmp_path / "out")
        assert not isinstance(info.value, ConfigurationError)
        assert not (tmp_path / "out").exists()

    def test_tables_do_not_need_csv_emit(self, tmp_path):
        # positions.csv and cavities.csv are written on every run, with no
        # emitter selected too
        for name, emit in (("svg", "svg"), ("none", "")):
            assert main(["run", "radial_iso_lambda1.5", "--out", str(tmp_path / name),
                         "--emit", emit]) == 0
        for name in ("positions.csv", "cavities.csv"):
            assert (tmp_path / "svg" / name).read_bytes() == (tmp_path / "none" / name).read_bytes()
        assert {p.name for p in (tmp_path / "svg").iterdir()} \
            == {p.name for p in (tmp_path / "none").iterdir()} | {"reference.svg", "deformed.svg"}


class TestFuzz:
    def test_random_configs_exit_cleanly(self):
        # every accepted config runs (converged or not) or is refused with
        # the ConfigurationError that run_scenario maps to exit 2, naming
        # its puncture; nothing else is raised
        rng = np.random.default_rng(17)
        start = time.perf_counter()
        codes = set()  # the exit codes run_scenario would return
        for _ in range(60):
            cfg = fuzz_config(rng)
            try:
                record = cli.compute(cfg)
            except ConfigurationError as err:
                assert re.search(r"puncture \d+", str(err)), (str(err), cfg.to_ini())
                codes.add(2)
            else:
                codes.add(0 if record.log.status == "converged" else 3)
        assert codes == {0, 2, 3}
        assert time.perf_counter() - start < 10.0

    @pytest.fixture(scope="class")
    def seed1_configs(self):
        # the first 245 seed-1 configs, as scripts/reference_runs.py draws them
        rng = np.random.default_rng(1)
        return [fuzz_config(rng) for _ in range(245)]

    # (config, step ceiling, total ceiling) of three slow seed-1 configs;
    # later changes may tighten the ceilings, never loosen them
    @pytest.mark.parametrize("k,steps,total", [(141, 158, 9.08843966461),
                                               (163, 223, 2.24093066222),
                                               (244, 197, 6.35346206393)])
    def test_slow_configs_converge_within_ceilings(self, seed1_configs, k, steps, total):
        record = cli.compute(dataclasses.replace(seed1_configs[k], max_iters=1500))
        assert record.log.status == "converged"
        assert len(record.log.records) - 1 <= steps
        # the total as summary.txt prints it, to 12 digits
        assert float(f"{record.breakdown.total:.12g}") <= total
