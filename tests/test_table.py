"""Every text artifact is written by `cavelast._table`; these tests pin its
bytes to the per-row writers it replaced, kept below as `_reference_*`."""

from pathlib import Path

import numpy as np
import pytest

import cavelast as cv
from cavelast import cli
from cavelast._table import format_rows, read_table
from cavelast.degree import DegreeRaster
from cavelast.exceptions import ArtifactError
from cavelast.inverse import CAVITY, OUTSIDE, InverseField


# ---------------------------------------------------------------------------
# the per-row writers and the cavity reader that `_table` replaced


def _reference_positions_csv(y, path):
    lines = ["id,x,y,pos_x,pos_y"]
    for i, (v, p) in enumerate(zip(y.mesh.vertices, y.positions)):
        lines.append(f"{i},{v[0]:.17g},{v[1]:.17g},{p[0]:.17g},{p[1]:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def _reference_cavities_csv(cavities, path):
    lines = ["cavity,x,y"]
    for k, rec in enumerate(cavities):
        lines.extend(f"{k},{p[0]:.12g},{p[1]:.12g}" for p in rec.boundary)
    Path(path).write_text("\n".join(lines) + "\n")


def _reference_read_cavities_csv(path):
    rows = Path(path).read_text().strip().splitlines()[1:]
    loops = {}
    for row in rows:
        k, x, yy = row.split(",")
        loops.setdefault(int(k), []).append((float(x), float(yy)))
    return [np.asarray(loops[k]) for k in sorted(loops)]


def _reference_svg_document(segments, loops):
    size = 720
    pts = np.concatenate([s.reshape(-1, 2) for s in segments] + loops) \
        if (segments or loops) else np.zeros((1, 2))
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-9))
    pad = 0.05 * span
    scale = size / (span + 2.0 * pad)

    def tx(p):
        return ((p[0] - lo[0] + pad) * scale,
                size - (p[1] - lo[1] + pad) * scale)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
           f'height="{size}" viewBox="0 0 {size} {size}">',
           f'<rect width="{size}" height="{size}" fill="white"/>']
    if segments:
        d = []
        for s in segments:
            (x1, y1), (x2, y2) = tx(s[0]), tx(s[1])
            d.append(f"M{x1:.2f} {y1:.2f}L{x2:.2f} {y2:.2f}")
        out.append('<path d="' + "".join(d)
                   + '" stroke="#8a8a8a" stroke-width="0.6" fill="none"/>')
    for loop in loops:
        coords = " ".join(f"{tx(p)[0]:.2f},{tx(p)[1]:.2f}" for p in loop)
        out.append(f'<polygon points="{coords}" stroke="#c0392b" '
                   f'stroke-width="1.8" fill="none"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _reference_mesh_edge_segments(vertices, triangles):
    pairs = np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]],
                            triangles[:, [2, 0]]])
    pairs = np.unique(np.sort(pairs, axis=1), axis=0)
    return list(vertices[pairs])


def _reference_reference_svg(mesh, path):
    segs = _reference_mesh_edge_segments(mesh.vertices, mesh.triangles)
    loops = [mesh.vertices[ids] for ids in mesh.puncture_loops()]
    Path(path).write_text(_reference_svg_document(segs, loops))


def _reference_iterations_csv(log, path):
    cols = ["iter", "energy", "bulk", "surface", "min_det", "step", "residual"]
    lines = [",".join(cols)]
    for r in log.records:
        cells = []
        for c in cols:
            v = r.get(c)
            if v is None:
                cells.append("nan")
            elif c == "iter":
                cells.append(str(int(v)))
            else:
                cells.append(f"{v:.12g}")
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _reference_mesh_save(mesh, path):
    lines = [cv.geometry.MESH_FORMAT_HEADER, str(len(mesh.vertices))]
    lines += [f"{x:.17g} {y:.17g}" for x, y in mesh.vertices]
    lines.append(str(len(mesh.triangles)))
    lines += [f"{a} {b} {c}" for a, b, c in mesh.triangles]
    lines += [f"{i} {j} {t}" for i, j, t in mesh.boundary_edges]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _reference_save_pgm(raster, path):
    vals = np.clip(raster.values + 8, 0, 16)
    lines = [
        "P2",
        f"# cavelast-degree delta={raster.delta:.17g} "
        f"origin={raster.origin[0]:.17g} {raster.origin[1]:.17g} offset=8",
        f"{raster.values.shape[1]} {raster.values.shape[0]}",
        "16",
    ]
    lines += [" ".join(str(v) for v in row) for row in vals]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _reference_inverse_csv(inv, path):
    centers = inv.cell_centers()
    lines = ["xi_x,xi_y,x_x,x_y"]
    for iy, ix in zip(*np.nonzero(inv.kind != OUTSIDE)):
        cx, cy = centers[iy, ix]
        if inv.kind[iy, ix] == CAVITY:
            lines.append(f"{cx:.12g},{cy:.12g},CAVITY,CAVITY")
        else:
            rx, ry = inv.ref[iy, ix]
            lines.append(f"{cx:.12g},{cy:.12g},{rx:.12g},{ry:.12g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _reference_jump_set_csv(contours, path):
    lines = ["contour,x,y,nx,ny,amplitude"]
    for c, jc in enumerate(contours):
        for p, n, a in zip(jc.points, jc.normals, jc.amplitudes):
            lines.append(f"{c},{p[0]:.12g},{p[1]:.12g},{n[0]:.12g},{n[1]:.12g},{a:.12g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _reference_sweep_csv(rows, path):
    lines = ["lambda,cavity_radius,bulk,surface,total"]
    for r in rows:
        lines.append(",".join(f"{r[k]:.12g}" for k in
                              ("lambda", "cavity_radius", "bulk", "surface", "total")))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# byte pins


_WRITERS = {  # artifact -> (owner, attribute) of the function that writes it
    "mesh.cavmesh": (cv.Mesh, "save"),
    "positions.csv": (cli, "_write_positions_csv"),
    "cavities.csv": (cli, "_write_cavities_csv"),
    "iterations.csv": (cv.IterationLog, "to_csv"),
    "raster.pgm": (DegreeRaster, "save_pgm"),
    "inverse.csv": (InverseField, "to_csv"),
    "jumps.csv": (cli, "jump_set_to_csv"),
}

_REFERENCES = {
    "mesh.cavmesh": _reference_mesh_save,
    "positions.csv": _reference_positions_csv,
    "cavities.csv": _reference_cavities_csv,
    "iterations.csv": _reference_iterations_csv,
    "raster.pgm": _reference_save_pgm,
    "inverse.csv": _reference_inverse_csv,
    "jumps.csv": _reference_jump_set_csv,
}


@pytest.fixture(scope="module", params=[("radial_iso_lambda1.5", "run"),
                                        ("eval_identity", "eval")],
                ids=["iso_run", "eval_identity"])
def captured(request, tmp_path_factory):
    """(run dir, {artifact: what its writer was given}) for a bundled run
    with all four emitters."""
    name, mode = request.param
    seen = {}

    def spy(real):
        def wrapper(*args):
            seen[Path(args[-1]).name] = args[:-1]
            return real(*args)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for owner, attr in _WRITERS.values():
            mp.setattr(owner, attr, spy(getattr(owner, attr)))
        code, out = cli.run_scenario(name, out_dir=tmp_path_factory.mktemp(name), mode=mode,
                                     emit=("svg", "raster", "inverse"))
    assert code == 0
    assert seen.keys() == _WRITERS.keys()
    return Path(out), seen


class TestBytePins:
    def test_tables_match_reference(self, captured, tmp_path):
        out, seen = captured
        for name, reference in _REFERENCES.items():
            reference(*seen[name], tmp_path / name)
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name

    def test_svgs_match_reference(self, captured, tmp_path):
        out, seen = captured
        (mesh,), (y,) = seen["mesh.cavmesh"], seen["positions.csv"]
        _reference_reference_svg(mesh, tmp_path / "reference.svg")
        segs = _reference_mesh_edge_segments(y.positions, mesh.triangles)
        loops = _reference_read_cavities_csv(out / "cavities.csv")
        (tmp_path / "deformed.svg").write_text(_reference_svg_document(segs, loops))
        for name in ("reference.svg", "deformed.svg"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name

    def test_every_artifact_is_pinned(self, captured):
        out, _ = captured
        names = {p.name for p in out.iterdir()}
        pinned = _REFERENCES.keys() | {"reference.svg", "deformed.svg"}
        assert names - pinned == {"config.ini", "summary.txt"}

    def test_readers_return_what_was_written(self, captured):
        out, seen = captured
        (mesh,), (y,) = seen["mesh.cavmesh"], seen["positions.csv"]
        back = cv.load_mesh(out / "mesh.cavmesh")
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.triangles, mesh.triangles)
        assert back.boundary_edges == [(int(i), int(j), t) for i, j, t in mesh.boundary_edges]
        assert np.array_equal(cli._read_positions_csv(out / "positions.csv", len(back.vertices)),
                              y.positions)
        got = cli._read_cavities_csv(out / "cavities.csv")
        want = _reference_read_cavities_csv(out / "cavities.csv")
        assert len(got) == len(want) == len(seen["cavities.csv"][0]) > 0
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        (raster,) = seen["raster.pgm"]
        assert np.array_equal(cv.load_pgm(out / "raster.pgm").values, raster.values)

    def test_sweep_rows(self, tmp_path):
        rows = [dict(zip(("lambda", "cavity_radius", "bulk", "surface", "total"), r))
                for r in ([1.0, 1e-06, 6.60314828719, 6.28318530718e-06, 6.60315457038],
                          [1.45, 0.85327234124, 10.4396950623, 5.3612682375, 1 / 3],
                          [2, -0.0, np.nan, np.inf, 1.2345678901234567e300])]
        for written in (rows, []):
            cv.sweep_to_csv(written, tmp_path / "new.csv")
            _reference_sweep_csv(written, tmp_path / "ref.csv")
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_mesh_with_several_tags(self, tmp_path):
        # a "#" in a tag is text, not the start of a comment
        annulus = cv.build_annulus_mesh(1.0, 0.4, 0.1, punctures=[((0.7, 0.0), 0.05),
                                                                  ((-0.7, 0.0), 0.05)])
        edges = [(i, j, "rim#1" if t == "dirichlet" else t) for i, j, t in annulus.boundary_edges]
        mesh = cv.Mesh(annulus.vertices, annulus.triangles, edges, annulus.punctures)
        assert {t for _, _, t in mesh.boundary_edges} == {
            "rim#1", "inner", "puncture_0", "puncture_1"}
        mesh.save(tmp_path / "new.cavmesh")
        _reference_mesh_save(mesh, tmp_path / "ref.cavmesh")
        assert (tmp_path / "new.cavmesh").read_bytes() == (tmp_path / "ref.cavmesh").read_bytes()
        back = cv.load_mesh(tmp_path / "new.cavmesh")
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.triangles, mesh.triangles)
        assert back.boundary_edges == mesh.boundary_edges
        for (c1, r1), (c2, r2) in zip(mesh.punctures, back.punctures):
            assert np.allclose(c1, c2, atol=1e-9)
            assert r1 == pytest.approx(r2, rel=1e-6)
        cli.render_reference_svg(tmp_path / "new.cavmesh", tmp_path / "new.svg")
        _reference_reference_svg(mesh, tmp_path / "ref.svg")
        assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()

    def test_empty_tables(self, tmp_path):
        cases = [(cli._write_cavities_csv, _reference_cavities_csv, []),
                 (cv.jump_set_to_csv, _reference_jump_set_csv, []),
                 (cv.IterationLog.to_csv, _reference_iterations_csv, cv.IterationLog())]
        log = cv.IterationLog()
        log.add(iter=0, energy=1.5, bulk=1.0, surface=0.5, min_det=0.25, step=0.0,
                residual=None)
        log.add(iter=1, energy=1.25, bulk=1.0, surface=0.25, min_det=0.25, step=1.0,
                residual=1e-7)
        cases.append((cv.IterationLog.to_csv, _reference_iterations_csv, log))
        for new, reference, obj in cases:
            new(obj, tmp_path / "new")
            reference(obj, tmp_path / "ref")
            assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes()
        cli._write_cavities_csv([], tmp_path / "cavities.csv")
        assert cli._read_cavities_csv(tmp_path / "cavities.csv") == []
        assert (tmp_path / "new").read_text().splitlines()[1].endswith(",nan")


class TestReadTable:
    def test_format_rows(self):
        assert format_rows("%d,%.3g", np.array([[1, 0.5], [2, np.nan]])) == "1,0.5\n2,nan\n"
        assert format_rows("%d %s", np.array([[3, "free"]], dtype=object)) == "3 free\n"
        assert format_rows("%d", np.empty((0, 1))) == ""

    @pytest.mark.parametrize("text, kw", [
        ("h\n1,2\n3\n", {}),                # ragged row
        ("h\n1,2\n3,x\n", {}),              # not a number
        ("h\n1,2,3\n", {}),                 # wrong column count
        ("h\n1,2\n", {"rows": 2}),          # truncated
        ("h\n1.5,2\n", {"dtype": np.int64}),
        ("h\n1,2\n3,nan\n", {}),           # not finite
        ("h\n-inf,2\n", {}),
    ])
    def test_malformed_text_names_the_file(self, tmp_path, text, kw):
        p = tmp_path / "table.csv"
        p.write_text(text)
        with pytest.raises(ArtifactError, match="table.csv"):
            read_table(p, 2, skip=1, delimiter=",", **kw)

    def test_no_rows(self, tmp_path):
        p = tmp_path / "table.csv"
        p.write_text("h\n")
        assert read_table(p, 3, skip=1, delimiter=",").shape == (0, 3)
