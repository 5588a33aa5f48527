"""Configuration-driven scenario runner.

`cavelast run <config>` minimizes a scenario and writes a self-contained
artifact directory: a canonical copy of the config, a flat key = value
summary, CSV side files, the mesh, and SVG figures rendered strictly from
the exported files. `eval` skips the solver, `compare` cross-evaluates two
run directories under each other's surface density and raises a minimality
alarm when a foreign minimizer wins.
"""

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from ._table import format_rows, read_table, write_table
from .degree import _radius_range, check_inv, topological_image
from .energy import total_energy
from .exceptions import (ArtifactError, CavelastError, ConfigurationError,
                         InfeasibleEnergyError)
from .geometry import (BoundaryData, DeformationField, Mesh,
                       build_annulus_mesh, build_disk_mesh, build_square_mesh,
                       load_mesh, min_det)
from .inverse import build_inverse_field, extract_jump_set, jump_set_to_csv
from .material import BulkDensity, SurfaceDensity
# battery_residual is not called here; it stays importable from this module
# because perfbench's tracer patches it under this name
from .variation import (IterationLog, battery_residual, battery_variations,  # noqa: F401
                        certification_battery, first_variation_residual, minimize)

_EMIT_CHOICES = ("svg", "csv", "raster", "inverse")
_SHAPES = ("disk", "square", "annulus")

__all__ = [
    "ScenarioConfig", "build_mesh", "build_density", "build_phi",
    "build_boundary", "run_scenario", "CompareReport", "compare_runs",
    "render_reference_svg", "render_deformed_svg", "get_golden_dir",
    "resolve_scenario", "main",
]


def get_golden_dir() -> Path:
    env = os.environ.get("CAVELAST_GOLDEN_DIR")
    if env:
        return Path(env)
    return Path(__file__).parent / "golden" / "v1"


def resolve_scenario(name) -> Path:
    p = Path(name)
    if p.is_file():
        return p
    bundled = Path(__file__).parent / "scenarios" / f"{name}.ini"
    if bundled.is_file():
        return bundled
    raise ConfigurationError(f"no such config file or bundled scenario: {name}")


def _number(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_punctures(raw: str) -> tuple:
    out = []
    for part in filter(None, (p.strip() for p in raw.split(";"))):
        toks = part.split()
        if len(toks) != 3:
            raise ValueError(f"expected 'cx cy rho', got {part!r}")
        cx, cy, r = map(_number, toks)
        out.append(((cx, cy), r))
    return tuple(out)


def _parse_matrix(raw: str) -> tuple:
    rows = [r.split() for r in raw.split(";") if r.strip()]
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise ValueError("expected 'a11 a12; a21 a22'")
    return tuple(tuple(map(_number, r)) for r in rows)


def _parse_emit(raw: str) -> tuple:
    return tuple(s.strip() for s in raw.split(",") if s.strip())


def _finite(value) -> bool:
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def _option(section, default, parse=_number, *, key=None, fmt=None,
            when=None, positive=False):
    """A ScenarioConfig field kept as `key` (default: the field name) in
    [section], read by `parse` (which raises ValueError on bad text) and
    written by `to_ini` with `fmt` whenever `when(cfg)` holds (default: always)."""
    fmt = fmt or (repr if parse is _number else str)
    return field(default=default, metadata=dict(
        section=section, key=key, parse=parse, fmt=fmt, when=when,
        positive=positive))


@dataclass
class ScenarioConfig:
    """Everything a run needs, round-trippable through INI text."""

    shape: str = _option("domain", "disk", str)
    h: float = _option("domain", 0.1, positive=True)
    radius: float = _option("domain", 1.0, when=lambda c: c.shape != "square")
    side: float = _option("domain", 1.0, when=lambda c: c.shape == "square")
    inner: float = _option("domain", 0.4, when=lambda c: c.shape == "annulus")
    punctures: tuple = _option(
        "domain", (), _parse_punctures, when=lambda c: c.punctures,
        fmt=lambda ps: "; ".join(f"{c[0]!r} {c[1]!r} {r!r}" for c, r in ps))
    mu: float = _option("material", 1.0, positive=True)
    a: float = _option("material", 1.0, positive=True)
    b: float = _option("material", 1.0, positive=True)
    phi_kind: str = _option("surface", "isotropic", str, key="kind")
    phi_A: tuple | None = _option(
        "surface", None, _parse_matrix, key="A", when=lambda c: c.phi_A is not None,
        fmt=lambda rows: "; ".join(f"{r[0]!r} {r[1]!r}" for r in rows))
    phi_eps: float = _option("surface", 0.1, key="eps",
                             when=lambda c: c.phi_kind == "smoothed_l1")
    bc_kind: str = _option("boundary", "radial_stretch", str, key="kind")
    lam: float = _option("boundary", 1.0, positive=True)
    tag: str = _option("boundary", "dirichlet", str)
    max_iters: int = _option("solver", 400, int)
    tol_E: float = _option("solver", 1e-10, positive=True)
    residual_rel: float = _option("solver", 1e-3, positive=True)
    det_floor: float = _option("solver", 1e-8, positive=True)
    inv_every: int = _option("solver", 10, int)
    inv_delta: float = _option("solver", 0.02, positive=True)
    seed: int = _option("run", 0, int)
    emit: tuple = _option("run", ("svg", "csv"), _parse_emit, fmt=",".join)
    delta: float = _option("run", 0.02, positive=True)
    out: str = _option("run", "", str, when=lambda c: c.out)
    name: str = "scenario"

    # -- parsing ----------------------------------------------------------

    @classmethod
    def from_ini(cls, source) -> "ScenarioConfig":
        path = Path(source)
        cp = configparser.ConfigParser(interpolation=None)
        try:
            cp.read_string(path.read_text(), source=str(path))
        except configparser.Error as err:
            raise ConfigurationError(f"malformed config: {err}") from err
        options = {(sec, cp.optionxform(key)): (name, key, meta["parse"])
                   for name, sec, key, meta in _OPTIONS}
        values = {}
        for sec in cp.sections():
            if sec not in {s for s, _ in options}:
                raise ConfigurationError(f"unknown section [{sec}] in {path}")
            for k, raw in cp[sec].items():
                if (sec, k) not in options:
                    raise ConfigurationError(
                        f"unknown key '{k}' in section [{sec}] of {path}")
                name, key, parse = options[sec, k]
                try:
                    values[name] = parse(raw)
                except ValueError as err:
                    raise ConfigurationError(
                        f"[{sec}] {key} = {raw!r}: {err}") from err
        cfg = cls(**values, name=path.stem)
        cfg.validate()
        return cfg

    def to_ini(self) -> str:
        lines, section = [], None
        for name, sec, key, meta in _OPTIONS:
            if meta["when"] is not None and not meta["when"](self):
                continue
            if sec != section:
                lines += ["", f"[{sec}]"]
                section = sec
            lines.append(f"{key} = {meta['fmt'](getattr(self, name))}")
        return "\n".join(lines[1:]) + "\n"

    # -- validation --------------------------------------------------------

    def validate(self):
        for name, sec, key, meta in _OPTIONS:
            value = getattr(self, name)
            if not _finite(value):
                raise ConfigurationError(f"[{sec}] {key} must be finite")
            if meta["positive"] and value <= 0.0:
                raise ConfigurationError(f"[{sec}] {key} must be positive")
        if self.shape not in _SHAPES:
            raise ConfigurationError(f"[domain] shape must be one of {_SHAPES}")
        if self.shape == "disk" and self.radius <= 0.0:
            raise ConfigurationError("[domain] radius must be positive")
        if self.shape == "square" and self.side <= 0.0:
            raise ConfigurationError("[domain] side must be positive")
        if self.shape == "annulus" and not 0.0 < self.inner < self.radius:
            raise ConfigurationError("[domain] need 0 < inner < radius")
        inradius = {"disk": self.radius, "square": 0.5 * self.side,
                    "annulus": 0.5 * (self.radius - self.inner)}[self.shape]
        bound = inradius / 4.0
        for c, r in self.punctures:
            if r <= 0.0:
                raise ConfigurationError("[domain] puncture radius must be positive")
            if r >= bound:
                raise ConfigurationError(
                    f"[domain] puncture radius {r:g} must stay below "
                    f"inradius/4 = {bound:g}")
        # ordered pairs: the INV circles about puncture k must clear disk j
        for k, (ck, rk) in enumerate(self.punctures):
            for j, (cj, rj) in enumerate(self.punctures):
                if j == k:
                    continue
                d = math.dist(ck, cj)
                if d <= rk + rj:
                    raise ConfigurationError(
                        f"[domain] punctures {min(j, k)} and {max(j, k)} meet: "
                        f"centre distance {d:g} <= {rk:g} + {rj:g}")
                r_lo, r_hi = _radius_range(rk, d - rj)
                if r_lo >= r_hi:
                    raise ConfigurationError(
                        f"[domain] punctures {k} and {j} are too close: no room "
                        f"for invertibility circles around puncture {k} "
                        f"(centre distance {d:g})")
        if self.phi_kind not in ("isotropic", "elliptic", "smoothed_l1"):
            raise ConfigurationError("[surface] kind must be isotropic, "
                                     "elliptic or smoothed_l1")
        if self.phi_kind == "elliptic" and self.phi_A is None:
            raise ConfigurationError("[surface] elliptic kind needs the matrix A")
        if self.bc_kind not in ("radial_stretch", "affine_stretch"):
            raise ConfigurationError("[boundary] kind must be radial_stretch "
                                     "or affine_stretch")
        if self.tag.split() != [self.tag] or self.tag.startswith("puncture_") \
                or (self.shape == "annulus" and self.tag == "free"):
            raise ConfigurationError("[boundary] tag must be one word, not "
                                     "puncture_<k>, and not free on an annulus")
        if self.max_iters < 1:
            raise ConfigurationError("[solver] max_iters must be at least 1")
        if self.inv_every < 0:
            raise ConfigurationError("[solver] inv_every must be nonnegative")
        if self.seed < 0:
            raise ConfigurationError("[run] seed must be nonnegative")
        for e in self.emit:
            if e not in _EMIT_CHOICES:
                raise ConfigurationError(
                    f"[run] emit entry {e!r} not in {_EMIT_CHOICES}")


# (field name, section, INI key, metadata) of every INI-backed field
_OPTIONS = [(f.name, f.metadata["section"], f.metadata["key"] or f.name, f.metadata)
            for f in fields(ScenarioConfig) if f.metadata]


# ---------------------------------------------------------------------------
# object builders


def build_mesh(cfg: ScenarioConfig) -> Mesh:
    if cfg.shape == "disk":
        return build_disk_mesh(cfg.radius, cfg.h, punctures=cfg.punctures,
                               tag=cfg.tag)
    if cfg.shape == "square":
        return build_square_mesh(cfg.side, cfg.h, punctures=cfg.punctures,
                                 tag=cfg.tag)
    return build_annulus_mesh(cfg.radius, cfg.inner, cfg.h,
                              punctures=cfg.punctures, tag=cfg.tag)


def build_density(cfg: ScenarioConfig) -> BulkDensity:
    return BulkDensity(mu=cfg.mu, a=cfg.a, b=cfg.b)


def build_phi(cfg: ScenarioConfig) -> SurfaceDensity:
    try:
        if cfg.phi_kind == "elliptic":
            return SurfaceDensity("elliptic", A=np.asarray(cfg.phi_A, dtype=float))
        if cfg.phi_kind == "smoothed_l1":
            return SurfaceDensity("smoothed_l1", eps=cfg.phi_eps)
        return SurfaceDensity("isotropic")
    except ValueError as err:
        raise ConfigurationError(f"[surface] {err}") from err


def build_boundary(cfg: ScenarioConfig) -> BoundaryData:
    return BoundaryData(kind=cfg.bc_kind, lam=cfg.lam)


# ---------------------------------------------------------------------------
# artifact writers


def _write_positions_csv(y: DeformationField, path):
    ids = np.arange(len(y.positions))
    write_table(path, "id,x,y,pos_x,pos_y", "%d,%.17g,%.17g,%.17g,%.17g",
                np.column_stack([ids, y.mesh.vertices, y.positions]))


def _read_positions_csv(path) -> np.ndarray:
    table = read_table(path, 5, skip=1, delimiter=",")
    if not np.array_equal(table[:, 0], np.arange(len(table))):
        raise ArtifactError(f"vertex ids in {path} do not run 0, 1, 2, ...")
    return table[:, 3:]


def _write_cavities_csv(cavities, path):
    rows = [np.column_stack([np.full(len(rec.boundary), k), rec.boundary])
            for k, rec in enumerate(cavities)]
    write_table(path, "cavity,x,y", "%d,%.12g,%.12g",
                np.concatenate(rows or [np.empty((0, 3))]))


def _read_cavities_csv(path) -> list:
    table = read_table(path, 3, skip=1, delimiter=",")
    k = table[:, 0]
    return [table[k == i, 1:] for i in np.unique(k)]


def _svg_document(segments, loops):
    """Deterministic 720 x 720 SVG text: one path of mesh edges, one polygon
    per loop."""
    size = 720
    pts = np.concatenate([segments.reshape(-1, 2)] + loops)
    if not len(pts):
        pts = np.zeros((1, 2))
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-9))
    pad = 0.05 * span
    scale = size / (span + 2.0 * pad)

    def tx(p):
        t = (p - lo + pad) * scale
        t[..., 1] = size - t[..., 1]
        return t

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
           f'height="{size}" viewBox="0 0 {size} {size}">',
           f'<rect width="{size}" height="{size}" fill="white"/>']
    if len(segments):
        d = format_rows("M%.2f %.2fL%.2f %.2f", tx(segments).reshape(-1, 4))
        out.append('<path d="' + d.replace("\n", "")
                   + '" stroke="#8a8a8a" stroke-width="0.6" fill="none"/>')
    for loop in loops:
        coords = " ".join(format_rows("%.2f,%.2f", tx(loop)).split())
        out.append(f'<polygon points="{coords}" stroke="#c0392b" '
                   f'stroke-width="1.8" fill="none"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _mesh_edge_segments(vertices, triangles):
    pairs = np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]],
                            triangles[:, [2, 0]]])
    pairs = np.unique(np.sort(pairs, axis=1), axis=0)
    return vertices[pairs]


def render_reference_svg(mesh_path, out_path):
    """Reference mesh with puncture loops, drawn from the mesh file alone."""
    mesh = load_mesh(mesh_path)
    segs = _mesh_edge_segments(mesh.vertices, mesh.triangles)
    loops = [mesh.vertices[ids] for ids in mesh.puncture_loops()]
    Path(out_path).write_text(_svg_document(segs, loops))


def render_deformed_svg(mesh_path, positions_path, cavities_path, out_path):
    """Deformed mesh plus cavity polygons, drawn from the exports alone."""
    mesh = load_mesh(mesh_path)
    pos = _read_positions_csv(positions_path)
    loops = _read_cavities_csv(cavities_path) if Path(cavities_path).is_file() else []
    segs = _mesh_edge_segments(pos, mesh.triangles)
    Path(out_path).write_text(_svg_document(segs, loops))


# ---------------------------------------------------------------------------
# scenario execution


def _summary_lines(cfg, status, n_iters, breakdown, inv_report, residual,
                   fv_report):
    lines = [
        f"scenario = {cfg.name}",
        f"status = {status}",
        f"seed = {cfg.seed}",
        f"iterations = {n_iters}",
        breakdown.as_text(),
        f"battery_residual = {residual:.12g}",
        f"inv_check = {'PASS' if inv_report.passed else 'FAIL'}",
        f"inv_violations = {inv_report.total_violations}",
    ]
    for k, rec in enumerate(breakdown.cavities):
        lines.append(f"cavity_{k}_radius_mean = {rec.radius_mean():.12g}")
        lines.append(f"cavity_{k}_area = {rec.area:.12g}")
    if fv_report is not None:
        lines.append(fv_report.as_text())
    return "\n".join(lines) + "\n"


def run_scenario(config, out_dir=None, mode="run", emit=None, threads=None):
    """Execute one scenario; returns (exit_code, artifact_dir). Exit code 2
    (input that cannot be run) writes nothing and returns no directory."""
    try:
        cfg = config if isinstance(config, ScenarioConfig) \
            else ScenarioConfig.from_ini(resolve_scenario(config))
        cfg.validate()
    except ConfigurationError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2, None
    emit = tuple(emit) if emit is not None else cfg.emit
    out = Path(out_dir) if out_dir else Path(cfg.out or f"runs/{cfg.name}")

    try:
        mesh = build_mesh(cfg)
        density = build_density(cfg)
        phi = build_phi(cfg)
        bc = build_boundary(cfg)
        y0 = bc.initial_field(mesh)
    except (ConfigurationError, CavelastError) as err:
        print(f"infeasible input: {err}", file=sys.stderr)
        return 2, None

    try:
        if mode == "run":
            y, log = minimize(y0, density, phi, max_iters=cfg.max_iters,
                              tol_E=cfg.tol_E, residual_rel=cfg.residual_rel,
                              det_floor=cfg.det_floor, inv_every=cfg.inv_every,
                              inv_delta=cfg.inv_delta, seed=cfg.seed)
            status = log.status
        else:
            y = y0
            log = IterationLog()
            log.status = status = "evaluated"
        breakdown = total_energy(y, density, phi)
    except InfeasibleEnergyError as err:
        print(f"infeasible input: {err}", file=sys.stderr)
        return 2, None

    inv_report = check_inv(y, delta=cfg.inv_delta, seed=cfg.seed)
    fields = certification_battery(y, seed=cfg.seed)
    variations = battery_variations(y, density, phi, fields)
    residual = max([0.0] + variations)
    fv_report = None
    if fields:
        # first field attaining the residual (a NaN variation counts as 0)
        worst = fields[[max(0.0, v) for v in variations].index(residual)]
        fv_report = first_variation_residual(y, worst, density, phi)
    if mode == "eval":
        dmin = min_det(y)
        log.add(iter=0, energy=breakdown.total, bulk=breakdown.bulk,
                surface=breakdown.surface, min_det=dmin, step=0.0,
                residual=residual)

    out.mkdir(parents=True, exist_ok=True)
    (out / "config.ini").write_text(cfg.to_ini())
    (out / "summary.txt").write_text(_summary_lines(
        cfg, status, max(0, len(log.records) - 1), breakdown, inv_report,
        residual, fv_report))
    log.to_csv(out / "iterations.csv")
    mesh.save(out / "mesh.cavmesh")
    _write_positions_csv(y, out / "positions.csv")
    _write_cavities_csv(breakdown.cavities, out / "cavities.csv")
    if "svg" in emit:
        render_reference_svg(out / "mesh.cavmesh", out / "reference.svg")
        render_deformed_svg(out / "mesh.cavmesh", out / "positions.csv",
                            out / "cavities.csv", out / "deformed.svg")
    if "raster" in emit:
        topological_image(y, "omega", cfg.delta).save_pgm(out / "raster.pgm")
    if "inverse" in emit:
        inv = build_inverse_field(y, cfg.delta)
        inv.to_csv(out / "inverse.csv")
        jump_set_to_csv(extract_jump_set(inv), out / "jumps.csv")
    if threads is not None:
        (out / "meta.txt").write_text(f"threads = {int(threads)}\n")

    if mode == "run" and status != "converged":
        print(f"solver did not converge: status {status}", file=sys.stderr)
        return 3, out
    return 0, out


# ---------------------------------------------------------------------------
# run comparison


def _load_run(d: Path):
    d = Path(d)
    for name in ("summary.txt", "config.ini", "mesh.cavmesh", "positions.csv"):
        if not (d / name).is_file():
            raise ConfigurationError(f"missing {Path(name).stem}: {d / name}")
    cfg = ScenarioConfig.from_ini(d / "config.ini")
    mesh = load_mesh(d / "mesh.cavmesh")
    y = DeformationField(mesh, _read_positions_csv(d / "positions.csv"))
    return cfg, y


@dataclass
class CompareReport:
    """Cross-evaluation of two runs under each other's energy."""

    total_a: float
    total_b: float
    surface_a: float
    surface_b: float
    cross_total_ab: float      # A's field under B's density and phi
    cross_surface_ab: float
    cross_total_ba: float
    cross_surface_ba: float
    alarm_b: bool              # foreign field beats B under B's own energy
    alarm_a: bool
    margin_b: float
    margin_a: float

    @property
    def alarm(self) -> bool:
        return self.alarm_a or self.alarm_b

    def as_text(self) -> str:
        lines = [
            f"total_a = {self.total_a:.12g}",
            f"total_b = {self.total_b:.12g}",
            f"surface_a = {self.surface_a:.12g}",
            f"surface_b = {self.surface_b:.12g}",
            f"cross_total_ab = {self.cross_total_ab:.12g}",
            f"cross_surface_ab = {self.cross_surface_ab:.12g}",
            f"cross_total_ba = {self.cross_total_ba:.12g}",
            f"cross_surface_ba = {self.cross_surface_ba:.12g}",
            f"margin_a = {self.margin_a:.12g}",
            f"margin_b = {self.margin_b:.12g}",
            f"minimality_alarm = {'RAISED' if self.alarm else 'clear'}",
        ]
        if self.alarm_b:
            lines.append("alarm_detail = run A's field has lower energy under "
                         "run B's density/phi than run B's own minimizer")
        if self.alarm_a:
            lines.append("alarm_detail = run B's field has lower energy under "
                         "run A's density/phi than run A's own minimizer")
        return "\n".join(lines) + "\n"


def compare_runs(dir_a, dir_b) -> CompareReport:
    cfg_a, y_a = _load_run(Path(dir_a))
    cfg_b, y_b = _load_run(Path(dir_b))
    dens_a, phi_a = build_density(cfg_a), build_phi(cfg_a)
    dens_b, phi_b = build_density(cfg_b), build_phi(cfg_b)

    own_a = total_energy(y_a, dens_a, phi_a)
    own_b = total_energy(y_b, dens_b, phi_b)
    ab = total_energy(y_a, dens_b, phi_b)   # A's field, B's energy
    ba = total_energy(y_b, dens_a, phi_a)

    slack = 1e-9
    margin_b = (ab.total - own_b.total) / max(abs(own_b.total), 1e-300)
    margin_a = (ba.total - own_a.total) / max(abs(own_a.total), 1e-300)
    return CompareReport(
        total_a=own_a.total, total_b=own_b.total,
        surface_a=own_a.surface, surface_b=own_b.surface,
        cross_total_ab=ab.total, cross_surface_ab=ab.surface,
        cross_total_ba=ba.total, cross_surface_ba=ba.surface,
        alarm_b=margin_b < -slack, alarm_a=margin_a < -slack,
        margin_b=margin_b, margin_a=margin_a)


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cavelast",
        description="cavitation scenarios: minimize, evaluate, compare")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("config", help="config path or bundled scenario name")
        p.add_argument("--out", default=None, help="artifact directory")
        p.add_argument("--emit", default=None,
                       help="comma list from: " + ",".join(_EMIT_CHOICES))
        p.add_argument("--threads", type=int, default=None,
                       help="recorded in meta.txt")

    add_common(sub.add_parser("run", help="minimize and write artifacts"))
    add_common(sub.add_parser("eval", help="evaluate the boundary field only"))
    pc = sub.add_parser("compare", help="cross-evaluate two run directories")
    pc.add_argument("dir_a")
    pc.add_argument("dir_b")

    args = parser.parse_args(argv)
    if args.command == "compare":
        try:
            report = compare_runs(args.dir_a, args.dir_b)
        except (ConfigurationError, CavelastError) as err:
            print(f"compare error: {err}", file=sys.stderr)
            return 2
        print(report.as_text(), end="")
        return 0

    emit = None if args.emit is None else _parse_emit(args.emit)
    code, out = run_scenario(args.config, out_dir=args.out,
                             mode=args.command, emit=emit,
                             threads=args.threads)
    if out is not None:
        print(f"artifacts in {out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
