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
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .degree import check_inv, topological_image
from .energy import total_energy
from .exceptions import (CavelastError, ConfigurationError,
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
_KEYS = {
    "domain": {"shape", "h", "radius", "side", "inner", "punctures"},
    "material": {"mu", "a", "b"},
    "surface": {"kind", "A", "eps"},
    "boundary": {"kind", "lam", "tag"},
    "solver": {"max_iters", "tol_E", "residual_rel", "det_floor", "inv_every",
               "inv_delta"},
    "run": {"seed", "emit", "delta", "out"},
}

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


@dataclass
class ScenarioConfig:
    """Everything a run needs, round-trippable through INI text."""

    shape: str = "disk"
    h: float = 0.1
    radius: float = 1.0
    side: float = 1.0
    inner: float = 0.4
    punctures: tuple = ()
    mu: float = 1.0
    a: float = 1.0
    b: float = 1.0
    phi_kind: str = "isotropic"
    phi_A: tuple | None = None
    phi_eps: float = 0.1
    bc_kind: str = "radial_stretch"
    lam: float = 1.0
    tag: str = "dirichlet"
    max_iters: int = 400
    tol_E: float = 1e-10
    residual_rel: float = 1e-3
    det_floor: float = 1e-8
    inv_every: int = 10
    inv_delta: float = 0.02
    seed: int = 0
    emit: tuple = ("svg", "csv")
    delta: float = 0.02
    out: str = ""
    name: str = "scenario"

    # -- parsing ----------------------------------------------------------

    @classmethod
    def from_ini(cls, source) -> "ScenarioConfig":
        path = Path(source)
        text = path.read_text()
        cp = configparser.ConfigParser()
        try:
            cp.read_string(text, source=str(path))
        except configparser.Error as err:
            raise ConfigurationError(f"malformed config: {err}") from err
        for sec in cp.sections():
            if sec not in _KEYS:
                raise ConfigurationError(f"unknown section [{sec}] in {path}")
            for key in cp[sec]:
                if key not in {k.lower() for k in _KEYS[sec]}:
                    raise ConfigurationError(
                        f"unknown key '{key}' in section [{sec}] of {path}")

        def fget(sec, key, default, cast=float):
            if sec in cp and key in cp[sec]:
                raw = cp[sec][key]
                try:
                    return cast(raw)
                except ValueError as err:
                    raise ConfigurationError(
                        f"[{sec}] {key} = {raw!r}: {err}") from err
            return default

        punct = ()
        if "domain" in cp and "punctures" in cp["domain"]:
            punct = _parse_punctures(cp["domain"]["punctures"])
        phi_a = None
        if "surface" in cp and "A" in cp["surface"]:
            phi_a = _parse_matrix(cp["surface"]["A"])
        emit = cls.emit
        if "run" in cp and "emit" in cp["run"]:
            emit = tuple(s.strip() for s in cp["run"]["emit"].split(",") if s.strip())
        cfg = cls(
            shape=fget("domain", "shape", cls.shape, str),
            h=fget("domain", "h", cls.h),
            radius=fget("domain", "radius", cls.radius),
            side=fget("domain", "side", cls.side),
            inner=fget("domain", "inner", cls.inner),
            punctures=punct,
            mu=fget("material", "mu", cls.mu),
            a=fget("material", "a", cls.a),
            b=fget("material", "b", cls.b),
            phi_kind=fget("surface", "kind", cls.phi_kind, str),
            phi_A=phi_a,
            phi_eps=fget("surface", "eps", cls.phi_eps),
            bc_kind=fget("boundary", "kind", cls.bc_kind, str),
            lam=fget("boundary", "lam", cls.lam),
            tag=fget("boundary", "tag", cls.tag, str),
            max_iters=fget("solver", "max_iters", cls.max_iters, int),
            tol_E=fget("solver", "tol_E", cls.tol_E),
            residual_rel=fget("solver", "residual_rel", cls.residual_rel),
            det_floor=fget("solver", "det_floor", cls.det_floor),
            inv_every=fget("solver", "inv_every", cls.inv_every, int),
            inv_delta=fget("solver", "inv_delta", cls.inv_delta),
            seed=fget("run", "seed", cls.seed, int),
            emit=emit,
            delta=fget("run", "delta", cls.delta),
            out=fget("run", "out", cls.out, str),
            name=path.stem,
        )
        cfg.validate()
        return cfg

    def to_ini(self) -> str:
        lines = ["[domain]", f"shape = {self.shape}", f"h = {self.h!r}"]
        if self.shape == "disk":
            lines.append(f"radius = {self.radius!r}")
        elif self.shape == "square":
            lines.append(f"side = {self.side!r}")
        else:
            lines.append(f"radius = {self.radius!r}")
            lines.append(f"inner = {self.inner!r}")
        if self.punctures:
            parts = [f"{c[0]!r} {c[1]!r} {r!r}" for c, r in self.punctures]
            lines.append("punctures = " + "; ".join(parts))
        lines += ["", "[material]", f"mu = {self.mu!r}", f"a = {self.a!r}",
                  f"b = {self.b!r}"]
        lines += ["", "[surface]", f"kind = {self.phi_kind}"]
        if self.phi_A is not None:
            rows = "; ".join(f"{r[0]!r} {r[1]!r}" for r in self.phi_A)
            lines.append(f"A = {rows}")
        if self.phi_kind == "smoothed_l1":
            lines.append(f"eps = {self.phi_eps!r}")
        lines += ["", "[boundary]", f"kind = {self.bc_kind}",
                  f"lam = {self.lam!r}", f"tag = {self.tag}"]
        lines += ["", "[solver]", f"max_iters = {self.max_iters}",
                  f"tol_E = {self.tol_E!r}",
                  f"residual_rel = {self.residual_rel!r}",
                  f"det_floor = {self.det_floor!r}",
                  f"inv_every = {self.inv_every}",
                  f"inv_delta = {self.inv_delta!r}"]
        lines += ["", "[run]", f"seed = {self.seed}",
                  "emit = " + ",".join(self.emit), f"delta = {self.delta!r}"]
        if self.out:
            lines.append(f"out = {self.out}")
        return "\n".join(lines) + "\n"

    # -- validation --------------------------------------------------------

    def inradius(self) -> float:
        if self.shape == "disk":
            return self.radius
        if self.shape == "square":
            return 0.5 * self.side
        return 0.5 * (self.radius - self.inner)

    def validate(self):
        if self.shape not in _SHAPES:
            raise ConfigurationError(f"[domain] shape must be one of {_SHAPES}")
        if self.h <= 0.0:
            raise ConfigurationError("[domain] h must be positive")
        if self.shape == "disk" and self.radius <= 0.0:
            raise ConfigurationError("[domain] radius must be positive")
        if self.shape == "square" and self.side <= 0.0:
            raise ConfigurationError("[domain] side must be positive")
        if self.shape == "annulus" and not 0.0 < self.inner < self.radius:
            raise ConfigurationError("[domain] need 0 < inner < radius")
        bound = self.inradius() / 4.0
        for c, r in self.punctures:
            if r <= 0.0:
                raise ConfigurationError("[domain] puncture radius must be positive")
            if r >= bound:
                raise ConfigurationError(
                    f"[domain] puncture radius {r:g} must stay below "
                    f"inradius/4 = {bound:g}")
        for key in ("mu", "a", "b"):
            if getattr(self, key) <= 0.0:
                raise ConfigurationError(f"[material] {key} must be positive")
        if self.phi_kind not in ("isotropic", "elliptic", "smoothed_l1"):
            raise ConfigurationError("[surface] kind must be isotropic, "
                                     "elliptic or smoothed_l1")
        if self.phi_kind == "elliptic" and self.phi_A is None:
            raise ConfigurationError("[surface] elliptic kind needs the matrix A")
        if self.bc_kind not in ("radial_stretch", "affine_stretch"):
            raise ConfigurationError("[boundary] kind must be radial_stretch "
                                     "or affine_stretch")
        if self.lam <= 0.0:
            raise ConfigurationError("[boundary] lam must be positive")
        for key in ("tol_E", "residual_rel", "det_floor", "inv_delta", "delta"):
            if getattr(self, key) <= 0.0:
                raise ConfigurationError(f"[solver] {key} must be positive")
        if self.max_iters < 1:
            raise ConfigurationError("[solver] max_iters must be at least 1")
        if self.inv_every < 0:
            raise ConfigurationError("[solver] inv_every must be nonnegative")
        for e in self.emit:
            if e not in _EMIT_CHOICES:
                raise ConfigurationError(
                    f"[run] emit entry {e!r} not in {_EMIT_CHOICES}")


def _parse_punctures(raw: str) -> tuple:
    out = []
    for part in raw.split(";"):
        part = part.strip()
        if not part:
            continue
        toks = part.split()
        if len(toks) != 3:
            raise ConfigurationError(
                f"[domain] punctures: expected 'cx cy rho', got {part!r}")
        cx, cy, r = (float(t) for t in toks)
        out.append(((cx, cy), r))
    return tuple(out)


def _parse_matrix(raw: str) -> tuple:
    rows = [r.strip() for r in raw.split(";") if r.strip()]
    if len(rows) != 2 or any(len(r.split()) != 2 for r in rows):
        raise ConfigurationError("[surface] A must be 'a11 a12; a21 a22'")
    return tuple(tuple(float(t) for t in r.split()) for r in rows)


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
    return BoundaryData(kind=cfg.bc_kind, lam=cfg.lam, tag=cfg.tag)


# ---------------------------------------------------------------------------
# artifact writers


def _write_positions_csv(y: DeformationField, path):
    lines = ["id,x,y,pos_x,pos_y"]
    for i, (v, p) in enumerate(zip(y.mesh.vertices, y.positions)):
        lines.append(f"{i},{v[0]:.17g},{v[1]:.17g},{p[0]:.17g},{p[1]:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def _read_positions_csv(path) -> np.ndarray:
    rows = Path(path).read_text().strip().splitlines()[1:]
    out = np.empty((len(rows), 2))
    for row in rows:
        i, _, _, px, py = row.split(",")
        out[int(i)] = (float(px), float(py))
    return out


def _write_cavities_csv(cavities, path):
    lines = ["cavity,x,y"]
    for k, rec in enumerate(cavities):
        lines.extend(rec.to_csv_rows(k))
    Path(path).write_text("\n".join(lines) + "\n")


def _read_cavities_csv(path) -> list:
    rows = Path(path).read_text().strip().splitlines()[1:]
    loops = {}
    for row in rows:
        k, x, yy = row.split(",")
        loops.setdefault(int(k), []).append((float(x), float(yy)))
    return [np.asarray(loops[k]) for k in sorted(loops)]


def _svg_document(segments, loops, size=720):
    """Deterministic SVG text: one path of mesh edges, one polygon per loop."""
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


def _mesh_edge_segments(vertices, triangles):
    pairs = np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]],
                            triangles[:, [2, 0]]])
    pairs = np.unique(np.sort(pairs, axis=1), axis=0)
    return list(vertices[pairs])


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
                   fv_report, notes):
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
    for note in notes:
        lines.append(f"note = {note}")
    return "\n".join(lines) + "\n"


def run_scenario(config, out_dir=None, mode="run", emit=None, threads=None):
    """Execute one scenario; returns (exit_code, artifact_dir or None)."""
    try:
        cfg = config if isinstance(config, ScenarioConfig) \
            else ScenarioConfig.from_ini(resolve_scenario(config))
    except ConfigurationError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2, None
    emit = tuple(emit) if emit is not None else cfg.emit
    out = Path(out_dir) if out_dir else Path(cfg.out or f"runs/{cfg.name}")
    out.mkdir(parents=True, exist_ok=True)

    try:
        mesh = build_mesh(cfg)
        density = build_density(cfg)
        phi = build_phi(cfg)
        bc = build_boundary(cfg)
        y0 = bc.initial_field(mesh)
    except (ConfigurationError, CavelastError) as err:
        print(f"infeasible input: {err}", file=sys.stderr)
        return 2, out

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
        return 2, out

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

    (out / "config.ini").write_text(cfg.to_ini())
    (out / "summary.txt").write_text(_summary_lines(
        cfg, status, max(0, len(log.records) - 1), breakdown, inv_report,
        residual, fv_report, log.notes))
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
    summary = d / "summary.txt"
    if not summary.is_file():
        raise ConfigurationError(f"missing summary: {summary}")
    kv = {}
    for line in summary.read_text().splitlines():
        if " = " in line:
            k, v = line.split(" = ", 1)
            kv.setdefault(k, v)
    cfg = ScenarioConfig.from_ini(d / "config.ini")
    mesh = load_mesh(d / "mesh.cavmesh")
    y = DeformationField(mesh, _read_positions_csv(d / "positions.csv"))
    return kv, cfg, y


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
    kv_a, cfg_a, y_a = _load_run(Path(dir_a))
    kv_b, cfg_b, y_b = _load_run(Path(dir_b))
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

    emit = None
    if args.emit is not None:
        emit = tuple(s.strip() for s in args.emit.split(",") if s.strip())
    code, out = run_scenario(args.config, out_dir=args.out,
                             mode=args.command, emit=emit,
                             threads=args.threads)
    if out is not None:
        print(f"artifacts in {out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
