"""Configuration-driven scenario runner.

`cavelast run <config>` minimizes a scenario and writes a self-contained
artifact directory: a canonical copy of the config, a flat key = value
summary, CSV side files, the mesh, and SVG figures drawn from exactly the
numbers the exported files hold. `eval` skips the solver, `compare`
cross-evaluates two run directories under each other's surface density and
raises a minimality alarm when a foreign minimizer wins.
"""

import argparse
import configparser
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from ._table import format_rows, read_table, write_table
# check_inv is not called here; it stays bound because perfbench's tracer patches it
from .degree import (_RASTER_MARGIN, boundary_crossings, check_inv,  # noqa: F401
                     covering_grid, topological_image)
from .energy import DiscreteEnergy, EnergyBreakdown, total_energy
from .exceptions import (ArtifactError, CavelastError, ConfigurationError,
                         DomainError, InfeasibleEnergyError)
from .geometry import (BoundaryData, DeformationField, Mesh,
                       build_annulus_mesh, build_disk_mesh, build_square_mesh,
                       load_mesh)
from .inverse import build_inverse_field, extract_jump_set, jump_set_to_csv
from .material import BulkDensity, SurfaceDensity
# battery_residual is not called here; it stays importable from this module
# because perfbench's tracer patches it under this name
from .variation import (IterationLog, VariationReport, battery_residual,  # noqa: F401
                        battery_variations, certification_battery, first_variation_residual, minimize)

# the artifacts each emitter adds to those every run writes
_EMITTED = {"svg": ("reference.svg", "deformed.svg"), "raster": ("raster.pgm",),
            "inverse": ("inverse.csv", "jumps.csv")}
_SHAPES = ("disk", "square", "annulus")
_MAX_GRID_CELLS = 2**24  # about 1.6 GB for an inverse raster and its jump set
# the hex fill of the domain's bounding box; the unit disk at h = 0.0021 (1.05e6)
# meshes in about 17 s at 0.8 GB, the plain unit square at h = 0.00105 at 1 GB
_MAX_MESH_POINTS = 2**20

__all__ = [
    "ScenarioConfig", "build_mesh", "build_density", "build_phi", "build_boundary",
    "RunRecord", "solve", "compute", "write", "run_scenario", "CompareReport", "compare_runs",
    "render_reference_svg", "render_deformed_svg", "resolve_scenario", "main",
]


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
    radius: float = _option("domain", 1.0, positive=True, when=lambda c: c.shape != "square")
    side: float = _option("domain", 1.0, positive=True, when=lambda c: c.shape == "square")
    inner: float = _option("domain", 0.4, positive=True, when=lambda c: c.shape == "annulus")
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
    phi_eps: float = _option("surface", 0.1, key="eps", positive=True,
                             when=lambda c: c.phi_kind == "smoothed_l1")
    bc_kind: str = _option("boundary", "radial_stretch", str, key="kind")
    lam: float = _option("boundary", 1.0, positive=True)
    max_iters: int = _option("solver", 400, int, positive=True)
    inv_every: int = _option("solver", 1, int)
    seed: int = _option("run", 0, int)
    emit: tuple = _option("run", ("svg",), _parse_emit, fmt=",".join)
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
        except UnicodeDecodeError as err:
            raise ConfigurationError(f"malformed config: cannot decode {path}: {err}") from err
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
        if self.shape == "annulus" and self.inner >= self.radius:
            raise ConfigurationError("[domain] inner must be below radius")
        lo, hi, inradius = _extent(self)
        width = hi - lo
        points = 2.0 / math.sqrt(3.0) * (width / self.h) * (width / self.h)
        if points > _MAX_MESH_POINTS:
            raise ConfigurationError(
                f"[domain] h = {self.h!r} needs about {points:.3g} mesh points on this "
                f"{self.shape}, more than {_MAX_MESH_POINTS}")
        bound = inradius / 4.0
        for c, r in self.punctures:
            if r <= 0.0:
                raise ConfigurationError("[domain] puncture radius must be positive")
            if r >= bound:
                raise ConfigurationError(
                    f"[domain] puncture radius {r:g} must stay below "
                    f"inradius/4 = {bound:g}")
        for k, (ck, rk) in enumerate(self.punctures):
            for j, (cj, rj) in enumerate(self.punctures[k + 1:], k + 1):
                d = math.dist(ck, cj)
                if d <= rk + rj:
                    raise ConfigurationError(
                        f"[domain] punctures {k} and {j} meet: "
                        f"centre distance {d:g} <= {rk:g} + {rj:g}")
        # the surface density's and the boundary data's own checks, and the
        # start field's energy, before any meshing
        build_phi(self)
        _check_start_energy(self, width)
        if self.inv_every not in (0, 1):
            raise ConfigurationError("[solver] inv_every must be 0 or 1")
        if self.seed < 0:
            raise ConfigurationError("[run] seed must be nonnegative")
        _check_emit(self.emit, "[run] emit")


def _check_start_energy(cfg, width):
    """Refuse a start field whose bulk energy is not finite, bounded by W at
    its constant gradient times the area width^2 of the domain's bounding
    box. The boundary data's linear map is diagonal: its image of (1, 1)
    holds the principal stretches."""
    with np.errstate(all="ignore"):
        stretches = build_boundary(cfg).map_points([1.0, 1.0])
        try:
            start = build_density(cfg).stretch_energy(*stretches) * width * width
        except DomainError:  # det F rounds to 0
            start = math.inf
    if not math.isfinite(start):
        raise ConfigurationError(
            f"[boundary] lam = {cfg.lam!r}: the start field's energy on this {cfg.shape} "
            f"of width {width:g} under [material] mu = {cfg.mu:g}, a = {cfg.a:g}, "
            f"b = {cfg.b:g} is not finite ({start:g})")


def _extent(cfg):
    """(lo, hi, inradius) of cfg's domain, whose bounding box is [lo, hi]^2."""
    if cfg.shape == "square":
        return 0.0, cfg.side, 0.5 * cfg.side
    if cfg.shape == "disk":
        return -cfg.radius, cfg.radius, cfg.radius
    return -cfg.radius, cfg.radius, 0.5 * (cfg.radius - cfg.inner)


def _check_emit(emit, source):
    for e in emit:
        if e not in _EMITTED:
            raise ConfigurationError(f"{source} entry {e!r} not in {tuple(_EMITTED)}")


def _check_grid(cfg, emit):
    """Refuse a raster or inverse grid above _MAX_GRID_CELLS, sized over the
    boundary data's image of the domain's bounding box with the raster's
    margin; a gated run's or an eval's positions all lie in it."""
    if "raster" not in emit and "inverse" not in emit:
        return
    lo, hi, _ = _extent(cfg)
    image = build_boundary(cfg).map_points([[lo, lo], [hi, hi]])
    with np.errstate(over="ignore", invalid="ignore"):  # a count past int64 wraps
        _, shape = covering_grid(image, cfg.delta, _RASTER_MARGIN)
    if min(shape) < 1 or math.prod(shape) > _MAX_GRID_CELLS:
        raise ConfigurationError(
            f"[run] delta = {cfg.delta!r} needs a raster grid of more than "
            f"{_MAX_GRID_CELLS} cells")


def _check_out(out, source):
    """Refuse a run directory `out` that is a file or lies below one."""
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigurationError(f"{source} = {str(out)!r}: {existing} is not a directory")


# (field name, section, INI key, metadata) of every INI-backed field
_OPTIONS = [(f.name, f.metadata["section"], f.metadata["key"] or f.name, f.metadata)
            for f in fields(ScenarioConfig) if f.metadata]


# ---------------------------------------------------------------------------
# object builders


def build_mesh(cfg: ScenarioConfig) -> Mesh:
    if cfg.shape == "disk":
        return build_disk_mesh(cfg.radius, cfg.h, punctures=cfg.punctures)
    if cfg.shape == "square":
        return build_square_mesh(cfg.side, cfg.h, punctures=cfg.punctures)
    return build_annulus_mesh(cfg.radius, cfg.inner, cfg.h, punctures=cfg.punctures)


def build_density(cfg: ScenarioConfig) -> BulkDensity:
    return BulkDensity(mu=cfg.mu, a=cfg.a, b=cfg.b)


def build_phi(cfg: ScenarioConfig) -> SurfaceDensity:
    try:
        return SurfaceDensity(cfg.phi_kind, A=cfg.phi_A, eps=cfg.phi_eps)
    except ValueError as err:
        raise ConfigurationError(f"[surface] {err}") from err


def build_boundary(cfg: ScenarioConfig) -> BoundaryData:
    try:
        return BoundaryData(kind=cfg.bc_kind, lam=cfg.lam)
    except ValueError as err:
        raise ConfigurationError(f"[boundary] {err}") from err


# ---------------------------------------------------------------------------
# artifact writers


def _write_positions_csv(y: DeformationField, path):
    ids = np.arange(len(y.positions))
    write_table(path, "id,x,y,pos_x,pos_y", "%d,%.17g,%.17g,%.17g,%.17g",
                np.column_stack([ids, y.mesh.vertices, y.positions]))


def _read_positions_csv(path, n) -> np.ndarray:
    """Deformed positions of the n mesh vertices, rows in vertex-id order."""
    table = read_table(path, 5, skip=1, delimiter=",")
    if not np.array_equal(table[:, 0], np.arange(n)):
        raise ArtifactError(f"vertex ids in {path} do not run 0, 1, ..., {n - 1}")
    return table[:, 3:]


def _write_cavities_csv(cavities, path):
    rows = [np.column_stack([np.full(len(rec.boundary), k), rec.boundary])
            for k, rec in enumerate(cavities)]
    write_table(path, "cavity,x,y", "%d,%.12g,%.12g",
                np.concatenate(rows or [np.empty((0, 3))]))


def _as_12g(a) -> np.ndarray:
    """a as a %.12g table holds it: each float rounded to 12 digits."""
    return np.array(format_rows("%.12g", np.reshape(a, (-1, 1))).split(),
                    dtype=float).reshape(np.shape(a))


def _read_cavities_csv(path) -> list:
    table = read_table(path, 3, skip=1, delimiter=",")
    k = table[:, 0]
    return [table[k == i, 1:] for i in np.unique(k)]


def _svg_document(points, pairs, loops):
    """Deterministic 720 x 720 SVG text: one path of the edges `pairs`
    between `points`, one polygon per loop. Each point is formatted once, and
    the frame is fitted to the edge ends and the loops."""
    size = 720
    pts = np.concatenate([points[pairs.ravel()]] + loops)
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
    if len(pairs):
        xy = np.array(format_rows("%.2f %.2f", tx(points)).split("\n")[:-1], dtype=object)
        d = ("M%sL%s" * len(pairs)) % tuple(xy[pairs].ravel().tolist())
        out.append('<path d="' + d + '" stroke="#8a8a8a" stroke-width="0.6" fill="none"/>')
    for loop in loops:
        coords = " ".join(format_rows("%.2f,%.2f", tx(loop)).split())
        out.append(f'<polygon points="{coords}" stroke="#c0392b" '
                   f'stroke-width="1.8" fill="none"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _render_svg(out_path, mesh, pos, loops):
    """The edges of mesh at the nodal positions pos, with the polygons loops
    drawn over them; the one draw path of both figures."""
    Path(out_path).write_text(_svg_document(pos, mesh.edge_pairs, loops))


def render_reference_svg(mesh_path, out_path):
    """Reference mesh with puncture loops, drawn from the mesh file alone."""
    mesh = load_mesh(mesh_path)
    _render_svg(out_path, mesh, mesh.vertices,
                [mesh.vertices[ids] for ids in mesh.puncture_loops()])


def render_deformed_svg(mesh_path, positions_path, cavities_path, out_path):
    """Deformed mesh plus cavity polygons, drawn from the exports alone."""
    mesh = load_mesh(mesh_path)
    loops = _read_cavities_csv(cavities_path) if Path(cavities_path).is_file() else []
    _render_svg(out_path, mesh, _read_positions_csv(positions_path, len(mesh.vertices)), loops)


# ---------------------------------------------------------------------------
# scenario execution


@dataclass
class RunRecord:
    """One run's results, from `compute` to `write`. `fv_report` checks the
    field attaining `residual`; it is None when the battery has no field."""

    cfg: ScenarioConfig
    y: DeformationField
    log: IterationLog
    breakdown: EnergyBreakdown
    crossings: int
    residual: float
    fv_report: VariationReport | None


def solve(cfg: ScenarioConfig, mesh: Mesh):
    """(y, log) of `minimize` on mesh from cfg's boundary data and settings."""
    return minimize(build_boundary(cfg).initial_field(mesh), build_density(cfg), build_phi(cfg),
                    max_iters=cfg.max_iters, inv_every=cfg.inv_every, seed=cfg.seed)


def compute(cfg: ScenarioConfig, mode="run") -> RunRecord:
    """Mesh, solve (mode "run") or evaluate the boundary field, and certify;
    writes nothing. Input that cannot be run raises ConfigurationError, cause
    chained: a CavelastError while building the mesh, or an
    InfeasibleEnergyError from the solve, the energy report or the battery.
    The first-variation report does not raise: where its central difference
    folds a triangle of a field with dets near the floor, its `fd_value`
    and `fd_gap` are nan, and the run keeps its solve status.

    One `EnergyState` of the final field gives the energy report, the
    battery's gradient and the first-variation report: the state `minimize`
    hands over as `log.final`, or in `eval` the state of the boundary field.
    The final field's `boundary_crossings` are counted once, here."""
    try:
        mesh = build_mesh(cfg)
    except CavelastError as err:
        raise ConfigurationError(str(err)) from err
    try:
        if mode == "run":
            y, log = solve(cfg, mesh)
            state = log.final
        else:
            y = build_boundary(cfg).initial_field(mesh)
            log = IterationLog(status="evaluated")
            state = DiscreteEnergy(mesh, build_density(cfg), build_phi(cfg)).state(y.positions)
        breakdown = state.breakdown
        if log.certificate is None:  # the solve's stop test did not certify y
            fields = certification_battery(y, seed=cfg.seed)
            log.certificate = fields, battery_variations(state, fields)
        fields, variations = log.certificate
        residual = max([0.0] + variations)
        fv_report = None
        if fields:  # first field attaining the residual (a NaN variation counts as 0)
            worst = fields[[max(0.0, v) for v in variations].index(residual)]
            fv_report = first_variation_residual(state, worst)
    except InfeasibleEnergyError as err:
        raise ConfigurationError(str(err)) from err
    if mode != "run":
        log.add(iter=0, energy=breakdown.total, bulk=breakdown.bulk, surface=breakdown.surface,
                min_det=state.value[2], step=0.0, residual=residual)
    return RunRecord(cfg, y, log, breakdown, boundary_crossings(mesh, y.positions),
                     residual, fv_report)


def write(record: RunRecord, out, emit):
    """Write the run directory `out`: every run's artifacts and those `emit`
    selects."""
    cfg, y, log, breakdown = record.cfg, record.y, record.log, record.breakdown
    mesh, out = y.mesh, Path(out)
    out.mkdir(parents=True, exist_ok=True)
    # what an earlier run into this directory wrote and this one does not
    stale = [name for key, names in _EMITTED.items() if key not in emit for name in names]
    for name in stale:
        (out / name).unlink(missing_ok=True)
    (out / "config.ini").write_text(cfg.to_ini())
    summary = [f"scenario = {cfg.name}", f"status = {log.status}", f"seed = {cfg.seed}",
               f"iterations = {max(0, len(log.records) - 1)}", breakdown.as_text(),
               f"battery_residual = {record.residual:.12g}",
               f"inv_check = {'PASS' if record.crossings == 0 else 'FAIL'}",
               f"inv_violations = {record.crossings}"]
    for k, rec in enumerate(breakdown.cavities):
        summary += [f"cavity_{k}_radius_mean = {rec.radius_mean():.12g}",
                    f"cavity_{k}_area = {rec.area:.12g}"]
    if record.fv_report is not None:
        summary.append(record.fv_report.as_text())
    (out / "summary.txt").write_text("\n".join(summary) + "\n")
    log.to_csv(out / "iterations.csv")
    mesh.save(out / "mesh.cavmesh")
    _write_positions_csv(y, out / "positions.csv")
    _write_cavities_csv(breakdown.cavities, out / "cavities.csv")
    if "svg" in emit:
        # drawn from memory: the mesh and positions files round-trip every
        # float, and the cavity loops are rounded as cavities.csv holds them
        _render_svg(out / "reference.svg", mesh, mesh.vertices,
                    [mesh.vertices[ids] for ids in mesh.puncture_loops()])
        _render_svg(out / "deformed.svg", mesh, y.positions,
                    [_as_12g(rec.boundary) for rec in breakdown.cavities if len(rec.boundary)])
    if "raster" in emit:
        topological_image(y, "omega", cfg.delta).save_pgm(out / "raster.pgm")
    if "inverse" in emit:
        inv = build_inverse_field(y, cfg.delta)
        inv.to_csv(out / "inverse.csv")
        jump_set_to_csv(extract_jump_set(inv), out / "jumps.csv")


def run_scenario(config, out_dir=None, mode="run", emit=None):
    """Execute one scenario; returns (exit_code, artifact_dir). `emit`
    (default: the config's [run] emit) selects the optional artifacts. Exit
    code 2 (input that cannot be run) writes nothing and returns no directory."""
    try:
        cfg = config if isinstance(config, ScenarioConfig) \
            else ScenarioConfig.from_ini(resolve_scenario(config))
        cfg.validate()
        emit = cfg.emit if emit is None else tuple(emit)
        _check_emit(emit, "--emit")
        _check_grid(cfg, emit)
        out = Path(out_dir) if out_dir else Path(cfg.out or f"runs/{cfg.name}")
        _check_out(out, "--out" if out_dir else "[run] out")
    except ConfigurationError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2, None
    try:
        record = compute(cfg, mode)
    except ConfigurationError as err:
        print(f"infeasible input: {err}", file=sys.stderr)
        return 2, None
    write(record, out, emit)
    if mode == "run" and record.log.status != "converged":
        print(f"solver did not converge: status {record.log.status}", file=sys.stderr)
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
    y = DeformationField(mesh, _read_positions_csv(d / "positions.csv", len(mesh.vertices)))
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
        p.add_argument("--emit", default=None, help="comma list from: " + ",".join(_EMITTED)
                       + "; every run writes config.ini, summary.txt, iterations.csv, mesh.cavmesh,"
                       " positions.csv and cavities.csv")

    add_common(sub.add_parser("run", help="minimize and write artifacts"))
    add_common(sub.add_parser("eval", help="evaluate the boundary field only"))
    pc = sub.add_parser("compare", help="cross-evaluate two run directories")
    pc.add_argument("dir_a")
    pc.add_argument("dir_b")

    args = parser.parse_args(argv)
    if args.command == "compare":
        try:
            report = compare_runs(args.dir_a, args.dir_b)
        except CavelastError as err:
            print(f"compare error: {err}", file=sys.stderr)
            return 2
        print(report.as_text(), end="")
        return 0

    emit = None if args.emit is None else _parse_emit(args.emit)
    code, out = run_scenario(args.config, out_dir=args.out, mode=args.command, emit=emit)
    if out is not None:
        print(f"artifacts in {out}")
    return code

