"""The three benchmark workloads and the checks on every output they produce.

Every workload starts from the bundled scenario `radial_iso_lambda1.5`
(material mu = a = b = 1, unit disk punctured at the origin with rho = 0.2,
radial stretch lambda = 1.5) and takes its `[run] seed` from the benchmark
seed. Accuracy references come from the committed v1 golden sweeps, never
from a radial solve made here, so a change to the radial solver cannot move
the accuracy figures of the 2-D workloads.

A pass runs the operations of one workload once, in sequence, with one
caller. Only the operations are timed; the checks run in `Clock.checking`,
which also pauses the tracer so they do not show up as layer time.
"""

import contextlib
import csv
import dataclasses
import hashlib
import time
from pathlib import Path

import numpy as np

import cavelast
from cavelast import cli, degree, energy, geometry, inverse, radial, variation
from cavelast._polyline import hausdorff_distance

NAMES = ("bundled_iso", "refine_ladder", "oracle_post")

SCENARIO = "radial_iso_lambda1.5"
LADDER = (0.08, 0.05, 0.035)
SWEEP_LAMS = (1.3, 1.4, 1.5)
SWEEP_M = 96
ELLIPTIC_A = np.diag([4.0, 1.0])
LIFT_LAM = 1.5
POST_H = 0.08
POST_DELTA = 0.005

# Acceptance bands: criterion 4 (2-D solve vs radial oracle), the golden
# regression band of the radial tests, criterion 7 (jump set within 3 delta
# of the cavity), the area-formula and omega-raster test tolerances.
ENERGY_BAND = 0.02
RADIUS_BAND = 0.03
GOLDEN_BAND = 0.03
OPEN_RADIUS = 0.01
JUMP_BAND = 3.0
AREA_BAND = 0.03
RASTER_BAND = 0.05

HASHED = ("summary.txt", "positions.csv", "iterations.csv")


@dataclasses.dataclass
class Op:
    """Outcome of one operation: a solve, a radial row or the post chain."""

    name: str
    status: str            # "converged" or "ok" when the operation completed
    problems: list         # failed correctness checks
    energy_gap: float | None = None
    radius_gap: float | None = None
    battery_rel: float | None = None
    jump_gap: float | None = None
    iterations: int = 0
    hashes: dict = dataclasses.field(default_factory=dict)
    artifact_bytes: int = 0

    @property
    def failed(self) -> bool:
        return self.status not in ("converged", "ok") or bool(self.problems)


@dataclasses.dataclass
class Inputs:
    name: str
    seed: int
    configs: list
    golden: dict
    density: cavelast.BulkDensity
    iso: cavelast.SurfaceDensity
    ell: cavelast.SurfaceDensity
    rho: float


class Clock:
    """Adds up the time spent inside `timed` blocks of one pass, and labels
    the tracer's spans with the operation they belong to. With a
    `calibrate.Sampler` it samples the host's speed once on entry to each
    block and on the sampler's timer inside it, and leaves the sampling
    time out of `wall`."""

    def __init__(self, tracer=None, sampler=None):
        self.wall = 0.0
        self._tracer = tracer
        self._sampler = sampler

    @contextlib.contextmanager
    def timed(self, label):
        if self._tracer is not None:
            self._tracer.run = label
        sampler = self._sampler
        if sampler is not None:
            sampler.sample()
            spent = sampler.spent
            sampler.active = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self.wall += time.perf_counter() - start
            if sampler is not None:
                sampler.active = False
                self.wall -= sampler.spent - spent

    def checking(self):
        if self._tracer is None:
            return contextlib.nullcontext()
        return self._tracer.paused()


def read_golden(kind: str) -> dict:
    """The committed v1 golden sweep for `kind` ("iso" or "ell"), by lambda."""
    path = Path(cavelast.__file__).parent / "golden" / "v1" / f"radial_{kind}.csv"
    with open(path) as fh:
        return {float(r["lambda"]): {k: float(v) for k, v in r.items()}
                for r in csv.DictReader(fh)}


def prepare(name: str, seed: int) -> Inputs:
    """Configs, golden rows and densities for one workload."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    base = cli.ScenarioConfig.from_ini(cli.resolve_scenario(SCENARIO))
    base = dataclasses.replace(base, seed=seed)
    if name == "bundled_iso":
        configs = [base]
    elif name == "refine_ladder":
        configs = [dataclasses.replace(base, h=h, inv_every=0) for h in LADDER]
    else:
        configs = []
    for cfg in configs:
        cfg.validate()
    return Inputs(name=name, seed=seed, configs=configs,
                  golden={k: read_golden(k) for k in ("iso", "ell")},
                  density=cli.build_density(base),
                  iso=cavelast.SurfaceDensity("isotropic"),
                  ell=cavelast.SurfaceDensity("elliptic", A=ELLIPTIC_A),
                  rho=base.punctures[0][1])


def run_pass(inp: Inputs, clock: Clock, tmp: Path) -> list:
    """One pass of the workload; returns the checked operations."""
    if inp.name == "oracle_post":
        return _oracle_pass(inp, clock, tmp)
    return [_scenario_op(cfg, clock, tmp / f"h{cfg.h:g}", inp.golden["iso"][cfg.lam])
            for cfg in inp.configs]


# ---------------------------------------------------------------------------
# scenario solves (bundled_iso, refine_ladder)


def _scenario_op(cfg, clock, out, ref) -> Op:
    name = f"solve h={cfg.h:g}"
    with clock.timed(name):
        code, _ = cli.run_scenario(cfg, out_dir=out)
    with clock.checking():
        summary = out / "summary.txt"
        if not summary.is_file():
            return Op(name, f"exit code {code}", ["no summary.txt"])
        kv = _read_kv(summary)
        E = float(kv["total"])
        c = float(kv["cavity_0_radius_mean"])
        status = kv["status"] if code == 0 else f"exit code {code}, {kv['status']}"
        op = Op(name, status, [],
                energy_gap=abs(E - ref["total"]) / ref["total"],
                radius_gap=abs(c - ref["cavity_radius"]) / ref["cavity_radius"],
                battery_rel=float(kv["battery_residual"]) / abs(E),
                iterations=int(kv["iterations"]),
                hashes={f: _sha256(out / f) for f in HASHED},
                artifact_bytes=sum(p.stat().st_size for p in out.iterdir()))
        if op.energy_gap > ENERGY_BAND:
            op.problems.append(f"energy gap {op.energy_gap:.4f} > {ENERGY_BAND}")
        if op.radius_gap > RADIUS_BAND:
            op.problems.append(f"radius gap {op.radius_gap:.4f} > {RADIUS_BAND}")
        if int(kv["inv_violations"]) != 0:
            op.problems.append(f"{kv['inv_violations']} INV violations")
        y = _load_field(out)
        contours = inverse.extract_jump_set(inverse.build_inverse_field(y, cfg.delta))
        op.jump_gap = _jump_gap(contours, _read_cavity(out / "cavities.csv"), cfg.delta)
        if op.jump_gap > JUMP_BAND:
            op.problems.append(f"jump gap {op.jump_gap:.3f} delta > {JUMP_BAND} delta")
        return op


def _read_kv(path) -> dict:
    kv = {}
    for line in Path(path).read_text().splitlines():
        if " = " in line:
            k, v = line.split(" = ", 1)
            kv.setdefault(k, v)
    return kv


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _load_field(out: Path) -> cavelast.DeformationField:
    mesh = cavelast.load_mesh(out / "mesh.cavmesh")
    rows = (out / "positions.csv").read_text().strip().splitlines()[1:]
    pos = np.array([[float(t) for t in r.split(",")[3:]] for r in rows])
    return cavelast.DeformationField(mesh, pos)


def _read_cavity(path) -> np.ndarray:
    rows = Path(path).read_text().strip().splitlines()[1:]
    return np.array([[float(t) for t in r.split(",")[1:]] for r in rows
                     if r.split(",")[0] == "0"])


def _jump_gap(contours, cavity, delta) -> float:
    """Hausdorff distance of the jump set to the cavity polygon, in delta."""
    if not contours:
        return float("inf")
    return max(hausdorff_distance(c.points, cavity) for c in contours) / delta


# ---------------------------------------------------------------------------
# radial oracle and inverse post-processing (oracle_post)


def _sweep(lams, density, phi, rho, profiles):
    """`sweep_lambda`, keeping each solved profile so the lift needs no
    extra solve."""
    solve = radial.solve_radial

    def keep(lam, *args, **kwargs):
        profiles[lam] = solve(lam, *args, **kwargs)
        return profiles[lam]

    radial.solve_radial = keep
    try:
        return radial.sweep_lambda(lams, density, phi, rho, M=SWEEP_M)
    finally:
        radial.solve_radial = solve


def _oracle_pass(inp: Inputs, clock: Clock, tmp: Path) -> list:
    ops = []
    iso_profiles = {}
    for kind, phi in (("iso", inp.iso), ("ell", inp.ell)):
        profiles = iso_profiles if kind == "iso" else {}
        with clock.timed(f"sweep {kind}"):
            rows = _sweep(SWEEP_LAMS, inp.density, phi, inp.rho, profiles)
        with clock.checking():
            sweep_csv = tmp / f"sweep_{kind}.csv"
            radial.sweep_to_csv(rows, sweep_csv)
            digest = _sha256(sweep_csv)
            for row in rows:
                op = _check_row(kind, row, inp.golden[kind][row["lambda"]])
                op.hashes = {sweep_csv.name: digest}
                ops.append(op)

    with clock.timed("post chain"):
        mesh = geometry.build_disk_mesh(1.0, POST_H, punctures=[((0.0, 0.0), inp.rho)])
        y = radial.radial_lift(iso_profiles[LIFT_LAM], mesh)
        inv = inverse.build_inverse_field(y, POST_DELTA)
        contours = inverse.extract_jump_set(inv)
        left, right = inverse.area_formula_check(y, _identity, POST_DELTA, inv=inv)
        raster = degree.topological_image(y, "omega", POST_DELTA)
        report = degree.check_inv(y, seed=inp.seed)
        bd = energy.total_energy(y, inp.density, inp.iso)
        residual = variation.battery_residual(y, inp.density, inp.iso, seed=inp.seed)
    with clock.checking():
        ops.append(_check_post(y, inp, contours, left, right, raster, report,
                               bd, residual, tmp))
    return ops


def _identity(s):
    return s


def _check_row(kind, row, gold) -> Op:
    lam = row["lambda"]
    op = Op(f"radial {kind} lambda={lam:g}", row["status"], [],
            energy_gap=abs(row["total"] - gold["total"]) / gold["total"])
    gold_open = gold["cavity_radius"] > OPEN_RADIUS
    if (row["cavity_radius"] > OPEN_RADIUS) != gold_open:
        op.problems.append(f"cavity radius {row['cavity_radius']:.4g} disagrees "
                           f"with golden open/closed verdict")
    if op.energy_gap > GOLDEN_BAND:
        op.problems.append(f"total off golden by {op.energy_gap:.4f}")
    if gold_open:
        op.radius_gap = abs(row["cavity_radius"] - gold["cavity_radius"]) \
            / gold["cavity_radius"]
        if op.radius_gap > GOLDEN_BAND:
            op.problems.append(f"cavity radius off golden by {op.radius_gap:.4f}")
    return op


def _check_post(y, inp, contours, left, right, raster, report, bd, residual,
                tmp) -> Op:
    gold = inp.golden["iso"][LIFT_LAM]
    cavity = bd.cavities[0].boundary
    site = np.asarray(y.mesh.punctures[0][0], dtype=float)
    jump_pts = np.vstack([c.points for c in contours]) if contours else site[None]
    jump_radius = float(np.linalg.norm(jump_pts - site, axis=1).mean())
    deformed_area = float(np.sum(y.mesh.areas * y.element_dets()))
    op = Op("lift+inverse+raster+check_inv", "ok", [],
            energy_gap=abs(bd.total - gold["total"]) / gold["total"],
            radius_gap=abs(jump_radius - gold["cavity_radius"]) / gold["cavity_radius"],
            battery_rel=residual / abs(bd.total),
            jump_gap=_jump_gap(contours, cavity, POST_DELTA))
    if op.jump_gap > JUMP_BAND:
        op.problems.append(f"jump gap {op.jump_gap:.3f} delta > {JUMP_BAND} delta")
    if not report.passed:
        op.problems.append(f"check_inv: {report.summary()}")
    if abs(left - right) > AREA_BAND * abs(right):
        op.problems.append(f"area formula {left:.6g} vs {right:.6g}")
    if abs(raster.area() - deformed_area) > RASTER_BAND * deformed_area:
        op.problems.append(f"omega raster area {raster.area():.6g} vs "
                           f"deformed area {deformed_area:.6g}")
    if op.radius_gap > RADIUS_BAND:
        op.problems.append(f"jump-set radius off golden by {op.radius_gap:.4f}")
    jumps_csv = tmp / "jumps.csv"
    inverse.jump_set_to_csv(contours, jumps_csv)
    op.hashes = {jumps_csv.name: _sha256(jumps_csv)}
    return op

