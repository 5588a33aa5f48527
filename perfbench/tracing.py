"""Span tracing for the traced benchmark run, and the per-layer metrics.

The tracer wraps public cavelast functions from outside the package: each
function is patched under the name its caller looks it up by (the gate is
`cavelast.variation.check_inv`, the final check `cavelast.cli.check_inv`,
point location `TriangleLocator.locate` on the class). A span is
[name, start, end, parent index, run id, detail]; spans stay in memory
until `dump` writes them out.
"""

import contextlib
import functools
import json
import time
from collections import defaultdict

from cavelast import (cli, degree, energy, geometry, inverse, material,
                      radial, variation)


def _locate_detail(out):
    tri, _ = out
    return [len(tri), int((tri >= 0).sum())]


def _minimize_detail(out):
    return len(out[1].records) - 1


def _passed_detail(out):
    return bool(out.passed)


def _status_detail(out):
    return out.status


def _inverse_detail(out):
    return int(out.kind.size)


def _raster_detail(out):
    return int(out.values.size)


# (span name, owner, attribute, detail); one row per lookup site
TARGETS = (
    ("cli.run_scenario", cli, "run_scenario", None),
    ("geometry.mesh", cli, "build_disk_mesh", None),
    ("geometry.mesh", geometry, "build_disk_mesh", None),
    ("geometry.locator_build", geometry.TriangleLocator, "__init__", None),
    ("geometry.locate", geometry.TriangleLocator, "locate", _locate_detail),
    ("variation.minimize", cli, "minimize", _minimize_detail),
    ("degree.check_inv", variation, "check_inv", _passed_detail),
    ("degree.check_inv", cli, "check_inv", _passed_detail),
    ("degree.check_inv", degree, "check_inv", _passed_detail),
    ("degree.loop_distance", degree, "points_to_polyline_distance", None),
    ("degree.raster", degree, "topological_image", _raster_detail),
    ("variation.battery_residual", variation, "battery_residual", None),
    ("variation.battery_residual", cli, "battery_residual", None),
    ("variation.certification_battery", cli, "certification_battery", None),
    ("variation.first_variation_residual", cli, "first_variation_residual", None),
    ("material.energy", material.BulkDensity, "energy", None),
    ("material.stress", material.BulkDensity, "stress", None),
    ("material.phi_value", material.SurfaceDensity, "value", None),
    ("material.phi_gradient", material.SurfaceDensity, "gradient", None),
    ("energy.total_energy", cli, "total_energy", None),
    ("energy.total_energy", energy, "total_energy", None),
    ("energy.total_energy", variation, "total_energy", None),
    ("radial.solve_radial", radial, "solve_radial", _status_detail),
    ("inverse.build", inverse, "build_inverse_field", _inverse_detail),
    ("inverse.jump", inverse, "extract_jump_set", None),
    ("inverse.area_formula", inverse, "area_formula_check", None),
)


class Tracer:
    """Records spans while installed; `overhead_s` adds up the time spent
    in the wrappers themselves, outside the wrapped calls."""

    def __init__(self):
        self.spans = []
        self.run = None
        self.overhead_s = 0.0
        self._stack = []
        self._active = True

    def _wrap(self, name, fn, detail):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            entered = time.perf_counter()
            span = [name, None, None, self._stack[-1] if self._stack else -1,
                    self.run, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if detail is not None:
                span[5] = detail(out)
            self.overhead_s += time.perf_counter() - span[2] + span[1] - entered
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = [(owner, attr, owner.__dict__[attr])
                 for _, owner, attr, _ in TARGETS]
        try:
            for name, owner, attr, detail in TARGETS:
                setattr(owner, attr, self._wrap(name, owner.__dict__[attr], detail))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    @contextlib.contextmanager
    def paused(self):
        self._active = False
        try:
            yield
        finally:
            self._active = True

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run", "detail"],
                       "spans": self.spans}, fh)


def layer_metrics(tracer, wall, ops) -> dict:
    """Per-layer counts and times from one traced pass.

    `wall` is the traced pass's wall time and `ops` its checked operations.
    The tracing overhead is the wrappers' own time over the time the pass
    would have taken without them.
    """
    spans = tracer.spans
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    for i, s in enumerate(spans):
        calls[s[0]] += 1
        total[s[0]] += dur[i]
        self_s[s[0]] += dur[i] - child[i]

    def parent_name(s):
        return spans[s[3]][0] if s[3] >= 0 else None

    def ratio(a, b):
        return a / b if b else 0.0

    checks = [s for s in spans if s[0] == "degree.check_inv"]
    locates = [s[5] for s in spans if s[0] == "geometry.locate"]
    points = sum(d[0] for d in locates)
    minimizes = {i for i, s in enumerate(spans) if s[0] == "variation.minimize"}
    iterations = sum(spans[i][5] for i in minimizes)
    descent_self = sum(dur[i] for i in minimizes) - sum(
        dur[j] for j, s in enumerate(spans) if s[3] in minimizes
        and s[0] in ("degree.check_inv", "variation.battery_residual"))
    descent_energy = sum(1 for s in spans if s[0] == "material.energy"
                         and parent_name(s) == "variation.minimize")
    certify = ("variation.battery_residual", "variation.certification_battery",
               "variation.first_variation_residual")
    material_names = ("material.energy", "material.stress",
                      "material.phi_value", "material.phi_gradient")
    solves = [s for s in spans if s[0] == "radial.solve_radial"]
    cells = sum(s[5] for s in spans if s[0] == "inverse.build")
    return {
        "degree.check_inv_calls": (len(checks), "count"),
        "degree.check_inv_ms": (1e3 * ratio(total["degree.check_inv"], len(checks)), "ms"),
        "degree.check_inv_self_s": (self_s["degree.check_inv"], "s"),
        "degree.check_inv_s": (total["degree.check_inv"], "s"),
        "degree.loop_distance_s": (total["degree.loop_distance"], "s"),
        "degree.check_inv_fail_calls": (sum(1 for s in checks if not s[5]), "count"),
        "variation.gate_calls": (sum(1 for s in checks
                                     if parent_name(s) == "variation.minimize"), "count"),
        "geometry.locate_calls": (len(locates), "count"),
        "geometry.locate_points": (points, "count"),
        "geometry.locate_us_per_point": (1e6 * ratio(total["geometry.locate"], points), "us"),
        "geometry.locate_hit_ratio": (ratio(sum(d[1] for d in locates), points), "ratio"),
        "geometry.locator_build_s": (total["geometry.locator_build"], "s"),
        "geometry.mesh_s": (total["geometry.mesh"], "s"),
        "variation.minimize_s": (total["variation.minimize"], "s"),
        "variation.descent_self_s": (descent_self, "s"),
        "variation.iterations": (iterations, "count"),
        "variation.descent_ms_per_iter": (1e3 * ratio(descent_self, iterations), "ms"),
        "variation.evals_per_iter": (ratio(descent_energy, iterations), "ratio"),
        "variation.battery_s": (total["variation.battery_residual"], "s"),
        "variation.battery_calls": (calls["variation.battery_residual"], "count"),
        "variation.certify_s": (sum(dur[i] for i, s in enumerate(spans) if s[0] in certify
                                    and parent_name(s) == "cli.run_scenario"), "s"),
        "material.energy_calls": (descent_energy, "count"),
        "material.stress_calls": (calls["material.stress"], "count"),
        "material.self_s": (sum(self_s[n] for n in material_names), "s"),
        "energy.total_energy_s": (total["energy.total_energy"], "s"),
        "energy.total_energy_calls": (calls["energy.total_energy"], "count"),
        "radial.solve_s": (total["radial.solve_radial"], "s"),
        "radial.solves": (len(solves), "count"),
        "radial.ms_per_solve": (1e3 * ratio(total["radial.solve_radial"], len(solves)), "ms"),
        "radial.unconverged": (sum(1 for s in solves if s[5] != "converged"), "count"),
        "inverse.build_s": (total["inverse.build"], "s"),
        "inverse.cells": (cells, "count"),
        "inverse.cells_per_s": (ratio(cells, total["inverse.build"]), "1/s"),
        "inverse.jump_s": (total["inverse.jump"], "s"),
        "degree.raster_s": (total["degree.raster"], "s"),
        "degree.raster_cells": (sum(s[5] for s in spans if s[0] == "degree.raster"), "count"),
        "cli.run_s": (total["cli.run_scenario"], "s"),
        "cli.emit_s": (self_s["cli.run_scenario"], "s"),
        "cli.artifact_bytes": (sum(op.artifact_bytes for op in ops), "bytes"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_rel": (tracer.overhead_s / (wall - tracer.overhead_s), "ratio"),
    }
