"""The fuzz corpus and the frame referees, shared by the tests and the scripts.

`fuzz_config(rng)` draws the random configs of the fuzz: the 1,000 seed-1
configs of `scripts/reference_runs.py` and CI's Frame fuzz, and the seed-17
ones of Tier-1's `TestFuzz`, over the shape table `cli` gives. `mirrored`
and `relabelled` map a mesh into another frame, and `frames` solves one
config in all three frames with `cli.solve`. Import it with `scripts/`
and `cavelast` on the path, as `tests/conftest.py` does; `python3
scripts/frame_fuzz.py` and `scripts/reference_runs.py` get `scripts/` from
their own directory.
"""

from dataclasses import dataclass

import numpy as np

import cavelast as cv
from cavelast import cli
from cavelast._polyline import mean_circle
from cavelast.cli import ScenarioConfig
from cavelast.exceptions import CavelastError, ConfigurationError

# shape: (bounding box low, high, inradius) at the default sizes
FUZZ_SHAPES = {shape: cli._extent(ScenarioConfig(shape=shape)) for shape in cli._SHAPES}


def fuzz_config(rng) -> ScenarioConfig:
    """A random config that passes validate(): any shape, h in [0.15, 0.3],
    at most 5 iterations, 0-2 punctures uniform over the bounding box with
    rho below inradius/4, lam in [0.5, 2], either boundary kind, any phi."""
    while True:
        shape = str(rng.choice(list(FUZZ_SHAPES)))
        lo, hi, inradius = FUZZ_SHAPES[shape]
        punctures = tuple((tuple(rng.uniform(lo, hi, 2).tolist()),
                           float(rng.uniform(0.0, inradius / 4.0)))
                          for _ in range(rng.integers(0, 3)))
        cfg = ScenarioConfig(
            shape=shape, h=float(rng.uniform(0.15, 0.3)), punctures=punctures,
            max_iters=int(rng.integers(1, 6)), lam=float(rng.uniform(0.5, 2.0)),
            bc_kind=str(rng.choice(["radial_stretch", "affine_stretch"])),
            phi_kind=str(rng.choice(["isotropic", "elliptic", "smoothed_l1"])),
            phi_A=((4.0, 0.0), (0.0, 1.0)))
        try:
            cfg.validate()
        except ConfigurationError:
            continue
        return cfg


def mirrored(mesh):
    """The mesh reflected by x -> -x, puncture centres included."""
    return cv.Mesh(mesh.vertices * [-1.0, 1.0], mesh.triangles, mesh.boundary_edges,
                   [((-c[0], c[1]), r) for c, r in mesh.punctures])


def relabelled(mesh, rng):
    """(the mesh with its vertices, triangles and boundary edges in a random
    order, perm): vertex k of the new mesh is vertex perm[k] of the old."""
    perm = rng.permutation(len(mesh.vertices))
    new_id = np.argsort(perm)
    tris = new_id[mesh.triangles[rng.permutation(len(mesh.triangles))]]
    edges = [(int(new_id[i]), int(new_id[j]), tag) for i, j, tag in
             (mesh.boundary_edges[k] for k in rng.permutation(len(mesh.boundary_edges)))]
    return cv.Mesh(mesh.vertices[perm], tris, edges, list(mesh.punctures)), perm


@dataclass
class Frame:
    """One frame's solve of a config, measured against the original frame's."""

    name: str            # "original", "relabelled" or "mirrored"
    status: str          # the IterationLog status
    open: list           # per puncture: mean deformed loop radius above the reference rho
    steps: int           # Newton steps
    energy_gap: float    # |E - E_original| / |E_original| of the final energies
    position_gap: float  # max |y - y_original| with y_original mapped into this frame


def _open(y):
    return [mean_circle(y.positions[ids])[1] > rho
            for ids, (_, rho) in zip(y.mesh.puncture_loops(), y.mesh.punctures)]


def frames(cfg) -> list:
    """[original, relabelled, mirrored] Frames of cfg: solved on its mesh, on
    that mesh relabelled by `relabelled` with rng 5, and on it mirrored. A
    CavelastError means the original frame refuses cfg; a refusal in another
    frame raises RuntimeError, since it is a frame change."""
    mesh = cli.build_mesh(cfg)
    y, log = cli.solve(cfg, mesh)
    E = log.records[-1]["energy"]
    out = [Frame("original", log.status, _open(y), len(log.records) - 1, 0.0, 0.0)]
    other, perm = relabelled(mesh, np.random.default_rng(5))
    for name, other, want in (("relabelled", other, y.positions[perm]),
                              ("mirrored", mirrored(mesh), y.positions * [-1.0, 1.0])):
        try:
            y_o, log_o = cli.solve(cfg, other)
        except CavelastError as err:
            raise RuntimeError(f"the {name} frame refuses a config its original runs") from err
        out.append(Frame(name, log_o.status, _open(y_o), len(log_o.records) - 1,
                         abs(log_o.records[-1]["energy"] - E) / abs(E),
                         float(np.abs(y_o.positions - want).max())))
    return out
