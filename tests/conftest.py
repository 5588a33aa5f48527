import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cavelast as cv

# the scripts' shared modules (the fuzz corpus, the tree checker) import as top-level names
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
sys.path.insert(0, str(SCRIPTS))


def run_python(*args, env=None):
    """Run a fresh interpreter that imports this checkout of cavelast, in
    env (default: this process's environment)."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cv.__file__).resolve().parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def read_summary(run_dir) -> dict:
    """summary.txt of a run directory as {key: value}, first line of a key wins."""
    kv = {}
    for line in (Path(run_dir) / "summary.txt").read_text().splitlines():
        if " = " in line:
            k, v = line.split(" = ", 1)
            kv.setdefault(k, v)
    return kv


def folded(mesh):
    """(positions, v): the mesh's vertices with its first interior vertex v
    moved onto another corner of the first triangle that holds it, which
    folds that triangle."""
    v = int(np.setdiff1d(np.arange(len(mesh.vertices)), mesh.boundary_vertices)[0])
    t = int(np.nonzero((mesh.triangles == v).any(axis=1))[0][0])
    other = [i for i in mesh.triangles[t] if i != v][0]
    pos = mesh.vertices.copy()
    pos[v] = pos[other]
    return pos, v


@pytest.fixture(scope="session")
def density():
    return cv.BulkDensity(1.0, 1.0, 1.0)


@pytest.fixture(scope="session")
def iso():
    return cv.SurfaceDensity("isotropic")


@pytest.fixture(scope="session")
def ell():
    return cv.SurfaceDensity("elliptic", A=np.diag([4.0, 1.0]))


@pytest.fixture(scope="session")
def dense_hess():
    """`EnergyState.hess` as a dense symmetric matrix in the dof order:
    the band's lower triangle mirrored and put back out of the band order."""
    def dense(energy, pos):
        band = energy.state(pos).hess()
        order, width, _ = energy.band_layout
        n = len(order)
        P = np.zeros((n, n))
        for d in range(width + 1):  # band row d holds subdiagonal d
            k = np.arange(n - d)
            P[k, k + d] = P[k + d, k] = band[d, :n - d]
        H = np.empty_like(P)
        H[np.ix_(order, order)] = P
        return H
    return dense


@pytest.fixture(scope="session")
def square_mesh():
    return cv.build_square_mesh(1.0, 0.25)


@pytest.fixture(scope="session")
def disk_mesh():
    # unit disk, one puncture at the origin; coarse enough for fast tests
    return cv.build_disk_mesh(1.0, 0.15, punctures=[((0.0, 0.0), 0.2)])


@pytest.fixture(scope="session")
def stretched_disk(disk_mesh):
    bc = cv.BoundaryData(kind="radial_stretch", lam=1.5)
    return bc.initial_field(disk_mesh)


@pytest.fixture(scope="session")
def radial_15(density, iso):
    return cv.solve_radial(1.5, density, iso, rho=0.2, M=96)


@pytest.fixture(scope="session")
def radial_15_ell(density, ell):
    return cv.solve_radial(1.5, density, ell, rho=0.2, M=96)


@pytest.fixture(scope="session")
def iso_run(tmp_path_factory):
    """Converged bundled isotropic scenario; (exit_code, artifact dir)."""
    from cavelast.cli import run_scenario
    out = tmp_path_factory.mktemp("iso_run")
    code, path = run_scenario("radial_iso_lambda1.5", out_dir=out, mode="run")
    return code, path


@pytest.fixture(scope="session")
def ell_run(tmp_path_factory):
    """Converged bundled elliptic scenario; (exit_code, artifact dir)."""
    from cavelast.cli import run_scenario
    out = tmp_path_factory.mktemp("ell_run")
    code, path = run_scenario("radial_ell_lambda1.5", out_dir=out, mode="run")
    return code, path
