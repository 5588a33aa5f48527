"""Write the golden radial sweep files into a chosen directory.

Run from the repository root:

    python3 scripts/make_golden.py --out DIR

Writes lambda sweeps for the isotropic and the elliptic surface density into
DIR. The committed outputs in src/cavelast/golden/v1/ are the regression
baseline, and the tests require this script to write exactly their bytes:
a solver change that moves a digit regenerates them in the same commit.
One that shifts energies beyond the 3% band should bump the version
directory instead of overwriting v1.
"""

import argparse
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import cavelast as cv  # noqa: E402

LAMBDAS = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8]
RHO = 0.2
M = 96


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, required=True,
                        help="directory for radial_iso.csv and radial_ell.csv")
    out = parser.parse_args(argv).out
    out.mkdir(parents=True, exist_ok=True)
    density = cv.BulkDensity(1.0, 1.0, 1.0)
    for name, phi in (
        ("radial_iso", cv.SurfaceDensity("isotropic")),
        ("radial_ell", cv.SurfaceDensity("elliptic", A=np.diag([4.0, 1.0]))),
    ):
        rows = cv.sweep_lambda(LAMBDAS, density, phi, RHO, M=M)
        # a stuck losing branch can hide a lower minimizer, so every branch counts
        bad = [r for r in rows if not r["all_branches_converged"]]
        if bad:
            raise SystemExit(f"{name}: unconverged branches at " + "; ".join(
                f"lambda={r['lambda']:g} ({', '.join(r['branch_status'])})" for r in bad))
        path = out / f"{name}.csv"
        cv.sweep_to_csv(rows, path)
        print(f"wrote {path}")
        for r in rows:
            print(f"  lambda={r['lambda']:.1f} c={r['cavity_radius']:.6f} "
                  f"total={r['total']:.6f}")


if __name__ == "__main__":
    main()
