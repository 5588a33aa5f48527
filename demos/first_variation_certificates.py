"""Certify a state by testing first variations, not by trusting the solver.

Three checks on one cavitated configuration:
  1. assembled elastic + surface variation against a finite difference of
     t -> E(h_t o y) for a random outer field,
  2. the dilation identity d/dt Per((1+t)E) = Per(E) on a quadrilateral,
     through the edge-midpoint quadrature of phi(nu) div_phi psi, which
     pins the sign inside the anisotropic tangential divergence,
  3. a battery of ring and global bump fields, whose worst normalized
     residual is the solver's own convergence certificate.
"""

import numpy as np

import cavelast as cv

density = cv.BulkDensity(1.0, 1.0, 1.0)
phi = cv.SurfaceDensity("isotropic")
mesh = cv.build_disk_mesh(1.0, 0.15, punctures=[((0.0, 0.0), 0.2)])
seed = cv.BoundaryData(kind="radial_stretch", lam=1.5).initial_field(mesh)
y, log = cv.minimize(seed, density, phi, max_iters=2000)
state = log.final  # the energy at y, as the solver evaluated it
print(f"minimized: {log.status}, E = {state.breakdown.total:.6f}")

psi = cv.BumpField(center=(0.8, 0.3), width=0.7, direction=(1.0, -0.5),
                   amplitude=0.2)
rep = cv.first_variation_residual(state, psi)
print(rep.as_text())

poly = np.array([[1.0, 0.2], [-0.3, 0.9], [-1.1, -0.4], [0.2, -1.0]])
per = cv.anisotropic_perimeter(poly, phi)
dil = cv.surface_first_variation([poly], cv.DilationField(), phi)
print(f"\ndilation identity: d/dt Per = {dil:.12f}, Per = {per:.12f}")

res = cv.battery_residual(y, density, phi, seed=0)
E = state.breakdown.total
print(f"battery residual {res:.3e} ({res / E:.2e} of E) at the minimizer")
res_seed = cv.battery_residual(seed, density, phi, seed=0)
print(f"battery residual {res_seed:.3e} at the homogeneous seed, for scale")
