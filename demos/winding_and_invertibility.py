"""Topological degree as an invertibility detector.

winding_number counts signed boundary coverings; check_inv uses it to verify
that no material from elsewhere fills a cavity. A healthy cavitation map
passes. A folded map (lower half plane reflected up) covers points twice and
is flagged, even though every triangle keeps positive orientation data-wise.
Beside each sampled verdict stands the exact one the solver gates on:
boundary_crossings counts crossing pairs of deformed boundary edges, and 0
means the boundary loops are simple and disjoint.
"""

import numpy as np

import cavelast as cv
from cavelast.degree import boundary_crossings

# degree of a star-shaped loop
t = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
loop = np.column_stack([(1 + 0.3 * np.cos(5 * t)) * np.cos(t),
                        (1 + 0.3 * np.cos(5 * t)) * np.sin(t)])
pts = np.array([[0.0, 0.0], [2.5, 0.0], [0.9, 0.0]])
print("winding numbers:", cv.winding_number(loop, pts), "(inside, outside, lobe)")

density = cv.BulkDensity(1.0, 1.0, 1.0)
phi = cv.SurfaceDensity("isotropic")
mesh = cv.build_disk_mesh(1.0, 0.15, punctures=[((0.0, 0.0), 0.2)])
profile = cv.solve_radial(1.5, density, phi, rho=0.2, M=96)
y = cv.radial_lift(profile, mesh)

report = cv.check_inv(y, seed=0)
print("cavitation map:", report.summary(),
      f"| exact: {boundary_crossings(mesh, y.positions)} boundary crossings")

# negative control: fold the deformed state across the x axis
folded_pos = y.positions.copy()
folded_pos[:, 1] = np.abs(folded_pos[:, 1])
folded = cv.DeformationField(mesh, folded_pos)
bad = cv.check_inv(folded, centers=[(0.0, 0.5)], radii=[[0.25]], seed=1)
print("folded map:   ", bad.summary(),
      f"| exact: {boundary_crossings(mesh, folded_pos)} boundary crossings")

# the degree raster behind the check, exportable as a PGM image
raster = cv.topological_image(y, "omega", 0.02)
print(f"topological image of the domain: area {raster.area():.4f} "
      f"(deformed annulus holds {np.pi * (profile.lam ** 2 - profile.cavity_radius ** 2):.4f})")
