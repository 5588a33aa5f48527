"""The inverse of a cavitation map is SBV: smooth in the material, jumping
across cavity boundaries.

Builds the raster inverse field of a cavitated deformation, extracts its jump
set with marching squares, and verifies that the jump contours hug the cavity
boundary while the absolutely continuous part inverts the deformation
gradient exactly.
"""

from pathlib import Path

import numpy as np

import cavelast as cv
from cavelast._polyline import hausdorff_distance

out = Path("demo_out/inverse_jump_set")
delta = 0.02

density = cv.BulkDensity(1.0, 1.0, 1.0)
phi = cv.SurfaceDensity("isotropic")
mesh = cv.build_disk_mesh(1.0, 0.15, punctures=[((0.0, 0.0), 0.2)])
y = cv.radial_lift(cv.solve_radial(1.5, density, phi, rho=0.2, M=96), mesh)

inv = cv.build_inverse_field(y, delta)
jumps = cv.extract_jump_set(inv)
cavity = cv.total_energy(y, density, phi).cavities[0].boundary
gap = max(hausdorff_distance(j.points, cavity) for j in jumps)
print(f"{len(jumps)} jump contour(s); Hausdorff distance to the cavity "
      f"boundary {gap:.4f} (raster cell {delta})")
amp = np.concatenate([j.amplitudes for j in jumps])
print(f"jump amplitude |a - o|: {amp.min():.3f} .. {amp.max():.3f} "
      f"(o is the marker; the contour geometry is marker-independent)")

# pointwise: inverse gradient times forward gradient is the identity
kind, pre = cv.invert_point(y, (1.2, 0.0))
G = cv.inverse_gradient(y, np.array([1.2, 0.0]))
tri, _ = mesh.locator.locate(pre[None])
F = y.element_gradients()[int(tri[0])]
print(f"invert_point(1.2, 0): kind {kind}, pre-image {np.round(pre, 6)}")
print(f"|G F - I| = {np.abs(G @ F - np.eye(2)).max():.2e}")

# points inside the cavity have no pre-image, only the marker record
kind_c, val = cv.invert_point(y, (0.0, 0.0))
print(f"invert_point(0, 0): kind {kind_c}, carries the marker {np.round(val, 6)}")

out.mkdir(parents=True, exist_ok=True)
inv.to_csv(out / "inverse.csv")
cv.jump_set_to_csv(jumps, out / "jumps.csv")
print(f"field and jump set written to {out}/")
