"""Discrete inverse deformation on a raster over the deformed image.

Cells covered by a deformed triangle carry the barycentric pre-image; cells
inside a cavity carry a fixed marker point o placed outside the reference
domain; everything else is outside the image. The jump set of the inverse is
the marching-squares contour of the marker region.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull

from ._polyline import ensure_ccw, succ
from ._table import format_rows, write_table
from .degree import CellGrid, covering_grid, marching_squares, winding_grid, winding_points
from .exceptions import DomainError
from .geometry import DeformationField, Mesh

OUTSIDE, MATERIAL, CAVITY = 0, 1, 2

__all__ = [
    "InverseField", "JumpContour", "default_marker", "build_inverse_field",
    "invert_point", "inverse_gradient", "extract_jump_set",
    "area_formula_check", "jump_set_to_csv",
]


def default_marker(mesh: Mesh) -> np.ndarray:
    """The point o: domain centroid shifted 3 diameters along +x."""
    areas = mesh.areas
    com = (areas[:, None] * mesh.vertices[mesh.triangles].mean(axis=1)).sum(axis=0)
    com /= areas.sum()
    hull = mesh.vertices[ConvexHull(mesh.vertices).vertices]
    gaps = np.linalg.norm(hull[:, None, :] - hull[None, :, :], axis=-1)
    return com + 3.0 * float(gaps.max()) * np.array([1.0, 0.0])


@dataclass
class InverseField(CellGrid):
    """Raster inverse: per-cell kind (outside/material/cavity), pre-image,
    containing deformed triangle, and the marker o."""

    kind: np.ndarray
    ref: np.ndarray
    tri: np.ndarray
    marker: np.ndarray

    @property
    def shape(self):
        return self.kind.shape

    def to_csv(self, path):
        """Rows xi_x,xi_y followed by the pre-image or the word CAVITY."""
        # x depends on the column only and y on the row only, so each
        # center coordinate is formatted once
        gx, gy = (np.array(format_rows("%.12g", a[:, None]).split(), dtype=object)
                  for a in self.axes())
        iy, ix = np.nonzero(self.kind != OUTSIDE)
        material = self.kind[iy, ix] == MATERIAL
        tail = np.full(len(iy), "CAVITY,CAVITY", dtype=object)
        tail[material] = format_rows("%.12g,%.12g", self.ref[iy[material], ix[material]]).split()
        write_table(path, "xi_x,xi_y,x_x,x_y", "%s,%s,%s",
                    np.column_stack([gx[ix], gy[iy], tail]))


def _cavity_membership(y: DeformationField, pts: np.ndarray) -> np.ndarray:
    inside = np.zeros(len(pts), dtype=bool)
    for ids in y.mesh.puncture_loops():
        loop = y.positions[ids]
        inside |= winding_points(loop, pts) != 0
    return inside


def build_inverse_field(y: DeformationField, delta: float, marker=None) -> InverseField:
    """Populate the raster inverse over a grid covering the deformed image
    and 2 cells beyond it."""
    origin, shape = covering_grid(y.positions, delta, 2)
    marker = default_marker(y.mesh) if marker is None else np.asarray(marker, float)
    inv = InverseField(origin=origin, delta=float(delta),
                       kind=np.full(shape, OUTSIDE, dtype=np.uint8),
                       ref=None, tri=None, marker=marker)
    # the pre-images: the reference corners interpolated at the cell centres
    inv.tri, inv.ref = y.deformed_locator().locate_grid(inv, y.mesh.vertices[y.mesh.triangles])
    miss = inv.tri < 0
    inv.kind[~miss] = MATERIAL
    if miss.any() and y.mesh.punctures:
        cavity = np.zeros(shape, dtype=bool)
        for ids in y.mesh.puncture_loops():
            cavity |= winding_grid(inv, [(y.positions[ids], +1)]) != 0
        inv.kind[miss & cavity] = CAVITY
    return inv


def invert_point(y: DeformationField, xi):
    """Pre-image of one deformed point.

    Returns ("material", x), ("cavity", o) with o the default marker, or
    ("outside", None). Points on a shared deformed edge resolve through
    either adjacent triangle; conforming meshes give the same pre-image.
    """
    xi = np.asarray(xi, dtype=float)
    tri, bary = y.deformed_locator().locate(xi[None])
    if tri[0] >= 0:  # the reference corners interpolated, as the raster does
        return "material", DeformationField(y.mesh).interpolate(tri, bary)[0]
    if y.mesh.punctures and _cavity_membership(y, xi[None])[0]:
        return "cavity", default_marker(y.mesh)
    return "outside", None


def inverse_gradient(y: DeformationField, xi):
    """(grad y)^{-1} at the pre-image of xi; batched when xi is (n, 2).

    The distributional gradient of the inverse has no absolutely continuous
    part on cavities, so cavity points raise; so do points off the image.
    """
    xi = np.asarray(xi, dtype=float)
    single = xi.ndim == 1
    pts = xi[None] if single else xi
    tri, _ = y.deformed_locator().locate(pts)
    if np.any(tri < 0):
        bad = pts[tri < 0]
        if y.mesh.punctures and _cavity_membership(y, bad).any():
            raise DomainError("no absolutely continuous part on a cavity")
        raise DomainError("point outside the deformed image")
    F = y.element_gradients()[tri]
    out = np.linalg.inv(F)
    return out[0] if single else out


@dataclass
class JumpContour:
    """One jump-set component: closed polyline, per-segment outward normal
    (out of the cavity; the inverse's jump normal is its negative) and jump
    amplitude |a - o| read from the adjacent material cell."""

    points: np.ndarray
    normals: np.ndarray
    amplitudes: np.ndarray


def _probe_ref(inv: InverseField, pts: np.ndarray):
    """Pre-image stored in the material cell nearest each point, else nan."""
    iy, ix, ok = inv.cell_of(pts)
    ok[ok] = inv.kind[iy[ok], ix[ok]] == MATERIAL
    vals = np.full((len(pts), 2), np.nan)
    vals[ok] = inv.ref[iy[ok], ix[ok]]
    return vals


def extract_jump_set(inv: InverseField) -> list:
    """Jump-set contours of the inverse: boundaries of the marker region."""
    contours = []
    mask = inv.kind == CAVITY
    if mask.any():
        for loop in marching_squares(mask, inv.origin, inv.delta):
            pts = ensure_ccw(loop)
            e = succ(pts) - pts
            nrm = np.stack([e[:, 1], -e[:, 0]], axis=1)
            nrm /= np.maximum(np.linalg.norm(nrm, axis=1, keepdims=True), 1e-300)
            mids = 0.5 * (pts + succ(pts))
            a = _probe_ref(inv, mids + 0.6 * inv.delta * nrm)
            retry = np.isnan(a[:, 0])
            if retry.any():
                a[retry] = _probe_ref(inv, mids[retry] + 1.2 * inv.delta * nrm[retry])
            amp = np.linalg.norm(a - inv.marker, axis=1)
            contours.append(JumpContour(points=pts, normals=nrm, amplitudes=amp))
    return contours


def jump_set_to_csv(contours, path):
    rows = [np.column_stack([np.full(len(jc.points), c), jc.points, jc.normals, jc.amplitudes])
            for c, jc in enumerate(contours)]
    write_table(path, "contour,x,y,nx,ny,amplitude", "%d" + ",%.12g" * 5,
                np.concatenate(rows or [np.empty((0, 6))]))


def area_formula_check(y: DeformationField, f, delta: float,
                       inv: InverseField | None = None):
    """Raster integral of f(det grad inverse) vs exact reference integral.

    Left: delta^2 * sum over material cells of f(1/det). Right: per-triangle
    sum of area * det * f(1/det). f must accept numpy arrays elementwise.
    Returns (left, right).
    """
    if inv is None:
        inv = build_inverse_field(y, delta)
    det = y.element_dets()
    mask = inv.kind == MATERIAL
    tri = inv.tri[mask]
    left = float(np.sum(np.asarray(f(1.0 / det[tri])))) * inv.delta ** 2
    right = float(np.sum(y.mesh.areas * det * np.asarray(f(1.0 / det))))
    return left, right
