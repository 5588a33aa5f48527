"""Small helpers shared by the geometry, degree, energy and inverse code:
closed-polyline arithmetic, and `ranges`, the expansion of ragged index
ranges that the bucket, sweep and graph code share."""

from __future__ import annotations

import numpy as np


def succ(a):
    """The rows of a closed loop shifted one place on: row k holds a[k + 1]
    and the last row a[0]. The values of np.roll(a, -1, axis=0), from two
    slices at a fraction of its cost."""
    return np.concatenate((a[1:], a[:1]))


def ranges(start, count):
    """(index, owner): the concatenation of arange(start[k], start[k] +
    count[k]) over k, and the k of each of its entries. start is a (k,)
    array or one integer for every range; count is (k,) and nonnegative."""
    owner = np.repeat(np.arange(len(count)), count)
    return np.arange(len(owner)) + np.repeat(start - (np.cumsum(count) - count), count), owner


def polygon_signed_area(pts) -> float:
    pts = np.asarray(pts, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * succ(y) - succ(x) * y))


def mean_circle(pts):
    """(centre, radius): the mean of a loop's points and their mean distance from it."""
    centre = pts.mean(axis=0)
    return centre, float(np.linalg.norm(pts - centre, axis=1).mean())


def ensure_ccw(pts):
    pts = np.asarray(pts, dtype=float)
    if polygon_signed_area(pts) < 0.0:
        return pts[::-1].copy()
    return pts


_PAIRS = 1 << 18  # point-segment pairs per batch (bounds peak memory)


def points_to_polyline_distance(points, loop):
    """Distance from each query point to a closed polyline, (k,) array.

    Batched over the query points, about `_PAIRS` point-segment pairs at a
    time; each point's minimum is its own, so batching changes no digit.
    The x and y parts are separate (points, segments) arrays, never one
    with a trailing axis of 2, and each sum adds the x term first, as the
    batched `sum(axis=...)` and `norm(axis=...)` it replaces did.
    """
    px, py = np.atleast_2d(np.asarray(points, dtype=float)).T
    ax, ay = np.asarray(loop, dtype=float).T
    dx, dy = succ(ax) - ax, succ(ay) - ay
    len2 = np.maximum(dx * dx + dy * dy, 1e-300)
    out = np.empty(len(px))
    step = max(1, _PAIRS // len(ax))
    for lo in range(0, len(px), step):
        qx, qy = px[lo:lo + step, None], py[lo:lo + step, None]
        # project every point on every segment
        t = np.clip(((qx - ax) * dx + (qy - ay) * dy) / len2, 0.0, 1.0)
        ex = qx - (ax + t * dx)
        ey = qy - (ay + t * dy)
        out[lo:lo + step] = np.sqrt(ex * ex + ey * ey).min(axis=1)
    return out


def densify(loop, max_edge):
    """Insert points so no edge of the closed polyline exceeds max_edge."""
    loop = np.asarray(loop, dtype=float)
    out = []
    for p, q in zip(loop, succ(loop)):
        n = max(1, int(np.ceil(np.linalg.norm(q - p) / max_edge)))
        for s in range(n):
            out.append(p + (q - p) * (s / n))
    return np.asarray(out)


def hausdorff_distance(loop_a, loop_b) -> float:
    """Symmetric Hausdorff distance between two closed polylines, both
    densified to 1% of the larger bounding-box side."""
    a = np.asarray(loop_a, dtype=float)
    b = np.asarray(loop_b, dtype=float)
    resolution = 0.01 * max(np.ptp(a, axis=0).max(), np.ptp(b, axis=0).max())
    ad = densify(a, resolution)
    bd = densify(b, resolution)
    d_ab = points_to_polyline_distance(ad, b).max()
    d_ba = points_to_polyline_distance(bd, a).max()
    return float(max(d_ab, d_ba))
