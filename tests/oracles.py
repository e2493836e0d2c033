"""Independent oracles used to freeze expected values in the tests.

These deliberately avoid the library's tracing path: the Fermat oracle is a
plain vectorized minimization of leg lengths over a dense boundary sample
with explicit visibility masking, and the segment clearance test is closed
form. Each oracle is used on the opposite side of a dual check from the
implementation it validates.
"""

from __future__ import annotations

import math

import numpy as np


def segment_clears_disk(a, b, center, r) -> np.ndarray:
    """Vectorized: does each segment a[i] -> b[i] avoid the open disk."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    c = np.asarray(center, dtype=float)
    d = b - a
    denom = np.einsum("ij,ij->i", d, d)
    t = np.clip(np.einsum("ij,ij->i", c - a, d) / denom, 0.0, 1.0)
    p = a + t[:, None] * d
    return np.linalg.norm(p - c, axis=1) >= r * (1.0 - 1e-12)


def fermat_circle_times(center, r, x, y, n=1_000_000):
    """Interior local minima of |x-p| + |p-y| over valid reflection points p.

    p runs over n boundary samples of the circle; a configuration is valid
    when both legs stay outside the open disk. A circle point p sees a point
    q outside the disk exactly when q lies beyond the tangent line at p,
    <p-c, q-c> >= r^2, which is tested in closed form with the same relative
    slack as ``segment_clears_disk``. Only interior minima of the valid set
    count: endpoint (grazing) configurations are not reflections. Returns
    the sorted local-minimum path lengths.
    """
    c = np.asarray(center, dtype=float)
    ang = 2.0 * math.pi * np.arange(n) / n
    p = c + r * np.column_stack([np.cos(ang), np.sin(ang)])
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    f = np.linalg.norm(p - x, axis=1) + np.linalg.norm(p - y, axis=1)
    floor = r * r * (1.0 - 1e-12)
    valid = ((p - c) @ (x - c) >= floor) & ((p - c) @ (y - c) >= floor)
    vp = np.roll(valid, 1) & valid & np.roll(valid, -1)
    local_min = vp & (f <= np.roll(f, 1)) & (f <= np.roll(f, -1))
    return np.sort(f[local_min])


def blocked_pair(center, r, x, y) -> bool:
    """Is the straight chord x -> y obstructed by the disk."""
    return not bool(segment_clears_disk(np.asarray(x)[None, :] if np.ndim(x) > 0 else x,
                                        np.asarray(y)[None, :], center, r)[0])


def circle_pair(a, ang1, ang2):
    return (np.array([a * math.cos(ang1), a * math.sin(ang1)]),
            np.array([a * math.cos(ang2), a * math.sin(ang2)]))


def mirror_direction(v, n):
    """Reference specular law, written independently of the library."""
    v = np.asarray(v, dtype=float)
    n = np.asarray(n, dtype=float)
    return v - 2.0 * np.dot(v, n) * n


def ellipse_reflect_through_focus(semi_major, focal_c, point):
    """Check input helper: outward normal of x^2/A^2 + y^2/B^2 = 1 at point."""
    A = semi_major
    B = math.sqrt(A * A - focal_c * focal_c)
    g = np.array([2.0 * point[0] / (A * A), 2.0 * point[1] / (B * B)])
    return g / np.linalg.norm(g)
