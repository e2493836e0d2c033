"""Fermat oracle for one-bounce travelling times off a disk.

It shares no code with scatterlab's tracing or shooting. A path
x -> p -> y that reflects once off a disk at p is a stationary point of
f(p) = |x - p| + |p - y| over the circle, and for points outside a convex
obstacle it is a local minimum. Both legs leave the disk exactly when p lies
on the arc that both x and y see; in closed form, the angle of p is within
acos(r / |x - c|) of the angle of x, and likewise for y. The oracle samples
that arc with its end points, brackets each sign change of df/dtheta from -
to +, and bisects it. A one-bounce sample is correct when its time matches
one of these minima.
"""

from __future__ import annotations

import numpy as np

_GRID = 2048
_CHUNK = 64
_BISECT_STEPS = 64


def _visible_arc(x, y, c, r):
    """Angle interval [lo, hi] of the circle points both x and y see."""
    def half_width(q):
        return np.arccos(np.minimum(1.0, r / np.linalg.norm(q - c, axis=1)))

    phi_x = np.arctan2(x[:, 1] - c[:, 1], x[:, 0] - c[:, 0])
    phi_y = np.arctan2(y[:, 1] - c[:, 1], y[:, 0] - c[:, 0])
    delta = np.angle(np.exp(1j * (phi_y - phi_x)))
    ax, ay = half_width(x), half_width(y)
    lo = np.maximum(-ax, delta - ay)
    hi = np.minimum(ax, delta + ay)
    return phi_x + lo, phi_x + hi


def _slope(theta, x, y, c, r):
    """f and df/dtheta on the circle, rows broadcast against theta columns."""
    nrm = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    tangent = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
    p = c[:, None, :] + r[:, None, None] * nrm
    from_x = p - x[:, None, :]
    from_y = p - y[:, None, :]
    dx = np.linalg.norm(from_x, axis=2)
    dy = np.linalg.norm(from_y, axis=2)
    grad = from_x / dx[..., None] + from_y / dy[..., None]
    return dx + dy, r[:, None] * np.einsum("mgk,mgk->mg", grad, tangent)


def one_bounce_mismatch(t, x, y, center, radius) -> np.ndarray:
    """|t - closest oracle minimum| per sample; inf where the oracle has none.

    ``t`` and ``radius`` have shape (m,); ``x``, ``y`` and ``center`` have
    shape (m, 2).
    """
    t = np.asarray(t, dtype=float).reshape(-1)
    x, y, center = (np.asarray(v, dtype=float).reshape(-1, 2) for v in (x, y, center))
    radius = np.asarray(radius, dtype=float).reshape(-1)
    out = np.full(t.size, np.inf)
    lo, hi = _visible_arc(x, y, center, radius)
    frac = np.linspace(0.0, 1.0, _GRID)
    for s in range(0, t.size, _CHUNK):
        rows = slice(s, s + _CHUNK)
        theta = lo[rows, None] + (hi - lo)[rows, None] * frac
        _, g = _slope(theta, x[rows], y[rows], center[rows], radius[rows])
        bracket = (g[:, :-1] < 0.0) & (g[:, 1:] >= 0.0) & (hi > lo)[rows, None]
        r_idx, g_idx = np.nonzero(bracket)
        if r_idx.size == 0:
            continue
        k = r_idx + s
        a = theta[r_idx, g_idx]
        b = theta[r_idx, g_idx + 1]
        args = (x[k], y[k], center[k], radius[k])
        for _ in range(_BISECT_STEPS):
            mid = 0.5 * (a + b)
            _, gm = _slope(mid[:, None], *args)
            up = gm[:, 0] >= 0.0
            b = np.where(up, mid, b)
            a = np.where(up, a, mid)
        f, _ = _slope((0.5 * (a + b))[:, None], *args)
        np.minimum.at(out, k, np.abs(t[k] - f[:, 0]))
    return out


def planar_reduction(x, y, center):
    """Coordinates of x and y in the plane through center, x and y.

    A one-bounce path off a ball lies in that plane, with the reflection on
    the great circle. Returns (x2, y2) with the ball centre at the origin, or
    None when the three points are collinear and the plane is undefined.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    c = np.asarray(center, dtype=float)
    e1 = x - c
    e1 /= np.linalg.norm(e1)
    w = (y - c) - float((y - c) @ e1) * e1
    nw = float(np.linalg.norm(w))
    if nw < 1e-9:
        return None
    e2 = w / nw
    return (np.array([float((x - c) @ e1), 0.0]),
            np.array([float((y - c) @ e1), float((y - c) @ e2)]))
