"""Float kernels kept as bitwise references for the batched ones.

_first_hit_nd takes the body hit of one ray in any d on Python floats, by
the batched kernel's own _quadratic and _phi; _first_hit_2d and _trace_2d
write the d = 2 body hit and trace out by hand, in the batched kernel's
operation order. On a body scene _hits equals _first_hit_nd and, in the
plane, _first_hit_2d, and a row of _trace_many under the default limits
equals _trace_2d, bit for bit.
"""

from __future__ import annotations

import math

from scatterlab.dynamics import DEFAULT_MAX_REFLECTIONS
from scatterlab import geometry
from scatterlab.geometry import (DISCRIMINANT_EPS, TANGENT_COS_EPS, _body_par, _dot, _guard,
                                 _phi, _quadratic)


def _first_hit_nd(entries, o: tuple, v: tuple, t_min: float = 0.0):
    """Nearest hit after t_min of one ray over the kernel entries of a body
    scene (its _k[0]), in any d, as (obstacle_id, t, point, normal,
    cos_incidence, grazing), or None; ties go to the lowest id. Each body
    offers its first root of al (t - t0)^2 + g0 after t_min,
    t0 -+ sqrt(-al g0) / al, or in the double-root snap band its vertex t0;
    the hit passes _guard. The direction must be a unit vector."""
    d = len(o)
    best_t, best, band = math.inf, None, False
    for e in entries:
        tag, c, par = e[0], e[3:3 + d], _body_par(e[0], e[3 + d:], d)
        al, t0, g0 = _quadratic(tag, c, par, o, v)
        if g0 > DISCRIMINANT_EPS:
            continue
        if g0 >= -DISCRIMINANT_EPS:
            if t_min < t0 < best_t:
                best_t, best, band = t0, (e[1], tag, c, par), True
            continue
        h = math.sqrt(-al * g0) / al
        t = t0 - h
        if not t > t_min:
            t = t0 + h
        if t_min < t < best_t:
            best_t, best, band = t, (e[1], tag, c, par), False
    if best is None:
        return None
    oid, tag, c, par = best
    p = tuple([x + best_t * y for x, y in zip(o, v)])
    f, g = _phi(tag, c, par, p)
    nn = math.sqrt(_dot(g, g))
    _guard(f, nn, o, v, best_t)
    n = tuple([x / nn for x in g])
    cosi = _dot(v, n)
    return oid, best_t, p, n, cosi, band or abs(cosi) < TANGENT_COS_EPS


def _first_hit_2d(entries, ox: float, oy: float, ux: float, uy: float):
    """Closest body hit for a planar ray over the kernel entries of a body
    scene (its _k[0]) as (obstacle_id, t, px, py, nx, ny, cos_incidence,
    grazing), or None; ties go to the lowest id. Each body offers its first
    root beyond 0 by _first_hit_nd's rule, written out on floats, and its
    hit passes _guard.
    """
    eps, sqrt = DISCRIMINANT_EPS, math.sqrt
    best_t, best, band = math.inf, None, False
    for e in entries:
        if e[0] == "b":
            _, _, _, cx, cy, al = e
            wx = ox - cx
            wy = oy - cy
            t0 = -(wx * ux + wy * uy)
            wx = wx + t0 * ux
            wy = wy + t0 * uy
            g0 = (wx * wx + wy * wy) * al - 1.0
        else:
            _, _, _, cx, cy, m00, m01, m11 = e
            wx = ox - cx
            wy = oy - cy
            mvx = m00 * ux + m01 * uy
            mvy = m01 * ux + m11 * uy
            al = ux * mvx + uy * mvy
            t0 = -(wx * mvx + wy * mvy) / al
            wx = wx + t0 * ux
            wy = wy + t0 * uy
            g0 = wx * (m00 * wx + m01 * wy) + wy * (m01 * wx + m11 * wy) - 1.0
        if g0 > eps:
            continue
        if g0 >= -eps:
            if 0.0 < t0 < best_t:
                best_t, best, band = t0, e, True
            continue
        h = sqrt(-al * g0) / al
        t = t0 - h
        if t <= 0.0:
            t = t0 + h
        if 0.0 < t < best_t:
            best_t, best, band = t, e, False
    if best is None:
        return None
    px = ox + best_t * ux
    py = oy + best_t * uy
    wx = px - best[3]
    wy = py - best[4]
    if best[0] == "b":
        nx, ny = wx * best[5], wy * best[5]
    else:
        nx, ny = best[5] * wx + best[6] * wy, best[6] * wx + best[7] * wy
    nn = sqrt(nx * nx + ny * ny)
    # ROOT_TOL read at call time, so that a test may lower it.
    if abs(f := wx * nx + wy * ny - 1.0) > geometry.ROOT_TOL:
        _guard(f, nn, (ox, oy), (ux, uy), best_t)
    nx = nx / nn
    ny = ny / nn
    cosi = ux * nx + uy * ny
    return best[1], best_t, px, py, nx, ny, cosi, band or abs(cosi) < TANGENT_COS_EPS


def _trace_2d(entries, point, direction, off: float, skip: float, lmax: float):
    """The planar float trace over a body scene's kernel entries, with the
    default scales off, skip and lmax. Events are tuples (obstacle, point,
    normal, grazing, direction_after). Returns (escaped, events, leg_origin,
    direction, leg_length), ending at the last free leg: its origin (the last
    event point, or the start point when there was no event), the path
    length up to it and the direction along it."""
    ox, oy = float(point[0]), float(point[1])
    ux, uy = float(direction[0]), float(direction[1])
    px_prev, py_prev = ox, oy
    total = 0.0
    nrefl = 0
    events = []
    while True:
        h = _first_hit_2d(entries, ox, oy, ux, uy)
        if h is None:
            return True, events, (px_prev, py_prev), (ux, uy), total
        oid, t, px, py, nx, ny, cosi, grazing = h
        dx = px - px_prev
        dy = py - py_prev
        total += math.sqrt(dx * dx + dy * dy)
        px_prev, py_prev = px, py
        if grazing:
            events.append((oid, (px, py), (nx, ny), True, (ux, uy)))
            ox = px + skip * ux
            oy = py + skip * uy
        else:
            d = 2.0 * (ux * nx + uy * ny)
            ux -= d * nx
            uy -= d * ny
            nn = math.sqrt(ux * ux + uy * uy)
            ux /= nn
            uy /= nn
            events.append((oid, (px, py), (nx, ny), False, (ux, uy)))
            nrefl += 1
            ox = px + off * nx
            oy = py + off * ny
        if nrefl >= DEFAULT_MAX_REFLECTIONS or total >= lmax:
            return False, events, (px, py), (ux, uy), total
