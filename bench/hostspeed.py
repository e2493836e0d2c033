"""A fixed reference kernel that shows how fast the host runs this process.

The kernel shares no code with scatterlab but does the same kind of work:
a planar ray bouncing between disks inside a circle, in plain Python float
arithmetic, then a few small numpy vector operations. ``run.py`` times it
just before and just after each repeat of a job and reports the job's time
in units of the kernel's, scaled by ``REFERENCE_S`` back to seconds.
"""

from __future__ import annotations

import math
import time

import numpy as np

DISKS = ((3.2, 0.0, 1.0), (-1.6, 2.8, 1.0), (-1.6, -2.8, 1.0))
RADIUS = 10.0
BOUNCES = 1500
VECTOR_OPS = 300
# The kernel's time on the host the benchmark was written on (a 2-vCPU VM,
# Python 3.11, numpy 2.4) when that host ran at full speed.
REFERENCE_S = 0.0025


def kernel() -> float:
    """Trace one ray for BOUNCES reflections; return a checksum."""
    x, y = -9.0, 0.3
    ux, uy = math.cos(0.1), math.sin(0.1)
    total = 0.0
    for _ in range(BOUNCES):
        best_t, best = math.inf, None
        for cx, cy, r in DISKS:
            wx, wy = x - cx, y - cy
            b = wx * ux + wy * uy
            disc = b * b - (wx * wx + wy * wy - r * r)
            if disc <= 0.0:
                continue
            t = -b - math.sqrt(disc)
            if 1e-9 < t < best_t:
                best_t, best = t, (cx, cy, r)
        if best is None:
            # No disk ahead: reflect off the wall of the circle.
            b = x * ux + y * uy
            best_t = -b + math.sqrt(max(0.0, b * b - (x * x + y * y - RADIUS * RADIUS)))
            x, y = x + best_t * ux, y + best_t * uy
            nx, ny = x / RADIUS, y / RADIUS
        else:
            cx, cy, r = best
            x, y = x + best_t * ux, y + best_t * uy
            nx, ny = (x - cx) / r, (y - cy) / r
        d = ux * nx + uy * ny
        ux, uy = ux - 2.0 * d * nx, uy - 2.0 * d * ny
        norm = math.hypot(ux, uy)
        ux, uy = ux / norm, uy / norm
        total += best_t
    v = np.array([0.3, -0.2, 0.9])
    m = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    for _ in range(VECTOR_OPS):
        v = m @ v
        total += float(np.linalg.norm(v)) + float(v @ v)
    return total


def measure() -> float:
    """Seconds of the kernel: the faster of two runs."""
    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return min(times)
