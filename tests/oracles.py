"""Independent oracles used to freeze expected values in the tests.

These deliberately avoid the library's tracing path: the Fermat oracle is a
plain vectorized minimization of leg lengths over a dense boundary sample
with explicit visibility masking, the segment clearance test and the
curve-hit oracle are closed form, and the time-set Hausdorff distance is a
double loop over all pairs. Each oracle is used on the opposite side of a
dual check from the implementation it validates.
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


def hausdorff_1d_pairs(a, b) -> float:
    """Hausdorff distance of two finite sets of reals by brute force: every
    pair's abs(x - y) in Python floats, min over one side, max over both.
    Empty versus empty is 0.0; empty versus nonempty is inf."""
    if not a and not b:
        return 0.0
    if not a or not b:
        return math.inf
    d = 0.0
    for xs, ys in ((a, b), (b, a)):
        for x in xs:
            d = max(d, min(abs(x - y) for y in ys))
    return d


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


def first_curve_hits(pieces, origin, direction, slack=1e-12):
    """Every piece a planar ray meets first, by closed forms.

    ``pieces`` holds (obstacle id, arc index, piece) triples, a piece being
    ("segment", a, b), the segment from a to b, or ("ellipse", c, (A, B),
    (s0, s1)), the points c + (A cos s, B sin s) for s between s0 and s1 (a
    full turn for a disk). A ray o + t v meets a segment where the 2 x 2
    system o + t v = a + s (b - a) has 0 <= s <= 1, and an ellipse at the
    roots of its quadratic in t, taken in the cancellation-free form
    q / a, c / q; a root counts where its angle lies within the arc's span.
    Both tests allow ``slack`` (in s, and in angle) past the ends, the
    library's stated end tolerance, so a hit at a piece's end counts for
    it. A quadratic whose discriminant, in the ellipse's unit-circle frame,
    is within 1e-14 of 0 has the one root at its vertex: the library's
    stated tangency band.

    Returns (obstacle id, arc index, t, unit normal) for every piece hit
    beyond 0 at the least such t, to 1e-12 relative; empty when the ray
    meets nothing. An ellipse's normal points outward, a segment's to the
    left of a to b.
    """
    o = np.asarray(origin, dtype=float)
    v = np.asarray(direction, dtype=float)
    found = []
    for oid, arc, piece in pieces:
        if piece[0] == "segment":
            a, b = np.asarray(piece[1], dtype=float), np.asarray(piece[2], dtype=float)
            e, w = b - a, a - o
            cross = v[0] * e[1] - v[1] * e[0]
            if abs(cross) < 1e-12 * math.hypot(*e):
                continue
            t = (w[0] * e[1] - w[1] * e[0]) / cross
            s = (w[0] * v[1] - w[1] * v[0]) / cross
            if t > 0.0 and -slack <= s <= 1.0 + slack:
                n = np.array([-e[1], e[0]]) / math.hypot(*e)
                found.append((oid, arc, t, n))
            continue
        _, c, (A, B), (s0, s1) = piece
        q = (o - np.asarray(c, dtype=float)) / (A, B)
        dv = v / (A, B)
        qa, qb, qc = dv @ dv, q @ dv, q @ q - 1.0
        disc = qb * qb - qa * qc
        if disc < -1e-14:
            continue
        if disc <= 1e-14:
            roots = [-qb / qa]
        else:
            h = -(qb + math.copysign(math.sqrt(disc), qb))
            roots = [h / qa, qc / h]
        lo, span = min(s0, s1), abs(s1 - s0)
        for t in roots:
            x, y = q + t * dv
            turn = (math.atan2(y, x) - lo) % (2.0 * math.pi)
            if t > 0.0 and (turn <= span + slack or turn >= 2.0 * math.pi - slack):
                n = np.array([x / A, y / B])
                found.append((oid, arc, t, n / np.linalg.norm(n)))
    if not found:
        return []
    first = min(t for _, _, t, _ in found)
    return [hit for hit in found if hit[2] - first <= 1e-12 * first]


def disk_itinerary_roots(centers, radii, pairs, depth, grid=24, clear=1e-6):
    """Every reflecting path between each pair (x, y) of points outside disks
    in the plane, with at most depth reflections, by word, found without the
    library.

    A word (j_1, ..., j_k), no disk twice in a row, has the paths x -> p_1 ->
    ... -> p_k -> y with p_i = c_{j_i} + r_{j_i} (cos a_i, sin a_i), and its
    reflecting paths are critical points of the length L(a) over the
    boundary angles a. L is evaluated on a grid of grid angles per point,
    for all pairs at once; from every grid point that is no longer than its
    2k grid neighbours, scipy's BFGS with the analytic gradient finds a
    minimum. A minimum is kept when it is a critical point (|grad L| < 1e-7)
    and a trajectory with margin: both legs at each p_i leave the disk at a
    cosine above clear, and every leg stays farther than clear from every
    disk but the disks it ends on. The free chord is the word of length 0.
    Returns, per pair, {word: [t, ...]} of the distinct kept times.
    """
    from scipy.optimize import minimize

    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    pairs = [(np.asarray(x, dtype=float), np.asarray(y, dtype=float)) for x, y in pairs]
    out = [{} for _ in pairs]
    for k, (x, y) in enumerate(pairs):
        if _legs_clear([x, y], [None, None], centers, radii, clear):
            out[k][()] = [float(np.linalg.norm(y - x))]
    words = [(j,) for j in range(len(radii))]
    angles = 2.0 * np.pi * np.arange(grid) / grid
    while words and len(words[0]) <= depth:
        for word in words:
            c, r = centers[list(word)], radii[list(word)]
            mesh = np.stack(np.meshgrid(*[angles] * len(word), indexing="ij"), axis=-1)
            p = c + r[:, None] * np.stack([np.cos(mesh), np.sin(mesh)], axis=-1)
            inner = np.linalg.norm(np.diff(p, axis=-2), axis=-1).sum(axis=-1)
            for k, (x, y) in enumerate(pairs):
                grid_l = (inner + np.linalg.norm(p[..., 0, :] - x, axis=-1)
                          + np.linalg.norm(p[..., -1, :] - y, axis=-1))
                low = np.ones(grid_l.shape, dtype=bool)
                for axis in range(len(word)):
                    for step in (1, -1):
                        low &= grid_l <= np.roll(grid_l, step, axis=axis)
                times = out[k].setdefault(word, [])
                for start in mesh[low]:
                    t = _disk_word_minimum(minimize, c, r, x, y, start, centers, radii, word,
                                           clear)
                    if t is not None and all(abs(t - s) >= 1e-7 for s in times):
                        times.append(t)
                times.sort()
                if not times:
                    del out[k][word]
        words = [w + (j,) for w in words for j in range(len(radii)) if w[-1] != j]
    return out


def _disk_word_minimum(minimize, c, r, x, y, start, centers, radii, word, clear):
    """BFGS on the length of word's paths from x to y from the angles start;
    the length of the minimum found when it is a trajectory with margin,
    else None."""
    def length(a):
        p = np.vstack([x, c + r[:, None] * np.column_stack([np.cos(a), np.sin(a)]), y])
        d = np.diff(p, axis=0)
        n = np.linalg.norm(d, axis=1)
        u = d / n[:, None]
        tangent = r[:, None] * np.column_stack([-np.sin(a), np.cos(a)])
        return n.sum(), np.einsum("ij,ij->i", u[:-1] - u[1:], tangent)

    a = minimize(length, start, jac=True, method="BFGS",
                 options={"gtol": 1e-12, "maxiter": 500}).x
    t, grad = length(a)
    if np.max(np.abs(grad)) >= 1e-7:
        return None
    normal = np.column_stack([np.cos(a), np.sin(a)])
    path = np.vstack([x, c + r[:, None] * normal, y])
    u = np.diff(path, axis=0)
    u /= np.linalg.norm(u, axis=1)[:, None]
    outward = ((np.einsum("ij,ij->i", -u[:-1], normal) > clear).all()
               and (np.einsum("ij,ij->i", u[1:], normal) > clear).all())
    if outward and _legs_clear(path, [None, *word, None], centers, radii, clear):
        return float(t)
    return None


def _legs_clear(path, owners, centers, radii, clear) -> bool:
    """Does every leg of the polyline path stay farther than clear outside
    every disk but those owning its two end points."""
    for (a, b), ends in zip(zip(path[:-1], path[1:]), zip(owners[:-1], owners[1:])):
        d = b - a
        for k, (c, r) in enumerate(zip(centers, radii)):
            if k in ends:
                continue
            s = np.clip(np.dot(c - a, d) / np.dot(d, d), 0.0, 1.0)
            if np.linalg.norm(a + s * d - c) - r < clear:
                return False
    return True
