"""Obstacle geometry: strictly convex implicit bodies, planar demo curves,
scenes, and ray intersection with tangency classification.

Bodies are balls and (optionally rotated) ellipsoids carried by the implicit
function phi(x) = |D^-1 R^T (x - c)|^2 - 1, negative inside, zero on the
boundary, positive outside. Ray intersection reduces to a quadratic in the
ray parameter; roots are taken in closed form and polished with Newton steps
so |phi| at a reported hit stays below ROOT_TOL. A batched kernel applies the
same rules to rows of rays at once, over bodies and curve arcs. It
reproduces the single-ray numbers bit for bit in d >= 3 and on curve arcs;
it Newton-polishes planar body hits and the planar scalar kernel does not,
so those agree to rounding.

Curve obstacles (chains of elliptic arcs and segments) exist only in the
plane and only for demonstration scenes; they are flagged non-convex and all
rigidity claims exclude them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Tangency and root-handling thresholds. A hit is grazing when the incidence
# cosine is below TANGENT_COS_EPS or the quadratic discriminant falls in the
# double-root snap band.
TANGENT_COS_EPS = 1e-8
DISCRIMINANT_EPS = 1e-14
ROOT_TOL = 1e-9
_NEWTON_CAP = 8

# How far a direction's norm may be from 1 at every single-ray entry point:
# the planar kernels take the direction as given, so a looser bound would let
# reported points leave the boundary.
UNIT_TOL = 1e-12

_POLISH_FAILED = "ray-body root polish failed near a degenerate tangency"

_ROT_TOL = 1e-12
_CHAIN_TOL = 1e-9


class RayIntersectError(RuntimeError):
    """Root polishing did not converge; carries the offending ray."""

    def __init__(self, message: str, origin, direction):
        super().__init__(message)
        self.origin = tuple(float(v) for v in origin)
        self.direction = tuple(float(v) for v in direction)


def _as_tuple(x) -> tuple:
    return tuple(np.asarray(x, dtype=float).ravel().tolist())


def rotation_2d(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# Bodies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvexBody:
    """One strictly convex component: a ball or a rotated ellipsoid.

    ``semiaxes`` holds d positive lengths whose 1/s^2 is finite and positive;
    ``rotation`` is an orthonormal d x d matrix stored row-major (identity
    for balls). The induced implicit function has constant Hessian
    2 R D^-2 R^T, so every body is strictly convex by construction.
    """

    kind: str
    center: tuple
    semiaxes: tuple
    rotation: tuple

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        s = np.asarray(self.semiaxes, dtype=float)
        d = c.size
        if self.kind not in ("ball", "ellipsoid"):
            raise ValueError(f"unknown body kind {self.kind!r}")
        if s.size != d:
            raise ValueError("semiaxes length must equal the ambient dimension")
        if not np.all(s > 0.0):
            raise ValueError("all semiaxes must be strictly positive")
        with np.errstate(over="ignore", divide="ignore", under="ignore"):
            inv2 = 1.0 / s**2
        # Past about 1e-154 and 1e154, 1/s^2 overflows or underflows to 0, and
        # the Hessian below is no longer positive definite and finite.
        if not np.all(np.isfinite(inv2) & (inv2 > 0.0)):
            raise ValueError("semiaxes must lie between about 1e-154 and 1e154, so that "
                             "1/s^2 is finite and positive")
        rot = np.asarray(self.rotation, dtype=float).reshape(d, d)
        if np.max(np.abs(rot.T @ rot - np.eye(d))) > _ROT_TOL:
            raise ValueError("rotation must be orthonormal to within 1e-12")
        if self.kind == "ball" and np.ptp(s) != 0.0:
            raise ValueError("a ball needs equal semiaxes")
        object.__setattr__(self, "center", _as_tuple(c))
        object.__setattr__(self, "semiaxes", _as_tuple(s))
        object.__setattr__(self, "rotation", tuple(map(tuple, rot.tolist())))
        # Quadratic-form matrix of phi: M = R D^-2 R^T.
        m = rot @ np.diag(inv2) @ rot.T
        object.__setattr__(self, "_c", c)
        object.__setattr__(self, "_M", m)
        object.__setattr__(self, "_r", float(s[0]))

    @property
    def dimension(self) -> int:
        return len(self.center)

    @property
    def is_ball(self) -> bool:
        return self.kind == "ball"


def ball(center, radius: float) -> ConvexBody:
    center = np.asarray(center, dtype=float)
    d = center.size
    return ConvexBody("ball", tuple(center), (float(radius),) * d,
                      tuple(map(tuple, np.eye(d).tolist())))


def ellipsoid(center, semiaxes, rotation=None) -> ConvexBody:
    center = np.asarray(center, dtype=float)
    d = center.size
    if rotation is None:
        rotation = np.eye(d)
    return ConvexBody("ellipsoid", tuple(center), _as_tuple(semiaxes),
                      tuple(map(tuple, np.asarray(rotation, dtype=float).tolist())))


def evaluate_body(body: ConvexBody, x) -> tuple[float, np.ndarray]:
    """Implicit value and gradient of the body at x.

    Negative inside, zero on the boundary, positive outside; the gradient
    2 M (x - c) never vanishes on the boundary.
    """
    w = np.asarray(x, dtype=float) - body._c
    mw = body._M @ w
    return float(w @ mw - 1.0), 2.0 * mw


def boundary_samples(body: ConvexBody, n: int) -> np.ndarray:
    """Deterministic sample of n points on the body boundary."""
    u = _unit_directions(body.dimension, n)
    return body._c + (u * np.asarray(body.semiaxes)) @ np.asarray(body.rotation).T


def _unit_directions(d: int, n: int) -> np.ndarray:
    """Deterministic n unit vectors in R^d: an angle lattice in the plane, a
    Fibonacci lattice on the 2-sphere, seeded normal draws above."""
    if d == 2:
        ang = 2.0 * math.pi * np.arange(n) / n
        return np.column_stack([np.cos(ang), np.sin(ang)])
    if d == 3:
        return fibonacci_sphere(n)
    u = np.random.default_rng(1234).normal(size=(n, d))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def fibonacci_sphere(n: int) -> np.ndarray:
    """Nearly uniform deterministic lattice on the unit 2-sphere."""
    k = np.arange(n)
    z = 1.0 - (2.0 * k + 1.0) / n
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = math.pi * (3.0 - math.sqrt(5.0)) * k
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


# ---------------------------------------------------------------------------
# Hits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hit:
    """A ray-boundary intersection.

    ``cos_incidence`` is the inner product of the incoming direction with the
    reported unit normal; it is <= 0 for a ray entering a body. For curve
    hits the normal is oriented against the incoming ray. ``arc`` identifies
    the arc index for curve obstacles and is None for bodies.
    """

    t: float
    point: tuple
    normal: tuple
    cos_incidence: float
    grazing: bool
    arc: Optional[int] = None


def ray_intersect(body: ConvexBody, origin, direction, t_min: float = 0.0) -> Optional[Hit]:
    """First intersection of the ray with the body boundary after t_min.

    Convexity gives at most two roots; a discriminant inside the snap band is
    treated as a double root and flagged grazing, as is any simple root whose
    incidence cosine is below the tangency threshold. Raises ValueError
    unless the direction is a unit vector (to UNIT_TOL = 1e-12).
    """
    o = np.asarray(origin, dtype=float)
    v = np.asarray(direction, dtype=float)
    _check_unit(v)
    root = _body_root(body, o, v, t_min)
    if root is None:
        return None
    t, band = root
    p, n, cosi = _surface_at(body, o, v, t)
    return Hit(float(t), _as_tuple(p), _as_tuple(n), cosi,
               band or abs(cosi) < TANGENT_COS_EPS, None)


def _check_unit(v) -> None:
    # Written so that a NaN or infinite norm fails the check too.
    if not abs(math.hypot(*v) - 1.0) <= UNIT_TOL:
        raise ValueError(f"direction must be a unit vector to within {UNIT_TOL}")


def _body_root(body: ConvexBody, o: np.ndarray, v: np.ndarray, t_min: float):
    """The single-ray root rule shared by ray_intersect and the trace loop:
    (t, band) for the first boundary crossing after t_min, where band marks
    a discriminant in the double-root snap band, or None."""
    w = o - body._c
    mv = body._M @ v
    al = float(v @ mv)
    b = float(w @ mv)
    g = float(w @ (body._M @ w)) - 1.0
    disc = b * b - al * g
    if disc < -DISCRIMINANT_EPS:
        return None
    if disc <= DISCRIMINANT_EPS:
        t = -b / al
        return (t, True) if t > t_min else None
    s = math.sqrt(disc)
    # |q| >= s > 0, so both root formulas are defined.
    q = -(b + math.copysign(s, b))
    for t in sorted((q / al, g / q)):
        if t > t_min:
            t = _polish_root(body, o, v, t)
            if t > t_min:
                return t, False
    return None


def _polish_root(body: ConvexBody, o: np.ndarray, v: np.ndarray, t: float) -> float:
    for _ in range(_NEWTON_CAP):
        p = o + t * v
        f, grad = evaluate_body(body, p)
        if abs(f) <= ROOT_TOL:
            return t
        fp = float(grad @ v)
        if fp == 0.0:
            break
        t -= f / fp
    p = o + t * v
    f, _ = evaluate_body(body, p)
    if abs(f) > ROOT_TOL:
        raise RayIntersectError(_POLISH_FAILED, o, v)
    return t


def _surface_at(body: ConvexBody, o: np.ndarray, v: np.ndarray, t: float):
    """Boundary point at ray parameter t, its outward unit normal, and the
    incidence cosine of the ray there."""
    p = o + t * v
    _, grad = evaluate_body(body, p)
    n = grad / float(np.linalg.norm(grad))
    return p, n, float(v @ n)


def _nearest_body_hit(scene: Scene, o: np.ndarray, v: np.ndarray):
    """Nearest body hit of one ray as (id, t, point, normal, cos_incidence,
    grazing), or None; ties go to the lowest id. The direction must be a
    unit vector."""
    best = None
    for i, body in enumerate(scene.bodies):
        root = _body_root(body, o, v, 0.0)
        if root is not None and (best is None or root[0] < best[1]):
            best = (i, *root)
    if best is None:
        return None
    i, t, band = best
    p, n, cosi = _surface_at(scene.bodies[i], o, v, t)
    return i, t, p, n, cosi, band or abs(cosi) < TANGENT_COS_EPS


# ---------------------------------------------------------------------------
# Batched body kernel
# ---------------------------------------------------------------------------
# Rows of O and U are ray origins and unit directions. The row products go
# through stacked matmul, which calls per row the same BLAS dot and
# matrix-vector routines as the 1-D `@` of the single-ray path, so every row
# reproduces the single ray's numbers bit for bit. Inputs must be C-contiguous
# (unit stride along the last axis), as the BLAS routine depends on the stride.

def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner product of each row of a with the same row of b."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _hypots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """math.hypot of each pair (x, y), as the planar kernel computes it;
    np.hypot differs from it in the last bit for some inputs."""
    return np.fromiter(map(math.hypot, x.tolist(), y.tolist()), float, len(x))


def _matvecs(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """m @ w for each row w."""
    return np.matmul(m, w[:, :, None])[:, :, 0]


def _first_hits(scene: Scene, O: np.ndarray, U: np.ndarray):
    """Nearest hit of every ray after t = 0 over the bodies and the planar
    curve arcs, by the rules of scene_first_hit: Newton-polished body roots
    as in _nearest_body_hit, arcs as in _first_hit_2d (no polish, normals
    flipped against the ray). Ties go to the lowest body id, then to bodies
    over arcs, then to the earlier arc.

    Returns (t, ids, arcs, grazing, points, normals) with one entry per row;
    arcs holds the arc index within its curve, -1 for a body. A ray that
    hits nothing has t = inf, id and arc -1, grazing False and NaN point and
    normal. Raises RayIntersectError when a root polish fails.
    """
    n_rays = O.shape[0]
    best_t = np.full(n_rays, np.inf)
    ids = np.full(n_rays, -1)
    arcs = np.full(n_rays, -1)
    band = np.zeros(n_rays, dtype=bool)
    for i, body in enumerate(scene.bodies):
        t, body_band = _body_roots(body, O, U)
        # Strictly closer only, so ties stay with the lower id.
        closer = t < best_t
        best_t[closer] = t[closer]
        ids[closer] = i
        band[closer] = body_band[closer]
    # Strictly closer only, so ties stay with bodies and then earlier arcs.
    entries = scene._k2[2] if scene.curves else ()
    entry_of = np.full(n_rays, -1)
    for k, entry in enumerate(entries):
        t, arc_band = _arc_roots(entry, O, U)
        closer = t < best_t
        best_t[closer] = t[closer]
        ids[closer] = entry[0]
        arcs[closer] = entry[1]
        band[closer] = arc_band[closer]
        entry_of[closer] = k
    points = np.full(O.shape, np.nan)
    normals = np.full(O.shape, np.nan)
    grazing = np.zeros(n_rays, dtype=bool)
    for i, body in enumerate(scene.bodies):
        rows = np.flatnonzero(ids == i)
        if not rows.size:
            continue
        v = U[rows]
        p = O[rows] + best_t[rows, None] * v
        grad = 2.0 * _matvecs(body._M, p - body._c)
        n = grad / np.sqrt(_rowdot(grad, grad))[:, None]
        points[rows] = p
        normals[rows] = n
        grazing[rows] = band[rows] | (np.abs(_rowdot(v, n)) < TANGENT_COS_EPS)
    for k, entry in enumerate(entries):
        rows = np.flatnonzero(entry_of == k)
        if not rows.size:
            continue
        v = U[rows]
        p = O[rows] + best_t[rows, None] * v
        n, cosi = _arc_normals(entry, p, v)
        points[rows] = p
        normals[rows] = n
        grazing[rows] = band[rows] | (np.abs(cosi) < TANGENT_COS_EPS)
    return best_t, ids, arcs, grazing, points, normals


def _body_roots(body: ConvexBody, O: np.ndarray, U: np.ndarray):
    """_body_root of every ray at t_min = 0: (t, band) per row, t = inf where
    the ray has no crossing after 0."""
    w = O - body._c
    mv = _matvecs(body._M, U)
    al = _rowdot(U, mv)
    b = _rowdot(w, mv)
    g = _rowdot(w, _matvecs(body._M, w)) - 1.0
    disc = b * b - al * g
    t = np.full(O.shape[0], np.inf)
    band = np.abs(disc) <= DISCRIMINANT_EPS
    t_band = -b[band] / al[band]
    t[band] = np.where(t_band > 0.0, t_band, np.inf)
    two = np.flatnonzero(disc > DISCRIMINANT_EPS)
    if two.size:
        b, al, g = b[two], al[two], g[two]
        s = np.sqrt(disc[two])
        q = -(b + np.copysign(s, b))
        r1, r2 = q / al, g / q
        lo, hi = np.minimum(r1, r2), np.maximum(r1, r2)
        o, v = O[two], U[two]
        # Polish the first root beyond 0; where there is none, or polishing
        # pulls it back to 0 or behind, polish the second one.
        t_two = np.full(two.size, np.inf)
        rows = np.flatnonzero(lo > 0.0)
        t_two[rows] = _polish_roots(body, o[rows], v[rows], lo[rows])
        t_two[t_two <= 0.0] = np.inf
        rows = np.flatnonzero(np.isinf(t_two) & (hi > 0.0))
        t_hi = _polish_roots(body, o[rows], v[rows], hi[rows])
        t_two[rows] = np.where(t_hi > 0.0, t_hi, np.inf)
        t[two] = t_two
    return t, band


def _polish_roots(body: ConvexBody, O: np.ndarray, U: np.ndarray,
                  t: np.ndarray) -> np.ndarray:
    """_polish_root of every row; raises RayIntersectError for the first ray
    whose polish fails."""
    t = t.copy()
    rows = np.arange(t.size)
    for _ in range(_NEWTON_CAP):
        if not rows.size:
            return t
        v = U[rows]
        w = O[rows] + t[rows, None] * v - body._c
        mw = _matvecs(body._M, w)
        f = _rowdot(w, mw) - 1.0
        fp = _rowdot(2.0 * mw, v)
        move = np.abs(f) > ROOT_TOL
        stuck = np.flatnonzero(move & (fp == 0.0))
        if stuck.size:
            k = rows[stuck[0]]
            raise RayIntersectError(_POLISH_FAILED, O[k], U[k])
        t[rows[move]] -= f[move] / fp[move]
        rows = rows[move]
    if rows.size:
        w = O[rows] + t[rows, None] * U[rows] - body._c
        bad = np.flatnonzero(np.abs(_rowdot(w, _matvecs(body._M, w)) - 1.0) > ROOT_TOL)
        if bad.size:
            k = rows[bad[0]]
            raise RayIntersectError(_POLISH_FAILED, O[k], U[k])
    return t


# ---------------------------------------------------------------------------
# Curve obstacles (d = 2 demo geometry)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EllipticArc:
    """Axis-aligned elliptic arc p(s) = center + (a cos s, b sin s), s in angles."""

    center: tuple
    semiaxes: tuple
    angles: tuple
    tags: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "center", _as_tuple(self.center))
        object.__setattr__(self, "semiaxes", _as_tuple(self.semiaxes))
        object.__setattr__(self, "angles", (float(self.angles[0]), float(self.angles[1])))
        object.__setattr__(self, "tags", frozenset(self.tags))
        if len(self.center) != 2 or len(self.semiaxes) != 2:
            raise ValueError("elliptic arcs are planar")
        if min(self.semiaxes) <= 0.0:
            raise ValueError("arc semiaxes must be positive")
        if abs(self.angles[1] - self.angles[0]) > 2.0 * math.pi + 1e-12:
            raise ValueError("arc angular span exceeds a full turn")

    def point(self, s: float) -> tuple:
        cx, cy = self.center
        sa, sb = self.semiaxes
        return (cx + sa * math.cos(s), cy + sb * math.sin(s))

    @property
    def start(self) -> tuple:
        return self.point(self.angles[0])

    @property
    def end(self) -> tuple:
        return self.point(self.angles[1])

    def sample(self, n: int) -> np.ndarray:
        s = np.linspace(self.angles[0], self.angles[1], n)
        cx, cy = self.center
        sa, sb = self.semiaxes
        return np.column_stack([cx + sa * np.cos(s), cy + sb * np.sin(s)])


@dataclass(frozen=True)
class SegmentArc:
    """Straight piece between two endpoints."""

    start: tuple
    end: tuple
    tags: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "start", _as_tuple(self.start))
        object.__setattr__(self, "end", _as_tuple(self.end))
        object.__setattr__(self, "tags", frozenset(self.tags))
        if len(self.start) != 2 or len(self.end) != 2:
            raise ValueError("segments are planar")
        if math.dist(self.start, self.end) == 0.0:
            raise ValueError("degenerate segment")

    def sample(self, n: int) -> np.ndarray:
        u = np.linspace(0.0, 1.0, n)[:, None]
        a = np.asarray(self.start)
        b = np.asarray(self.end)
        return a + u * (b - a)


@dataclass(frozen=True)
class CurveObstacle:
    """Connected chain of planar arcs; valid only in d = 2.

    Carries ``non_convex = True``: scenes containing curves are excluded from
    rigidity claims and exist for demonstrations only.
    """

    arcs: tuple

    non_convex = True

    def __post_init__(self):
        arcs = tuple(self.arcs)
        if not arcs:
            raise ValueError("curve obstacle needs at least one arc")
        object.__setattr__(self, "arcs", arcs)
        for prev, nxt in zip(arcs, arcs[1:]):
            if math.dist(prev.end, nxt.start) > _CHAIN_TOL:
                raise ValueError("consecutive arcs must share endpoints to within 1e-9")

    def sample(self, n_per_arc: int = 256) -> np.ndarray:
        return np.vstack([a.sample(n_per_arc) for a in self.arcs])

    def tags(self) -> frozenset:
        out = set()
        for a in self.arcs:
            out |= a.tags
        return frozenset(out)


# ---------------------------------------------------------------------------
# Scene
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scene:
    """Obstacle union plus the reference ball (center, radius).

    Bodies take obstacle ids 0..len(bodies)-1 and curves continue the count.
    The exterior of the union, inside and outside the reference sphere, is
    the billiard domain.
    """

    dimension: int
    bodies: tuple = ()
    curves: tuple = ()
    ball_center: tuple = None
    ball_radius: float = 10.0

    def __post_init__(self):
        d = int(self.dimension)
        if d < 2:
            raise ValueError("ambient dimension must be at least 2")
        center = self.ball_center
        if center is None:
            center = (0.0,) * d
        center = _as_tuple(center)
        if len(center) != d:
            raise ValueError("ball center dimension mismatch")
        if not all(map(math.isfinite, center + (float(self.ball_radius),))):
            raise ValueError("ball center and radius must be finite")
        if float(self.ball_radius) <= 0.0:
            raise ValueError("ball radius must be positive")
        bodies = tuple(self.bodies)
        curves = tuple(self.curves)
        for body in bodies:
            if body.dimension != d:
                raise ValueError("body dimension mismatch")
            numbers = body.center + body.semiaxes + sum(body.rotation, ())
            if not all(map(math.isfinite, numbers)):
                raise ValueError("body center, semiaxes and rotation must be finite")
        if curves and d != 2:
            raise ValueError("curve obstacles are only valid in d = 2")
        for curve in curves:
            # Endpoints are computed from every arc number, so a non-finite
            # centre, semiaxis or angle shows up in them.
            if not all(math.isfinite(v) for arc in curve.arcs for v in arc.start + arc.end):
                raise ValueError("curve arcs must be finite")
        object.__setattr__(self, "dimension", d)
        object.__setattr__(self, "bodies", bodies)
        object.__setattr__(self, "curves", curves)
        object.__setattr__(self, "ball_center", center)
        object.__setattr__(self, "ball_radius", float(self.ball_radius))
        object.__setattr__(self, "_k2", _compile_2d(self) if d == 2 else None)

    @property
    def digest(self) -> str:
        """SHA-256 of the metadata-free scene document, for table provenance;
        the document round-trips every float bit-exactly."""
        from .scenefile import serialize_scene  # scenefile imports this module

        return hashlib.sha256(serialize_scene(self).encode()).hexdigest()


# Compiled scalar tables for the planar hot path. Entries:
#   balls:    (obstacle_id, cx, cy, r, r2)
#   ells:     (obstacle_id, cx, cy, m00, m01, m11)
#   arcs:     (obstacle_id, arc_index, kind, payload...)
def _compile_2d(scene: Scene):
    balls, ells, arcs = [], [], []
    for i, b in enumerate(scene.bodies):
        cx, cy = b.center
        if b.is_ball:
            balls.append((i, cx, cy, b._r, b._r * b._r))
        else:
            m = b._M
            ells.append((i, cx, cy, float(m[0, 0]), float(m[0, 1]), float(m[1, 1])))
    nb = len(scene.bodies)
    for ci, curve in enumerate(scene.curves):
        for ai, arc in enumerate(curve.arcs):
            if isinstance(arc, EllipticArc):
                lo, hi = sorted(arc.angles)
                arcs.append((nb + ci, ai, "e", arc.center[0], arc.center[1],
                             arc.semiaxes[0], arc.semiaxes[1], lo, hi - lo))
            else:
                x1, y1 = arc.start
                x2, y2 = arc.end
                dx, dy = x2 - x1, y2 - y1
                ln = math.hypot(dx, dy)
                arcs.append((nb + ci, ai, "s", x1, y1, dx / ln, dy / ln, ln))
    return (tuple(balls), tuple(ells), tuple(arcs))


_TWO_PI = 2.0 * math.pi


def _arc_angle_ok(s: float, lo: float, span: float) -> bool:
    r = (s - lo) % _TWO_PI
    return r <= span + 1e-12 or r >= _TWO_PI - 1e-12


def _arc_roots(entry, O: np.ndarray, U: np.ndarray):
    """The crossing of every planar ray with one arc entry of _compile_2d,
    by the rules of _first_hit_2d applied elementwise: (t, band) per row,
    t = inf where the ray does not cross the arc after t = 0, band marking a
    root from the double-root snap band."""
    ox, oy, ux, uy = O[:, 0], O[:, 1], U[:, 0], U[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        if entry[2] == "s":
            _, _, _, x1, y1, ex, ey, ln = entry
            det = ux * ey - uy * ex
            rx = x1 - ox
            ry = y1 - oy
            t = (rx * ey - ry * ex) / det
            u = (rx * uy - ry * ux) / det
            ok = ((np.abs(det) >= 1e-15) & (t > 0.0)
                  & (-1e-12 * ln <= u) & (u <= ln * (1.0 + 1e-12)))
            return np.where(ok, t, np.inf), np.zeros(len(t), dtype=bool)
        _, _, _, cx, cy, sa, sb, lo, span = entry
        wx = (ox - cx) / sa
        wy = (oy - cy) / sb
        vx = ux / sa
        vy = uy / sb
        al = vx * vx + vy * vy
        b = wx * vx + wy * vy
        g = wx * wx + wy * wy - 1.0
        disc = b * b - al * g
        band = np.abs(disc) <= DISCRIMINANT_EPS
        two = disc > DISCRIMINANT_EPS
        s = np.sqrt(np.where(two, disc, 0.0))
        near = np.where(band, -b / al, np.where(two, (-b - s) / al, np.nan))
        far = np.where(two, (-b + s) / al, np.nan)

        def on_arc(t):
            ang = np.arctan2((oy + t * uy - cy) / sb, (ox + t * ux - cx) / sa)
            r = (ang - lo) % _TWO_PI
            return (t > 0.0) & ((r <= span + 1e-12) | (r >= _TWO_PI - 1e-12))

        # The nearer root counts when it lies on the arc, else the farther.
        near_ok = on_arc(near)
        t = np.where(near_ok, near, np.where(on_arc(far), far, np.inf))
    return t, band & near_ok


def _arc_normals(entry, P: np.ndarray, U: np.ndarray):
    """Unit normals of one arc entry of _compile_2d at the rows of P,
    flipped against the directions U, and the incidence cosines, as in
    _first_hit_2d."""
    if entry[2] == "s":
        ex, ey = entry[5:7]
        n = np.tile((-ey, ex), (len(P), 1))
    else:
        cx, cy, sa, sb = entry[3:7]
        gx = (P[:, 0] - cx) / (sa * sa)
        gy = (P[:, 1] - cy) / (sb * sb)
        nn = _hypots(gx, gy)
        n = np.column_stack([gx / nn, gy / nn])
    ux, uy = U[:, 0], U[:, 1]
    n[ux * n[:, 0] + uy * n[:, 1] > 0.0] *= -1.0
    return n, ux * n[:, 0] + uy * n[:, 1]


def _first_hit_2d(k, ox: float, oy: float, ux: float, uy: float):
    """Closest obstacle hit for a planar ray; ties go to the lowest id.

    Returns (obstacle_id, arc_index, t, px, py, nx, ny, cos_incidence,
    grazing) or None. Normals for curve arcs are flipped against the ray.
    """
    balls, ells, arcs = k
    best_t = math.inf
    best = None
    for (oid, cx, cy, r, r2) in balls:
        wx = ox - cx
        wy = oy - cy
        b = wx * ux + wy * uy
        g = wx * wx + wy * wy - r2
        disc = b * b - g
        if disc < -DISCRIMINANT_EPS:
            continue
        if disc <= DISCRIMINANT_EPS:
            t = -b
            if 0.0 < t < best_t:
                best_t = t
                best = ("b", oid, -1, t, True, cx, cy, r)
            continue
        s = math.sqrt(disc)
        t = -b - s
        if t <= 0.0:
            t = -b + s
            if t <= 0.0:
                continue
        if t < best_t:
            best_t = t
            best = ("b", oid, -1, t, False, cx, cy, r)
    for (oid, cx, cy, m00, m01, m11) in ells:
        wx = ox - cx
        wy = oy - cy
        mvx = m00 * ux + m01 * uy
        mvy = m01 * ux + m11 * uy
        al = ux * mvx + uy * mvy
        b = wx * mvx + wy * mvy
        g = wx * (m00 * wx + m01 * wy) + wy * (m01 * wx + m11 * wy) - 1.0
        disc = b * b - al * g
        if disc < -DISCRIMINANT_EPS:
            continue
        if disc <= DISCRIMINANT_EPS:
            t = -b / al
            if 0.0 < t < best_t:
                best_t = t
                best = ("e", oid, -1, t, True, cx, cy, m00, m01, m11)
            continue
        s = math.sqrt(disc)
        t = (-b - s) / al
        if t <= 0.0:
            t = (-b + s) / al
            if t <= 0.0:
                continue
        if t < best_t:
            best_t = t
            best = ("e", oid, -1, t, False, cx, cy, m00, m01, m11)
    for entry in arcs:
        if entry[2] == "e":
            oid, ai, _, cx, cy, sa, sb, lo, span = entry
            wx = (ox - cx) / sa
            wy = (oy - cy) / sb
            vx = ux / sa
            vy = uy / sb
            al = vx * vx + vy * vy
            b = wx * vx + wy * vy
            g = wx * wx + wy * wy - 1.0
            disc = b * b - al * g
            if disc < -DISCRIMINANT_EPS:
                continue
            if disc <= DISCRIMINANT_EPS:
                roots = ((-b / al, True),)
            else:
                s = math.sqrt(disc)
                roots = (((-b - s) / al, False), ((-b + s) / al, False))
            for t, gr in roots:
                if t <= 0.0 or t >= best_t:
                    continue
                px = ox + t * ux
                py = oy + t * uy
                ang = math.atan2((py - cy) / sb, (px - cx) / sa)
                if _arc_angle_ok(ang, lo, span):
                    best_t = t
                    best = ("a", oid, ai, t, gr, cx, cy, sa, sb)
                    break
        else:
            oid, ai, _, x1, y1, ex, ey, ln = entry
            det = ux * ey - uy * ex
            if abs(det) < 1e-15:
                continue
            rx = x1 - ox
            ry = y1 - oy
            t = (rx * ey - ry * ex) / det
            u = (rx * uy - ry * ux) / det
            if t <= 0.0 or t >= best_t:
                continue
            if -1e-12 * ln <= u <= ln * (1.0 + 1e-12):
                best_t = t
                best = ("s", oid, ai, t, False, ex, ey)
    if best is None:
        return None
    t = best[3]
    px = ox + t * ux
    py = oy + t * uy
    kind = best[0]
    if kind == "b":
        _, oid, ai, _, gr, cx, cy, r = best
        nx = (px - cx) / r
        ny = (py - cy) / r
        nn = math.hypot(nx, ny)
        nx /= nn
        ny /= nn
    elif kind == "e":
        _, oid, ai, _, gr, cx, cy, m00, m01, m11 = best
        wx = px - cx
        wy = py - cy
        nx = m00 * wx + m01 * wy
        ny = m01 * wx + m11 * wy
        nn = math.hypot(nx, ny)
        nx /= nn
        ny /= nn
    elif kind == "a":
        _, oid, ai, _, gr, cx, cy, sa, sb = best
        nx = (px - cx) / (sa * sa)
        ny = (py - cy) / (sb * sb)
        nn = math.hypot(nx, ny)
        nx /= nn
        ny /= nn
        if ux * nx + uy * ny > 0.0:
            nx = -nx
            ny = -ny
    else:
        _, oid, ai, _, gr, ex, ey = best
        nx = -ey
        ny = ex
        if ux * nx + uy * ny > 0.0:
            nx = -nx
            ny = -ny
    cosi = ux * nx + uy * ny
    grazing = gr or abs(cosi) < TANGENT_COS_EPS
    return (oid, ai if ai >= 0 else None, t, px, py, nx, ny, cosi, grazing)


def scene_first_hit(scene: Scene, origin, direction) -> Optional[tuple[int, Hit]]:
    """Closest hit of the ray over all bodies and curve arcs as
    (obstacle_id, Hit), or None.

    Ties between obstacles are broken toward the lowest obstacle id. Curve
    normals face against the ray. Raises ValueError unless the direction is
    a unit vector (to UNIT_TOL = 1e-12), in every dimension.
    """
    o = np.asarray(origin, dtype=float)
    v = np.asarray(direction, dtype=float)
    _check_unit(v)
    if scene.dimension == 2:
        raw = _first_hit_2d(scene._k2, float(o[0]), float(o[1]), float(v[0]), float(v[1]))
        if raw is None:
            return None
        oid, arc, t, px, py, nx, ny, cosi, gr = raw
        return oid, Hit(t, (px, py), (nx, ny), cosi, gr, arc)
    hit = _nearest_body_hit(scene, o, v)
    if hit is None:
        return None
    oid, t, p, n, cosi, grazing = hit
    return oid, Hit(float(t), _as_tuple(p), _as_tuple(n), cosi, grazing, None)


# ---------------------------------------------------------------------------
# Scene validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    kind: str
    subjects: tuple
    detail: str

    def __str__(self):
        return f"{self.kind}{list(self.subjects)}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "OK"
        return "\n".join(str(v) for v in self.violations)


_DISJOINT_TOL = 1e-6
_CONTAIN_TOL = 1e-6
_PAIR_SAMPLES = 720
_SEPARATION_STEPS = 40
_STEP_HALVINGS = 60


def _support_terms(dc: np.ndarray, la: np.ndarray, lb: np.ndarray, n: np.ndarray):
    """Support-function separation g(n) = <dc, n> - |L_a n| - |L_b n| of two
    bodies with shape matrices L = D R^T whose centers differ by dc, and the
    pieces of its gradient.

    |L n| = sqrt(n'R D^2 R^T n) is a body's support function about its
    center; the gradient w = x_b - x_a is the difference of the support point
    x_b of body b in direction -n and x_a of body a in direction n.
    """
    ua, ub = la @ n, lb @ n
    sa, sb = np.sqrt(ua @ ua), np.sqrt(ub @ ub)
    an, bn = la.T @ ua, lb.T @ ub
    return float(dc @ n - sa - sb), dc - an / sa - bn / sb, an, bn, sa, sb


def _support_separation(a: ConvexBody, b: ConvexBody):
    """Separating direction n of two bodies with bounds lower <= gap <= upper.

    Maximises the concave, positively homogeneous separation g over unit n,
    starting from the best direction of a lattice, by Riemannian Newton steps
    with backtracking. lower = g(n); when lower > 0, upper = |x_b - x_a| of
    the two support points, which lie on the boundaries, and at the maximum
    both equal the distance between the bodies (Boyd & Vandenberghe, Convex
    Optimization, 2004, section 8.2). Overlapping or nested bodies give
    lower <= 0, minus the penetration depth reached from the lattice start.
    """
    la = np.asarray(a.semiaxes)[:, None] * np.asarray(a.rotation).T
    lb = np.asarray(b.semiaxes)[:, None] * np.asarray(b.rotation).T
    dc = b._c - a._c
    d = dc.size
    starts = _unit_directions(d, _PAIR_SAMPLES)
    gs = (starts @ dc - np.linalg.norm(starts @ la.T, axis=1)
          - np.linalg.norm(starts @ lb.T, axis=1))
    n = starts[int(np.argmax(gs))]
    g, w, an, bn, sa, sb = _support_terms(dc, la, lb, n)
    for _ in range(_SEPARATION_STEPS):
        grad = w - g * n
        # Rounding bound on g and on its gradient.
        tol = 32.0 * np.finfo(float).eps * (np.sqrt(dc @ dc) + np.sqrt(an @ an) / sa
                                            + np.sqrt(bn @ bn) / sb)
        if not math.sqrt(grad @ grad) > tol:
            break
        # The Euclidean Hessian is negative semidefinite with n in its kernel;
        # the sphere adds -g on the tangent space, and nn' pins the step to it.
        # Near the ends of the accepted semiaxis range its terms overflow to
        # inf; the solve and the backtracking below still give a step.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            hess = ((np.outer(an, an) / sa**2 - la.T @ la) / sa
                    + (np.outer(bn, bn) / sb**2 - lb.T @ lb) / sb)
        nn = np.outer(n, n)
        tangent = np.eye(d) - nn
        try:
            step = np.linalg.solve(hess - g * tangent + nn, -grad)
            if grad @ step <= 0.0:
                step = np.linalg.solve(hess - abs(g) * tangent + nn, -grad)
        except np.linalg.LinAlgError:
            break
        for _ in range(_STEP_HALVINGS):
            m = n + step
            m /= math.sqrt(m @ m)
            trial = _support_terms(dc, la, lb, m)
            if trial[0] >= g - tol:
                break
            step *= 0.5
        else:
            break
        n = m
        g, w, an, bn, sa, sb = trial
    return n, g, math.sqrt(w @ w)


def body_pair_distance(a: ConvexBody, b: ConvexBody) -> float:
    """Certified signed separation of two bodies, in every dimension.

    For disjoint bodies this is their distance, as a lower bound that the
    distance between two boundary points matches to rounding. For
    overlapping or nested bodies it is negative: minus the penetration depth,
    the length of the shortest translation that separates them (for balls,
    |c_a - c_b| - r_a - r_b either way). The value is g at one direction, so
    it never exceeds the true separation; a negative one is the maximum that
    Newton ascent reaches from the best lattice direction.
    """
    return _support_separation(a, b)[1]


def _body_reach(body: ConvexBody, p: np.ndarray) -> float:
    """Largest distance from p to a point of the body.

    In the body frame, with q = R^T (p - c), the farthest point is
    x_i = q_i s_i^2 / (s_i^2 - mu), where mu > max s_i^2 solves the secular
    equation sum s_i^2 q_i^2 / (s_i^2 - mu)^2 = 1, found by bisection on
    t = mu - max s_i^2. When q has no component on the longest axes and the
    other axes leave room at t = 0, the farthest point sits at t = 0 and takes
    the rest of the unit constraint on one longest axis (Eberly, "Distance
    from a point to an ellipse, an ellipsoid, or a hyperellipsoid", Geometric
    Tools, 2013).
    """
    s2 = np.asarray(body.semiaxes) ** 2
    q = np.asarray(body.rotation).T @ (p - body._c)
    gap = s2.max() - s2
    terms = [(float(wi), float(gi)) for wi, gi in zip(s2 * q * q, gap) if wi > 0.0]
    if all(gi > 0.0 for _, gi in terms) and sum(wi / (gi * gi) for wi, gi in terms) <= 1.0:
        x = np.where(gap > 0.0, -q * s2 / np.where(gap > 0.0, gap, 1.0), 0.0)
        k = int(np.argmax(s2))
        x[k] = math.sqrt(s2[k] * max(0.0, 1.0 - float(np.sum(x * x / s2))))
    else:
        # The root lies below s_max |q|; halving a double interval reaches
        # adjacent floats within about 2,100 steps.
        lo, hi = 0.0, math.sqrt(s2.max() * float(q @ q))
        for _ in range(2200):
            t = 0.5 * (lo + hi)
            if not lo < t < hi:
                break
            if sum(wi / ((t + gi) * (t + gi)) for wi, gi in terms) > 1.0:
                lo = t
            else:
                hi = t
        x = -q * s2 / (hi + gap)
    return float(np.linalg.norm(x - q))


def validate_scene(scene: Scene) -> ValidationReport:
    """Check disjointness and containment in the reference ball.

    Bodies are strictly convex by construction (ConvexBody refuses semiaxes
    whose 1/s^2 is not finite and positive), so convexity needs no check
    here. The disjointness and containment checks of bodies are exact, not
    sampled: each pair's signed separation comes from its support functions
    (``body_pair_distance``), so nested bodies are refused too, and each
    body's reach from the ball center from its farthest point. Curves are
    checked for containment on boundary samples. Violations are data, not
    errors; an empty report marks an admissible scene.
    """
    out = []
    center = np.asarray(scene.ball_center)
    a = scene.ball_radius
    for i, body in enumerate(scene.bodies):
        reach = _body_reach(body, center)
        if not reach < a - _CONTAIN_TOL:
            out.append(Violation("containment", (i,),
                                 f"body reaches {reach:.6g} of ball radius {a:.6g}"))
    for i in range(len(scene.bodies)):
        for j in range(i + 1, len(scene.bodies)):
            gap = body_pair_distance(scene.bodies[i], scene.bodies[j])
            if not gap > _DISJOINT_TOL:
                out.append(Violation("disjointness", (i, j), f"boundary gap {gap:.6g}"))
    nb = len(scene.bodies)
    for ci, curve in enumerate(scene.curves):
        pts = curve.sample(_PAIR_SAMPLES // max(1, len(curve.arcs)))
        reach = float(np.max(np.linalg.norm(pts - center, axis=1)))
        if reach >= a - _CONTAIN_TOL:
            out.append(Violation("containment", (nb + ci,),
                                 f"curve reaches {reach:.6g} of ball radius {a:.6g}"))
    return ValidationReport(tuple(out))
