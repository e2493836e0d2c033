"""Obstacle geometry: strictly convex implicit bodies, planar demo curves,
scenes, and ray intersection with tangency classification.

Bodies are balls and (optionally rotated) ellipsoids carried by the implicit
function phi(x) = |D^-1 R^T (x - c)|^2 - 1, negative inside, zero on the
boundary, positive outside. Ray intersection reduces to a quadratic in the
ray parameter; roots are taken in closed form and polished with Newton steps
so |phi| at a reported hit stays below ROOT_TOL.

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

_ROT_TOL = 1e-12
_CHAIN_TOL = 1e-9


class RayIntersectError(RuntimeError):
    """Root polishing did not converge; carries the offending ray."""

    def __init__(self, message: str, origin, direction):
        super().__init__(message)
        self.origin = tuple(float(v) for v in origin)
        self.direction = tuple(float(v) for v in direction)


def _as_tuple(x) -> tuple:
    return tuple(float(v) for v in np.asarray(x, dtype=float).ravel())


def rotation_2d(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# Bodies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvexBody:
    """One strictly convex component: a ball or a rotated ellipsoid.

    ``semiaxes`` holds d positive lengths; ``rotation`` is an orthonormal
    d x d matrix stored row-major (identity for balls). The induced implicit
    function has constant Hessian 2 R D^-2 R^T, positive definite for any
    positive semiaxes.
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
        rot = np.asarray(self.rotation, dtype=float).reshape(d, d)
        if np.max(np.abs(rot.T @ rot - np.eye(d))) > _ROT_TOL:
            raise ValueError("rotation must be orthonormal to within 1e-12")
        if self.kind == "ball" and np.ptp(s) != 0.0:
            raise ValueError("a ball needs equal semiaxes")
        object.__setattr__(self, "center", _as_tuple(c))
        object.__setattr__(self, "semiaxes", _as_tuple(s))
        object.__setattr__(self, "rotation", tuple(map(tuple, rot.tolist())))
        # Quadratic-form matrix of phi: M = R D^-2 R^T.
        m = rot @ np.diag(1.0 / s**2) @ rot.T
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
    d = body.dimension
    rot = np.asarray(body.rotation)
    diag = np.asarray(body.semiaxes)
    if d == 2:
        ang = 2.0 * math.pi * np.arange(n) / n
        u = np.column_stack([np.cos(ang), np.sin(ang)])
    elif d == 3:
        u = fibonacci_sphere(n)
    else:
        rng = np.random.default_rng(1234)
        u = rng.normal(size=(n, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
    return body._c + (u * diag) @ rot.T


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
    incidence cosine is below the tangency threshold.
    """
    o = np.asarray(origin, dtype=float)
    v = np.asarray(direction, dtype=float)
    if abs(float(np.linalg.norm(v)) - 1.0) > 1e-9:
        raise ValueError("direction must be a unit vector")
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
        if t <= t_min:
            return None
        return _materialize_hit(body, o, v, t, force_grazing=True)
    s = math.sqrt(disc)
    q = -(b + math.copysign(s, b))
    roots = sorted((q / al, g / q) if q != 0.0 else ((-b - s) / al, (-b + s) / al))
    for t in roots:
        if t > t_min:
            t = _polish_root(body, o, v, t)
            if t > t_min:
                return _materialize_hit(body, o, v, t, force_grazing=False)
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
        raise RayIntersectError("ray-body root polish failed near a degenerate tangency", o, v)
    return t


def _materialize_hit(body: ConvexBody, o: np.ndarray, v: np.ndarray, t: float,
                     force_grazing: bool) -> Hit:
    p = o + t * v
    _, grad = evaluate_body(body, p)
    n = grad / float(np.linalg.norm(grad))
    cosi = float(v @ n)
    grazing = force_grazing or abs(cosi) < TANGENT_COS_EPS
    return Hit(float(t), _as_tuple(p), _as_tuple(n), cosi, grazing, None)


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
        """Hash of the geometric content (metadata-free), for table provenance."""
        parts = [f"d={self.dimension}", _fmt_floats(self.ball_center),
                 f"{self.ball_radius:.17g}"]
        for b in self.bodies:
            parts.append("|".join([b.kind, _fmt_floats(b.center), _fmt_floats(b.semiaxes),
                                   _fmt_floats(np.asarray(b.rotation).ravel())]))
        for c in self.curves:
            for a in c.arcs:
                if isinstance(a, EllipticArc):
                    parts.append("|".join(["e", _fmt_floats(a.center), _fmt_floats(a.semiaxes),
                                           _fmt_floats(a.angles), ",".join(sorted(a.tags))]))
                else:
                    parts.append("|".join(["s", _fmt_floats(a.start), _fmt_floats(a.end),
                                           ",".join(sorted(a.tags))]))
        return hashlib.sha256(";".join(parts).encode()).hexdigest()


def _fmt_floats(xs) -> str:
    return ",".join(f"{float(x):.17g}" for x in np.asarray(xs, dtype=float).ravel())


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


def _first_hit_2d(k, ox: float, oy: float, ux: float, uy: float, t_min: float):
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
            if t_min < t < best_t:
                best_t = t
                best = ("b", oid, -1, t, True, cx, cy, r)
            continue
        s = math.sqrt(disc)
        t = -b - s
        if t <= t_min:
            t = -b + s
            if t <= t_min:
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
            if t_min < t < best_t:
                best_t = t
                best = ("e", oid, -1, t, True, cx, cy, m00, m01, m11)
            continue
        s = math.sqrt(disc)
        t = (-b - s) / al
        if t <= t_min:
            t = (-b + s) / al
            if t <= t_min:
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
                if t <= t_min or t >= best_t:
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
            if t <= t_min or t >= best_t:
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


def scene_first_hit(scene: Scene, origin, direction,
                    t_min: float = 0.0) -> Optional[tuple[int, Hit]]:
    """Closest hit over all bodies and curve arcs, or None.

    Ties between obstacles are broken toward the lowest obstacle id.
    """
    if scene.dimension == 2:
        o = np.asarray(origin, dtype=float)
        v = np.asarray(direction, dtype=float)
        raw = _first_hit_2d(scene._k2, float(o[0]), float(o[1]),
                            float(v[0]), float(v[1]), t_min)
        if raw is None:
            return None
        oid, arc, t, px, py, nx, ny, cosi, gr = raw
        return oid, Hit(t, (px, py), (nx, ny), cosi, gr, arc)
    best = None
    for i, body in enumerate(scene.bodies):
        h = ray_intersect(body, origin, direction, t_min)
        if h is not None and (best is None or h.t < best[1].t):
            best = (i, h)
    return best


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
_HESSIAN_SAMPLES = 100


def body_pair_distance(a: ConvexBody, b: ConvexBody,
                       n_samples: int = _PAIR_SAMPLES) -> float:
    """Minimum boundary-to-boundary distance, sampled plus local refinement.

    Exact for ball pairs; for ellipsoids this is a validation-grade estimate,
    not a certified bound.
    """
    if a.is_ball and b.is_ball:
        gap = math.dist(a.center, b.center) - a._r - b._r
        return float(gap)
    pa = boundary_samples(a, n_samples)
    pb = boundary_samples(b, n_samples)
    from scipy.spatial.distance import cdist

    dm = cdist(pa, pb)
    ia, ib = np.unravel_index(np.argmin(dm), dm.shape)
    d = a.dimension
    if d > 3:
        return float(dm[ia, ib])
    from scipy.optimize import minimize

    def param_point(body, u):
        if d == 2:
            s = np.array([math.cos(u[0]), math.sin(u[0])])
        else:
            s = np.array([math.sin(u[0]) * math.cos(u[1]),
                          math.sin(u[0]) * math.sin(u[1]),
                          math.cos(u[0])])
        return body._c + np.asarray(body.rotation) @ (np.asarray(body.semiaxes) * s)

    def seed_angles(body, p):
        w = np.asarray(body.rotation).T @ (p - body._c) / np.asarray(body.semiaxes)
        if d == 2:
            return [math.atan2(w[1], w[0])]
        return [math.acos(np.clip(w[2] / np.linalg.norm(w), -1, 1)),
                math.atan2(w[1], w[0])]

    u0 = np.array(seed_angles(a, pa[ia]) + seed_angles(b, pb[ib]))
    k = len(u0) // 2
    res = minimize(lambda u: float(np.linalg.norm(param_point(a, u[:k]) - param_point(b, u[k:]))),
                   u0, method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 400})
    return float(min(res.fun, dm[ia, ib]))


def validate_scene(scene: Scene) -> ValidationReport:
    """Check disjointness, containment in the reference ball, and convexity.

    Violations are data, not errors; an empty report marks an admissible
    scene.
    """
    out = []
    center = np.asarray(scene.ball_center)
    a = scene.ball_radius
    for i, body in enumerate(scene.bodies):
        # Constant Hessian 2 R D^-2 R^T for this family; the spot-check
        # evaluates it once and records boundary residuals at samples.
        eig = np.linalg.eigvalsh(2.0 * body._M)
        if eig.min() <= 0.0:
            out.append(Violation("convexity", (i,), "implicit Hessian is not positive definite"))
        pts = boundary_samples(body, _HESSIAN_SAMPLES)
        worst = max(abs(evaluate_body(body, p)[0]) for p in pts)
        if worst > 1e-9:
            out.append(Violation("convexity", (i,), f"boundary residual {worst:.3g}"))
        if body.is_ball:
            reach = math.dist(body.center, scene.ball_center) + body._r
        else:
            reach = float(np.max(np.linalg.norm(boundary_samples(body, _PAIR_SAMPLES) - center, axis=1)))
        if reach >= a - _CONTAIN_TOL:
            out.append(Violation("containment", (i,),
                                 f"body reaches {reach:.6g} of ball radius {a:.6g}"))
    for i in range(len(scene.bodies)):
        for j in range(i + 1, len(scene.bodies)):
            gap = body_pair_distance(scene.bodies[i], scene.bodies[j])
            if gap <= _DISJOINT_TOL:
                out.append(Violation("disjointness", (i, j), f"boundary gap {gap:.6g}"))
    nb = len(scene.bodies)
    for ci, curve in enumerate(scene.curves):
        pts = curve.sample(_PAIR_SAMPLES // max(1, len(curve.arcs)))
        reach = float(np.max(np.linalg.norm(pts - center, axis=1)))
        if reach >= a - _CONTAIN_TOL:
            out.append(Violation("containment", (nb + ci,),
                                 f"curve reaches {reach:.6g} of ball radius {a:.6g}"))
    return ValidationReport(tuple(out))
