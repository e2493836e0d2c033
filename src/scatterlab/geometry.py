"""Obstacle geometry: strictly convex implicit bodies, planar demo curves,
scenes, and ray intersection with tangency classification.

Bodies are balls and (optionally rotated) ellipsoids carried by the implicit
function phi(x) = |D^-1 R^T (x - c)|^2 - 1, negative inside, zero on the
boundary, positive outside. Ray intersection reduces to a quadratic in the
ray parameter; roots are taken in closed form and Newton-polished only where
|phi| there exceeds ROOT_TOL, so |phi| at a reported hit stays below it. A
batched kernel applies the same rules to rows of rays at once, testing each
kind of obstacle against all rays in one pass, and reproduces the single-ray
numbers bit for bit: in d >= 3 through the same BLAS row products, in the
plane through one elementwise arithmetic on floats or arrays.

Curve obstacles (chains of elliptic arcs and segments) exist only in the
plane and only for demonstration scenes; they are flagged non-convex and all
rigidity claims exclude them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

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
    root = _body_root(body, o, v, t_min, polish=True)
    if root is None:
        return None
    t, band = root
    p, n, cosi, _ = _surface_at(body, o, v, t)
    return Hit(float(t), _as_tuple(p), _as_tuple(n), cosi,
               band or abs(cosi) < TANGENT_COS_EPS, None)


def _check_unit(v) -> None:
    # Written so that a NaN or infinite norm fails the check too.
    if not abs(math.hypot(*v) - 1.0) <= UNIT_TOL:
        raise ValueError(f"direction must be a unit vector to within {UNIT_TOL}")


def _body_root(body: ConvexBody, o: np.ndarray, v: np.ndarray, t_min: float,
               polish: bool):
    """The single-ray root rule of ray_intersect and the d >= 3 kernels:
    (t, band) for the first closed-form boundary crossing after t_min,
    Newton-polished if polish is set, where band marks a discriminant in
    the double-root snap band (whose root takes no polish); or None."""
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

    def slope(t):
        f, grad = evaluate_body(body, o + t * v)
        return f, float(grad @ v)

    t = _first_root(*sorted((q / al, g / q)), t_min, slope if polish else None, o, v)
    return None if t is None else (t, False)


def _first_root(lo: float, hi: float, t_min: float, slope, o, v):
    """The first of the closed-form roots lo <= hi beyond t_min, or None.
    With slope(t), the implicit value along the ray and its derivative, the
    root is Newton-polished, and where that pulls it back to t_min or behind,
    the second one is taken."""
    for t in (lo, hi):
        if t > t_min:
            if slope:
                t = _newton_root(slope, t, o, v)
            if t > t_min:
                return t
    return None


def _newton_root(slope, t: float, o, v) -> float:
    """Newton steps from t on the implicit value f along the ray, with
    slope(t) = (f, df/dt), until |f| <= ROOT_TOL; a root already within it
    is returned as it is. Raises RayIntersectError when _NEWTON_CAP steps or
    a zero slope leave |f| above ROOT_TOL."""
    for _ in range(_NEWTON_CAP):
        f, fp = slope(t)
        if abs(f) <= ROOT_TOL:
            return t
        if fp == 0.0:
            break
        t -= f / fp
    if abs(slope(t)[0]) > ROOT_TOL:
        raise RayIntersectError(_POLISH_FAILED, o, v)
    return t


def _surface_at(body: ConvexBody, o: np.ndarray, v: np.ndarray, t: float):
    """Boundary point at ray parameter t, its outward unit normal, the
    incidence cosine of the ray there and the implicit value."""
    p = o + t * v
    f, grad = evaluate_body(body, p)
    n = grad / float(np.linalg.norm(grad))
    return p, n, float(v @ n), f


def _nearest_body_hit(scene: Scene, o: np.ndarray, v: np.ndarray, polish: bool = False):
    """Nearest body hit of one ray as (id, t, point, normal, cos_incidence,
    grazing), or None, by _first_hit_2d's root rule; ties go to the lowest
    id. The direction must be a unit vector."""
    best = None
    for i, body in enumerate(scene.bodies):
        root = _body_root(body, o, v, 0.0, polish)
        if root is not None and (best is None or root[0] < best[1]):
            best = (i, *root)
    if best is None:
        return None
    i, t, band = best
    p, n, cosi, f = _surface_at(scene.bodies[i], o, v, t)
    if not (polish or band) and abs(f) > ROOT_TOL:
        return _nearest_body_hit(scene, o, v, polish=True)
    return i, t, p, n, cosi, band or abs(cosi) < TANGENT_COS_EPS


# ---------------------------------------------------------------------------
# Batched kernel
# ---------------------------------------------------------------------------
# Rows of O and U are ray origins and unit directions. Each kind of obstacle
# meets all rays in one pass over an (obstacles x rays) array. In d >= 3 the
# row products go through stacked matmul, which calls per row the same BLAS
# dot and matrix-vector routines as the 1-D `@` of the single-ray path, so
# every row reproduces the single ray's numbers bit for bit; inputs must be
# C-contiguous (unit stride along the last axis), as the BLAS routine
# depends on the stride. The plane has its own section below.

def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner product of each row of a with the same row of b (rows broadcast)."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _matvecs(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """m @ w for each row w (stacks broadcast)."""
    return np.matmul(m, w[..., None])[..., 0]


def _first_hits(scene: Scene, O: np.ndarray, U: np.ndarray):
    """Nearest hit of every ray after t = 0 over the bodies and the planar
    curve arcs, by the rules of scene_first_hit; each row is bitwise that
    ray's scene_first_hit. Ties go to the lowest obstacle id, then to the
    earlier arc.

    Returns (t, ids, arcs, grazing, points, normals) with one entry per row;
    arcs holds the arc index within its curve, -1 for a body. A ray that
    hits nothing has t = inf, id and arc -1, grazing False and NaN point and
    normal. Raises RayIntersectError when a root polish fails.
    """
    n_rays = O.shape[0]
    best_t = np.full(n_rays, np.inf)
    ids = np.full(n_rays, -1)
    arcs = np.full(n_rays, -1)
    points = np.full(O.shape, np.nan)
    normals = np.full(O.shape, np.nan)
    grazing = np.zeros(n_rays, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        kernel = _planar_hits if scene.dimension == 2 else _body_hits_nd
        redo = kernel(scene, O, U, best_t, ids, arcs, grazing, points, normals)
    # Rays whose nearest body root needs Newton polish take the scalar branch.
    for r in redo:
        oid, h = scene_first_hit(scene, O[r], U[r]) or (-1, _NO_HIT)
        best_t[r], ids[r], arcs[r], grazing[r], points[r], normals[r] = (
            h.t, oid, -1 if h.arc is None else h.arc, h.grazing, h.point, h.normal)
    return best_t, ids, arcs, grazing, points, normals


_NO_HIT = Hit(math.inf, math.nan, math.nan, 0.0, False)


def _roots_beyond_zero(al, b, g):
    """The closed form of the root rule on arrays of quadratics al t^2 +
    2 b t + g: (t, band), t the first root beyond 0 (inf where none) and
    band the double-root snap band, whose one root -b / al takes no polish."""
    disc = b * b - al * g
    t = np.full(disc.shape, np.inf)
    band = np.zeros(disc.shape, dtype=bool)
    # Most rays miss most obstacles; only the others need roots.
    near = np.nonzero(disc >= -DISCRIMINANT_EPS)
    b, g, disc = b[near], g[near], disc[near]
    al = np.broadcast_to(al, t.shape)[near]
    band[near] = bn = disc <= DISCRIMINANT_EPS
    s = np.sqrt(disc)
    q = -(b + np.copysign(s, b))
    r1, r2 = q / al, g / q
    lo, hi = np.minimum(r1, r2), np.maximum(r1, r2)
    tn = np.where(bn, -b / al, np.where(lo > 0.0, lo, hi))
    t[near] = np.where(tn > 0.0, tn, np.inf)
    return t, band


def _nearest(t: np.ndarray):
    """The row of each column's least entry (the first on ties) and the entry."""
    k = t.argmin(0)
    return k, t[k, np.arange(t.shape[1])]


def _body_hits_nd(scene, O, U, best_t, ids, arcs, grazing, points, normals):
    """_first_hits over the bodies of a d >= 3 scene, in one stacked pass;
    returns the rows that need the polish branch."""
    if not scene.bodies:
        return []
    C, M = scene._knd
    Ms = M[:, None]
    w = O - C[:, None]
    mv = _matvecs(Ms, U)
    t, band = _roots_beyond_zero(_rowdot(U, mv), _rowdot(w, mv),
                                 _rowdot(w, _matvecs(Ms, w)) - 1.0)
    k, best = _nearest(t)
    rows = np.flatnonzero(best < np.inf)
    k = k[rows]
    v = U[rows]
    p = O[rows] + best[rows, None] * v
    w = p - C[k]
    mw = _matvecs(M[k], w)
    grad = 2.0 * mw
    n = grad / np.sqrt(_rowdot(grad, grad))[:, None]
    best_t[rows], ids[rows], points[rows], normals[rows] = best[rows], k, p, n
    band = band[k, rows]
    grazing[rows] = band | (np.abs(_rowdot(v, n)) < TANGENT_COS_EPS)
    return rows[(np.abs(_rowdot(w, mw) - 1.0) > ROOT_TOL) & ~band].tolist()


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
        # Body centres and quadratic-form matrices, stacked for the d >= 3 kernel.
        object.__setattr__(self, "_knd", None if d == 2 or not bodies else (
            np.array([b._c for b in bodies]), np.array([b._M for b in bodies])))

    @property
    def digest(self) -> str:
        """SHA-256 of the metadata-free scene document, for table provenance;
        the document round-trips every float bit-exactly."""
        from .scenefile import serialize_scene  # scenefile imports this module

        return hashlib.sha256(serialize_scene(self).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Planar kernel
# ---------------------------------------------------------------------------
# Obstacle entries, one per body or arc, in scene order:
#   ("b", id, -1, cx, cy, r2, ir2)               ball, ir2 = 1 / r2
#   ("e", id, -1, cx, cy, m00, m01, m11)         ellipse, M = R D^-2 R^T
#   ("s", id, arc, x1, y1, ex, ey, ln)           segment, unit (ex, ey)
#   ("a", id, arc, cx, cy, sa, sb, lo, span)     axis-aligned elliptic arc
# The batched kernel evaluates each kind on the (K, 1) parameter columns of
# a _Kind stack against length-N ray arrays; _first_hit_2d writes the same
# expressions out on floats, in the same order, so a planar _trace_many row
# is bitwise its _trace_2d trace. Norms are sqrt(x*x + y*y).

def _ball_phi(px, py, cx, cy, r2, ir2):
    """Implicit value of a ball at (px, py) and half its gradient, M w."""
    wx = px - cx
    wy = py - cy
    gx = wx * ir2
    gy = wy * ir2
    return wx * gx + wy * gy - 1.0, gx, gy


def _ellipse_phi(px, py, cx, cy, m00, m01, m11):
    """Implicit value of an ellipse at (px, py) and half its gradient, M w."""
    wx = px - cx
    wy = py - cy
    gx = m00 * wx + m01 * wy
    gy = m01 * wx + m11 * wy
    return wx * gx + wy * gy - 1.0, gx, gy


_PHI = {"b": _ball_phi, "e": _ellipse_phi}
_TWO_PI = 2.0 * math.pi


def _on_arc(ang, lo, span):
    """Whether the ellipse angle ang lies on the arc [lo, lo + span], to 1e-12."""
    r = (ang - lo) % _TWO_PI
    return (r <= span + 1e-12) | (r >= _TWO_PI - 1e-12)


class _Kind(NamedTuple):
    """One kind's obstacle ids, arc indices, scene order and parameters."""

    tag: str
    ids: np.ndarray
    arcs: np.ndarray
    key: np.ndarray
    cols: tuple


def _compile_2d(scene: Scene):
    """The planar tables: (every entry in scene order, a _Kind per kind present)."""
    entries = []
    for i, b in enumerate(scene.bodies):
        cx, cy = b.center
        if b.is_ball:
            r2 = b._r * b._r
            entries.append(("b", i, -1, cx, cy, r2, 1.0 / r2))
        else:
            m = b._M
            entries.append(("e", i, -1, cx, cy, float(m[0, 0]), float(m[0, 1]), float(m[1, 1])))
    nb = len(scene.bodies)
    for ci, curve in enumerate(scene.curves):
        for ai, arc in enumerate(curve.arcs):
            if isinstance(arc, EllipticArc):
                lo, hi = sorted(arc.angles)
                entries.append(("a", nb + ci, ai, arc.center[0], arc.center[1],
                                arc.semiaxes[0], arc.semiaxes[1], lo, hi - lo))
            else:
                x1, y1 = arc.start
                x2, y2 = arc.end
                dx, dy = x2 - x1, y2 - y1
                ln = math.hypot(dx, dy)
                entries.append(("s", nb + ci, ai, x1, y1, dx / ln, dy / ln, ln))
    kinds = []
    for tag in "beas":
        key = [k for k, e in enumerate(entries) if e[0] == tag]
        if key:
            _, ids, arcs, *par = zip(*(entries[k] for k in key))
            kinds.append(_Kind(tag, np.array(ids), np.array(arcs), np.array(key),
                               tuple(np.array(c)[:, None] for c in par)))
    return tuple(entries), tuple(kinds)


def _planar_hits(scene, O, U, best_t, ids, arcs, grazing, points, normals):
    """_first_hits in the plane: one pass per obstacle kind over all rays,
    by the rules of _first_hit_2d; returns the rows that need the polish
    branch."""
    kinds = scene._k2[1]
    ox, oy, ux, uy = O[:, 0], O[:, 1], U[:, 0], U[:, 1]
    key = np.full(len(ox), -1)  # no tie with a miss
    which = np.full(len(ox), -1)
    row = np.zeros(len(ox), dtype=int)
    band = np.zeros(len(ox), dtype=bool)
    for j, kind in enumerate(kinds):
        t, kind_band = _kind_pass(kind, ox, oy, ux, uy)
        r, tr = _nearest(t)
        kr = kind.key[r]
        # Strictly closer, or as close and earlier in scene order.
        closer = np.flatnonzero((tr < best_t) | ((tr == best_t) & (kr < key)))
        r = r[closer]
        best_t[closer], key[closer], which[closer], row[closer] = tr[closer], kr[closer], j, r
        band[closer] = kind_band[r, closer]
    redo = []
    for j, kind in enumerate(kinds):
        rows = np.flatnonzero(which == j)
        r = row[rows]
        par = [c[r, 0] for c in kind.cols]
        vx, vy = ux[rows], uy[rows]
        px = ox[rows] + best_t[rows] * vx
        py = oy[rows] + best_t[rows] * vy
        if kind.tag == "s":
            gx, gy = -par[3], par[2]
        else:
            if kind.tag == "a":
                gx, gy = (px - par[0]) / (par[2] * par[2]), (py - par[1]) / (par[3] * par[3])
            else:
                f, gx, gy = _PHI[kind.tag](px, py, *par)
                redo.append(rows[(np.abs(f) > ROOT_TOL) & ~band[rows]])
            nn = np.sqrt(gx * gx + gy * gy)
            gx = gx / nn
            gy = gy / nn
        if kind.tag in "as":
            # Curve normals face against the ray.
            flip = np.where(vx * gx + vy * gy > 0.0, -1.0, 1.0)
            gx = gx * flip
            gy = gy * flip
        ids[rows], arcs[rows] = kind.ids[r], kind.arcs[r]
        points[rows, 0], points[rows, 1], normals[rows, 0], normals[rows, 1] = px, py, gx, gy
        grazing[rows] = band[rows] | (np.abs(vx * gx + vy * gy) < TANGENT_COS_EPS)
    return [r for rows in redo for r in rows.tolist()]


def _kind_pass(kind: _Kind, ox, oy, ux, uy):
    """The first crossing after 0 of every ray with every entry of a kind:
    (t, band), each (K, N), t = inf where there is none."""
    if kind.tag == "s":
        x1, y1, ex, ey, ln = kind.cols
        det = ux * ey - uy * ex
        rx = x1 - ox
        ry = y1 - oy
        t = (rx * ey - ry * ex) / det
        u = (rx * uy - ry * ux) / det
        ok = ((np.abs(det) >= 1e-15) & (t > 0.0)
              & (-1e-12 * ln <= u) & (u <= ln * (1.0 + 1e-12)))
        return np.where(ok, t, np.inf), np.zeros(t.shape, dtype=bool)
    if kind.tag == "b":
        cx, cy, r2, _ = kind.cols
        wx = ox - cx
        wy = oy - cy
        # The direction is a unit vector, so al = 1.
        return _roots_beyond_zero(1.0, wx * ux + wy * uy, wx * wx + wy * wy - r2)
    if kind.tag == "e":
        cx, cy, m00, m01, m11 = kind.cols
        wx = ox - cx
        wy = oy - cy
        mvx = m00 * ux + m01 * uy
        mvy = m01 * ux + m11 * uy
        return _roots_beyond_zero(ux * mvx + uy * mvy, wx * mvx + wy * mvy,
                                  wx * (m00 * wx + m01 * wy) + wy * (m01 * wx + m11 * wy) - 1.0)
    cx, cy, sa, sb, lo, span = kind.cols
    wx = (ox - cx) / sa
    wy = (oy - cy) / sb
    vx = ux / sa
    vy = uy / sb
    al = vx * vx + vy * vy
    b = wx * vx + wy * vy
    disc = b * b - al * (wx * wx + wy * wy - 1.0)
    band = np.abs(disc) <= DISCRIMINANT_EPS
    s = np.sqrt(disc)
    near = np.where(band, -b / al, (-b - s) / al)
    far = (-b + s) / al

    def on_arc(t):
        ang = np.arctan2((oy + t * uy - cy) / sb, (ox + t * ux - cx) / sa)
        return (t > 0.0) & _on_arc(ang, lo, span)

    # The nearer root counts when it lies on the arc, else the farther.
    near_ok = on_arc(near)
    t = np.where(near_ok, near, np.where(on_arc(far) & ~band, far, np.inf))
    return t, band & near_ok


def _first_hit_2d(k, ox: float, oy: float, ux: float, uy: float, polish: bool = False):
    """Closest hit for a planar ray over the tables k (a scene's _k2) as
    (obstacle_id, arc_index, t, px, py, nx, ny, cos_incidence, grazing), or
    None; ties go to the lowest id, then to the earlier arc, and curve
    normals face against the ray. Each body offers its first closed-form
    root beyond 0, each arc the first of its roots beyond 0 that lies on it.
    Where the implicit value at the nearest body root exceeds ROOT_TOL, the
    ray is solved again with every body root Newton-polished, by _body_root's
    rule.
    """
    eps, sqrt = DISCRIMINANT_EPS, math.sqrt
    best_t = math.inf
    best = None
    band = False
    for e in k[0]:
        tag = e[0]
        if tag == "b":
            _, _, _, cx, cy, r2, ir2 = e
            wx = ox - cx
            wy = oy - cy
            al = 1.0
            b = wx * ux + wy * uy
            g = wx * wx + wy * wy - r2
        elif tag == "e":
            _, _, _, cx, cy, m00, m01, m11 = e
            wx = ox - cx
            wy = oy - cy
            mvx = m00 * ux + m01 * uy
            mvy = m01 * ux + m11 * uy
            al = ux * mvx + uy * mvy
            b = wx * mvx + wy * mvy
            g = wx * (m00 * wx + m01 * wy) + wy * (m01 * wx + m11 * wy) - 1.0
        elif tag == "s":
            _, _, _, x1, y1, ex, ey, ln = e
            det = ux * ey - uy * ex
            if abs(det) < 1e-15:
                continue
            rx = x1 - ox
            ry = y1 - oy
            t = (rx * ey - ry * ex) / det
            if 0.0 < t < best_t and -1e-12 * ln <= (rx * uy - ry * ux) / det <= ln * (1.0 + 1e-12):
                best_t, best, band = t, e, False
            continue
        else:
            _, _, _, cx, cy, sa, sb, lo, span = e
            wx = (ox - cx) / sa
            wy = (oy - cy) / sb
            vx = ux / sa
            vy = uy / sb
            al = vx * vx + vy * vy
            b = wx * vx + wy * vy
            disc = b * b - al * (wx * wx + wy * wy - 1.0)
            if disc < -eps:
                continue
            s = sqrt(disc) if disc > eps else None
            for t in ((-b / al,) if s is None else ((-b - s) / al, (-b + s) / al)):
                if 0.0 < t < best_t and _on_arc(math.atan2((oy + t * uy - cy) / sb,
                                                            (ox + t * ux - cx) / sa), lo, span):
                    best_t, best, band = t, e, s is None
                    break
            continue
        disc = b * b - al * g
        if disc < -eps:
            continue
        if disc <= eps:
            t = -b / al
            if 0.0 < t < best_t:
                best_t, best, band = t, e, True
            continue
        s = sqrt(disc)
        q = -(b + math.copysign(s, b))
        lo, hi = q / al, g / q
        if hi < lo:
            lo, hi = hi, lo
        t = lo if lo > 0.0 else hi
        if t > 0.0 and polish:
            phi, par = _PHI[tag], e[3:]

            def slope(t):
                f, gx, gy = phi(ox + t * ux, oy + t * uy, *par)
                return f, 2.0 * (gx * ux + gy * uy)

            if abs(slope(t)[0]) > ROOT_TOL:
                t = _first_root(lo, hi, 0.0, slope, (ox, oy), (ux, uy)) or math.inf
        if 0.0 < t < best_t:
            best_t, best, band = t, e, False
    if best is None:
        return None
    tag, oid, ai = best[:3]
    px = ox + best_t * ux
    py = oy + best_t * uy
    if tag == "s":
        nx, ny = -best[6], best[5]
    else:
        cx, cy, p0, p1 = best[3:7]
        wx = px - cx
        wy = py - cy
        if tag == "a":
            nx, ny = wx / (p0 * p0), wy / (p1 * p1)
        elif tag == "b":
            nx, ny = wx * p1, wy * p1
        else:
            nx, ny = p0 * wx + p1 * wy, p1 * wx + best[7] * wy
        if tag != "a" and not (polish or band) and abs(wx * nx + wy * ny - 1.0) > ROOT_TOL:
            return _first_hit_2d(k, ox, oy, ux, uy, polish=True)
        nn = sqrt(nx * nx + ny * ny)
        nx = nx / nn
        ny = ny / nn
    if tag in "as" and ux * nx + uy * ny > 0.0:
        nx = -nx
        ny = -ny
    cosi = ux * nx + uy * ny
    return (oid, ai if ai >= 0 else None, best_t, px, py, nx, ny, cosi,
            band or abs(cosi) < TANGENT_COS_EPS)


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
_FAR_APART = 2.0**480


def _support_terms(dc: np.ndarray, la: np.ndarray, lb: np.ndarray, n: np.ndarray):
    """Support-function separation g(n) = <dc, n> - |L_a n| - |L_b n| of two
    bodies with shape matrices L = D R^T whose centers differ by dc, and the
    pieces of its gradient.

    |L n| = sqrt(n'R D^2 R^T n) is a body's support function about its
    center; the gradient w = x_b - x_a is the difference of the support point
    x_b of body b in direction -n and x_a of body a in direction n, and
    x_a = L_a'(L_a n) / |L_a n| about a's center. The norms are taken by
    hypot, which neither overflows nor underflows.
    """
    ua, ub = la @ n, lb @ n
    sa, sb = math.hypot(*ua), math.hypot(*ub)
    xa, xb = la.T @ (ua / sa), lb.T @ (ub / sb)
    return float(dc @ n - sa - sb), dc - xa - xb, xa, xb, sa, sb


def _support_separation(a: ConvexBody, b: ConvexBody):
    """Separating direction n of two bodies with bounds lower <= gap <= upper.

    Maximises the concave, positively homogeneous separation g over unit n,
    starting from the best direction of a lattice, by Riemannian Newton steps
    with backtracking. lower = g(n); when lower > 0, upper = |x_b - x_a| of
    the two support points, which lie on the boundaries, and at the maximum
    both equal the distance between the bodies (Boyd & Vandenberghe, Convex
    Optimization, 2004, section 8.2). Overlapping or nested bodies give
    lower <= 0, minus the penetration depth reached from the lattice start.

    The search runs on the pair scaled by the power of two above its longest
    semiaxis, which is exact. Every scaled semiaxis is then below 1, and the
    Newton matrix's entries stay below about s_max / s_min, which is finite
    over the accepted semiaxis range. A pair whose centres are more than
    2^480 longest semiaxes apart, which that scaling would overflow, takes
    both bounds at the line of centres, where they are exact to rounding.
    """
    longest = max(a.semiaxes + b.semiaxes)
    scale = math.ldexp(1.0, math.frexp(longest)[1])
    la = np.asarray(a.semiaxes)[:, None] * np.asarray(a.rotation).T
    lb = np.asarray(b.semiaxes)[:, None] * np.asarray(b.rotation).T
    dc = b._c - a._c
    span = math.hypot(*dc)
    if span > _FAR_APART * longest:
        g, w = _support_terms(dc, la, lb, dc / span)[:2]
        return dc / span, g, math.hypot(*w)
    la, lb, dc = la / scale, lb / scale, dc / scale
    d = dc.size
    starts = _unit_directions(d, _PAIR_SAMPLES)
    gs = (starts @ dc - np.linalg.norm(starts @ la.T, axis=1)
          - np.linalg.norm(starts @ lb.T, axis=1))
    n = starts[int(np.argmax(gs))]
    g, w, xa, xb, sa, sb = _support_terms(dc, la, lb, n)
    for _ in range(_SEPARATION_STEPS):
        grad = w - g * n
        # Rounding bound on g and on its gradient.
        tol = 32.0 * np.finfo(float).eps * (np.sqrt(dc @ dc) + np.sqrt(xa @ xa)
                                            + np.sqrt(xb @ xb))
        if not math.sqrt(grad @ grad) > tol:
            break
        # The Euclidean Hessian is negative semidefinite with n in its kernel,
        # and the sphere adds -g on the tangent space. The step is solved in
        # the orthonormal basis q of that space that a Householder reflection
        # taking n to an axis gives, so no term along n mixes its scale in.
        hess = ((np.outer(xa, xa) - la.T @ la) / sa
                + (np.outer(xb, xb) - lb.T @ lb) / sb)
        k = int(np.argmax(np.abs(n)))
        v = n.copy()
        v[k] += math.copysign(1.0, n[k])
        q = np.delete(np.eye(d) - np.outer(v, v) * (2.0 / (v @ v)), k, axis=1)
        hq, rhs = q.T @ hess @ q, -(q.T @ grad)
        try:
            step = q @ np.linalg.solve(hq - g * np.eye(d - 1), rhs)
            if grad @ step <= 0.0:
                step = q @ np.linalg.solve(hq - abs(g) * np.eye(d - 1), rhs)
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
        g, w, xa, xb, sa, sb = trial
    return n, g * scale, math.sqrt(w @ w) * scale


def body_pair_distance(a: ConvexBody, b: ConvexBody) -> float:
    """Certified lower bound on the signed separation of two bodies, in
    every dimension: g at one direction, so never above the true separation.

    For disjoint bodies it is their distance when the Newton ascent
    converges; the support points' distance, the upper bound of
    _support_separation, then matches it to rounding. The ascent can stall
    when the pair's semiaxes span most of the accepted range: a ribbon
    (7.6e-155, 1.3e154, 1) beside the ellipsoid (1, 2, 3) centred 5 away
    gives 3.87 for a distance of 4. For overlapping or nested bodies it is
    negative: minus the penetration depth, the length of the shortest
    translation that separates them (for balls, |c_a - c_b| - r_a - r_b
    either way), as far as the ascent from the best lattice direction reaches.
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


def _chord_implicit_min(body: ConvexBody, p: np.ndarray) -> float:
    """Least implicit value of the body (as in evaluate_body) on the polyline
    through the rows of p; exact on each chord, where it is a quadratic in
    the chord parameter."""
    w, e = p[:-1] - body._c, p[1:] - p[:-1]
    me = e @ body._M
    ee = _rowdot(e, me)
    t = np.clip(-_rowdot(w, me) / np.where(ee > 0.0, ee, 1.0), 0.0, 1.0)
    x = w + t[:, None] * e
    return float(np.min(_rowdot(x, x @ body._M))) - 1.0


def _chord_gap(p: np.ndarray, q: np.ndarray) -> float:
    """Distance between the planar polylines through the rows of p and of q:
    0 when a chord of one crosses a chord of the other, else the least
    distance from a vertex of one to a chord of the other."""
    def vertex_gap(x, y):
        a, e = y[:-1], y[1:] - y[:-1]
        wx, wy = x[:, 0, None] - a[:, 0], x[:, 1, None] - a[:, 1]
        ee = _rowdot(e, e)
        t = np.clip((wx * e[:, 0] + wy * e[:, 1]) / np.where(ee > 0.0, ee, 1.0), 0.0, 1.0)
        return float(np.min(np.hypot(wx - t * e[:, 0], wy - t * e[:, 1])))

    def straddles(x, y):
        # [i, j]: the ends of chord j of y lie strictly on both sides of chord i of x.
        e = x[1:] - x[:-1]
        side = (e[:, 0, None] * (y[:, 1] - x[:-1, 1, None])
                - e[:, 1, None] * (y[:, 0] - x[:-1, 0, None]))
        return side[:, :-1] * side[:, 1:] < 0.0

    if np.any(straddles(p, q) & straddles(q, p).T):
        return 0.0
    return min(vertex_gap(p, q), vertex_gap(q, p))


def validate_scene(scene: Scene) -> ValidationReport:
    """Check disjointness and containment in the reference ball.

    Bodies are strictly convex by construction (ConvexBody refuses semiaxes
    whose 1/s^2 is not finite and positive), so convexity needs no check
    here. The disjointness and containment checks of bodies are exact, not
    sampled: each pair's signed separation comes from its support functions
    (``body_pair_distance``), so nested bodies are refused too, and each
    body's reach from the ball center from its farthest point. Curves are
    checked on the polylines through their arc samples, which are exact for
    segments: for containment, for meeting a body (an implicit value <= 0),
    and for coming within _DISJOINT_TOL of another curve. Arcs of one curve
    meet at their ends by design, so they are not checked against each
    other. Violations are data, not errors; an empty report marks an
    admissible scene.
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
    chains = [[arc.sample(max(2, _PAIR_SAMPLES // len(curve.arcs))) for arc in curve.arcs]
              for curve in scene.curves]
    for ci, arcs in enumerate(chains):
        reach = max(float(np.max(np.linalg.norm(p - center, axis=1))) for p in arcs)
        if reach >= a - _CONTAIN_TOL:
            out.append(Violation("containment", (nb + ci,),
                                 f"curve reaches {reach:.6g} of ball radius {a:.6g}"))
        for i, body in enumerate(scene.bodies):
            low = min(_chord_implicit_min(body, p) for p in arcs)
            if not low > 0.0:
                out.append(Violation("disjointness", (i, nb + ci),
                                     f"curve meets the body (implicit value {low:.6g})"))
        for cj in range(ci + 1, len(chains)):
            # Only arcs whose bounding boxes come within the tolerance need
            # the pairwise distances.
            near = [(p, q) for p in arcs for q in chains[cj]
                    if np.all(np.maximum(p.min(0) - q.max(0), q.min(0) - p.max(0))
                              <= _DISJOINT_TOL)]
            gap = min((_chord_gap(p, q) for p, q in near), default=math.inf)
            if not gap > _DISJOINT_TOL:
                out.append(Violation("disjointness", (nb + ci, nb + cj),
                                     f"curve gap {gap:.6g}"))
    return ValidationReport(tuple(out))
