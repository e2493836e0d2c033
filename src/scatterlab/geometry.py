"""Obstacle geometry: strictly convex implicit bodies, planar demo curves,
scenes, and ray intersection with tangency classification.

Bodies are balls and (optionally rotated) ellipsoids carried by the implicit
function phi(x) = |D^-1 R^T (x - c)|^2 - 1, negative inside, zero on the
boundary, positive outside. Ray intersection reduces to a quadratic in the
ray parameter, written about its vertex t0, the ray's point of closest
approach in the body's metric: phi = al (t - t0)^2 + g0, with g0 the
implicit value at t0 (Haines, Guenther & Akenine-Moeller, "Precision
Improvements for Ray/Sphere Intersection", Ray Tracing Gems, 2019, ch. 7).
Taken there, the discriminant -al g0 does not cancel when a small body is
seen from far away, so |phi| at a reported hit stays below ROOT_TOL, or
below the rounding floor of the hit point where that is larger; a hit off
its body beyond that raises RayIntersectError. One batched kernel answers
every scene query, testing each kind of obstacle against all rays in one
pass. Only ray_intersect takes hits on floats, by _first_hit_nd, a scalar
rule that sees bodies alone and matches the batched kernel bit for bit (one
elementwise arithmetic, summed in coordinate order).

Curve obstacles (chains of elliptic arcs and segments) exist only in the
plane and only for demonstration scenes; they are flagged non-convex and all
rigidity claims exclude them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

# Tangency and root-handling thresholds. A hit is grazing when the incidence
# cosine is below TANGENT_COS_EPS or the ray is in the double-root snap band:
# the implicit value g0 at its vertex, minus the discriminant over the leading
# coefficient, lies within DISCRIMINANT_EPS of 0.
TANGENT_COS_EPS = 1e-8
DISCRIMINANT_EPS = 1e-14
ROOT_TOL = 1e-9
# Rounding error per coordinate of a hit point o + t u over max_i |o_i| + |t|.
_ROUNDING = 8.0 * np.finfo(float).eps

# How far a direction's norm may be from 1 at every single-ray entry point:
# the planar kernels take the direction as given, so a looser bound would let
# reported points leave the boundary.
UNIT_TOL = 1e-12

_OFF_BODY = "ray-body hit lies off the body beyond its root tolerance"

_ROT_TOL = 1e-12
_CHAIN_TOL = 1e-9


class RayIntersectError(RuntimeError):
    """A body hit whose implicit value is above ROOT_TOL and the rounding
    floor of its point; carries the offending ray."""

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
        # Kernel parameters: (1 / r^2,), or M's rows with the upper triangle mirrored.
        r = float(s[0])
        object.__setattr__(self, "_tag", self.kind[0])
        object.__setattr__(self, "_par", (1.0 / (r * r),) if self.kind == "ball"
                           else _sym(m[np.triu_indices(d)].tolist(), d))

    @property
    def dimension(self) -> int:
        return len(self.center)


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
    u = sphere_lattice(body.dimension, n)
    return body._c + (u * np.asarray(body.semiaxes)) @ np.asarray(body.rotation).T


def sphere_lattice(dimension: int, n: int, phase: float = 0.0) -> np.ndarray:
    """Deterministic n unit vectors in R^d: an angle lattice turned by phase
    in the plane, a Fibonacci lattice on the 2-sphere and seeded normal draws
    above, where phase is not used."""
    if dimension == 2:
        ang = phase + 2.0 * math.pi * np.arange(n) / n
        return np.column_stack([np.cos(ang), np.sin(ang)])
    if dimension == 3:
        return fibonacci_sphere(n)
    u = np.random.default_rng(1234).normal(size=(n, dimension))
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

    Convexity gives at most two roots; a ray in the snap band is treated as
    a double root at its vertex and flagged grazing, as is any simple root
    whose incidence cosine is below the tangency threshold. On a one-body
    scene it is bitwise scene_first_hit. Raises ValueError unless the
    origin and direction have the body's dimension and the direction is a
    unit vector (to UNIT_TOL = 1e-12), and RayIntersectError for a hit off
    the body beyond ROOT_TOL and the rounding floor.
    """
    o, v = _as_tuple(origin), _as_tuple(direction)
    _check_ray(body.dimension, o, v)
    hit = _first_hit_nd((body,), o, v, t_min)
    return None if hit is None else Hit(*hit[1:])


def _check_unit(v) -> None:
    # Written so that a NaN or infinite norm fails the check too.
    if not abs(math.hypot(*v) - 1.0) <= UNIT_TOL:
        raise ValueError(f"direction must be a unit vector to within {UNIT_TOL}")


def _check_ray(d: int, o, v) -> None:
    """Refuse a ray unless its origin and direction lie in R^d and the
    direction is a unit vector."""
    if len(o) != d or len(v) != d:
        raise ValueError(f"the ray's origin and direction must be {d}-dimensional")
    _check_unit(v)


# ---------------------------------------------------------------------------
# One arithmetic for every kernel
# ---------------------------------------------------------------------------
# The expressions below run unchanged on floats (the scalar kernels) and on
# arrays (the batched kernel, one entry per ray), so each row of a batch is
# bitwise its float trace. A point or vector is a sequence of its
# coordinates; a ball's parameters are (1 / r^2,), an ellipsoid's the rows of
# M with its upper triangle mirrored.

def _dot(a, b):
    """Sum of a[k] * b[k], taken in coordinate order from the first term."""
    s = a[0] * b[0]
    for k in range(1, len(a)):
        s = s + a[k] * b[k]
    return s


def _sym(m, d: int) -> tuple:
    """Rows of the symmetric d x d matrix whose upper triangle, row by row, is m."""
    def at(i, j):
        i, j = min(i, j), max(i, j)
        return m[i * (2 * d - i - 1) // 2 + j]

    return tuple(tuple(at(i, j) for j in range(d)) for i in range(d))


def _quadratic(tag: str, c, par, o, u):
    """(al, t0, g0) of the ray o + t u against a body: phi there is
    al (t - t0)^2 + g0, with t0 = -b / al the vertex of al t^2 + 2 b t + g
    and g0 the implicit value at the shifted vector w + t0 u. A ball takes
    al = 1 / r^2 and t0 = -w.u, as the direction is a unit vector."""
    w = [x - y for x, y in zip(o, c)]
    if tag == "b":
        t0 = -_dot(w, u)
        w = [x + t0 * y for x, y in zip(w, u)]
        return par[0], t0, _dot(w, w) * par[0] - 1.0
    mv = [_dot(row, u) for row in par]
    al = _dot(u, mv)
    t0 = -_dot(w, mv) / al
    w = [x + t0 * y for x, y in zip(w, u)]
    return al, t0, _dot(w, [_dot(row, w) for row in par]) - 1.0


def _phi(tag: str, c, par, p):
    """Implicit value of a body at p and half its gradient, M w."""
    w = [x - y for x, y in zip(p, c)]
    g = [x * par[0] for x in w] if tag == "b" else [_dot(row, w) for row in par]
    return _dot(w, g) - 1.0, g


def _guard(f, nn, o, u, t) -> None:
    """Raise RayIntersectError unless the implicit value f at the hit o + t u,
    where |M w| = nn, is within ROOT_TOL or the rounding floor of the point,
    whichever is larger. Each coordinate of the point is off by about
    eps (max_i |o_i| + |t|), which moves phi by |grad phi| = 2 nn times as much:
    about 2 eps D / r on a body of size r seen from a distance D."""
    if abs(f) > ROOT_TOL and abs(f) > (_ROUNDING * math.sqrt(len(o))
                                      * (max(map(abs, o)) + abs(t)) * nn):
        raise RayIntersectError(_OFF_BODY, o, u)


def _first_hit_nd(bodies, o: tuple, v: tuple, t_min: float = 0.0):
    """Nearest hit after t_min of one ray on the bodies, in any d, as (id, t,
    point, normal, cos_incidence, grazing), or None; ties go to the lowest
    id. Each body offers its first root of al (t - t0)^2 + g0 after t_min,
    t0 -+ sqrt(-al g0) / al, or in the double-root snap band its vertex t0;
    the hit passes _guard. The direction must be a unit vector."""
    best_t, best, band = math.inf, None, False
    for i, body in enumerate(bodies):
        al, t0, g0 = _quadratic(body._tag, body.center, body._par, o, v)
        if g0 > DISCRIMINANT_EPS:
            continue
        if g0 >= -DISCRIMINANT_EPS:
            if t_min < t0 < best_t:
                best_t, best, band = t0, i, True
            continue
        h = math.sqrt(-al * g0) / al
        t = t0 - h
        if not t > t_min:
            t = t0 + h
        if t_min < t < best_t:
            best_t, best, band = t, i, False
    if best is None:
        return None
    body = bodies[best]
    p = tuple([x + best_t * y for x, y in zip(o, v)])
    f, g = _phi(body._tag, body.center, body._par, p)
    nn = math.sqrt(_dot(g, g))
    _guard(f, nn, o, v, best_t)
    n = tuple([x / nn for x in g])
    cosi = _dot(v, n)
    return best, best_t, p, n, cosi, band or abs(cosi) < TANGENT_COS_EPS


# ---------------------------------------------------------------------------
# Batched kernel
# ---------------------------------------------------------------------------
# Rows of O and U are ray origins and unit directions. Each kind of obstacle
# meets all rays in one pass over an (obstacles x rays) array, bodies by the
# expressions of _first_hit_nd written on arrays: the columns of O
# and U stand for the coordinates, and a kind's (K, 1) parameter columns for
# its parameters.

def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner product of each row of a with the same row of b (rows broadcast)."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _roots_beyond_zero(al, t0, g0):
    """_first_hit_nd's root rule on arrays of quadratics al (t - t0)^2 + g0 and
    t_min = 0: (t, band), t the first root beyond 0 (inf where none) and
    band the double-root snap band, whose one root is t0."""
    band = np.abs(g0) <= DISCRIMINANT_EPS
    # NaN where the ray misses (g0 > 0), which every comparison rejects.
    h = np.sqrt(-al * g0) / al
    lo = t0 - h
    t = np.where(band, t0, np.where(lo > 0.0, lo, t0 + h))
    return np.where((g0 <= DISCRIMINANT_EPS) & (t > 0.0), t, np.inf), band


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
        object.__setattr__(self, "_k", _compile(self))

    @cached_property
    def digest(self) -> str:
        """SHA-256 of the metadata-free scene document, for table provenance;
        the document round-trips every float bit-exactly. Computed once per
        instance: a scene is frozen."""
        from .scenefile import serialize_scene  # scenefile imports this module

        return hashlib.sha256(serialize_scene(self).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Kernel tables
# ---------------------------------------------------------------------------
# Obstacle entries, one per body or arc, in scene order; c is the centre:
#   ("b", id, -1, *c, ir2)                      ball, ir2 = 1 / r^2
#   ("e", id, -1, *c, *upper triangle of M)     ellipsoid, M = R D^-2 R^T
#   ("s", id, arc, x1, y1, ex, ey, ln)          segment, unit (ex, ey)
#   ("a", id, arc, cx, cy, sa, sb, lo, span)    axis-aligned elliptic arc
# Curves exist only in the plane, and only the batched kernel sees them: it
# evaluates each kind on the (K, 1) parameter columns of a _Kind stack against
# length-N ray arrays. _first_hit_nd runs _quadratic and _phi on floats, so
# a _trace_many row on a body scene is bitwise its float trace.

_TWO_PI = 2.0 * math.pi


class _Kind(NamedTuple):
    """One kind's entries by scene order, and their parameters."""

    tag: str
    key: np.ndarray
    cols: tuple


def _compile(scene: Scene):
    """The kernel tables: (every entry in scene order, a _Kind per kind
    present, the (4, entries) table of _hits' lookups)."""
    d = scene.dimension
    entries = []
    for i, b in enumerate(scene.bodies):
        par = b._par if b._tag == "b" else [b._par[j][k] for j in range(d) for k in range(j, d)]
        entries.append((b._tag, i, -1, *b.center, *par))
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
    # Per entry: obstacle id, arc index, kind and place within the kind.
    table = np.zeros((4, len(entries)), dtype=int)
    table[:2] = np.reshape([e[1:3] for e in entries], (-1, 2)).T
    for tag in "beas":
        key = [k for k, e in enumerate(entries) if e[0] == tag]
        if key:
            table[2, key] = len(kinds)
            table[3, key] = np.arange(len(key))
            par = zip(*(entries[k][3:] for k in key))
            kinds.append(_Kind(tag, np.array(key), tuple(np.array(c)[:, None] for c in par)))
    return tuple(entries), tuple(kinds), table


def _hits(scene, o, u):
    """The batched kernel on the coordinate rows o and u, (d, N) arrays, of
    N rays: one pass per obstacle kind over all rays, bodies by the rules of
    _first_hit_nd, and arcs and segments by the only copy of
    theirs; every body hit passes _guard, and RayIntersectError names the
    lowest offending ray.

    Returns, for the rays that hit only, (rows, t, ids, arcs, grazing,
    points, normals): the rays' ascending positions in the batch, and points
    and normals as (d, hits) arrays.
    """
    entries, kinds, table = scene._k
    d, n_rays = o.shape
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if len(kinds) == 1:
            t, band = _kind_pass(kinds[0], o, u)
        else:
            # Rows in scene order; with no obstacle, one row of misses.
            t = np.full((max(len(entries), 1), n_rays), np.inf)
            band = np.zeros(t.shape, dtype=bool)
            for kind in kinds:
                t[kind.key], band[kind.key] = _kind_pass(kind, o, u)
        best = t.min(0)
        rows = np.flatnonzero(best < np.inf)
        if not rows.size:
            none = best[:0]
            return rows, none, rows, rows, rows < 0, o[:, :0], o[:, :0]
        # The nearest entry, the earliest in scene order on ties.
        e = np.argmax(t == best, axis=0)[rows]
        band = band.take(e * n_rays + rows)
        ids, arcs, which, local = table.take(e, axis=1)
        t = best[rows]
        v = u.take(rows, axis=1)
        p = o.take(rows, axis=1) + t * v
        normals = np.empty(p.shape)
        bad = []
        for j, kind in enumerate(kinds):
            s = np.flatnonzero(which == j)
            if not s.size:
                continue
            par = [c.take(local[s]) for c in kind.cols]
            q = p.take(s, axis=1)
            if kind.tag == "s":
                g = [-par[3], par[2]]
            else:
                if kind.tag == "a":
                    g = [(q[0] - par[0]) / (par[2] * par[2]), (q[1] - par[1]) / (par[3] * par[3])]
                else:
                    f, g = _phi(kind.tag, par[:d], _body_par(kind.tag, par[d:], d), q)
                nn = np.sqrt(_dot(g, g))
                if kind.tag in "be":
                    bad += [(rows[s[i]], f[i], nn[i], t[s[i]])
                            for i in np.flatnonzero(np.abs(f) > ROOT_TOL).tolist()]
                g = [x / nn for x in g]
            if kind.tag in "as":
                # Curve normals face against the ray.
                flip = np.where(_dot(v.take(s, axis=1), g) > 0.0, -1.0, 1.0)
                g = [x * flip for x in g]
            for k, x in enumerate(g):
                normals[k, s] = x
    for ray, f, nn, tr in sorted(bad, key=lambda b: b[0]):
        _guard(f, nn, [x[ray] for x in o], [x[ray] for x in u], tr)
    grazing = band | (np.abs(_dot(v, normals)) < TANGENT_COS_EPS)
    return rows, t, ids, arcs, grazing, p, normals


def _body_par(tag: str, m, d: int):
    """A body entry's parameters after its centre, as _quadratic takes them."""
    return m if tag == "b" else _sym(m, d)


def _kind_pass(kind: _Kind, o, u):
    """The first crossing after 0 of every ray with every entry of a kind:
    (t, band), each (K, N), t = inf where there is none."""
    if kind.tag in "be":
        d = len(o)
        c, m = kind.cols[:d], kind.cols[d:]
        return _roots_beyond_zero(*_quadratic(kind.tag, c, _body_par(kind.tag, m, d), o, u))
    (ox, oy), (ux, uy) = o, u
    if kind.tag == "s":
        x1, y1, ex, ey, ln = kind.cols
        det = ux * ey - uy * ex
        rx = x1 - ox
        ry = y1 - oy
        t = (rx * ey - ry * ex) / det
        along = (rx * uy - ry * ux) / det
        ok = ((np.abs(det) >= 1e-15) & (t > 0.0)
              & (-1e-12 * ln <= along) & (along <= ln * (1.0 + 1e-12)))
        return np.where(ok, t, np.inf), np.zeros(t.shape, dtype=bool)
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
        # Only roots beyond 0 take the angle test, whether the ellipse angle
        # lies on [lo, lo + span] to 1e-12; most lanes hold none (a NaN root
        # where the ray misses the ellipse).
        ok = t > 0.0
        i = np.flatnonzero(ok)
        k, n = np.divmod(i, t.shape[1])
        tk = t.take(i)
        ang = np.arctan2((oy.take(n) + tk * uy.take(n) - cy.take(k)) / sb.take(k),
                         (ox.take(n) + tk * ux.take(n) - cx.take(k)) / sa.take(k))
        r = (ang - lo.take(k)) % _TWO_PI
        ok.ravel()[i] = (r <= span.take(k) + 1e-12) | (r >= _TWO_PI - 1e-12)
        return ok

    # The nearer root counts when it lies on the arc, else the farther.
    near_ok = on_arc(near)
    t = np.where(near_ok, near, np.where(on_arc(far) & ~band, far, np.inf))
    return t, band & near_ok


def scene_first_hit(scene: Scene, origin, direction) -> Optional[tuple[int, Hit]]:
    """Closest hit of the ray over all bodies and curve arcs as
    (obstacle_id, Hit), or None: the batched kernel on one ray.

    Ties between obstacles are broken toward the lowest obstacle id. Curve
    normals face against the ray. Raises ValueError unless the origin and
    direction have the scene's dimension and the direction is a unit vector
    (to UNIT_TOL = 1e-12), and RayIntersectError for a body hit off its body
    beyond ROOT_TOL and the rounding floor.
    """
    o, v = _as_tuple(origin), _as_tuple(direction)
    _check_ray(scene.dimension, o, v)
    rows, t, ids, arcs, grazing, p, n = _hits(scene, np.array(o)[:, None], np.array(v)[:, None])
    if not rows.size:
        return None
    n, arc = tuple(n[:, 0].tolist()), int(arcs[0])
    return int(ids[0]), Hit(float(t[0]), tuple(p[:, 0].tolist()), n, _dot(v, n),
                            bool(grazing[0]), None if arc < 0 else arc)


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
    starts = sphere_lattice(d, _PAIR_SAMPLES)
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
