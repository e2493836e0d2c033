"""Billiard dynamics in the exterior of a scene: specular tracing,
itineraries, and a time-reversal consistency probe.

Grazing hits do not reflect. A tangent ray to a strictly convex body is the
limit of nearby non-hitting rays, so the trajectory continues straight
through the tangency; the event is still recorded and flagged.

The trapped set is not decidable numerically. Tracing classifies a
trajectory as ``cutoff`` once it exceeds the reflection or path-length
limits, and every consumer treats cutoff as trapped-for-this-experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .geometry import (Scene, _as_tuple, _check_unit, _first_hit_2d, _first_hits,
                       _nearest_body_hit, _rowdot)

# Standard ray hygiene: push the next query origin off the surface after a
# reflection, and slightly past the tangent point after a grazing event.
# Both are far below every tolerance used by the observables.
SURFACE_OFFSET_FRAC = 1e-12
GRAZE_SKIP_FRAC = 1e-9

DEFAULT_MAX_REFLECTIONS = 10_000
DEFAULT_LENGTH_FACTOR = 10_000.0

ESCAPED = "escaped"
CUTOFF = "cutoff"


class ReversibilityError(RuntimeError):
    """Reversed trajectory disagrees in event count (tangency-threshold artifact)."""


@dataclass(frozen=True)
class PhaseState:
    """Finite position plus unit direction."""

    point: tuple
    direction: tuple

    def __post_init__(self):
        p = _as_tuple(self.point)
        u = _as_tuple(self.direction)
        if len(p) != len(u):
            raise ValueError("point/direction dimension mismatch")
        if not all(map(math.isfinite, p)):
            raise ValueError("point must be finite")
        _check_unit(u)
        object.__setattr__(self, "point", p)
        object.__setattr__(self, "direction", u)


@dataclass(frozen=True)
class TraceLimits:
    """Finite surrogate for unbounded scattering trajectories."""

    max_reflections: int = DEFAULT_MAX_REFLECTIONS
    max_path_length: float = None

    def resolved(self, scene: Scene) -> tuple[int, float]:
        a = scene.ball_radius
        lmax = self.max_path_length if self.max_path_length is not None else DEFAULT_LENGTH_FACTOR * a
        if self.max_reflections < 1:
            raise ValueError("max_reflections must be at least 1")
        # Written as "not (lo < x < inf)" so that NaN and infinity fail too.
        if not (0.0 < lmax < math.inf):
            raise ValueError("max_path_length must be finite and positive")
        return int(self.max_reflections), float(lmax)


@dataclass(frozen=True)
class Event:
    """One boundary encounter along a trajectory."""

    obstacle: int
    arc: Optional[int]
    point: tuple
    normal: tuple
    grazing: bool
    path_length: float
    direction_after: tuple


@dataclass(frozen=True)
class TrajectoryRecord:
    initial: PhaseState
    events: tuple
    final: PhaseState
    total_length: float
    classification: str

    @property
    def escaped(self) -> bool:
        return self.classification == ESCAPED

    @property
    def reflections(self) -> int:
        return sum(1 for e in self.events if not e.grazing)

    @property
    def grazings(self) -> int:
        return sum(1 for e in self.events if e.grazing)


def reflect(v, n) -> np.ndarray:
    """Specular reflection v' = v - 2 <v,n> n of a unit direction."""
    v = np.asarray(v, dtype=float)
    n = np.asarray(n, dtype=float)
    out = v - 2.0 * float(v @ n) * n
    return out / float(np.linalg.norm(out))


def _trace_raw(scene: Scene, point, direction, limits: Optional[TraceLimits] = None):
    """Kernel trace; events are raw tuples
    (obstacle, arc, point, normal, grazing, cum_length, direction_after).
    Without limits, the scene's default limits apply.

    Returns (escaped, events, leg_origin, direction, leg_length), ending at
    the last free leg: its origin (the last event point, or the start point
    when there was no event), the path length up to it, and the direction
    along it. An escaped trace runs to infinity along that leg; a cutoff
    trace stops at its origin.
    """
    if limits is None:
        nmax, lmax = DEFAULT_MAX_REFLECTIONS, DEFAULT_LENGTH_FACTOR * scene.ball_radius
    else:
        nmax, lmax = limits.resolved(scene)
    if scene.dimension == 2:
        return _trace_2d(scene, point, direction, nmax, lmax)
    return _trace_nd(scene, point, direction, nmax, lmax)


def _trace_2d(scene: Scene, point, direction, nmax: int, lmax: float):
    k = scene._k2
    a = scene.ball_radius
    off = SURFACE_OFFSET_FRAC * a
    skip = GRAZE_SKIP_FRAC * a
    ox, oy = float(point[0]), float(point[1])
    ux, uy = float(direction[0]), float(direction[1])
    px_prev, py_prev = ox, oy
    total = 0.0
    nrefl = 0
    events = []
    while True:
        h = _first_hit_2d(k, ox, oy, ux, uy)
        if h is None:
            return True, events, (px_prev, py_prev), (ux, uy), total
        oid, arc, t, px, py, nx, ny, cosi, grazing = h
        dx = px - px_prev
        dy = py - py_prev
        total += math.sqrt(dx * dx + dy * dy)
        px_prev, py_prev = px, py
        if grazing:
            events.append((oid, arc, (px, py), (nx, ny), True, total, (ux, uy)))
            ox = px + skip * ux
            oy = py + skip * uy
        else:
            d = 2.0 * (ux * nx + uy * ny)
            ux -= d * nx
            uy -= d * ny
            nn = math.sqrt(ux * ux + uy * uy)
            ux /= nn
            uy /= nn
            events.append((oid, arc, (px, py), (nx, ny), False, total, (ux, uy)))
            nrefl += 1
            ox = px + off * nx
            oy = py + off * ny
        if nrefl >= nmax or total >= lmax:
            return False, events, (px, py), (ux, uy), total


def _trace_nd(scene: Scene, point, direction, nmax: int, lmax: float):
    a = scene.ball_radius
    off = SURFACE_OFFSET_FRAC * a
    skip = GRAZE_SKIP_FRAC * a
    o = np.asarray(point, dtype=float).copy()
    u = np.asarray(direction, dtype=float).copy()
    prev = o
    total = 0.0
    nrefl = 0
    events = []
    while True:
        hit = _nearest_body_hit(scene, o, u)
        if hit is None:
            return True, events, _as_tuple(prev), _as_tuple(u), total
        oid, _, p, n, _, grazing = hit
        total += float(np.linalg.norm(p - prev))
        prev = p
        point, normal = _as_tuple(p), _as_tuple(n)
        if grazing:
            events.append((oid, None, point, normal, True, total, _as_tuple(u)))
            o = p + skip * u
        else:
            u = u - 2.0 * float(u @ n) * n
            u /= float(np.linalg.norm(u))
            events.append((oid, None, point, normal, False, total, _as_tuple(u)))
            nrefl += 1
            o = p + off * n
        if nrefl >= nmax or total >= lmax:
            return False, events, point, _as_tuple(u), total


class _EventLog(NamedTuple):
    """Every event of a batch of traces, one entry per event, grouped by ray
    and in order along each ray: the ray's row, the obstacle id, the arc
    index (-1 for a body), the point, the grazing flag and the direction
    after the event."""

    rows: np.ndarray
    obstacle: np.ndarray
    arc: np.ndarray
    point: np.ndarray
    grazing: np.ndarray
    direction: np.ndarray


def _trace_many(scene: Scene, O: np.ndarray, U: np.ndarray):
    """_trace_raw on every row of O (start points) and U (unit directions)
    under the default limits. The rays advance in lockstep, one batched
    kernel call per step for the rays still in flight, and each ray's
    numbers are bitwise those of its single trace: in d >= 3 reflections and
    path lengths take the BLAS row products of _trace_nd, in the plane the
    coordinate-order sums of _trace_2d.

    Returns per ray (escaped, leg_origin, leg_length, direction): the start
    of the last free leg (the last event point, or the start point when
    there was none), the path length up to it and the direction along it;
    and the _EventLog of all rays.
    """
    a = scene.ball_radius
    off = SURFACE_OFFSET_FRAC * a
    skip = GRAZE_SKIP_FRAC * a
    lmax = DEFAULT_LENGTH_FACTOR * a
    o = np.array(O, dtype=float)
    u = np.array(U, dtype=float)
    leg = o.copy()
    length = np.zeros(len(o))
    nrefl = np.zeros(len(o), dtype=int)
    escaped = np.zeros(len(o), dtype=bool)
    dot = _coldot if scene.dimension == 2 else _rowdot
    # An empty first step fixes the log's dtypes and shapes, also for no rays.
    steps = [(np.zeros(0, dtype=int),) * 3 + (o[:0], np.zeros(0, dtype=bool), o[:0])]
    live = np.arange(len(o))
    while live.size:
        _, ids, arcs, grazing, p, n = _first_hits(scene, o[live], u[live])
        hit = ids >= 0
        escaped[live[~hit]] = True
        live, ids, arcs, grazing, p, n = (live[hit], ids[hit], arcs[hit], grazing[hit],
                                          p[hit], n[hit])
        step = p - leg[live]
        length[live] += np.sqrt(dot(step, step))
        leg[live] = p
        rows = live[grazing]
        o[rows] = p[grazing] + skip * u[rows]
        rows, q, n = live[~grazing], p[~grazing], n[~grazing]
        v = u[rows]
        v = v - (2.0 * dot(v, n))[:, None] * n
        u[rows] = v / np.sqrt(dot(v, v))[:, None]
        o[rows] = q + off * n
        nrefl[rows] += 1
        steps.append((live, ids, arcs, p, grazing, u[live]))
        live = live[(nrefl[live] < DEFAULT_MAX_REFLECTIONS) & (length[live] < lmax)]
    log = [np.concatenate(field) for field in zip(*steps)]
    # Each step's rows ascend, so a stable sort groups every ray's events in order.
    order = np.argsort(log[0], kind="stable")
    return escaped, leg, length, u, _EventLog(*(field[order] for field in log))


def _itineraries(log: _EventLog, n: int) -> list:
    """The obstacle ids of the reflections (grazings excluded) of each of the
    n rays of a _trace_many log, as tuples."""
    refl = ~log.grazing
    ids = log.obstacle[refl].tolist()
    ends = np.cumsum(np.bincount(log.rows[refl], minlength=n)).tolist()
    return [tuple(ids[s:e]) for s, e in zip([0] + ends[:-1], ends)]


def _escape_distance(scene: Scene, origins: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Distance along each free leg from the rows of origins along the rows
    of dirs to where it last crosses the sphere of radius 2a about the ball
    center; never negative, and the distance of closest approach for a leg
    that misses that sphere."""
    w = origins - np.asarray(scene.ball_center)
    b = _coldot(w, dirs)
    r = 2.0 * scene.ball_radius
    disc = b * b - (_coldot(w, w) - r * r)
    s = np.where(disc >= 0.0, -b + np.sqrt(np.maximum(disc, 0.0)), -b)
    return np.maximum(s, 0.0)


def _coldot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row inner products summed column by column from the first, the order
    of a scalar loop over coordinates."""
    return sum(a[..., k] * b[..., k] for k in range(a.shape[-1]))


def trace(scene: Scene, state: PhaseState, limits: Optional[TraceLimits] = None) -> TrajectoryRecord:
    """Trace the billiard trajectory of an exterior phase point.

    Reflection events apply the specular law; grazing events record the
    tangency and continue straight. An escaped record ends where its last
    free leg leaves the sphere of radius 2a about the ball center, moving
    outward; a cutoff record ends at its last event.
    """
    escaped, raw, fpt, fdir, total = _trace_raw(scene, state.point, state.direction, limits)
    if escaped:
        s = float(_escape_distance(scene, np.array(fpt), np.array(fdir)))
        fpt = tuple(p + s * u for p, u in zip(fpt, fdir))
        total += s
    return TrajectoryRecord(
        initial=state,
        events=tuple(Event(*e) for e in raw),
        final=PhaseState(fpt, fdir),
        total_length=total,
        classification=ESCAPED if escaped else CUTOFF,
    )


def itinerary(record: TrajectoryRecord) -> tuple[int, ...]:
    """Obstacle ids of the proper reflections, in order; grazings excluded."""
    return tuple(e.obstacle for e in record.events if not e.grazing)


def time_reverse_deviation(scene: Scene, record: TrajectoryRecord) -> float:
    """Retrace from the reversed final state and compare reflection points.

    Returns the maximum distance between reversed and original events taken
    in opposite order. A mismatch in event count raises ReversibilityError,
    which signals a tangency-threshold artifact rather than a bug in the
    caller.
    """
    if not record.escaped:
        raise ValueError("time reversal needs an escaped trajectory")
    back = PhaseState(record.final.point, tuple(-c for c in record.final.direction))
    rev = trace(scene, back)
    if len(rev.events) != len(record.events):
        raise ReversibilityError(
            f"forward trajectory has {len(record.events)} events, reversed has {len(rev.events)}")
    if not record.events:
        return 0.0
    dev = 0.0
    n = len(record.events)
    for i, ev in enumerate(rev.events):
        fwd = record.events[n - 1 - i]
        dev = max(dev, math.dist(ev.point, fwd.point))
    return dev
