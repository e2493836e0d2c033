"""Billiard dynamics in the exterior of a scene: specular tracing,
itineraries, and a time-reversal consistency probe.

Grazing hits do not reflect. A tangent ray to a strictly convex body is the
limit of nearby non-hitting rays, so the trajectory continues straight
through the tangency; the event is still recorded and flagged.

The trapped set is not decidable numerically. Tracing classifies a
trajectory as ``cutoff`` once it exceeds the reflection or path-length
limits, and every consumer treats cutoff as trapped-for-this-experiment.

Every trace runs on the batched kernel (_trace_many). Travel root refinement
traces nothing: it solves for the reflection points of each word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .geometry import ROOT_TOL, Scene, _as_tuple, _check_ray, _check_unit, _dot, _hits, evaluate_body

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


class _EventLog(NamedTuple):
    """Every event of a batch of traces, one entry per event, grouped by ray
    and in order along each ray: the ray's row, the obstacle id, the arc
    index (-1 for a body), the point, the unit normal (facing the ray on a
    curve), the grazing flag, the path length from the start and the
    direction after the event."""

    rows: np.ndarray
    obstacle: np.ndarray
    arc: np.ndarray
    point: np.ndarray
    normal: np.ndarray
    grazing: np.ndarray
    length: np.ndarray
    direction: np.ndarray


def _trace_many(scene: Scene, O: np.ndarray, U: np.ndarray, limits: Optional[TraceLimits] = None):
    """Trace every row of O (start points) along the same row of U (unit
    directions), under limits or else the default ones. The rays advance in
    lockstep, one _hits call per step. Only the rays still in flight are
    held, compacted, as (d, n) coordinate arrays, filtered once per step by
    the rays that hit; a ray that escapes or is cut off leaves the flight,
    and its last leg is read at the end from its last event in the log. On
    a body scene under the default limits each row is bitwise the float
    trace that runs _first_hit_nd step by step: reflections and path
    lengths take their coordinate-order sums.

    Returns per ray (escaped, leg_origin, leg_length, direction): the start
    of the last free leg (the last event point, or the start point when
    there was none), the path length up to it and the direction along it;
    and the _EventLog of all rays.
    """
    nmax, lmax = (limits or TraceLimits()).resolved(scene)
    a = scene.ball_radius
    off = SURFACE_OFFSET_FRAC * a
    skip = GRAZE_SKIP_FRAC * a
    O = np.asarray(O, dtype=float)
    n_rays = len(O)
    escaped = np.zeros(n_rays, dtype=bool)
    # In flight: each ray's row, query origin, direction, leg start, path
    # length and reflection count.
    ray = np.arange(n_rays)
    o = O.T
    u = np.asarray(U, dtype=float).T
    leg = o
    length = np.zeros(n_rays)
    nrefl = np.zeros(n_rays, dtype=int)
    # An empty first step fixes the log's dtypes and shapes, also for no rays.
    none = ray[:0]
    steps = [(none, none, none, o[:, :0], o[:, :0], none < 0, length[:0], o[:, :0])]
    while ray.size:
        rows, _, ids, arcs, grazing, p, n = _hits(scene, o, u)
        if rows.size < ray.size:
            escaped[np.delete(ray, rows)] = True
        ray, length, nrefl = ray[rows], length[rows], nrefl[rows]
        v, leg = u.take(rows, axis=1), leg.take(rows, axis=1)
        step = p - leg
        length = length + np.sqrt(_dot(step, step))
        w = v - 2.0 * _dot(v, n) * n
        u = w / np.sqrt(_dot(w, w))
        o = p + off * n
        if grazing.any():
            # A grazing ray keeps its direction and steps past the tangency.
            u = np.where(grazing, v, u)
            o = np.where(grazing, p + skip * v, o)
        nrefl = nrefl + ~grazing
        leg = p
        steps.append((ray, ids, arcs, p, n, grazing, length, u))
        keep = (nrefl < nmax) & (length < lmax)
        if not keep.all():
            i = np.flatnonzero(keep)
            ray, length, nrefl = ray[i], length[i], nrefl[i]
            o, u, leg = o.take(i, axis=1), u.take(i, axis=1), leg.take(i, axis=1)
    rows, ids, arcs, points, normals, grazing, length, after = (
        np.concatenate(field, axis=-1) for field in zip(*steps))
    # Each ray has at most one event per step, so a stable sort groups every
    # ray's events in order.
    order = np.argsort(rows, kind="stable")
    log = _EventLog(rows[order], ids[order], arcs[order], points.T[order], normals.T[order],
                    grazing[order], length[order], after.T[order])
    # Each ray's last event, where it has one, ends the ray.
    last = np.flatnonzero(np.diff(log.rows, append=-1))
    legs, lengths, dirs = O.copy(), np.zeros(n_rays), np.array(U, dtype=float)
    r = log.rows[last]
    legs[r], lengths[r], dirs[r] = log.point[last], log.length[last], log.direction[last]
    return escaped, legs, lengths, dirs, log


def _itineraries(log: _EventLog, n: int) -> list:
    """The obstacle ids of the reflections (grazings excluded) of each of the
    n rays of a _trace_many log, as tuples."""
    refl = ~log.grazing
    ids = log.obstacle[refl].tolist()
    ends = np.cumsum(np.bincount(log.rows[refl], minlength=n)).tolist()
    return [tuple(ids[s:e]) for s, e in zip([0] + ends[:-1], ends)]


def _sphere_exit(scene: Scene, legs: np.ndarray, dirs: np.ndarray, r: float):
    """(s, disc) for the free legs from the rows of legs along the rows of
    dirs and the sphere of radius r about the ball center: s is the distance
    to the leg's last crossing of it, and disc is negative where the leg
    misses it, where s is the distance of closest approach instead. Sums go
    in coordinate order."""
    w = legs - np.asarray(scene.ball_center)
    b = _coldot(w, dirs)
    disc = b * b - (_coldot(w, w) - r * r)
    return -b + np.sqrt(np.maximum(disc, 0.0)), disc


def _coldot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row inner products summed column by column from the first, the order
    of the float kernels' sums."""
    return _dot(a.T, b.T)


def trace(scene: Scene, state: PhaseState, limits: Optional[TraceLimits] = None) -> TrajectoryRecord:
    """Trace the billiard trajectory of an exterior phase point: the batched
    kernel on one ray.

    Reflection events apply the specular law; grazing events record the
    tangency and continue straight. An escaped record ends where its last
    free leg leaves the sphere of radius 2a about the ball center, moving
    outward; a cutoff record ends at its last event. Raises ValueError
    unless the state has the scene's dimension and starts outside every
    body (an implicit value of at least -ROOT_TOL).
    """
    _check_ray(scene.dimension, state.point, state.direction)
    for i, body in enumerate(scene.bodies):
        if evaluate_body(body, state.point)[0] < -ROOT_TOL:
            raise ValueError(f"the start point lies inside body {i}")
    escaped, legs, lengths, dirs, log = _trace_many(scene, np.array([state.point]),
                                                    np.array([state.direction]), limits)
    fpt, fdir, total = legs[0].tolist(), dirs[0].tolist(), float(lengths[0])
    if escaped[0]:
        s = max(float(_sphere_exit(scene, legs[0], dirs[0], 2.0 * scene.ball_radius)[0]), 0.0)
        fpt = [p + s * u for p, u in zip(fpt, fdir)]
        total += s
    # The log's fields after the row are the Event's, in its order.
    events = zip(*(field.tolist() for field in log[1:]))
    return TrajectoryRecord(
        initial=state,
        events=tuple(Event(oid, None if arc < 0 else arc, tuple(p), tuple(n), g, length, tuple(w))
                     for oid, arc, p, n, g, length, w in events),
        final=PhaseState(fpt, fdir),
        total_length=total,
        classification=ESCAPED if escaped[0] else CUTOFF,
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
