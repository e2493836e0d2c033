"""The two scattering observables.

A sojourn time is the time a trajectory spends between the two hyperplanes
tangent to the reference ball that face the incoming and outgoing
directions, minus the ball diameter. It is computed from the reflection
points as T = L + <p0 - c, omega> - <x_k - c, theta> (launch point p0, last
event x_k, path length L between them, ball center c). The formula holds
for any reference ball containing the obstacles, so the result does not
depend on the ball's radius, which is one of the acceptance checks.

Travelling times are found by a shooting method: seed inward directions at a
sphere point x, trace, and locate the last crossing of the reference sphere
on the outgoing leg. In d = 2 seeds whose exits straddle the target point y
bracket a root, refined by Illinois regula falsi (Dowell & Jarratt, BIT 1971)
on the exit-angle miss, a secant step kept inside the bracket; in d = 3 each
local minimum of the seeds' exit miss is polished by Levenberg-Marquardt on
the miss vector exit_pt - y. Both stop at one goal, a miss below
_RESIDUAL_MARGIN times the root tolerance: an n = 3 ball-plus-ellipsoid
table takes 7-13 shots per raw polish and 1 or 4 per mirror polish, 91 in
all. A table first traces the seed sweeps of all its source points, in
lockstep batches through one batched ray kernel: in d = 3 every seed in one
batch, in d = 2 every seed in one and the gap midpoints of each split depth
in one more. Each sweep serves every partner of its point, and only root
refinement (regula falsi, polish, mirror polish) traces one ray at a time;
the sojourn scan traces all its launches in one batch too. The search is
symmetrized: each root found sweeping from one endpoint is time-reversed and
re-polished once from the other, and the pair's cells in both orders are
built from those two mirror lists, so swapping the endpoints returns
matching times by construction. Brackets that do not converge and polishes
that miss y are dropped and counted in the table diagnostics, next to the
number of refinement shots.
Travel in d >= 4, on scenes with curve obstacles, between endpoints off the
reference sphere and with fewer than one seed is refused with ContractError
rather than answered with empty sets.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .dynamics import _coldot, _itineraries, _trace_many, _trace_raw
from .geometry import Scene, _as_tuple, fibonacci_sphere

DIRECTION_MATCH_TOL = 1e-9

# Shooting defaults: seed counts resolve all few-reflection branches in
# desk-scale scenes; long itineraries are resolution limited.
SEEDS_2D = 720
SEEDS_3D = 2000
REFINE_TOL_FRAC = 1e-7
DEDUP_FRAC = 1e-5
_ILLINOIS_CAP = 90

# The d = 3 polish: initial Marquardt damping, forward-difference step, shot
# cap, and stall rule (give up when |miss| is above _STALL_FACTOR times its
# value _STALL_SHOTS shots earlier). On the ball-plus-ellipsoid tables a
# polish that reaches a root takes at most 64 shots and at least halves
# |miss| within any 30; one stuck at a minimum of the miss that is not a
# root stops improving.
_LM_DAMPING = 1e-3
_FD_STEP = math.sqrt(float(np.finfo(float).eps))
_POLISH_CAP = 200
_STALL_SHOTS = 30
_STALL_FACTOR = 0.9

# The root solvers drive the miss a factor below the root tolerance so that
# two independently converged roots of one geodesic agree in time within the
# stated tolerance.
_RESIDUAL_MARGIN = 0.25

# Why a raw root search is dropped: the solver reached its step or shot cap,
# a shot did not leave the sphere, or the search ended with an exit missing
# y by its goal or more. Their sum is the table's dropped_clusters.
_DROP_REASONS = ("dropped_cap", "dropped_lost", "dropped_residual")

_TWO_PI = 2.0 * math.pi


class ContractError(ValueError):
    """A caller violated an interface contract."""


@dataclass(frozen=True)
class SLSSample:
    """One measured point of the sojourn-time scan."""

    index: int
    omega: tuple
    impact: tuple
    impact_point: tuple
    theta: tuple
    sojourn: float
    reflections: int
    grazing: bool
    itinerary: tuple


@dataclass(frozen=True)
class TravellingTimeSample:
    """One geodesic between two reference-sphere points."""

    pair: int
    x: tuple
    y: tuple
    t: float
    reflections: int
    dir_in: tuple
    dir_out: tuple
    residual: float
    itinerary: tuple


@dataclass(frozen=True)
class SpectrumTable:
    """Finite surrogate of a spectrum: per-cell time sets over a fixed grid.

    ``grid`` is a canonical description (kind, resolutions, tolerances, ball
    data); two tables are comparable only when their grids match exactly.
    ``cells`` holds one sorted time tuple per grid cell, empty when nothing
    was measured there.
    """

    kind: str
    scene_digest: str
    grid: tuple
    cells: tuple
    samples: tuple
    diagnostics: tuple

    def diagnostics_dict(self) -> dict:
        return dict(self.diagnostics)


def _grid_tuple(d: dict) -> tuple:
    return tuple(sorted(d.items()))


# ---------------------------------------------------------------------------
# Sojourn times
# ---------------------------------------------------------------------------

def sojourn_time(scene: Scene, record, incoming, outgoing) -> float:
    """Sojourn time of an escaped trajectory for directions (incoming, outgoing).

    The time from crossing the reference ball's tangent hyperplane facing
    the incoming direction to crossing the one facing the outgoing
    direction, minus the ball diameter. From the reflection points this is
    T = L + <p0 - c, omega> - <x_k - c, theta>, with p0 the launch point,
    x_k the last event, L the path length between them, omega and theta the
    record's incoming and outgoing directions and c the ball center; it
    holds for any reference ball containing the obstacles and does not
    depend on its radius. A trajectory without events gives 0.0.
    """
    if not record.escaped:
        raise ContractError("sojourn time is defined for escaped trajectories")
    win = np.asarray(incoming, dtype=float)
    wout = np.asarray(outgoing, dtype=float)
    din = np.asarray(record.initial.direction)
    dout = np.asarray(record.final.direction)
    if float(np.max(np.abs(din - win))) > DIRECTION_MATCH_TOL:
        raise ContractError("incoming direction disagrees with the record")
    if float(np.max(np.abs(dout - wout))) > DIRECTION_MATCH_TOL:
        raise ContractError("outgoing direction disagrees with the record")
    if not record.events:
        return 0.0
    last = record.events[-1]
    return float(_sojourns(scene, np.array(record.initial.point), din,
                           np.array(last.point), last.path_length, dout))


def _sojourns(scene: Scene, starts, win, points, lengths, wout):
    """T = L + <p0 - c, win> - <x_k - c, wout> for each path from a row of
    starts = p0 along win whose last event is the same row of points = x_k,
    at path length L, leaving along that row of wout."""
    c = np.asarray(scene.ball_center)
    return lengths + _coldot(starts - c, win) - _coldot(points - c, wout)


# ---------------------------------------------------------------------------
# Lattices
# ---------------------------------------------------------------------------

def plane_basis(direction: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the hyperplane normal to direction."""
    d = direction.size
    if d == 2:
        return np.array([[-direction[1], direction[0]]])
    basis = []
    seed = np.eye(d)[np.argsort(np.abs(direction))]
    for cand in seed:
        v = cand - (cand @ direction) * direction
        for b in basis:
            v -= (v @ b) * b
        n = float(np.linalg.norm(v))
        if n > 1e-12:
            basis.append(v / n)
        if len(basis) == d - 1:
            break
    return np.array(basis)


def sunflower_disk(n: int) -> np.ndarray:
    """Deterministic low-discrepancy lattice on the unit disk."""
    k = np.arange(n)
    r = np.sqrt((k + 0.5) / n)
    phi = _TWO_PI * k / ((1.0 + math.sqrt(5.0)) / 2.0) ** 2
    return np.column_stack([r * np.cos(phi), r * np.sin(phi)])


def impact_lattice(dimension: int, n: int, radius: float) -> np.ndarray:
    """n impact offsets covering the radius-a disk of the launch hyperplane."""
    if dimension == 2:
        return (-radius + 2.0 * radius * (np.arange(n) + 0.5) / n)[:, None]
    if dimension == 3:
        return radius * sunflower_disk(n)
    rng = np.random.default_rng(7)
    pts = []
    while len(pts) < n:
        cand = rng.uniform(-1.0, 1.0, size=dimension - 1)
        if float(cand @ cand) <= 1.0:
            pts.append(cand * radius)
    return np.array(pts)


def sphere_lattice(dimension: int, n: int, phase: float = 0.0) -> np.ndarray:
    """Deterministic lattice of unit vectors (reference-sphere directions)."""
    if dimension == 2:
        ang = phase + _TWO_PI * np.arange(n) / n
        return np.column_stack([np.cos(ang), np.sin(ang)])
    if dimension == 3:
        return fibonacci_sphere(n)
    rng = np.random.default_rng(11)
    u = rng.normal(size=(n, dimension))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def unit_vector(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    # Written as "not <=" so that a NaN or infinite norm fails too.
    if not abs(n - 1.0) <= 1e-9:
        raise ContractError("direction must be a finite unit vector")
    return v / n


# ---------------------------------------------------------------------------
# Sojourn-time scan over one incoming direction
# ---------------------------------------------------------------------------

def scan_sls(scene: Scene, incoming, n_impacts: int) -> SpectrumTable:
    """Sample the sojourn-time spectrum for one incoming direction.

    One trajectory is launched per impact-lattice point of the tangent
    hyperplane facing ``incoming``, all traced in one lockstep batch.
    Escaped trajectories yield one sample each; cutoff trajectories are
    counted but contribute nothing, which is how trapped-set shadows show up
    in the table.
    """
    if n_impacts < 1:
        raise ContractError("a sojourn-time scan needs at least one impact point")
    win = unit_vector(incoming)
    d = scene.dimension
    center = np.asarray(scene.ball_center)
    a = scene.ball_radius
    basis = plane_basis(win)
    offsets = impact_lattice(d, n_impacts, a)
    foot = center - a * win
    launches = foot + np.matmul(offsets[:, None, :], basis)[:, 0]
    escaped, legs, lengths, dirs, log = _trace_many(scene, launches, np.tile(win, (n_impacts, 1)))
    itins = _itineraries(log, n_impacts)
    grazed = np.bincount(log.rows[log.grazing], minlength=n_impacts) > 0
    # A ray without events keeps its launch point, length 0 and direction win,
    # so its two inner products cancel exactly and T = 0.0.
    times = _sojourns(scene, launches, win, legs, lengths, dirs)
    omega = _as_tuple(win)
    samples = []
    cells = []
    for i, (ok, launch, impact, theta, t_soj, graze) in enumerate(zip(
            escaped.tolist(), launches.tolist(), offsets.tolist(), dirs.tolist(),
            times.tolist(), grazed.tolist())):
        if not ok:
            cells.append(())
            continue
        samples.append(SLSSample(
            index=i,
            omega=omega,
            impact=tuple(impact),
            impact_point=tuple(launch),
            theta=tuple(theta),
            sojourn=t_soj,
            reflections=len(itins[i]),
            grazing=graze,
            itinerary=itins[i],
        ))
        cells.append((t_soj,))
    grid = _grid_tuple({
        "kind": "sls",
        "omega": _as_tuple(win),
        "n": int(n_impacts),
        "ball_center": _as_tuple(center),
        "ball_radius": float(a),
    })
    return SpectrumTable("sls", scene.digest, grid, tuple(cells), tuple(samples),
                         (("cutoff", n_impacts - len(samples)),))


# ---------------------------------------------------------------------------
# Travelling times: seed sweeps
# ---------------------------------------------------------------------------

def _exit_crossing(scene: Scene, leg_origin, leg_length: float, fdir):
    """Last crossing of the reference sphere on the outgoing free leg from
    leg_origin, at path length leg_length, along fdir; returns the crossing
    point (a tuple) and its path length, or (None, None) when the leg does
    not cross. Products are summed in coordinate order, as _coldot sums them."""
    a = scene.ball_radius
    w = list(map(operator.sub, leg_origin, scene.ball_center))
    b = sum(map(operator.mul, w, fdir))
    g = sum(map(operator.mul, w, w)) - a * a
    disc = b * b - g
    if disc < 0.0:
        return None, None
    s = -b + math.sqrt(disc)
    if s < 0.0:
        return None, None
    return tuple(p + s * v for p, v in zip(leg_origin, fdir)), leg_length + s


def _exit_crossings(scene: Scene, legs: np.ndarray, dirs: np.ndarray):
    """_exit_crossing of the free legs starting at the rows of legs along the
    rows of dirs; returns the exit points and a mask of the legs that cross.
    Each row's exit point is bitwise the scalar one."""
    a = scene.ball_radius
    w = legs - np.asarray(scene.ball_center)
    b = _coldot(w, dirs)
    g = _coldot(w, w) - a * a
    disc = b * b - g
    s = -b + np.sqrt(np.maximum(disc, 0.0))
    return legs + s[:, None] * dirs, (disc >= 0.0) & (s >= 0.0)


def _shoot(scene: Scene, x, u):
    """Trace from x along u to the last reference-sphere crossing; returns
    (u, events, fdir, exit_pt, t_exit), or None when the ray does not leave."""
    escaped, events, leg, fdir, length = _trace_raw(scene, x, u)
    if not escaped:
        return None
    exit_pt, t_exit = _exit_crossing(scene, leg, length, fdir)
    if exit_pt is None:
        return None
    return u, events, fdir, exit_pt, t_exit


def _sphere_angle(scene: Scene, p) -> float:
    """Polar angle of a point around the ball center (d = 2)."""
    center = scene.ball_center
    return math.atan2(p[1] - center[1], p[0] - center[0])


def _frame_at(scene: Scene, x):
    """The inward normal m of the reference circle at x and its turn mp by a
    right angle, as tuples (d = 2)."""
    dx = scene.ball_center[0] - float(x[0])
    dy = scene.ball_center[1] - float(x[1])
    nn = math.sqrt(dx * dx + dy * dy)
    m = (dx / nn, dy / nn)
    return m, (-m[1], m[0])


# Seed gaps that hide structure get subdivided before bracketing: endpoints
# disagreeing on itinerary mark a branch edge, and a large exit-angle jump
# between same-itinerary endpoints marks a narrow branch island in between
# (expanding dynamics make such islands sweep a wide exit range). Roots still
# unresolved below the split depth are legitimately dropped as near-tangent.
_BOUNDARY_SPLIT_DEPTH = 6
_EXIT_JUMP_TOL = 0.08


def _launch_dir(frame, psi: float) -> tuple:
    """Inward direction at angle psi from the sphere normal of a d = 2 frame,
    by the arithmetic of the lockstep sweep."""
    m, mp = frame
    c, s = math.cos(psi), math.sin(psi)
    return (c * m[0] + s * mp[0], c * m[1] + s * mp[1])


@dataclass(frozen=True)
class _Sweep2D:
    frame: tuple
    psi: list  # launch angles, increasing
    escaped: np.ndarray
    angle: np.ndarray  # exit angle about the ball center, 0 where not escaped
    itinerary: list  # reflection obstacle ids, () where not escaped


def _sweeps_2d(scene: Scene, xs: np.ndarray, n_seeds: int):
    """The inward seed sweep from every point of xs, in lockstep batches: all
    seeds in one, then the seed gaps that need a split at each depth in one
    each, every midpoint splitting its gap; a sweep is its shots sorted by
    psi. Returns (sweeps, cutoff seeds, rays traced)."""
    frames = [_frame_at(scene, x) for x in xs]
    m = np.array([f[0] for f in frames])
    mp = np.array([f[1] for f in frames])
    center = np.asarray(scene.ball_center)

    def shots(src, psi):
        u = (np.array([math.cos(p) for p in psi.tolist()])[:, None] * m[src]
             + np.array([math.sin(p) for p in psi.tolist()])[:, None] * mp[src])
        escaped, legs, _, dirs, log = _trace_many(scene, xs[src], u)
        itins = _itineraries(log, len(u))
        pts, crosses = _exit_crossings(scene, legs, dirs)
        ok = escaped & crosses
        # math.atan2, not np.arctan2, which can differ in the last bit.
        angle = np.array([math.atan2(py, px) if k else 0.0 for (px, py), k
                          in zip((pts - center).tolist(), ok.tolist())])
        return ok, angle, [t if k else () for t, k in zip(itins, ok.tolist())]

    src = np.repeat(np.arange(len(xs)), n_seeds)
    psi = np.tile([-0.5 * math.pi + math.pi * (k + 0.5) / n_seeds for k in range(n_seeds)],
                  len(xs))
    escaped, angle, itins = shots(src, psi)
    cutoff = int(np.count_nonzero(~escaped))
    a = np.flatnonzero((np.arange(psi.size) + 1) % n_seeds)
    b = a + 1
    for _ in range(_BOUNDARY_SPLIT_DEPTH):
        split = ((escaped[a] != escaped[b])
                 | np.array([itins[i] != itins[j] for i, j in zip(a.tolist(), b.tolist())], bool)
                 | (escaped[a] & (np.abs(_wrap(angle[a] - angle[b])) > _EXIT_JUMP_TOL)))
        a, b = a[split], b[split]
        if not a.size:
            break
        mid = np.arange(psi.size, psi.size + a.size)
        src = np.concatenate([src, src[a]])
        psi = np.concatenate([psi, 0.5 * (psi[a] + psi[b])])
        more = shots(src[mid], psi[mid])
        escaped, angle = np.concatenate([escaped, more[0]]), np.concatenate([angle, more[1]])
        itins += more[2]
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
    order = np.lexsort((psi, src))
    ends = np.cumsum(np.bincount(src, minlength=len(xs)))
    sweeps = [_Sweep2D(f, psi[rows].tolist(), escaped[rows], angle[rows],
                       [itins[r] for r in rows.tolist()])
              for f, rows in zip(frames, np.split(order, ends[:-1]))]
    return sweeps, cutoff, int(psi.size)


def _wrap(angle):
    return (angle + math.pi) % _TWO_PI - math.pi


# ---------------------------------------------------------------------------
# Travelling times: root refinement
# ---------------------------------------------------------------------------

def _delta_at(scene, x, frame, psi, target_angle):
    shot = _shoot(scene, x, _launch_dir(frame, psi))
    if shot is None:
        return None, None
    return _wrap(_sphere_angle(scene, shot[3]) - target_angle), shot


def _root_tol(scene: Scene) -> float:
    """Largest exit miss of an accepted root, and largest time gap between
    two polishes of one root."""
    return REFINE_TOL_FRAC * scene.ball_radius


def _make_sample(scene, x, y, shot) -> Optional[TravellingTimeSample]:
    u, events, fdir, exit_pt, t_exit = shot
    ypt = np.asarray(y, dtype=float)
    ept = np.asarray(exit_pt, dtype=float)
    residual = float(np.linalg.norm(ept - ypt))
    if residual >= _root_tol(scene):
        return None
    itin = tuple(e[0] for e in events if not e[4])
    # Project the endpoint onto the plane through y transverse to the exit
    # ray: by stationarity of the reflected path length this removes the
    # first-order time error of the residual miss, so the reported time
    # matches the true root time to O(residual^2).
    t_corr = float(t_exit) + float((ypt - ept) @ np.asarray(fdir))
    # The pair index stays 0 until the merge sets it.
    return TravellingTimeSample(
        pair=0,
        x=_as_tuple(x),
        y=_as_tuple(y),
        t=t_corr,
        reflections=len(itin),
        dir_in=_as_tuple(u),
        dir_out=_as_tuple(fdir),
        residual=residual,
        itinerary=itin,
    )


def _angle_goal(scene) -> float:
    """Exit-angle miss at which the d = 2 root solver stops."""
    return _RESIDUAL_MARGIN * _root_tol(scene) / scene.ball_radius


def _illinois_2d(scene, x, y, target_angle, frame, a, b, fa, fb):
    """Illinois regula falsi (Dowell & Jarratt, BIT 1971) on the exit-angle
    miss over the launch-angle bracket (a, b), whose end misses fa and fb
    have opposite signs. Each step shoots the secant root c of the bracket,
    or its midpoint where c is not strictly inside, and c becomes the new
    end b. The old b becomes a when the miss at c has the other sign;
    otherwise a is kept and its miss halved, so that an end kept step after
    step cannot stall the bracket.

    Returns (sample, shots, reason): the sample is None when the bracket is
    dropped, and reason names why (one of _DROP_REASONS), else None.
    """
    goal = _angle_goal(scene)
    for step in range(1, _ILLINOIS_CAP + 1):
        c = b - fb * (b - a) / (fb - fa)
        if not min(a, b) < c < max(a, b):
            c = 0.5 * (a + b)
        dc, shot = _delta_at(scene, x, frame, c, target_angle)
        if dc is None:
            return None, step, "dropped_lost"
        if abs(dc) < goal or abs(b - a) < 1e-15:
            sample = _make_sample(scene, x, y, shot)
            return sample, step, None if sample is not None else "dropped_residual"
        if dc * fb < 0.0:
            a, fa = b, fb
        else:
            fa *= 0.5
        b, fb = c, dc
    return None, _ILLINOIS_CAP, "dropped_cap"


def _refine_pair_2d(scene, x, y, sweep: _Sweep2D):
    """The raw roots from x to y in the brackets of one sweep, and a Counter
    of refine_shots, dropped_clusters and the drops by reason."""
    ty = _sphere_angle(scene, y)
    frame, psi = sweep.frame, sweep.psi
    found = []
    tally = Counter()
    # Brackets may straddle a branch edge: the exit map is continuous across
    # a first-order tangency, so only escape status matters here; genuine
    # discontinuities fail the residual check and get dropped.
    both = sweep.escaped[:-1] & sweep.escaped[1:]
    delta = _wrap(sweep.angle - ty)
    da, db = delta[:-1], delta[1:]
    # An exact hit, or a sign change that is not a wrap across the antipode.
    take = both & ((da == 0.0) | ((da * db < 0.0) & (np.abs(da - db) < math.pi)))
    for i, fa, fb in zip(np.flatnonzero(take).tolist(), da[take].tolist(), db[take].tolist()):
        if fa == 0.0:
            tally["refine_shots"] += 1
            _, shot = _delta_at(scene, x, frame, psi[i], ty)
            if shot is not None:
                sample = _make_sample(scene, x, y, shot)
                if sample is not None:
                    found.append(sample)
            continue
        sample, shots, reason = _illinois_2d(scene, x, y, ty, frame, psi[i], psi[i + 1], fa, fb)
        tally["refine_shots"] += shots
        if sample is None:
            tally["dropped_clusters"] += 1
            tally[reason] += 1
        else:
            found.append(sample)
    return _dedup_samples(scene, found), tally


def _mirror_refine_2d(scene, s: TravellingTimeSample, x, y, frame_x):
    """Re-polish the time reversal of a (y, x) root as an (x, y) sample.

    The reversed launch direction is only a first guess: expansion along the
    path can push the plain re-shot miss above tolerance, so the root is
    re-bracketed locally around the guess. A candidate counts only when it
    reproduces the original travelling time, which rejects convergence onto
    a neighboring branch root. Returns (sample or None, shots fired).
    """
    m, mp = frame_x
    ux = -s.dir_out[0]
    uy = -s.dir_out[1]
    psi = math.atan2(ux * mp[0] + uy * mp[1], ux * m[0] + uy * m[1])
    ty = _sphere_angle(scene, y)
    d0, shot0 = _delta_at(scene, x, frame_x, psi, ty)
    shots = 1
    if d0 is None:
        return None, shots
    if abs(d0) < _angle_goal(scene):
        return _same_root(scene, _make_sample(scene, x, y, shot0), s), shots
    h = 1e-8
    while h <= 2e-3:
        for cand in (psi + h, psi - h):
            d1, _ = _delta_at(scene, x, frame_x, cand, ty)
            shots += 1
            if d1 is not None and d0 * d1 < 0.0 and abs(d0 - d1) < math.pi:
                got, used, _ = _illinois_2d(scene, x, y, ty, frame_x, psi, cand, d0, d1)
                shots += used
                got = _same_root(scene, got, s)
                if got is not None:
                    return got, shots
        h *= 4.0
    return None, shots


def _same_root(scene, candidate: Optional[TravellingTimeSample],
               s: TravellingTimeSample) -> Optional[TravellingTimeSample]:
    if candidate is None or abs(candidate.t - s.t) >= _root_tol(scene):
        return None
    return candidate


# Copies of one root converge to the same launch direction within ~1e-7 rad,
# while distinct same-itinerary roots are separated by branch scale; the
# direction check keeps near-degenerate pairs from collapsing.
_DEDUP_DIR_TOL = 1e-5


def _dedup_samples(scene, samples):
    gap = DEDUP_FRAC * scene.ball_radius
    out = []
    for s in sorted(samples, key=lambda s: (s.t, s.residual)):
        dup = False
        for kept in out:
            if (kept.itinerary == s.itinerary and abs(kept.t - s.t) < gap
                    and _dir_gap(kept.dir_in, s.dir_in) < _DEDUP_DIR_TOL):
                dup = True
                break
        if not dup:
            out.append(s)
    return out


def _dir_gap(u, v) -> float:
    return math.hypot(*(a - b for a, b in zip(u, v)))


def _mirror_all(scene, roots, x, y):
    """Time reversal of each (y, x) root re-polished as an (x, y) sample, None
    where the polish fails; returns (one entry per root, in order, shots)."""
    if scene.dimension == 2:
        frame_x = _frame_at(scene, x)
        got = [_mirror_refine_2d(scene, s, x, y, frame_x) for s in roots]
    else:
        got = [_mirror_refine_3d(scene, s, x, y) for s in roots]
    return [m for m, _ in got], sum(shots for _, shots in got)


def _merge_bidirectional(scene, own, own_mirrors, opposite_mirrors, pair):
    """Symmetric per-pair merge: an own root is kept only when its mirror
    re-polished from the opposite endpoint, and opposite-side roots enter as
    their re-polished mirrors. Both orders of one point pair are built from
    the same two mirror lists, so swapping x and y yields matching time sets
    by construction; one-way-only roots are near-tangent and are dropped."""
    kept = [s for s, m in zip(own, own_mirrors) if m is not None]
    kept += [m for m in opposite_mirrors if m is not None]
    return [replace(s, pair=pair) for s in _dedup_samples(scene, kept)]


def find_xy_geodesics(scene: Scene, x, y,
                      n_seeds: Optional[int] = None) -> list[TravellingTimeSample]:
    """All resolved geodesics entering the reference sphere at x and leaving at y.

    Sweeps run from both endpoints; a root counts only when it refines from
    both sides, and the result is symmetric under swapping the endpoints.
    This is the travel-table search on the two points x, y, so a table cell
    equals this call on its pair. The returned list may be empty: the
    travelling-time set of a pair can be empty (deep shadow) or
    under-resolved at the configured seed count. Raises ContractError for
    non-finite endpoints, endpoints off the reference sphere, fewer than
    one seed, scenes with curve obstacles, and d >= 4, where no search is
    implemented.
    """
    n_seeds = _seed_count(scene, n_seeds)
    pts = [np.asarray(x, dtype=float), np.asarray(y, dtype=float)]
    if not all(np.isfinite(p).all() for p in pts):
        raise ContractError("travel endpoints must be finite")
    center = np.asarray(scene.ball_center)
    for p in pts:
        if (p.shape != center.shape or abs(float(np.linalg.norm(p - center)) - scene.ball_radius)
                > _ON_SPHERE_FACTOR * _root_tol(scene)):
            raise ContractError(f"travel endpoint {_as_tuple(p)} is not on the reference sphere")
    cells = _travel(scene, pts, [(0, 1), (1, 0)], n_seeds)[0]
    return cells[0]


# An endpoint may sit this many root tolerances off the reference sphere.
_ON_SPHERE_FACTOR = 10.0


def _seed_count(scene: Scene, n_seeds: Optional[int]) -> int:
    """The seed count of a travel search, with the default filled in where
    None; refuses fewer than one seed, scenes with curve obstacles, which are
    demonstrations outside the travel search's bodies-only design, and
    d >= 4, where no search is implemented."""
    if scene.curves:
        raise ContractError("travelling times are not implemented for scenes with curve "
                            "obstacles, which are for demonstration only")
    if scene.dimension >= 4:
        raise ContractError("travelling times are implemented for d = 2 and d = 3 "
                            f"only, not d = {scene.dimension}")
    if n_seeds is None:
        n_seeds = SEEDS_2D if scene.dimension == 2 else SEEDS_3D
    if n_seeds < 1:
        raise ContractError(f"a travel search needs at least one seed, got {n_seeds}")
    return n_seeds


# ---------------------------------------------------------------------------
# Travelling times in d = 3
# ---------------------------------------------------------------------------

def _polish_3d(scene, x, y, u0):
    """Levenberg-Marquardt (Marquardt 1963, Moré 1978) on the miss
    exit_pt - y over the d - 1 tangent offsets of the launch direction u0.
    Each step takes a forward-difference Jacobian J (step sqrt(eps), one
    shot per offset) and shoots the s minimising |J s + miss|^2 + lam |D s|^2,
    D^2 = diag(J^T J); lam falls tenfold when |miss| falls and the step is
    taken, and rises tenfold otherwise. A launch that does not leave misses
    by 10a in each coordinate.

    Stops as soon as |miss| is below the d = 2 solver's goal, which may be
    at the first shot. Gives up with reason "dropped_lost" when the first
    shot does not leave, "dropped_residual" when |miss| has not fallen by a
    tenth over the last _STALL_SHOTS shots (a minimum of the miss that is
    not a root, such as a branch edge), and "dropped_cap" when the next step
    would pass _POLISH_CAP shots. Returns (sample, shots, reason) as
    _illinois_2d does.
    """
    basis = plane_basis(u0)
    lost = np.full(len(u0), 10.0 * scene.ball_radius)

    def fire(ab):
        u = u0 + ab @ basis
        shot = _shoot(scene, x, u / float(np.linalg.norm(u)))
        return shot, lost if shot is None else shot[3] - y

    ab = np.zeros(len(basis))
    shot, f = fire(ab)
    if shot is None:
        return None, 1, "dropped_lost"
    goal = _RESIDUAL_MARGIN * _root_tol(scene)
    trail = [float(np.linalg.norm(f))]  # least |miss| after each shot
    lam = _LM_DAMPING
    jac = None  # at the current offsets; None until taken
    while trail[-1] >= goal:
        if len(trail) > _STALL_SHOTS and trail[-1] > _STALL_FACTOR * trail[-1 - _STALL_SHOTS]:
            return None, len(trail), "dropped_residual"
        if len(trail) + (len(ab) if jac is None else 0) >= _POLISH_CAP:
            return None, len(trail), "dropped_cap"
        if jac is None:
            jac = np.empty((len(f), len(ab)))
            for j in range(len(ab)):
                step = ab.copy()
                step[j] += _FD_STEP * max(1.0, abs(ab[j]))
                jac[:, j] = (fire(step)[1] - f) / (step[j] - ab[j])
            trail += trail[-1:] * len(ab)
            scale = np.sum(jac * jac, axis=0)
            rhs = np.concatenate([-f, np.zeros(len(ab))])
        # Least squares rather than the normal equations, so that a Jacobian
        # of rank below d - 1 gives a step instead of an error.
        damped = np.vstack([jac, np.diag(np.sqrt(lam * scale))])
        trial = ab + np.linalg.lstsq(damped, rhs, rcond=None)[0]
        got, g = fire(trial)
        miss = float(np.linalg.norm(g))
        if miss < trail[-1]:
            ab, shot, f, jac = trial, got, g, None
            trail.append(miss)
            lam *= 0.1
        else:
            trail.append(trail[-1])
            lam *= 10.0
    return _make_sample(scene, x, y, shot), len(trail), None


# Half-width of the z band searched for a seed's neighbours, in sqrt(n)
# indices: the 8th-neighbour radius of the n-point hemisphere lattice is at
# most 5.35 sqrt(n) / n for n from 10 to 100,000.
_BAND_SQRT_N = 6.0
# Distance-matrix entries per block of rows, which keeps a block's arrays to
# a few MB.
_BLOCK_ENTRIES = 1 << 16


@functools.lru_cache(maxsize=8)
def _hemisphere(n_seeds: int):
    """The n_seeds inward seeds in the frame whose z-axis points into the
    ball, and the table of each seed's min(8, n) nearest seeds, itself first;
    both read-only, one pair per process shared by every d = 3 sweep."""
    hemi = fibonacci_sphere(2 * n_seeds)
    hemi = hemi[hemi[:, 2] > 1e-6][:n_seeds]
    nbrs = _lattice_neighbours(hemi, min(8, len(hemi)), 1.0 / n_seeds)
    hemi.flags.writeable = False
    nbrs.flags.writeable = False
    return hemi, nbrs


def _lattice_neighbours(points, k, dz):
    """Indices of the k nearest of points to each of them, nearest first, for
    points ordered by z with z falling by dz per index, as on a Fibonacci
    lattice (Swinbank & Purser, QJRMS 2006).

    A chord is at least the difference of its ends' z, so points more than w
    indices apart are at least (w + 1) dz apart. Each point's neighbours are
    therefore sought among the w indices either side, w about _BAND_SQRT_N
    sqrt(n), and kept when the k-th is nearer than (w + 1) dz; the other rows
    are sought among all points. Exact, without an n x n matrix.
    """
    n = len(points)
    w = max(k, math.ceil(_BAND_SQRT_N * math.sqrt(n)))
    nbrs, kth = _nearest_in_band(points, np.arange(n), k, w)
    # The margin covers the rounding of z, far below any lattice spacing.
    redo = np.flatnonzero(kth >= ((w + 1) * dz * (1.0 - 1e-9)) ** 2)
    if len(redo):
        nbrs[redo] = _nearest_in_band(points, redo, k, n)[0]
    return nbrs


def _nearest_in_band(points, rows, k, w):
    """For each of the ascending indices rows, the k nearest, nearest first,
    of candidate points that include all those at most w indices away, and
    the squared distance of the k-th."""
    n = len(points)
    nbrs = np.empty((len(rows), k), dtype=np.intp)
    kth = np.empty(len(rows))
    step = max(1, _BLOCK_ENTRIES // min(n, 2 * w + 1))
    for a in range(0, len(rows), step):
        r = rows[a:a + step]
        lo, hi = max(0, r[0] - w), min(n, r[-1] + w + 1)
        d2 = sum((points[r, None, c] - points[None, lo:hi, c]) ** 2 for c in range(3))
        part = np.argpartition(d2, k - 1, axis=1)[:, :k]
        part = np.take_along_axis(part, np.take_along_axis(d2, part, axis=1).argsort(axis=1),
                                  axis=1)
        nbrs[a:a + step] = lo + part
        kth[a:a + step] = d2[np.arange(len(r)), part[:, -1]]
    return nbrs, kth


@dataclass(frozen=True)
class _Sweep3D:
    """One source point's traced seeds. nbrs is _hemisphere's read-only
    table, the same for every source: a point's seeds are the lattice carried
    into its frame by an orthonormal basis, which keeps all distances."""
    seeds: np.ndarray
    exits: np.ndarray  # exit point per seed, inf where the trace does not leave
    nbrs: np.ndarray  # row i: the indices of seed i's nearest seeds, i first
    window: float  # misses above this are too far from any root to polish


def _sweeps_3d(scene, xs, n_seeds):
    """The inward hemisphere seeds at every point of xs, all traced in one
    lockstep batch; returns (sweeps, cutoff seeds, rays traced)."""
    center = np.asarray(scene.ball_center)
    hemi, nbrs = _hemisphere(n_seeds)
    seeds = []
    for x in xs:
        m = (center - x) / float(np.linalg.norm(center - x))
        basis = plane_basis(m)
        seeds.append(hemi[:, 2:3] * m + hemi[:, 0:1] * basis[0] + hemi[:, 1:2] * basis[1])
    escaped, legs, _, dirs, _ = _trace_many(scene, np.repeat(xs, len(hemi), axis=0),
                                            np.concatenate(seeds))
    exits, crosses = _exit_crossings(scene, legs, dirs)
    left = escaped & crosses
    exits[~left] = np.inf
    window = 4.0 * scene.ball_radius * math.sqrt(4.0 * math.pi / n_seeds)
    sweeps = [_Sweep3D(u, exits[k * len(hemi):(k + 1) * len(hemi)], nbrs, window)
              for k, u in enumerate(seeds)]
    return sweeps, int(np.count_nonzero(~left)), len(exits)


def _refine_pair_3d(scene, x, y, sweep: _Sweep3D):
    """_polish_3d from each seed whose exit miss to y is least among its
    lattice neighbours (the rows of sweep.nbrs) and within a few seed
    spacings, in increasing order of miss; returns the roots and a Counter of
    refine_shots, dropped_clusters (the failed polishes, the d = 3
    counterpart of dropped brackets) and the drops by reason."""
    misses = np.linalg.norm(sweep.exits - y, axis=1)
    order = np.argsort(misses)
    near = order[misses[order] <= sweep.window]
    least = (misses[sweep.nbrs[near]] >= misses[near, None]).all(axis=1)
    found = []
    tally = Counter()
    for i in near[least].tolist():
        sample, shots, reason = _polish_3d(scene, x, y, sweep.seeds[i])
        tally["refine_shots"] += shots
        if sample is None:
            tally["dropped_clusters"] += 1
            tally[reason] += 1
        else:
            found.append(sample)
    return _dedup_samples(scene, found), tally


def _mirror_refine_3d(scene, s, x, y):
    got, shots, _ = _polish_3d(scene, x, y, -np.asarray(s.dir_out))
    return _same_root(scene, got, s), shots


# ---------------------------------------------------------------------------
# Travelling-time spectrum over a pair grid
# ---------------------------------------------------------------------------

def travelling_time_spectrum(scene: Scene, n_points: int = 64,
                             min_sep_deg: float = 1.0, phase: float = 0.0,
                             n_seeds: Optional[int] = None,
                             threads: int = 1) -> SpectrumTable:
    """Travelling-time table over all ordered lattice-point pairs.

    Each cell equals ``find_xy_geodesics`` on its pair; both run the same
    search. Deterministic for fixed arguments, and identical for any
    ``threads``. Raises ContractError for fewer than one seed, for scenes
    with curve obstacles and for d >= 4.
    """
    n_seeds = _seed_count(scene, n_seeds)
    pts, pairs = _pair_grid(scene, n_points, min_sep_deg, phase)
    if not pairs:
        raise ContractError(f"the travel grid (n_points={n_points}, min_sep_deg="
                            f"{min_sep_deg}) has no point pairs")
    grid = _grid_tuple({
        "kind": "travel",
        "n_points": int(n_points),
        "min_sep_deg": float(min_sep_deg),
        "phase": float(phase),
        "n_seeds": int(n_seeds),
        "tol": float(_root_tol(scene)),
        "ball_center": _as_tuple(scene.ball_center),
        "ball_radius": float(scene.ball_radius),
    })
    merged, cutoff, tally, rays = _travel(scene, pts, pairs, n_seeds, threads)
    return SpectrumTable("travel", scene.digest, grid,
                         tuple(tuple(sorted(s.t for s in cell)) for cell in merged),
                         tuple(s for cell in merged for s in cell),
                         (("cutoff_seeds", cutoff), ("dropped_clusters", tally["dropped_clusters"]),
                          *((r, tally[r]) for r in _DROP_REASONS),
                          ("refine_shots", tally["refine_shots"]), ("sweep_rays", rays)))


def _travel(scene: Scene, pts, pairs, n_seeds: int, threads: int = 1):
    """The travel search over ordered index pairs (i, j) of pts, where (j, i)
    is a pair whenever (i, j) is; returns (samples per pair, cutoff seeds,
    a Counter of refinement shots and drops, sweep rays traced).

    The inward seed sweeps of all source points are traced first, in
    lockstep batches, and each serves every partner of its point. Only the
    root refinement then runs per source point, on the pool when threads >
    1, one ray at a time. Each raw root of (i, j) is mirror-polished once
    from the other end, and cells (i, j) and (j, i) are merged from the same
    two mirror lists.
    """
    sources = sorted({i for i, _ in pairs})
    sweep_all = _sweeps_2d if scene.dimension == 2 else _sweeps_3d
    sweeps, cutoff, rays = sweep_all(scene, np.array([pts[i] for i in sources]), n_seeds)
    args = [(scene, pts[i], sweep, [(k, pts[j]) for k, (ii, j) in enumerate(pairs) if ii == i])
            for i, sweep in zip(sources, sweeps)]
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(_spectrum_worker, args))
    else:
        chunks = [_spectrum_worker(arg) for arg in args]
    raw = {}
    tally = Counter()
    for chunk_samples, chunk_tally in chunks:
        tally.update(chunk_tally)
        raw.update(chunk_samples)
    # mirrors[k]: the raw roots of pair k = (i, j) re-polished as (j, i) samples.
    mirrors = []
    for k, (i, j) in enumerate(pairs):
        got, shots = _mirror_all(scene, raw[k], pts[j], pts[i])
        mirrors.append(got)
        tally["refine_shots"] += shots
    pair_index = {ij: k for k, ij in enumerate(pairs)}
    return ([_merge_bidirectional(scene, raw[k], mirrors[k], mirrors[pair_index[(j, i)]], k)
             for k, (i, j) in enumerate(pairs)], cutoff, tally, rays)


def _spectrum_worker(args):
    """The raw roots from one source point to every partner, refined from its
    traced sweep; returns ([(pair, roots)], a Counter of refinement shots and
    drops)."""
    scene, x, sweep, partners = args
    refine = _refine_pair_2d if scene.dimension == 2 else _refine_pair_3d
    out = []
    tally = Counter()
    for k, y in partners:
        samples, pair_tally = refine(scene, x, y, sweep)
        tally.update(pair_tally)
        out.append((k, samples))
    return out, tally


def spectrum_pairs(scene: Scene, n_points: int, min_sep_deg: float = 1.0,
                   phase: float = 0.0) -> list[tuple[np.ndarray, np.ndarray]]:
    """The ordered point pairs a travel table with these parameters measures."""
    pts, pairs = _pair_grid(scene, n_points, min_sep_deg, phase)
    return [(pts[i], pts[j]) for i, j in pairs]


def _pair_grid(scene: Scene, n_points: int, min_sep_deg: float, phase: float):
    """Lattice points on the reference sphere and the ordered index pairs
    (i, j) of distinct points more than min_sep_deg apart; the separation
    test is symmetric, so (j, i) is a pair whenever (i, j) is."""
    dirs = sphere_lattice(scene.dimension, n_points, phase)
    pts = np.asarray(scene.ball_center) + scene.ball_radius * dirs
    min_cos = math.cos(math.radians(min_sep_deg))
    pairs = [(i, j) for i in range(n_points) for j in range(n_points)
             if i != j and float(dirs[i] @ dirs[j]) < min_cos]
    return pts, pairs
