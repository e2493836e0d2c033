"""The two scattering observables.

Sojourn times clip a trajectory between the two hyperplanes tangent to the
reference ball that face the incoming and outgoing directions, and subtract
the ball diameter; the result does not depend on the choice of the ball,
which is one of the acceptance checks.

Travelling times are found by a shooting method: seed inward directions at a
sphere point x, trace, locate the last crossing of the reference sphere on
the outgoing leg, bracket seeds whose exits straddle the target point y, and
refine by bisection on the exit-angle miss (d = 2) or by a local polish of
the miss distance (d = 3). The sweep depends on x alone, so a table traces
it once per source point and reuses it for every partner. The search is
symmetrized: each root found sweeping from one endpoint is time-reversed and
re-polished once from the other, and the pair's cells in both orders are
built from those two mirror lists, so swapping the endpoints returns
matching times by construction. Non-convergent brackets are dropped and
counted in the table diagnostics; near-tangent branches legitimately fail.
Travel in d >= 4 is refused with ContractError rather than answered with
empty sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .dynamics import TraceLimits, _trace_raw
from .geometry import Scene, _as_tuple, fibonacci_sphere

DIRECTION_MATCH_TOL = 1e-9

# Shooting defaults: seed counts resolve all few-reflection branches in
# desk-scale scenes; long itineraries are resolution limited.
SEEDS_2D = 720
SEEDS_3D = 2000
REFINE_TOL_FRAC = 1e-7
DEDUP_FRAC = 1e-5
_BISECT_CAP = 90

# The bisection drives the angular miss a factor below the residual goal so
# that two independently converged roots of one geodesic agree in time within
# the stated tolerance.
_RESIDUAL_MARGIN = 0.25

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

def _clip_length(p, v, lo, hi, planes) -> float:
    """Length of {p + s v : lo <= s <= hi} inside all half-spaces <x,n> <= c."""
    for (n, c) in planes:
        pn = float(np.dot(p, n))
        vn = float(np.dot(v, n))
        if vn > 1e-300:
            hi = min(hi, (c - pn) / vn)
        elif vn < -1e-300:
            lo = max(lo, (c - pn) / vn)
        elif pn > c:
            return 0.0
    return max(0.0, hi - lo)


def sojourn_time(scene: Scene, record, incoming, outgoing) -> float:
    """Sojourn time of an escaped trajectory for directions (incoming, outgoing).

    The trajectory polyline, extended to infinity along both free legs, is
    clipped to the slab between the tangent hyperplanes of the reference
    ball facing the two directions; the clipped length minus the ball
    diameter is returned. Grazing events are collinear interior vertices and
    do not affect the clipping.
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
    center = np.asarray(scene.ball_center)
    a = scene.ball_radius
    planes = (
        (-win, a - float(center @ win)),
        (wout, a + float(center @ wout)),
    )
    verts = [np.asarray(record.initial.point)]
    verts += [np.asarray(e.point) for e in record.events]
    verts.append(np.asarray(record.final.point))
    total = _clip_length(verts[0], win, -math.inf, 0.0, planes)
    for qa, qb in zip(verts[:-1], verts[1:]):
        seg = qb - qa
        ln = float(np.linalg.norm(seg))
        if ln == 0.0:
            continue
        total += _clip_length(qa, seg / ln, 0.0, ln, planes)
    total += _clip_length(verts[-1], wout, 0.0, math.inf, planes)
    return total - 2.0 * a


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
    if abs(n - 1.0) > 1e-9:
        raise ContractError("direction must be a unit vector")
    return v / n


# ---------------------------------------------------------------------------
# Sojourn-time scan over one incoming direction
# ---------------------------------------------------------------------------

def scan_sls(scene: Scene, incoming, n_impacts: int,
             limits: Optional[TraceLimits] = None) -> SpectrumTable:
    """Sample the sojourn-time spectrum for one incoming direction.

    One trajectory is launched per impact-lattice point of the tangent
    hyperplane facing ``incoming``. Escaped trajectories yield one sample
    each; cutoff trajectories are counted but contribute nothing, which is
    how trapped-set shadows show up in the table.
    """
    if limits is None:
        limits = TraceLimits.for_scene(scene)
    win = unit_vector(incoming)
    d = scene.dimension
    center = np.asarray(scene.ball_center)
    a = scene.ball_radius
    basis = plane_basis(win)
    offsets = impact_lattice(d, n_impacts, a)
    foot = center - a * win
    samples = []
    cells = []
    cutoff = 0
    for i in range(offsets.shape[0]):
        launch = foot + offsets[i] @ basis
        escaped, events, fpt, fdir, total = _trace_raw(scene, launch, win, limits)
        if not escaped:
            cutoff += 1
            cells.append(())
            continue
        rec = _LightRecord(_as_tuple(launch), _as_tuple(win), events, fpt, fdir)
        t_soj = sojourn_time(scene, rec, win, np.asarray(fdir))
        refl = tuple(e[0] for e in events if not e[4])
        samples.append(SLSSample(
            index=i,
            omega=_as_tuple(win),
            impact=_as_tuple(offsets[i]),
            impact_point=_as_tuple(launch),
            theta=_as_tuple(fdir),
            sojourn=t_soj,
            reflections=len(refl),
            grazing=any(e[4] for e in events),
            itinerary=refl,
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
                         (("cutoff", cutoff),))


class _LightRecord:
    """Record-shaped adapter over raw kernel events for sojourn clipping."""

    __slots__ = ("initial", "events", "final", "escaped")

    def __init__(self, point, direction, raw_events, fpt, fdir):
        self.initial = _State(point, direction)
        self.events = tuple(_PointOnly(e[2]) for e in raw_events)
        self.final = _State(fpt, fdir)
        self.escaped = True


class _State:
    __slots__ = ("point", "direction")

    def __init__(self, point, direction):
        self.point = point
        self.direction = direction


class _PointOnly:
    __slots__ = ("point",)

    def __init__(self, point):
        self.point = point


# ---------------------------------------------------------------------------
# Travelling times: seed sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SweepEntry:
    psi: float
    escaped: bool
    exit_point: Optional[tuple]
    exit_angle: float
    itinerary: tuple
    grazed: bool


def _exit_crossing(scene: Scene, start, events, fdir):
    """Last crossing of the reference sphere on the outgoing free leg."""
    center = np.asarray(scene.ball_center)
    a = scene.ball_radius
    if events:
        leg_origin = np.asarray(events[-1][2])
        cum = events[-1][5]
    else:
        leg_origin = np.asarray(start, dtype=float)
        cum = 0.0
    v = np.asarray(fdir)
    w = leg_origin - center
    b = float(w @ v)
    g = float(w @ w) - a * a
    disc = b * b - g
    if disc < 0.0:
        return None, None
    s = -b + math.sqrt(disc)
    if s < 0.0:
        return None, None
    exit_pt = leg_origin + s * v
    return exit_pt, cum + s


def _frame_at(scene: Scene, x: np.ndarray):
    center = np.asarray(scene.ball_center)
    m = (center - x) / float(np.linalg.norm(center - x))
    return m, np.array([-m[1], m[0]])


# Seed gaps that hide structure get subdivided before bracketing: endpoints
# disagreeing on itinerary mark a branch edge, and a large exit-angle jump
# between same-itinerary endpoints marks a narrow branch island in between
# (expanding dynamics make such islands sweep a wide exit range). Roots still
# unresolved below the split depth are legitimately dropped as near-tangent.
_BOUNDARY_SPLIT_DEPTH = 6
_EXIT_JUMP_TOL = 0.08


def _needs_split(ea: _SweepEntry, eb: _SweepEntry) -> bool:
    if ea.escaped != eb.escaped or ea.itinerary != eb.itinerary:
        return True
    if ea.escaped and abs(_wrap(ea.exit_angle - eb.exit_angle)) > _EXIT_JUMP_TOL:
        return True
    return False


def _entry_at(scene: Scene, x, frame, psi: float, limits: TraceLimits) -> _SweepEntry:
    m, mp = frame
    center = np.asarray(scene.ball_center)
    u = math.cos(psi) * m + math.sin(psi) * mp
    escaped, events, fpt, fdir, total = _trace_raw(scene, x, u, limits)
    if escaped:
        exit_pt, _ = _exit_crossing(scene, x, events, fdir)
        if exit_pt is not None:
            ang = math.atan2(exit_pt[1] - center[1], exit_pt[0] - center[0])
            itin = tuple(e[0] for e in events if not e[4])
            return _SweepEntry(psi, True, _as_tuple(exit_pt), ang, itin,
                               any(e[4] for e in events))
    return _SweepEntry(psi, False, None, 0.0, (), False)


def _split_gap(scene, x, frame, limits, ea, eb, depth, out):
    if depth <= 0:
        return
    em = _entry_at(scene, x, frame, 0.5 * (ea.psi + eb.psi), limits)
    if _needs_split(ea, em):
        _split_gap(scene, x, frame, limits, ea, em, depth - 1, out)
    out.append(em)
    if _needs_split(em, eb):
        _split_gap(scene, x, frame, limits, em, eb, depth - 1, out)


def _sweep_2d(scene: Scene, x: np.ndarray, n_seeds: int, limits: TraceLimits):
    frame = _frame_at(scene, x)
    seeds = []
    cut = 0
    for k in range(n_seeds):
        psi = -0.5 * math.pi + math.pi * (k + 0.5) / n_seeds
        e = _entry_at(scene, x, frame, psi, limits)
        if not e.escaped:
            cut += 1
        seeds.append(e)
    entries = []
    for ea, eb in zip(seeds[:-1], seeds[1:]):
        entries.append(ea)
        if _needs_split(ea, eb):
            _split_gap(scene, x, frame, limits, ea, eb, _BOUNDARY_SPLIT_DEPTH, entries)
    entries.append(seeds[-1])
    return entries, cut, frame


def _wrap(angle: float) -> float:
    return (angle + math.pi) % _TWO_PI - math.pi


# ---------------------------------------------------------------------------
# Travelling times: root refinement
# ---------------------------------------------------------------------------

def _shoot_2d(scene: Scene, x, frame, psi: float, limits: TraceLimits):
    m, mp = frame
    u = math.cos(psi) * m + math.sin(psi) * mp
    escaped, events, fpt, fdir, total = _trace_raw(scene, x, u, limits)
    if not escaped:
        return None
    exit_pt, t_exit = _exit_crossing(scene, x, events, fdir)
    if exit_pt is None:
        return None
    return u, events, fdir, exit_pt, t_exit


def _delta_at(scene, x, frame, psi, target_angle, limits):
    shot = _shoot_2d(scene, x, frame, psi, limits)
    if shot is None:
        return None, None
    exit_pt = shot[3]
    center = scene.ball_center
    ang = math.atan2(exit_pt[1] - center[1], exit_pt[0] - center[0])
    return _wrap(ang - target_angle), shot


def _make_sample(scene, x, y, shot, tol, pair) -> Optional[TravellingTimeSample]:
    u, events, fdir, exit_pt, t_exit = shot
    ypt = np.asarray(y, dtype=float)
    ept = np.asarray(exit_pt, dtype=float)
    residual = float(np.linalg.norm(ept - ypt))
    if residual >= tol:
        return None
    itin = tuple(e[0] for e in events if not e[4])
    # Project the endpoint onto the plane through y transverse to the exit
    # ray: by stationarity of the reflected path length this removes the
    # first-order time error of the residual miss, so the reported time
    # matches the true root time to O(residual^2).
    t_corr = float(t_exit) + float((ypt - ept) @ np.asarray(fdir))
    return TravellingTimeSample(
        pair=pair,
        x=_as_tuple(x),
        y=_as_tuple(y),
        t=t_corr,
        reflections=len(itin),
        dir_in=_as_tuple(u),
        dir_out=_as_tuple(fdir),
        residual=residual,
        itinerary=itin,
    )


def _bisect_2d(scene, x, y, target_angle, frame, lo, hi, flo, tol, limits, pair):
    goal = _RESIDUAL_MARGIN * tol / scene.ball_radius
    for _ in range(_BISECT_CAP):
        mid = 0.5 * (lo + hi)
        dm, shot = _delta_at(scene, x, frame, mid, target_angle, limits)
        if dm is None:
            return None
        if abs(dm) < goal or hi - lo < 1e-15:
            return _make_sample(scene, x, y, shot, tol, pair)
        if flo * dm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, dm
    return None


def _refine_pair_2d(scene, x, y, entries, frame, tol, limits, dedup, pair_index=0):
    center = np.asarray(scene.ball_center)
    ty = math.atan2(y[1] - center[1], y[0] - center[0])
    found = []
    dropped = 0
    n = len(entries)
    for i in range(n - 1):
        # Brackets may straddle a branch edge: the exit map is continuous
        # across a first-order tangency, so only escape status matters here;
        # genuine discontinuities fail the residual check and get dropped.
        ea, eb = entries[i], entries[i + 1]
        if not (ea.escaped and eb.escaped):
            continue
        da = _wrap(ea.exit_angle - ty)
        db = _wrap(eb.exit_angle - ty)
        if da == 0.0:
            _, shot = _delta_at(scene, x, frame, ea.psi, ty, limits)
            if shot is not None:
                sample = _make_sample(scene, x, y, shot, tol, pair_index)
                if sample is not None:
                    found.append(sample)
            continue
        if da * db >= 0.0 or abs(da - db) >= math.pi:
            continue
        sample = _bisect_2d(scene, x, y, ty, frame, ea.psi, eb.psi, da, tol,
                            limits, pair_index)
        if sample is None:
            dropped += 1
        else:
            found.append(sample)
    return _dedup_samples(found, dedup), dropped


def _mirror_refine_2d(scene, s: TravellingTimeSample, pair, x, y, frame_x, tol,
                      limits) -> Optional[TravellingTimeSample]:
    """Re-polish the time reversal of a (y, x) root as an (x, y) sample.

    The reversed launch direction is only a first guess: expansion along the
    path can push the plain re-shot miss above tolerance, so the root is
    re-bracketed locally around the guess. A candidate counts only when it
    reproduces the original travelling time, which rejects convergence onto
    a neighboring branch root.
    """
    m, mp = frame_x
    ux = -s.dir_out[0]
    uy = -s.dir_out[1]
    psi = math.atan2(ux * mp[0] + uy * mp[1], ux * m[0] + uy * m[1])
    center = np.asarray(scene.ball_center)
    ty = math.atan2(y[1] - center[1], y[0] - center[0])
    d0, shot0 = _delta_at(scene, x, frame_x, psi, ty, limits)
    if d0 is None:
        return None
    if abs(d0) < _RESIDUAL_MARGIN * tol / scene.ball_radius:
        return _same_root(_make_sample(scene, x, y, shot0, tol, pair), s, tol)
    h = 1e-8
    while h <= 2e-3:
        for cand in (psi + h, psi - h):
            d1, _ = _delta_at(scene, x, frame_x, cand, ty, limits)
            if d1 is not None and d0 * d1 < 0.0 and abs(d0 - d1) < math.pi:
                lo, hi = (psi, cand) if cand > psi else (cand, psi)
                flo = d0 if lo == psi else d1
                got = _bisect_2d(scene, x, y, ty, frame_x, lo, hi, flo, tol,
                                 limits, pair)
                got = _same_root(got, s, tol)
                if got is not None:
                    return got
        h *= 4.0
    return None


def _same_root(candidate: Optional[TravellingTimeSample], s: TravellingTimeSample,
               tol: float) -> Optional[TravellingTimeSample]:
    if candidate is None or abs(candidate.t - s.t) >= tol:
        return None
    return candidate


# Copies of one root converge to the same launch direction within ~1e-7 rad,
# while distinct same-itinerary roots are separated by branch scale; the
# direction check keeps near-degenerate pairs from collapsing.
_DEDUP_DIR_TOL = 1e-5


def _dedup_samples(samples, dedup):
    out = []
    for s in sorted(samples, key=lambda s: (s.t, s.residual)):
        dup = False
        for kept in out:
            if (kept.itinerary == s.itinerary and abs(kept.t - s.t) < dedup
                    and _dir_gap(kept.dir_in, s.dir_in) < _DEDUP_DIR_TOL):
                dup = True
                break
        if not dup:
            out.append(s)
    return out


def _dir_gap(u, v) -> float:
    return math.hypot(*(a - b for a, b in zip(u, v)))


def _mirror_all(scene, roots, x, y, tol, limits) -> list:
    """Time reversal of each (y, x) root re-polished as an (x, y) sample, None
    where the polish fails; one entry per root, in order."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if scene.dimension == 2:
        frame_x = _frame_at(scene, x)
        return [_mirror_refine_2d(scene, s, 0, x, y, frame_x, tol, limits)
                for s in roots]
    return [_mirror_refine_3d(scene, s, 0, x, y, tol, limits) for s in roots]


def _merge_bidirectional(own, own_mirrors, opposite_mirrors, pair, dedup):
    """Symmetric per-pair merge: an own root is kept only when its mirror
    re-polished from the opposite endpoint, and opposite-side roots enter as
    their re-polished mirrors. Both orders of one point pair are built from
    the same two mirror lists, so swapping x and y yields matching time sets
    by construction; one-way-only roots are near-tangent and are dropped."""
    kept = [s for s, m in zip(own, own_mirrors) if m is not None]
    kept += [m for m in opposite_mirrors if m is not None]
    return [replace(s, pair=pair) for s in _dedup_samples(kept, dedup)]


def find_xy_geodesics(scene: Scene, x, y, n_seeds: Optional[int] = None,
                      tol: Optional[float] = None,
                      limits: Optional[TraceLimits] = None,
                      dedup: Optional[float] = None) -> list[TravellingTimeSample]:
    """All resolved geodesics entering the reference sphere at x and leaving at y.

    Sweeps run from both endpoints; a root counts only when it refines from
    both sides, and the result is symmetric under swapping the endpoints.
    The returned list may be empty: the travelling-time set of a pair can be
    empty (deep shadow) or under-resolved at the configured seed count.
    Raises ContractError for d >= 4, where no search is implemented.
    """
    _require_travel_dimension(scene)
    if limits is None:
        limits = TraceLimits.for_scene(scene)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    a = scene.ball_radius
    if n_seeds is None:
        n_seeds = SEEDS_2D if scene.dimension == 2 else SEEDS_3D
    if tol is None:
        tol = REFINE_TOL_FRAC * a
    if dedup is None:
        dedup = DEDUP_FRAC * a
    fwd, _ = _refine_pair(scene, x, y, _sweep(scene, x, n_seeds, limits)[0],
                          tol, limits, dedup, 0)
    rev, _ = _refine_pair(scene, y, x, _sweep(scene, y, n_seeds, limits)[0],
                          tol, limits, dedup, 0)
    return _merge_bidirectional(fwd, _mirror_all(scene, fwd, y, x, tol, limits),
                                _mirror_all(scene, rev, x, y, tol, limits), 0, dedup)


def _require_travel_dimension(scene: Scene):
    if scene.dimension >= 4:
        raise ContractError("travelling times are implemented for d = 2 and d = 3 "
                            f"only, not d = {scene.dimension}")


def _sweep(scene: Scene, x: np.ndarray, n_seeds: int, limits: TraceLimits):
    """Inward seed sweep from x, shared by every target; returns (sweep, cutoff
    seeds)."""
    if scene.dimension == 2:
        entries, cut, frame = _sweep_2d(scene, x, n_seeds, limits)
        return (entries, frame), cut
    return _sweep_3d(scene, x, n_seeds, limits)


def _refine_pair(scene, x, y, sweep, tol, limits, dedup, pair):
    """Roots from x to y found in a sweep from x; returns (samples, dropped)."""
    if scene.dimension == 2:
        entries, frame = sweep
        return _refine_pair_2d(scene, x, y, entries, frame, tol, limits, dedup,
                               pair_index=pair)
    return _refine_pair_3d(scene, x, y, sweep, tol, limits, dedup, pair), 0


# ---------------------------------------------------------------------------
# Travelling times in d = 3
# ---------------------------------------------------------------------------

def _exit_of_3d(scene, x, u, limits):
    escaped, events, fpt, fdir, _ = _trace_raw(scene, x, u, limits)
    if not escaped:
        return None
    exit_pt, t_exit = _exit_crossing(scene, x, events, fdir)
    if exit_pt is None:
        return None
    return exit_pt, t_exit, events, fdir, u


def _polish_3d(scene, x, y, u0, tol, limits, pair):
    from scipy.optimize import minimize

    e1 = plane_basis(np.asarray(u0))

    def miss_fn(ab):
        u = np.asarray(u0) + ab[0] * e1[0] + ab[1] * e1[1]
        u /= float(np.linalg.norm(u))
        r = _exit_of_3d(scene, x, u, limits)
        if r is None:
            return 10.0 * scene.ball_radius
        return math.dist(_as_tuple(r[0]), _as_tuple(y))

    res = minimize(miss_fn, np.zeros(2), method="Nelder-Mead",
                   options={"xatol": 1e-13, "fatol": 1e-14, "maxiter": 400})
    u = np.asarray(u0) + res.x[0] * e1[0] + res.x[1] * e1[1]
    u /= float(np.linalg.norm(u))
    r = _exit_of_3d(scene, x, u, limits)
    if r is None:
        return None
    exit_pt, t_exit, events, fdir, _ = r
    return _make_sample(scene, x, y, (u, events, fdir, exit_pt, t_exit), tol, pair)


@dataclass(frozen=True)
class _Sweep3D:
    seeds: np.ndarray
    exits: list  # exit point per seed, None where the trace does not escape
    tree: object  # cKDTree over the seeds
    window: float  # misses above this are too far from any root to polish


def _sweep_3d(scene, x, n_seeds, limits):
    """Trace the inward hemisphere seeds at x; returns (sweep, cutoff seeds)."""
    from scipy.spatial import cKDTree

    center = np.asarray(scene.ball_center)
    m = (center - x) / float(np.linalg.norm(center - x))
    basis = plane_basis(m)
    hemi = fibonacci_sphere(2 * n_seeds)
    hemi = hemi[hemi[:, 2] > 1e-6][:n_seeds]
    seeds = hemi[:, 2:3] * m + hemi[:, 0:1] * basis[0] + hemi[:, 1:2] * basis[1]
    exits = []
    for u in seeds:
        r = _exit_of_3d(scene, x, u, limits)
        exits.append(None if r is None else _as_tuple(r[0]))
    spacing = scene.ball_radius * math.sqrt(4.0 * math.pi / max(1, n_seeds))
    return _Sweep3D(seeds, exits, cKDTree(seeds), 4.0 * spacing), exits.count(None)


def _refine_pair_3d(scene, x, y, sweep: _Sweep3D, tol, limits, dedup, pair):
    """Polish every local minimum of the exit miss to y within a few seed
    spacings; the minima are taken over each seed's nearest neighbours."""
    seeds = sweep.seeds
    yt = _as_tuple(y)
    misses = np.array([np.inf if e is None else math.dist(e, yt) for e in sweep.exits])
    samples = []
    for i in np.argsort(misses):
        if misses[i] > sweep.window:
            break
        _, nbrs = sweep.tree.query(seeds[i], k=min(8, len(seeds)))
        if any(misses[j] < misses[i] for j in np.atleast_1d(nbrs) if j != i):
            continue
        s = _polish_3d(scene, x, y, seeds[i], tol, limits, pair)
        if s is not None:
            samples.append(s)
    return _dedup_samples(samples, dedup)


def _mirror_refine_3d(scene, s, pair, x, y, tol, limits):
    u0 = tuple(-c for c in s.dir_out)
    out = _polish_3d(scene, x, y, np.asarray(u0), tol, limits, pair)
    return _same_root(out, s, tol)


# ---------------------------------------------------------------------------
# Travelling-time spectrum over a pair grid
# ---------------------------------------------------------------------------

def travelling_time_spectrum(scene: Scene, n_points: int = 64,
                             min_sep_deg: float = 1.0, phase: float = 0.0,
                             n_seeds: Optional[int] = None,
                             tol: Optional[float] = None,
                             limits: Optional[TraceLimits] = None,
                             dedup: Optional[float] = None,
                             threads: int = 1) -> SpectrumTable:
    """Travelling-time table over all ordered lattice-point pairs.

    Equivalent to running ``find_xy_geodesics`` per pair: the inward seed
    sweep is shared across all partners of one source point, and each raw
    root is mirror-polished once and serves both orders of its point pair,
    which changes nothing but the runtime. Deterministic for fixed
    arguments, and identical for any ``threads``. Raises ContractError for
    d >= 4.
    """
    _require_travel_dimension(scene)
    if limits is None:
        limits = TraceLimits.for_scene(scene)
    d = scene.dimension
    a = scene.ball_radius
    center = np.asarray(scene.ball_center)
    if n_seeds is None:
        n_seeds = SEEDS_2D if d == 2 else SEEDS_3D
    if tol is None:
        tol = REFINE_TOL_FRAC * a
    if dedup is None:
        dedup = DEDUP_FRAC * a
    dirs = sphere_lattice(d, n_points, phase)
    pts = center + a * dirs
    min_cos = math.cos(math.radians(min_sep_deg))
    pairs = [(i, j) for i in range(n_points) for j in range(n_points)
             if i != j and float(dirs[i] @ dirs[j]) < min_cos]
    pair_index = {ij: k for k, ij in enumerate(pairs)}
    grid = _grid_tuple({
        "kind": "travel",
        "n_points": int(n_points),
        "min_sep_deg": float(min_sep_deg),
        "phase": float(phase),
        "n_seeds": int(n_seeds),
        "tol": float(tol),
        "ball_center": _as_tuple(center),
        "ball_radius": float(a),
    })
    work = sorted(set(i for i, _ in pairs))
    args = [(scene, pts[i], n_seeds, limits, tol, dedup,
             [(pair_index[(i, j)], pts[j]) for (ii, j) in pairs if ii == i])
            for i in work]
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(_spectrum_worker, args))
    else:
        chunks = [_spectrum_worker(arg) for arg in args]
    raw = {}
    cutoff = dropped = 0
    for chunk_samples, ccut, cdrop in chunks:
        cutoff += ccut
        dropped += cdrop
        for k, samp in chunk_samples:
            raw[k] = samp
    # mirrors[k]: the raw roots of pair k = (i, j) re-polished as (j, i)
    # samples. The lattice separation test is symmetric, so (j, i) is a pair.
    mirrors = [_mirror_all(scene, raw[k], pts[j], pts[i], tol, limits)
               for k, (i, j) in enumerate(pairs)]
    samples = []
    cells = []
    for k, (i, j) in enumerate(pairs):
        merged = _merge_bidirectional(raw[k], mirrors[k],
                                      mirrors[pair_index[(j, i)]], k, dedup)
        samples.extend(merged)
        cells.append(tuple(sorted(s.t for s in merged)))
    return SpectrumTable("travel", scene.digest, grid, tuple(cells), tuple(samples),
                         (("cutoff_seeds", cutoff), ("dropped_clusters", dropped)))


def _spectrum_worker(args):
    scene, x, n_seeds, limits, tol, dedup, partners = args
    x = np.asarray(x)
    sweep, cut = _sweep(scene, x, n_seeds, limits)
    out = []
    dropped = 0
    for k, y in partners:
        samples, drop = _refine_pair(scene, x, np.asarray(y), sweep, tol, limits,
                                     dedup, k)
        dropped += drop
        out.append((k, samples))
    return out, cut, dropped


def spectrum_pairs(scene: Scene, n_points: int, min_sep_deg: float = 1.0,
                   phase: float = 0.0) -> list[tuple[np.ndarray, np.ndarray]]:
    """The ordered point pairs a travel table with these parameters measures."""
    d = scene.dimension
    center = np.asarray(scene.ball_center)
    dirs = sphere_lattice(d, n_points, phase)
    pts = center + scene.ball_radius * dirs
    min_cos = math.cos(math.radians(min_sep_deg))
    return [(pts[i], pts[j]) for i in range(n_points) for j in range(n_points)
            if i != j and float(dirs[i] @ dirs[j]) < min_cos]
