"""The two scattering observables.

A sojourn time is the time a trajectory spends between the two hyperplanes
tangent to the reference ball that face the incoming and outgoing
directions, minus the ball diameter. It is computed from the reflection
points as T = L + <p0 - c, omega> - <x_k - c, theta> (launch point p0, last
event x_k, path length L between them, ball center c). The formula holds
for any reference ball containing the obstacles, so the result does not
depend on the ball's radius, which is one of the acceptance checks.

Travelling times start from seed sweeps: seed inward directions at a sphere
point x, trace, and locate the last crossing of the reference sphere on the
outgoing leg. Every root is the length of a reflecting ray, so it is a
critical point of the length of the paths off the bodies of one word in turn
(Petkov & Stoyanov, 1992), and the sweeps only propose the words. In d = 2
seeds whose exits straddle the target point y bracket a root: the word of
the bracket's end nearer to y is a candidate, and where the two ends' words
differ otherwise than by one reflection at the start or end of the path,
the bracket is narrowed by batched multisection until they agree. In d = 3
each word met by a seed whose exit misses y by at most a few seed spacings
is a candidate, solved from its least-miss seed. Each body's one-bounce
word is a candidate for every pair. All candidates of a table, or of one
pool worker's share of it, are solved together by Newton's method on
the path length, in batches of a bounded number of words from which stopped
words are dropped; a word stops when its mirror-law defect, times the ball
radius, is below _RESIDUAL_MARGIN times the root tolerance. A path that
enters a body or meets one before the end of a leg is no trajectory and is
dropped. A table first traces the seed sweeps of all its source points, in
lockstep batches through one batched ray kernel: in d = 3 every seed in one
batch, in d = 2 every seed in one and the gap midpoints of each split depth
in one more. Each sweep serves every partner of its point. The sojourn scan
traces all its launches in one batch too. A root is named by its pair and
its word: the search assumes one reflecting ray per word between two
points, so copies of a root solved from several candidates, or from both
endpoints, are one root, and the copy with the least residual is kept. The
search is symmetrized: each root found sweeping from one endpoint is
entered time-reversed for the other, an exact reversal, so both orders of a
pair hold the same samples, reversed, bit for bit. Narrowed brackets that
lose their sign change or stay split, and paths that do not converge or are
no trajectory, are dropped and counted by reason in the table diagnostics,
next to the narrowing launches and the Newton steps.
Travel in d >= 4, on scenes with curve obstacles, between endpoints off the
reference sphere, with fewer than one seed and at a lattice phase off the
plane is refused with ContractError rather than answered with empty sets.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .dynamics import (GRAZE_SKIP_FRAC, SURFACE_OFFSET_FRAC, _coldot, _itineraries, _sphere_exit,
                       _trace_many)
from .geometry import (TANGENT_COS_EPS, Scene, _as_tuple, _dot, _hits, fibonacci_sphere,
                       sphere_lattice)

DIRECTION_MATCH_TOL = 1e-9

# Sweep defaults: seed counts resolve all few-reflection branches in
# desk-scale scenes; long itineraries are resolution limited.
SEEDS_2D = 720
SEEDS_3D = 2000
REFINE_TOL_FRAC = 1e-7

# The root solver drives a times the mirror-law defect a factor below the
# root tolerance, so that two independently converged roots of one geodesic
# agree in time within the stated tolerance.
_RESIDUAL_MARGIN = 0.25

# Why a raw root search is dropped: a narrowed bracket lost its sign change,
# or its ends' words still differed after _NARROW_DEPTH rounds; Newton's
# method ended short of its goal; or the path found meets a body before a
# leg's end or enters one at a reflection. Their sum is the table's
# dropped_clusters.
_DROP_REASONS = ("dropped_lost", "dropped_split", "dropped_residual", "dropped_blocked",
                 "dropped_inward")

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
    """One geodesic between two reference-sphere points.

    ``t`` is the length of the path solved for ``itinerary``, and
    ``residual`` is the ball radius times that path's mirror-law defect, the
    largest part of the length's gradient tangent to a body at a reflection
    point; the solver drives it below a quarter of the root tolerance. It
    bounds the error in ``t``, not the exit miss of a ray traced from ``x``
    along ``dir_in``: the dynamics magnify the direction error at each
    reflection, and on criterion 8's three disks at n = 6 such rays miss
    ``y`` by up to 4.5e-7 at depth 1 and 1.6e-3 at depth 4.
    """

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
    if not win.shape == wout.shape == din.shape:
        raise ContractError(f"{win.size}-d and {wout.size}-d directions for a {din.size}-d record")
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
    if win.shape != (d,):
        raise ContractError(f"a {win.size}-d direction for a {d}-d scene")
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
        # Positional: in field order, keywords cost a third more per sample.
        samples.append(SLSSample(i, omega, tuple(impact), tuple(launch), tuple(theta),
                                 t_soj, len(itins[i]), graze, itins[i]))
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

# Seed gaps that hide structure get subdivided before bracketing: endpoints
# disagreeing on itinerary mark a branch edge, and a large exit-angle jump
# between same-itinerary endpoints marks a narrow branch island in between
# (expanding dynamics make such islands sweep a wide exit range).
_BOUNDARY_SPLIT_DEPTH = 6
_EXIT_JUMP_TOL = 0.08


class _Words(NamedTuple):
    """The reflections of traced shots, ragged: shot i's word is
    obstacles[first[i]:first[i] + count[i]] and its reflection points are the
    same rows of points, grazings left out."""

    count: np.ndarray
    first: np.ndarray
    obstacles: np.ndarray
    points: np.ndarray

    def take(self, rows) -> "_Words":
        """The words of the shots rows, packed in that order."""
        n = self.count[rows]
        first = np.cumsum(n) - n
        flat = np.repeat(self.first[rows] - first, n) + np.arange(int(n.sum()))
        return _Words(n, first, self.obstacles[flat], self.points[flat])


def _log_words(log, n: int) -> _Words:
    """The words of the n rays of a _trace_many log."""
    refl = ~log.grazing
    count = np.bincount(log.rows[refl], minlength=n)
    return _Words(count, np.cumsum(count) - count, log.obstacle[refl], log.point[refl])


def _join_words(parts) -> _Words:
    """The words of several sets of shots, one set after another."""
    offsets = np.cumsum([0] + [len(w.obstacles) for w in parts[:-1]])
    return _Words(*(np.concatenate(f) for f in zip(
        *((w.count, w.first + o, w.obstacles, w.points) for w, o in zip(parts, offsets)))))


def _ragged_differ(n, fa, fb, ids):
    """Whether ids[fa[i]:fa[i] + n[i]] and ids[fb[i]:fb[i] + n[i]] differ,
    pair by pair."""
    pair = np.repeat(np.arange(n.size), n)
    k = np.arange(pair.size) - np.repeat(np.cumsum(n) - n, n)
    differ = np.zeros(n.size, dtype=bool)
    differ[pair[ids[fa[pair] + k] != ids[fb[pair] + k]]] = True
    return differ


def _words_differ(words: _Words, a, b):
    """Whether the words of the shots a and b differ, pair by pair."""
    count, first, ids, _ = words
    la, lb = count[a], count[b]
    return (la != lb) | _ragged_differ(np.where(la == lb, la, 0), first[a], first[b], ids)


def _end_edges(words: _Words, a, b):
    """Whether the words of the shots a and b, pair by pair, differ by one
    reflection added at the start or the end of one of them."""
    count, first, ids, _ = words
    la, lb = count[a], count[b]
    one = np.abs(la - lb) == 1
    n = np.where(one, np.minimum(la, lb), 0)
    short, long = np.where(la < lb, first[a], first[b]), np.where(la < lb, first[b], first[a])
    return one & ~(_ragged_differ(n, short, long, ids) & _ragged_differ(n, short, long + 1, ids))


@dataclass(frozen=True)
class _Sweep2D:
    frame: np.ndarray  # rows: the inward normal at x and its turn by a right angle
    psi: np.ndarray  # launch angles, increasing
    escaped: np.ndarray
    angle: np.ndarray  # exit angle about the ball center, 0 where not escaped
    words: _Words  # empty where not escaped


def _frames(scene: Scene, xs):
    """(n, 2, 2): at each point of xs, the inward normal m of the reference
    circle and its turn mp by a right angle (d = 2)."""
    m = np.asarray(scene.ball_center) - xs
    m = m / np.sqrt(_coldot(m, m))[:, None]
    return np.stack([m, np.column_stack([-m[:, 1], m[:, 0]])], axis=1)


def _fan_shots(scene: Scene, xs, frames, psi):
    """Trace the d = 2 launches at the angles psi from the rows of xs in the
    frames, all in one lockstep batch; returns (left, exit angle about the
    ball center, 0 where a shot does not leave the sphere, _Words, empty
    where it does not)."""
    u = np.cos(psi)[:, None] * frames[:, 0] + np.sin(psi)[:, None] * frames[:, 1]
    escaped, legs, _, dirs, log = _trace_many(scene, xs, u)
    s, disc = _sphere_exit(scene, legs, dirs, scene.ball_radius)
    ok = escaped & (disc >= 0.0) & (s >= 0.0)
    pts = legs[ok] + s[ok, None] * dirs[ok] - np.asarray(scene.ball_center)
    angle = np.zeros(len(u))
    angle[ok] = np.arctan2(pts[:, 1], pts[:, 0])
    words = _log_words(log, len(u))
    return ok, angle, words._replace(count=np.where(ok, words.count, 0))


def _sweeps_2d(scene: Scene, xs: np.ndarray, n_seeds: int):
    """The inward seed sweep from every point of xs, in lockstep batches: all
    seeds in one, then the seed gaps that need a split at each depth in one
    each, every midpoint splitting its gap; a sweep is its shots sorted by
    psi, with their words. Returns (sweeps, cutoff seeds, rays traced)."""
    frames = _frames(scene, xs)
    src = np.repeat(np.arange(len(xs)), n_seeds)
    psi = np.tile(-0.5 * math.pi + math.pi * (np.arange(n_seeds) + 0.5) / n_seeds, len(xs))
    escaped, angle, words = _fan_shots(scene, xs[src], frames[src], psi)
    cutoff = int(np.count_nonzero(~escaped))
    a = np.flatnonzero((np.arange(psi.size) + 1) % n_seeds)
    b = a + 1
    for _ in range(_BOUNDARY_SPLIT_DEPTH):
        split = ((escaped[a] != escaped[b]) | _words_differ(words, a, b)
                 | (escaped[a] & (np.abs(_wrap(angle[a] - angle[b])) > _EXIT_JUMP_TOL)))
        a, b = a[split], b[split]
        if not a.size:
            break
        mid = np.arange(psi.size, psi.size + a.size)
        src = np.concatenate([src, src[a]])
        psi = np.concatenate([psi, 0.5 * (psi[a] + psi[b])])
        ok, ang, new = _fan_shots(scene, xs[src[mid]], frames[src[mid]], psi[mid])
        escaped, angle = np.concatenate([escaped, ok]), np.concatenate([angle, ang])
        words = _join_words([words, new])
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
    order = np.lexsort((psi, src))
    ends = np.cumsum(np.bincount(src, minlength=len(xs)))
    sweeps = [_Sweep2D(f, psi[rows], escaped[rows], angle[rows], words.take(rows))
              for f, rows in zip(frames, np.split(order, ends[:-1]))]
    return sweeps, cutoff, int(psi.size)


def _wrap(angle):
    return (angle + math.pi) % _TWO_PI - math.pi


# ---------------------------------------------------------------------------
# Travelling times: candidate words
# ---------------------------------------------------------------------------
# A root from x to y is a critical point of the length of the paths off the
# bodies of one word in turn. The sweeps say which words occur near a pair
# and where their reflection points lie.

# Rounds of d = 2 bracket narrowing, and launches inside a bracket per round.
_NARROW_DEPTH = 8
_NARROW_LAUNCHES = 7


def _brackets(both, da, db, differ, edge):
    """The d = 2 candidate rule on launch gaps: both ends leave where both
    holds, the exit-angle misses to y are da and db, and the end words differ
    where differ holds, by one reflection at the start or end of the path
    where edge does (_end_edges). A gap holds a root when its a end exits exactly at y or
    the misses change sign other than by a wrap across the antipode. Where
    the words are equal, or differ at an edge, a tangency of the first or
    last leg across which the exit angle is continuous, the root's word is
    one of them: the word of the end that misses less is solved, and the
    other too where they differ. Where they differ otherwise, the word of
    the end that misses less is solved, as the root may sit beside it next
    to a second crossing, and the gap is narrowed, as the root's word may be
    neither. Returns masks (solve from a, solve from b, narrow)."""
    straddle = both & (da * db < 0.0) & (np.abs(da - db) < math.pi)
    near = np.abs(da) <= np.abs(db)
    return ((both & (da == 0.0)) | (straddle & (near | edge)), straddle & (edge | ~near),
            straddle & differ & ~edge)


def _edge_words(psi, escaped, miss, words: _Words, differ):
    """The words that may hold a root beside a branch edge of a d = 2 sweep
    with no sign change at its gap's ends: past a tangency the exit angle
    leaves with an infinite slope, so a word's miss can cross zero just
    before its edge and come back before the next shot. For each row of
    misses and each gap whose end words differ (differ, per gap): where the
    miss of one end, carried on linearly from the shot before it on the
    same word, changes sign inside the gap, that end's word is solved from
    it, and so are the prefixes of the other end's word that extend it,
    from the other end. Returns (row, _Words)."""
    count, first, ids, points = words
    rows, shots, others = [], [], []
    for side in (1, -1):
        # Shots on the near side of a gap whose words differ, with the shot
        # before them on the same word.
        near = np.flatnonzero(differ[:-1] & ~differ[1:]) + 1 if side < 0 else (
            np.flatnonzero(~differ[:-1] & differ[1:]) + 1)
        prev, far = near - side, near + side
        near = near[escaped[near] & escaped[prev] & escaped[far]]
        prev, far = near - side, near + side
        step = miss[:, near] - miss[:, prev]
        ahead = miss[:, near] + step * ((psi[far] - psi[near]) / (psi[near] - psi[prev]))
        row, at = np.nonzero((np.abs(step) < math.pi) & (miss[:, near] * ahead < 0.0))
        rows.append(row)
        shots.append(near[at])
        others.append(far[at])
    row, shot, other = (np.concatenate(v) for v in (rows, shots, others))
    k, kf = count[shot], count[other]
    chain = k < kf - 1
    extra = np.where(chain & ~_ragged_differ(np.where(chain, k, 0), first[shot], first[other], ids),
                     kf - k - 1, 0)
    which = np.repeat(np.arange(shot.size), extra)
    length = k[which] + 1 + np.arange(which.size) - np.repeat(np.cumsum(extra) - extra, extra)
    return np.concatenate([row, row[which]]), _join_words(
        [words.take(shot), _Words(length, first[other][which], ids, points).take(
            np.arange(which.size))])


def _narrow(scene, brackets, tally):
    """Narrow d = 2 brackets in lockstep: each round traces _NARROW_LAUNCHES
    evenly spaced launches inside every open bracket in one batch, and its
    sub-brackets are taken by _brackets. brackets holds, per bracket, its
    pair slot, x, frame and angle of y, and the (psi, miss, words) of its
    two ends, one after the other. Counts the launches as refine_shots, a
    bracket that keeps no sub-bracket (a launch inside it stayed in the
    scene, or its miss jumped across the antipode) as "dropped_lost" and one
    still split after _NARROW_DEPTH rounds as "dropped_split". Returns
    ([slots], [_Words]) of the shots to solve from."""
    slot, x, frame, ty, psi, miss, words = brackets
    escaped = np.ones(psi.size, dtype=bool)
    lo = np.arange(0, psi.size, 2)
    hi, at = lo + 1, np.arange(lo.size)
    frac = np.arange(1, _NARROW_LAUNCHES + 1) / (_NARROW_LAUNCHES + 1)
    slots, found = [], []
    for _ in range(_NARROW_DEPTH):
        if not lo.size:
            break
        inner = (psi[lo, None] + (psi[hi] - psi[lo])[:, None] * frac).ravel()
        of = np.repeat(at, _NARROW_LAUNCHES)
        ok, angle, new = _fan_shots(scene, x[of], frame[of], inner)
        tally["refine_shots"] += inner.size
        rows = psi.size + np.arange(inner.size).reshape(lo.size, _NARROW_LAUNCHES)
        psi, miss = np.concatenate([psi, inner]), np.concatenate([miss, _wrap(angle - ty[of])])
        escaped, words = np.concatenate([escaped, ok]), _join_words([words, new])
        chain = np.column_stack([lo, rows, hi])
        a, b = chain[:, :-1].ravel(), chain[:, 1:].ravel()
        owner = np.repeat(at, _NARROW_LAUNCHES + 1)
        from_a, from_b, narrow = _brackets(escaped[a] & escaped[b], miss[a], miss[b],
                                           _words_differ(words, a, b), _end_edges(words, a, b))
        gap, side = np.nonzero(np.column_stack([from_a, from_b]))
        slots.append(slot[owner[gap]])
        found.append(words.take(np.where(side == 0, a[gap], b[gap])))
        _drop(tally, "dropped_lost", lo.size - np.unique(owner[gap]).size)
        lo, hi, at = a[narrow], b[narrow], owner[narrow]
    _drop(tally, "dropped_split", lo.size)
    return slots, found


def _drop(tally, reason: str, n: int) -> None:
    tally["dropped_clusters"] += n
    tally[reason] += n


def _body_tables(scene: Scene):
    """Each body's centre c, R D and M = R D^-2 R^T, coordinates first."""
    bodies, d = scene.bodies, scene.dimension
    return (np.array([b._c for b in bodies]).reshape(-1, d).T,
            np.array([np.multiply(b.rotation, b.semiaxes) for b in bodies]
                     ).reshape(-1, d, d).transpose(1, 2, 0),
            np.array([b._M for b in bodies]).reshape(-1, d, d).transpose(1, 2, 0))


def _one_bounce_starts(scene: Scene, xs, ys):
    """Each body's one-bounce word for every pair (xs[i], ys[i]), started at
    the body point whose outward normal n bisects the directions from the
    body's centre to x and y: s = (R D)^T n normalised, since the normal at
    c + R D s is along R D^-1 s. Returns (pair, _Words); a pair whose x and
    y are opposite about a centre gets no start there."""
    nb = len(scene.bodies)
    pair, body = np.repeat(np.arange(len(xs)), nb), np.tile(np.arange(nb), len(xs))
    c, jac, _ = (t[..., body] for t in _body_tables(scene))
    ex, ey = xs[pair].T - c, ys[pair].T - c
    with np.errstate(divide="ignore", invalid="ignore"):
        s = _mat_vec(jac.transpose(1, 0, 2), ex / np.sqrt(_dot(ex, ex)) + ey / np.sqrt(_dot(ey, ey)))
        q = c + _mat_vec(jac, s / np.sqrt(_dot(s, s)))
    ok = np.isfinite(q).all(axis=0)
    n = int(np.count_nonzero(ok))
    return pair[ok], _Words(np.ones(n, dtype=int), np.arange(n), body[ok], q.T[ok])


# ---------------------------------------------------------------------------
# Travelling times: Newton's method on the path length
# ---------------------------------------------------------------------------

# Newton steps after which a word's path search gives up.
_NEWTON_CAP = 20
# Words per Newton batch. Criterion 8's three-disk n = 48 table, 103,708
# words and 321,734 reflection points, peaked at 326 MB resident solved in
# one batch and at 154 MB in batches of 4,096 words; batches of 2,048 or
# 16,384 words solved its words no faster.
_BATCH_WORDS = 4096
# Reflection points of a batch's stopped words that pay for laying out its
# live words anew: on criterion 8's words 512 to 2,048 points solved in
# 0.70-0.75 s, against 1.37 s with no new layout and 0.85 s at 8,192. The
# benchmark's tables hold at most 298 points, where new layouts saved nothing.
_COMPACT_POINTS = 1024


def _mat_vec(m, v):
    """m v for each column: m is (d, d, n) and v (d, n), summed in
    coordinate order."""
    return _dot(m.transpose(1, 0, 2), v[:, None])


def _block_solve(a, b):
    """a^-1 b for each column by Gaussian elimination without pivoting: a is
    (m, m, n) and b (m, l, n). A zero pivot gives inf or nan, not an error."""
    m = len(a)
    a, b = a.copy(), b.copy()
    for k in range(m):
        for i in range(k + 1, m):
            f = a[i, k] / a[k, k]
            a[i, k + 1:] -= f * a[k, k + 1:]
            b[i] -= f * b[k]
    for k in reversed(range(m)):
        if k + 1 < m:
            b[k] -= _dot(a[k, k + 1:, None], b[k + 1:])
        b[k] /= a[k, k]
    return b


def _layout(words: _Words, act):
    """The reflection points of the words act, longest first, in
    position-major order: row i, the slice rows[i], holds the i-th point of
    each of the first words. Returns (rows, and per point: its index in
    words, its word's place in act, whether its word goes on past it, and
    the columns of its neighbours along the path in [points, x, y])."""
    k = words.count[act]
    ns = np.bincount(k)[::-1].cumsum()[::-1][1:]
    starts = np.cumsum(ns) - ns
    row = np.repeat(np.arange(ns.size), ns)
    col = np.arange(row.size) - starts[row]
    more = col < np.append(ns[1:], 0)[row]
    return ([slice(st, st + n) for st, n in zip(starts.tolist(), ns.tolist())],
            words.first[act][col] + row, col, more,
            np.where(row > 0, starts[row - 1] + col, row.size + col),
            np.where(more, np.append(starts[1:], 0)[row] + col, row.size + act.size + col))


def _block_thomas(rows, diag, up, rhs):
    """Solve the block-tridiagonal system of each word laid out in rows by
    _layout, with diagonal blocks diag (m, m, points), each point's block up
    to the next point of its word (the transpose below) and right side rhs
    (m, points), by block elimination down each word and substitution up."""
    m = len(rhs)
    # Per point: its eliminated diagonal block's inverse times [up, rhs].
    z = np.concatenate([up, rhs[:, None]], axis=1)
    for i, row in enumerate(rows):
        d = diag[:, :, row]
        if i:
            above = slice(rows[i - 1].start, rows[i - 1].start + row.stop - row.start)
            cz = _dot(up[:, :, None, above], z[:, None, :, above])
            d = d - cz[:, :m]
            z[:, m, row] -= cz[:, m]
        z[:, :, row] = _block_solve(d, z[:, :, row])
    x = z[:, m]
    for row, below in zip(rows[-2::-1], rows[:0:-1]):
        top = slice(row.start, row.start + below.stop - below.start)
        x[:, top] -= _dot(z[:, :m, top].transpose(1, 0, 2), x[:, None, below])
    return x


def _tangent_basis(s):
    """An orthonormal basis, (d, d - 1, n), of the tangent space at each unit
    column of s: the columns other than j of the Householder reflection
    I - 2 v v^T / v.v, v = s + sign(s_j) e_j, with j the largest |s_j|."""
    d, n = s.shape
    j = np.argmax(np.abs(s), axis=0)
    at = np.arange(n)
    v = s.copy()
    v[j, at] += np.where(s[j, at] < 0.0, -1.0, 1.0)
    others = np.array([[i for i in range(d) if i != k] for k in range(d)], dtype=int)[j].T
    return np.eye(d)[:, others] - (2.0 / _dot(v, v)) * v[:, None] * v[others, at]


def _solve_words(scene: Scene, xs, ys, words: _Words):
    """Newton's method on the length L = |x - q_1| + sum |q_i - q_{i+1}| +
    |q_k - y| of the paths off the bodies of a word in turn, for every word
    of words, from its row of xs to that of ys and started at its points
    (Petkov & Stoyanov, Geometry of Reflecting Rays and Inverse Spectral
    Problems, 1992). Each q_i = c_i + R_i D_i s_i moves with s_i on the unit
    sphere, stepped in _tangent_basis(s_i); L's Hessian is block-tridiagonal
    with (d - 1) x (d - 1) blocks, each diagonal one less
    (dL/dq_i . R_i D_i s_i) I for the sphere's curvature, solved by
    _block_thomas. A word stops, and is frozen, once a times its defect, the
    largest part of a dL/dq_i tangent to its body, is below the goal. The
    words are solved longest first in batches of at most _BATCH_WORDS, by
    _newton_batch. Each operation acts on each word alone with sums in a
    fixed order, so no result depends on the batch or on its layout.

    The path is a trajectory when both legs leave each q_i on the body's
    outside at a cosine above TANGENT_COS_EPS, else "dropped_inward", and
    no leg meets a body before its end, a grazing hit aside, else
    "dropped_blocked"; the legs of each batch are searched in one _blocked
    call. A search past _NEWTON_CAP steps, or with a step that is not finite
    (a singular Hessian), ends "dropped_residual". Returns per word (t,
    dir_in, dir_out, a times the defect, Newton steps, reason), reason None
    for a root and the directions as (d, words) arrays.
    """
    xs, ys = np.asarray(xs, dtype=float).T, np.asarray(ys, dtype=float).T
    nw = words.count.size
    out = (np.zeros(nw), np.zeros((len(xs), nw)), np.zeros((len(xs), nw)), np.zeros(nw),
           np.zeros(nw, dtype=int), [None] * nw)
    t, dir_in, dir_out, defect, steps, reason = out
    chords = np.flatnonzero(words.count == 0)
    e = ys[:, chords] - xs[:, chords]
    with np.errstate(divide="ignore", invalid="ignore"):
        t[chords] = np.sqrt(_dot(e, e))
        dir_in[:, chords] = dir_out[:, chords] = e / t[chords]
    # Per leg to search: its word, start, direction and reach.
    legs = [(chords, xs[:, chords], dir_in[:, chords], t[chords])]
    act = np.flatnonzero(words.count)
    act = act[np.argsort(-words.count[act], kind="stable")]
    # One batch at least, which searches the chords' legs.
    for start in range(0, max(act.size, 1), _BATCH_WORDS):
        _newton_batch(scene, xs, ys, words, act[start:start + _BATCH_WORDS], out, legs)
        owner, o, u, reach = (np.concatenate(f, axis=-1) for f in zip(*legs))
        for i in np.unique(owner[_blocked(scene, o, u, reach)]).tolist():
            reason[i] = "dropped_blocked"
        legs = []
    return t, dir_in, dir_out, scene.ball_radius * defect, steps, reason


def _newton_batch(scene: Scene, xs, ys, words: _Words, act, out, legs):
    """_solve_words' Newton passes on the words act, longest first: writes
    each word's t, directions, defect, steps and reason into out and
    appends the legs of each path left to check to legs. Once the stopped
    words hold _COMPACT_POINTS reflection points, or no word is live, the
    stopped words are finished from the pass just made, whose values their
    frozen points would give again, and the live words are laid out anew
    without them."""
    t, dir_in, dir_out, defect, steps, reason = out
    goal = _RESIDUAL_MARGIN * _root_tol(scene) / scene.ball_radius
    eye = np.eye(len(xs) - 1)[:, :, None]
    tables = _body_tables(scene)
    taken, s = np.zeros(act.size, dtype=int), None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while act.size:
            rows, point, col, more, prev, nxt = _layout(words, act)
            # Each reflection point's body's centre, R D and M, in layout order.
            c, jac, mat = (tb[..., words.obstacles[point]] for tb in tables)
            if s is None:
                # s = (R D)^-1 (q - c) = (R D)^T M (q - c).
                s = _mat_vec(jac.transpose(1, 0, 2), _mat_vec(mat, words.points[point].T - c))
                s = s / np.sqrt(_dot(s, s))
            path = np.concatenate([np.zeros((len(xs), point.size)), xs[:, act], ys[:, act]],
                                  axis=1)
            live, failed = np.ones(act.size, dtype=bool), np.zeros(act.size, dtype=bool)
            below = np.where(more, nxt, 0)
            while True:
                w = _mat_vec(jac, s)
                path[:, :point.size] = q = c + w
                e_in, e_out = q - path[:, prev], path[:, nxt] - q
                l_in, l_out = np.sqrt(_dot(e_in, e_in)), np.sqrt(_dot(e_out, e_out))
                u_in, u_out = e_in / l_in, e_out / l_out
                g = u_in - u_out
                n = _mat_vec(mat, w)
                n = n / np.sqrt(_dot(n, n))
                tangent = g - _dot(g, n) * n
                worst = np.zeros(act.size)
                np.maximum.at(worst, col, _dot(tangent, tangent))
                worst = np.sqrt(worst)
                live &= ~(worst < goal)
                failed |= live & (taken == _NEWTON_CAP)
                live &= taken < _NEWTON_CAP
                if live.any():
                    taken += live
                    basis = _tangent_basis(s)
                    b = _dot(jac.transpose(1, 0, 2)[:, :, None], basis[:, None])
                    bn = b[:, :, below]
                    b_in, b_out = _dot(b, u_in[:, None]), _dot(b, u_out[:, None])
                    gram = _dot(b[:, :, None], b[:, None])
                    diag = ((gram - b_in[:, None] * b_in) / l_in
                            + (gram - b_out[:, None] * b_out) / l_out - eye * _dot(g, w))
                    up = (b_out[:, None] * _dot(bn, u_out[:, None])
                          - _dot(b[:, :, None], bn[:, None])) / l_out
                    x = _block_thomas(rows, diag, up, -_dot(b, g[:, None]))
                    if not np.isfinite(x).all():
                        bad = np.zeros(act.size, dtype=bool)
                        np.logical_or.at(bad, col, ~np.isfinite(x).all(axis=0))
                        failed |= live & bad
                        live &= ~bad
                    moved = s + _dot(x, basis.transpose(1, 0, 2))
                    s = np.where(live[col], moved / np.sqrt(_dot(moved, moved)), s)
                if not live.any() or np.count_nonzero(~live[col]) >= _COMPACT_POINTS:
                    break
            # The stopped words' paths: length leg by leg in path order, end
            # directions, and the least outward cosine of their legs.
            done, last = ~live, ~more
            length = l_in[:act.size].copy()
            for row in rows[1:]:
                length[:row.stop - row.start] += l_in[row]
            length[col[last]] += l_out[last]
            low = np.full(act.size, np.inf)
            np.minimum.at(low, col, np.minimum(-_dot(u_in, n), _dot(u_out, n)))
            ids = act[done]
            t[ids], dir_in[:, ids] = length[done], u_in[:, :act.size][:, done]
            steps[ids], defect[ids] = taken[done], worst[done]
            ends = last & done[col]
            dir_out[:, act[col[ends]]] = u_out[:, ends]
            inward = done & ~failed & ~(low > TANGENT_COS_EPS)
            for i in act[done & failed].tolist():
                reason[i] = "dropped_residual"
            for i in act[inward].tolist():
                reason[i] = "dropped_inward"
            fine = (done & ~failed & ~inward)[col]
            final = fine & last
            legs.append((act[col[fine]], path[:, prev[fine]], u_in[:, fine], l_in[fine]))
            legs.append((act[col[final]], q[:, final], u_out[:, final], l_out[final]))
            act, taken, s = act[live], taken[live], s[:, live[col]]


def _blocked(scene: Scene, o, u, reach):
    """Whether a body blocks each leg from the columns of o along those of u
    for its reach: whether a body is met more than SURFACE_OFFSET_FRAC a past
    the leg's start and as far short of its end, a grazing hit aside. All
    legs are searched in one batched _hits call, and those that graze again
    from just past the tangency."""
    a = scene.ball_radius
    off, skip = SURFACE_OFFSET_FRAC * a, GRAZE_SKIP_FRAC * a
    blocked = np.zeros(len(reach), dtype=bool)
    leg = np.arange(len(reach))
    o, reach = o + off * u, reach - 2.0 * off
    while leg.size:
        rows, t, _, _, grazing, p, _ = _hits(scene, o, u)
        short = t < reach[rows]
        blocked[leg[rows[short & ~grazing]]] = True
        again = short & grazing
        rows = rows[again]
        u = u[:, rows]
        o, reach, leg = p[:, again] + skip * u, reach[rows] - t[again] - skip, leg[rows]
    return blocked


def _root_tol(scene: Scene) -> float:
    """Largest a times the defect of an accepted root, and largest time gap
    between two solves of one root."""
    return REFINE_TOL_FRAC * scene.ball_radius


def _reversed(s: TravellingTimeSample, pair: int) -> TravellingTimeSample:
    """The exact time reversal of s, as a sample of pair: x and y swapped,
    the directions negated and swapped, the word reversed."""
    return TravellingTimeSample(pair, s.y, s.x, s.t, s.reflections, tuple(-c for c in s.dir_out),
                                tuple(-c for c in s.dir_in), s.residual, s.itinerary[::-1])


def find_xy_geodesics(scene: Scene, x, y,
                      n_seeds: Optional[int] = None) -> list[TravellingTimeSample]:
    """All resolved geodesics entering the reference sphere at x and leaving at y.

    Sweeps run from both endpoints, and each root found from one is also
    entered reversed for the other, so the result is symmetric under
    swapping the endpoints.
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

@functools.lru_cache(maxsize=8)
def _hemisphere(n_seeds: int):
    """The n_seeds inward seeds in the frame whose z-axis points into the
    ball, read-only, one array per process shared by every d = 3 sweep."""
    hemi = fibonacci_sphere(2 * n_seeds)
    hemi = hemi[hemi[:, 2] > 1e-6][:n_seeds]
    hemi.flags.writeable = False
    return hemi


@dataclass(frozen=True)
class _Sweep3D:
    """One source point's traced seeds, in the order of _hemisphere's
    lattice carried into the point's frame."""
    exits: np.ndarray  # (3, seeds): exit point per seed, inf where the trace does not leave
    window: float  # misses above this are too far from any root to solve for
    words: _Words


def _sweeps_3d(scene, xs, n_seeds):
    """The inward hemisphere seeds at every point of xs, all traced in one
    lockstep batch; returns (sweeps, cutoff seeds, rays traced)."""
    center = np.asarray(scene.ball_center)
    hemi = _hemisphere(n_seeds)
    frames = []
    for x in xs:
        m = (center - x) / float(np.linalg.norm(center - x))
        frames.append([m, *plane_basis(m)])
    # Every point's seeds in one broadcast, coordinate first: (3, points, seeds).
    f = np.array(frames).T[..., None]
    seeds = hemi[:, 2] * f[:, 0] + hemi[:, 0] * f[:, 1] + hemi[:, 1] * f[:, 2]
    escaped, legs, _, dirs, log = _trace_many(scene, np.repeat(xs, len(hemi), axis=0),
                                              seeds.reshape(3, -1).T)
    s, disc = _sphere_exit(scene, legs, dirs, scene.ball_radius)
    left = escaped & (disc >= 0.0) & (s >= 0.0)
    exits = np.where(left, (legs + s[:, None] * dirs).T, np.inf)
    window = 4.0 * scene.ball_radius * math.sqrt(4.0 * math.pi / n_seeds)
    words = _log_words(log, left.size)
    sweeps = [_Sweep3D(e, window, words.take(rows))
              for e, rows in zip(np.split(exits, len(xs), axis=1),
                                 np.split(np.arange(left.size), len(xs)))]
    return sweeps, int(np.count_nonzero(~left)), left.size


def _least_misses(sweep: _Sweep3D, y):
    """The d = 3 candidate rule: of the seeds whose exit misses y by at most
    sweep.window, the least-miss seed of each word, in increasing order of
    miss, ties in order of seed. Only the seeds in the window are sorted."""
    e = sweep.exits - y[:, None]
    misses = np.sqrt(_dot(e, e))
    near = np.flatnonzero(misses <= sweep.window)
    near = near[np.argsort(misses[near], kind="stable")]
    words = sweep.words
    ids = words.obstacles.tolist()
    least = {}
    for i, f, k in zip(near.tolist(), words.first[near].tolist(), words.count[near].tolist()):
        least.setdefault(tuple(ids[f:f + k]), i)
    return np.fromiter(least.values(), dtype=np.intp, count=len(least))


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
                          ("refine_shots", tally["refine_shots"]),
                          ("newton_steps", tally["newton_steps"]), ("sweep_rays", rays)))


def _travel(scene: Scene, pts, pairs, n_seeds: int, threads: int = 1):
    """The travel search over ordered index pairs (i, j) of pts, where (j, i)
    is a pair whenever (i, j) is; returns (samples per pair, cutoff seeds,
    a Counter of narrowing launches, Newton steps and drops, sweep rays
    traced).

    The inward seed sweeps of all source points are traced first, in
    lockstep batches, and each serves every partner of its point. The
    candidate words of every pair are then solved by one _solve_words call
    per share of the source points: one share, or one per pool worker when
    threads > 1.
    Each point pair is merged once, oriented from its lesser point (by
    coordinates, then by index, so that equal endpoints merge too): the
    roots found from that point and the exact time reversals of those found
    from the other, one per word, the copy with the least residual, the
    lesser point's on a tie. Its cell is sorted by (t, residual, word), and
    the mirror cell is its exact reversal.
    """
    sources = sorted({i for i, _ in pairs})
    sweep_all = _sweeps_2d if scene.dimension == 2 else _sweeps_3d
    sweeps, cutoff, rays = sweep_all(scene, np.array([pts[i] for i in sources]), n_seeds)
    partners = {i: [] for i in sources}
    for k, (i, j) in enumerate(pairs):
        partners[i].append((k, pts[j]))
    share = [(pts[i], sweep, partners[i]) for i, sweep in zip(sources, sweeps)]
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        parts = [share[w::threads] for w in range(min(threads, len(share)))]
        with ProcessPoolExecutor(max_workers=len(parts)) as pool:
            chunks = list(pool.map(_spectrum_worker, [(scene, part) for part in parts]))
    else:
        chunks = [_spectrum_worker((scene, share))]
    raw = {}
    tally = Counter()
    for chunk_samples, chunk_tally in chunks:
        tally.update(chunk_tally)
        raw.update(chunk_samples)
    pair_index = {ij: k for k, ij in enumerate(pairs)}
    key = [(_as_tuple(p), i) for i, p in enumerate(pts)]
    cells = [None] * len(pairs)
    for k, (i, j) in enumerate(pairs):
        if key[i] > key[j]:
            continue
        m = pair_index[(j, i)]
        kept = dict(raw[k])
        for word, s in raw[m].items():
            word = word[::-1]
            if word not in kept or s.residual < kept[word].residual:
                kept[word] = _reversed(s, k)
        cells[k] = sorted(kept.values(), key=lambda s: (s.t, s.residual, s.itinerary))
        cells[m] = [_reversed(s, m) for s in cells[k]]
    return cells, cutoff, tally, rays


def _spectrum_worker(args):
    """The raw roots of every pair of a share of the source points: the
    candidate words of all its pairs, from their sweeps, from narrowed d = 2
    brackets and each body's one-bounce word, solved in one _solve_words
    call. A root is its pair and its word, so of the converged copies of
    one (pair, word) only the first with the least residual becomes a
    sample. Returns ([(pair, {word: sample})], a Counter of narrowing
    launches, Newton steps and drops)."""
    scene, share = args
    tally = Counter()
    pairs, xs, ys, slots, found, narrowing = [], [], [], [], [], []
    for x, sweep, partners in share:
        first = len(pairs)
        pairs += [k for k, _ in partners]
        xs += [x] * len(partners)
        ys += [y for _, y in partners]
        if scene.dimension == 3:
            for i, (_, y) in enumerate(partners):
                rows = _least_misses(sweep, y)
                slots.append(np.full(rows.size, first + i))
                found.append(sweep.words.take(rows))
            continue
        # The candidate rule on every gap of the sweep for all partners at
        # once, one row of exit-angle misses per partner.
        y = np.array(ys[first:]) - np.asarray(scene.ball_center)
        ty = np.arctan2(y[:, 1], y[:, 0])
        miss = _wrap(sweep.angle - ty[:, None])
        gap = np.arange(sweep.psi.size - 1)
        differ = _words_differ(sweep.words, gap, gap + 1)
        from_a, from_b, narrow = _brackets(sweep.escaped[:-1] & sweep.escaped[1:], miss[:, :-1],
                                           miss[:, 1:], differ, _end_edges(sweep.words, gap, gap + 1))
        pair, at, side = np.nonzero(np.stack([from_a, from_b], axis=-1))
        slots.append(first + pair)
        found.append(sweep.words.take(at + side))
        pair, near = _edge_words(sweep.psi, sweep.escaped, miss, sweep.words, differ)
        slots.append(first + pair)
        found.append(near)
        pair, at = np.nonzero(narrow)
        ends = np.column_stack([at, at + 1]).ravel()
        narrowing.append((first + pair, np.repeat([x], pair.size, axis=0),
                          np.repeat([sweep.frame], pair.size, axis=0), ty[pair],
                          sweep.psi[ends], miss[pair.repeat(2), ends],
                          sweep.words.take(ends)))
    xs, ys = np.array(xs), np.array(ys)
    if narrowing:
        *arrays, words = zip(*narrowing)
        got_slots, got = _narrow(scene, [*map(np.concatenate, arrays), _join_words(words)], tally)
        slots += got_slots
        found += got
    one_slot, one = _one_bounce_starts(scene, xs, ys)
    slot, words = np.concatenate(slots + [one_slot]), _join_words(found + [one])
    t, dir_in, dir_out, residual, steps, reason = _solve_words(scene, xs[slot], ys[slot], words)
    tally["newton_steps"] += int(steps.sum())
    best = [{} for _ in pairs]
    ids, first, count, res = (words.obstacles.tolist(), words.first.tolist(),
                              words.count.tolist(), residual.tolist())
    for n, (i, why, f, k) in enumerate(zip(slot.tolist(), reason, first, count)):
        if why is not None:
            _drop(tally, why, 1)
            continue
        word = tuple(ids[f:f + k])
        kept = best[i].setdefault(word, n)
        if res[n] < res[kept]:
            best[i][word] = n
    keep = [(i, word, n) for i, b in enumerate(best) for word, n in b.items()]
    rows = np.array([n for _, _, n in keep], dtype=np.intp)
    ends = [(_as_tuple(x), _as_tuple(y)) for x, y in zip(xs, ys)]
    for (i, word, n), tj, din, dout in zip(keep, t[rows].tolist(), dir_in[:, rows].T.tolist(),
                                           dir_out[:, rows].T.tolist()):
        best[i][word] = TravellingTimeSample(pairs[i], *ends[i], tj, len(word), tuple(din),
                                             tuple(dout), res[n], word)
    return list(zip(pairs, best)), tally


def spectrum_pairs(scene: Scene, n_points: int, min_sep_deg: float = 1.0,
                   phase: float = 0.0) -> list[tuple[np.ndarray, np.ndarray]]:
    """The ordered point pairs a travel table with these parameters measures."""
    pts, pairs = _pair_grid(scene, n_points, min_sep_deg, phase)
    return [(pts[i], pts[j]) for i, j in pairs]


def _pair_grid(scene: Scene, n_points: int, min_sep_deg: float, phase: float):
    """Lattice points on the reference sphere and the ordered index pairs
    (i, j) of distinct points more than min_sep_deg apart; the separation
    test is symmetric, so (j, i) is a pair whenever (i, j) is. Refuses a
    phase that is not finite, and a nonzero one in d >= 3, whose lattices do
    not turn."""
    if not math.isfinite(phase):
        raise ContractError(f"the lattice phase must be finite, not {phase}")
    if phase != 0.0 and scene.dimension >= 3:
        raise ContractError(f"the lattice phase turns the planar lattice only, so d = "
                            f"{scene.dimension} takes phase 0, not {phase}")
    dirs = sphere_lattice(scene.dimension, n_points, phase)
    pts = np.asarray(scene.ball_center) + scene.ball_radius * dirs
    min_cos = math.cos(math.radians(min_sep_deg))
    pairs = [(i, j) for i in range(n_points) for j in range(n_points)
             if i != j and float(dirs[i] @ dirs[j]) < min_cos]
    return pts, pairs
