"""The two scattering observables.

A sojourn time is the time a trajectory spends between the two hyperplanes
tangent to the reference ball that face the incoming and outgoing
directions, minus the ball diameter. It is computed from the reflection
points as T = L + <p0 - c, omega> - <x_k - c, theta> (launch point p0, last
event x_k, path length L between them, ball center c). The formula holds
for any reference ball containing the obstacles, so the result does not
depend on the ball's radius, which is one of the acceptance checks.

Travelling times are found by word enumeration. Every root is the length of
a reflecting ray, so it is a critical point of the length of the paths off
the bodies of one word in turn (Petkov & Stoyanov, 1992). A word is
admissible when no body appears twice in a row, so k bodies have
k(k-1)^(m-1) words of length m >= 1 and one, the free chord, of length 0. A
search of depth m solves every admissible word of length 0 to m for each
unordered point pair, once, from the pair's lesser point, by Newton's
method on the path length: the words of a table, or of one pool worker's
share of its pairs, are taken pair by pair in runs of at most _BATCH_WORDS
words, each built and solved at once, which bounds the search's working
memory whatever the number of words per pair. Stopped words are dropped
from a run as it goes. A word stops when its mirror-law defect, times the
ball radius, is below _RESIDUAL_MARGIN times the root tolerance. The
starts are built inside the solver, in its first layout of a run's words.
Each reflection point starts where its body's outward normal bisects the
directions from the body's centre to its two anchors, x or the previous
body's centre and the next body's centre or y, with a neighbour's start for
an anchor opposite the other; a word still without a start ends there as
dropped_start. Each start is then re-aimed once, at x or the previous start
and the next start or y. A path that enters a body or meets one before
the end of a leg is no trajectory and is dropped. A root is named by its
pair and its word: the search takes each admissible word to have at most
one reflecting ray between two points, as under no eclipse, and a table
holds the roots of every admissible word through depth m, and none deeper.
The search is symmetrized: the mirror cell of a pair holds the exact time
reversals of its samples, so both orders of a pair hold the same samples,
reversed, bit for bit. Paths that do not converge or are no trajectory are
dropped and counted by reason in the table diagnostics, next to the Newton
steps.
Travel in d >= 4, on scenes with curve obstacles, between endpoints off the
reference sphere, to a depth that is not an integer >= 0 and at a lattice
phase off the plane is refused with ContractError rather than answered with
empty sets.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter
from typing import NamedTuple, Optional

import numpy as np

from .dynamics import GRAZE_SKIP_FRAC, SURFACE_OFFSET_FRAC, _coldot, _itineraries, _trace_many
from .geometry import TANGENT_COS_EPS, Scene, _as_tuple, _dot, _hits, sphere_lattice

DIRECTION_MATCH_TOL = 1e-9

# Default word depth of a travel search: on the benchmark's tables the
# earlier seed sweeps met no root deeper than 5, and depth 5 holds every one
# of their roots.
DEPTH = 5
REFINE_TOL_FRAC = 1e-7

# The root solver drives a times the mirror-law defect a factor below the
# root tolerance, so that two independently converged roots of one geodesic
# agree in time within the stated tolerance, and so that a root's ray traced
# from x leaves the sphere within that tolerance of y on the d = 3 test
# tables through depth 5 (tolerance 1e-6 at a = 10). At a factor 0.25 such
# rays missed y by up to 5.1e-6 at depth 2; at 1e-4 by up to 8.7e-7, at
# depth 5, where the dynamics' magnification of rounding, not the defect,
# sets the miss. 1e-4 takes 10-14% more Newton steps than 0.25 on the tables
# of criteria 7 and 8.
_RESIDUAL_MARGIN = 1e-4

# Why a word yields no root: its start is not finite; Newton's method ended
# short of its goal; or the path found meets a body before a leg's end or
# enters one at a reflection. Their sum is the table's dropped_clusters.
_DROP_REASONS = ("dropped_start", "dropped_residual", "dropped_blocked", "dropped_inward")

_TWO_PI = 2.0 * math.pi


class ContractError(ValueError):
    """A caller violated an interface contract."""


class SLSSample(NamedTuple):
    """One measured point of the sojourn-time scan, a tuple in field order."""

    index: int
    omega: tuple
    impact: tuple
    impact_point: tuple
    theta: tuple
    sojourn: float
    reflections: int
    grazing: bool
    itinerary: tuple


class TravellingTimeSample(NamedTuple):
    """One geodesic between two reference-sphere points, a tuple in field
    order.

    ``t`` is the length of the path solved for ``itinerary``, and
    ``residual`` is the ball radius times that path's mirror-law defect, the
    largest part of the length's gradient tangent to a body at a reflection
    point; the solver drives it below 1e-4 times the root tolerance. It
    bounds the error in ``t``, not the exit miss of a ray traced from ``x``
    along ``dir_in``: the dynamics magnify the direction error at each
    reflection, and on criterion 8's three disks at n = 6 such rays miss
    ``y`` by up to 3.0e-11 at depth 1, 1.5e-6 at depth 4 and 6.7e-6 at
    depth 5.
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
    ok = np.flatnonzero(escaped)
    found = [itins[i] for i in ok.tolist()]
    samples = list(map(SLSSample._make, zip(
        ok.tolist(), repeat(_as_tuple(win)), map(tuple, offsets[ok].tolist()),
        map(tuple, launches[ok].tolist()), map(tuple, dirs[ok].tolist()), times[ok].tolist(),
        map(len, found), grazed[ok].tolist(), found)))
    cells = [(t,) if e else () for e, t in zip(escaped.tolist(), times.tolist())]
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
# Travelling times: admissible words and their starts
# ---------------------------------------------------------------------------
# A root from x to y is a critical point of the length of the paths off the
# bodies of one word in turn, so the search solves every admissible word.

class _Words(NamedTuple):
    """Words, ragged: word i is the count[i] obstacles from the sum of the
    counts before it."""

    count: np.ndarray
    obstacles: np.ndarray


def _body_tables(scene: Scene):
    """Each body's centre c, R D and M = R D^-2 R^T, coordinates first."""
    bodies, d = scene.bodies, scene.dimension
    return (np.array([b._c for b in bodies]).reshape(-1, d).T,
            np.array([np.multiply(b.rotation, b.semiaxes) for b in bodies]
                     ).reshape(-1, d, d).transpose(1, 2, 0),
            np.array([b._M for b in bodies]).reshape(-1, d, d).transpose(1, 2, 0))


def _word_counts(k: int, depth: int) -> list:
    """The number of admissible words of each length 0 to depth over k
    bodies: the free chord, then k (k - 1)^(m - 1) words of length m."""
    return [1] + [k * (k - 1) ** (m - 1) for m in range(1, depth + 1)]


def _admissible_words(k: int, m: int, index) -> np.ndarray:
    """The words of length m >= 1 over k bodies with no body twice in a row
    at the places index of their lexicographic order, as rows: word i
    begins with body i // (k - 1)^(m - 1), and the base-(k - 1) digits of
    the remainder count, at each later place, among the bodies other than
    the one before it."""
    words = np.empty((index.size, m), dtype=int)
    rest = (k - 1) ** (m - 1)
    words[:, 0], digits = np.divmod(index, rest)
    for p in range(1, m):
        rest //= k - 1
        digit, digits = np.divmod(digits, rest)
        words[:, p] = digit + (digit >= words[:, p - 1])
    return words


def _run_words(scene: Scene, depth: int, lo: int, hi: int):
    """Words lo to hi - 1 of the admissible words of length 0 to depth of a
    run of point pairs, taken pair by pair, by length and in lexicographic
    order, then sorted by length. Returns (pair per word, _Words)."""
    sizes = np.array(_word_counts(len(scene.bodies), depth))
    offset = np.cumsum(sizes) - sizes
    pair, place = np.divmod(np.arange(lo, hi), sizes.sum())
    length = np.searchsorted(offset, place, side="right") - 1
    order = np.argsort(length, kind="stable")
    pair, place, length = pair[order], place[order], length[order]
    ids = np.concatenate([np.zeros(0, dtype=int)] + [
        _admissible_words(len(scene.bodies), m, place[length == m] - offset[m]).ravel()
        for m in np.unique(length[length > 0]).tolist()])
    return pair, _Words(length, ids)


def _bisector(centre, rd, before, after):
    """For each column, the unit s of the point c + R D s on a body with
    centre c and R D rd where the outward normal n bisects the directions
    from c to the anchors before and after: s = (R D)^T n normalised, since
    the normal at c + R D s is along R D^-1 s. Not finite where the anchors
    lie opposite about c."""
    e_in, e_out = before - centre, after - centre
    s = _mat_vec(rd.transpose(1, 0, 2), e_in / np.sqrt(_dot(e_in, e_in))
                 + e_out / np.sqrt(_dot(e_out, e_out)))
    return s / np.sqrt(_dot(s, s))


def _starts(centre, rd, path, rows, prev, nxt):
    """The unit s of each reflection point's start, for the words laid out in
    rows by _layout, with each point's body's centre and R D, path =
    [centres, x, y] and the columns prev and nxt of each point's neighbours
    along it. A point starts where its body's outward normal bisects the
    directions from its centre to its anchors, x or the previous body's
    centre and the next body's centre or y. A point whose anchors lie
    opposite takes the previous point's start as its first anchor instead,
    and failing that the next point's start as its second; a point still
    without a start is not finite. The points of these starts overwrite the
    centres in path. Then each start is re-aimed once, at x or the previous
    start and the next start or y, and keeps its start where the re-aimed
    one is not finite."""
    n = prev.size
    before, after = np.take(path, prev, axis=1), np.take(path, nxt, axis=1)
    s = _bisector(centre, rd, before, after)
    path[:, :n] = centre + _mat_vec(rd, s)
    if not np.isfinite(s).all():
        for side, link, later in ((0, prev, rows[1:]), (1, nxt, rows[-2::-1])):
            for row in later:
                p = row.start + np.flatnonzero(~np.isfinite(s[:, row]).all(axis=0))
                p = p[link[p] < n]
                anchors = [before[:, p], after[:, p]]
                anchors[side] = path[:, link[p]]
                s[:, p] = _bisector(centre[:, p], rd[..., p], *anchors)
                path[:, p] = centre[:, p] + _mat_vec(rd[..., p], s[:, p])
    aimed = _bisector(centre, rd, np.take(path, prev, axis=1), np.take(path, nxt, axis=1))
    return np.where(np.isfinite(aimed).all(axis=0), aimed, s)


# ---------------------------------------------------------------------------
# Travelling times: Newton's method on the path length
# ---------------------------------------------------------------------------

# Newton steps after which a word's path search gives up.
_NEWTON_CAP = 20
# Words a table solves at once, in one _solve_words run.
# Criterion 8's three-disk n = 48 table, 103,708 words and 321,734
# reflection points, peaked at 326 MB resident solved in one batch and at
# 154 MB in batches of 4,096 words; batches of 2,048 or 16,384 words solved
# its words no faster. Its 106,032 words to depth 5 peak at 144 MB solved
# in one run and at 109 MB in runs of 4,096 words. A pair's words are cut
# across runs as they come, so no run holds more whatever the number of
# bodies: one pair on twelve disks, 193,261 words to depth 5, peaks at
# 116 MB.
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
            (np.cumsum(words.count) - words.count)[act][col] + row, col, more,
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


# Per travel dimension d: row j lists the indices other than j, and the
# columns of I_d at those rows, (d, d - 1, d).
_OTHERS = {d: np.array([[i for i in range(d) if i != j] for j in range(d)]) for d in (2, 3)}
_OTHER_UNITS = {d: np.eye(d)[:, others.T] for d, others in _OTHERS.items()}


def _tangent_basis(s):
    """An orthonormal basis, (d, d - 1, n), of the tangent space at each unit
    column of s: the columns other than j of the Householder reflection
    I - 2 v v^T / v.v, v = s + sign(s_j) e_j, with j the largest |s_j|."""
    d, n = s.shape
    j = np.argmax(np.abs(s), axis=0)
    at = np.arange(n)
    v = s.copy()
    v[j, at] += np.where(s[j, at] < 0.0, -1.0, 1.0)
    return _OTHER_UNITS[d][:, :, j] - (2.0 / _dot(v, v)) * v[:, None] * v[_OTHERS[d][j].T, at]


def _solve_words(scene: Scene, xs, ys, words: _Words):
    """Newton's method on the length L = |x - q_1| + sum |q_i - q_{i+1}| +
    |q_k - y| of the paths off the bodies of a word in turn, for every word
    of words, from its row of xs to that of ys (Petkov & Stoyanov, Geometry
    of Reflecting Rays and Inverse Spectral Problems, 1992). Each q_i = c_i
    + R_i D_i s_i moves with s_i on the unit sphere, from the start _starts
    gives it in the words' first layout, stepped in _tangent_basis(s_i); L's
    Hessian is block-tridiagonal with (d - 1) x (d - 1) blocks, each
    diagonal one less (dL/dq_i . R_i D_i s_i) I for the sphere's curvature,
    solved by _block_thomas. A word stops, and is frozen, once a times its
    defect, the largest part of a dL/dq_i tangent to its body, is below the
    goal. The words are solved longest first, laid out by _layout; once the
    stopped words hold _COMPACT_POINTS reflection points, or no word is
    live, the stopped words are finished from the pass just made, whose
    values their frozen points would give again, and the live words are
    laid out anew without them. Each operation acts on each word alone with
    sums in a fixed order, so no result depends on the words solved with it
    or on their layout.

    A word with a point without a finite start, or a free chord between
    equal endpoints, ends "dropped_start". The path is a trajectory when
    both legs leave each q_i on the body's outside at a cosine above
    TANGENT_COS_EPS, else "dropped_inward", and no leg meets a body before
    its end, a grazing hit aside, else "dropped_blocked"; the legs of all
    words are searched in one _blocked call. A search past _NEWTON_CAP
    steps, or with a step that is not finite (a singular Hessian), ends
    "dropped_residual". Returns per word (t, dir_in, dir_out, a times the
    defect, Newton steps, reason), reason None for a root and the
    directions as (d, words) arrays.
    """
    xs, ys = np.asarray(xs, dtype=float).T, np.asarray(ys, dtype=float).T
    nw = words.count.size
    t, defect, steps, reason = np.zeros(nw), np.zeros(nw), np.zeros(nw, dtype=int), [None] * nw
    dir_in, dir_out = np.zeros((len(xs), nw)), np.zeros((len(xs), nw))
    chords = np.flatnonzero(words.count == 0)
    e = ys[:, chords] - xs[:, chords]
    with np.errstate(divide="ignore", invalid="ignore"):
        t[chords] = np.sqrt(_dot(e, e))
        dir_in[:, chords] = dir_out[:, chords] = e / t[chords]
    same = (e == 0.0).all(axis=0)
    for i in chords[same].tolist():
        reason[i] = "dropped_start"
    chords = chords[~same]
    # Per leg to search: its word, start, direction and reach.
    legs = [(chords, xs[:, chords], dir_in[:, chords], t[chords])]
    goal = _RESIDUAL_MARGIN * _root_tol(scene) / scene.ball_radius
    eye = np.eye(len(xs) - 1)[:, :, None]
    tables = _body_tables(scene)
    act = np.argsort(-words.count, kind="stable")[:np.count_nonzero(words.count)]
    taken, s = np.zeros(act.size, dtype=int), None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while act.size:
            rows, point, col, more, prev, nxt = _layout(words, act)
            # Each reflection point's body's centre, R D and M, in layout order.
            c, jac, mat = (np.take(tb, words.obstacles[point], axis=-1) for tb in tables)
            path = np.concatenate([c, xs[:, act], ys[:, act]], axis=1)
            failed = np.zeros(act.size, dtype=bool)
            if s is None:
                s = _starts(c, jac, path, rows, prev, nxt)
                failed = np.bincount(col, ~np.isfinite(s).all(axis=0), act.size) > 0
                for i in act[failed].tolist():
                    reason[i] = "dropped_start"
            live = ~failed
            below = np.where(more, nxt, 0)
            while True:
                w = _mat_vec(jac, s)
                path[:, :point.size] = q = c + w
                e_in, e_out = q - np.take(path, prev, axis=1), np.take(path, nxt, axis=1) - q
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
                    bn = np.take(b, below, axis=2)
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
            # A word failed without a start keeps that reason.
            for i in act[done & failed].tolist():
                reason[i] = reason[i] or "dropped_residual"
            for i in act[inward].tolist():
                reason[i] = "dropped_inward"
            fine = (done & ~failed & ~inward)[col]
            final = fine & last
            legs.append((act[col[fine]], path[:, prev[fine]], u_in[:, fine], l_in[fine]))
            legs.append((act[col[final]], q[:, final], u_out[:, final], l_out[final]))
            act, taken, s = act[live], taken[live], s[:, live[col]]
    owner, o, u, reach = (np.concatenate(f, axis=-1) for f in zip(*legs))
    for i in np.unique(owner[_blocked(scene, o, u, reach)]).tolist():
        reason[i] = "dropped_blocked"
    return t, dir_in, dir_out, scene.ball_radius * defect, steps, reason


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


def find_xy_geodesics(scene: Scene, x, y,
                      depth: Optional[int] = None) -> list[TravellingTimeSample]:
    """All geodesics of depth at most ``depth`` entering the reference
    sphere at x and leaving at y.

    This is the travel-table search on the two points x, y: the pair is
    solved from its lesser point and the other order is its exact reversal,
    so the result is symmetric under swapping the endpoints and a table cell
    equals this call on its pair. The returned list may be empty: the
    travelling-time set of a pair can be empty (deep shadow). Raises
    ContractError for non-finite endpoints, endpoints off the reference
    sphere, a depth that is not an integer >= 0, scenes with curve
    obstacles, and d >= 4, where no search is implemented.
    """
    depth = _search_depth(scene, depth)
    pts = [np.asarray(x, dtype=float), np.asarray(y, dtype=float)]
    if not all(np.isfinite(p).all() for p in pts):
        raise ContractError("travel endpoints must be finite")
    center = np.asarray(scene.ball_center)
    for p in pts:
        if (p.shape != center.shape or abs(float(np.linalg.norm(p - center)) - scene.ball_radius)
                > _ON_SPHERE_FACTOR * _root_tol(scene)):
            raise ContractError(f"travel endpoint {_as_tuple(p)} is not on the reference sphere")
    return _travel(scene, pts, [(0, 1), (1, 0)], depth)[0][0]


# An endpoint may sit this many root tolerances off the reference sphere.
_ON_SPHERE_FACTOR = 10.0


def _search_depth(scene: Scene, depth: Optional[int]) -> int:
    """The word depth of a travel search, DEPTH where None; refuses a depth
    that is not an integer >= 0, scenes with curve obstacles, which are
    demonstrations outside the travel search's bodies-only design, and
    d >= 4, where no search is implemented."""
    if scene.curves:
        raise ContractError("travelling times are not implemented for scenes with curve "
                            "obstacles, which are for demonstration only")
    if scene.dimension >= 4:
        raise ContractError("travelling times are implemented for d = 2 and d = 3 "
                            f"only, not d = {scene.dimension}")
    if depth is None:
        return DEPTH
    if isinstance(depth, bool) or not isinstance(depth, (int, np.integer)) or depth < 0:
        raise ContractError(f"a travel search depth must be an integer >= 0, not {depth!r}")
    return int(depth)


# ---------------------------------------------------------------------------
# Travelling-time spectrum over a pair grid
# ---------------------------------------------------------------------------

def travelling_time_spectrum(scene: Scene, n_points: int = 64,
                             min_sep_deg: float = 1.0, phase: float = 0.0,
                             depth: Optional[int] = None,
                             threads: int = 1) -> SpectrumTable:
    """Travelling-time table over all ordered lattice-point pairs: the roots
    of every admissible word of length 0 to ``depth`` (DEPTH by default).

    Each cell equals ``find_xy_geodesics`` on its pair; both run the same
    search. Deterministic for fixed arguments, and identical for any
    ``threads``. Raises ContractError for a depth that is not an integer
    >= 0, for scenes with curve obstacles and for d >= 4.
    """
    depth = _search_depth(scene, depth)
    pts, pairs = _pair_grid(scene, n_points, min_sep_deg, phase)
    if not pairs:
        raise ContractError(f"the travel grid (n_points={n_points}, min_sep_deg="
                            f"{min_sep_deg}) has no point pairs")
    grid = _grid_tuple({
        "kind": "travel",
        "n_points": int(n_points),
        "min_sep_deg": float(min_sep_deg),
        "phase": float(phase),
        "depth": depth,
        "tol": float(_root_tol(scene)),
        "ball_center": _as_tuple(scene.ball_center),
        "ball_radius": float(scene.ball_radius),
    })
    cells, tally = _travel(scene, pts, pairs, depth, threads)
    # Cells come sorted by time. cutoff_seeds is always 0: no search traces a
    # ray. It stays because the benchmark's per-layer report reads it from
    # every table.
    return SpectrumTable("travel", scene.digest, grid,
                         tuple(tuple(s.t for s in cell) for cell in cells),
                         tuple(s for cell in cells for s in cell),
                         (("cutoff_seeds", 0),
                          ("dropped_clusters", sum(tally[r] for r in _DROP_REASONS)),
                          *((r, tally[r]) for r in _DROP_REASONS),
                          ("newton_steps", tally["newton_steps"])))


def _travel(scene: Scene, pts, pairs, depth: int, threads: int = 1):
    """The travel search over ordered index pairs (i, j) of pts, where (j, i)
    is a pair whenever (i, j) is; returns (samples per pair, a Counter of
    Newton steps and drops).

    Each point pair is solved once, from its lesser point (by coordinates,
    then by index, so that equal endpoints work too), by one _spectrum_worker
    call on all pairs, or one per pool worker on its share of them when
    threads > 1.
    """
    key = [(_as_tuple(p), i) for i, p in enumerate(pts)]
    pair_index = {ij: k for k, ij in enumerate(pairs)}
    own = [(k, pair_index[(j, i)]) for k, (i, j) in enumerate(pairs) if key[i] < key[j]]
    xs = np.array([pts[pairs[k][0]] for k, _ in own])
    ys = np.array([pts[pairs[k][1]] for k, _ in own])
    shares = [np.arange(w, len(own), threads) for w in range(min(threads, len(own)))]
    jobs = [(scene, [own[r] for r in rows.tolist()], xs[rows], ys[rows], depth) for rows in shares]
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            chunks = list(pool.map(_spectrum_worker, jobs))
    else:
        chunks = [_spectrum_worker(job) for job in jobs]
    cells = [None] * len(pairs)
    tally = Counter()
    for (_, share, *_), (share_cells, share_tally) in zip(jobs, chunks):
        tally.update(share_tally)
        for (k, m), (cell, mirror) in zip(share, share_cells):
            cells[k], cells[m] = cell, mirror
    return cells, tally


def _spectrum_worker(args):
    """The roots of a share of the point pairs (k, m), each solved from its
    first point: every admissible word of length 0 to depth of every pair,
    taken pair by pair in runs of at most _BATCH_WORDS words, one
    _solve_words call per run. Pair k's cell is sorted by time, residual and
    word, and pair m's holds their exact time reversals in the same order:
    x and y swapped, the directions negated and swapped, the word reversed.
    Returns ([(cell k, cell m)], a Counter of Newton steps and drops)."""
    scene, pairs, xs, ys, depth = args
    owners = (*zip(*pairs), [_as_tuple(x) for x in xs], [_as_tuple(y) for y in ys])
    total = len(pairs) * sum(_word_counts(len(scene.bodies), depth))
    tally = Counter()
    cells = [([], []) for _ in pairs]
    for lo in range(0, total, _BATCH_WORDS):
        _solve_run(scene, owners, xs, ys, depth, lo, min(lo + _BATCH_WORDS, total), cells, tally)
    key = attrgetter("t", "residual", "itinerary")
    for n, (cell, mirror) in enumerate(cells):
        order = sorted(range(len(cell)), key=list(map(key, cell)).__getitem__)
        cells[n] = ([cell[r] for r in order], [mirror[r] for r in order])
    return cells, tally


def _solve_run(scene: Scene, owners, xs, ys, depth: int, lo: int, hi: int, cells, tally):
    """_spectrum_worker on its words lo to hi - 1: appends each root's
    sample and mirror to its pair's cells, with each pair's k, m, x and y
    taken from the four lists owners, and counts into tally."""
    slot, words = _run_words(scene, depth, lo, hi)
    t, dir_in, dir_out, residual, steps, reason = _solve_words(scene, xs[slot], ys[slot], words)
    tally.update(filter(None, reason), newton_steps=int(steps.sum()))
    rows = np.array([n for n, why in enumerate(reason) if why is None], dtype=np.intp)
    at, ids, n = slot[rows].tolist(), words.obstacles.tolist(), words.count[rows].tolist()
    k, m, x, y = ([col[i] for i in at] for col in owners)
    t, res = t[rows].tolist(), residual[rows].tolist()
    word = [tuple(ids[e - c:e]) for e, c in zip(np.cumsum(words.count)[rows].tolist(), n)]
    din, dout = dir_in[:, rows].T, dir_out[:, rows].T
    samples = zip(k, x, y, t, n, map(tuple, din.tolist()), map(tuple, dout.tolist()), res, word)
    mirrors = zip(m, y, x, t, n, map(tuple, (-dout).tolist()), map(tuple, (-din).tolist()), res,
                  [w[::-1] for w in word])
    for i, sample, mirror in zip(at, map(TravellingTimeSample._make, samples),
                                 map(TravellingTimeSample._make, mirrors)):
        cells[i][0].append(sample)
        cells[i][1].append(mirror)


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
