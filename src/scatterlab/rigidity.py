"""Rigidity experiments: spectrum comparison, reflection-count probes,
boundary coverage and reconstruction, and the Livshits non-uniqueness demo.

Spectrum agreement is operationalized on finite grids as a matched fraction
of at least 99 percent at a stated tolerance; finite grids cannot express
full-measure statements, so the report also carries per-cell distances and
a sentinel count for empty-versus-nonempty cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .dynamics import PhaseState, _sphere_exit, _trace_many
from .geometry import (CurveObstacle, EllipticArc, Scene, SegmentArc, _as_tuple,
                       _rowdot, boundary_samples)
from .spectra import ContractError, SpectrumTable, TravellingTimeSample, _grid_tuple

MISMATCH_VERDICT_FRACTION = 0.01
_COVERAGE_SAMPLES = 2048  # boundary samples per obstacle
_RECONSTRUCT_CONSISTENCY = 1e-6  # largest |x-p| + |p-y| - t of a kept point
# Distance-matrix entries per block of rows, which keeps a block's arrays to
# a few MB.
_BLOCK_ENTRIES = 1 << 16


# ---------------------------------------------------------------------------
# Spectrum comparison
# ---------------------------------------------------------------------------

def hausdorff_1d(a: Sequence[float], b: Sequence[float]) -> float:
    """Hausdorff distance between two finite sets of reals: the one-cell
    case of the comparison rule, ``_cell_distances``.

    Empty versus empty is 0; empty versus nonempty is the infinity sentinel.
    Raises ContractError for a NaN or infinite element, which has no distance.
    """
    return float(_cell_distances((a,), (b,))[0])


def _cell_distances(cells_a: Sequence[Sequence[float]],
                    cells_b: Sequence[Sequence[float]]) -> np.ndarray:
    """Per-cell Hausdorff distances of two aligned sequences of time sets,
    each bitwise the max over both sides of min abs(x - y) in floats.

    All times are sorted once by (cell, time) and cut into runs of one side
    within one cell. Rounding is monotone, so fl(x - y) never grows as y
    rises toward x and fl(y - x) never shrinks as y moves away above x: the
    nearest time of the other side is the one just before x's run or the
    one just after it, when it lies in x's cell. A difference of finite
    times may overflow to inf, as it does in Python. Empty versus empty is
    0; empty versus nonempty is inf.

    Raises ContractError for sequences of different lengths and for a NaN
    or infinite time, which has no distance.
    """
    n = len(cells_a)
    if len(cells_b) != n:
        raise ContractError(f"the cell sequences are not aligned: {n} cells "
                            f"against {len(cells_b)}")
    counts = np.fromiter(map(len, chain(cells_a, cells_b)), np.intp, 2 * n)
    m_a = int(counts[:n].sum())
    t = np.fromiter(chain.from_iterable(chain(cells_a, cells_b)), float,
                    m_a + int(counts[n:].sum()))
    if not np.isfinite(t).all():
        raise ContractError("a spectrum time is NaN or infinite")
    m = len(t)
    # Key each time on cell * m + its rank among all m times.
    key = np.tile(np.arange(n) * m, 2).repeat(counts)
    key[np.argsort(t)] += np.arange(m)
    order = key.argsort()
    t, side = t[order], order >= m_a
    del key, order  # the run arrays below need the room
    sizes = counts[:n] + counts[n:]
    start = np.cumsum(sizes) - sizes  # each cell's first sorted time
    new_cell = np.zeros(m + 1, dtype=bool)
    new_cell[start] = True
    new_cell[m] = True
    # A run ends where the cell or the side changes. The times just outside
    # a run are the other side's, unless the run starts or ends its cell.
    cut = new_cell.copy()
    cut[1:m] |= side[1:] != side[:-1]
    edge = np.flatnonzero(cut)
    first, stop = edge[:-1], edge[1:]
    lo = np.where(new_cell[first], -np.inf, t[first - 1])
    hi = np.where(new_cell[stop], np.inf, t[np.minimum(stop, m - 1)])
    with np.errstate(over="ignore"):
        d = t - lo.repeat(stop - first)
        np.minimum(d, hi.repeat(stop - first) - t, out=d)
    per = np.zeros(n)
    live = sizes > 0
    per[live] = np.maximum.reduceat(d, start[live])
    # A difference of equal times may be -0.0; the distance is +0.0.
    return np.abs(per)


def point_set_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two point clouds."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 and b.size == 0:
        return 0.0
    if a.size == 0 or b.size == 0:
        return math.inf
    return float(max(_nearest_distance(a, b).max(), _nearest_distance(b, a).max()))


def _nearest_distance(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """For each row of x, the Euclidean distance to the nearest row of y.

    Exact: the square root of the least sum of squared coordinate
    differences, each summed in coordinate order, over blocks of rows of x
    that hold about _BLOCK_ENTRIES distances each.
    """
    out = np.empty(len(x))
    step = max(1, _BLOCK_ENTRIES // len(y))
    for a in range(0, len(x), step):
        xa = x[a:a + step]
        d2 = (xa[:, None, 0] - y[None, :, 0]) ** 2
        for c in range(1, x.shape[1]):
            d2 += (xa[:, None, c] - y[None, :, c]) ** 2
        out[a:a + step] = np.sqrt(d2.min(axis=1))
    return out


@dataclass(frozen=True)
class DiscrepancyReport:
    """Quantified comparison of two spectrum tables at a tolerance.

    ``max_discrepancy`` is taken over finite per-cell distances; sentinel
    (empty versus nonempty) cells count against the match but are reported
    separately so the magnitude stays meaningful.
    """

    per_cell: tuple
    matched_fraction: float
    max_discrepancy: float
    sentinel_count: int
    tol: float
    verdict: str


def compare_spectra(table_a: SpectrumTable, table_b: SpectrumTable,
                    tol: float) -> DiscrepancyReport:
    """Per-cell Hausdorff comparison of two tables over an identical grid."""
    if table_a.grid != table_b.grid:
        raise ContractError("tables were built over different grids")
    return compare_cells(table_a.cells, table_b.cells, tol)


def compare_cells(cells_a: Sequence[Sequence[float]],
                  cells_b: Sequence[Sequence[float]], tol: float) -> DiscrepancyReport:
    """The comparison rule on two aligned sequences of per-cell time sets:
    the per-cell Hausdorff distances of ``_cell_distances``, then the
    fraction of cells within tol.

    Raises ContractError when tol is NaN, negative or infinite (at inf an
    empty-versus-nonempty cell would pass for a match); when the sequences
    hold different numbers of cells; when there are no cells: an empty
    comparison has no matched fraction, so it supports no verdict; and for a
    NaN or infinite time, which would otherwise pass for a match.
    """
    if not 0.0 <= tol < math.inf:
        raise ContractError(f"the tolerance must be finite and nonnegative, got {tol}")
    per = _cell_distances(cells_a, cells_b)
    n = len(per)
    if not n:
        raise ContractError("there are no cells to compare")
    matched = int(np.count_nonzero(per <= tol))
    sentinel = np.isinf(per)
    mismatched_fraction = (n - matched) / n
    verdict = ("distinguishable" if mismatched_fraction >= MISMATCH_VERDICT_FRACTION
               else "indistinguishable")
    return DiscrepancyReport(
        per_cell=tuple(per.tolist()),
        matched_fraction=matched / n,
        max_discrepancy=float(per[~sentinel].max(initial=0.0)),
        sentinel_count=int(np.count_nonzero(sentinel)),
        tol=float(tol),
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# Reflection-count probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeCountReport:
    counts: tuple
    equal_fraction: float


def sphere_probes(scene: Scene, n: int, seed: int) -> list[PhaseState]:
    """Seeded random inward phase points on the reference sphere.

    Probe k is built from the k-th accepted pair of d-normal draws of
    ``default_rng(seed)`` (u for the point, then v for the direction), so a
    seed keeps its probes however they are generated. Raises ContractError
    when n < 1.
    """
    X, V = _probe_rows(scene, n, seed)
    return [PhaseState(x, v) for x, v in zip(X.tolist(), V.tolist())]


def _probe_rows(scene: Scene, n: int, seed: int):
    """The points and directions of sphere_probes(scene, n, seed) as rows.
    Row k of a block holds candidate k's u and v draws; a candidate whose v
    is zero, or still faces out after reflection, is dropped, and a further
    block covers the shortfall."""
    if n < 1:
        raise ContractError(f"a probe family needs at least one ray, got {n}")
    rng = np.random.default_rng(seed)
    center = np.asarray(scene.ball_center)
    xs, vs = [], []
    short = n
    while short:
        uv = rng.normal(size=(short, 2, scene.dimension))
        u, v = uv[:, 0], uv[:, 1]
        u = u / np.sqrt(_rowdot(u, u))[:, None]
        nv = np.sqrt(_rowdot(v, v))
        live = nv != 0.0
        u, v = u[live], v[live] / nv[live, None]
        vu = _rowdot(v, u)
        out = vu > -1e-9
        v[out] -= (2.0 * vu[out])[:, None] * u[out]
        keep = ~(_rowdot(v, u) > -1e-9)
        xs.append(center + scene.ball_radius * u[keep])
        vs.append(v[keep])
        short -= int(keep.sum())
    return np.concatenate(xs), np.concatenate(vs)


def reflection_count_probe(scene_a: Scene, scene_b: Scene,
                           probes: Sequence[PhaseState]) -> ProbeCountReport:
    """Trace each probe in both scenes and compare proper reflection counts.
    The probes are traced in one lockstep batch per scene.

    Raises ContractError for an empty probe list, for scenes of different
    dimensions, and for a probe whose dimension is not theirs.
    """
    if not probes:
        raise ContractError("there are no probes to trace")
    d = scene_a.dimension
    if scene_b.dimension != d:
        raise ContractError(f"the scenes have dimensions {d} and {scene_b.dimension}")
    if any(len(p.point) != d for p in probes):
        raise ContractError(f"every probe must have the scenes' dimension {d}")
    X = np.fromiter(chain.from_iterable(p.point for p in probes), float, len(probes) * d)
    V = np.fromiter(chain.from_iterable(p.direction for p in probes), float, len(probes) * d)
    X, V = X.reshape(-1, d), V.reshape(-1, d)
    per_scene = []
    for scene in (scene_a, scene_b):
        log = _trace_many(scene, X, V)[4]
        per_scene.append(np.bincount(log.rows[~log.grazing], minlength=len(probes)).tolist())
    counts = tuple(zip(*per_scene))
    equal = sum(1 for a, b in counts if a == b)
    return ProbeCountReport(counts, equal / len(counts))


# ---------------------------------------------------------------------------
# Accessible-boundary coverage
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverageReport:
    body_coverage: tuple
    arc_coverage: tuple       # ((curve_id, arc_index, tags, coverage), ...)
    unreached: tuple          # ((obstacle_id, points array), ...)
    n_escaped: int
    n_cutoff: int

    def coverage_of_tag(self, tag: str) -> list[float]:
        return [c for (_, _, tags, c) in self.arc_coverage if tag in tags]


def accessible_coverage(scene: Scene, n_rays: int, eps: float,
                        seed: int = 0) -> CoverageReport:
    """Monte Carlo estimate of the reachable part of each obstacle boundary.

    Marks every proper reflection point of escaped trajectories launched from
    seeded random sphere probes, traced in one lockstep batch, then reports
    the fraction of a uniform boundary sample lying within eps of a mark.
    Raises ContractError when n_rays < 1 or eps is not a finite positive
    number.
    """
    if not 0.0 < eps < math.inf:
        raise ContractError(f"coverage eps must be finite and positive, got {eps}")
    X, V = _probe_rows(scene, n_rays, seed)
    nb = len(scene.bodies)
    escaped, _, _, _, log = _trace_many(scene, X, V)
    marked = escaped[log.rows] & ~log.grazing
    n_escaped = int(np.count_nonzero(escaped))
    n_cutoff = n_rays - n_escaped

    def covered_fraction(samples, mask):
        pts = log.point[marked & mask]
        if not pts.size:
            return 0.0, samples
        dist = _nearest_distance(samples, pts)
        keep = dist > eps
        return float(np.mean(~keep)), samples[keep]

    body_cov = []
    unreached = []
    for i, body in enumerate(scene.bodies):
        frac, missed = covered_fraction(boundary_samples(body, _COVERAGE_SAMPLES),
                                        log.obstacle == i)
        body_cov.append(frac)
        if missed.size:
            unreached.append((i, missed))
    arc_cov = []
    for ci, curve in enumerate(scene.curves):
        per_arc = max(8, _COVERAGE_SAMPLES // len(curve.arcs))
        for ai, arc in enumerate(curve.arcs):
            frac, missed = covered_fraction(arc.sample(per_arc),
                                            (log.obstacle == nb + ci) & (log.arc == ai))
            arc_cov.append((nb + ci, ai, tuple(sorted(arc.tags)), frac))
            if missed.size:
                unreached.append((nb + ci, missed))
    return CoverageReport(tuple(body_cov), tuple(arc_cov), tuple(unreached),
                          n_escaped, n_cutoff)


# ---------------------------------------------------------------------------
# Boundary reconstruction from travelling times
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryEstimate:
    points: np.ndarray
    provenance: tuple         # ((x, y, t, dir_out) per point, ...)
    skipped: int


def reconstruct_boundary(table: SpectrumTable, ball_center,
                         ball_radius: float) -> BoundaryEstimate:
    """Recover reflection points from single-reflection travelling times.

    For a sample (x, y, t) with outgoing direction u at y, the reflection
    point is p = y - tau u where tau solves |x - (y - tau u)| = t - tau; the
    admissible root must lie in (0, t). Samples without such a root, whose
    legs miss t, or whose point lies outside the reference ball are skipped
    and counted, which flags misclassified entries. Raises ContractError for
    a table whose kind is not "travel" or "synthetic", and unless the ball has
    a finite centre of the samples' dimension and a finite radius > 0.
    """
    if table.kind not in ("travel", "synthetic"):
        raise ContractError(f"reconstruction needs travelling-time samples, not a "
                            f"{table.kind!r} table")
    center = np.asarray(ball_center, dtype=float)
    a = float(ball_radius)
    if not (np.isfinite(center).all() and math.isfinite(a) and a > 0.0):
        raise ContractError(f"a ball needs a finite centre and radius > 0: {center.tolist()}, {a}")
    if table.samples and center.shape != (len(table.samples[0].x),):
        raise ContractError(f"a {center.size}-d centre for {len(table.samples[0].x)}-d samples")
    pts = []
    prov = []
    skipped = 0
    for s in table.samples:
        if s.reflections != 1:
            continue
        x = np.asarray(s.x)
        y = np.asarray(s.y)
        u = np.asarray(s.dir_out)
        t = s.t
        dxy = x - y
        den = 2.0 * (t + float(dxy @ u))
        if den <= 1e-12:
            skipped += 1
            continue
        tau = (t * t - float(dxy @ dxy)) / den
        if not (0.0 < tau < t):
            skipped += 1
            continue
        p = y - tau * u
        gap = abs(float(np.linalg.norm(x - p)) + float(np.linalg.norm(p - y)) - t)
        if gap >= _RECONSTRUCT_CONSISTENCY:
            skipped += 1
            continue
        if float(np.linalg.norm(p - center)) >= a:
            skipped += 1
            continue
        pts.append(p)
        prov.append((s.x, s.y, s.t, s.dir_out))
    points = np.array(pts) if pts else np.empty((0, center.size))
    return BoundaryEstimate(points, tuple(prov), skipped)


def ideal_one_bounce_samples(body_center, body_radius: float, ball_center,
                             ball_radius: float, n: int) -> list[TravellingTimeSample]:
    """Noise-free single-reflection samples on a disk, built by direct geometry.

    Used as the exactness oracle for reconstruction: pick a boundary point
    and an admissible incoming direction, extend both legs to the reference
    sphere, and read off (x, y, t, directions) without any tracing.
    """
    c = np.asarray(body_center, dtype=float)
    center = np.asarray(ball_center, dtype=float)
    out = []
    k = 0
    trial = 0
    while k < n:
        trial += 1
        ang = 2.0 * math.pi * (trial * 0.61803398874989479)
        inc = -0.5 * math.pi * 0.9 + 0.9 * math.pi * ((trial * 0.3819660112501051) % 1.0)
        nrm = np.array([math.cos(ang), math.sin(ang)])
        p = c + body_radius * nrm
        tang = np.array([-nrm[1], nrm[0]])
        v_in = -math.cos(inc) * nrm + math.sin(inc) * tang
        v_out = v_in - 2.0 * float(v_in @ nrm) * nrm
        x = _sphere_point_forward(p, -v_in, center, ball_radius)
        y = _sphere_point_forward(p, v_out, center, ball_radius)
        if x is None or y is None:
            continue
        t = float(np.linalg.norm(p - x) + np.linalg.norm(y - p))
        out.append(TravellingTimeSample(
            pair=k, x=_as_tuple(x), y=_as_tuple(y), t=t, reflections=1,
            dir_in=_as_tuple(v_in), dir_out=_as_tuple(v_out), residual=0.0,
            itinerary=(0,)))
        k += 1
    return out


def _sphere_point_forward(p, v, center, a):
    """Where the ray from p along v leaves the sphere (center, a); None when
    it misses or the sphere lies behind p."""
    w = p - center
    b = float(w @ v)
    disc = b * b - (float(w @ w) - a * a)
    if disc <= 0.0:
        return None
    s = -b + math.sqrt(disc)
    if s <= 0.0:
        return None
    return p + s * v


def samples_table(samples: Sequence[TravellingTimeSample]) -> SpectrumTable:
    """Wrap loose travelling-time samples as a one-cell-per-sample table."""
    cells = tuple((s.t,) for s in samples)
    grid = _grid_tuple({"kind": "synthetic", "n": len(samples)})
    return SpectrumTable("synthetic", "", grid, cells, tuple(samples), ())


# ---------------------------------------------------------------------------
# Livshits demonstration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LivshitsParams:
    """Sampling sizes and reference radius of the non-uniqueness demonstration.

    The cavity is a lower half-ellipse bowl whose rim sits on the focal
    line; ceiling plates extend from the rim to lips just outside the foci,
    so every ray entering strictly between the foci reflects once off the
    bowl and leaves strictly between the foci again. The two hidden-arc
    variants live in a sealed pocket below the bowl: a thin curve cannot
    shield an exposed arc from shallow exterior rays, so exact hiding needs
    the pocket, while the dynamical blind spot is verified separately via
    the plate undersides. This geometry is fixed: its values are class
    constants, not fields, and the demonstration's checks hold for them.
    """

    ball_radius: float = 10.0
    n_offsets: int = 400
    n_angles: int = 250
    n_focal: int = 1000

    semi_major = 2.0
    focal_half_distance = 1.0
    lip_margin = 0.05
    offset_span = 0.95
    angle_span_deg = 75.0
    pocket_halfwidth = 1.0
    pocket_height = 0.6
    pocket_clearance = 0.5
    hidden_halfwidth = 0.6
    bump_height = 0.15

    @property
    def semi_minor(self) -> float:
        return math.sqrt(self.semi_major**2 - self.focal_half_distance**2)

    @property
    def lip(self) -> float:
        return self.focal_half_distance * (1.0 + self.lip_margin)


def build_livshits_scene(params: LivshitsParams, hidden_variant: str) -> Scene:
    """Demo scene with the requested hidden-arc variant ('bump' or 'flat')."""
    A = params.semi_major
    B = params.semi_minor
    lip = params.lip
    cavity = CurveObstacle((
        SegmentArc((lip, 0.0), (A, 0.0), tags=("plate",)),
        EllipticArc((0.0, 0.0), (A, B), (0.0, -math.pi), tags=("bowl",)),
        SegmentArc((-A, 0.0), (-lip, 0.0), tags=("plate",)),
    ))
    top = -(B + params.pocket_clearance)
    bot = top - params.pocket_height
    pw = params.pocket_halfwidth
    pocket = CurveObstacle((
        SegmentArc((-pw, top), (pw, top), tags=("shell",)),
        SegmentArc((pw, top), (pw, bot), tags=("shell",)),
        SegmentArc((pw, bot), (-pw, bot), tags=("shell",)),
        SegmentArc((-pw, bot), (-pw, top), tags=("shell",)),
    ))
    hw = params.hidden_halfwidth
    yh = 0.5 * (top + bot) - 0.25 * params.pocket_height
    if hidden_variant == "flat":
        hidden = CurveObstacle((SegmentArc((-hw, yh), (hw, yh), tags=("hidden",)),))
    elif hidden_variant == "bump":
        hidden = CurveObstacle((EllipticArc((0.0, yh), (hw, params.bump_height),
                                            (math.pi, 0.0), tags=("hidden",)),))
    else:
        raise ContractError(f"unknown hidden variant {hidden_variant!r}")
    return Scene(dimension=2, bodies=(), curves=(cavity, pocket, hidden),
                 ball_center=(0.0, 0.0), ball_radius=params.ball_radius)


@dataclass(frozen=True)
class LivshitsReport:
    params: LivshitsParams
    hidden_hits: tuple        # per variant
    plate_underside_hits: tuple
    focal_max_error: float
    max_abs_exit_crossing: float
    exits_between_foci: bool
    comparison: DiscrepancyReport
    tables: tuple
    scenes: tuple


def _aperture_family(params: LivshitsParams):
    """Launch points and directions of the aperture rays as rows, ray
    i * n_angles + j at offset i and angle j; each direction is
    (sin phi, -cos phi) of its angle, tiled over the offsets."""
    c = params.focal_half_distance
    span = params.offset_span * c
    amax = math.radians(params.angle_span_deg)
    x0 = [-span + 2.0 * span * (i + 0.5) / params.n_offsets for i in range(params.n_offsets)]
    phi = [-amax + 2.0 * amax * (j + 0.5) / params.n_angles for j in range(params.n_angles)]
    O = np.column_stack([np.repeat(x0, params.n_angles), np.zeros(len(x0) * len(phi))])
    U = np.tile([(math.sin(p), -math.cos(p)) for p in phi], (params.n_offsets, 1))
    return O, U


def livshits_demo(params: Optional[LivshitsParams] = None) -> LivshitsReport:
    """Run the full non-uniqueness demonstration.

    Checks, per hidden variant: zero hits on hidden arcs over the sampled
    aperture rays and zero hits on the plate undersides (the dynamical blind
    spot); the focal reflection property; that every sampled exit crossing
    of the focal line falls strictly between the foci; and that the two
    variants' sampled spectra are indistinguishable. The aperture rays are
    traced in one lockstep batch per variant and the focal rays in one more.
    Raises ContractError when n_offsets, n_angles or n_focal is below 1:
    with no ray traced, no check would vouch for anything.
    """
    if params is None:
        params = LivshitsParams()
    if min(params.n_offsets, params.n_angles, params.n_focal) < 1:
        raise ContractError("the demonstration needs at least one offset, one angle "
                            "and one focal ray")
    scenes = (build_livshits_scene(params, "bump"),
              build_livshits_scene(params, "flat"))
    c = params.focal_half_distance
    hidden_hits = []
    underside_hits = []
    tables = []
    max_exit = 0.0
    O, U = _aperture_family(params)
    for scene in scenes:
        nb = len(scene.bodies)
        escaped, legs, lengths, dirs, log = _trace_many(scene, O, U)
        hidden = np.zeros(log.rows.size, dtype=bool)
        plate = np.zeros(log.rows.size, dtype=bool)
        for ci, cv in enumerate(scene.curves):
            on_curve = log.obstacle == nb + ci
            if "hidden" in cv.tags():
                hidden |= on_curve
            for ai, arc in enumerate(cv.arcs):
                if "plate" in arc.tags:
                    plate |= on_curve & (log.arc == ai)
        # Each event's incoming direction: the launch direction for a ray's
        # first event, else the direction after its previous event.
        first = np.ones(log.rows.size, dtype=bool)
        first[1:] = log.rows[1:] != log.rows[:-1]
        incoming_y = np.where(first, U[log.rows, 1], np.roll(log.direction[:, 1], 1))
        hidden_hits.append(int(np.count_nonzero(hidden)))
        underside_hits.append(int(np.count_nonzero(plate & (incoming_y > 0.0))))
        # legs and dirs hold the last event point and the direction after it.
        up = (np.bincount(log.rows, minlength=len(O)) > 0) & (dirs[:, 1] > 0.0)
        px, py = legs[up].T
        dx, dy = dirs[up].T
        max_exit = max([max_exit] + np.abs(px + (-py / dy) * dx).tolist())
        s = np.maximum(_sphere_exit(scene, legs, dirs, 2.0 * scene.ball_radius)[0], 0.0)
        cells = [(t,) if ok else () for t, ok in zip((lengths + s).tolist(), escaped.tolist())]
        grid = _grid_tuple({
            "kind": "livshits-family",
            "n_offsets": params.n_offsets,
            "n_angles": params.n_angles,
            "offset_span": params.offset_span,
            "angle_span_deg": params.angle_span_deg,
            "ball_radius": params.ball_radius,
        })
        tables.append(SpectrumTable("livshits-family", scene.digest, grid,
                                    tuple(cells), (), ()))
    phi = [math.radians(-80.0 + 160.0 * (j + 0.5) / params.n_focal)
           for j in range(params.n_focal)]
    _, _, _, _, log = _trace_many(scenes[0], np.tile((-c, 0.0), (params.n_focal, 1)),
                                  np.array([(math.sin(p), -math.cos(p)) for p in phi]))
    counts = np.bincount(log.rows, minlength=params.n_focal)
    if not counts.all():
        raise ContractError("focal ray missed the bowl; geometry is invalid")
    first = np.cumsum(counts) - counts
    focal_err = 0.0
    for (px, py), (dx, dy) in zip(log.point[first].tolist(), log.direction[first].tolist()):
        # The distance of the far focus (c, 0) from the reflected ray's line.
        focal_err = max(focal_err, abs(dx * (0.0 - py) - dy * (c - px)) / math.hypot(dx, dy))
    comparison = compare_spectra(tables[0], tables[1], tol=1e-6 * params.ball_radius)
    return LivshitsReport(
        params=params,
        hidden_hits=tuple(hidden_hits),
        plate_underside_hits=tuple(underside_hits),
        focal_max_error=focal_err,
        max_abs_exit_crossing=max_exit,
        exits_between_foci=max_exit < c,
        comparison=comparison,
        tables=tuple(tables),
        scenes=scenes,
    )
