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
from typing import Optional, Sequence

import numpy as np

from .dynamics import PhaseState, _escape_distance, _trace_raw
from .geometry import (CurveObstacle, EllipticArc, Scene, SegmentArc, _as_tuple,
                       _rowdot, boundary_samples)
from .spectra import (ContractError, SpectrumTable, TravellingTimeSample,
                      _grid_tuple)

MISMATCH_VERDICT_FRACTION = 0.01
_COVERAGE_SAMPLES = 2048  # boundary samples per obstacle
_RECONSTRUCT_CONSISTENCY = 1e-6  # largest |x-p| + |p-y| - t of a kept point


# ---------------------------------------------------------------------------
# Spectrum comparison
# ---------------------------------------------------------------------------

def hausdorff_1d(a: Sequence[float], b: Sequence[float]) -> float:
    """Hausdorff distance between two finite sets of reals.

    Empty versus empty is 0; empty versus nonempty is the infinity sentinel.
    """
    if not a and not b:
        return 0.0
    if not a or not b:
        return math.inf
    d = 0.0
    for x in a:
        d = max(d, min(abs(x - y) for y in b))
    for y in b:
        d = max(d, min(abs(x - y) for x in a))
    return d


def point_set_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two point clouds."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 and b.size == 0:
        return 0.0
    if a.size == 0 or b.size == 0:
        return math.inf
    from scipy.spatial import cKDTree

    da = cKDTree(b).query(a)[0].max()
    db = cKDTree(a).query(b)[0].max()
    return float(max(da, db))


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
    """The comparison rule on two aligned sequences of per-cell time sets.

    Raises ContractError when there are no cells: an empty comparison has no
    matched fraction, so it supports no verdict.
    """
    per_cell = tuple(hausdorff_1d(ca, cb) for ca, cb in zip(cells_a, cells_b, strict=True))
    if not per_cell:
        raise ContractError("there are no cells to compare")
    n = len(per_cell)
    matched = sum(1 for d in per_cell if d <= tol)
    sentinels = sum(1 for d in per_cell if math.isinf(d))
    finite = [d for d in per_cell if not math.isinf(d)]
    mismatched_fraction = (n - matched) / n
    verdict = ("distinguishable" if mismatched_fraction >= MISMATCH_VERDICT_FRACTION
               else "indistinguishable")
    return DiscrepancyReport(
        per_cell=per_cell,
        matched_fraction=matched / n,
        max_discrepancy=max(finite) if finite else 0.0,
        sentinel_count=sentinels,
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
    counts = []
    for p in probes:
        na = _count_reflections(scene_a, p)
        nb = _count_reflections(scene_b, p)
        counts.append((na, nb))
    equal = sum(1 for a, b in counts if a == b)
    return ProbeCountReport(tuple(counts), equal / len(counts))


def _count_reflections(scene: Scene, p: PhaseState) -> int:
    _, events, _, _, _ = _trace_raw(scene, p.point, p.direction)
    return sum(1 for e in events if not e[4])


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
    seeded random sphere probes, then reports the fraction of a uniform
    boundary sample lying within eps of a mark. Raises ContractError when
    n_rays < 1 or eps is not a finite positive number.
    """
    if not 0.0 < eps < math.inf:
        raise ContractError(f"coverage eps must be finite and positive, got {eps}")
    X, V = _probe_rows(scene, n_rays, seed)
    nb = len(scene.bodies)
    marks = {}
    n_escaped = n_cutoff = 0
    for x, v in zip(X.tolist(), V.tolist()):
        escaped, events, _, _, _ = _trace_raw(scene, x, v)
        if not escaped:
            n_cutoff += 1
            continue
        n_escaped += 1
        for e in events:
            if e[4]:
                continue
            key = e[0] if e[0] < nb else (e[0], e[1])
            marks.setdefault(key, []).append(e[2])
    from scipy.spatial import cKDTree

    def covered_fraction(samples, key):
        pts = marks.get(key)
        if not pts:
            return 0.0, samples
        dist = cKDTree(np.asarray(pts)).query(samples)[0]
        keep = dist > eps
        return float(np.mean(~keep)), samples[keep]

    body_cov = []
    unreached = []
    for i, body in enumerate(scene.bodies):
        frac, missed = covered_fraction(boundary_samples(body, _COVERAGE_SAMPLES), i)
        body_cov.append(frac)
        if missed.size:
            unreached.append((i, missed))
    arc_cov = []
    for ci, curve in enumerate(scene.curves):
        per_arc = max(8, _COVERAGE_SAMPLES // len(curve.arcs))
        for ai, arc in enumerate(curve.arcs):
            frac, missed = covered_fraction(arc.sample(per_arc), (nb + ci, ai))
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
    a table whose kind is not "travel" or "synthetic".
    """
    if table.kind not in ("travel", "synthetic"):
        raise ContractError(f"reconstruction needs travelling-time samples, not a "
                            f"{table.kind!r} table")
    center = np.asarray(ball_center, dtype=float)
    a = float(ball_radius)
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
    c = params.focal_half_distance
    span = params.offset_span * c
    amax = math.radians(params.angle_span_deg)
    for i in range(params.n_offsets):
        x0 = -span + 2.0 * span * (i + 0.5) / params.n_offsets
        for j in range(params.n_angles):
            phi = -amax + 2.0 * amax * (j + 0.5) / params.n_angles
            yield i * params.n_angles + j, x0, (math.sin(phi), -math.cos(phi))


def livshits_demo(params: Optional[LivshitsParams] = None) -> LivshitsReport:
    """Run the full non-uniqueness demonstration.

    Checks, per hidden variant: zero hits on hidden arcs over the sampled
    aperture rays and zero hits on the plate undersides (the dynamical blind
    spot); the focal reflection property; that every sampled exit crossing
    of the focal line falls strictly between the foci; and that the two
    variants' sampled spectra are indistinguishable. Raises ContractError
    when n_offsets, n_angles or n_focal is below 1: with no ray traced, no
    check would vouch for anything.
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
    for scene in scenes:
        nb = len(scene.bodies)
        hidden_ids = {nb + ci for ci, cv in enumerate(scene.curves)
                      if "hidden" in cv.tags()}
        plate_arcs = set()
        for ci, cv in enumerate(scene.curves):
            for ai, arc in enumerate(cv.arcs):
                if "plate" in arc.tags:
                    plate_arcs.add((nb + ci, ai))
        h_hits = u_hits = 0
        cells = []
        for idx, x0, u in _aperture_family(params):
            escaped, events, leg, fdir, length = _trace_raw(scene, (x0, 0.0), u)
            incoming = u
            for e in events:
                if e[0] in hidden_ids:
                    h_hits += 1
                if (e[0], e[1]) in plate_arcs and incoming[1] > 0.0:
                    u_hits += 1
                incoming = e[6]
            if events:
                px, py = events[-1][2]
                dx, dy = events[-1][6]
                if dy > 0.0:
                    s = -py / dy
                    max_exit = max(max_exit, abs(px + s * dx))
            cells.append((length + _escape_distance(scene, leg, fdir),) if escaped else ())
        hidden_hits.append(h_hits)
        underside_hits.append(u_hits)
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
    focal_err = 0.0
    focus_a = (-c, 0.0)
    focus_b = np.array([c, 0.0])
    for j in range(params.n_focal):
        phi = math.radians(-80.0 + 160.0 * (j + 0.5) / params.n_focal)
        u = (math.sin(phi), -math.cos(phi))
        _, events, _, _, _ = _trace_raw(scenes[0], focus_a, u)
        if not events:
            raise ContractError("focal ray missed the bowl; geometry is invalid")
        px, py = events[0][2]
        dx, dy = events[0][6]
        r = focus_b - np.array([px, py])
        focal_err = max(focal_err, abs(dx * r[1] - dy * r[0]) / math.hypot(dx, dy))
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
