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

from .dynamics import PhaseState, TraceLimits, _trace_raw
from .geometry import (CurveObstacle, EllipticArc, Scene, SegmentArc, _as_tuple,
                       boundary_samples)
from .spectra import (ContractError, SpectrumTable, TravellingTimeSample,
                      _grid_tuple)

MISMATCH_VERDICT_FRACTION = 0.01


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
    """Seeded random inward phase points on the reference sphere."""
    rng = np.random.default_rng(seed)
    center = np.asarray(scene.ball_center)
    a = scene.ball_radius
    d = scene.dimension
    probes = []
    while len(probes) < n:
        u = rng.normal(size=d)
        u /= float(np.linalg.norm(u))
        x = center + a * u
        v = rng.normal(size=d)
        nv = float(np.linalg.norm(v))
        if nv == 0.0:
            continue
        v /= nv
        if float(v @ u) > -1e-9:
            v = v - 2.0 * float(v @ u) * u
        if float(v @ u) > -1e-9:
            continue
        probes.append(PhaseState(_as_tuple(x), _as_tuple(v)))
    return probes


def reflection_count_probe(scene_a: Scene, scene_b: Scene,
                           probes: Sequence[PhaseState],
                           limits: Optional[TraceLimits] = None) -> ProbeCountReport:
    """Trace each probe in both scenes and compare proper reflection counts."""
    counts = []
    for p in probes:
        na = _count_reflections(scene_a, p, limits)
        nb = _count_reflections(scene_b, p, limits)
        counts.append((na, nb))
    equal = sum(1 for a, b in counts if a == b)
    return ProbeCountReport(tuple(counts), equal / max(1, len(counts)))


def _count_reflections(scene: Scene, p: PhaseState, limits) -> int:
    lim = limits if limits is not None else TraceLimits.for_scene(scene)
    _, events, _, _, _ = _trace_raw(scene, p.point, p.direction, lim)
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
                        limits: Optional[TraceLimits] = None, seed: int = 0,
                        samples_per_obstacle: int = 2048) -> CoverageReport:
    """Monte Carlo estimate of the reachable part of each obstacle boundary.

    Marks every proper reflection point of escaped trajectories launched from
    seeded random sphere probes, then reports the fraction of a uniform
    boundary sample lying within eps of a mark.
    """
    if limits is None:
        limits = TraceLimits.for_scene(scene)
    probes = sphere_probes(scene, n_rays, seed)
    nb = len(scene.bodies)
    marks = {}
    n_escaped = n_cutoff = 0
    for p in probes:
        escaped, events, _, _, _ = _trace_raw(scene, p.point, p.direction, limits)
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
        frac, missed = covered_fraction(boundary_samples(body, samples_per_obstacle), i)
        body_cov.append(frac)
        if missed.size:
            unreached.append((i, missed))
    arc_cov = []
    for ci, curve in enumerate(scene.curves):
        per_arc = max(8, samples_per_obstacle // len(curve.arcs))
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
    coverage: Optional[float]


def reconstruct_boundary(table: SpectrumTable, ball_center, ball_radius: float,
                         ground_truth: Optional[np.ndarray] = None,
                         coverage_eps: Optional[float] = None,
                         consistency_tol: float = 1e-6) -> BoundaryEstimate:
    """Recover reflection points from single-reflection travelling times.

    For a sample (x, y, t) with outgoing direction u at y, the reflection
    point is p = y - tau u where tau solves |x - (y - tau u)| = t - tau; the
    admissible root must lie in (0, t). Samples without such a root are
    skipped and counted, which flags misclassified entries.
    """
    center = np.asarray(ball_center, dtype=float)
    a = float(ball_radius)
    pts = []
    prov = []
    skipped = 0
    for s in table.samples:
        if getattr(s, "reflections", None) != 1:
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
        if abs(float(np.linalg.norm(x - p)) + float(np.linalg.norm(p - y)) - t) >= consistency_tol:
            skipped += 1
            continue
        if float(np.linalg.norm(p - center)) >= a:
            skipped += 1
            continue
        pts.append(p)
        prov.append((s.x, s.y, s.t, s.dir_out))
    points = np.array(pts) if pts else np.empty((0, center.size))
    coverage = None
    if ground_truth is not None and coverage_eps is not None:
        gt = np.asarray(ground_truth, dtype=float)
        if points.size == 0:
            coverage = 0.0
        else:
            from scipy.spatial import cKDTree

            dist = cKDTree(points).query(gt)[0]
            coverage = float(np.mean(dist <= coverage_eps))
    return BoundaryEstimate(points, tuple(prov), skipped, coverage)


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


def samples_table(samples: Sequence[TravellingTimeSample], scene_digest: str = "",
                  label: str = "synthetic") -> SpectrumTable:
    """Wrap loose travelling-time samples as a one-cell-per-sample table."""
    cells = tuple((s.t,) for s in samples)
    grid = _grid_tuple({"kind": label, "n": len(samples)})
    return SpectrumTable(label, scene_digest, grid, cells, tuple(samples), ())


# ---------------------------------------------------------------------------
# Livshits demonstration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LivshitsParams:
    """Geometry and sampling knobs for the non-uniqueness demonstration.

    The cavity is a lower half-ellipse bowl whose rim sits on the focal
    line; ceiling plates extend from the rim to lips just outside the foci,
    so every ray entering strictly between the foci reflects once off the
    bowl and leaves strictly between the foci again. The two hidden-arc
    variants live in a sealed pocket below the bowl: a thin curve cannot
    shield an exposed arc from shallow exterior rays, so exact hiding needs
    the pocket, while the dynamical blind spot is verified separately via
    the plate undersides.
    """

    semi_major: float = 2.0
    focal_half_distance: float = 1.0
    lip_margin: float = 0.05
    ball_radius: float = 10.0
    n_offsets: int = 400
    n_angles: int = 250
    offset_span: float = 0.95
    angle_span_deg: float = 75.0
    n_focal: int = 1000
    pocket_halfwidth: float = 1.0
    pocket_height: float = 0.6
    pocket_clearance: float = 0.5
    hidden_halfwidth: float = 0.6
    bump_height: float = 0.15

    @property
    def semi_minor(self) -> float:
        return math.sqrt(self.semi_major**2 - self.focal_half_distance**2)

    @property
    def lip(self) -> float:
        return self.focal_half_distance * (1.0 + self.lip_margin)

    def validate(self):
        if not (self.semi_major > self.focal_half_distance > 0.0):
            raise ContractError("need semi_major > focal_half_distance > 0")
        if self.lip_margin <= 0.0:
            raise ContractError("foci outside aperture: lips must clear the foci")
        if self.bump_height >= self.pocket_height / 2.0:
            raise ContractError("hidden bump does not fit inside the pocket")


def build_livshits_scene(params: LivshitsParams, hidden_variant: str) -> Scene:
    """Demo scene with the requested hidden-arc variant ('bump' or 'flat')."""
    params.validate()
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


def livshits_demo(params: Optional[LivshitsParams] = None,
                  limits: Optional[TraceLimits] = None) -> LivshitsReport:
    """Run the full non-uniqueness demonstration.

    Checks, per hidden variant: zero hits on hidden arcs over the sampled
    aperture rays and zero hits on the plate undersides (the dynamical blind
    spot); the focal reflection property; that every sampled exit crossing
    of the focal line falls strictly between the foci; and that the two
    variants' sampled spectra are indistinguishable.
    """
    if params is None:
        params = LivshitsParams()
    params.validate()
    scenes = (build_livshits_scene(params, "bump"),
              build_livshits_scene(params, "flat"))
    if limits is None:
        limits = TraceLimits.for_scene(scenes[0])
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
            escaped, events, fpt, fdir, total = _trace_raw(scene, (x0, 0.0), u, limits)
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
            cells.append((total,) if escaped else ())
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
        _, events, _, _, _ = _trace_raw(scenes[0], focus_a, u, limits)
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
