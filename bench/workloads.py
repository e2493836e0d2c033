"""The benchmark's workloads: scene documents, seeded inputs, job lists and
output checks.

Every workload is closed-loop: one process issues each call into scatterlab
only after the previous one returns. Inputs come from the run's seed and are
handed to scatterlab as plain arguments. Items are the units ``items_per_s``
counts and ``fail_frac`` divides by: ordered-pair cells for the travel
workloads, launched rays for ``ray-families-2d``. A job-level check that
fails counts every item of that job as failed.

Why these three:
- ``rigidity-2d`` is criterion 7, the default serial path (sweep, refine and
  merge in one process) that the CLI and criteria 5 and 7 use.
- ``ray-families-2d`` launches bulk independent rays and finds no roots, so it
  isolates the ray kernel and the trace loop. Shooting and merge changes
  should not move it.
- ``travel-3d`` is the only user of the n-D path: ``ray_intersect``, the
  Nelder-Mead polish and a fresh seed sweep per pair.

A repeat takes 0.3-0.7 s when the host runs at full speed, so that the
reference kernel timed just before and after it sees the host at about the
speed the repeat saw (see ``reference_seconds`` in ``run.py``). The pool
workload of criterion 8 runs one 3-4 s call on both vCPUs and was left out
as unsteady; see README.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import time

import numpy as np

import scatterlab as sl
from scatterlab.cli import write_travel_csv

from oracle import one_bounce_mismatch, planar_reduction

BALL_RADIUS = 10.0
CSV_PRECISION = 17

# Acceptance-criteria tolerances (tests/test_acceptance.py).
RIGIDITY_TOL = 1e-9            # criterion 7 comparison tolerance
FERMAT_TOL = 1e-6              # criterion 5 one-bounce agreement
FREE_RAY_TOL = 1e-9            # criterion 1 free-ray sojourn
DISTINGUISH_SHARE = 0.01       # criterion 7, as a share of the ball radius
COVERAGE_EPS = 0.05            # criterion 10
PROBE_ROTATION = 0.83          # criterion 6

RIGIDITY_PHASE = 0.3


# ---------------------------------------------------------------------------
# Scene documents
# ---------------------------------------------------------------------------

def _document(name, dimension, bodies) -> str:
    return json.dumps({
        "dimension": dimension,
        "ball": {"center": [0.0] * dimension, "radius": BALL_RADIUS},
        "bodies": bodies,
        "metadata": {"name": name},
    })


def _disk(center, radius=1.0) -> dict:
    return {"kind": "ball", "center": list(center), "semiaxes": [radius, radius]}


def _rot2(angle) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def _rot3(axis, angle) -> np.ndarray:
    out = np.eye(3)
    i, j = [k for k in range(3) if k != axis]
    c, s = math.cos(angle), math.sin(angle)
    out[i, i], out[i, j], out[j, i], out[j, j] = c, -s, s, c
    return out


TWO_DISK = [(-3.0, 0.0), (3.0, 0.0)]
TWO_DISK_MOVED = [(-3.0, 0.0), (4.0, 0.0)]
THREE_DISK = [(3.2, 0.0), (-1.6, 2.8), (-1.6, -2.8)]


def _disk_document(name, centers) -> str:
    return _document(name, 2, [_disk(c) for c in centers])


def ball_ellipsoid_document() -> str:
    """One unit ball and one tilted ellipsoid in d=3."""
    tilt = _rot3(2, 0.5) @ _rot3(0, 0.4)
    return _document("ball-ellipsoid-3d", 3, [
        {"kind": "ball", "center": [-3.0, 0.0, 0.0], "semiaxes": [1.0, 1.0, 1.0]},
        {"kind": "ellipsoid", "center": [3.0, 0.5, 0.0], "semiaxes": [1.5, 1.0, 0.7],
         "rotation": tilt.tolist()},
    ])


# ---------------------------------------------------------------------------
# Output checks shared by the travel workloads
# ---------------------------------------------------------------------------

def hausdorff_1d(a, b) -> float:
    """Hausdorff distance of two time sets; inf when exactly one is empty.

    Written here rather than imported, so the checks do not rest on the code
    they check.
    """
    if not a and not b:
        return 0.0
    if not a or not b:
        return math.inf
    return max(max(min(abs(x - y) for y in b) for x in a),
               max(min(abs(x - y) for x in a) for y in b))


def _travel_failures(table, n_points: int, notes: list) -> set:
    """Cells failing pair symmetry or the residual bound."""
    pairs = [(i, j) for i in range(n_points) for j in range(n_points) if i != j]
    if len(table.cells) != len(pairs):
        notes.append(f"{len(table.cells)} cells, expected {len(pairs)}")
        return set(range(max(len(table.cells), len(pairs))))
    tol = dict(table.grid)["tol"]
    index = {ij: k for k, ij in enumerate(pairs)}
    failed = set()
    for k, (i, j) in enumerate(pairs):
        if not hausdorff_1d(table.cells[k], table.cells[index[(j, i)]]) <= tol:
            failed.add(k)
    bad_residual = {s.pair for s in table.samples if not s.residual < tol}
    if failed:
        notes.append(f"{len(failed)} cells differ from their swapped pair by more than {tol}")
    if bad_residual:
        notes.append(f"{len(bad_residual)} cells hold samples with residual >= {tol}")
    return failed | bad_residual


def _fermat_failures(samples, rows, chk: "Check") -> set:
    """Cells whose one-bounce samples miss the Fermat oracle by FERMAT_TOL.

    ``rows`` holds, per sample, (t, x2, y2, centre2, radius) in the sample's
    reflection plane.
    """
    chk.oracle_samples += len(rows)
    if not rows:
        return set()
    t, x, y, c, r = (np.array(col) for col in zip(*rows))
    miss = one_bounce_mismatch(t, x, y, c, r)
    bad = {s.pair for s, m in zip(samples, miss) if not m < FERMAT_TOL}
    if bad:
        chk.notes.append(f"{len(bad)} cells hold one-bounce samples off the Fermat "
                         f"oracle by >= {FERMAT_TOL} (worst {float(np.max(miss)):.3g})")
    return bad


def _one_bounce_2d(table, scene):
    samples = [s for s in table.samples if s.reflections == 1]
    rows = []
    for s in samples:
        body = scene.bodies[s.itinerary[0]]
        rows.append((s.t, s.x, s.y, body.center, body.semiaxes[0]))
    return samples, rows


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def travel_table(tr, stats: list, scene, **kwargs):
    """``travelling_time_spectrum`` with the wall time and the CPU time of the
    process around it."""
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    with tr.span("spectra.travelling_time_spectrum"):
        table = sl.travelling_time_spectrum(scene, **kwargs)
    wall = time.perf_counter() - t0
    stats.append({
        "wall_s": wall,
        "parent_cpu_s": _cpu(resource.getrusage(resource.RUSAGE_SELF)) - _cpu(self0),
        "samples": len(table.samples),
        **table.diagnostics_dict(),
    })
    return table


class Check:
    """Items checked, the failed ones, and why they failed."""

    def __init__(self, items: int):
        self.items = items
        self.failed = 0
        self.oracle_samples = 0
        self.notes: list[str] = []


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """Documents, inputs, job, checks and reference tables of one workload.

    ``documents`` and ``inputs`` draw from one seeded generator in that order,
    so a seed fixes every input. ``job`` makes every call into scatterlab
    that ``solve_s`` times, each inside a span named after its layer.
    """

    name = ""

    def documents(self, rng, tiny: bool) -> dict:
        raise NotImplementedError

    def inputs(self, rng, tiny: bool, scenes: dict) -> dict:
        raise NotImplementedError

    def job(self, inp: dict, tr, out_dir: str) -> dict:
        raise NotImplementedError

    def check(self, inp: dict, out: dict) -> Check:
        raise NotImplementedError

    def tables(self, out: dict) -> dict:
        """Cells of each spectrum table the job builds, for the reference."""
        raise NotImplementedError

    def items(self, inp: dict) -> int:
        raise NotImplementedError

    def fingerprint(self, out: dict) -> str:
        """Digest of the outputs; every repeat must reproduce the first."""
        return digest(self.tables(out))

    def layer_values(self, out: dict) -> dict:
        """Per-layer metrics that only this workload's outputs carry."""
        return {}


def setup(workload: Workload, seed: int, tiny: bool = False) -> dict:
    """Parse the workload's scene documents and generate its inputs."""
    rng = np.random.default_rng(seed)
    docs = workload.documents(rng, tiny)
    scenes = {k: sl.parse_scene_document(text).scene for k, text in docs.items()}
    inp = workload.inputs(rng, tiny, scenes)
    inp.update(seed=seed, tiny=tiny, docs=docs, scenes=scenes)
    return inp


class Rigidity2D(Workload):
    name = "rigidity-2d"

    def documents(self, rng, tiny):
        return {"two-disk": _disk_document("two-disk", TWO_DISK),
                "two-disk-moved": _disk_document("two-disk-moved", TWO_DISK_MOVED)}

    def inputs(self, rng, tiny, scenes):
        # The seed picks the lattice phase or its mirror image across the line
        # of centres, which both scenes are symmetric about, so every seed
        # does the same work. Phases drawn from the whole range changed the
        # job's time up to 2.6-fold at this size.
        n = 3 if tiny else 4
        phase = RIGIDITY_PHASE if rng.random() < 0.5 else 2.0 * math.pi / n - RIGIDITY_PHASE
        return {"n_points": n, "phase": phase}

    def items(self, inp):
        return 2 * inp["n_points"] * (inp["n_points"] - 1)

    def job(self, inp, tr, out_dir):
        stats = []
        kw = dict(n_points=inp["n_points"], phase=inp["phase"], threads=1)
        table = travel_table(tr, stats, inp["scenes"]["two-disk"], **kw)
        moved = travel_table(tr, stats, inp["scenes"]["two-disk-moved"], **kw)
        with tr.span("rigidity.compare_spectra"):
            report = sl.compare_spectra(table, moved, tol=RIGIDITY_TOL)
        path = os.path.join(out_dir, f"{self.name}-{inp['seed']}.csv")
        with tr.span("cli.write_travel_csv"):
            write_travel_csv(table, path, CSV_PRECISION)
        with open(path, "rb") as fh:
            csv = fh.read()
        return {"tables": (table, moved), "report": report, "csv": csv, "stats": stats}

    def tables(self, out):
        return {"two-disk": out["tables"][0].cells, "two-disk-moved": out["tables"][1].cells}

    def layer_values(self, out):
        return {"cli.csv_bytes": len(out["csv"])}

    def fingerprint(self, out):
        r = out["report"]
        return digest((self.tables(out), r.verdict, r.max_discrepancy, out["csv"]))

    def check(self, inp, out):
        chk = Check(self.items(inp))
        n = inp["n_points"]
        failed = 0
        for table, key in zip(out["tables"], ("two-disk", "two-disk-moved")):
            bad = _travel_failures(table, n, chk.notes)
            bad |= _fermat_failures(*_one_bounce_2d(table, inp["scenes"][key]), chk)
            failed += len(bad)
        report = out["report"]
        job_ok = (report.verdict == "distinguishable"
                  and report.max_discrepancy > DISTINGUISH_SHARE * BALL_RADIUS)
        if not job_ok:
            chk.notes.append(f"verdict {report.verdict}, max discrepancy {report.max_discrepancy}")
        rows = out["csv"].decode().splitlines()
        samples = out["tables"][0].samples
        times = [float(r.split(",")[4]) for r in rows[1:]]
        if len(rows) != len(samples) + 1 or times != [s.t for s in samples]:
            chk.notes.append("travel CSV does not round-trip the table's times")
            job_ok = False
        chk.failed = failed if job_ok else chk.items
        return chk


class RayFamilies2D(Workload):
    name = "ray-families-2d"

    def documents(self, rng, tiny):
        rot = _rot2(PROBE_ROTATION)
        return {"three-disk": _disk_document("three-disk", THREE_DISK),
                "three-disk-rotated": _disk_document(
                    "three-disk-rotated", [tuple(rot @ c) for c in THREE_DISK])}

    def inputs(self, rng, tiny, scenes):
        k, n, p, c, m = (2, 64, 100, 1000, 1) if tiny else (4, 512, 2000, 1000, 4)
        offset = rng.uniform(0.0, 2.0 * math.pi / k)
        ang = offset + 2.0 * math.pi * np.arange(k) / k
        probes = sphere_probes(rng, scenes["three-disk"], p)
        rot = _rot2(PROBE_ROTATION)
        rotated = [sl.PhaseState(tuple(rot @ q.point), tuple(rot @ q.direction))
                   for q in probes]
        params = sl.LivshitsParams(n_offsets=20, n_angles=20, n_focal=40) if tiny else \
            sl.LivshitsParams(n_offsets=60, n_angles=50, n_focal=200)
        return {"directions": [(math.cos(a), math.sin(a)) for a in ang],
                "sls_offset": float(offset), "n_impacts": n,
                "probes": probes, "rotated_probes": rotated,
                "coverage_rays": c,
                "coverage_seeds": [int(v) for v in rng.integers(2**31, size=m)],
                "livshits": params,
                "bump": sl.build_livshits_scene(sl.LivshitsParams(), "bump")}

    def items(self, inp):
        liv = inp["livshits"]
        return (len(inp["directions"]) * inp["n_impacts"] + 4 * len(inp["probes"])
                + inp["coverage_rays"] * len(inp["coverage_seeds"]) + 2 * liv.n_offsets * liv.n_angles + liv.n_focal)

    def job(self, inp, tr, out_dir):
        scenes = inp["scenes"]
        sls = []
        for w in inp["directions"]:
            with tr.span("spectra.scan_sls"):
                sls.append(sl.scan_sls(scenes["three-disk"], w, inp["n_impacts"]))
        with tr.span("rigidity.reflection_count_probe"):
            counts = sl.reflection_count_probe(scenes["three-disk"], scenes["three-disk-rotated"],
                                               inp["probes"])
        with tr.span("rigidity.reflection_count_probe"):
            counts_rot = sl.reflection_count_probe(scenes["three-disk"],
                                                   scenes["three-disk-rotated"],
                                                   inp["rotated_probes"])
        cov = []
        for seed in inp["coverage_seeds"]:
            with tr.span("rigidity.accessible_coverage"):
                cov.append(sl.accessible_coverage(inp["bump"], inp["coverage_rays"],
                                                  COVERAGE_EPS, seed=seed))
        with tr.span("rigidity.livshits_demo"):
            liv = sl.livshits_demo(inp["livshits"])
        return {"sls": sls, "counts": counts, "counts_rot": counts_rot,
                "coverage": cov, "livshits": liv, "stats": []}

    def tables(self, out):
        return {f"sls-{k}": t.cells for k, t in enumerate(out["sls"])}

    def fingerprint(self, out):
        liv = out["livshits"]
        return digest((self.tables(out), out["counts"].counts, out["counts_rot"].counts,
                       [(c.body_coverage, c.arc_coverage, c.n_escaped) for c in out["coverage"]],
                       liv.hidden_hits, liv.plate_underside_hits, liv.focal_max_error,
                       liv.max_abs_exit_crossing, [t.cells for t in liv.tables]))

    def check(self, inp, out):
        chk = Check(self.items(inp))
        n = inp["n_impacts"]
        for table in out["sls"]:
            cutoff = table.diagnostics_dict()["cutoff"]
            if len(table.samples) + cutoff != n:
                chk.notes.append(f"sls scan accounts for {len(table.samples) + cutoff} of {n} rays")
                chk.failed += n
                continue
            bad = sum(1 for s in table.samples
                      if s.reflections == 0 and not abs(s.sojourn) < FREE_RAY_TOL)
            if bad:
                chk.notes.append(f"{bad} reflection-free sls rays with |T| >= {FREE_RAY_TOL}")
            chk.failed += bad
        # Probe k traced in the scene equals its rotated copy traced in the
        # rotated scene (criterion 6).
        mism = sum(1 for a, b in zip(out["counts"].counts, out["counts_rot"].counts)
                   if a[0] != b[1])
        if mism:
            chk.notes.append(f"{mism} probes change reflection count under rotation")
        chk.failed += 2 * mism
        for cov in out["coverage"]:
            hidden = cov.coverage_of_tag("hidden")
            if not (hidden and all(c == 0.0 for c in hidden)
                    and cov.n_escaped + cov.n_cutoff == inp["coverage_rays"]):
                chk.notes.append(f"hidden coverage {hidden}, "
                                 f"{cov.n_escaped}+{cov.n_cutoff} rays")
                chk.failed += inp["coverage_rays"]
        liv = out["livshits"]
        if not (liv.hidden_hits == (0, 0) and liv.plate_underside_hits == (0, 0)
                and liv.comparison.verdict == "indistinguishable"
                and liv.comparison.matched_fraction == 1.0
                and liv.focal_max_error < 1e-9 and liv.exits_between_foci):
            chk.notes.append(f"Livshits demo: hidden {liv.hidden_hits}, underside "
                             f"{liv.plate_underside_hits}, {liv.comparison.verdict}")
            p = inp["livshits"]
            chk.failed += 2 * p.n_offsets * p.n_angles + p.n_focal
        return chk


class Travel3D(Workload):
    name = "travel-3d"

    def documents(self, rng, tiny):
        # The seed changes no input here: the d=3 lattice has no phase, and
        # turning the scene instead moved the table's cost by up to 20%
        # between seeds, too much for the benchmark's bound.
        return {"ball-ellipsoid": ball_ellipsoid_document()}

    def inputs(self, rng, tiny, scenes):
        return {"n_points": 3}

    def items(self, inp):
        return inp["n_points"] * (inp["n_points"] - 1)

    def job(self, inp, tr, out_dir):
        stats = []
        table = travel_table(tr, stats, inp["scenes"]["ball-ellipsoid"],
                             n_points=inp["n_points"])
        return {"table": table, "stats": stats}

    def tables(self, out):
        return {"ball-ellipsoid": out["table"].cells}

    def check(self, inp, out):
        chk = Check(self.items(inp))
        table = out["table"]
        bad = _travel_failures(table, inp["n_points"], chk.notes)
        ball = inp["scenes"]["ball-ellipsoid"].bodies[0]
        samples, rows = [], []
        for s in table.samples:
            if s.reflections != 1 or s.itinerary != (0,):
                continue
            plane = planar_reduction(s.x, s.y, ball.center)
            if plane is None:
                continue
            samples.append(s)
            rows.append((s.t, plane[0], plane[1], (0.0, 0.0), ball.semiaxes[0]))
        chk.failed = len(bad | _fermat_failures(samples, rows, chk))
        return chk


def sphere_probes(rng, scene, n: int) -> list:
    """Seeded inward phase points on the reference sphere."""
    d = scene.dimension
    center = np.asarray(scene.ball_center)
    out = []
    while len(out) < n:
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        v = rng.normal(size=d)
        v /= np.linalg.norm(v)
        if v @ u > -1e-3:
            continue
        out.append(sl.PhaseState(tuple(center + scene.ball_radius * u), tuple(v)))
    return out


WORKLOADS = {w.name: w for w in (Rigidity2D(), RayFamilies2D(), Travel3D())}
