"""Per-layer numbers of the traced run.

The kernel probes call one layer's public functions directly on seeded
inputs and are timed as batches: one span and one clock pair per batch, so
the clock costs nothing per call. The rest come from the traced job: its
spans, the CPU deltas around each travel table, and the cells of its tables
against the reference cells stored in ``ref/``.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from pathlib import Path

import numpy as np

import scatterlab as sl
from scatterlab.spectra import spectrum_pairs

from workloads import BALL_RADIUS, ball_ellipsoid_document, sphere_probes, hausdorff_1d

REF_DIR = Path(__file__).resolve().parent / "ref"
LAYERS = ("bench", "scenefile", "geometry", "dynamics", "spectra", "rigidity", "cli")

HIT_RAYS = 2000
TRACE_PROBES = 500
PAIRS = 2
SLS_DIRECTIONS = 2
SLS_IMPACTS = 256
BATCHES = 3


def _batched(tr, name: str, fn, batches: int = BATCHES) -> float:
    """Median seconds of ``fn()`` over several batches, one span each."""
    times = []
    for _ in range(batches):
        with tr.span(name):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _aimed_rays(rng, dimension: int, n: int):
    """Rays from the reference sphere aimed at points within radius 2 of the
    centre, so some hit the probe obstacle and some miss it."""
    out = []
    for _ in range(n):
        o = rng.normal(size=dimension)
        o *= BALL_RADIUS / np.linalg.norm(o)
        target = rng.normal(size=dimension)
        target *= 2.0 * rng.uniform() ** (1.0 / dimension) / np.linalg.norm(target)
        u = target - o
        out.append((tuple(o), tuple(u / np.linalg.norm(u))))
    return out


def geometry_probe(tr, rng) -> dict:
    kinds = {
        "ball2d": sl.Scene(dimension=2, bodies=(sl.ball((0.0, 0.0), 1.0),),
                           ball_radius=BALL_RADIUS),
        "ellipse2d": sl.Scene(dimension=2,
                              bodies=(sl.ellipsoid((0.0, 0.0), (1.5, 0.7), sl.rotation_2d(0.3)),),
                              ball_radius=BALL_RADIUS),
        "arcs": sl.build_livshits_scene(sl.LivshitsParams(), "bump"),
        "nd": sl.parse_scene(ball_ellipsoid_document()),
    }
    out = {}
    hits = total = 0
    for kind, scene in kinds.items():
        rays = _aimed_rays(rng, scene.dimension, HIT_RAYS)
        found = []

        def batch():
            found[:] = [sl.scene_first_hit(scene, o, u) is not None for o, u in rays]

        out[f"geometry.first_hit_us.{kind}"] = 1e6 * _batched(tr, "geometry.scene_first_hit",
                                                              batch) / len(rays)
        hits += sum(found)
        total += len(found)
    out["geometry.hit_frac"] = hits / total
    return out


def dynamics_probe(tr, rng, scenes) -> dict:
    probes = [(scene, p) for scene in scenes for p in sphere_probes(rng, scene, TRACE_PROBES)]
    records = []

    def batch():
        records[:] = [sl.trace(scene, p) for scene, p in probes]

    seconds = _batched(tr, "dynamics.trace", batch)
    return {"dynamics.trace_us": 1e6 * seconds / len(probes),
            "dynamics.reflections_per_trace": sum(r.reflections for r in records) / len(records),
            "dynamics.escaped_frac": sum(r.escaped for r in records) / len(records)}


def spectra_probe(tr, rng, scene, n_points: int, phase: float) -> dict:
    pairs = spectrum_pairs(scene, n_points, phase=phase)
    chosen = [pairs[k] for k in rng.choice(len(pairs), size=PAIRS, replace=False)]
    pair_times = []
    for x, y in chosen:
        with tr.span("spectra.find_xy_geodesics"):
            t0 = time.perf_counter()
            sl.find_xy_geodesics(scene, x, y)
            pair_times.append(time.perf_counter() - t0)
    d = scene.dimension
    directions = []
    for a in rng.uniform(0.0, 2.0 * math.pi, size=SLS_DIRECTIONS):
        w = np.zeros(d)
        w[:2] = math.cos(a), math.sin(a)
        directions.append(tuple(w))

    def batch():
        for w in directions:
            sl.scan_sls(scene, w, SLS_IMPACTS)

    sls_s = _batched(tr, "spectra.scan_sls", batch, batches=1)
    return {"spectra.pair_s": statistics.median(pair_times),
            "spectra.sls_us_per_ray": 1e6 * sls_s / (SLS_DIRECTIONS * SLS_IMPACTS)}


def parse_probe(tr, docs: dict) -> float:
    def batch():
        for text in docs.values():
            sl.parse_scene_document(text)

    return _batched(tr, "scenefile.parse_scene_document", batch)


def load_reference(name: str) -> dict:
    with open(REF_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def write_reference(name: str, seed: int, tables: dict):
    REF_DIR.mkdir(exist_ok=True)
    doc = {"workload": name, "seed": seed,
           "tables": {k: [list(c) for c in cells] for k, cells in tables.items()}}
    with open(REF_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def cell_changes(reference: dict, tables: dict) -> list:
    """(table, cell, reference times, new times, shift) for each changed cell.

    The shift is the cell's Hausdorff distance, inf when one side is empty.
    """
    changes = []
    for key, ref_cells in reference["tables"].items():
        new_cells = tables.get(key, ())
        for k in range(max(len(ref_cells), len(new_cells))):
            old = tuple(ref_cells[k]) if k < len(ref_cells) else ()
            new = tuple(new_cells[k]) if k < len(new_cells) else ()
            if old != new:
                changes.append((key, k, old, new, hausdorff_1d(old, new)))
    return changes


def job_metrics(tr, stats: list, changes: list) -> dict:
    """Per-layer numbers read off the traced job's spans and table stats."""

    def span_s(name):
        return sum(tr.durations(name))

    def mean(key):
        return statistics.fmean(s[key] for s in stats) if stats else 0.0

    samples = sum(s["samples"] for s in stats)
    dropped = sum(s["dropped_clusters"] for s in stats)
    finite = [c[4] for c in changes if not math.isinf(c[4])]
    return {
        "spectra.table_s": mean("wall_s"),
        "spectra.table_parent_cpu_s": mean("parent_cpu_s"),
        "spectra.pool_wait_s": mean("wall_s") - mean("parent_cpu_s"),
        "spectra.samples": samples,
        "spectra.dropped_clusters": dropped,
        "spectra.cutoff_seeds": sum(s["cutoff_seeds"] for s in stats),
        "spectra.root_yield": samples / (samples + dropped) if samples + dropped else 0.0,
        "spectra.cells_changed": len(changes),
        "spectra.max_cell_shift": max(finite, default=0.0),
        "rigidity.compare_s": span_s("rigidity.compare_spectra"),
        "rigidity.probe_s": span_s("rigidity.reflection_count_probe"),
        "rigidity.coverage_s": span_s("rigidity.accessible_coverage"),
        "rigidity.livshits_s": span_s("rigidity.livshits_demo"),
        "cli.write_csv_s": span_s("cli.write_travel_csv"),
    }
